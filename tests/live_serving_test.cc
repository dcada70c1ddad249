// Live-traffic serving tests (DESIGN.md "Live serving"):
//  - obs::RollingMean windows correctly (the drift gauge's primitive);
//  - RollingSpeedField replicates SpeedMatrixBuilder geometry, serves
//    ingested means with baseline fall-through (never through a baseline of
//    another grid), rejects junk observations
//    and rolls its window;
//  - the serving epoch: after BumpEpoch a repeated query answers from the
//    new speed field, and SwapState answers new requests from the new model
//    bit-identically to a fresh process while in-flight work finishes on
//    the old epoch;
//  - a fleet of one hot-swaps a rewritten artifact, rolls back (keeps
//    serving) on a corrupt one, and recovers on the next good write;
//  - swap under sustained load: concurrent Estimate/EstimateBatch traffic
//    across repeated swaps, zero failures, every batch answered wholly by
//    one artifact generation, post-swap answers bit-identical to a fresh
//    process on the final artifact;
//  - DriftMonitor: rolling MAE rises under a shock, the retrain trigger
//    edge-fires once, and ingesting fresh observations through the rolling
//    field brings the MAE back down;
//  - the ObserveTrip frame codec round-trips and the server ingests observe
//    frames into the rolling field + drift monitor hooked to its fleet of
//    one, while request and observe frames with an unservable OD (or
//    actual) are refused alike without touching the hooks;
//  - serve::CollectStats merges every source's registry into one
//    name-sorted record set (the unified stats schema).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/deepod_config.h"
#include "core/deepod_model.h"
#include "core/encoders.h"
#include "core/trainer.h"
#include "io/model_artifact.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "serve/drift_monitor.h"
#include "serve/eta_service.h"
#include "serve/fleet_router.h"
#include "serve/server/frame.h"
#include "serve/server/loadgen.h"
#include "serve/server/server.h"
#include "serve/serving_state.h"
#include "serve/stats.h"
#include "sim/dataset.h"
#include "sim/rolling_speed_field.h"
#include "sim/snapshot_speed_field.h"
#include "registry_value.h"

namespace deepod {
namespace {

// Same tiny dataset shape as artifact_test.cc (expensive to build, shared).
const sim::Dataset& TinyDataset() {
  static const sim::Dataset* dataset = [] {
    sim::DatasetConfig config;
    config.city = road::XianSimConfig();
    config.city.rows = 6;
    config.city.cols = 6;
    config.trips_per_day = 12;
    config.num_days = 15;
    config.seed = 31;
    return new sim::Dataset(sim::BuildDataset(config));
  }();
  return *dataset;
}

core::DeepOdConfig TinyConfig() {
  core::DeepOdConfig config = core::DeepOdConfig().Scaled(16);
  config.epochs = 1;
  config.batch_size = 8;
  return config;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

std::vector<traj::OdInput> TestOds(size_t n) {
  const auto& dataset = TinyDataset();
  const auto& trips = dataset.test.empty() ? dataset.train : dataset.test;
  std::vector<traj::OdInput> ods;
  for (size_t i = 0; i < n; ++i) ods.push_back(trips[i % trips.size()].od);
  return ods;
}

// The frozen speed field over the test-query window, as deepod_train ships
// it inside an artifact.
const sim::SnapshotSpeedField& FrozenField() {
  static const sim::SnapshotSpeedField* field = [] {
    const auto& dataset = TinyDataset();
    double begin = dataset.test.front().od.departure_time;
    double end = begin;
    for (const auto& trip : dataset.test) {
      begin = std::min(begin, trip.od.departure_time);
      end = std::max(end, trip.od.departure_time);
    }
    return new sim::SnapshotSpeedField(
        sim::SnapshotSpeedField::Capture(*dataset.speed_matrices, begin, end));
  }();
  return *field;
}

// Two artifact generations over the same dataset + network: v1 is the
// deterministic untrained model, v2 the same architecture after one epoch —
// exactly the "retrain produced new weights, same compatibility surface"
// shape an in-place hot swap is for.
const std::string& ArtifactV1() {
  static const std::string* path = [] {
    core::DeepOdModel model(TinyConfig(), TinyDataset());
    model.SetTraining(false);
    auto* p = new std::string(TempPath("live_serving_v1.artifact"));
    io::WriteModelArtifact(*p, model, &FrozenField());
    return p;
  }();
  return *path;
}

const std::string& ArtifactV2() {
  static const std::string* path = [] {
    core::DeepOdModel model(TinyConfig(), TinyDataset());
    core::DeepOdTrainer trainer(model, TinyDataset());
    trainer.Train();
    model.SetTraining(false);
    auto* p = new std::string(TempPath("live_serving_v2.artifact"));
    io::WriteModelArtifact(*p, model, &FrozenField());
    return p;
  }();
  return *path;
}

// A fleet of one serving `state` over the tiny dataset's network. The
// network is not owned: the static dataset outlives every router.
std::unique_ptr<serve::FleetRouter> FleetOfOne(
    std::shared_ptr<serve::ServingState> state,
    const serve::FleetRouterOptions& options = {}) {
  return std::make_unique<serve::FleetRouter>(
      std::move(state),
      std::shared_ptr<const road::RoadNetwork>(
          std::shared_ptr<const road::RoadNetwork>(), &TinyDataset().network),
      options);
}

// Copies `src` over `dst` with an atomic rename — the publish discipline
// CONTRIBUTING.md prescribes for watched artifact paths.
void PublishArtifact(const std::string& src, const std::string& dst) {
  const std::string tmp = dst + ".tmp";
  {
    std::FILE* in = std::fopen(src.c_str(), "rb");
    std::FILE* out = std::fopen(tmp.c_str(), "wb");
    ASSERT_NE(in, nullptr);
    ASSERT_NE(out, nullptr);
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
      ASSERT_EQ(std::fwrite(buf, 1, n, out), n);
    }
    std::fclose(in);
    std::fclose(out);
  }
  ASSERT_EQ(std::rename(tmp.c_str(), dst.c_str()), 0);
}

// --- obs::RollingMean -------------------------------------------------------

TEST(RollingMean, WindowsAndResets) {
  obs::RollingMean mean(4);
  EXPECT_EQ(mean.Value(), 0.0);
  mean.Observe(2.0);
  EXPECT_EQ(mean.Value(), 2.0);
  mean.Observe(4.0);
  EXPECT_EQ(mean.Value(), 3.0);
  for (double v : {10.0, 10.0, 10.0, 10.0}) mean.Observe(v);
  // The 2.0 and 4.0 have aged out of the 4-slot window.
  EXPECT_EQ(mean.Value(), 10.0);
  EXPECT_EQ(mean.Count(), 6u);
  EXPECT_EQ(mean.window(), 4u);
  mean.Reset();
  EXPECT_EQ(mean.Value(), 0.0);
  EXPECT_EQ(mean.Count(), 0u);
}

// --- RollingSpeedField ------------------------------------------------------

TEST(RollingSpeedField, ReplicatesBuilderGeometry) {
  const auto& dataset = TinyDataset();
  sim::RollingSpeedField rolling(dataset.network, 200.0, 300.0);
  EXPECT_EQ(rolling.rows(), dataset.speed_matrices->rows());
  EXPECT_EQ(rolling.cols(), dataset.speed_matrices->cols());
  EXPECT_EQ(rolling.snapshot_seconds(), 300.0);
}

TEST(RollingSpeedField, RejectsHostileSizes) {
  // NaN passed a `<= 0` check and reached a size_t cast of ceil(NaN); a
  // 1e-300 m grid overflowed the same cast.
  const auto& net = TinyDataset().network;
  const double inf = std::numeric_limits<double>::infinity();
  for (const double grid : {std::nan(""), inf, -inf, 0.0, -1.0, 1e-300}) {
    EXPECT_THROW(sim::RollingSpeedField(net, grid, 300.0),
                 std::invalid_argument)
        << "grid " << grid;
  }
  for (const double snapshot : {std::nan(""), inf, 0.0, -300.0}) {
    EXPECT_THROW(sim::RollingSpeedField(net, 200.0, snapshot),
                 std::invalid_argument)
        << "snapshot " << snapshot;
  }
  // An infinite window keeps every snapshot, like 0.
  sim::RollingSpeedFieldOptions options;
  options.window_seconds = inf;
  sim::RollingSpeedField rolling(net, 200.0, 300.0, nullptr, options);
  const uint64_t segment = net.segments().front().id;
  rolling.Ingest(sim::TripObservation{segment, 100.0, 5.0});
  rolling.Ingest(sim::TripObservation{segment, 100.0 + 3e6, 5.0});
  // A finite time whose snapshot index does not fit an int64 is junk.
  rolling.Ingest(sim::TripObservation{segment, 1e300, 5.0});
  rolling.Ingest(sim::TripObservation{segment, -1e300, 5.0});
  EXPECT_EQ(rolling.rejected(), 2u);
  rolling.Publish();
  EXPECT_EQ(rolling.published_snapshots(), 2u);
}

TEST(RollingSpeedField, FallsThroughToBaselineWhenUnpublished) {
  const auto& dataset = TinyDataset();
  const auto& baseline = FrozenField();
  sim::RollingSpeedField rolling(dataset.network, 200.0,
                                 baseline.snapshot_seconds(), &baseline);
  const double t = TestOds(1)[0].departure_time;
  EXPECT_TRUE(rolling.baseline_attached());
  EXPECT_EQ(rolling.MatrixAt(t), baseline.MatrixAt(t));
  EXPECT_EQ(rolling.SnapshotTime(t), baseline.SnapshotTime(t));

  // Without a baseline, or with one of another grid (a speed field pooled
  // to the model's input size, say), the flat matrix at the live grid.
  const sim::SnapshotSpeedField other_grid(1, 2, baseline.snapshot_seconds(),
                                           {0}, {0.25, 0.75});
  sim::RollingSpeedField bare(dataset.network, 200.0, 300.0);
  sim::RollingSpeedField mismatched(dataset.network, 200.0,
                                    baseline.snapshot_seconds(), &other_grid);
  EXPECT_FALSE(bare.baseline_attached());
  EXPECT_FALSE(mismatched.baseline_attached());
  for (const sim::RollingSpeedField* field : {&bare, &mismatched}) {
    const std::vector<double> flat = field->MatrixAt(t);
    ASSERT_EQ(flat.size(), field->rows() * field->cols());
    for (double v : flat) EXPECT_EQ(v, 0.5);
    EXPECT_EQ(field->SnapshotTime(t), std::floor(t / 300.0) * 300.0);
  }
}

TEST(RollingSpeedField, ServesIngestedMeansWithBaselineFill) {
  const auto& dataset = TinyDataset();
  const auto& baseline = FrozenField();
  sim::RollingSpeedField rolling(dataset.network, 200.0,
                                 baseline.snapshot_seconds(), &baseline);
  const double t = TestOds(1)[0].departure_time;
  const uint64_t segment = dataset.network.segments().front().id;
  double max_speed = 1.0;
  for (const auto& s : dataset.network.segments()) {
    max_speed = std::max(max_speed, s.free_flow_speed);
  }

  // Two observations in the same cell + snapshot: the cell serves their
  // normalised mean.
  const std::vector<sim::TripObservation> pair = {{segment, t, 4.0},
                                                  {segment, t + 1.0, 8.0}};
  EXPECT_EQ(rolling.Ingest({pair.data(), pair.size()}), 2u);
  EXPECT_EQ(rolling.Publish(), 2u);
  EXPECT_EQ(rolling.publishes(), 1u);
  const std::vector<double> matrix = rolling.MatrixAt(t);
  const std::vector<double> base = baseline.MatrixAt(t);
  ASSERT_EQ(matrix.size(), base.size());
  size_t observed_cells = 0;
  for (size_t c = 0; c < matrix.size(); ++c) {
    if (matrix[c] != base[c]) {
      ++observed_cells;
      EXPECT_DOUBLE_EQ(matrix[c], 6.0 / max_speed);
    }
  }
  // Exactly the observed cell differs; every other cell is baseline fill.
  EXPECT_EQ(observed_cells, 1u);
  EXPECT_EQ(rolling.SnapshotTime(t),
            std::floor(t / baseline.snapshot_seconds()) *
                baseline.snapshot_seconds());
}

TEST(RollingSpeedField, RejectsJunkAndRollsItsWindow) {
  const auto& dataset = TinyDataset();
  sim::RollingSpeedFieldOptions options;
  options.window_seconds = 600.0;  // two 300s snapshots
  sim::RollingSpeedField rolling(dataset.network, 200.0, 300.0, nullptr,
                                 options);
  const uint64_t segment = dataset.network.segments().front().id;
  // Unknown segment, non-positive speed, non-finite time: all rejected.
  const std::vector<sim::TripObservation> junk = {
      {1u << 30, 100.0, 5.0},
      {segment, 100.0, 0.0},
      {segment, std::nan(""), 5.0}};
  EXPECT_EQ(rolling.Ingest({junk.data(), junk.size()}), 0u);
  EXPECT_EQ(rolling.rejected(), 3u);
  EXPECT_EQ(rolling.Publish(), 0u);

  rolling.Ingest(sim::TripObservation{segment, 100.0, 5.0});
  rolling.Publish();
  EXPECT_EQ(rolling.published_snapshots(), 1u);
  // An observation 10 snapshots later pushes the first out of the window.
  rolling.Ingest(sim::TripObservation{segment, 100.0 + 3000.0, 5.0});
  rolling.Publish();
  EXPECT_EQ(rolling.published_snapshots(), 1u);
  EXPECT_EQ(rolling.accepted(), 2u);
}

// --- Serving epoch ---------------------------------------------------------

// A speed provider whose matrices can be rescaled in place — the data behind
// the model changing the way a RollingSpeedField publish changes it.
class ScaledSpeed : public sim::SpeedProvider {
 public:
  explicit ScaledSpeed(const sim::SpeedProvider& base) : base_(base) {}
  size_t rows() const override { return base_.rows(); }
  size_t cols() const override { return base_.cols(); }
  double snapshot_seconds() const override {
    return base_.snapshot_seconds();
  }
  std::vector<double> MatrixAt(temporal::Timestamp t) const override {
    std::vector<double> m = base_.MatrixAt(t);
    for (double& v : m) v *= scale;
    return m;
  }
  temporal::Timestamp SnapshotTime(temporal::Timestamp t) const override {
    return base_.SnapshotTime(t);
  }
  double scale = 1.0;

 private:
  const sim::SpeedProvider& base_;
};

TEST(EtaServiceEpoch, RepeatedQueryAfterBumpEpochSeesNewSpeedField) {
  ScaledSpeed speed(*TinyDataset().speed_matrices);
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  model.SetSpeedProvider(&speed);
  model.SetTraining(false);
  serve::EtaService service(model, serve::EtaServiceOptions{});
  const traj::OdInput od = TestOds(1)[0];
  EXPECT_EQ(service.state()->epoch, 0u);
  const double first = service.Estimate(od);
  EXPECT_EQ(service.Estimate(od), first);  // stored external code reused

  speed.scale = 0.5;  // the field changes behind the model...
  EXPECT_EQ(service.BumpEpoch(), 1u);  // ...and the publish bumps the epoch
  const double after = service.Estimate(od);
  EXPECT_NE(after, first);
  // The repeated query answers from the new field exactly: the
  // grad-enabled Tensor forward (no external-code table) agrees.
  const double tensor =
      model.EstimateFromCode(model.EncodeOd(od)).item() * model.time_scale();
  EXPECT_EQ(std::memcmp(&after, &tensor, sizeof(double)), 0);
  EXPECT_EQ(test::RegistryValue(service.registry(), "serve/epoch"), 1.0);
}

TEST(EtaServiceEpoch, SwapStateMatchesFreshProcessBitForBit) {
  const auto& network = TinyDataset().network;
  serve::EtaServiceOptions options;
  auto service = serve::EtaService::FromArtifact(ArtifactV1(), network,
                                                 options);
  auto fresh_v1 = serve::EtaService::FromArtifact(ArtifactV1(), network,
                                                  options);
  auto fresh_v2 = serve::EtaService::FromArtifact(ArtifactV2(), network,
                                                  options);
  const auto ods = TestOds(8);
  for (const auto& od : ods) {
    EXPECT_EQ(service->Estimate(od), fresh_v1->Estimate(od));
  }

  // A reader that acquired the v1 epoch before the swap keeps a fully
  // usable state afterwards (RCU: the old bundle lives until released).
  const std::shared_ptr<const serve::ServingState> held = service->state();
  const uint64_t epoch = service->SwapState(
      serve::LoadServingState(ArtifactV2(), network));
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(service->state()->epoch, 1u);
  EXPECT_EQ(test::RegistryValue(service->registry(), "serve/swaps"), 1.0);

  for (const auto& od : ods) {
    const double swapped = service->Estimate(od);
    const double fresh = fresh_v2->Estimate(od);
    EXPECT_EQ(std::memcmp(&swapped, &fresh, sizeof(double)), 0)
        << "post-swap answer differs from a fresh process";
  }
  EXPECT_NE(held->model, nullptr);
  EXPECT_EQ(held->epoch, 0u);
  EXPECT_EQ(held->model->Predict(ods[0]), fresh_v1->Estimate(ods[0]));
}

// --- Hot swap of a fleet of one ---------------------------------------------

// Options that hot swap on ActivateNow only: the poll thread runs, but far
// slower than any test.
serve::FleetRouterOptions WatchOnDemand() {
  serve::FleetRouterOptions options;
  options.watch = true;
  options.poll_interval = std::chrono::hours(1);
  return options;
}

TEST(FleetOfOneHotSwap, SwapsOnChangeRollsBackOnCorruptionRecovers) {
  const auto& network = TinyDataset().network;
  const std::string watched = TempPath("live_serving_watched.artifact");
  PublishArtifact(ArtifactV1(), watched);

  serve::EtaServiceOptions service_options;
  auto fresh_v1 = serve::EtaService::FromArtifact(ArtifactV1(), network,
                                                  service_options);
  auto fresh_v2 = serve::EtaService::FromArtifact(ArtifactV2(), network,
                                                  service_options);
  serve::FleetRouterOptions options = WatchOnDemand();
  int prepared = 0;
  options.prepare = [&prepared](serve::ServingState&) { ++prepared; };
  auto router = FleetOfOne(
      serve::LoadServingState(watched, network),
      options);
  serve::EtaService& service = *router->shards().front()->service();
  const auto swaps = [&service] {
    return test::RegistryValue(service.registry(), "serve/swaps");
  };

  // Construction marked the served file as attempted: nothing to do.
  EXPECT_EQ(router->ActivateNow(), 0u);
  EXPECT_EQ(swaps(), 0u);

  const auto ods = TestOds(4);
  PublishArtifact(ArtifactV2(), watched);
  EXPECT_EQ(router->ActivateNow(), 1u);
  EXPECT_EQ(swaps(), 1u);
  EXPECT_EQ(service.state()->source, watched);
  for (const auto& od : ods) {
    EXPECT_EQ(service.Estimate(od), fresh_v2->Estimate(od));
  }

  // Corrupt artifact: typed load failure, the shard keeps serving v2.
  {
    std::FILE* f = std::fopen(watched.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not an artifact", f);
    std::fclose(f);
  }
  EXPECT_EQ(router->ActivateNow(), 0u);
  EXPECT_EQ(test::RegistryValue(router->registry(), "fleet/reload_failures"),
            1.0);
  EXPECT_EQ(swaps(), 1u);
  for (const auto& od : ods) {
    EXPECT_EQ(service.Estimate(od), fresh_v2->Estimate(od));
  }
  // The corrupt bytes are remembered: no retry until the content changes.
  EXPECT_EQ(router->ActivateNow(), 0u);
  EXPECT_EQ(test::RegistryValue(router->registry(), "fleet/reload_failures"),
            1.0);

  // A good write recovers.
  PublishArtifact(ArtifactV1(), watched);
  EXPECT_EQ(router->ActivateNow(), 1u);
  EXPECT_EQ(swaps(), 2u);
  for (const auto& od : ods) {
    EXPECT_EQ(service.Estimate(od), fresh_v1->Estimate(od));
  }
  // prepare saw each adopted state, never the corrupt file's.
  EXPECT_EQ(prepared, 2);
}

TEST(FleetOfOneHotSwap, WatcherPicksUpRenamedArtifact) {
  const auto& network = TinyDataset().network;
  const std::string watched = TempPath("live_serving_polled.artifact");
  PublishArtifact(ArtifactV1(), watched);
  serve::FleetRouterOptions options;
  options.watch = true;
  options.poll_interval = std::chrono::milliseconds(20);
  auto router = FleetOfOne(
      serve::LoadServingState(watched, network),
      options);
  serve::EtaService& service = *router->shards().front()->service();

  PublishArtifact(ArtifactV2(), watched);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto swaps = [&service] {
    return test::RegistryValue(service.registry(), "serve/swaps");
  };
  while (swaps() == 0.0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(swaps(), 1.0);
  EXPECT_EQ(service.state()->epoch, 1u);
  EXPECT_GT(test::RegistryValue(router->registry(), "fleet/polls"), 0.0);
}

// --- Swap under sustained load ----------------------------------------------

TEST(FleetOfOneHotSwap, SwapUnderLoadDropsNothingAndStaysBitIdentical) {
  const auto& network = TinyDataset().network;
  const std::string watched = TempPath("live_serving_underload.artifact");
  PublishArtifact(ArtifactV1(), watched);
  serve::EtaServiceOptions service_options;
  auto router = FleetOfOne(
      serve::LoadServingState(watched, network),
      WatchOnDemand());
  const std::shared_ptr<serve::EtaService> service =
      router->shards().front()->service();

  const auto ods = TestOds(16);
  // Every answer a concurrent client ever sees must be bit-identical to
  // what ONE of the two artifact generations answers — an epoch is either
  // fully v1 or fully v2, never a blend, never a torn state.
  auto fresh_v1 = serve::EtaService::FromArtifact(ArtifactV1(), network,
                                                  service_options);
  auto fresh_v2 = serve::EtaService::FromArtifact(ArtifactV2(), network,
                                                  service_options);
  std::vector<double> expected_v1, expected_v2;
  for (const auto& od : ods) {
    expected_v1.push_back(fresh_v1->Estimate(od));
    expected_v2.push_back(fresh_v2->Estimate(od));
  }
  ASSERT_NE(expected_v1, expected_v2);  // the generations are told apart
  const auto valid = [&](size_t query, double eta) {
    return std::memcmp(&eta, &expected_v1[query], sizeof(double)) == 0 ||
           std::memcmp(&eta, &expected_v2[query], sizeof(double)) == 0;
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> torn_batches{0};
  // Two synchronous estimators + one EstimateBatch producer (the server's
  // batch-runner path), hammering across every flip. A dropped or
  // half-swapped request shows up here.
  std::vector<std::thread> traffic;
  for (int worker = 0; worker < 2; ++worker) {
    traffic.emplace_back([&, worker] {
      size_t i = static_cast<size_t>(worker);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t query = i % ods.size();
        if (!valid(query, service->Estimate(ods[query]))) ++failures;
        ++answered;
        ++i;
      }
    });
  }
  traffic.emplace_back([&] {
    std::vector<traj::OdInput> batch(ods.size());
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // Every query, rotated so batches start at different queries.
      for (size_t k = 0; k < batch.size(); ++k) {
        batch[k] = ods[(i + k) % ods.size()];
      }
      const std::vector<double> etas = service->EstimateBatch(batch);
      // One batch, one generation: the answers are all v1's or all v2's.
      bool all_v1 = etas.size() == batch.size();
      bool all_v2 = all_v1;
      for (size_t k = 0; k < etas.size(); ++k) {
        const size_t query = (i + k) % ods.size();
        if (!valid(query, etas[k])) ++failures;
        all_v1 &= std::memcmp(&etas[k], &expected_v1[query],
                              sizeof(double)) == 0;
        all_v2 &= std::memcmp(&etas[k], &expected_v2[query],
                              sizeof(double)) == 0;
      }
      if (!all_v1 && !all_v2) ++torn_batches;
      answered += etas.size();
      ++i;
    }
  });

  // Flip v1 -> v2 -> v1 -> ... under the traffic.
  const int kSwaps = 6;
  for (int swap = 0; swap < kSwaps; ++swap) {
    PublishArtifact(swap % 2 == 0 ? ArtifactV2() : ArtifactV1(), watched);
    ASSERT_EQ(router->ActivateNow(), 1u) << "swap " << swap;
  }
  stop.store(true);
  for (auto& t : traffic) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(torn_batches.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(test::RegistryValue(service->registry(), "serve/swaps"), kSwaps);

  // Post-swap goldens: the long-lived, many-times-swapped service answers
  // exactly like a process freshly started on the final artifact (kSwaps
  // even: the last flip republished v1).
  for (size_t i = 0; i < ods.size(); ++i) {
    const double swapped = service->Estimate(ods[i]);
    EXPECT_EQ(std::memcmp(&swapped, &expected_v1[i], sizeof(double)), 0);
  }
}

// --- Drift monitor ----------------------------------------------------------

TEST(DriftMonitor, EdgeTriggersOnceAndReArms) {
  serve::DriftMonitorOptions options;
  options.window = 8;
  options.trigger_mae = 10.0;
  options.min_observations = 4;
  std::atomic<int> fires{0};
  serve::DriftMonitor drift(options, [&](double) { ++fires; });

  // Below min_observations: no trigger even though the MAE is over.
  drift.Observe(0.0, 100.0);
  drift.Observe(0.0, 100.0);
  drift.Observe(0.0, 100.0);
  EXPECT_EQ(fires.load(), 0);
  drift.Observe(0.0, 100.0);  // 4th: crossing fires exactly once
  EXPECT_EQ(fires.load(), 1);
  drift.Observe(0.0, 100.0);
  EXPECT_EQ(fires.load(), 1);  // still over: no re-fire
  EXPECT_EQ(drift.Triggers(), 1u);
  EXPECT_DOUBLE_EQ(drift.RollingMae(), 100.0);

  // Flood the window with perfect trips: falls under, re-arms, re-fires on
  // the next excursion.
  for (int i = 0; i < 8; ++i) drift.Observe(50.0, 50.0);
  EXPECT_DOUBLE_EQ(drift.RollingMae(), 0.0);
  for (int i = 0; i < 8; ++i) drift.Observe(0.0, 100.0);
  EXPECT_EQ(fires.load(), 2);
}

// The weather-shock scenario: a regime change makes observed actuals drift
// away from what the (stale) model predicts, the rolling MAE gauge rises
// past the retrain threshold, and ingesting the fresh observations through
// the rolling field + epoch bump brings served predictions back in line —
// the full detect-and-recover loop of the live serving design.
TEST(DriftMonitor, WeatherShockRaisesMaeAndFreshObservationsLowerIt) {
  const auto& dataset = TinyDataset();
  const auto& baseline = FrozenField();
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  model.SetTraining(false);
  sim::RollingSpeedField rolling(dataset.network, 200.0,
                                 baseline.snapshot_seconds(), &baseline);
  model.SetSpeedProvider(&rolling);
  serve::EtaService service(model, serve::EtaServiceOptions{});

  serve::DriftMonitorOptions drift_options;
  drift_options.window = 16;
  drift_options.trigger_mae = 60.0;
  drift_options.min_observations = 8;
  std::atomic<int> retrains{0};
  serve::DriftMonitor drift(drift_options, [&](double) { ++retrains; });

  // Phase 1 — the shock: every observed trip comes in 50% + 120s slower
  // than the serving model predicts. The gauge climbs and the retrain
  // trigger fires.
  const auto ods = TestOds(16);
  for (const auto& od : ods) {
    const double predicted = service.Estimate(od);
    drift.Observe(predicted, predicted * 1.5 + 120.0);
  }
  const double shocked_mae = drift.RollingMae();
  EXPECT_GT(shocked_mae, drift_options.trigger_mae);
  EXPECT_EQ(retrains.load(), 1);

  // Phase 2 — recovery: the shocked speeds stream in as ObserveTrip
  // observations, the rolling field publishes them and the epoch bump drops
  // cache + ocode memo, so served predictions now reflect the new regime.
  std::vector<sim::TripObservation> observations;
  for (const auto& od : ods) {
    observations.push_back({od.origin_segment, od.departure_time, 2.0});
    observations.push_back({od.dest_segment, od.departure_time, 2.0});
  }
  ASSERT_EQ(rolling.Ingest({observations.data(), observations.size()}),
            observations.size());
  ASSERT_GT(rolling.Publish(), 0u);
  service.BumpEpoch();
  // The published matrices really changed what the model reads.
  EXPECT_NE(rolling.MatrixAt(ods[0].departure_time),
            baseline.MatrixAt(ods[0].departure_time));

  // With the model re-grounded, observed actuals match what it now serves;
  // the window refills with near-zero errors and the gauge falls back.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& od : ods) {
      const double predicted = service.Estimate(od);
      drift.Observe(predicted, predicted);
    }
  }
  EXPECT_LT(drift.RollingMae(), shocked_mae);
  // Near-zero: the ring buffer's running sum carries ~1e-15 of float dust.
  EXPECT_NEAR(drift.RollingMae(), 0.0, 1e-9);
  EXPECT_EQ(retrains.load(), 1);  // re-armed but not re-fired
}

// --- ObserveTrip wire frame -------------------------------------------------

TEST(ObserveFrameCodec, RoundTripsBitForBit) {
  using namespace serve::net;
  ObserveFrame frame;
  frame.request_id = 0xfeedfacecafef00dull;
  frame.network_id = 9;
  frame.od.origin_segment = 7;
  frame.od.dest_segment = 31;
  frame.od.origin_ratio = 0.25;
  frame.od.dest_ratio = 0.75;
  frame.od.departure_time = 10.0 * 86400.0 + 8.0 * 3600.0;
  frame.od.weather_type = 2;
  frame.actual_seconds = 1234.5;
  frame.observations = {{3, frame.od.departure_time + 10.0, 7.5},
                        {5, frame.od.departure_time + 20.0, 3.25}};
  const std::vector<uint8_t> wire = EncodeObserveFrame(frame);
  ASSERT_EQ(wire.size(), 4 + kObservePayloadHeaderBytes +
                             frame.observations.size() * kObservationBytes);
  EXPECT_EQ(PeekMagic(wire.data() + 4, wire.size() - 4), kObserveMagic);

  ObserveFrame back;
  ASSERT_EQ(DecodeObservePayload(wire.data() + 4, wire.size() - 4, &back),
            Status::kOk);
  EXPECT_EQ(back.request_id, frame.request_id);
  EXPECT_EQ(back.network_id, frame.network_id);
  EXPECT_EQ(back.od.origin_segment, frame.od.origin_segment);
  EXPECT_EQ(back.od.dest_segment, frame.od.dest_segment);
  EXPECT_EQ(back.od.origin_ratio, frame.od.origin_ratio);
  EXPECT_EQ(back.od.dest_ratio, frame.od.dest_ratio);
  EXPECT_EQ(back.od.departure_time, frame.od.departure_time);
  EXPECT_EQ(back.od.weather_type, frame.od.weather_type);
  EXPECT_EQ(back.actual_seconds, frame.actual_seconds);
  ASSERT_EQ(back.observations.size(), frame.observations.size());
  for (size_t i = 0; i < back.observations.size(); ++i) {
    EXPECT_EQ(back.observations[i].segment_id,
              frame.observations[i].segment_id);
    EXPECT_EQ(back.observations[i].time, frame.observations[i].time);
    EXPECT_EQ(back.observations[i].speed_mps,
              frame.observations[i].speed_mps);
  }
}

TEST(ObserveFrameCodec, TruncationRecoversRequestId) {
  using namespace serve::net;
  ObserveFrame frame;
  frame.request_id = 42;
  frame.observations = {{1, 100.0, 5.0}};
  const std::vector<uint8_t> wire = EncodeObserveFrame(frame);
  ObserveFrame back;
  // Cut mid-observation: kBadFrame, but the id still correlates the error.
  ASSERT_EQ(DecodeObservePayload(wire.data() + 4, wire.size() - 4 - 8, &back),
            Status::kBadFrame);
  EXPECT_EQ(back.request_id, 42u);
}

TEST(ObserveFrameCodec, EncoderRefusesOverlongTrips) {
  using namespace serve::net;
  ObserveFrame frame;
  frame.observations.resize(kMaxObservationsPerFrame + 1);
  EXPECT_THROW(EncodeObserveFrame(frame), std::invalid_argument);
}

// --- Server ingest path -----------------------------------------------------

TEST(ServerObserve, IngestsIntoHooksAndAnswersWithThePrediction) {
  using namespace serve::net;
  const auto& dataset = TinyDataset();
  const auto& baseline = FrozenField();
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  model.SetTraining(false);
  auto router = FleetOfOne(serve::BorrowServingState(model));
  serve::EtaService& service = *router->shards().front()->service();
  sim::RollingSpeedField rolling(dataset.network, 200.0,
                                 baseline.snapshot_seconds(), &baseline);
  serve::DriftMonitor drift(serve::DriftMonitorOptions{});

  ServerOptions options;
  options.live.rolling_field = &rolling;
  options.live.drift = &drift;
  DeepOdServer server(*router, options);
  server.Start();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));

  const auto ods = TestOds(1);
  ObserveFrame frame;
  frame.request_id = 99;
  frame.od = ods[0];
  frame.actual_seconds = 600.0;
  frame.observations = {
      {ods[0].origin_segment, ods[0].departure_time, 4.0},
      {1u << 30, ods[0].departure_time, 4.0},  // unknown: rejected, not fatal
  };
  const std::vector<uint8_t> wire = EncodeObserveFrame(frame);
  ASSERT_TRUE(WriteAll(client.fd(), wire.data(), wire.size()));
  ResponseFrame response;
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.request_id, 99u);
  EXPECT_EQ(response.status, Status::kOk);
  // The answer is the drift-scoring prediction for the trip's OD.
  EXPECT_EQ(response.eta_seconds, service.Estimate(ods[0]));

  EXPECT_EQ(rolling.pending(), 1u);  // the known-segment observation
  EXPECT_EQ(rolling.rejected(), 1u);
  EXPECT_EQ(drift.Observations(), 1u);
  EXPECT_GT(drift.RollingMae(), 0.0);

  // The connection stays usable for regular requests afterwards.
  RequestFrame request;
  request.request_id = 100;
  request.od = ods[0];
  ASSERT_TRUE(client.Send(request));
  ASSERT_TRUE(client.ReadResponse(&response));
  EXPECT_EQ(response.status, Status::kOk);

  client.Close();
  server.Shutdown();
}

// One validation for both frame kinds: every unservable OD is refused as
// kInvalidRequest in a request and in an observe frame, a bad actual in an
// observe frame, and nothing refused reaches the live hooks.
TEST(ServerObserve, UnservableOdIsInvalidForRequestAndObserveAlike) {
  using namespace serve::net;
  const auto& dataset = TinyDataset();
  const auto& baseline = FrozenField();
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  model.SetTraining(false);
  auto router = FleetOfOne(serve::BorrowServingState(model));
  sim::RollingSpeedField rolling(dataset.network, 200.0,
                                 baseline.snapshot_seconds(), &baseline);
  serve::DriftMonitor drift(serve::DriftMonitorOptions{});

  ServerOptions options;
  options.live.rolling_field = &rolling;
  options.live.drift = &drift;
  DeepOdServer server(*router, options);
  server.Start();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));

  const traj::OdInput good = TestOds(1)[0];
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char* name;
    traj::OdInput od;
    double actual_seconds;
  };
  std::vector<Case> cases(6, Case{"", good, 600.0});
  cases[0].name = "segment out of range";
  cases[0].od.dest_segment = 1u << 30;
  cases[1].name = "NaN ratio";
  cases[1].od.origin_ratio = nan;
  cases[2].name = "unservable departure";
  cases[2].od.departure_time = -1.0;
  cases[3].name = "weather out of range";
  cases[3].od.weather_type =
      static_cast<int>(core::ExternalFeaturesEncoder::kNumWeatherTypes);
  cases[4].name = "negative actual";
  cases[4].actual_seconds = -1.0;
  cases[5].name = "NaN actual";
  cases[5].actual_seconds = nan;

  const auto observe = [&](uint64_t id, const Case& c) {
    ObserveFrame frame;
    frame.request_id = id;
    frame.od = c.od;
    frame.actual_seconds = c.actual_seconds;
    frame.observations = {{good.origin_segment, good.departure_time, 4.0}};
    const std::vector<uint8_t> wire = EncodeObserveFrame(frame);
    EXPECT_TRUE(WriteAll(client.fd(), wire.data(), wire.size()));
    ResponseFrame response;
    EXPECT_TRUE(client.ReadResponse(&response));
    EXPECT_EQ(response.request_id, id) << c.name;
    return response.status;
  };

  uint64_t id = 0;
  for (const Case& c : cases) {
    EXPECT_EQ(observe(++id, c), Status::kInvalidRequest) << c.name;
    if (c.actual_seconds != 600.0) continue;  // the request frame is fine
    RequestFrame request;
    request.request_id = ++id;
    request.od = c.od;
    ASSERT_TRUE(client.Send(request));
    ResponseFrame response;
    ASSERT_TRUE(client.ReadResponse(&response));
    EXPECT_EQ(response.request_id, id);
    EXPECT_EQ(response.status, Status::kInvalidRequest) << c.name;
  }
  EXPECT_EQ(rolling.pending(), 0u);
  EXPECT_EQ(drift.Observations(), 0u);

  // The hooks are live: a valid observe frame reaches both.
  EXPECT_EQ(observe(++id, Case{"valid", good, 600.0}), Status::kOk);
  EXPECT_EQ(rolling.pending(), 1u);
  EXPECT_EQ(drift.Observations(), 1u);

  client.Close();
  server.Shutdown();
  uint64_t invalid = 0;
  for (const obs::Record& record :
       server.registry().Export("server/invalid_requests")) {
    invalid = static_cast<uint64_t>(record.count.value_or(0.0));
  }
  EXPECT_EQ(invalid, 10u);  // six observe frames, four request frames
}

// --- Unified stats ----------------------------------------------------------

TEST(UnifiedStats, MergesEverySourceNameSorted) {
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  model.SetTraining(false);
  serve::EtaService service(model, serve::EtaServiceOptions{});
  serve::DriftMonitor drift(serve::DriftMonitorOptions{});
  service.Estimate(TestOds(1)[0]);
  drift.Observe(10.0, 12.0);

  serve::StatsSources sources;
  sources.drift = &drift;
  sources.extra.push_back(&service.registry());
  const std::vector<obs::Record> records = serve::CollectStats(sources);
  ASSERT_FALSE(records.empty());
  bool saw_requests = false, saw_mae = false;
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(records[i - 1].name, records[i].name);
    }
    saw_requests |= records[i].name == "serve/requests";
    saw_mae |= records[i].name == "drift/rolling_mae";
  }
  EXPECT_TRUE(saw_requests);
  EXPECT_TRUE(saw_mae);

  // The JSON rendering names the records of the same collection.
  const std::string json = serve::ExportStatsJson(sources);
  EXPECT_NE(json.find("\"records\""), std::string::npos);
  EXPECT_NE(json.find("drift/rolling_mae"), std::string::npos);
  EXPECT_NE(json.find("serve/requests"), std::string::npos);
}

}  // namespace
}  // namespace deepod
