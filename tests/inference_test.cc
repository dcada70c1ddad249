// Serving-path contracts (DESIGN.md "Serving path"):
//  - inference mode (nn::InferenceGuard) changes no forward value: Predict,
//    PredictBatch and PredictForRoute are bit-identical to the training-mode
//    forward in every kernel tier, and PredictBatch equals a per-query
//    Predict loop regardless of batching or thread fan-out;
//  - inference-mode op results are graph-free leaves;
//  - the external-code table serves every (weather, snapshot) key
//    bit-identically, runs the CNN once per key per generation, stays
//    within the speed field's key space (and a fixed ceiling for unclamped
//    providers), and drops a fill that straddles a generation change;
//  - AffineRows (the batched-MLP building block) matches per-row Affine
//    bit-for-bit and passes gradient checks;
//  - the sharded LRU cache evicts in LRU order, keys exactly, and keeps
//    consistent hit/miss counts under concurrency;
//  - EtaService serves Predict's numbers through cache, Estimate and the
//    micro-batched TrySubmit path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <stdexcept>
#include <vector>

#include "core/deepod_model.h"
#include "nn/gradcheck.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "road/routing.h"
#include "serve/eta_service.h"
#include "sim/dataset.h"
#include "sim/snapshot_speed_field.h"
#include "util/lru_cache.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace deepod {
namespace {

const sim::Dataset& TinyDataset() {
  static const sim::Dataset* dataset = [] {
    sim::DatasetConfig config;
    config.city = road::XianSimConfig();
    config.city.rows = 6;
    config.city.cols = 6;
    config.trips_per_day = 12;
    config.num_days = 15;
    config.seed = 23;
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

// The training-mode forward: EncodeOd + EstimateFromCode outside any
// InferenceGuard builds the full autograd graph — exactly what Predict did
// before the inference mode existed.
double TrainingModePredict(core::DeepOdModel& model, const traj::OdInput& od) {
  return model.EstimateFromCode(model.EncodeOd(od)).item() *
         model.time_scale();
}

// --- Inference mode: values are bit-identical --------------------------------

TEST(InferenceModeTest, PredictMatchesTrainingForwardBitForBit) {
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  model.SetTraining(false);
  for (const nn::KernelMode mode :
       {nn::KernelMode::kLegacy, nn::KernelMode::kBlocked,
        nn::KernelMode::kVector}) {
    nn::KernelModeScope scope(mode);
    for (size_t i = 0; i < std::min<size_t>(10, TinyDataset().test.size());
         ++i) {
      const auto& od = TinyDataset().test[i].od;
      EXPECT_EQ(model.Predict(od), TrainingModePredict(model, od));
    }
  }
}

TEST(InferenceModeTest, PredictBatchEqualsPerQueryLoop) {
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  model.SetTraining(false);
  std::vector<traj::OdInput> ods;
  for (size_t i = 0; i < std::min<size_t>(17, TinyDataset().test.size()); ++i) {
    ods.push_back(TinyDataset().test[i].od);
  }
  util::ThreadPool pool(4);
  for (const nn::KernelMode mode :
       {nn::KernelMode::kLegacy, nn::KernelMode::kBlocked,
        nn::KernelMode::kVector}) {
    nn::KernelModeScope scope(mode);
    std::vector<double> loop;
    for (const auto& od : ods) loop.push_back(model.Predict(od));
    // Serial batch, odd split sizes, and the thread fan-out must all
    // reproduce the per-query numbers exactly.
    EXPECT_EQ(model.PredictBatch(ods), loop);
    const auto head = model.PredictBatch({ods.data(), 5});
    EXPECT_TRUE(std::equal(head.begin(), head.end(), loop.begin()));
    EXPECT_EQ(model.PredictBatch(ods, &pool), loop);
  }
}

TEST(InferenceModeTest, PredictForRouteMatchesTrainingForward) {
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  model.SetTraining(false);
  const auto& net = TinyDataset().network;
  size_t checked = 0;
  for (const auto& trip : TinyDataset().test) {
    std::vector<size_t> route = {trip.od.origin_segment};
    const auto connecting = road::ShortestRoute(
        net, net.segment(trip.od.origin_segment).to,
        net.segment(trip.od.dest_segment).from, road::FreeFlowCost);
    for (size_t sid : connecting.segment_ids) route.push_back(sid);
    route.push_back(trip.od.dest_segment);
    route.erase(std::unique(route.begin(), route.end()), route.end());
    if (!road::IsConnectedPath(net, route)) continue;
    const auto pseudo = model.BuildRoutePseudoTrajectory(trip.od, route);
    const double reference =
        model.EstimateFromCode(model.EncodeTrajectory(pseudo)).item() *
        model.time_scale();
    EXPECT_EQ(model.PredictForRoute(trip.od, route), reference);
    if (++checked == 5) break;
  }
  EXPECT_GT(checked, 0u);
}

TEST(InferenceModeTest, OpsUnderGuardProduceGraphFreeLeaves) {
  util::Rng rng(7);
  nn::Tensor w = nn::Tensor::Randn({4, 3}, rng);
  nn::Tensor x = nn::Tensor::Randn({3}, rng);
  nn::Tensor b = nn::Tensor::Randn({4}, rng);
  w.set_requires_grad(true);
  b.set_requires_grad(true);
  const nn::Tensor with_graph = nn::Affine(w, x, b);
  EXPECT_TRUE(static_cast<bool>(with_graph.impl()->backward_fn));
  EXPECT_FALSE(with_graph.impl()->parents.empty());
  {
    nn::InferenceGuard guard;
    EXPECT_FALSE(nn::GradEnabled());
    const nn::Tensor leaf = nn::Relu(nn::Affine(w, x, b));
    EXPECT_FALSE(static_cast<bool>(leaf.impl()->backward_fn));
    EXPECT_TRUE(leaf.impl()->parents.empty());
    EXPECT_FALSE(leaf.requires_grad());
    // Values are unchanged by the mode.
    const nn::Tensor again = nn::Affine(w, x, b);
    for (size_t i = 0; i < again.size(); ++i) {
      EXPECT_EQ(again.at(i), with_graph.at(i));
    }
    // Guards nest and restore.
    { nn::InferenceGuard inner; }
    EXPECT_FALSE(nn::GradEnabled());
  }
  EXPECT_TRUE(nn::GradEnabled());
}

// --- External-code table -----------------------------------------------------

// Delegates to a SnapshotSpeedField and counts MatrixAt calls: the model
// reads a matrix only to run the M_E CNN, so the count is the number of CNN
// forwards. With `alternate` set, reads switch to it after the first read
// and `on_first_read` runs — a rolling-field publish plus
// EtaService::BumpEpoch landing between a fill's MatrixAt and its insert.
class CountingField : public sim::SpeedProvider {
 public:
  explicit CountingField(const sim::SnapshotSpeedField& field)
      : field_(field) {}

  size_t rows() const override { return field_.rows(); }
  size_t cols() const override { return field_.cols(); }
  double snapshot_seconds() const override {
    return field_.snapshot_seconds();
  }
  std::vector<double> MatrixAt(temporal::Timestamp t) const override {
    reads_.fetch_add(1);
    std::vector<double> matrix =
        (switched_ ? *alternate : field_).MatrixAt(t);
    if (alternate != nullptr && !switched_) {
      switched_ = true;
      if (on_first_read) on_first_read();
    }
    return matrix;
  }
  temporal::Timestamp SnapshotTime(temporal::Timestamp t) const override {
    return field_.SnapshotTime(t);
  }

  size_t reads() const { return reads_.load(); }

  const sim::SnapshotSpeedField* alternate = nullptr;
  std::function<void()> on_first_read;

 private:
  const sim::SnapshotSpeedField& field_;
  mutable std::atomic<size_t> reads_{0};
  mutable bool switched_ = false;
};

// A constant matrix whose snapshot times are never clamped, like
// SpeedMatrixBuilder's: every distinct snapshot is a new table key.
class UnclampedField : public sim::SpeedProvider {
 public:
  size_t rows() const override { return 4; }
  size_t cols() const override { return 4; }
  double snapshot_seconds() const override { return 300.0; }
  std::vector<double> MatrixAt(temporal::Timestamp) const override {
    reads_.fetch_add(1);
    return std::vector<double>(16, 0.5);
  }
  temporal::Timestamp SnapshotTime(temporal::Timestamp t) const override {
    return std::floor(t / 300.0) * 300.0;
  }

  size_t reads() const { return reads_.load(); }

 private:
  mutable std::atomic<size_t> reads_{0};
};

// One serving-mode model shared by the table tests (each points it at its
// own speed provider first, which starts a fresh table generation).
core::DeepOdModel& TableTestModel(const sim::SpeedProvider* speed) {
  static core::DeepOdModel* model = [] {
    auto* m = new core::DeepOdModel(TinyConfig(), TinyDataset());
    m->SetTraining(false);
    return m;
  }();
  model->SetSpeedProvider(speed);
  return *model;
}

// `count` consecutive snapshots of the tiny dataset, from day 10 on.
sim::SnapshotSpeedField TinyFrozenField(size_t count) {
  const sim::SpeedProvider& source = *TinyDataset().speed_matrices;
  const double begin = 10.0 * temporal::kSecondsPerDay;
  return sim::SnapshotSpeedField::Capture(
      source, begin,
      begin + static_cast<double>(count - 1) * source.snapshot_seconds());
}

TEST(OcodeTableTest, ServesEveryKeyBitIdenticallyAndComputesEachOnce) {
  // 240 snapshots × a few weather types: far more keys than the old
  // 64-entry memo held, so a thrashing memo would re-run the CNN.
  const sim::SnapshotSpeedField field = TinyFrozenField(240);
  CountingField counting(field);
  core::DeepOdModel& model = TableTestModel(&counting);
  const auto& test = TinyDataset().test;
  std::vector<traj::OdInput> ods;
  for (const auto& snap : field.snapshots()) {
    traj::OdInput od = test[ods.size() % test.size()].od;
    od.departure_time = static_cast<double>(snap.index) *
                            field.snapshot_seconds() +
                        17.0;
    od.weather_type = static_cast<int>(ods.size() % 3);
    ods.push_back(od);
  }
  // Reference with the table bypassed: grad enabled runs the CNN each time.
  std::vector<double> reference;
  for (const auto& od : ods) {
    reference.push_back(TrainingModePredict(model, od));
  }
  EXPECT_EQ(model.ocode_table_size(), 0u);

  size_t reads = counting.reads();
  EXPECT_EQ(model.PredictBatch(ods), reference);
  EXPECT_EQ(counting.reads() - reads, ods.size());
  EXPECT_EQ(model.ocode_table_size(), ods.size());

  util::ThreadPool pool(4);
  reads = counting.reads();
  EXPECT_EQ(model.PredictBatch(ods, &pool), reference);
  EXPECT_EQ(counting.reads(), reads) << "a warm pass ran the CNN";

  // Cold again, filled concurrently by the pool's workers.
  model.ClearOcodeMemo();
  EXPECT_EQ(model.ocode_table_size(), 0u);
  EXPECT_EQ(model.PredictBatch(ods, &pool), reference);
  EXPECT_EQ(model.ocode_table_size(), ods.size());
}

TEST(OcodeTableTest, HostileKeysStayWithinTheFieldsKeySpace) {
  const sim::SnapshotSpeedField field = TinyFrozenField(3);
  core::DeepOdModel& model = TableTestModel(&field);
  const nn::InferenceGuard guard;
  traj::OdInput od = TinyDataset().test.front().od;
  const double first = field.first_snapshot_time();
  const double ss = field.snapshot_seconds();
  const int weathers =
      static_cast<int>(core::ExternalFeaturesEncoder::kNumWeatherTypes);
  for (int weather = 0; weather < weathers; ++weather) {
    od.weather_type = weather;
    for (const double t : {-1e300, -1e9, -1.0, first - ss, first, first + ss,
                           first + 2.5 * ss, first + 1e6, 1e12, 1e300}) {
      od.departure_time = t;
      model.EncodeExternal(od);
    }
  }
  EXPECT_EQ(model.ocode_table_size(),
            core::ExternalFeaturesEncoder::kNumWeatherTypes *
                field.snapshots().size());
  const size_t stored = model.ocode_table_size();
  for (const int weather : {-1, 16, 1 << 20}) {
    od.weather_type = weather;
    EXPECT_THROW(model.EncodeExternal(od), std::out_of_range);
  }
  EXPECT_EQ(model.ocode_table_size(), stored);
}

TEST(OcodeTableTest, UnclampedProviderStopsStoringAtTheCeiling) {
  UnclampedField field;
  core::DeepOdModel& model = TableTestModel(&field);
  const nn::InferenceGuard guard;
  traj::OdInput od = TinyDataset().test.front().od;
  const size_t ceiling = core::DeepOdModel::kOcodeTableMaxEntries;
  for (size_t i = 0; i < ceiling + 10; ++i) {
    od.departure_time = static_cast<double>(i) * field.snapshot_seconds();
    model.EncodeExternal(od);
  }
  EXPECT_EQ(model.ocode_table_size(), ceiling);
  // A stored key is served without a CNN forward; a key past the ceiling
  // is computed every time and still not stored.
  size_t reads = field.reads();
  od.departure_time = 0.0;
  const nn::Tensor stored = model.EncodeExternal(od);
  EXPECT_EQ(field.reads(), reads);
  od.departure_time = static_cast<double>(ceiling + 5) *
                      field.snapshot_seconds();
  const nn::Tensor unstored = model.EncodeExternal(od);
  EXPECT_EQ(field.reads(), reads + 1);
  EXPECT_EQ(unstored.data(), stored.data());  // constant matrix
  EXPECT_EQ(model.ocode_table_size(), ceiling);
}

TEST(OcodeTableTest, FillRacingAGenerationChangeIsDropped) {
  const sim::SnapshotSpeedField before = TinyFrozenField(4);
  std::vector<sim::SnapshotSpeedField::Snapshot> halved = before.snapshots();
  for (auto& snap : halved) {
    for (double& v : snap.matrix) v *= 0.5;
  }
  const sim::SnapshotSpeedField after(before.rows(), before.cols(),
                                      before.snapshot_seconds(), halved);
  core::DeepOdModel& model = TableTestModel(&after);
  traj::OdInput od = TinyDataset().test.front().od;
  od.departure_time = before.first_snapshot_time() + 1.0;
  const std::vector<double> fresh = model.EncodeExternal(od).data();

  CountingField counting(before);
  counting.alternate = &after;
  // The publish and the epoch bump land after the fill read the old matrix
  // and before it stores the old code.
  counting.on_first_read = [&model] { model.ClearOcodeMemo(); };
  model.SetSpeedProvider(&counting);
  const nn::InferenceGuard guard;
  const std::vector<double> stale = model.EncodeExternal(od).data();
  EXPECT_NE(stale, fresh);
  EXPECT_EQ(counting.reads(), 1u);
  EXPECT_EQ(model.ocode_table_size(), 0u) << "stale code outlived the bump";
  EXPECT_EQ(model.EncodeExternal(od).data(), fresh);
  EXPECT_EQ(counting.reads(), 2u);
  EXPECT_EQ(model.EncodeExternal(od).data(), fresh);
  EXPECT_EQ(counting.reads(), 2u);
}

// --- AffineRows: the batched-MLP building block ------------------------------

TEST(AffineRowsTest, MatchesPerRowAffineInEveryKernelMode) {
  util::Rng rng(31);
  const nn::Tensor x = nn::Tensor::Randn({5, 7}, rng);
  const nn::Tensor w = nn::Tensor::Randn({3, 7}, rng);
  const nn::Tensor b = nn::Tensor::Randn({3}, rng);
  for (const nn::KernelMode mode :
       {nn::KernelMode::kLegacy, nn::KernelMode::kBlocked,
        nn::KernelMode::kVector}) {
    nn::KernelModeScope scope(mode);
    const nn::Tensor batched = nn::AffineRows(x, w, b);
    for (size_t i = 0; i < 5; ++i) {
      const nn::Tensor row = nn::Affine(w, nn::Row(x, i), b);
      for (size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(batched.at(i, j), row.at(j));
      }
    }
  }
}

TEST(AffineRowsTest, PassesGradCheck) {
  util::Rng rng(32);
  nn::Tensor x = nn::Tensor::Randn({4, 5}, rng, 0.5);
  nn::Tensor w = nn::Tensor::Randn({3, 5}, rng, 0.5);
  nn::Tensor b = nn::Tensor::Randn({3}, rng, 0.5);
  for (auto* t : {&x, &w, &b}) t->set_requires_grad(true);
  auto loss = [&] { return nn::Sum(nn::Square(nn::AffineRows(x, w, b))); };
  const auto r = nn::CheckGradients(loss, {x, w, b});
  EXPECT_TRUE(r.ok) << "AffineRows max_abs_err=" << r.max_abs_error;
}

// --- Sharded LRU cache -------------------------------------------------------

TEST(LruCacheTest, EvictsLeastRecentlyUsedFirst) {
  // One shard makes global order == shard order, so eviction is exact LRU.
  util::ShardedLruCache<int, int> cache(3, /*num_shards=*/1);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(3, 30);
  EXPECT_EQ(cache.Get(1).value(), 10);  // promote 1; LRU order now 2,3,1
  cache.Put(4, 40);                     // evicts 2
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_EQ(cache.Get(1).value(), 10);
  EXPECT_EQ(cache.Get(3).value(), 30);
  EXPECT_EQ(cache.Get(4).value(), 40);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(LruCacheTest, PutRefreshesExistingKey) {
  util::ShardedLruCache<int, int> cache(2, 1);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(1, 11);  // refresh, not insert: 2 stays resident
  cache.Put(3, 30);  // evicts 2 (least recent), not 1
  EXPECT_EQ(cache.Get(1).value(), 11);
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_EQ(cache.Get(3).value(), 30);
}

TEST(LruCacheTest, CountsAreConsistentUnderConcurrency) {
  util::ShardedLruCache<int, int> cache(64, 8);
  util::ThreadPool pool(4);
  constexpr size_t kOpsPerTask = 2000;
  constexpr size_t kTasks = 4;
  pool.ParallelFor(kTasks, [&](size_t w) {
    util::Rng rng(100 + w);
    for (size_t i = 0; i < kOpsPerTask; ++i) {
      const int key = static_cast<int>(rng.UniformInt(uint64_t{128}));
      if (auto hit = cache.Get(key)) {
        EXPECT_EQ(*hit, key * 7);  // values never mix between keys
      } else {
        cache.Put(key, key * 7);
      }
    }
  });
  EXPECT_EQ(cache.hits() + cache.misses(), kTasks * kOpsPerTask);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
  EXPECT_LE(cache.size(), 64u + 8u);  // per-shard rounding slack
}

// --- EtaService --------------------------------------------------------------

TEST(EtaServiceTest, KeyDistinguishesEveryKeyedField) {
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  serve::EtaServiceOptions options;
  serve::EtaService service(model, options);
  traj::OdInput od = TinyDataset().test[0].od;
  const auto base = service.MakeKey(od);
  auto differs = [&](const traj::OdInput& other) {
    const auto k = service.MakeKey(other);
    return !(k == base);
  };
  traj::OdInput v = od;
  v.origin_segment += 1;
  EXPECT_TRUE(differs(v));
  v = od;
  v.dest_segment += 1;
  EXPECT_TRUE(differs(v));
  v = od;
  v.departure_time += 2.0 * model.config().slot_seconds;  // different slot
  EXPECT_TRUE(differs(v));
  v = od;
  v.weather_type += 1;
  EXPECT_TRUE(differs(v));
  v = od;
  v.origin_ratio = od.origin_ratio < 0.5 ? 0.9 : 0.1;  // different bucket
  EXPECT_TRUE(differs(v));
  // Same slot + same ratio bucket shares the key.
  v = od;
  v.departure_time += 1e-3;
  EXPECT_FALSE(differs(v));
}

TEST(EtaServiceTest, EstimateServesPredictValuesAndCaches) {
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  model.SetTraining(false);
  serve::EtaServiceOptions options;
  serve::EtaService service(model, options);
  const auto& od = TinyDataset().test[0].od;
  const double expected = model.Predict(od);
  EXPECT_EQ(service.Estimate(od), expected);   // miss -> model
  EXPECT_EQ(service.Estimate(od), expected);   // hit -> cache
  const auto stats = service.StatsSnapshot();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.requests, 2u);
}

TEST(EtaServiceTest, TrySubmitMicroBatchesAndMatchesEstimate) {
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  model.SetTraining(false);
  serve::EtaServiceOptions options;
  options.max_batch = 4;
  options.queue_capacity = 16;
  serve::EtaService service(model, options);
  std::vector<traj::OdInput> ods;
  for (size_t i = 0; i < std::min<size_t>(12, TinyDataset().test.size()); ++i) {
    ods.push_back(TinyDataset().test[i].od);
  }
  std::vector<double> expected;
  for (const auto& od : ods) expected.push_back(model.Predict(od));
  std::vector<std::future<double>> futures;
  for (const auto& od : ods) {
    // TrySubmit is the primary enqueue API; capacity 16 > 12 queries, so a
    // bounded wait always finds room here.
    auto future = service.TrySubmit(od, std::chrono::seconds(5));
    ASSERT_TRUE(future.has_value());
    futures.push_back(std::move(*future));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), expected[i]);
  }
  const auto stats = service.StatsSnapshot();
  EXPECT_EQ(stats.requests, ods.size());
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GT(stats.avg_batch_size, 0.0);
}

TEST(EtaServiceTest, ExportsRegistryBackedStats) {
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  model.SetTraining(false);
  serve::EtaServiceOptions options;
  serve::EtaService service(model, options);
  const auto& od = TinyDataset().test[0].od;
  service.Estimate(od);
  service.Estimate(od);

  const std::string json = service.ExportJson();
  EXPECT_NE(json.find("\"hardware_concurrency\""), std::string::npos);
  EXPECT_NE(json.find("\"serve/requests\""), std::string::npos);
  EXPECT_NE(json.find("\"serve/cache_hits\""), std::string::npos);
  EXPECT_NE(json.find("\"serve/latency\""), std::string::npos);
  EXPECT_NE(json.find("\"serve/queue_wait\""), std::string::npos);

  const std::string prom = service.ExportPrometheus();
  EXPECT_NE(prom.find("deepod_serve_requests 2"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE deepod_serve_latency summary"),
            std::string::npos);

  // Stats are per-instance: a fresh service starts from zero even though
  // another service already answered queries in this process.
  serve::EtaService fresh(model, options);
  EXPECT_EQ(fresh.StatsSnapshot().requests, 0u);
  const auto stats = service.StatsSnapshot();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_GT(stats.p50_ms, 0.0);
}

}  // namespace
}  // namespace deepod
