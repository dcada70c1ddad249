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
//  - the serving plan behind Predict, PredictBatch and the external-code
//    fill equals the grad-enabled Tensor forward bit for bit in every
//    kernel tier, weight quantisation and ablation, and rebuilds after an
//    optimizer step;
//  - AffineRows (the batched-MLP building block) matches per-row Affine
//    bit-for-bit and passes gradient checks;
//  - EtaService answers every exact query with Predict's number through
//    Estimate and EstimateBatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <vector>

#include "core/deepod_model.h"
#include "nn/gradcheck.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/quant.h"
#include "nn/serialize.h"
#include "nn/tensor.h"
#include "road/routing.h"
#include "serve/eta_service.h"
#include "sim/dataset.h"
#include "sim/snapshot_speed_field.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "registry_value.h"

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
       {nn::KernelMode::kBlocked, nn::KernelMode::kVector}) {
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
       {nn::KernelMode::kBlocked, nn::KernelMode::kVector}) {
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

// --- Serving plan ------------------------------------------------------------

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

// Every serving entry point against the grad-enabled Tensor forward (no
// plan, no external-code table), query by query, in the current mode.
void ExpectPlanMatchesTensorForward(core::DeepOdModel& model,
                                    const std::vector<traj::OdInput>& ods,
                                    util::ThreadPool& pool,
                                    const std::string& where) {
  std::vector<double> want;
  std::vector<nn::Tensor> want_codes;
  for (const auto& od : ods) {
    want.push_back(TrainingModePredict(model, od));
    want_codes.push_back(model.EncodeExternal(od));
  }
  const std::vector<double> serial = model.PredictBatch(ods);
  const std::vector<double> pooled = model.PredictBatch(ods, &pool);
  for (size_t i = 0; i < ods.size(); ++i) {
    EXPECT_TRUE(SameBits(model.Predict(ods[i]), want[i])) << where << " #" << i;
    EXPECT_TRUE(SameBits(serial[i], want[i])) << where << " #" << i;
    EXPECT_TRUE(SameBits(pooled[i], want[i])) << where << " #" << i;
    const nn::InferenceGuard guard;
    EXPECT_TRUE(SameBits(model.EncodeExternal(ods[i]), want_codes[i]))
        << where << " #" << i;
  }
}

TEST(ServingPlanTest, MatchesTensorForwardAcrossModesQuantAndAblations) {
  std::vector<traj::OdInput> ods;
  for (size_t i = 0; i < std::min<size_t>(8, TinyDataset().test.size()); ++i) {
    ods.push_back(TinyDataset().test[i].od);
  }
  util::ThreadPool pool(4);
  for (const core::Ablation ablation :
       {core::Ablation::kFull, core::Ablation::kNoOther,
        core::Ablation::kNoSp}) {
    core::DeepOdConfig config = TinyConfig();
    config.ablation = ablation;
    core::DeepOdModel model(config, TinyDataset());
    // Training forwards move the BatchNorm running statistics off their
    // initial values, so the plan's precomputed inverse std is exercised.
    for (size_t i = 0; i < 4; ++i) model.SampleLoss(TinyDataset().train[i]);
    model.SetTraining(false);
    const std::vector<uint8_t> trained = nn::SerializeStateDict(model.State());
    for (const nn::QuantMode quant :
         {nn::QuantMode::kNone, nn::QuantMode::kFp16, nn::QuantMode::kInt8}) {
      nn::StateDict state = model.State();
      ASSERT_TRUE(nn::DeserializeStateDict(trained, state).ok());
      nn::FakeQuantizeStateDict(state, quant);
      model.ClearOcodeMemo();
      for (const nn::KernelMode mode :
           {nn::KernelMode::kBlocked, nn::KernelMode::kVector,
            nn::KernelMode::kSimd}) {
        const nn::KernelModeScope scope(mode);
        ExpectPlanMatchesTensorForward(
            model, ods, pool,
            "ablation " + std::to_string(static_cast<int>(ablation)) +
                " quant " + nn::QuantModeName(quant) + " mode " +
                std::to_string(static_cast<int>(mode)));
      }
    }
    // One optimizer step in serving mode changes the weights in place: the
    // plan must rebuild (the external-code table is cleared by the caller,
    // as DeepOdModel documents for any out-of-band parameter change).
    const double before = model.Predict(ods[0]);
    nn::Adam adam(model.Parameters(), 0.05);
    model.SampleLoss(TinyDataset().train[0]).Backward();
    adam.Step();
    model.ClearOcodeMemo();
    EXPECT_FALSE(SameBits(model.Predict(ods[0]), before));
    ExpectPlanMatchesTensorForward(model, ods, pool, "after Adam::Step");
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
  for (const int64_t index : field.indices()) {
    traj::OdInput od = test[ods.size() % test.size()].od;
    od.departure_time = static_cast<double>(index) *
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
                field.size());
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
  std::vector<double> halved = before.matrices();
  for (double& v : halved) v *= 0.5;
  const sim::SnapshotSpeedField after(before.rows(), before.cols(),
                                      before.snapshot_seconds(),
                                      before.indices(), halved);
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
       {nn::KernelMode::kBlocked, nn::KernelMode::kVector}) {
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

// --- EtaService --------------------------------------------------------------

TEST(EtaServiceTest, EveryExactQueryGetsItsOwnPredictAnswer) {
  // No answer is shared between queries: two queries in the same time slot
  // with position ratios a hair apart each get Predict of their own input,
  // however often and in whatever order they are asked.
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  model.SetTraining(false);
  serve::EtaService service(model, serve::EtaServiceOptions{});
  traj::OdInput a = TinyDataset().test[0].od;
  a.origin_ratio = 0.41;
  traj::OdInput b = a;
  b.origin_ratio = 0.42;
  b.departure_time += 1e-3;
  const double expect_a = model.Predict(a);
  const double expect_b = model.Predict(b);
  ASSERT_NE(expect_a, expect_b);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(service.Estimate(a), expect_a);
    EXPECT_EQ(service.Estimate(b), expect_b);
    const std::vector<traj::OdInput> batch = {b, a, b};
    EXPECT_EQ(service.EstimateBatch(batch),
              (std::vector<double>{expect_b, expect_a, expect_b}));
  }
  EXPECT_EQ(test::RegistryValue(service.registry(), "serve/requests"),
            10.0);
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
  EXPECT_NE(json.find("\"serve/latency\""), std::string::npos);
  EXPECT_NE(json.find("\"serve/epoch\""), std::string::npos);

  const std::string prom = service.ExportPrometheus();
  EXPECT_NE(prom.find("deepod_serve_requests 2"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE deepod_serve_latency summary"),
            std::string::npos);

  // Stats are per-instance: a fresh service starts from zero even though
  // another service already answered queries in this process.
  serve::EtaService fresh(model, options);
  EXPECT_EQ(test::RegistryValue(fresh.registry(), "serve/requests"), 0.0);
  EXPECT_EQ(test::RegistryValue(service.registry(), "serve/requests"), 2.0);
  const auto latency = service.registry().Export("serve/latency");
  ASSERT_EQ(latency.size(), 1u);
  EXPECT_EQ(latency[0].count.value_or(0.0), 2.0);
  EXPECT_GT(latency[0].p50_ms.value_or(0.0), 0.0);
}

}  // namespace
}  // namespace deepod
