// Contract of the observability layer (DESIGN.md "Observability"):
//  - histogram percentiles track a sorted reference within the documented
//    bucket error bound (1/kSubBuckets relative);
//  - counters and histograms are exact under concurrent writers (the TSan
//    CI job runs this suite with a multi-worker pool);
//  - spans nest, record into the registry, and round-trip through the
//    shared BENCH-json schema and the Chrome trace dump;
//  - most importantly: DEEPOD_OBS=metrics must not perturb a single bit of
//    the training math relative to the default off mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/deepod_config.h"
#include "core/deepod_model.h"
#include "core/trainer.h"
#include "nn/ops.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/dataset.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace deepod {
namespace {

// RAII mode override that restores the ambient mode (tests must not leak
// metrics mode into each other).
class ModeOverride {
 public:
  explicit ModeOverride(obs::Mode m) : prev_(obs::mode()) { obs::SetMode(m); }
  ~ModeOverride() { obs::SetMode(prev_); }

 private:
  obs::Mode prev_;
};

// --- Histogram ---------------------------------------------------------------

TEST(ObsHistogramTest, PercentilesTrackSortedReference) {
  obs::Histogram hist;
  util::Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over [10 us, 10 s]: covers six orders of magnitude like
    // real latency distributions do.
    const double v = 1e-5 * std::pow(10.0, rng.Uniform(0.0, 6.0));
    values.push_back(v);
    hist.Observe(v);
  }
  EXPECT_EQ(hist.Count(), values.size());
  double sum = 0.0;
  for (double v : values) sum += v;
  EXPECT_NEAR(hist.Sum(), sum, 1e-6 * sum);

  std::sort(values.begin(), values.end());
  for (const double q : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    const double exact =
        values[static_cast<size_t>(q * (values.size() - 1))];
    const double estimate = hist.Percentile(q);
    // Bucket width is 1/kSubBuckets relative (12.5%); allow a little slack
    // for the rank interpolation at the bucket edges.
    EXPECT_NEAR(estimate, exact, 0.15 * exact) << "q=" << q;
  }
}

TEST(ObsHistogramTest, BucketIndexIsMonotoneAndClamped) {
  EXPECT_EQ(obs::Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(obs::Histogram::BucketIndex(-1.0), 0u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1e-12), 0u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1e9),
            obs::Histogram::kNumBuckets - 1);
  size_t prev = 0;
  for (double v = 2e-6; v < 200.0; v *= 1.07) {
    const size_t index = obs::Histogram::BucketIndex(v);
    EXPECT_GE(index, prev) << "v=" << v;
    // The bucket's nominal range must contain the value.
    EXPECT_LE(obs::Histogram::BucketLowerBound(index), v * (1 + 1e-12));
    prev = index;
  }
}

// --- Concurrency -------------------------------------------------------------

TEST(ObsConcurrencyTest, CountersAndHistogramsAreExactUnderThreadPool) {
  obs::Counter counter;
  obs::Gauge gauge;
  obs::Histogram hist;
  constexpr size_t kTasks = 8;
  constexpr size_t kPerTask = 20000;
  util::ThreadPool pool(kTasks);
  pool.ParallelFor(kTasks, [&](size_t w) {
    for (size_t i = 0; i < kPerTask; ++i) {
      counter.Add();
      hist.Observe(1e-3 * static_cast<double>(w + 1));
      gauge.Add(1.0);
    }
  });
  EXPECT_EQ(counter.Value(), kTasks * kPerTask);
  EXPECT_EQ(hist.Count(), kTasks * kPerTask);
  EXPECT_DOUBLE_EQ(gauge.Value(), static_cast<double>(kTasks * kPerTask));
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(ObsConcurrencyTest, RegistryLookupIsThreadSafe) {
  obs::Registry registry;
  constexpr size_t kTasks = 8;
  util::ThreadPool pool(kTasks);
  pool.ParallelFor(kTasks, [&](size_t w) {
    for (size_t i = 0; i < 1000; ++i) {
      registry.counter("shared").Add();
      registry.counter("per/" + std::to_string(w)).Add();
    }
  });
  EXPECT_EQ(registry.counter("shared").Value(), kTasks * 1000u);
  EXPECT_EQ(registry.Export().size(), kTasks + 1);
}

// --- Spans and trace ---------------------------------------------------------

TEST(ObsSpanTest, NestedSpansRecordIntoRegistry) {
  ModeOverride metrics(obs::Mode::kMetrics);
  obs::Registry registry;
  {
    obs::SpanScope outer("obs_test/outer", &registry);
    for (int i = 0; i < 2; ++i) {
      obs::SpanScope inner("obs_test/inner", &registry);
    }
  }
  EXPECT_EQ(registry.histogram("obs_test/outer").Count(), 1u);
  EXPECT_EQ(registry.histogram("obs_test/inner").Count(), 2u);
  // The outer span encloses both inner spans.
  EXPECT_GE(registry.histogram("obs_test/outer").Sum(),
            registry.histogram("obs_test/inner").Sum());
}

TEST(ObsSpanTest, OffModeRecordsNothing) {
  ModeOverride off(obs::Mode::kOff);
  obs::Registry registry;
  {
    obs::SpanScope span("obs_test/off", &registry);
  }
  EXPECT_TRUE(registry.Export().empty());
}

TEST(ObsTraceTest, TraceModeCollectsChromeEvents) {
  ModeOverride trace(obs::Mode::kTrace);
  obs::ClearTrace();
  {
    OBS_SPAN("obs_test/trace_outer");
    OBS_SPAN("obs_test/trace_inner");
  }
  EXPECT_EQ(obs::TraceEventCount(), 2u);
  const std::string json = obs::TraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("obs_test/trace_outer"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);

  const std::string path = ::testing::TempDir() + "/deepod_trace_test.json";
  EXPECT_TRUE(obs::WriteTraceJson(path));
  std::remove(path.c_str());
  obs::ClearTrace();
}

// --- Export round-trip -------------------------------------------------------

TEST(ObsExportTest, JsonRoundTrip) {
  obs::Registry registry;
  registry.counter("rt/count").Add(42);
  registry.gauge("rt/depth").Set(3.5);
  for (int i = 0; i < 100; ++i) {
    registry.histogram("rt/latency").Observe(1e-3);
  }

  const auto records = registry.Export("rt/");
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].name, "rt/count");
  EXPECT_DOUBLE_EQ(records[0].count.value(), 42.0);
  EXPECT_EQ(records[1].name, "rt/depth");
  EXPECT_DOUBLE_EQ(records[1].value.value(), 3.5);
  EXPECT_EQ(records[2].name, "rt/latency");
  EXPECT_DOUBLE_EQ(records[2].count.value(), 100.0);
  EXPECT_NEAR(records[2].p50_ms.value(), 1.0, 0.15);
  EXPECT_NEAR(records[2].wall_seconds, 0.1, 0.001);

  const std::string json = obs::RenderRecordsJson(records);
  EXPECT_NE(json.find("\"hardware_concurrency\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"rt/latency\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 42"), std::string::npos);
  // Prefix filtering really filters.
  EXPECT_TRUE(registry.Export("nomatch/").empty());
}

TEST(ObsExportTest, OptionalFieldsOmittedWhenUnset) {
  obs::Record rec;
  rec.name = "bare";
  rec.wall_seconds = 1.5;
  const std::string json = obs::RenderRecordsJson({rec});
  EXPECT_NE(json.find("\"name\": \"bare\""), std::string::npos);
  EXPECT_EQ(json.find("samples_per_sec"), std::string::npos);
  EXPECT_EQ(json.find("\"count\""), std::string::npos);
  EXPECT_EQ(json.find("\"value\""), std::string::npos);
}

// --- Kernel op counters ------------------------------------------------------

#if defined(DEEPOD_OBS_KERNEL_COUNTS)
TEST(ObsKernelCountsTest, AffineBumpsItsCounter) {
  util::Rng rng(3);
  nn::Tensor w = nn::Tensor::Randn({4, 4}, rng, 1.0);
  nn::Tensor x = nn::Tensor::Randn({4}, rng, 1.0);
  nn::Tensor b = nn::Tensor::Randn({4}, rng, 1.0);
  auto& counter = obs::Registry::Global().counter("nn/affine");
  const uint64_t before = counter.Value();
  nn::Affine(w, x, b);
  EXPECT_EQ(counter.Value(), before + 1);
}
#endif

// --- Bit identity ------------------------------------------------------------

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
  config.num_threads = 1;
  return config;
}

TEST(ObsBitIdentityTest, MetricsModeDoesNotPerturbTraining) {
  std::vector<uint8_t> params_off, params_metrics;
  double val_off = 0.0, val_metrics = 0.0;
  {
    ModeOverride off(obs::Mode::kOff);
    core::DeepOdModel model(TinyConfig(), TinyDataset());
    core::DeepOdTrainer trainer(model, TinyDataset());
    val_off = trainer.Train(nullptr, 1u << 30, 40);
    params_off = nn::SerializeStateDict(model.State());
  }
  {
    ModeOverride metrics(obs::Mode::kMetrics);
    core::DeepOdModel model(TinyConfig(), TinyDataset());
    core::DeepOdTrainer trainer(model, TinyDataset());
    val_metrics = trainer.Train(nullptr, 1u << 30, 40);
    params_metrics = nn::SerializeStateDict(model.State());
    // The wired-in trainer spans recorded into the global registry.
    EXPECT_GE(obs::Registry::Global().histogram("trainer/epoch").Count(), 1u);
    EXPECT_GE(
        obs::Registry::Global().histogram("trainer/validation").Count(), 1u);
  }
  EXPECT_EQ(val_off, val_metrics);
  EXPECT_EQ(params_off, params_metrics);
}

// The trainer holds one gradient arena per batch chunk, min(threads,
// batch_size) of them (one at a single thread), and the gauge reports
// exactly what it holds.
TEST(ObsTrainerGaugeTest, GradArenaBytesReportsTheArenasHeld) {
  ModeOverride metrics(obs::Mode::kMetrics);
  ASSERT_EQ(TinyConfig().batch_size, 8u);
  for (const size_t threads : {size_t{1}, size_t{4}, size_t{16}}) {
    core::DeepOdConfig config = TinyConfig();
    config.num_threads = threads;
    config.road_init = core::RoadInit::kOneHot;  // no embedding pre-training
    config.time_init = core::TimeInit::kOneHot;
    core::DeepOdModel model(config, TinyDataset());
    size_t param_bytes = 0;
    for (const auto& p : model.Parameters()) {
      param_bytes += p.size() * sizeof(double);
    }
    core::DeepOdTrainer trainer(model, TinyDataset());
    EXPECT_EQ(trainer.num_threads(), threads);
    EXPECT_EQ(obs::Registry::Global().gauge("trainer/threads").Value(),
              static_cast<double>(threads));
    EXPECT_EQ(obs::Registry::Global().gauge("trainer/grad_arena_bytes").Value(),
              static_cast<double>(std::min<size_t>(threads, 8) * param_bytes))
        << threads << " threads";
  }
}

}  // namespace
}  // namespace deepod
