// Serving-path bench: drives DeepOdModel's serving plan and the
// EtaService front-end with a synthetic query stream from the simulator and
// writes BENCH_serving.json:
//   - serving/single_query/{before,after}: per-query latency of the
//     training-mode Tensor forward (autograd graph built) vs. Predict, which
//     runs the serving plan. `speedup` carries the ratio in samples_per_sec.
//   - serving/batch_qps/batch=B[/threads=T]: PredictBatch throughput vs.
//     micro-batch size, single-threaded and fanned over the pool.
//   - serving/quant/<mode>/{qps,mae}: EtaService::FromArtifact over an
//     artifact written with fp64, fp16 and int8 weight records; mae records
//     carry the mean absolute ETA error in seconds vs. the fp64 answers in wall_seconds
//     (it is an error, not a time — bench_compare skips *mae* records).
//     The fp64 service's obs stats go to BENCH_serving_stats.json.
// Usage: bench_serving [num_queries]  (default 2000; CI smoke passes 200).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/deepod_model.h"
#include "io/model_artifact.h"
#include "nn/quant.h"
#include "nn/tensor.h"
#include "obs/trace.h"
#include "serve/eta_service.h"
#include "sim/dataset.h"
#include "sim/snapshot_speed_field.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

using namespace deepod;

namespace {

// A synthetic serving stream: OD pairs drawn from the test split with
// departure times resampled into a 30-minute window around "now" — live
// queries ask about departures near the present, which is also what keeps
// the external-feature snapshots and time-slot keys warm. `hot_fraction` of
// the queries are drawn from a small hot set to model popular OD pairs.
std::vector<traj::OdInput> MakeQueryStream(const sim::Dataset& dataset,
                                           size_t n, double hot_fraction,
                                           size_t hot_set_size,
                                           util::Rng& rng) {
  const auto& trips = dataset.test.empty() ? dataset.train : dataset.test;
  std::vector<traj::OdInput> hot_set;
  for (size_t i = 0; i < hot_set_size; ++i) {
    hot_set.push_back(trips[rng.UniformInt(trips.size())].od);
  }
  std::vector<traj::OdInput> stream;
  stream.reserve(n);
  const double now = 10.0 * 86400.0 + 8.0 * 3600.0;  // day 10, 08:00
  for (size_t i = 0; i < n; ++i) {
    traj::OdInput od = rng.Bernoulli(hot_fraction)
                           ? hot_set[rng.UniformInt(hot_set.size())]
                           : trips[rng.UniformInt(trips.size())].od;
    od.departure_time = now + rng.Uniform(0.0, 1800.0);
    stream.push_back(od);
  }
  return stream;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t num_queries =
      argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 2000;
  bench::PrintBanner("Serving path — serving plan, batching, quantisation");

  const sim::Dataset dataset =
      sim::BuildDataset(bench::MiniConfig(bench::City::kXian));
  core::DeepOdConfig config = bench::BenchModelConfig();
  core::DeepOdModel model(config, dataset);
  model.SetTraining(false);

  util::Rng rng(20240806);
  const std::vector<traj::OdInput> stream =
      MakeQueryStream(dataset, num_queries, /*hot_fraction=*/0.8,
                      /*hot_set_size=*/64, rng);

  std::vector<bench::BenchJsonRecord> records;
  const size_t auto_threads = util::ThreadPool::ResolveThreadCount(0);

  // --- Single-query latency: training-mode forward vs. the plan -----------
  // "Before" is the Tensor forward training runs: EncodeOd +
  // EstimateFromCode outside any InferenceGuard builds the full autograd
  // graph per query. "After" is the shipped Predict (serving plan + ocode
  // memo). Values are bit-identical (ServingPlanTest checks it).
  double sink = 0.0;
  util::Stopwatch sw;
  for (const auto& od : stream) {
    sink += model.EstimateFromCode(model.EncodeOd(od)).item();
  }
  const double before_secs = sw.ElapsedSeconds();
  sw.Reset();
  for (const auto& od : stream) sink += model.Predict(od);
  const double after_secs = sw.ElapsedSeconds();
  const double n = static_cast<double>(stream.size());
  const double speedup = after_secs > 0.0 ? before_secs / after_secs : 0.0;
  std::printf(
      "Single query (%zu queries):\n"
      "  before (training-mode forward): %.3f ms/query\n"
      "  after  (Predict, serving plan): %.3f ms/query\n"
      "  speedup: %.2fx\n",
      stream.size(), 1000.0 * before_secs / n, 1000.0 * after_secs / n,
      speedup);
  records.push_back(
      {"serving/single_query/before", before_secs, 1, n / before_secs});
  records.push_back(
      {"serving/single_query/after", after_secs, 1, n / after_secs});
  records.push_back({"serving/single_query/speedup", 0.0, 1, speedup});

  // --- Batched QPS vs. batch size -------------------------------------------
  for (const size_t batch : {size_t{1}, size_t{8}, size_t{32}, size_t{128}}) {
    sw.Reset();
    for (size_t pos = 0; pos < stream.size(); pos += batch) {
      const size_t m = std::min(batch, stream.size() - pos);
      const auto etas = model.PredictBatch({&stream[pos], m});
      sink += etas[0];
    }
    const double secs = sw.ElapsedSeconds();
    std::printf("PredictBatch batch=%-4zu: %8.0f queries/s\n", batch,
                n / secs);
    records.push_back({"serving/batch_qps/batch=" + std::to_string(batch),
                       secs, 1, n / secs});
  }
  if (auto_threads > 1) {
    util::ThreadPool pool(auto_threads);
    for (const size_t batch : {size_t{128}, size_t{512}}) {
      sw.Reset();
      for (size_t pos = 0; pos < stream.size(); pos += batch) {
        const size_t m = std::min(batch, stream.size() - pos);
        const auto etas = model.PredictBatch({&stream[pos], m}, &pool);
        sink += etas[0];
      }
      const double secs = sw.ElapsedSeconds();
      std::printf("PredictBatch batch=%-4zu threads=%zu: %8.0f queries/s\n",
                  batch, auto_threads, n / secs);
      records.push_back({"serving/batch_qps/batch=" + std::to_string(batch) +
                             "/threads=" + std::to_string(auto_threads),
                         secs, auto_threads, n / secs});
    }
  }

  // --- Quantised serving -----------------------------------------------------
  // Writes the model as one artifact per weight tier (fp64 / fp16 / int8)
  // and stands a service up from each, so qps measures the model forward and mae the quantisation error alone. The
  // fp64 service's answers are the golden values.
  {
    const double window_begin = 10.0 * 86400.0 + 8.0 * 3600.0;
    const sim::SnapshotSpeedField snap = sim::SnapshotSpeedField::Capture(
        *model.speed_provider(), window_begin, window_begin + 1800.0);
    const std::string artifact_path = "bench_serving_quant.artifact";

    struct QuantTier {
      const char* name;
      nn::QuantMode mode;
    };
    const QuantTier tiers[] = {{"fp64", nn::QuantMode::kNone},
                               {"fp16", nn::QuantMode::kFp16},
                               {"int8", nn::QuantMode::kInt8}};
    std::vector<double> golden;
    std::printf("Quantised serving:\n");
    for (const QuantTier& tier : tiers) {
      io::ArtifactOptions artifact_options;
      artifact_options.quant = tier.mode;
      io::WriteModelArtifact(artifact_path, model, &snap, artifact_options);
      const auto service = serve::EtaService::FromArtifact(
          artifact_path, dataset.network, serve::EtaServiceOptions{});
      std::vector<double> answers;
      answers.reserve(stream.size());
      sw.Reset();
      for (const auto& od : stream) answers.push_back(service->Estimate(od));
      const double secs = sw.ElapsedSeconds();
      double mae = 0.0;
      if (golden.empty()) {
        golden = answers;
      } else {
        for (size_t i = 0; i < answers.size(); ++i) {
          mae += std::abs(answers[i] - golden[i]);
        }
        mae /= n;
      }
      sink += answers[0];
      std::printf("  %-5s %8.0f queries/s  mae %.4f s\n", tier.name, n / secs,
                  mae);
      if (tier.mode == nn::QuantMode::kNone) {
        // The obs-exported serving stats share the BENCH-json schema, so
        // the same validator covers them (tools/validate_bench_json.py).
        std::ofstream stats_out("BENCH_serving_stats.json");
        stats_out << service->ExportJson();
        std::fprintf(stderr, "[bench] wrote BENCH_serving_stats.json\n");
      }
      const std::string prefix = std::string("serving/quant/") + tier.name;
      records.push_back({prefix + "/qps", secs, 1, n / secs});
      // MAE in seconds vs. the fp64 answers, carried in wall_seconds (a
      // value, not a time; 0 for the fp64 tier).
      records.push_back({prefix + "/mae", mae, 1, 0.0});
    }
    std::remove(artifact_path.c_str());
  }

  std::printf("(checksum %.6f)\n", sink);
  bench::WriteBenchJson("BENCH_serving.json", records);
  if (obs::TraceEnabled()) {
    obs::WriteTraceJson("deepod_trace.json");
    std::fprintf(stderr, "[bench] wrote deepod_trace.json (%zu events)\n",
                 obs::TraceEventCount());
  }
  return 0;
}
