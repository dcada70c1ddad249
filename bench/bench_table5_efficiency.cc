// Table 5: efficiency — model size (bytes), offline training time and
// online estimation latency (seconds per 1,000 queries) for every method
// on the three cities. Also measures the training throughput of the shipped
// trainer configuration and writes every timing to BENCH_table5.json for
// tooling.
#include <cstdio>

#include "bench/common.h"
#include "core/deepod_model.h"
#include "core/trainer.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
#include "sim/dataset.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace deepod;

int main() {
  bench::PrintBanner("Table 5 — model size / training time / estimation time");
  const std::vector<std::string> methods = {"TEMP", "LR",    "GBM",
                                            "STNN", "MURAT", "DeepOD"};
  std::vector<obs::Record> records;
  const size_t auto_threads = util::ThreadPool::ResolveThreadCount(0);

  bench::PrewarmStandardRuns();
  util::Table table({"method", "city", "size", "train (s)", "estimate (s/K)"});
  for (bench::City city : bench::AllCities()) {
    const auto& run = bench::GetStandardRun(city);
    for (const auto& name : methods) {
      const auto& m = run.Method(name);
      table.AddRow({name, run.city, util::FmtBytes(m.model_bytes),
                    util::Fmt(m.train_seconds, 2),
                    util::Fmt(m.estimate_seconds_per_k, 3)});
      // Train records carry no throughput (the per-method sample x epoch
      // counts are not recorded here).
      obs::Record train;
      train.name = "table5/" + run.city + "/" + name + "/train";
      train.wall_seconds = m.train_seconds;
      train.threads = name == "DeepOD" ? auto_threads : 1;
      obs::Record estimate = train;
      estimate.name = "table5/" + run.city + "/" + name + "/estimate";
      estimate.wall_seconds = m.estimate_seconds_per_k;
      // Estimation latency is per 1,000 queries, so queries/sec follows.
      if (m.estimate_seconds_per_k > 0.0) {
        estimate.samples_per_sec = 1000.0 / m.estimate_seconds_per_k;
      }
      records.push_back(std::move(train));
      records.push_back(std::move(estimate));
    }
  }
  table.Print();
  std::printf(
      "\nPaper shape check: TEMP's model (the stored trip corpus) dwarfs the\n"
      "parametric models and has by far the slowest online estimation; LR\n"
      "and STNN have city-independent sizes; DeepOD costs more at estimation\n"
      "than LR/GBM.\n");

  // --- Training throughput of the shipped configuration ---------------------
  // Auto thread count (with one hardware thread it is the serial trainer).
  const sim::Dataset mini =
      sim::BuildDataset(bench::MiniConfig(bench::City::kChengdu));
  core::DeepOdConfig config = bench::BenchModelConfig();
  config.epochs = 6;
  config.num_threads = 0;
  double secs = 0.0;
  {
    core::DeepOdModel model(config, mini);
    core::DeepOdTrainer trainer(model, mini);
    util::Stopwatch sw;
    trainer.Train(nullptr, 1u << 30, 50);
    secs = sw.ElapsedSeconds();
  }
  const double sps =
      static_cast<double>(mini.train.size() * config.epochs) / secs;
  std::printf(
      "\nTraining throughput (mini %s, %zu train samples x 6 epochs, %zu "
      "thread%s): %.2f s  (%.0f samples/s)\n",
      "chengdu-sim", mini.train.size(), auto_threads,
      auto_threads == 1 ? "" : "s", secs, sps);

  obs::Record throughput;
  throughput.name = "deepod_train/after_parallel_fast";
  throughput.wall_seconds = secs;
  throughput.threads = auto_threads;
  throughput.samples_per_sec = sps;
  records.push_back(std::move(throughput));
  obs::WriteRecordsJson("BENCH_table5.json", records);
  return 0;
}
