// Table 6: scalability — test MAPE of every method when trained on 20%,
// 40%, 60%, 80% and 100% of the Beijing training data. Every (method,
// fraction) cell also lands in BENCH_table6.json — wall_seconds is the
// method's training time, value its test MAPE — so tooling can track both
// without scraping the table.
#include <cstdio>

#include "analysis/metrics.h"
#include "baselines/gbm.h"
#include "baselines/linear_regression.h"
#include "baselines/murat.h"
#include "baselines/stnn.h"
#include "baselines/temp.h"
#include "bench/common.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace deepod;

namespace {

// One (method, fraction) cell: wall_seconds is the training time, value the
// test MAPE.
obs::Record CellRecord(const std::string& method, double fraction,
                       double train_secs, size_t threads, double mape) {
  obs::Record r;
  r.name = "table6/" + method + "/frac=" + util::Fmt(fraction * 100.0, 0);
  r.wall_seconds = train_secs;
  r.threads = threads;
  r.value = mape;
  return r;
}

// Trains `estimator` on ds, scores it on the fixed test split, and appends
// both the table cell and the JSON record.
template <typename Estimator>
void RunMethod(Estimator& estimator, const sim::Dataset& ds,
               const std::vector<double>& truth, const std::string& name,
               double fraction, std::vector<std::string>* row,
               std::vector<obs::Record>* records) {
  util::Stopwatch sw;
  estimator.Train(ds);
  const double train_secs = sw.ElapsedSeconds();
  const double mape = analysis::Mape(truth, estimator.PredictAll(ds.test));
  row->push_back(util::Fmt(mape, 2));
  records->push_back(CellRecord(name, fraction, train_secs, 1, mape));
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Table 6 — scalability: test MAPE vs training fraction (beijing-sim)");
  util::Table table({"scale", "TEMP", "LR", "GBM", "STNN", "MURAT", "DeepOD"});
  std::vector<obs::Record> records;
  const size_t auto_threads = util::ThreadPool::ResolveThreadCount(0);
  for (double fraction : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    // Keep the chronologically-first fraction of the training trips;
    // validation/test stay fixed, as in the paper's protocol.
    sim::Dataset ds =
        sim::BuildDataset(bench::StandardConfig(bench::City::kBeijing));
    const size_t keep =
        static_cast<size_t>(static_cast<double>(ds.train.size()) * fraction);
    ds.train.resize(std::max<size_t>(1, keep));

    std::vector<double> truth;
    for (const auto& t : ds.test) truth.push_back(t.travel_time);
    std::vector<std::string> row = {util::Fmt(fraction * 100.0, 0) + "%"};

    baselines::TempEstimator temp;
    RunMethod(temp, ds, truth, "TEMP", fraction, &row, &records);
    baselines::LinearRegressionEstimator lr;
    RunMethod(lr, ds, truth, "LR", fraction, &row, &records);
    baselines::GbmEstimator gbm;
    RunMethod(gbm, ds, truth, "GBM", fraction, &row, &records);
    baselines::StnnEstimator stnn;
    RunMethod(stnn, ds, truth, "STNN", fraction, &row, &records);
    baselines::MuratEstimator murat;
    RunMethod(murat, ds, truth, "MURAT", fraction, &row, &records);

    core::DeepOdConfig config = bench::BenchModelConfig();
    config.loss_weight_w = bench::BenchLossWeight(bench::City::kBeijing);
    const auto deepod = bench::RunDeepOdVariant(ds, config, "DeepOD");
    const double mape = analysis::Mape(truth, deepod.predictions);
    row.push_back(util::Fmt(mape, 2));
    records.push_back(CellRecord("DeepOD", fraction, deepod.train_seconds,
                                 auto_threads, mape));

    table.AddRow(row);
    std::fprintf(stderr, "[bench] fraction %.0f%% done\n", fraction * 100);
  }
  table.Print();
  std::printf(
      "\nPaper shape check: every method improves with more data; DeepOD is\n"
      "the most accurate at every fraction and degrades the least at 20%%.\n");
  obs::WriteRecordsJson("BENCH_table6.json", records);
  return 0;
}
