#ifndef DEEPOD_BENCH_COMMON_H_
#define DEEPOD_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "core/deepod_config.h"
#include "sim/dataset.h"

namespace deepod::bench {

// The benches reproduce the paper's tables/figures at laptop scale. Two
// dataset profiles are used:
//  - Standard: the flagship comparison scale (Table 4 family). One run per
//    city is computed once and cached on disk so the benches that reuse it
//    (Fig. 11-13, Table 5) do not retrain.
//  - Mini: smaller cities/corpora for the parameter sweeps (Fig. 8/9/14,
//    Table 7) where the paper varies one knob over many configurations.
enum class City { kChengdu, kXian, kBeijing };

std::string CityName(City city);
std::vector<City> AllCities();

// Dataset configs.
sim::DatasetConfig StandardConfig(City city);
sim::DatasetConfig MiniConfig(City city);

// The bench-profile DeepOD configuration (paper dims scaled by 8; see
// DESIGN.md "Scaled dimensions").
core::DeepOdConfig BenchModelConfig();
// Per-city tuned auxiliary-loss weight (§6.3 tunes w per dataset).
double BenchLossWeight(City city);

// --- Standard-run results cache -------------------------------------------

struct MethodResult {
  std::string name;
  std::vector<double> predictions;  // one per test trip
  double train_seconds = 0.0;
  double estimate_seconds_per_k = 0.0;  // latency per 1000 queries
  size_t model_bytes = 0;
  size_t convergence_steps = 0;  // optimisation steps taken (0 if n/a)
};

struct StandardRun {
  std::string city;
  std::vector<double> truth;  // test-set ground truth (seconds)
  std::vector<MethodResult> methods;

  const MethodResult& Method(const std::string& name) const;
};

// Computes (or loads from ./deepod_bench_cache.<city>.txt) the standard
// comparison: TEMP, LR, GBM, STNN, MURAT, the four N-* ablations and
// DeepOD, all trained on the standard dataset of the city. Thread-safe;
// concurrent calls for different cities compute concurrently.
const StandardRun& GetStandardRun(City city);

// Computes the standard runs for all cities, fanning the cities out over a
// thread pool (they are independent). Benches that consume several cities
// call this first so the expensive misses overlap.
void PrewarmStandardRuns();

// Trains one DeepOD variant on `dataset` and fills a MethodResult.
// `epochs_override` < 0 keeps the profile default.
MethodResult RunDeepOdVariant(const sim::Dataset& dataset,
                              const core::DeepOdConfig& config,
                              const std::string& name);

// Prints the standard bench banner (profile + substitution note).
void PrintBanner(const std::string& experiment);

}  // namespace deepod::bench

#endif  // DEEPOD_BENCH_COMMON_H_
