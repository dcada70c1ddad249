#ifndef DEEPOD_PERFBENCH_LAYER_PROBES_H_
#define DEEPOD_PERFBENCH_LAYER_PROBES_H_

// Per-layer probes: the benchmark times calls into each layer's public
// functions in its own process, on the seed's primary city and the
// workload's own request stream. Nothing inside the program is changed or
// instrumented; the probes only run in traced runs (--trace 1).

#include <cstddef>
#include <string>
#include <vector>

#include "bench_util.h"
#include "traj/trajectory.h"

namespace deepod::perfbench {

struct ProbeInputs {
  std::string artifact_path;  // the primary city's model artifact
  std::string network_path;   // ... and its road network
  std::string data_dir;       // ... and its deepod_datagen corpus
  std::string fleet_path;     // the workload's fleet manifest (or one row)
  std::string oracle_fleet_path;  // one-row manifest, primary city, oracle
  // The workload's read requests for the primary city, in send order.
  std::vector<traj::OdInput> stream;
  size_t fill = 1;  // batch fill the server observed (>= 1)
};

// Adds every layer metric of the core, nn, io, sim, baselines, serve and
// server layers that is measured in process (see perfbench/README.md).
void RunLayerProbes(const ProbeInputs& in, MetricSet* metrics);

}  // namespace deepod::perfbench

#endif  // DEEPOD_PERFBENCH_LAYER_PROBES_H_
