// deepod_serve: stands an EtaService up from a model artifact + road
// network alone (no training dataset, traffic process or trajectory store
// in memory) and optionally replays a golden-query file against it.
//
//   deepod_serve --artifact model.artifact --network network.csv
//                [--check golden.csv] [--tolerance X] [--quant MODE]
//                [--kernel MODE] [--stats]
//
// --check replays every query of a deepod_train --golden file through
// EtaService::Estimate twice — the first call runs the traffic CNN and
// stores the query's external code, the second reads that code back — and
// compares both answers against the recorded prediction; any mismatch
// fails the run.
// This is the cross-process round-trip gate CI runs. Without --tolerance
// the comparison is bit-for-bit — the right gate for an fp64 artifact
// served on the tier the goldens were recorded with. --tolerance X accepts
// |got - expected| <= X * max(1, |expected|) instead, which is what a
// quantised (--quant int8/fp16) or kSimd-tier (--kernel simd) replay
// needs: both are value-tolerance contracts, not bit-identity ones.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "golden_file.h"
#include "io/model_artifact.h"
#include "io/trip_io.h"
#include "nn/quant.h"
#include "nn/serialize.h"
#include "serve/eta_service.h"

int main(int argc, char** argv) {
  using namespace deepod;
  std::string artifact_path, network_path, check_path;
  bool stats = false;
  double tolerance = 0.0;  // 0 = bit-for-bit
  serve::EtaServiceOptions options;
  const auto usage = [&argv] {
    std::fprintf(stderr,
                 "usage: %s --artifact PATH --network PATH "
                 "[--check golden.csv] [--tolerance X] "
                 "[--quant none|fp16|int8] "
                 "[--kernel blocked|vector|simd] [--stats]\n",
                 argv[0]);
    return 2;
  };
  tools::cli::FlagCursor flags(argc, argv);
  while (flags.Next()) {
    const std::string& flag = flags.flag();
    if (flag == "--artifact") {
      if (!flags.StringValue(&artifact_path)) return 2;
    } else if (flag == "--network") {
      if (!flags.StringValue(&network_path)) return 2;
    } else if (flag == "--check") {
      if (!flags.StringValue(&check_path)) return 2;
    } else if (flag == "--tolerance") {
      if (!flags.ToleranceValue(&tolerance)) return 2;
    } else if (flag == "--quant") {
      if (!flags.QuantValue(&options.quant)) return 2;
    } else if (flag == "--kernel") {
      if (!flags.KernelValue(&options.kernel_mode)) return 2;
    } else if (flag == "--stats") {
      stats = true;
    } else {
      return usage();
    }
  }
  if (artifact_path.empty() || network_path.empty()) {
    std::fprintf(stderr, "--artifact and --network are required\n");
    return 2;
  }

  const road::RoadNetwork network = io::ReadNetworkCsv(network_path);
  std::unique_ptr<serve::EtaService> service;
  try {
    service = serve::EtaService::FromArtifact(artifact_path, network, options);
  } catch (const nn::SerializeError& e) {
    std::fprintf(stderr, "artifact load failed [%s]: %s\n",
                 nn::LoadErrorKindName(e.status().kind), e.what());
    return 1;
  }
  std::printf("serving %s against %zu-segment network (quant: %s)\n",
              artifact_path.c_str(), network.num_segments(),
              nn::QuantModeName(options.quant));

  int exit_code = 0;
  if (!check_path.empty()) {
    std::vector<tools::GoldenQuery> golden;
    if (!tools::ReadGoldenFile(check_path, &golden)) {
      std::fprintf(stderr, "cannot parse %s\n", check_path.c_str());
      return 1;
    }
    const auto matches = [tolerance](double got, double expected) {
      if (tolerance == 0.0) {
        return std::memcmp(&got, &expected, sizeof(double)) == 0;
      }
      return std::abs(got - expected) <=
             tolerance * std::max(1.0, std::abs(expected));
    };
    size_t mismatches = 0;
    for (const auto& q : golden) {
      const double first = service->Estimate(q.od);   // fills the code
      const double second = service->Estimate(q.od);  // reuses it
      if (!matches(first, q.prediction) || !matches(second, q.prediction)) {
        if (++mismatches <= 5) {
          std::fprintf(stderr,
                       "mismatch: od %zu->%zu t=%.1f expected %a got %a/%a\n",
                       q.od.origin_segment, q.od.dest_segment,
                       q.od.departure_time, q.prediction, first, second);
        }
      }
    }
    std::printf("check: %zu queries, %zu mismatches (tolerance %g) -> %s\n",
                golden.size(), mismatches, tolerance,
                mismatches == 0 ? "PASS" : "FAIL");
    if (mismatches != 0 || golden.empty()) exit_code = 1;
  }
  if (stats) {
    std::printf("%s\n", service->ExportJson().c_str());
  }
  return exit_code;
}
