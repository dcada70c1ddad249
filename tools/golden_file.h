#ifndef DEEPOD_TOOLS_GOLDEN_FILE_H_
#define DEEPOD_TOOLS_GOLDEN_FILE_H_

#include <cstdio>
#include <string>
#include <vector>

#include "traj/trajectory.h"

namespace deepod::tools {

// One row of a deepod_train --golden file: the OD query plus the training
// process's own prediction for it.
struct GoldenQuery {
  traj::OdInput od;
  double prediction = 0.0;
};

// Parses a deepod_train --golden file (hex-float fields, header line) for
// deepod_loadgen --golden, the over-the-wire replay gate.
inline bool ReadGoldenFile(const std::string& path,
                           std::vector<GoldenQuery>* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char line[512];
  bool header = true;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (header) {
      header = false;
      continue;
    }
    GoldenQuery q;
    unsigned long long origin = 0, dest = 0;
    int weather = 0;
    // %la parses both hex-float and decimal doubles.
    if (std::sscanf(line, "%llu,%llu,%la,%la,%la,%d,%la", &origin, &dest,
                    &q.od.origin_ratio, &q.od.dest_ratio,
                    &q.od.departure_time, &weather, &q.prediction) != 7) {
      std::fclose(f);
      return false;
    }
    q.od.origin_segment = static_cast<size_t>(origin);
    q.od.dest_segment = static_cast<size_t>(dest);
    q.od.weather_type = weather;
    out->push_back(q);
  }
  std::fclose(f);
  return true;
}

}  // namespace deepod::tools

#endif  // DEEPOD_TOOLS_GOLDEN_FILE_H_
