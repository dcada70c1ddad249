#ifndef DEEPOD_SERVE_STATS_H_
#define DEEPOD_SERVE_STATS_H_

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace deepod::serve {

class DriftMonitor;

// The serving stack's stat sources, each optional. One serving process has
// the server front end's registry ("server/*" instruments), the fleet
// router's ("fleet/*"), one EtaService registry per warm shard ("serve/*"
// for a fleet of one, "serve/<city>/*" per manifest city) and the
// DriftMonitor's ("drift/*"). Before this entry point existed each surface
// concatenated its own subset, so `--stats-json` and the wire stats frame
// could disagree on schema and coverage.
struct StatsSources {
  const obs::Registry* server = nullptr;
  const DriftMonitor* drift = nullptr;
  // Additional registries merged into the same export — the fleet router
  // appends its own registry plus every warm shard's service registry
  // here. Borrowed; must outlive the call.
  std::vector<const obs::Registry*> extra;
};

// Snapshot of every instrument across the non-null sources, merged and
// name-sorted into the shared BENCH-json Record schema. This is THE stats
// surface: the server's stats frame and `deepod_server --stats-json` both
// render this one collection, so every consumer sees the same records under
// the same names.
std::vector<obs::Record> CollectStats(const StatsSources& sources);

// CollectStats rendered as {"hardware_concurrency": N, "records": [...]}
// (obs::RenderRecordsJson — same schema bench emitters write, same
// validator covers it).
std::string ExportStatsJson(const StatsSources& sources);

}  // namespace deepod::serve

#endif  // DEEPOD_SERVE_STATS_H_
