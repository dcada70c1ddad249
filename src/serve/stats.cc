#include "serve/stats.h"

#include <algorithm>

#include "serve/drift_monitor.h"

namespace deepod::serve {
namespace {

void AppendRegistry(const obs::Registry* registry,
                    std::vector<obs::Record>& out) {
  if (registry == nullptr) return;
  std::vector<obs::Record> records = registry->Export("");
  out.insert(out.end(), std::make_move_iterator(records.begin()),
             std::make_move_iterator(records.end()));
}

}  // namespace

std::vector<obs::Record> CollectStats(const StatsSources& sources) {
  std::vector<obs::Record> out;
  AppendRegistry(sources.server, out);
  AppendRegistry(sources.drift ? &sources.drift->registry() : nullptr, out);
  for (const obs::Registry* registry : sources.extra) {
    AppendRegistry(registry, out);
  }
  // Each registry exports name-sorted; the merged view must be too, so the
  // stats frame and --stats-json stay byte-comparable however many sources
  // a deployment wires in.
  std::sort(out.begin(), out.end(),
            [](const obs::Record& a, const obs::Record& b) {
              return a.name < b.name;
            });
  return out;
}

std::string ExportStatsJson(const StatsSources& sources) {
  return obs::RenderRecordsJson(CollectStats(sources));
}

}  // namespace deepod::serve
