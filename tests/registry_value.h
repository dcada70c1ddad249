#ifndef DEEPOD_TESTS_REGISTRY_VALUE_H_
#define DEEPOD_TESTS_REGISTRY_VALUE_H_

#include <string>

#include "obs/metrics.h"

namespace deepod::test {

// One instrument of `registry`, by exact name: a counter's (or a
// histogram's) count, or a gauge's value. -1 when the registry holds no
// such instrument, so a misspelt name never reads as a zero count.
inline double RegistryValue(const obs::Registry& registry,
                            const std::string& name) {
  for (const obs::Record& record : registry.Export(name)) {
    if (record.name != name) continue;
    if (record.count.has_value()) return *record.count;
    if (record.value.has_value()) return *record.value;
  }
  return -1.0;
}

}  // namespace deepod::test

#endif  // DEEPOD_TESTS_REGISTRY_VALUE_H_
