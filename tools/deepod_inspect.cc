// deepod_inspect: prints the record table of a tagged state-dict file (a
// model artifact, a DeepOdModel::Save checkpoint or a trainer checkpoint):
// per-tensor name, storage dtype, shape, element count and on-disk payload
// size, plus the per-row scale range of int8 records and the value of each
// scalar (0-d) record, so two checkpoints that differ in one scalar print
// differently — after verifying framing and the trailing checksum. For
// serving artifacts (records under "artifact.") a metadata block follows
// the table: artifact version,
// network id, the frozen speed grid's shape, and the OD-oracle fallback
// tier's grid/slot/bucket geometry when embedded. Exit codes: 0 readable,
// 1 corrupt/unreadable, 2 usage.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "nn/serialize.h"

namespace {

// First scalar of the named record, or `fallback` when the record is
// absent/empty (optional artifact metadata).
double ScalarRecord(const std::vector<deepod::nn::TensorRecord>& records,
                    const std::string& name, double fallback) {
  for (const auto& r : records) {
    if (r.name != name) continue;
    const std::vector<double> values = deepod::nn::ReadRecordPayload(r);
    return values.empty() ? fallback : values.front();
  }
  return fallback;
}

bool HasRecord(const std::vector<deepod::nn::TensorRecord>& records,
               const std::string& name) {
  for (const auto& r : records) {
    if (r.name == name) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace deepod;
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s FILE\n", argv[0]);
    return 2;
  }
  const std::string path = argv[1];
  std::vector<nn::TensorRecord> records;
  const nn::LoadStatus status = nn::ReadStateDict(path, &records);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: [%s] %s\n", path.c_str(),
                 nn::LoadErrorKindName(status.kind), status.message.c_str());
    return 1;
  }
  // Header, records back to back, then the u64 checksum (nn/serialize.h
  // byte layout).
  const size_t bytes =
      (records.empty() ? 16 : records.back().payload_offset +
                                  nn::RecordPayloadBytes(records.back())) +
      sizeof(uint64_t);
  std::printf("%s: state dict (v%u), %zu bytes, %zu records, checksum OK\n",
              path.c_str(), nn::kStateDictVersion, bytes, records.size());
  size_t total_elements = 0;
  size_t total_payload = 0;
  size_t quantised = 0;
  for (const auto& r : records) {
    std::string shape = "[";
    for (size_t i = 0; i < r.shape.size(); ++i) {
      shape += (i > 0 ? "," : "") + std::to_string(r.shape[i]);
    }
    shape += "]";
    const size_t payload = nn::RecordPayloadBytes(r);
    std::printf("  %-56s %-4s %-14s %8zu %10zu B", r.name.c_str(),
                nn::RecordDtypeName(r.dtype), shape.c_str(), r.num_elements,
                payload);
    if (r.dtype == nn::kDtypeI8) {
      const std::vector<double> scales = nn::ReadRecordScales(r);
      const auto [lo, hi] = std::minmax_element(scales.begin(), scales.end());
      std::printf("  scales[%zu] %.3e..%.3e", scales.size(), *lo, *hi);
    }
    if (r.shape.empty()) {
      std::printf("  %.17g", nn::ReadRecordPayload(r).front());
    }
    std::printf("\n");
    total_elements += r.num_elements;
    total_payload += payload;
    if (r.dtype != nn::kDtypeF64) ++quantised;
  }
  std::printf("total: %zu elements, %zu payload bytes (%zu of %zu records "
              "quantised; f64 would be %zu bytes)\n",
              total_elements, total_payload, quantised, records.size(),
              total_elements * sizeof(double));

  if (HasRecord(records, "artifact.version")) {
    // Serving-artifact metadata: what a fleet operator needs to know about
    // the file without loading it against a network.
    std::printf("artifact: version %.1f, network_id %u\n",
                ScalarRecord(records, "artifact.version", 0.0),
                static_cast<unsigned>(
                    ScalarRecord(records, "artifact.network_id", 0.0)));
    if (HasRecord(records, "speed.rows")) {
      std::printf("  speed grid: %zux%zu cells, %.0f s snapshots\n",
                  static_cast<size_t>(
                      ScalarRecord(records, "speed.rows", 0.0)),
                  static_cast<size_t>(
                      ScalarRecord(records, "speed.cols", 0.0)),
                  ScalarRecord(records, "speed.snapshot_seconds", 0.0));
    }
    if (HasRecord(records, "config.slot_seconds")) {
      const double slot_seconds =
          ScalarRecord(records, "config.slot_seconds", 0.0);
      if (slot_seconds > 0.0) {
        std::printf("  time slots: %.0f s (%zu per day)\n", slot_seconds,
                    static_cast<size_t>(86400.0 / slot_seconds));
      }
    }
    if (HasRecord(records, "oracle.grid_cells")) {
      const size_t grid_cells = static_cast<size_t>(
          ScalarRecord(records, "oracle.grid_cells", 0.0));
      std::printf(
          "  oracle: %zux%zu grid, %zu slots/day (%.0f s), "
          "%zu OD buckets over %zu pairs, global mean %.1f s\n",
          grid_cells, grid_cells,
          static_cast<size_t>(
              ScalarRecord(records, "oracle.slots_per_day", 0.0)),
          ScalarRecord(records, "oracle.slot_seconds", 0.0),
          [&] {
            for (const auto& r : records) {
              if (r.name == "oracle.keys") return r.num_elements;
            }
            return size_t{0};
          }(),
          [&] {
            for (const auto& r : records) {
              if (r.name == "oracle.pair_keys") return r.num_elements;
            }
            return size_t{0};
          }(),
          ScalarRecord(records, "oracle.global_mean", 0.0));
    }
    if (HasRecord(records, "linkmean.means")) {
      std::printf("  linkmean: %s, fallback %.1f s\n",
                  [&]() -> std::string {
                    for (const auto& r : records) {
                      if (r.name == "linkmean.means") {
                        return std::to_string(r.num_elements) + " segments";
                      }
                    }
                    return "0 segments";
                  }()
                      .c_str(),
                  ScalarRecord(records, "linkmean.fallback", 0.0));
    }
  }
  return 0;
}
