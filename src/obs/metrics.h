#ifndef DEEPOD_OBS_METRICS_H_
#define DEEPOD_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace deepod::obs {

// --- Mode switch -------------------------------------------------------------

// The process-wide observability level, resolved once from the DEEPOD_OBS
// environment variable (off | metrics | trace; default off) and overridable
// at runtime (tests, embedding applications).
//  - kOff:     every OBS_SPAN and ambient instrument is a no-op branch;
//    the hot paths carry no clocks, no atomics, no allocations.
//  - kMetrics: spans record wall time into registry histograms and the
//    wired-in gauges/counters update.
//  - kTrace:   kMetrics plus every span appends a Chrome trace_event record
//    (see trace.h) for offline flamegraph inspection.
// None of the levels touch any numeric kernel, so model outputs are
// bit-identical across all three.
enum class Mode { kOff, kMetrics, kTrace };

Mode mode();
void SetMode(Mode m);

inline bool MetricsEnabled() { return mode() != Mode::kOff; }
inline bool TraceEnabled() { return mode() == Mode::kTrace; }

// --- Lock-free instruments ---------------------------------------------------

// Writers land on a per-thread shard (assigned round-robin at first use,
// cached in a thread_local) and bump it with a relaxed atomic, so the fast
// path is a single uncontended fetch_add with no locks; readers aggregate
// the shards on snapshot. Counts are monotone; Value() taken concurrently
// with writers is a consistent lower bound.
inline constexpr size_t kShards = 16;
size_t ThisThreadShard();

class Counter {
 public:
  void Add(uint64_t n = 1) {
    shards_[ThisThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_;
};

// Last-writer-wins instantaneous value (queue depths, occupancy).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d);
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Windowed running mean over the last `window` observations (ring buffer
// under a short mutex — this is a low-rate instrument: drift errors, not
// per-request latencies). Value() is the mean of the window's contents, so
// it tracks the *current* regime and forgets old observations — the
// behaviour a drift detector needs, where a lifetime mean would dilute a
// recent shock into invisibility.
class RollingMean {
 public:
  explicit RollingMean(size_t window = 256);

  void Observe(double v);
  // Mean of the last min(Count(), window) observations; 0 when empty.
  double Value() const;
  // Total observations ever (not clamped to the window).
  uint64_t Count() const;
  size_t window() const { return ring_.size(); }
  void Reset();

 private:
  mutable std::mutex mu_;
  std::vector<double> ring_;
  size_t next_ = 0;      // ring slot the next observation overwrites
  size_t filled_ = 0;    // live slots (saturates at ring_.size())
  uint64_t count_ = 0;   // lifetime observations
  double sum_ = 0.0;     // sum of the live slots
};

// Fixed-bucket log-linear histogram (DDSketch-style): values are bucketed
// by power-of-two octave with kSubBuckets linear sub-buckets per octave, so
// Observe() is a frexp plus two relaxed atomic adds — no locks, no dynamic
// allocation — and percentile estimates carry a bounded relative error of
// at most 1/kSubBuckets (12.5%). The bucket range covers [2^kMinExp,
// 2^(kMinExp+kOctaves)) ≈ [1 µs, 256 s] when observing seconds; values
// outside clamp into the end buckets. Duration histograms observe SECONDS
// by convention (exports convert percentiles to milliseconds).
class Histogram {
 public:
  static constexpr int kMinExp = -20;    // 2^-20 s ≈ 0.95 µs
  static constexpr int kOctaves = 28;    // up to 2^8 = 256 s
  static constexpr int kSubBuckets = 8;  // ≤12.5% relative bucket width
  static constexpr size_t kNumBuckets =
      static_cast<size_t>(kOctaves * kSubBuckets);

  void Observe(double v);
  uint64_t Count() const;
  double Sum() const;
  // Bucket-interpolated quantile in the observed unit; q in [0, 1].
  double Percentile(double q) const;
  void Reset();

  // Aggregated bucket counts (tests / exporters).
  std::array<uint64_t, kNumBuckets> BucketCounts() const;
  static double BucketLowerBound(size_t index);
  static size_t BucketIndex(double v);

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
    std::atomic<double> sum{0.0};
  };
  std::array<Shard, kShards> shards_;
};

// --- Shared record schema ----------------------------------------------------

// One record of the machine-readable JSON shared by every BENCH_*.json
// emitter and by the serving stats export (serve/stats.h), so one
// validator / comparison tool
// (tools/validate_bench_json.py, tools/bench_compare.py) covers bench
// output and exported serving stats alike. Optional fields are omitted
// from the JSON when unset.
struct Record {
  std::string name;
  double wall_seconds = 0.0;
  size_t threads = 1;
  std::optional<double> samples_per_sec;  // throughput (must be > 0)
  std::optional<double> count;            // counter value / histogram count
  std::optional<double> value;            // gauge value
  std::optional<double> p50_ms;           // histogram percentiles (ms)
  std::optional<double> p95_ms;
  std::optional<double> p99_ms;
};

// Renders {"hardware_concurrency": N, "records": [...]}.
std::string RenderRecordsJson(const std::vector<Record>& records);
// Writes RenderRecordsJson(records) to `path`; returns false if the file
// could not be written.
bool WriteRecordsJson(const std::string& path,
                      const std::vector<Record>& records);

// --- Registry ----------------------------------------------------------------

// Named instruments, created on first use and owned by the registry
// (returned references stay valid for the registry's lifetime). Lookup
// takes a short mutex; hot paths should cache the returned reference.
// Global() backs the ambient wiring (OBS_SPAN, trainer, nn kernels);
// components whose stats must not bleed across instances (EtaService) own
// a private Registry.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& Global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Snapshot of every instrument whose name starts with `prefix` (empty =
  // all), name-sorted: counters as count, gauges as value, histograms as
  // wall_seconds = sum, count and p50/p95/p99 in ms.
  std::vector<Record> Export(const std::string& prefix = "") const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace deepod::obs

#endif  // DEEPOD_OBS_METRICS_H_
