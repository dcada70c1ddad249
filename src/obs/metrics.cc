#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace deepod::obs {
namespace {

Mode ResolveModeFromEnv() {
  const char* env = std::getenv("DEEPOD_OBS");
  if (env == nullptr) return Mode::kOff;
  if (std::strcmp(env, "metrics") == 0) return Mode::kMetrics;
  if (std::strcmp(env, "trace") == 0) return Mode::kTrace;
  return Mode::kOff;
}

std::atomic<Mode>& ModeRef() {
  static std::atomic<Mode> mode{ResolveModeFromEnv()};
  return mode;
}

void AtomicAddDouble(std::atomic<double>& target, double d) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + d,
                                       std::memory_order_relaxed)) {
  }
}

// Number formatting for the JSON exports: enough digits to round-trip the
// micro-benchmark wall times, without forcing fixed-point padding.
std::string FormatNumber(double v) {
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

}  // namespace

Mode mode() { return ModeRef().load(std::memory_order_relaxed); }

void SetMode(Mode m) { ModeRef().store(m, std::memory_order_relaxed); }

size_t ThisThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local const size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

// --- Counter -----------------------------------------------------------------

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.v.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

// --- Gauge -------------------------------------------------------------------

void Gauge::Add(double d) { AtomicAddDouble(value_, d); }

// --- RollingMean -------------------------------------------------------------

RollingMean::RollingMean(size_t window) : ring_(window == 0 ? 1 : window) {}

void RollingMean::Observe(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  if (filled_ == ring_.size()) {
    sum_ -= ring_[next_];
  } else {
    ++filled_;
  }
  ring_[next_] = v;
  sum_ += v;
  next_ = (next_ + 1) % ring_.size();
  ++count_;
}

double RollingMean::Value() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (filled_ == 0) return 0.0;
  return sum_ / static_cast<double>(filled_);
}

uint64_t RollingMean::Count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

void RollingMean::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(ring_.begin(), ring_.end(), 0.0);
  next_ = 0;
  filled_ = 0;
  count_ = 0;
  sum_ = 0.0;
}

// --- Histogram ---------------------------------------------------------------

size_t Histogram::BucketIndex(double v) {
  if (!(v > 0.0)) return 0;  // non-positive and NaN clamp low
  int exp = 0;
  const double mantissa = std::frexp(v, &exp);  // v = mantissa * 2^exp, m in [0.5, 1)
  const int octave = exp - 1 - kMinExp;  // octave 0 spans [2^kMinExp, 2^(kMinExp+1))
  if (octave < 0) return 0;
  if (octave >= kOctaves) return kNumBuckets - 1;
  // mantissa in [0.5, 1) -> kSubBuckets linear sub-buckets.
  int sub = static_cast<int>((mantissa - 0.5) * 2.0 * kSubBuckets);
  sub = std::clamp(sub, 0, kSubBuckets - 1);
  return static_cast<size_t>(octave * kSubBuckets + sub);
}

double Histogram::BucketLowerBound(size_t index) {
  const size_t octave = index / kSubBuckets;
  const size_t sub = index % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets,
                    kMinExp + static_cast<int>(octave));
}

void Histogram::Observe(double v) {
  Shard& shard = shards_[ThisThreadShard()];
  shard.buckets[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(shard.sum, v);
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    for (const auto& b : s.buckets) {
      total += b.load(std::memory_order_relaxed);
    }
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const Shard& s : shards_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::array<uint64_t, Histogram::kNumBuckets> Histogram::BucketCounts() const {
  std::array<uint64_t, kNumBuckets> counts{};
  for (const Shard& s : shards_) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      counts[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return counts;
}

double Histogram::Percentile(double q) const {
  const auto counts = BucketCounts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based), then linear interpolation
  // inside the bucket that holds it.
  const double rank = q * static_cast<double>(total - 1) + 1.0;
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(seen + counts[i]) >= rank) {
      const double within =
          (rank - static_cast<double>(seen)) / static_cast<double>(counts[i]);
      const double lo = BucketLowerBound(i);
      const double hi = i + 1 < kNumBuckets ? BucketLowerBound(i + 1)
                                            : lo * (1.0 + 1.0 / kSubBuckets);
      return lo + within * (hi - lo);
    }
    seen += counts[i];
  }
  return BucketLowerBound(kNumBuckets - 1);
}

void Histogram::Reset() {
  for (Shard& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.sum.store(0.0, std::memory_order_relaxed);
  }
}

// --- Shared record schema ----------------------------------------------------

std::string RenderRecordsJson(const std::vector<Record>& records) {
  std::ostringstream out;
  out << "{\n  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n  \"records\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    out << "    {\"name\": \"" << r.name
        << "\", \"wall_seconds\": " << FormatNumber(r.wall_seconds)
        << ", \"threads\": " << r.threads;
    const auto field = [&out](const char* key,
                              const std::optional<double>& v) {
      if (v.has_value()) out << ", \"" << key << "\": " << FormatNumber(*v);
    };
    field("samples_per_sec", r.samples_per_sec);
    field("count", r.count);
    field("value", r.value);
    field("p50_ms", r.p50_ms);
    field("p95_ms", r.p95_ms);
    field("p99_ms", r.p99_ms);
    out << "}" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

bool WriteRecordsJson(const std::string& path,
                      const std::vector<Record>& records) {
  std::ofstream out(path);
  if (!out) return false;
  out << RenderRecordsJson(records);
  return static_cast<bool>(out);
}

// --- Registry ----------------------------------------------------------------

Registry& Registry::Global() {
  static Registry* global = new Registry();  // leaked: outlives all users
  return *global;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<Record> Registry::Export(const std::string& prefix) const {
  const auto matches = [&prefix](const std::string& name) {
    return prefix.empty() || name.rfind(prefix, 0) == 0;
  };
  std::vector<Record> records;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) {
    if (!matches(name)) continue;
    Record r;
    r.name = name;
    r.count = static_cast<double>(c->Value());
    records.push_back(std::move(r));
  }
  for (const auto& [name, g] : gauges_) {
    if (!matches(name)) continue;
    Record r;
    r.name = name;
    r.value = g->Value();
    records.push_back(std::move(r));
  }
  for (const auto& [name, h] : histograms_) {
    if (!matches(name)) continue;
    Record r;
    r.name = name;
    r.wall_seconds = h->Sum();
    r.count = static_cast<double>(h->Count());
    r.p50_ms = h->Percentile(0.50) * 1e3;
    r.p95_ms = h->Percentile(0.95) * 1e3;
    r.p99_ms = h->Percentile(0.99) * 1e3;
    records.push_back(std::move(r));
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.name < b.name; });
  return records;
}

}  // namespace deepod::obs
