#ifndef DEEPOD_PERFBENCH_BENCH_UTIL_H_
#define DEEPOD_PERFBENCH_BENCH_UTIL_H_

// Small helpers shared by the benchmark program: clocks, CPU and memory
// readings from /proc, order statistics and the result printer.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace deepod::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// CPU time of the whole calling process (all threads), ns.
int64_t ProcessCpuNs();

// CPU time of every live thread of `pid`, summed from the nanosecond
// run-time field of /proc/<pid>/task/*/schedstat. Threads that exited
// before the call are not counted, so bracket a window in which the
// process's threads stay alive.
int64_t TaskCpuNs(pid_t pid);

// Peak resident set (VmHWM) of `pid` (0 = this process), MB.
double PeakRssMb(pid_t pid);

// Aggregate /proc/stat CPU counters; StealFraction(a, b) is the share of
// all CPU time between the two readings that the hypervisor stole.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();
double StealFraction(const CpuTimes& a, const CpuTimes& b);

// Order statistics; 0 for an empty input.
double Median(std::vector<double> v);
double Quantile(std::vector<double> v, double q);  // nearest-rank

// Runs `body` `reps` times and returns the median wall time of one run
// divided by `per` (e.g. per-item cost), in the unit `scale` selects
// (1e9 = ns, 1e6 = µs, 1e3 = ms).
template <typename F>
double MedianTime(int reps, double per, double scale, F&& body) {
  std::vector<double> t;
  t.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    const auto a = Clock::now();
    body();
    t.push_back(SecondsBetween(a, Clock::now()) / per * scale);
  }
  return Median(std::move(t));
}

// Named metrics in insertion order, printed as the benchmark's last line:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  // JSON object of the metrics, {"name": {"value": v, "unit": "u"}, ...}.
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string FormatNumber(double v);

}  // namespace deepod::perfbench

#endif  // DEEPOD_PERFBENCH_BENCH_UTIL_H_
