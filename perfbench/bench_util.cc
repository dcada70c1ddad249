#include "bench_util.h"

#include <dirent.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace deepod::perfbench {

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t TaskCpuNs(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) throw std::runtime_error("cannot open " + dir);
  int64_t total = 0;
  while (const dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    long long run_ns = 0;
    if (in >> run_ns) total += run_ns;
  }
  closedir(d);
  return total;
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("no VmHWM in " + path);
}

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  // user nice system idle iowait irq softirq steal
  uint64_t field = 0;
  for (int i = 0; i < 8 && (in >> field); ++i) {
    t.total += field;
    if (i == 7) t.steal = field;
  }
  return t;
}

double StealFraction(const CpuTimes& a, const CpuTimes& b) {
  const uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t k = std::min(
      v.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size()))) -
          (q > 0.0 ? 1 : 0));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t n = v.size();
  std::sort(v.begin(), v.end());
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  entries_.push_back({name, value, unit});
}

double MetricSet::Get(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return e.value;
  }
  throw std::runtime_error("metric not recorded: " + name);
}

std::string MetricSet::Json() const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    out << (i == 0 ? "" : ", ") << "\"" << e.name << "\": {\"value\": "
        << FormatNumber(e.value) << ", \"unit\": \"" << e.unit << "\"}";
  }
  out << "}";
  return out.str();
}

}  // namespace deepod::perfbench
