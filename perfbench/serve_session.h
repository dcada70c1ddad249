#ifndef DEEPOD_PERFBENCH_SERVE_SESSION_H_
#define DEEPOD_PERFBENCH_SERVE_SESSION_H_

// The serving half of the benchmark: a deepod_server child process and an
// open-loop client that sends a precomputed frame schedule over one
// connection and times every answer from the moment it was due.

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "serve/server/frame.h"
#include "serve/server/loadgen.h"

namespace deepod::perfbench {

// CPU placement of a serving session: every server thread on one CPU and
// the client's sender and reader on one CPU each (-1 = not pinned, when
// fewer than three CPUs are usable). Unpinned, the server's CPU per
// request swung by a third between runs with where the scheduler put its
// threads (cross-CPU wake-ups cost VM exits); pinned it repeats within a
// few percent. See perfbench/README.md.
struct PinPlan {
  PinPlan();
  int server = -1, sender = -1, reader = -1;
};

// One deepod_server child. The constructor spawns it (DEEPOD_OBS=obs_mode)
// and blocks until it prints its "listening on" line; the destructor stops
// it with SIGTERM and reaps it. The child also dies with the benchmark
// (PR_SET_PDEATHSIG).
class ServerProcess {
 public:
  ServerProcess(const std::string& binary,
                const std::vector<std::string>& args,
                const std::string& obs_mode);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  // SIGTERM + wait (SIGKILL after 10 s). Idempotent.
  void Stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

// A frame due at `due_s` seconds after the schedule starts. request_id of
// the encoded frame is its index in the schedule.
struct ScheduledFrame {
  std::vector<uint8_t> wire;
  double due_s = 0.0;
  bool observe = false;
  uint32_t network_id = 0;
};

struct Reply {
  bool received = false;
  serve::net::Status status = serve::net::Status::kOk;
  serve::net::Estimator estimator = serve::net::Estimator::kModel;
  double eta = 0.0;
  double latency_s = 0.0;  // answer time - due time
};

struct SessionResult {
  std::vector<Reply> replies;     // by schedule index
  std::vector<double> late_s;     // send time - due time, by schedule index
  // Measured window: frames due at or after `measure_from_s`, cut into
  // slices of `slice_s`; slice k holds the frames due in
  // [measure_from_s + k * slice_s, measure_from_s + (k + 1) * slice_s).
  size_t window_first = 0;        // first schedule index in the window
  double measure_from_s = 0.0;
  double slice_s = 1.0;
  // Server CPU (ns) read as each slice began, plus one reading after the
  // last answer: slice k used cpu_marks[k + 1] - cpu_marks[k].
  std::vector<int64_t> cpu_marks;
  double steal_frac = 0.0;        // host steal over the window
};

// Sends `frames` on `client` open-loop: the sender sleeps until shortly
// before each due time and then spins, so a slow server never delays the
// schedule. A reader thread matches answers by request id. Frames not
// answered within `grace_s` after the last due time stay !received.
SessionResult RunOpenLoop(serve::net::Client& client,
                          const std::vector<ScheduledFrame>& frames,
                          pid_t server_pid, double measure_from_s,
                          double slice_s, double grace_s);

// Sends `frames` back to back (no schedule) and waits for every answer;
// used by the correctness gates and the set-up probe.
std::vector<Reply> RunBurst(serve::net::Client& client,
                            const std::vector<ScheduledFrame>& frames,
                            double timeout_s);

// The server's stats frame parsed into name -> field -> value, fields as
// in the obs record schema (count, value, wall_seconds, p50_ms, ...).
using StatsRecords = std::map<std::string, std::map<std::string, double>>;
StatsRecords FetchStats(serve::net::Client& client);
// Sum of `field` over every record whose name ends with `suffix`.
double SumStat(const StatsRecords& stats, const std::string& suffix,
               const std::string& field);

}  // namespace deepod::perfbench

#endif  // DEEPOD_PERFBENCH_SERVE_SESSION_H_
