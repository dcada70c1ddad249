#include "serve_session.h"

#include <poll.h>
#include <sched.h>
#include <pthread.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace deepod::perfbench {

namespace net = serve::net;

PinPlan::PinPlan() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  if (cpus.size() < 3) return;
  server = cpus[0];
  sender = cpus[1];
  reader = cpus[2];
}

namespace {

void PinThisThread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args,
                             const std::string& obs_mode) {
  // Everything the child needs is built before fork: between fork and exec
  // only async-signal-safe calls are allowed.
  std::vector<std::string> argv_s = {binary};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<std::string> env_s;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DEEPOD_OBS=", 11) != 0) env_s.emplace_back(*e);
  }
  env_s.push_back("DEEPOD_OBS=" + obs_mode);
  std::vector<char*> envp;
  for (auto& e : env_s) envp.push_back(e.data());
  envp.push_back(nullptr);

  cpu_set_t pin_set;
  CPU_ZERO(&pin_set);
  const int pin_cpu = PinPlan().server;
  if (pin_cpu >= 0) CPU_SET(pin_cpu, &pin_set);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    if (pin_cpu >= 0) sched_setaffinity(0, sizeof(pin_set), &pin_set);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execve(argv[0], argv.data(), envp.data());
    _exit(127);
  }
  close(fds[1]);
  out_fd_ = fds[0];

  // Wait for "listening on HOST:PORT".
  std::string buffer;
  const auto deadline = Clock::now() + std::chrono::seconds(120);
  while (port_ == 0) {
    const int left_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now())
            .count());
    pollfd p{out_fd_, POLLIN, 0};
    if (left_ms <= 0 || poll(&p, 1, left_ms) <= 0) {
      Stop();
      throw std::runtime_error("deepod_server did not start listening");
    }
    char chunk[512];
    const ssize_t n = read(out_fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      Stop();
      throw std::runtime_error("deepod_server exited during start-up");
    }
    buffer.append(chunk, static_cast<size_t>(n));
    const size_t at = buffer.find("listening on ");
    const size_t eol = at == std::string::npos ? at : buffer.find('\n', at);
    if (eol != std::string::npos) {
      const size_t colon = buffer.rfind(':', eol);
      port_ = static_cast<uint16_t>(
          std::stoul(buffer.substr(colon + 1, eol - colon - 1)));
    }
  }
}

ServerProcess::~ServerProcess() { Stop(); }

void ServerProcess::Stop() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    close(out_fd_);
    out_fd_ = -1;
  }
}

namespace {

// Reads every answer that arrives until `expected` answers are in or
// `stop_at()` passes; fills replies[id] (ids outside the schedule are
// ignored). `due_of(id)` gives the due time answers are timed from.
template <typename DueFn, typename StopFn>
void ReadReplies(net::Client& client, size_t expected,
                 std::vector<Reply>* replies, DueFn due_of, StopFn stop_at) {
  size_t got = 0;
  net::ResponseFrame response;
  while (got < expected) {
    pollfd p{client.fd(), POLLIN, 0};
    const int ready = poll(&p, 1, 20);
    if (ready <= 0) {
      if (stop_at()) return;
      continue;
    }
    if (!client.ReadResponse(&response)) return;
    const auto now = Clock::now();
    if (response.request_id >= replies->size()) continue;
    Reply& r = (*replies)[response.request_id];
    if (r.received) continue;
    r.received = true;
    r.status = response.status;
    r.estimator = response.estimator;
    r.eta = response.eta_seconds;
    r.latency_s = SecondsBetween(due_of(response.request_id), now);
    ++got;
  }
}

}  // namespace

SessionResult RunOpenLoop(net::Client& client,
                          const std::vector<ScheduledFrame>& frames,
                          pid_t server_pid, double measure_from_s,
                          double slice_s, double grace_s) {
  SessionResult result;
  result.measure_from_s = measure_from_s;
  result.slice_s = slice_s;
  result.replies.resize(frames.size());
  result.late_s.resize(frames.size(), 0.0);
  result.window_first = frames.size();
  for (size_t i = 0; i < frames.size(); ++i) {
    if (frames[i].due_s >= measure_from_s) {
      result.window_first = i;
      break;
    }
  }
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(frames[i].due_s));
  };
  const Clock::time_point last_due =
      frames.empty() ? start : due(frames.size() - 1);
  const Clock::time_point give_up =
      last_due + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(grace_s));

  const PinPlan plan;
  cpu_set_t saved;
  pthread_getaffinity_np(pthread_self(), sizeof(saved), &saved);
  PinThisThread(plan.sender);
  std::thread reader([&] {
    PinThisThread(plan.reader);
    ReadReplies(client, frames.size(), &result.replies, due,
                [&] { return Clock::now() > give_up; });
  });

  // Sleep wake-ups are otherwise rounded up by the default 50 µs timer
  // slack; 1 ns lets the sender sleep to within tens of µs of a due time
  // instead of spinning.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  CpuTimes steal0;
  double next_mark = measure_from_s;
  for (size_t i = 0; i < frames.size(); ++i) {
    const Clock::time_point t = due(i);
    if (i == result.window_first) steal0 = ReadCpuTimes();
    if (frames[i].due_s >= next_mark) {
      result.cpu_marks.push_back(TaskCpuNs(server_pid));
      while (next_mark <= frames[i].due_s) next_mark += slice_s;
    }
    // Sleep to just before the due time, then spin the rest.
    for (;;) {
      const auto left = t - Clock::now();
      if (left <= Clock::duration::zero()) break;
      if (left > std::chrono::microseconds(40)) {
        std::this_thread::sleep_for(left - std::chrono::microseconds(25));
      }
    }
    const auto sent = Clock::now();
    result.late_s[i] = SecondsBetween(t, sent);
    if (!net::WriteAll(client.fd(), frames[i].wire.data(),
                       frames[i].wire.size())) {
      break;
    }
  }
  reader.join();
  pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved);
  result.cpu_marks.push_back(TaskCpuNs(server_pid));
  result.steal_frac = StealFraction(steal0, ReadCpuTimes());
  return result;
}

std::vector<Reply> RunBurst(net::Client& client,
                            const std::vector<ScheduledFrame>& frames,
                            double timeout_s) {
  std::vector<Reply> replies(frames.size());
  const Clock::time_point start = Clock::now();
  const Clock::time_point give_up =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(timeout_s));
  std::thread reader([&] {
    ReadReplies(client, frames.size(), &replies,
                [&](size_t) { return start; },
                [&] { return Clock::now() > give_up; });
  });
  for (const auto& f : frames) {
    if (!net::WriteAll(client.fd(), f.wire.data(), f.wire.size())) break;
  }
  reader.join();
  return replies;
}

StatsRecords FetchStats(net::Client& client) {
  const std::string json = client.FetchStatsJson();
  if (json.empty()) throw std::runtime_error("stats frame fetch failed");
  StatsRecords out;
  size_t pos = 0;
  while ((pos = json.find("{\"name\": \"", pos)) != std::string::npos) {
    const size_t name_begin = pos + 10;
    const size_t name_end = json.find('"', name_begin);
    const size_t rec_end = json.find('}', name_end);
    auto& fields = out[json.substr(name_begin, name_end - name_begin)];
    size_t f = name_end;
    while ((f = json.find(", \"", f)) != std::string::npos && f < rec_end) {
      const size_t key_end = json.find('"', f + 3);
      const std::string key = json.substr(f + 3, key_end - f - 3);
      fields[key] = std::strtod(json.c_str() + key_end + 3, nullptr);
      f = key_end;
    }
    pos = rec_end;
  }
  return out;
}

double SumStat(const StatsRecords& stats, const std::string& suffix,
               const std::string& field) {
  double sum = 0.0;
  for (const auto& [name, fields] : stats) {
    if (name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const auto it = fields.find(field);
    if (it != fields.end()) sum += it->second;
  }
  return sum;
}

}  // namespace deepod::perfbench
