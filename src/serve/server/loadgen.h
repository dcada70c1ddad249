#ifndef DEEPOD_SERVE_SERVER_LOADGEN_H_
#define DEEPOD_SERVE_SERVER_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/server/frame.h"

namespace deepod::serve::net {

// Blocking deepod_server client: one TCP connection speaking the frame
// protocol. Send/ReadResponse may be driven from two different threads
// (one writer, one reader) — that is the pipelined shape the load
// generator uses — but neither side is multi-thread safe on its own.
class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(const std::string& host, uint16_t port);
  void Close();     // full close
  void CloseSend(); // half-close: no more requests; responses still readable
  void Abort();     // shutdown both directions; unblocks a blocked reader
  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  bool Send(const RequestFrame& frame);
  // Blocks for the next response frame; false on EOF or a malformed frame.
  bool ReadResponse(ResponseFrame* out);
  // Round-trips a stats frame; empty string on failure. Must not race an
  // in-flight ReadResponse on the same connection.
  std::string FetchStatsJson();

 private:
  int fd_ = -1;
};

// --- Open-loop load generator ----------------------------------------------

struct LoadgenOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  // Open-loop Poisson arrivals: each of `connections` pipelined TCP
  // connections runs an independent Poisson process of rate qps /
  // connections. Senders never wait for responses, so offered load does
  // not degrade when the server slows down — overload stays overload.
  double qps = 200.0;
  double duration_seconds = 5.0;
  size_t connections = 4;
  uint64_t seed = 1;

  // Fleet routing: each request's wire network_id round-robins over this
  // list. Empty sends network_id 0 (single-city servers ignore it). For a
  // mixed-city run against a fleet, num_segments should be the smallest
  // city's segment count so every OD pair is valid on every shard.
  std::vector<uint32_t> network_ids;

  // Workload shape: uniform OD pairs over [0, num_segments) with
  // `hot_fraction` of queries drawn from a shared `hot_set_size`-entry hot
  // set (skewed towards repeated keys, as popular OD pairs are).
  size_t num_segments = 0;  // required
  double hot_fraction = 0.8;
  size_t hot_set_size = 64;
  double base_departure_time = 10.0 * 86400.0 + 8.0 * 3600.0;
  double departure_window_seconds = 1800.0;
  int num_weather = 1;  // weather ids in [0, num_weather)

  // Traffic mix. deadline_ms rides on every request (0 = none);
  // high/low fractions pick priority 0 / 2, the rest priority 1; tenant
  // ids round-robin over [0, num_tenants).
  int32_t deadline_ms = 0;
  double high_fraction = 0.1;
  double low_fraction = 0.1;
  size_t num_tenants = 1;

  // Goodput SLO over client-observed latency of Ok responses.
  double slo_ms = 100.0;

  // After the send window closes, wait up to this long for outstanding
  // responses before counting them as lost.
  double drain_grace_seconds = 5.0;
  // Fetch the server's obs registry over the wire (stats frame) at the end.
  bool fetch_server_stats = true;
};

struct PriorityLoadStats {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

struct LoadgenReport {
  uint64_t sent = 0;
  uint64_t ok = 0;
  // Ok responses split by the estimator tag the server answered with:
  // model forward, OD-histogram oracle, or link-mean fallback.
  uint64_t model_ok = 0;
  uint64_t oracle_ok = 0;
  uint64_t linkmean_ok = 0;
  uint64_t shed = 0;              // IsShed statuses
  uint64_t deadline_expired = 0;  // kDeadlineExpired responses
  uint64_t errors = 0;            // other non-Ok statuses + send failures
  uint64_t lost = 0;              // no response within the drain grace
  double elapsed_seconds = 0.0;   // send-window wall time
  double offered_qps = 0.0;       // sent / elapsed
  double achieved_qps = 0.0;      // ok / elapsed
  double goodput_qps = 0.0;       // ok within slo_ms / elapsed
  double shed_rate = 0.0;         // shed / sent
  // Client-observed latency of Ok responses.
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  PriorityLoadStats by_priority[kNumPriorities];
  std::string server_stats_json;  // empty when not fetched
};

// Drives a live deepod_server. Throws std::invalid_argument, before
// connecting, when qps or duration_seconds is NaN, infinite or <= 0 or the
// duration is too long for the clock, and std::runtime_error when no
// connection can be established.
LoadgenReport RunLoadgen(const LoadgenOptions& options);

}  // namespace deepod::serve::net

#endif  // DEEPOD_SERVE_SERVER_LOADGEN_H_
