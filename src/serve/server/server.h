#ifndef DEEPOD_SERVE_SERVER_SERVER_H_
#define DEEPOD_SERVE_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/eta_service.h"
#include "serve/server/admission.h"
#include "serve/server/frame.h"

namespace deepod::serve {
class DriftMonitor;
class FleetRouter;
class FleetShard;
}  // namespace deepod::serve

namespace deepod::serve::net {

// Live-serving hooks, all optional and borrowed (must outlive the server):
// the sinks the ObserveTrip ingest endpoint feeds. They bind to the fleet's
// only shard, so a server over a router with more than one shard refuses
// them. A server without hooks still accepts observe frames (validated
// against the shard's network, acknowledged and dropped) so clients need
// not know the deployment shape.
struct LiveServingHooks {
  // Streamed per-segment speed observations land here. NOTE: ingest only —
  // somebody must call Publish() + EtaService::BumpEpoch() to make them
  // servable (deepod_server's publish ticker, or a test directly).
  sim::RollingSpeedField* rolling_field = nullptr;
  // Each observed trip is re-scored against the shard's current model and
  // the prediction/actual pair recorded here (the drift gauge). Also
  // folded into the stats frame / --stats-json document.
  DriftMonitor* drift = nullptr;
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  // 0 binds an ephemeral port; port() reports the bound one after Start().
  uint16_t port = 0;
  // Accepted-connection cap: beyond it new connections are closed on
  // accept (the client sees EOF) instead of spawning unbounded readers.
  size_t max_connections = 256;

  // Continuous batching: at most `executors` batches run at once (the
  // admission queue's runner slots). Each batch takes up to `max_batch`
  // admitted requests — whatever is queued right now, from any connection,
  // never waiting for a batch to fill — through its shards' EstimateBatch.
  // The connection thread that admits a request runs the batch itself
  // when a slot is free; `executors` backlog threads take the slots only
  // while work is left over. A batch runs its PredictBatch on the thread
  // that holds the slot.
  size_t max_batch = 32;
  size_t executors = 1;

  AdmissionOptions admission;

  LiveServingHooks live;
};

// One accepted TCP connection (the AdmittedRequest::conn a response goes
// back to). Writers serialise on write_mu; a write that fails or times out
// shuts it down, and later responses to it are dropped. The socket closes
// with the last reference — the reader's or a still-queued request's — so
// a peer that half-closes after pipelining still gets every answer.
struct Connection {
  explicit Connection(int socket) : fd(socket) {}
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  const int fd;
  std::mutex write_mu;
  std::atomic<bool> open{true};  // written under write_mu
};

// The network front end: a length-prefixed-TCP server around a
// FleetRouter, structured as three layers (DESIGN.md "Network serving"):
//   connections -> admission/scheduler -> batch runner.
// Connection threads read through a per-connection buffer (one recv per
// burst), decode and validate every buffered frame and offer it to the
// AdmissionQueue (never blocking on a full queue — requests are admitted
// or shed with a typed status + retry-after). The thread whose offer finds
// a runner slot free then runs one batch itself: no hand-off, no wake-up
// while the server keeps up. Executor threads are the backlog path: they
// take a slot only when a batch left work queued. Either way the batch
// re-checks deadlines at dequeue, so a request that expired while queued
// costs a response frame, not a model forward, and a batch's responses to
// one connection leave in one send.
//
// Routing: each request resolves to a shard by its wire network_id (a
// fleet of one answers every id; a manifest fleet rejects an unknown id
// with kUnknownNetwork) and is validated against that shard's network.
// Requests a shard's model cannot answer — the shard is cold, the
// admission queue sheds, or the OD pair is out-of-distribution — are
// answered inline on the connection thread from the shard's fallback tier
// (OD-histogram oracle, else link means) when its policy allows, tagged
// with the estimator that produced the ETA. One AdmissionQueue is shared
// across shards (a single scheduler, per-tenant quotas spanning the
// fleet); each batch is grouped by shard and each group goes through its
// own shard's EstimateBatch (a one-shard batch is passed through as is).
//
// Slow peers: accepted sockets carry a fixed send timeout. A client that
// stops reading its responses is disconnected once a write to it times
// out, and later responses for it are dropped (server/dropped_responses)
// instead of stalling every other client's batches behind its write_mu.
//
// Observability: a private obs::Registry under "server/" — accepted /
// admitted / completed / per-reason shed / deadline-missed (admitted, then
// expired in the queue) / expired-on-arrival / dropped-response / observe
// counters, a queue-depth gauge, a batch-fill histogram (requests per
// batch) and an arrival→response latency histogram. At quiescence a
// server without fallback answers (every fleet of one) satisfies
// admitted == completed + deadline_missed. ExportStatsJson() delegates to
// serve::ExportStatsJson over every stat source the deployment has (this
// registry, the router's "fleet/" and its shards' "serve/", the drift
// monitor's "drift/"), so the wire stats frame and `--stats-json` render
// the identical document.
//
// Shutdown() is graceful: stop accepting (connections the kernel already
// queued are still accepted), shed new offers with kShuttingDown, drain
// and answer every admitted request, wait for every runner slot to come
// back, then stop reading the connections, so each reader answers what it
// already received and closes. The destructor calls it.
class DeepOdServer {
 public:
  // The router is borrowed and must outlive the server. Throws
  // std::invalid_argument when `options.live` sets a hook and the router
  // has more than one shard.
  DeepOdServer(FleetRouter& fleet, const ServerOptions& options);
  ~DeepOdServer();

  DeepOdServer(const DeepOdServer&) = delete;
  DeepOdServer& operator=(const DeepOdServer&) = delete;

  // Binds, listens and starts the acceptor + executor threads. Throws
  // std::runtime_error when the socket cannot be bound.
  void Start();

  // The bound port (valid after Start(); resolves option port 0).
  uint16_t port() const { return port_; }

  void Shutdown();

  const obs::Registry& registry() const { return registry_; }
  std::string ExportStatsJson() const;

 private:
  // Responses bound for one connection, written with one send().
  struct Outbox {
    Connection* conn = nullptr;
    std::vector<uint8_t> bytes;
    size_t frames = 0;
    void Add(const ResponseFrame& response);
  };
  struct BatchScratch;  // per-thread batch buffers (server.cc)

  void AcceptLoop();
  // Accepts until the backlog is empty, starting a reader per connection.
  // false on an accept() error other than an empty backlog.
  bool AcceptQueued();
  void ConnectionLoop(const std::shared_ptr<Connection>& conn);
  // Decodes, validates and answers or offers one inbound frame. Immediate
  // answers go to *out; an offer that claims a runner slot sets *slot.
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   const uint8_t* payload, size_t size, Outbox* out,
                   std::optional<size_t>* slot);
  // ObserveTrip ingest: validates, feeds the live hooks, answers with the
  // prediction used for drift scoring.
  void HandleObserve(const ObserveFrame& frame, Outbox* out);
  // Backlog path: runs one batch per claimed slot until the drain ends.
  void ExecutorLoop();
  // Pops one batch (if any is queued) and answers it: the one batch
  // routine behind both the inline and the executor path.
  void RunBatch(BatchScratch* scratch);
  // Fills scratch->etas, each shard's group through its own EstimateBatch.
  void EstimateByShard(BatchScratch* scratch);
  // Answers scratch->routes[begin, end), which all resolved to `shard`.
  // Requests no tier can answer get kShardCold in their outbox and are
  // marked SIZE_MAX in scratch->live.
  void EstimateGroup(FleetShard* shard, size_t begin, size_t end,
                     BatchScratch* scratch);
  // Writes and clears *out; a failed or timed-out write shuts the
  // connection down.
  void Send(Outbox* out);
  // Counts the shed/error and queues its answer on *out.
  void RespondError(Outbox* out, uint64_t request_id, Status status,
                    uint32_t retry_after_ms);
  // Answers a request from a shard's fallback tier (kOk, estimator-tagged)
  // on the connection thread, observing latency and the completed counter.
  void RespondFallback(Outbox* out, uint64_t request_id, double eta,
                       Estimator estimator,
                       std::chrono::steady_clock::time_point arrival);

  FleetRouter& fleet_;
  ServerOptions options_;
  AdmissionQueue admission_;

  int listen_fd_ = -1;  // non-blocking; the acceptor polls it
  int wake_fds_[2] = {-1, -1};  // pipe: Shutdown() wakes the acceptor
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::vector<std::thread> executor_threads_;

  std::mutex conns_mu_;
  std::condition_variable conns_done_;
  std::map<uint64_t, std::shared_ptr<Connection>> connections_;
  uint64_t next_conn_id_ = 0;
  size_t live_connections_ = 0;  // includes readers past their map erase

  // Metrics (registry_ precedes the instrument references).
  obs::Registry registry_;
  obs::Counter& accepted_;
  obs::Counter& rejected_conns_;
  obs::Counter& requests_;
  obs::Counter& bad_frames_;
  obs::Counter& invalid_requests_;
  obs::Counter& unknown_tenants_;
  obs::Counter& unknown_networks_;  // unresolvable network_id
  obs::Counter& shard_cold_;        // cold shard, no fallback tier
  obs::Counter& shard_cold_in_batch_;  // the part of shard_cold_ admitted
  obs::Counter& admitted_;
  obs::Counter& shed_;
  obs::Counter& shed_queue_full_;
  obs::Counter& shed_quota_;
  obs::Counter& shed_deadline_;
  obs::Counter& deadline_missed_;     // admitted, expired while queued
  obs::Counter& expired_on_arrival_;  // deadline_ms < 0, never admitted
  // Ok answers: completed_ = completed_batch_ + completed_inline_. At
  // quiescence admitted_ = completed_batch_ + deadline_missed_ +
  // shard_cold_in_batch_, since only admitted requests reach a batch;
  // inline answers are fallback-tier answers that were never admitted.
  obs::Counter& completed_;
  obs::Counter& completed_batch_;
  obs::Counter& completed_inline_;
  obs::Counter& dropped_responses_;   // for a closed connection
  obs::Counter& observes_;       // observe frames accepted
  obs::Counter& observations_;   // per-segment observations ingested
  obs::Gauge& connections_gauge_;
  obs::Gauge& queue_depth_;
  obs::Histogram& batch_fill_;  // requests per batch
  obs::Histogram& latency_;     // arrival -> response (seconds), Ok only
};

}  // namespace deepod::serve::net

#endif  // DEEPOD_SERVE_SERVER_SERVER_H_
