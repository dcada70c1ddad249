#include "serve/server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <fcntl.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <stdexcept>

#include "core/encoders.h"
#include "serve/drift_monitor.h"
#include "serve/fleet_router.h"
#include "serve/serving_state.h"
#include "serve/stats.h"
#include "sim/rolling_speed_field.h"

namespace deepod::serve::net {
namespace {

// How long one send() may wait for a peer to drain its receive window.
// A client that reads nothing for this long is disconnected, so it can
// hold a batch runner (and other clients' answers) for at most this long.
constexpr int kSendTimeoutSeconds = 1;

// listen() backlog: connections the kernel queues before the acceptor
// takes them.
constexpr int kAcceptBacklog = 64;

double SecondsSince(std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// Whether `od` can be served: segments within `num_segments`, finite
// position ratios, a departure the serving clock can slot and a known
// weather type. Request and observe frames share it.
bool ServableOd(const traj::OdInput& od, size_t num_segments) {
  return od.origin_segment < num_segments && od.dest_segment < num_segments &&
         std::isfinite(od.origin_ratio) &&
         std::isfinite(od.dest_ratio) &&
         serve::ServableDeparture(od.departure_time) && od.weather_type >= 0 &&
         od.weather_type <
             static_cast<int>(core::ExternalFeaturesEncoder::kNumWeatherTypes);
}

}  // namespace

// Per-thread buffers for RunBatch, reused across batches, so a batch
// allocates nothing of its own once they have grown.
struct DeepOdServer::BatchScratch {
  std::vector<AdmittedRequest> batch;
  std::vector<traj::OdInput> ods;
  std::vector<size_t> live;  // batch index per od; SIZE_MAX once answered
  std::vector<Estimator> estimators;
  std::vector<double> etas;  // per od
  // Each od's shard, sorted by shard when the batch spans several.
  struct Route {
    FleetShard* shard;
    size_t od;  // index into ods
  };
  std::vector<Route> routes;
  std::vector<traj::OdInput> group_ods;  // one shard's ods, when split
  std::vector<Outbox> outboxes;  // [0, used): one per connection in batch
  size_t used = 0;

  Outbox& For(Connection* conn) {
    for (size_t i = 0; i < used; ++i) {
      if (outboxes[i].conn == conn) return outboxes[i];
    }
    if (used == outboxes.size()) outboxes.emplace_back();
    Outbox& out = outboxes[used++];
    out.conn = conn;
    return out;
  }
};

void DeepOdServer::Outbox::Add(const ResponseFrame& response) {
  AppendResponseFrame(response, &bytes);
  ++frames;
}

Connection::~Connection() { ::close(fd); }

DeepOdServer::DeepOdServer(FleetRouter& fleet, const ServerOptions& options)
    : fleet_(fleet),
      options_(options),
      admission_(options.admission, std::max<size_t>(1, options.executors)),
      accepted_(registry_.counter("server/accepted_connections")),
      rejected_conns_(registry_.counter("server/rejected_connections")),
      requests_(registry_.counter("server/requests")),
      bad_frames_(registry_.counter("server/bad_frames")),
      invalid_requests_(registry_.counter("server/invalid_requests")),
      unknown_tenants_(registry_.counter("server/unknown_tenant")),
      unknown_networks_(registry_.counter("server/unknown_network")),
      shard_cold_(registry_.counter("server/shard_cold")),
      shard_cold_in_batch_(registry_.counter("server/shard_cold_in_batch")),
      admitted_(registry_.counter("server/admitted")),
      shed_(registry_.counter("server/shed")),
      shed_queue_full_(registry_.counter("server/shed/queue_full")),
      shed_quota_(registry_.counter("server/shed/quota")),
      shed_deadline_(registry_.counter("server/shed/deadline")),
      deadline_missed_(registry_.counter("server/deadline_missed")),
      expired_on_arrival_(registry_.counter("server/expired_on_arrival")),
      completed_(registry_.counter("server/completed")),
      completed_batch_(registry_.counter("server/completed_batch")),
      completed_inline_(registry_.counter("server/completed_inline")),
      dropped_responses_(registry_.counter("server/dropped_responses")),
      observes_(registry_.counter("server/observes")),
      observations_(registry_.counter("server/observations")),
      connections_gauge_(registry_.gauge("server/connections")),
      queue_depth_(registry_.gauge("server/queue_depth")),
      batch_fill_(registry_.histogram("server/batch_fill")),
      latency_(registry_.histogram("server/latency")) {
  const bool hooked = options_.live.rolling_field != nullptr ||
                      options_.live.drift != nullptr;
  if (hooked && fleet_.shards().size() != 1) {
    throw std::invalid_argument(
        "DeepOdServer: live-serving hooks bind to a fleet's only shard; this "
        "router has " + std::to_string(fleet_.shards().size()));
  }
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.executors == 0) options_.executors = 1;
}

DeepOdServer::~DeepOdServer() { Shutdown(); }

void DeepOdServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("unparseable host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("bind() failed: ") +
                             std::strerror(err));
  }
  if (::listen(listen_fd_, kAcceptBacklog) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  ::fcntl(listen_fd_, F_SETFL, ::fcntl(listen_fd_, F_GETFL) | O_NONBLOCK);
  if (::pipe(wake_fds_) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("pipe() failed");
  }

  for (size_t i = 0; i < options_.executors; ++i) {
    executor_threads_.emplace_back([this] { ExecutorLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  started_.store(true);
}

void DeepOdServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (!started_.load() || stopping_.load()) return;
    stopping_.store(true);
  }
  // 1. Stop accepting: the woken acceptor takes the connections already
  //    queued and exits.
  const char stop = 1;
  [[maybe_unused]] const ssize_t woke = ::write(wake_fds_[1], &stop, 1);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
  // 2. Shed new offers; connection readers keep answering kShuttingDown.
  admission_.SetDraining();
  // 3. Drain: executors exit once the queue is empty, and connection
  //    threads still running a batch hand their slots back.
  for (auto& t : executor_threads_) {
    if (t.joinable()) t.join();
  }
  admission_.AwaitDrained();
  // 4. Stop reading the connections: each reader answers what it already
  //    received (kShuttingDown), sees EOF and closes its socket.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [id, conn] : connections_) {
      std::lock_guard<std::mutex> write_lock(conn->write_mu);
      if (conn->open.load()) ::shutdown(conn->fd, SHUT_RD);
    }
  }
  std::unique_lock<std::mutex> lock(conns_mu_);
  conns_done_.wait(lock, [this] { return live_connections_ == 0; });
}

void DeepOdServer::AcceptLoop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0 && errno != EINTR) return;
    // Take every queued connection, also when stopping: a client the
    // kernel already connected gets answers (kShuttingDown at worst)
    // instead of a reset when the listening socket closes.
    if (!AcceptQueued()) return;
    if (fds[1].revents != 0) return;  // Shutdown()
  }
}

bool DeepOdServer::AcceptQueued() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const timeval send_timeout{kSendTimeoutSeconds, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof(send_timeout));
    std::shared_ptr<Connection> conn;
    uint64_t id;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (live_connections_ >= options_.max_connections) {
        rejected_conns_.Add();
        ::close(fd);
        continue;
      }
      conn = std::make_shared<Connection>(fd);
      id = next_conn_id_++;
      connections_[id] = conn;
      ++live_connections_;
      connections_gauge_.Set(static_cast<double>(live_connections_));
    }
    accepted_.Add();
    std::thread([this, conn, id] {
      // At EOF the socket stays open: requests this peer already had
      // admitted still answer on it, and the last of them closes it.
      ConnectionLoop(conn);
      // Notify under the lock: once it is released Shutdown may see zero
      // live connections and destroy the server, condition variable
      // included, so this thread must not touch `this` afterwards.
      std::lock_guard<std::mutex> lock(conns_mu_);
      connections_.erase(id);
      --live_connections_;
      connections_gauge_.Set(static_cast<double>(live_connections_));
      conns_done_.notify_all();
    }).detach();
  }
}

void DeepOdServer::Send(Outbox* out) {
  if (out->frames == 0) return;
  Connection& conn = *out->conn;
  {
    std::lock_guard<std::mutex> lock(conn.write_mu);
    if (conn.open.load() &&
        !WriteAll(conn.fd, out->bytes.data(), out->bytes.size())) {
      // The peer stopped reading (send timed out) or went away: shut it
      // down so no later writer waits on it. Its reader sees EOF and exits.
      conn.open.store(false);
      ::shutdown(conn.fd, SHUT_RDWR);
    }
    if (!conn.open.load()) dropped_responses_.Add(out->frames);
  }
  out->bytes.clear();
  out->frames = 0;
}

void DeepOdServer::RespondError(Outbox* out, uint64_t request_id,
                                Status status, uint32_t retry_after_ms) {
  switch (status) {
    case Status::kBadFrame:
    case Status::kBadMagic:
    case Status::kFrameTooLarge:
      bad_frames_.Add();
      break;
    case Status::kInvalidRequest:
      invalid_requests_.Add();
      break;
    case Status::kUnknownTenant:
      unknown_tenants_.Add();
      break;
    case Status::kUnknownNetwork:
      unknown_networks_.Add();
      break;
    case Status::kShardCold:
      shard_cold_.Add();
      break;
    case Status::kDeadlineExpired:
      // Only arrivals are answered here; queued expiry is counted by the
      // batch as deadline_missed.
      expired_on_arrival_.Add();
      break;
    case Status::kShedQueueFull:
      shed_.Add();
      shed_queue_full_.Add();
      break;
    case Status::kShedQuota:
      shed_.Add();
      shed_quota_.Add();
      break;
    case Status::kShedDeadline:
      shed_.Add();
      shed_deadline_.Add();
      break;
    case Status::kShuttingDown:
    case Status::kOk:
      break;
  }
  ResponseFrame response;
  response.request_id = request_id;
  response.status = status;
  response.retry_after_ms = retry_after_ms;
  out->Add(response);
}

void DeepOdServer::RespondFallback(
    Outbox* out, uint64_t request_id, double eta, Estimator estimator,
    std::chrono::steady_clock::time_point arrival) {
  ResponseFrame response;
  response.request_id = request_id;
  response.status = Status::kOk;
  response.estimator = estimator;
  response.eta_seconds = eta;
  latency_.Observe(SecondsSince(arrival, std::chrono::steady_clock::now()));
  completed_.Add();
  completed_inline_.Add();
  out->Add(response);
}

void DeepOdServer::ConnectionLoop(const std::shared_ptr<Connection>& conn) {
  FrameReader reader;
  Outbox out;
  out.conn = conn.get();
  BatchScratch scratch;
  std::optional<size_t> slot;
  while (reader.Fill(conn->fd)) {
    // Admit the whole burst first, so a pipelined burst is one batch.
    const uint8_t* payload = nullptr;
    size_t size = 0;
    for (;;) {
      const FrameReader::Item item = reader.Next(&payload, &size);
      if (item == FrameReader::Item::kNone) break;
      if (item == FrameReader::Item::kOversize) {
        RespondError(&out, 0, Status::kFrameTooLarge, 0);
      } else {
        HandleFrame(conn, payload, size, &out, &slot);
      }
    }
    Send(&out);
    if (slot) {
      // One batch per claim: under saturation this socket goes unread for
      // at most one batch; leftover work wakes an executor.
      RunBatch(&scratch);
      admission_.ReleaseSlot(*slot);
      slot.reset();
    }
    // A write to this peer failed or timed out: stop reading it, so the
    // close (once its queued requests are answered) resets the peer
    // instead of draining whatever it still sends.
    if (!conn->open.load()) return;
  }
}

void DeepOdServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                               const uint8_t* payload, size_t size,
                               Outbox* out, std::optional<size_t>* slot) {
  const uint32_t magic = PeekMagic(payload, size);
  if (magic == kStatsRequestMagic && size == 4) {
    const std::vector<uint8_t> wire =
        EncodeStatsResponseFrame(ExportStatsJson());
    out->bytes.insert(out->bytes.end(), wire.begin(), wire.end());
    ++out->frames;
    return;
  }
  if (magic == kObserveMagic) {
    ObserveFrame observe;
    const Status observe_status = DecodeObservePayload(payload, size, &observe);
    if (observe_status != Status::kOk) {
      RespondError(out, observe.request_id, observe_status, 0);
      return;
    }
    HandleObserve(observe, out);
    return;
  }
  RequestFrame request;
  const Status decode_status = DecodeRequestPayload(payload, size, &request);
  if (decode_status != Status::kOk) {
    RespondError(out, request.request_id, decode_status, 0);
    return;
  }
  requests_.Add();
  FleetShard* shard = fleet_.Resolve(request.network_id);
  if (shard == nullptr) {
    RespondError(out, request.request_id, Status::kUnknownNetwork, 0);
    return;
  }
  const traj::OdInput& od = request.od;
  if (!ServableOd(od, shard->num_segments())) {
    RespondError(out, request.request_id, Status::kInvalidRequest, 0);
    return;
  }
  const auto arrival = std::chrono::steady_clock::now();
  if (request.deadline_ms < 0) {
    // Expired before it even reached the scheduler.
    RespondError(out, request.request_id, Status::kDeadlineExpired, 0);
    return;
  }
  const FallbackPolicy policy = shard->policy();
  // The policy first: kModel extrapolates out-of-distribution ODs anyway,
  // so it never pays for the oracle lookup.
  if (policy != FallbackPolicy::kModel && !shard->InDistribution(od)) {
    // The city's oracle has never seen this OD cell pair.
    if (policy == FallbackPolicy::kReject) {
      shard->CountRejected();
      RespondError(out, request.request_id, Status::kInvalidRequest, 0);
      return;
    }
    if (const auto fallback = shard->FallbackEstimate(od)) {
      shard->CountOodToOracle();
      shard->CountFallbackAnswer();
      RespondFallback(out, request.request_id, fallback->eta,
                      fallback->estimator, arrival);
      return;
    }
    // No fallback tier loaded: let the model extrapolate.
  }
  if (!shard->warm()) {
    if (policy == FallbackPolicy::kOracle) {
      if (const auto fallback = shard->FallbackEstimate(od)) {
        shard->CountFallbackAnswer();
        RespondFallback(out, request.request_id, fallback->eta,
                        fallback->estimator, arrival);
        return;
      }
    }
    shard->CountRejected();
    RespondError(out, request.request_id, Status::kShardCold,
                 /*retry_after_ms=*/1000);
    return;
  }
  AdmittedRequest admitted;
  admitted.frame = request;
  admitted.arrival = arrival;
  admitted.deadline =
      request.deadline_ms > 0
          ? arrival + std::chrono::milliseconds(request.deadline_ms)
          : std::chrono::steady_clock::time_point::max();
  admitted.conn = conn;
  // A thread already holding a slot does not claim a second one: it runs
  // this request in the batch it is about to pop.
  const AdmitDecision decision =
      admission_.Offer(std::move(admitted), /*claim_slot=*/!slot->has_value());
  if (decision.status == Status::kOk) {
    admitted_.Add();
    queue_depth_.Set(static_cast<double>(admission_.Depth()));
    if (decision.runner_slot) *slot = decision.runner_slot;
  } else if (policy == FallbackPolicy::kOracle && IsShed(decision.status)) {
    // Admission shed, but this city keeps a fallback tier: degrade to the
    // oracle instead of bouncing the request back to the client.
    if (const auto fallback = shard->FallbackEstimate(od)) {
      shard->CountShedToOracle();
      shard->CountFallbackAnswer();
      RespondFallback(out, request.request_id, fallback->eta,
                      fallback->estimator, arrival);
    } else {
      RespondError(out, request.request_id, decision.status,
                   decision.retry_after_ms);
    }
  } else {
    RespondError(out, request.request_id, decision.status,
                 decision.retry_after_ms);
  }
}

void DeepOdServer::HandleObserve(const ObserveFrame& frame, Outbox* out) {
  const FleetShard* shard = fleet_.Resolve(frame.network_id);
  if (shard == nullptr) {
    RespondError(out, frame.request_id, Status::kUnknownNetwork, 0);
    return;
  }
  const traj::OdInput& od = frame.od;
  if (!ServableOd(od, shard->num_segments()) ||
      !std::isfinite(frame.actual_seconds) || frame.actual_seconds < 0.0) {
    RespondError(out, frame.request_id, Status::kInvalidRequest, 0);
    return;
  }
  observes_.Add();
  ResponseFrame response;
  response.request_id = frame.request_id;
  response.status = Status::kOk;
  // The hooks bind to the fleet's only shard (checked at construction).
  if (options_.live.rolling_field != nullptr && !frame.observations.empty()) {
    observations_.Add(options_.live.rolling_field->Ingest(frame.observations));
  }
  const std::shared_ptr<EtaService> service =
      options_.live.drift != nullptr ? shard->service() : nullptr;
  if (service != nullptr) {
    // Re-score the finished trip against the model serving RIGHT NOW (one
    // synchronous forward on the connection thread — ingest traffic is
    // orders of magnitude rarer than queries) and feed the drift gauge.
    const double predicted = service->Estimate(od);
    options_.live.drift->Observe(predicted, frame.actual_seconds);
    response.eta_seconds = predicted;
  }
  out->Add(response);
}

void DeepOdServer::ExecutorLoop() {
  BatchScratch scratch;
  while (const std::optional<size_t> slot = admission_.AwaitSlot()) {
    RunBatch(&scratch);
    admission_.ReleaseSlot(*slot);
  }
}

void DeepOdServer::RunBatch(BatchScratch* s) {
  s->batch.clear();
  if (!admission_.PopBatch(options_.max_batch, &s->batch)) return;
  queue_depth_.Set(static_cast<double>(admission_.Depth()));
  const auto start = std::chrono::steady_clock::now();
  s->ods.clear();
  s->live.clear();
  for (size_t i = 0; i < s->batch.size(); ++i) {
    const AdmittedRequest& request = s->batch[i];
    if (request.deadline < start) {
      // Expired while queued: a deadline miss, answered without spending
      // a model forward on it.
      deadline_missed_.Add();
      ResponseFrame response;
      response.request_id = request.frame.request_id;
      response.status = Status::kDeadlineExpired;
      s->For(request.conn.get()).Add(response);
    } else {
      s->live.push_back(i);
      s->ods.push_back(request.frame.od);
    }
  }
  if (!s->ods.empty()) {
    batch_fill_.Observe(static_cast<double>(s->ods.size()));
    s->estimators.assign(s->ods.size(), Estimator::kModel);
    EstimateByShard(s);
    const auto end = std::chrono::steady_clock::now();
    admission_.RecordServiceTime(SecondsSince(start, end) /
                                 static_cast<double>(s->ods.size()));
    for (size_t m = 0; m < s->live.size(); ++m) {
      if (s->live[m] == SIZE_MAX) continue;
      const AdmittedRequest& request = s->batch[s->live[m]];
      ResponseFrame response;
      response.request_id = request.frame.request_id;
      response.status = Status::kOk;
      response.estimator = s->estimators[m];
      response.eta_seconds = s->etas[m];
      latency_.Observe(SecondsSince(request.arrival, end));
      completed_.Add();
      completed_batch_.Add();
      s->For(request.conn.get()).Add(response);
    }
  }
  for (size_t i = 0; i < s->used; ++i) Send(&s->outboxes[i]);
  s->used = 0;
  s->batch.clear();  // drops the batch's connection references
}

void DeepOdServer::EstimateByShard(BatchScratch* s) {
  // Each shard's group goes through its own EstimateBatch (one state
  // snapshot per shard per batch). A batch for one shard — every batch of
  // a fleet of one — stays in arrival order and is passed through whole.
  const size_t n = s->ods.size();
  s->etas.resize(n);
  s->routes.clear();
  for (size_t m = 0; m < n; ++m) {
    s->routes.push_back(
        {fleet_.Resolve(s->batch[s->live[m]].frame.network_id), m});
  }
  const auto by_shard = [](const BatchScratch::Route& a,
                           const BatchScratch::Route& b) {
    if (a.shard != b.shard) {
      return std::less<const FleetShard*>()(a.shard, b.shard);
    }
    return a.od < b.od;
  };
  if (!std::is_sorted(s->routes.begin(), s->routes.end(), by_shard)) {
    std::sort(s->routes.begin(), s->routes.end(), by_shard);
  }
  for (size_t begin = 0; begin < n;) {
    size_t end = begin + 1;
    while (end < n && s->routes[end].shard == s->routes[begin].shard) ++end;
    EstimateGroup(s->routes[begin].shard, begin, end, s);
    begin = end;
  }
}

void DeepOdServer::EstimateGroup(FleetShard* shard, size_t begin, size_t end,
                                 BatchScratch* s) {
  // Only warm-shard requests are admitted and activation is one-way, so
  // the service is expected live; a defensive fallback answer covers the
  // unexpected.
  const std::shared_ptr<EtaService> service =
      shard != nullptr ? shard->service() : nullptr;
  if (service != nullptr) {
    std::span<const traj::OdInput> ods = s->ods;
    if (end - begin < s->ods.size()) {
      s->group_ods.clear();
      for (size_t r = begin; r < end; ++r) {
        s->group_ods.push_back(s->ods[s->routes[r].od]);
      }
      ods = s->group_ods;
    }
    const std::vector<double> etas = service->EstimateBatch(ods);
    for (size_t r = begin; r < end; ++r) {
      s->etas[s->routes[r].od] = etas[r - begin];
    }
    shard->CountModelAnswers(end - begin);
    return;
  }
  for (size_t r = begin; r < end; ++r) {
    const size_t m = s->routes[r].od;
    const std::optional<FleetShard::Fallback> fallback =
        shard != nullptr ? shard->FallbackEstimate(s->ods[m]) : std::nullopt;
    if (fallback) {
      s->etas[m] = fallback->eta;
      s->estimators[m] = fallback->estimator;
      shard->CountFallbackAnswer();
      continue;
    }
    const AdmittedRequest& request = s->batch[s->live[m]];
    ResponseFrame response;
    response.request_id = request.frame.request_id;
    response.status = Status::kShardCold;
    response.retry_after_ms = 1000;
    shard_cold_.Add();
    shard_cold_in_batch_.Add();
    s->For(request.conn.get()).Add(response);
    s->live[m] = SIZE_MAX;  // answered; skipped in the Ok loop
  }
}

std::string DeepOdServer::ExportStatsJson() const {
  StatsSources sources;
  sources.server = &registry_;
  sources.drift = options_.live.drift;
  fleet_.AppendStatsSources(&sources);
  return serve::ExportStatsJson(sources);
}

}  // namespace deepod::serve::net
