#include "serve/server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>

#include <map>

#include "core/encoders.h"
#include "serve/drift_monitor.h"
#include "serve/fleet_router.h"
#include "serve/model_reloader.h"
#include "serve/serving_state.h"
#include "serve/stats.h"
#include "sim/rolling_speed_field.h"

namespace deepod::serve::net {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

DeepOdServer::DeepOdServer(EtaService& service, const ServerOptions& options)
    : DeepOdServer(&service, nullptr, options) {}

DeepOdServer::DeepOdServer(FleetRouter& fleet, const ServerOptions& options)
    : DeepOdServer(nullptr, &fleet, options) {}

DeepOdServer::DeepOdServer(EtaService* service, FleetRouter* fleet,
                           const ServerOptions& options)
    : service_(service),
      fleet_(fleet),
      options_(options),
      admission_(options.admission),
      accepted_(registry_.counter("server/accepted_connections")),
      rejected_conns_(registry_.counter("server/rejected_connections")),
      requests_(registry_.counter("server/requests")),
      bad_frames_(registry_.counter("server/bad_frames")),
      invalid_requests_(registry_.counter("server/invalid_requests")),
      unknown_tenants_(registry_.counter("server/unknown_tenant")),
      unknown_networks_(registry_.counter("server/unknown_network")),
      shard_cold_(registry_.counter("server/shard_cold")),
      admitted_(registry_.counter("server/admitted")),
      shed_(registry_.counter("server/shed")),
      shed_queue_full_(registry_.counter("server/shed/queue_full")),
      shed_quota_(registry_.counter("server/shed/quota")),
      shed_deadline_(registry_.counter("server/shed/deadline")),
      deadline_missed_(registry_.counter("server/deadline_missed")),
      completed_(registry_.counter("server/completed")),
      observes_(registry_.counter("server/observes")),
      observations_(registry_.counter("server/observations")),
      connections_gauge_(registry_.gauge("server/connections")),
      queue_depth_(registry_.gauge("server/queue_depth")),
      batch_fill_(registry_.histogram("server/batch_fill")),
      latency_(registry_.histogram("server/latency")) {
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
  if (::listen(listen_fd_, options_.accept_backlog) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  if (options_.batch_threads > 1) {
    for (size_t i = 0; i < options_.executors; ++i) {
      executor_pools_.push_back(
          std::make_unique<util::ThreadPool>(options_.batch_threads));
    }
  }
  for (size_t i = 0; i < options_.executors; ++i) {
    executor_threads_.emplace_back([this, i] { ExecutorLoop(i); });
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
  // 1. Stop accepting. shutdown() unblocks the acceptor's accept().
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // 2. Shed new offers; connection readers keep answering kShuttingDown.
  admission_.SetDraining();
  // 3. Drain: executors exit once every admitted request is answered.
  for (auto& t : executor_threads_) {
    if (t.joinable()) t.join();
  }
  // 4. Unblock and reap the connection readers.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [id, conn] : connections_) ::shutdown(conn->fd, SHUT_RDWR);
  }
  std::unique_lock<std::mutex> lock(conns_mu_);
  conns_done_.wait(lock, [this] { return live_connections_ == 0; });
}

void DeepOdServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    uint64_t id;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (live_connections_ >= options_.max_connections) {
        rejected_conns_.Add();
        ::close(fd);
        continue;
      }
      id = next_conn_id_++;
      connections_[id] = conn;
      ++live_connections_;
      connections_gauge_.Set(static_cast<double>(live_connections_));
    }
    accepted_.Add();
    std::thread([this, conn, id] {
      ConnectionLoop(conn);
      {
        std::lock_guard<std::mutex> write_lock(conn->write_mu);
        conn->open.store(false);
        ::close(conn->fd);
      }
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

void DeepOdServer::WriteResponse(const std::shared_ptr<Connection>& conn,
                                 const ResponseFrame& response) {
  const std::vector<uint8_t> wire = EncodeResponseFrame(response);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (!conn->open.load()) return;
  WriteAll(conn->fd, wire.data(), wire.size());
}

void DeepOdServer::RespondError(const std::shared_ptr<Connection>& conn,
                                uint64_t request_id, Status status,
                                uint32_t retry_after_ms) {
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
      deadline_missed_.Add();
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
  WriteResponse(conn, response);
}

void DeepOdServer::RespondFallback(
    const std::shared_ptr<Connection>& conn, uint64_t request_id, double eta,
    Estimator estimator, std::chrono::steady_clock::time_point arrival) {
  ResponseFrame response;
  response.request_id = request_id;
  response.status = Status::kOk;
  response.estimator = estimator;
  response.eta_seconds = eta;
  latency_.Observe(SecondsSince(arrival, std::chrono::steady_clock::now()));
  completed_.Add();
  WriteResponse(conn, response);
}

void DeepOdServer::ConnectionLoop(std::shared_ptr<Connection> conn) {
  std::vector<uint8_t> payload;
  for (;;) {
    switch (ReadFrame(conn->fd, &payload, kMaxInboundFrameBytes)) {
      case ReadFrameResult::kEof:
      case ReadFrameResult::kError:
        return;
      case ReadFrameResult::kOversize:
        RespondError(conn, 0, Status::kFrameTooLarge, 0);
        continue;
      case ReadFrameResult::kOk:
        break;
    }
    const uint32_t magic = PeekMagic(payload.data(), payload.size());
    if (magic == kStatsRequestMagic && payload.size() == 4) {
      const std::vector<uint8_t> wire =
          EncodeStatsResponseFrame(ExportStatsJson());
      std::lock_guard<std::mutex> lock(conn->write_mu);
      if (conn->open.load()) WriteAll(conn->fd, wire.data(), wire.size());
      continue;
    }
    if (magic == kObserveMagic) {
      ObserveFrame observe;
      const Status observe_status =
          DecodeObservePayload(payload.data(), payload.size(), &observe);
      if (observe_status != Status::kOk) {
        RespondError(conn, observe.request_id, observe_status, 0);
        continue;
      }
      HandleObserve(conn, observe);
      continue;
    }
    RequestFrame request;
    const Status decode_status =
        DecodeRequestPayload(payload.data(), payload.size(), &request);
    if (decode_status != Status::kOk) {
      RespondError(conn, request.request_id, decode_status, 0);
      continue;
    }
    requests_.Add();
    FleetShard* shard = nullptr;
    size_t num_segments = options_.num_segments;
    if (fleet_ != nullptr) {
      shard = fleet_->Resolve(request.network_id);
      if (shard == nullptr) {
        RespondError(conn, request.request_id, Status::kUnknownNetwork, 0);
        continue;
      }
      num_segments = shard->num_segments();
    }
    const traj::OdInput& od = request.od;
    const bool segments_ok =
        num_segments == 0 ||
        (od.origin_segment < num_segments && od.dest_segment < num_segments);
    const bool fields_ok =
        std::isfinite(od.origin_ratio) && std::isfinite(od.dest_ratio) &&
        serve::ServableDeparture(od.departure_time) && od.weather_type >= 0 &&
        od.weather_type <
            static_cast<int>(core::ExternalFeaturesEncoder::kNumWeatherTypes);
    if (!segments_ok || !fields_ok) {
      RespondError(conn, request.request_id, Status::kInvalidRequest, 0);
      continue;
    }
    const auto arrival = std::chrono::steady_clock::now();
    if (request.deadline_ms < 0) {
      // Expired before it even reached the scheduler.
      RespondError(conn, request.request_id, Status::kDeadlineExpired, 0);
      continue;
    }
    if (shard != nullptr) {
      const FallbackPolicy policy = shard->policy();
      if (!shard->InDistribution(od)) {
        // The city's oracle has never seen this OD cell pair.
        if (policy == FallbackPolicy::kReject) {
          shard->CountRejected();
          RespondError(conn, request.request_id, Status::kInvalidRequest, 0);
          continue;
        }
        if (policy == FallbackPolicy::kOracle) {
          if (const auto fallback = shard->FallbackEstimate(od)) {
            shard->CountOodToOracle();
            shard->CountFallbackAnswer();
            RespondFallback(conn, request.request_id, fallback->eta,
                            fallback->estimator, arrival);
            continue;
          }
        }
        // kModel (or no fallback tier loaded): let the model extrapolate.
      }
      if (!shard->warm()) {
        if (policy == FallbackPolicy::kOracle) {
          if (const auto fallback = shard->FallbackEstimate(od)) {
            shard->CountFallbackAnswer();
            RespondFallback(conn, request.request_id, fallback->eta,
                            fallback->estimator, arrival);
            continue;
          }
        }
        shard->CountRejected();
        RespondError(conn, request.request_id, Status::kShardCold,
                     /*retry_after_ms=*/1000);
        continue;
      }
    }
    AdmittedRequest admitted;
    admitted.frame = request;
    admitted.arrival = arrival;
    admitted.deadline =
        request.deadline_ms > 0
            ? arrival + std::chrono::milliseconds(request.deadline_ms)
            : std::chrono::steady_clock::time_point::max();
    admitted.respond = [this, conn](const ResponseFrame& response) {
      WriteResponse(conn, response);
    };
    const AdmitDecision decision = admission_.Offer(std::move(admitted));
    if (decision.status == Status::kOk) {
      admitted_.Add();
      queue_depth_.Set(static_cast<double>(admission_.Depth()));
    } else if (shard != nullptr &&
               shard->policy() == FallbackPolicy::kOracle &&
               IsShed(decision.status)) {
      // Admission shed, but this city keeps a fallback tier: degrade to the
      // oracle instead of bouncing the request back to the client.
      if (const auto fallback = shard->FallbackEstimate(od)) {
        shard->CountShedToOracle();
        shard->CountFallbackAnswer();
        RespondFallback(conn, request.request_id, fallback->eta,
                        fallback->estimator, arrival);
      } else {
        RespondError(conn, request.request_id, decision.status,
                     decision.retry_after_ms);
      }
    } else {
      RespondError(conn, request.request_id, decision.status,
                   decision.retry_after_ms);
    }
  }
}

void DeepOdServer::HandleObserve(const std::shared_ptr<Connection>& conn,
                                 const ObserveFrame& frame) {
  size_t num_segments = options_.num_segments;
  if (fleet_ != nullptr) {
    const FleetShard* shard = fleet_->Resolve(frame.network_id);
    if (shard == nullptr) {
      RespondError(conn, frame.request_id, Status::kUnknownNetwork, 0);
      return;
    }
    num_segments = shard->num_segments();
  }
  const traj::OdInput& od = frame.od;
  const bool segments_ok =
      num_segments == 0 ||
      (od.origin_segment < num_segments && od.dest_segment < num_segments);
  const bool fields_ok =
      std::isfinite(od.origin_ratio) && std::isfinite(od.dest_ratio) &&
      serve::ServableDeparture(od.departure_time) &&
      std::isfinite(frame.actual_seconds) && frame.actual_seconds >= 0.0 &&
      od.weather_type >= 0 &&
      od.weather_type <
          static_cast<int>(core::ExternalFeaturesEncoder::kNumWeatherTypes);
  if (!segments_ok || !fields_ok) {
    RespondError(conn, frame.request_id, Status::kInvalidRequest, 0);
    return;
  }
  observes_.Add();
  ResponseFrame response;
  response.request_id = frame.request_id;
  response.status = Status::kOk;
  // Live hooks are single-city plumbing (one speed field, one drift gauge
  // against one model); fleet mode validates and acknowledges only.
  if (fleet_ == nullptr) {
    if (options_.live.rolling_field != nullptr &&
        !frame.observations.empty()) {
      observations_.Add(
          options_.live.rolling_field->Ingest(frame.observations));
    }
    if (options_.live.drift != nullptr) {
      // Re-score the finished trip against the model serving RIGHT NOW (one
      // synchronous forward on the connection thread — ingest traffic is
      // orders of magnitude rarer than queries) and feed the drift gauge.
      const double predicted = service_->Estimate(od);
      options_.live.drift->Observe(predicted, frame.actual_seconds);
      response.eta_seconds = predicted;
    }
  }
  WriteResponse(conn, response);
}

void DeepOdServer::ExecutorLoop(size_t slot) {
  util::ThreadPool* pool =
      executor_pools_.empty() ? nullptr : executor_pools_[slot].get();
  std::vector<AdmittedRequest> batch;
  std::vector<traj::OdInput> ods;
  std::vector<size_t> live;
  for (;;) {
    batch.clear();
    if (!admission_.PopBatch(options_.max_batch, &batch)) return;
    queue_depth_.Set(static_cast<double>(admission_.Depth()));
    const auto start = std::chrono::steady_clock::now();
    ods.clear();
    live.clear();
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].deadline < start) {
        // Expired while queued: a deadline miss, answered without spending
        // a model forward on it.
        deadline_missed_.Add();
        ResponseFrame response;
        response.request_id = batch[i].frame.request_id;
        response.status = Status::kDeadlineExpired;
        batch[i].respond(response);
      } else {
        live.push_back(i);
        ods.push_back(batch[i].frame.od);
      }
    }
    if (ods.empty()) continue;
    batch_fill_.Observe(static_cast<double>(ods.size()));
    std::vector<double> etas;
    std::vector<Estimator> estimators(ods.size(), Estimator::kModel);
    if (fleet_ == nullptr) {
      etas = service_->EstimateBatch(ods, pool);
    } else {
      // Split the drained batch by city: each group goes through its own
      // shard's EstimateBatch (one state snapshot per shard per dispatch).
      // Only warm-shard requests are admitted and activation is one-way,
      // so the service is expected live; a defensive oracle answer covers
      // the unexpected.
      etas.assign(ods.size(), 0.0);
      std::map<uint32_t, std::vector<size_t>> groups;
      for (size_t m = 0; m < live.size(); ++m) {
        groups[batch[live[m]].frame.network_id].push_back(m);
      }
      std::vector<traj::OdInput> group_ods;
      for (const auto& [network_id, members] : groups) {
        FleetShard* shard = fleet_->Resolve(network_id);
        std::shared_ptr<EtaService> shard_service =
            shard != nullptr ? shard->service() : nullptr;
        if (shard_service != nullptr) {
          group_ods.clear();
          for (const size_t m : members) group_ods.push_back(ods[m]);
          const std::vector<double> group_etas =
              shard_service->EstimateBatch(group_ods, pool);
          for (size_t j = 0; j < members.size(); ++j) {
            etas[members[j]] = group_etas[j];
            shard->CountModelAnswer();
          }
        } else {
          for (const size_t m : members) {
            const std::optional<FleetShard::Fallback> fallback =
                shard != nullptr ? shard->FallbackEstimate(ods[m])
                                 : std::nullopt;
            if (fallback) {
              etas[m] = fallback->eta;
              estimators[m] = fallback->estimator;
              shard->CountFallbackAnswer();
            } else {
              etas[m] = 0.0;
              estimators[m] = Estimator::kModel;
              ResponseFrame response;
              response.request_id = batch[live[m]].frame.request_id;
              response.status = Status::kShardCold;
              response.retry_after_ms = 1000;
              shard_cold_.Add();
              batch[live[m]].respond(response);
              live[m] = SIZE_MAX;  // answered; skip in the Ok loop below
            }
          }
        }
      }
    }
    const auto end = std::chrono::steady_clock::now();
    admission_.RecordServiceTime(SecondsSince(start, end) /
                                 static_cast<double>(ods.size()));
    for (size_t m = 0; m < live.size(); ++m) {
      if (live[m] == SIZE_MAX) continue;
      AdmittedRequest& request = batch[live[m]];
      ResponseFrame response;
      response.request_id = request.frame.request_id;
      response.status = Status::kOk;
      response.estimator = estimators[m];
      response.eta_seconds = etas[m];
      latency_.Observe(SecondsSince(request.arrival, end));
      completed_.Add();
      request.respond(response);
    }
  }
}

std::string DeepOdServer::ExportStatsJson() const {
  StatsSources sources;
  sources.server = &registry_;
  if (fleet_ != nullptr) {
    fleet_->AppendStatsSources(&sources);
  } else {
    sources.service = service_;
    sources.reloader = options_.live.reloader;
    sources.drift = options_.live.drift;
  }
  return serve::ExportStatsJson(sources);
}

}  // namespace deepod::serve::net
