#include "serve/server/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

namespace deepod::serve::net {
namespace {

using Clock = std::chrono::steady_clock;

double PercentileOfSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// Rejects a rate or duration the send loop cannot turn into clock ticks:
// NaN, infinite or <= 0, or a duration whose start + duration would
// overflow Clock (steady_clock counts from boot, so half its range is a
// safe ceiling).
void ValidateRateAndDuration(const LoadgenOptions& options) {
  if (!std::isfinite(options.qps) || options.qps <= 0.0) {
    throw std::invalid_argument("loadgen: qps must be finite and > 0");
  }
  const double max_seconds =
      std::chrono::duration<double>(Clock::duration::max()).count() / 2.0;
  if (!std::isfinite(options.duration_seconds) ||
      options.duration_seconds <= 0.0 ||
      options.duration_seconds >= max_seconds) {
    throw std::invalid_argument(
        "loadgen: duration_seconds must be finite, > 0 and below the "
        "clock's range");
  }
}

}  // namespace

Client::~Client() { Close(); }

bool Client::Connect(const std::string& host, uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::CloseSend() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Client::Abort() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

bool Client::Send(const RequestFrame& frame) {
  if (fd_ < 0) return false;
  const std::vector<uint8_t> wire = EncodeRequestFrame(frame);
  return WriteAll(fd_, wire.data(), wire.size());
}

bool Client::ReadResponse(ResponseFrame* out) {
  std::vector<uint8_t> payload;
  for (;;) {
    if (ReadFrame(fd_, &payload, 1u << 22) != ReadFrameResult::kOk) {
      return false;
    }
    if (PeekMagic(payload.data(), payload.size()) == kStatsResponseMagic) {
      continue;  // not ours to consume here
    }
    return DecodeResponsePayload(payload.data(), payload.size(), out);
  }
}

std::string Client::FetchStatsJson() {
  if (fd_ < 0) return "";
  const std::vector<uint8_t> wire = EncodeStatsRequestFrame();
  if (!WriteAll(fd_, wire.data(), wire.size())) return "";
  std::vector<uint8_t> payload;
  for (;;) {
    if (ReadFrame(fd_, &payload, 1u << 22) != ReadFrameResult::kOk) return "";
    if (PeekMagic(payload.data(), payload.size()) == kStatsResponseMagic) {
      return std::string(payload.begin() + 4, payload.end());
    }
    // Skip late data responses still in flight on this connection.
  }
}

namespace {

// Mutable state shared between one connection's sender and reader.
struct ConnState {
  Client client;
  std::mutex mu;
  struct Sent {
    Clock::time_point at;
    uint8_t priority;
  };
  std::unordered_map<uint64_t, Sent> pending;

  // Reader-side tallies (reader thread only, read after join).
  uint64_t ok = 0, shed = 0, deadline_expired = 0, errors = 0;
  uint64_t ok_within_slo = 0;
  uint64_t estimator_ok[3] = {0, 0, 0};  // kModel / kOracle / kLinkMean
  std::vector<double> latencies_ms;  // Ok responses
  uint64_t prio_sent[kNumPriorities] = {0, 0, 0};
  uint64_t prio_ok[kNumPriorities] = {0, 0, 0};
  uint64_t prio_shed[kNumPriorities] = {0, 0, 0};
  std::vector<double> prio_latencies_ms[kNumPriorities];

  // Sender-side tallies.
  uint64_t sent = 0;
  uint64_t send_failures = 0;
};

}  // namespace

LoadgenReport RunLoadgen(const LoadgenOptions& options) {
  if (options.num_segments == 0) {
    throw std::runtime_error("loadgen: num_segments must be set");
  }
  ValidateRateAndDuration(options);
  const size_t num_conns = std::max<size_t>(1, options.connections);

  // One shared hot set so the skew concentrates on the same keys across
  // connections (repeated external-code keys on the server side).
  std::mt19937_64 hot_rng(options.seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<traj::OdInput> hot_set(std::max<size_t>(1, options.hot_set_size));
  const auto random_od = [&options](std::mt19937_64& rng) {
    traj::OdInput od;
    std::uniform_int_distribution<size_t> seg(0, options.num_segments - 1);
    std::uniform_real_distribution<double> ratio(0.0, 1.0);
    od.origin_segment = seg(rng);
    od.dest_segment = seg(rng);
    od.origin_ratio = ratio(rng);
    od.dest_ratio = ratio(rng);
    od.weather_type = options.num_weather > 1
                          ? static_cast<int>(rng() % uint64_t(options.num_weather))
                          : 0;
    return od;
  };
  for (auto& od : hot_set) od = random_od(hot_rng);

  std::vector<std::unique_ptr<ConnState>> conns;
  for (size_t c = 0; c < num_conns; ++c) {
    auto state = std::make_unique<ConnState>();
    if (!state->client.Connect(options.host, options.port)) {
      throw std::runtime_error("loadgen: cannot connect to " + options.host +
                               ":" + std::to_string(options.port));
    }
    conns.push_back(std::move(state));
  }

  const double slo_ms = options.slo_ms;
  const auto start = Clock::now();
  const auto send_deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.duration_seconds));

  std::vector<std::thread> readers;
  std::vector<std::thread> senders;
  for (size_t c = 0; c < num_conns; ++c) {
    ConnState* state = conns[c].get();

    readers.emplace_back([state, slo_ms] {
      ResponseFrame response;
      while (state->client.ReadResponse(&response)) {
        const auto now = Clock::now();
        ConnState::Sent sent_info;
        {
          std::lock_guard<std::mutex> lock(state->mu);
          const auto it = state->pending.find(response.request_id);
          if (it == state->pending.end()) continue;  // stats or duplicate
          sent_info = it->second;
          state->pending.erase(it);
        }
        const double ms =
            std::chrono::duration<double, std::milli>(now - sent_info.at)
                .count();
        const uint8_t priority =
            std::min<uint8_t>(sent_info.priority, kNumPriorities - 1);
        if (response.status == Status::kOk) {
          ++state->ok;
          ++state->estimator_ok[std::min<uint8_t>(
              static_cast<uint8_t>(response.estimator), 2)];
          ++state->prio_ok[priority];
          state->latencies_ms.push_back(ms);
          state->prio_latencies_ms[priority].push_back(ms);
          if (slo_ms <= 0.0 || ms <= slo_ms) ++state->ok_within_slo;
        } else if (IsShed(response.status)) {
          ++state->shed;
          ++state->prio_shed[priority];
        } else if (response.status == Status::kDeadlineExpired) {
          ++state->deadline_expired;
        } else {
          ++state->errors;
        }
      }
    });

    senders.emplace_back([state, c, &options, &hot_set, num_conns,
                          send_deadline] {
      std::mt19937_64 rng(options.seed * 0x9e3779b97f4a7c15ull + 17 * (c + 2));
      std::exponential_distribution<double> interarrival(
          std::max(1e-6, options.qps / static_cast<double>(num_conns)));
      std::uniform_real_distribution<double> unit(0.0, 1.0);
      std::uniform_real_distribution<double> depart(
          0.0, std::max(1e-9, options.departure_window_seconds));
      uint64_t next_id = (uint64_t(c) << 48) + 1;
      auto next_send = Clock::now();
      for (;;) {
        next_send += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(interarrival(rng)));
        if (next_send >= send_deadline) return;
        std::this_thread::sleep_until(next_send);
        RequestFrame request;
        request.request_id = next_id++;
        request.network_id =
            options.network_ids.empty()
                ? 0
                : options.network_ids[state->sent % options.network_ids.size()];
        request.tenant_id = static_cast<uint32_t>(
            options.num_tenants > 0 ? state->sent % options.num_tenants : 0);
        const double pick = unit(rng);
        request.priority = pick < options.high_fraction ? 0
                           : pick < options.high_fraction + options.low_fraction
                               ? 2
                               : 1;
        request.deadline_ms = options.deadline_ms;
        request.od = unit(rng) < options.hot_fraction
                         ? hot_set[rng() % hot_set.size()]
                         : traj::OdInput{};
        if (request.od.origin_segment == road::kInvalidId) {
          std::mt19937_64 od_rng(rng());
          std::uniform_int_distribution<size_t> seg(0,
                                                    options.num_segments - 1);
          std::uniform_real_distribution<double> ratio(0.0, 1.0);
          request.od.origin_segment = seg(od_rng);
          request.od.dest_segment = seg(od_rng);
          request.od.origin_ratio = ratio(od_rng);
          request.od.dest_ratio = ratio(od_rng);
          request.od.weather_type =
              options.num_weather > 1
                  ? static_cast<int>(od_rng() % uint64_t(options.num_weather))
                  : 0;
        }
        request.od.departure_time = options.base_departure_time + depart(rng);
        // Register before sending so the reader can never race the map.
        {
          std::lock_guard<std::mutex> lock(state->mu);
          state->pending[request.request_id] = {Clock::now(),
                                                request.priority};
        }
        ++state->prio_sent[request.priority];
        if (!state->client.Send(request)) {
          std::lock_guard<std::mutex> lock(state->mu);
          state->pending.erase(request.request_id);
          ++state->send_failures;
          return;
        }
        ++state->sent;
      }
    });
  }

  for (auto& t : senders) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  // Drain: wait for outstanding responses, then unblock the readers with a
  // local shutdown (never close an fd a reader is still blocked on).
  const auto grace_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             std::max(0.0, options.drain_grace_seconds)));
  uint64_t lost = 0;
  for (auto& conn : conns) {
    for (;;) {
      size_t outstanding;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        outstanding = conn->pending.size();
      }
      if (outstanding == 0 || Clock::now() >= grace_deadline) {
        lost += outstanding;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  for (auto& conn : conns) conn->client.Abort();
  for (auto& t : readers) t.join();
  for (auto& conn : conns) conn->client.Close();

  LoadgenReport report;
  report.elapsed_seconds = elapsed;
  report.lost = lost;
  std::vector<double> all_latencies;
  uint64_t ok_within_slo = 0;
  for (const auto& conn : conns) {
    report.sent += conn->sent;
    report.ok += conn->ok;
    report.model_ok += conn->estimator_ok[0];
    report.oracle_ok += conn->estimator_ok[1];
    report.linkmean_ok += conn->estimator_ok[2];
    report.shed += conn->shed;
    report.deadline_expired += conn->deadline_expired;
    report.errors += conn->errors + conn->send_failures;
    ok_within_slo += conn->ok_within_slo;
    all_latencies.insert(all_latencies.end(), conn->latencies_ms.begin(),
                         conn->latencies_ms.end());
    for (size_t p = 0; p < kNumPriorities; ++p) {
      report.by_priority[p].sent += conn->prio_sent[p];
      report.by_priority[p].ok += conn->prio_ok[p];
      report.by_priority[p].shed += conn->prio_shed[p];
    }
  }
  std::sort(all_latencies.begin(), all_latencies.end());
  report.p50_ms = PercentileOfSorted(all_latencies, 0.50);
  report.p95_ms = PercentileOfSorted(all_latencies, 0.95);
  report.p99_ms = PercentileOfSorted(all_latencies, 0.99);
  report.max_ms = all_latencies.empty() ? 0.0 : all_latencies.back();
  for (size_t p = 0; p < kNumPriorities; ++p) {
    std::vector<double> merged;
    for (const auto& conn : conns) {
      merged.insert(merged.end(), conn->prio_latencies_ms[p].begin(),
                    conn->prio_latencies_ms[p].end());
    }
    std::sort(merged.begin(), merged.end());
    report.by_priority[p].p50_ms = PercentileOfSorted(merged, 0.50);
    report.by_priority[p].p99_ms = PercentileOfSorted(merged, 0.99);
  }
  if (elapsed > 0.0) {
    report.offered_qps = static_cast<double>(report.sent) / elapsed;
    report.achieved_qps = static_cast<double>(report.ok) / elapsed;
    report.goodput_qps = static_cast<double>(ok_within_slo) / elapsed;
  }
  report.shed_rate =
      report.sent == 0
          ? 0.0
          : static_cast<double>(report.shed) / static_cast<double>(report.sent);

  if (options.fetch_server_stats) {
    // A fresh connection, after the measurement window, so the stats frame
    // never interleaves with data responses.
    Client stats_client;
    if (stats_client.Connect(options.host, options.port)) {
      report.server_stats_json = stats_client.FetchStatsJson();
    }
  }
  return report;
}

}  // namespace deepod::serve::net
