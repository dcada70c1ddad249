#include "serve/server/admission.h"

#include <algorithm>
#include <cmath>

namespace deepod::serve::net {
namespace {

constexpr double kNoTokenBackoffSeconds = 3600.0;

uint32_t ToRetryAfterMs(double seconds) {
  const double ms = std::ceil(seconds * 1e3);
  if (ms <= 1.0) return 1;
  if (ms >= 4.0e9) return 4000000000u;
  return static_cast<uint32_t>(ms);
}

}  // namespace

TokenBucket::TokenBucket(double rate_per_sec, double burst)
    : rate_(std::max(0.0, rate_per_sec)),
      burst_(std::max(0.0, burst)),
      tokens_(burst_) {}

void TokenBucket::Refill(double now_seconds) {
  if (now_seconds > last_) {
    tokens_ = std::min(burst_, tokens_ + (now_seconds - last_) * rate_);
    last_ = now_seconds;
  }
}

bool TokenBucket::TryTake(double now_seconds) {
  Refill(now_seconds);
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    return true;
  }
  return false;
}

double TokenBucket::SecondsUntilNextToken(double now_seconds) const {
  TokenBucket copy = *this;
  copy.Refill(now_seconds);
  if (copy.tokens_ >= 1.0) return 0.0;
  if (rate_ <= 0.0) return kNoTokenBackoffSeconds;
  return (1.0 - copy.tokens_) / rate_;
}

double TokenBucket::tokens(double now_seconds) const {
  TokenBucket copy = *this;
  copy.Refill(now_seconds);
  return copy.tokens_;
}

AdmissionQueue::AdmissionQueue(const AdmissionOptions& options,
                               size_t runner_slots)
    : options_(options),
      runner_slots_(std::max<size_t>(1, runner_slots)),
      queues_(kNumPriorities),
      epoch_(std::chrono::steady_clock::now()) {
  tenants_.reserve(options_.num_tenants);
  for (size_t i = 0; i < options_.num_tenants; ++i) {
    tenants_.emplace_back(options_.tenant_rate, options_.tenant_burst);
  }
  // Highest index on top, so the first claim takes slot 0.
  for (size_t i = runner_slots_; i-- > 0;) free_slots_.push_back(i);
}

double AdmissionQueue::EstimatedWaitSeconds(size_t depth) const {
  return static_cast<double>(depth) *
         ewma_service_seconds_.load(std::memory_order_relaxed);
}

AdmitDecision AdmissionQueue::Offer(AdmittedRequest&& request,
                                    bool claim_slot) {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) return {Status::kShuttingDown, 0};
  if (!tenants_.empty()) {
    if (request.frame.tenant_id >= tenants_.size()) {
      return {Status::kUnknownTenant, 0};
    }
    const double now_seconds =
        std::chrono::duration<double>(now - epoch_).count();
    TokenBucket& bucket = tenants_[request.frame.tenant_id];
    if (!bucket.TryTake(now_seconds)) {
      return {Status::kShedQuota,
              ToRetryAfterMs(bucket.SecondsUntilNextToken(now_seconds))};
    }
  }
  if (depth_ >= options_.queue_capacity) {
    return {Status::kShedQueueFull,
            ToRetryAfterMs(std::max(1e-3, EstimatedWaitSeconds(depth_)))};
  }
  if (request.deadline != std::chrono::steady_clock::time_point::max()) {
    const double budget =
        std::chrono::duration<double>(request.deadline - now).count();
    const double estimated_wait = EstimatedWaitSeconds(depth_);
    if (budget < estimated_wait) {
      return {Status::kShedDeadline, ToRetryAfterMs(estimated_wait - budget)};
    }
  }
  const uint8_t priority =
      std::min<uint8_t>(request.frame.priority, kNumPriorities - 1);
  queues_[priority].push_back(std::move(request));
  ++depth_;
  AdmitDecision decision;
  if (claim_slot && !free_slots_.empty()) {
    decision.runner_slot = free_slots_.back();
    free_slots_.pop_back();
  } else if (free_slots_.size() == runner_slots_) {
    // Nobody is running a batch, so nobody would come back for this one.
    work_.notify_one();
  }
  return decision;
}

bool AdmissionQueue::PopBatch(size_t max_n, std::vector<AdmittedRequest>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (depth_ == 0) return false;
  size_t taken = 0;
  for (auto& queue : queues_) {
    while (taken < max_n && !queue.empty()) {
      out->push_back(std::move(queue.front()));
      queue.pop_front();
      --depth_;
      ++taken;
    }
    if (taken == max_n) break;
  }
  NotifyLocked();
  return true;
}

void AdmissionQueue::ReleaseSlot(size_t slot) {
  std::lock_guard<std::mutex> lock(mu_);
  free_slots_.push_back(slot);
  NotifyLocked();
}

void AdmissionQueue::NotifyLocked() {
  if (depth_ > 0) {
    // Work is left and a slot is free: one waiter can run it in parallel.
    if (!free_slots_.empty()) work_.notify_one();
    return;
  }
  if (draining_) {
    work_.notify_all();  // the backlog threads can exit
    if (free_slots_.size() == runner_slots_) drained_.notify_all();
  }
}

std::optional<size_t> AdmissionQueue::AwaitSlot() {
  std::unique_lock<std::mutex> lock(mu_);
  work_.wait(lock, [this] {
    return (depth_ > 0 && !free_slots_.empty()) || (draining_ && depth_ == 0);
  });
  if (depth_ == 0) return std::nullopt;  // draining and fully drained
  const size_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void AdmissionQueue::AwaitDrained() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_.wait(lock, [this] {
    return draining_ && depth_ == 0 && free_slots_.size() == runner_slots_;
  });
}

void AdmissionQueue::RecordServiceTime(double seconds_per_request) {
  if (!(seconds_per_request >= 0.0)) return;
  // EWMA with alpha 0.2; the first sample seeds the average directly.
  double prev = ewma_service_seconds_.load(std::memory_order_relaxed);
  double next;
  do {
    next = prev == 0.0 ? seconds_per_request
                       : 0.8 * prev + 0.2 * seconds_per_request;
  } while (!ewma_service_seconds_.compare_exchange_weak(
      prev, next, std::memory_order_relaxed));
}

double AdmissionQueue::EwmaServiceSeconds() const {
  return ewma_service_seconds_.load(std::memory_order_relaxed);
}

size_t AdmissionQueue::Depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return depth_;
}

void AdmissionQueue::SetDraining() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
  NotifyLocked();
}

bool AdmissionQueue::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

}  // namespace deepod::serve::net
