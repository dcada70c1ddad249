#ifndef DEEPOD_SERVE_SERVER_ADMISSION_H_
#define DEEPOD_SERVE_SERVER_ADMISSION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "serve/server/frame.h"

namespace deepod::serve::net {

// Deterministic token bucket. Time is an explicit monotonic-seconds
// argument (never read from a clock internally) so quota decisions are
// exactly reproducible in tests and the caller pays for one clock read per
// admission, not one per bucket.
class TokenBucket {
 public:
  // `rate_per_sec` tokens accrue continuously up to `burst`. The bucket
  // starts full. rate 0 makes the burst a hard lifetime cap — useful in
  // tests that need "exactly N requests pass" behaviour.
  TokenBucket(double rate_per_sec, double burst);

  // Consumes one token if available at `now_seconds`.
  bool TryTake(double now_seconds);

  // Seconds until one full token is available (0 when one already is).
  // Infinity-free: rate 0 reports one hour.
  double SecondsUntilNextToken(double now_seconds) const;

  double tokens(double now_seconds) const;

 private:
  void Refill(double now_seconds);

  double rate_;
  double burst_;
  double tokens_;
  double last_ = 0.0;
};

struct AdmissionOptions {
  // Shared capacity of the priority queues. A request arriving when
  // `queue_capacity` requests are already admitted is shed with
  // kShedQueueFull (never queued to death). 0 sheds everything (tests).
  size_t queue_capacity = 1024;

  // Per-tenant token buckets over tenants [0, num_tenants). 0 disables
  // quota enforcement entirely (any tenant id is admitted); with quotas
  // on, an id outside the table is kUnknownTenant.
  size_t num_tenants = 0;
  double tenant_rate = 1000.0;  // tokens (requests) per second
  double tenant_burst = 100.0;
};

// The connection a request arrived on. Opaque to the queue: the server
// defines it and writes the answer back to it.
struct Connection;

// One admitted unit of work. Whoever runs its batch answers it exactly
// once on `conn`.
struct AdmittedRequest {
  RequestFrame frame;
  std::chrono::steady_clock::time_point arrival{};
  // arrival + deadline budget; time_point::max() when the frame carries no
  // deadline. Checked again at dequeue: expiry while queued is a
  // deadline-miss, not a shed.
  std::chrono::steady_clock::time_point deadline{};
  std::shared_ptr<Connection> conn;
};

struct AdmitDecision {
  Status status = Status::kOk;
  uint32_t retry_after_ms = 0;  // backoff hint for shed statuses
  // kOk with a claim only: the runner slot the caller now holds. It must
  // run one batch (PopBatch) and then ReleaseSlot() it.
  std::optional<size_t> runner_slot = std::nullopt;
};

// The admission/scheduler layer between the connection threads and the
// batch runners: strict-priority bounded queues with per-tenant token
// buckets and deadline-aware load shedding. Producers never block — a
// request is either admitted or shed with a typed status and a
// retry-after hint, so worst-case enqueue latency is one mutex
// acquisition. Thread-safe. Deadline-aware shedding: a request whose
// remaining deadline is smaller than the estimated queue wait (depth ahead
// of it x the EWMA per-request service time reported by the runners) is
// shed on arrival with kShedDeadline instead of taking a slot for a
// guaranteed miss.
//
// Runner slots. At most `runner_slots` batches run at once; the queue
// counts the slots under its one mutex. A producer that admits with a
// claim and finds a slot free holds it on return and runs the batch on
// its own thread, so an idle server answers without waking anybody.
// Backlog threads wait in AwaitSlot() and only run when work is queued,
// a slot is free and nobody else is running it. Invariant: while the
// queue is non-empty, a slot holder is running or a waiter has been
// notified — Offer() notifies when no slot is held, PopBatch() when work
// is left and a slot is free, ReleaseSlot() when work is left.
//
// Lifecycle: running -> draining -> closed. SetDraining() makes every new
// Offer() answer kShuttingDown while slot holders keep taking the
// already-admitted backlog; AwaitSlot() returns nullopt once the queue is
// empty, and AwaitDrained() returns once every slot is back too, so a
// graceful shutdown knows every admitted request was answered.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(const AdmissionOptions& options,
                          size_t runner_slots = 1);

  // Admit or shed `request` (decided under one lock; never blocks).
  // On kOk the request was moved into the queue; with `claim_slot` it also
  // takes a free runner slot if there is one (AdmitDecision::runner_slot).
  AdmitDecision Offer(AdmittedRequest&& request, bool claim_slot = false);

  // Never waits. Appends up to `max_n` requests to *out, highest priority
  // class first (classes may mix within one batch — the runner batches
  // across them). Returns false when the queue is empty.
  bool PopBatch(size_t max_n, std::vector<AdmittedRequest>* out);

  // Hands `slot` back; wakes a waiter when work is left.
  void ReleaseSlot(size_t slot);

  // Backlog path: blocks until work is queued and a slot is free, then
  // claims it. nullopt once draining and the queue is empty.
  std::optional<size_t> AwaitSlot();

  // Blocks until draining, the queue is empty and every slot is back.
  void AwaitDrained();

  // Runner feedback: per-request service time (batch wall / batch size),
  // folded into the EWMA behind deadline shedding and retry-after hints.
  void RecordServiceTime(double seconds_per_request);
  double EwmaServiceSeconds() const;

  size_t Depth() const;

  void SetDraining();
  bool draining() const;

 private:
  double EstimatedWaitSeconds(size_t depth) const;
  // Under mu_: wakes the backlog threads / drain waiter a state change
  // concerns.
  void NotifyLocked();

  AdmissionOptions options_;
  size_t runner_slots_;
  mutable std::mutex mu_;
  std::condition_variable work_;     // AwaitSlot waiters
  std::condition_variable drained_;  // AwaitDrained waiter
  std::vector<std::deque<AdmittedRequest>> queues_;  // one per priority
  std::vector<TokenBucket> tenants_;
  std::vector<size_t> free_slots_;
  size_t depth_ = 0;
  bool draining_ = false;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<double> ewma_service_seconds_{0.0};
};

}  // namespace deepod::serve::net

#endif  // DEEPOD_SERVE_SERVER_ADMISSION_H_
