#ifndef DEEPOD_SERVE_ETA_SERVICE_H_
#define DEEPOD_SERVE_ETA_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/deepod_model.h"
#include "io/model_artifact.h"
#include "nn/quant.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
#include "serve/serving_state.h"
#include "temporal/time_slot.h"
#include "traj/trajectory.h"
#include "util/lru_cache.h"
#include "util/thread_pool.h"

namespace deepod::serve {

// Cache key of one OD query. Exact (not a hash digest): two packed 64-bit
// words hold the origin/destination segment ids, the weekly time-slot node,
// the weather category and the quantised position ratios, so two queries
// share a key only when every keyed field matches — no collision aliasing.
// `epoch` is the serving-state generation the answer was computed under:
// a model swap or speed-field publish bumps the epoch, which makes every
// older entry unreachable without touching the cache itself.
struct OdCacheKey {
  uint64_t segments = 0;  // origin << 32 | dest
  uint64_t context = 0;   // slot << 32 | weather << 16 | r1_bucket << 8 | rn_bucket
  uint64_t epoch = 0;     // ServingState::epoch the entry belongs to

  bool operator==(const OdCacheKey& other) const {
    return segments == other.segments && context == other.context &&
           epoch == other.epoch;
  }
};

struct OdCacheKeyHash {
  size_t operator()(const OdCacheKey& k) const {
    uint64_t h = k.segments * 0x9e3779b97f4a7c15ull;
    h ^= k.context + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h ^= k.epoch + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

struct EtaServiceOptions {
  // LRU cache over answered queries.
  size_t cache_capacity = 4096;
  size_t cache_shards = 8;
  // Position ratios are quantised into buckets of this width for keying
  // (two queries whose ratios fall in the same bucket share the cached
  // answer; 0.05 keeps the induced error well under the model's own).
  double ratio_bucket = 0.05;

  // Micro-batching: TrySubmit() enqueues into a bounded queue; a dispatcher
  // thread drains up to `max_batch` requests at a time into one
  // PredictBatch call. When the queue holds `queue_capacity` requests the
  // enqueue waits out its timeout, then sheds (back-pressure, no unbounded
  // growth).
  size_t max_batch = 32;
  size_t queue_capacity = 1024;
  // Worker threads for the batched forward (1 = run inline on the
  // dispatcher thread).
  size_t batch_threads = 1;

  // Kernel tier used for inference (Estimate and the batched dispatcher;
  // PredictBatch workers inherit it). Unset = leave the thread's mode alone
  // — the historical behaviour, which keeps the service bit-identical to
  // direct DeepOdModel::Predict calls in the ambient mode. kSimd is always
  // safe to request: without AVX2 it runs the kVector code path.
  std::optional<nn::KernelMode> kernel_mode;

  // Weight quantisation applied when the service is stood up FromArtifact
  // (forwarded as io::ArtifactOptions::quant). Ignored by the plain
  // constructor, which serves the caller's model as-is. Quantised serving
  // answers match fp64 within an MAE budget — not bit-identically — so
  // golden replay against a quantised service needs a tolerance
  // (deepod_serve --check --tolerance).
  nn::QuantMode quant = nn::QuantMode::kNone;

  // Prefix of every metric name in the service's registry. A fleet gives
  // each city shard its own prefix ("serve/<city>/") so the merged stats
  // export stays collision-free; the default keeps the historical
  // single-service names.
  std::string registry_prefix = "serve/";
};

// Counter/latency snapshot, assembled from the service's metrics registry.
// Latency percentiles are bucket estimates from a fixed-bucket histogram
// (≤12.5% relative error; see obs::Histogram); counters are exact.
struct EtaServiceStats {
  uint64_t requests = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t batches = 0;          // micro-batches dispatched
  double avg_batch_size = 0.0;   // requests per dispatched batch
  uint64_t swaps = 0;            // serving-state flips (SwapState)
  uint64_t epoch = 0;            // current cache generation
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double qps = 0.0;  // completed requests / seconds since construction
};

// The online estimation front-end (Algorithm 1, Estimation, as a service):
// answers OD travel-time queries from a sharded LRU cache, falling through
// to the model's graph-free forward on a miss. Two entry points:
//  - Estimate(): synchronous, caller-thread inference. Bit-identical to
//    DeepOdModel::Predict for the first query of each key; later queries of
//    the key return the cached answer.
//  - TrySubmit(): asynchronous with bounded-wait admission; requests are
//    micro-batched by a dispatcher thread into PredictBatch calls
//    (amortising per-query overhead) and resolved through the same cache.
//
// Live serving: the service holds its model, speed field and cache
// generation as one immutable ServingState epoch (serving_state.h). Every
// request path acquires one state snapshot for its whole unit of work, so
// SwapState() — the zero-downtime hot-swap entry point the ModelReloader
// drives — answers in-flight requests from the epoch they started on and
// new requests from the fresh one, with the epoch number keying the cache
// so stale answers are unreachable. BumpEpoch() invalidates the cache and
// starts a new generation of the model's external-code table without
// changing the model — the flip a RollingSpeedField publish needs.
//
// Observability: every stat lives in a private obs::Registry under the
// "serve/" prefix — counters for requests/hits/misses/batches/swaps, a
// latency histogram, queue-wait and batch-assembly histograms, queue-depth
// and epoch gauges. The registry is per-instance (stats never bleed
// between services) and always on. StatsSnapshot() is served from the
// registry; ExportJson() emits the shared BENCH-json schema through
// serve::ExportStatsJson (stats.h) — the same entry point the network
// server's stats frame and --stats-json use — and ExportPrometheus() the
// text exposition format. Thread-safe; the model must not be trained while
// the service is running.
class EtaService {
 public:
  EtaService(core::DeepOdModel& model, const EtaServiceOptions& options);

  // Adopts `initial` (un-adopted, from LoadServingState/BorrowServingState)
  // as the construction epoch. Throws std::invalid_argument on a null
  // state/model.
  EtaService(std::shared_ptr<ServingState> initial,
             const EtaServiceOptions& options);
  ~EtaService();

  // Stands a service up from a model artifact + road network alone: loads
  // the artifact (io::LoadModelArtifact), reconstructs a predict-only model
  // against `network` and returns a service owning the bundle — no training
  // dataset, traffic process or trajectory store in memory. `network` must
  // outlive the service. Throws nn::SerializeError on a corrupt or
  // mismatched artifact.
  static std::unique_ptr<EtaService> FromArtifact(
      const std::string& artifact_path, const road::RoadNetwork& network,
      const EtaServiceOptions& options);

  EtaService(const EtaService&) = delete;
  EtaService& operator=(const EtaService&) = delete;

  // Synchronous estimate in seconds.
  double Estimate(const traj::OdInput& od);

  // PRIMARY async entry point: submit with a bounded enqueue wait. When the
  // bounded queue stays full past `timeout`, returns nullopt instead of
  // blocking the producer indefinitely — a nullopt is a signal to shed the
  // request with a retry-after, so producer-side worst-case latency is
  // `timeout`, not "until the dispatcher catches up". timeout 0 is a pure
  // try-enqueue. This is the API back-pressure-aware callers (the network
  // server's admission layer, load generators) build on.
  std::optional<std::future<double>> TrySubmit(const traj::OdInput& od,
                                               std::chrono::nanoseconds timeout);

  // Synchronous batched estimate on the calling thread, through the same
  // cache and metrics as Estimate(): resolves hits, runs one PredictBatch
  // over the misses (fanned over `pool` when given), fills the cache and
  // returns one ETA per input, in order. This is the continuous-batching
  // executor's entry point (serve/server): the caller owns batch assembly
  // and scheduling; the service owns cache + model + stats. Safe to call
  // from several executor threads concurrently as long as each passes its
  // own pool (or none) — util::ThreadPool does not support concurrent
  // ParallelFor calls on one pool. The whole batch is answered from one
  // acquired ServingState, so a concurrent swap never splits a batch
  // across models.
  std::vector<double> EstimateBatch(std::span<const traj::OdInput> ods,
                                    util::ThreadPool* pool = nullptr);

  // --- Live serving -------------------------------------------------------

  // The current serving epoch. The returned snapshot stays valid (model,
  // bundle and all) for as long as the caller holds it, regardless of
  // concurrent swaps.
  std::shared_ptr<const ServingState> state() const;

  // Atomically flips the serving state to `fresh` (un-adopted; epoch is
  // assigned here) — the RCU hot-swap: new requests see the new model and
  // a new cache generation immediately, in-flight requests finish on the
  // state they acquired, the old bundle is freed when its last reference
  // drops. Returns the adopted epoch. Throws std::invalid_argument on a
  // null state/model.
  uint64_t SwapState(std::shared_ptr<ServingState> fresh);

  // Bumps the cache generation without changing the model: republishes the
  // current state under a fresh epoch and starts a new generation of the
  // model's external-code table. Call after mutating the data a model reads
  // through its speed provider (RollingSpeedField::Publish) — cached ETAs
  // and stored external codes are stale the moment the matrices change. A
  // request still in flight across the bump stores none of the codes it
  // computed before it. Returns the new epoch.
  uint64_t BumpEpoch();

  // --- Stats --------------------------------------------------------------

  EtaServiceStats StatsSnapshot() const;
  // {"hardware_concurrency": N, "records": [...]} over the serve/* metrics
  // (serve::ExportStatsJson with this service as the only source).
  std::string ExportJson() const;
  // Prometheus text exposition of the serve/* metrics.
  std::string ExportPrometheus() const;
  const obs::Registry& registry() const { return registry_; }

  // Cache key of `od` under the current epoch (acquires the state; the
  // request paths key against the state they already hold).
  OdCacheKey MakeKey(const traj::OdInput& od) const;

  // Test-only: parks the dispatcher so tests can fill the bounded queue
  // deterministically (TrySubmit timeout coverage). Unpausing resumes the
  // normal drain; pending futures then resolve as usual.
  void PauseDispatcherForTest(bool paused);

 private:
  struct Pending {
    traj::OdInput od;
    std::promise<double> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  OdCacheKey MakeKeyForState(const traj::OdInput& od,
                             const ServingState& state) const;
  void DispatchLoop();
  void RecordCompletion(std::chrono::steady_clock::time_point start);

  EtaServiceOptions options_;
  util::ShardedLruCache<OdCacheKey, double, OdCacheKeyHash> cache_;
  std::unique_ptr<util::ThreadPool> pool_;  // batched-forward workers

  // The published serving epoch (see state()/SwapState). A plain mutex
  // guards the pointer flip; readers pay one uncontended lock per unit of
  // work, which is noise next to a model forward.
  mutable std::mutex state_mu_;
  std::shared_ptr<const ServingState> state_;
  uint64_t last_epoch_ = 0;

  // Metrics (registry_ must precede the instrument references).
  obs::Registry registry_;
  obs::Counter& requests_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& batches_;
  obs::Counter& batched_requests_;
  obs::Counter& swaps_;
  obs::Gauge& queue_depth_;
  obs::Gauge& epoch_gauge_;
  obs::Histogram& latency_;         // request completion latency (seconds)
  obs::Histogram& queue_wait_;      // TrySubmit enqueue -> dispatcher dequeue
  obs::Histogram& batch_assembly_;  // cache resolution + miss-batch build

  // Bounded request queue (TrySubmit side).
  mutable std::mutex queue_mu_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  bool paused_for_test_ = false;
  std::thread dispatcher_;

  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace deepod::serve

#endif  // DEEPOD_SERVE_ETA_SERVICE_H_
