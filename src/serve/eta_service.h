#ifndef DEEPOD_SERVE_ETA_SERVICE_H_
#define DEEPOD_SERVE_ETA_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/deepod_model.h"
#include "io/model_artifact.h"
#include "nn/quant.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
#include "serve/serving_state.h"
#include "temporal/time_slot.h"
#include "traj/trajectory.h"
#include "util/thread_pool.h"

namespace deepod::serve {

struct EtaServiceOptions {
  // Kernel tier used for inference (Estimate and EstimateBatch;
  // PredictBatch workers inherit it). Unset = leave the thread's mode alone
  // — the historical behaviour, which keeps the service bit-identical to
  // direct DeepOdModel::Predict calls in the ambient mode. kSimd is always
  // safe to request: without AVX2 it runs the kVector code path.
  std::optional<nn::KernelMode> kernel_mode;

  // Weight quantisation applied when the service is stood up FromArtifact
  // (forwarded as io::ArtifactOptions::quant); a FleetRouter also loads
  // every activation and hot swap with it. Ignored by the plain
  // constructor, which serves the caller's model as-is. Quantised serving
  // answers match fp64 within an MAE budget — not bit-identically — so
  // golden replay against a quantised service needs a tolerance
  // (deepod_loadgen --golden --tolerance against deepod_server --quant).
  nn::QuantMode quant = nn::QuantMode::kNone;

  // Prefix of every metric name in the service's registry. A fleet gives
  // each city shard its own prefix ("serve/<city>/") so the merged stats
  // export stays collision-free; the default is the single-city name a
  // fleet of one keeps.
  std::string registry_prefix = "serve/";
};

// The online estimation front-end (Algorithm 1, Estimation, as a service):
// answers every OD travel-time query through the model's serving plan, so
// each answer equals DeepOdModel::Predict of that exact query, bit for bit.
// The service is the serving state plus two synchronous entry points, both
// run on the caller's thread; it owns no queue and no thread:
//  - Estimate(): one query (Predict).
//  - EstimateBatch(): one batch (PredictBatch) — the network server's batch
//    runner calls it; batch assembly and scheduling are the caller's.
//
// Live serving: the service holds its model and speed field as one
// immutable ServingState epoch (serving_state.h). Every request path
// acquires one state snapshot for its whole unit of work, so SwapState() —
// the zero-downtime hot-swap entry point the FleetRouter's watcher drives —
// answers in-flight requests from the epoch they started on and new
// requests from the fresh one. BumpEpoch() starts a new generation of
// the model's external-code table without changing the model — the flip a
// RollingSpeedField publish needs.
//
// Observability: every stat lives in a private obs::Registry under the
// "serve/" prefix — counters for requests/batches/swaps, a latency
// histogram and an epoch gauge. The registry is per-instance (stats never
// bleed between services) and always on, and it is the only copy: callers
// read it through registry(). ExportJson() emits the shared BENCH-json
// schema through serve::ExportStatsJson (stats.h) — the same entry point
// the network server's stats frame and --stats-json use — and
// ExportPrometheus() the text exposition format. Thread-safe; the model
// must not be trained while the service is running.
class EtaService {
 public:
  EtaService(core::DeepOdModel& model, const EtaServiceOptions& options);

  // Adopts `initial` (un-adopted, from LoadServingState/BorrowServingState)
  // as the construction epoch. Throws std::invalid_argument on a null
  // state/model.
  EtaService(std::shared_ptr<ServingState> initial,
             const EtaServiceOptions& options);

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

  // Synchronous batched estimate on the calling thread, through the same
  // metrics as Estimate(): one PredictBatch over the batch (fanned over
  // `pool` when given), one ETA per input, in order. This is the
  // continuous-batching executor's entry point (serve/server): the caller
  // owns batch assembly and scheduling; the service owns model + stats.
  // Safe to call from several threads concurrently as long as each passes
  // its own pool (or none) — util::ThreadPool does not support concurrent
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
  // assigned here) — the RCU hot-swap: new requests see the new model
  // immediately, in-flight requests finish on the
  // state they acquired, the old bundle is freed when its last reference
  // drops. Returns the adopted epoch. Throws std::invalid_argument on a
  // null state/model.
  uint64_t SwapState(std::shared_ptr<ServingState> fresh);

  // Republishes the current state under a fresh epoch and starts a new
  // generation of the model's external-code table, without changing the
  // model. Call after mutating the data a model reads through its speed
  // provider (RollingSpeedField::Publish) — stored external codes are stale
  // the moment the matrices change. A request still in flight across the
  // bump stores none of the codes it computed before it. Returns the new
  // epoch.
  uint64_t BumpEpoch();

  // --- Stats --------------------------------------------------------------

  // {"hardware_concurrency": N, "records": [...]} over the serve/* metrics
  // (serve::ExportStatsJson with this service as the only source).
  std::string ExportJson() const;
  // Prometheus text exposition of the serve/* metrics.
  std::string ExportPrometheus() const;
  const obs::Registry& registry() const { return registry_; }
  const EtaServiceOptions& options() const { return options_; }

 private:
  void RecordCompletion(std::chrono::steady_clock::time_point start);

  EtaServiceOptions options_;

  // The published serving epoch (see state()/SwapState). A plain mutex
  // guards the pointer flip; readers pay one uncontended lock per unit of
  // work, which is noise next to a model forward.
  mutable std::mutex state_mu_;
  std::shared_ptr<const ServingState> state_;
  uint64_t last_epoch_ = 0;

  // Metrics (registry_ must precede the instrument references).
  obs::Registry registry_;
  obs::Counter& requests_;
  obs::Counter& batches_;
  obs::Counter& batched_requests_;
  obs::Counter& swaps_;
  obs::Gauge& epoch_gauge_;
  obs::Histogram& latency_;  // request completion latency (seconds)
};

}  // namespace deepod::serve

#endif  // DEEPOD_SERVE_ETA_SERVICE_H_
