#include "serve/eta_service.h"

#include <stdexcept>
#include <utility>

#include "serve/stats.h"

namespace deepod::serve {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// Runs `fn` in `mode` when set, else in the thread's ambient kernel mode
// (PredictBatch pool workers inherit the caller's mode).
template <typename Fn>
auto InMode(const std::optional<nn::KernelMode>& mode, Fn&& fn) {
  if (!mode.has_value()) return fn();
  const nn::KernelModeScope scope(*mode);
  return fn();
}

}  // namespace

EtaService::EtaService(core::DeepOdModel& model,
                       const EtaServiceOptions& options)
    : EtaService(BorrowServingState(model), options) {}

EtaService::EtaService(std::shared_ptr<ServingState> initial,
                       const EtaServiceOptions& options)
    : options_(options),
      requests_(registry_.counter(options.registry_prefix + "requests")),
      batches_(registry_.counter(options.registry_prefix + "batches")),
      batched_requests_(
          registry_.counter(options.registry_prefix + "batched_requests")),
      swaps_(registry_.counter(options.registry_prefix + "swaps")),
      epoch_gauge_(registry_.gauge(options.registry_prefix + "epoch")),
      latency_(registry_.histogram(options.registry_prefix + "latency")) {
  if (!initial || initial->model == nullptr) {
    throw std::invalid_argument("EtaService: null serving state");
  }
  initial->epoch = last_epoch_;  // construction epoch 0
  state_ = std::move(initial);
  epoch_gauge_.Set(0.0);
}

std::unique_ptr<EtaService> EtaService::FromArtifact(
    const std::string& artifact_path, const road::RoadNetwork& network,
    const EtaServiceOptions& options) {
  io::ArtifactOptions artifact_options;
  artifact_options.quant = options.quant;
  return std::make_unique<EtaService>(
      LoadServingState(artifact_path, network, artifact_options), options);
}

std::shared_ptr<const ServingState> EtaService::state() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return state_;
}

uint64_t EtaService::SwapState(std::shared_ptr<ServingState> fresh) {
  if (!fresh || fresh->model == nullptr) {
    throw std::invalid_argument("EtaService::SwapState: null serving state");
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  fresh->epoch = ++last_epoch_;
  state_ = std::move(fresh);
  swaps_.Add();
  epoch_gauge_.Set(static_cast<double>(state_->epoch));
  return state_->epoch;
}

uint64_t EtaService::BumpEpoch() {
  std::lock_guard<std::mutex> lock(state_mu_);
  auto fresh = std::make_shared<ServingState>(*state_);
  fresh->epoch = ++last_epoch_;
  // The speed data the model reads changed under it: stored external codes
  // (keyed by weather/snapshot, not by matrix content) are stale. Nothing
  // else is derived from the speed data, so this is the whole refresh.
  fresh->model->ClearOcodeMemo();
  state_ = std::move(fresh);
  epoch_gauge_.Set(static_cast<double>(state_->epoch));
  return state_->epoch;
}

void EtaService::RecordCompletion(
    std::chrono::steady_clock::time_point start) {
  latency_.Observe(SecondsSince(start, std::chrono::steady_clock::now()));
  requests_.Add();
}

double EtaService::Estimate(const traj::OdInput& od) {
  const auto start = std::chrono::steady_clock::now();
  const std::shared_ptr<const ServingState> state = this->state();
  const double eta =
      InMode(options_.kernel_mode, [&] { return state->model->Predict(od); });
  RecordCompletion(start);
  return eta;
}

std::vector<double> EtaService::EstimateBatch(
    std::span<const traj::OdInput> ods, util::ThreadPool* pool) {
  if (ods.empty()) return {};
  const auto start = std::chrono::steady_clock::now();
  // One state snapshot answers the whole batch: a concurrent SwapState
  // never splits it across models.
  const std::shared_ptr<const ServingState> state = this->state();
  std::vector<double> out = InMode(options_.kernel_mode, [&] {
    return state->model->PredictBatch(ods, pool);
  });
  // Per-request latency is the whole batch's wall time — that is what a
  // caller of the batch actually waited.
  for (size_t i = 0; i < ods.size(); ++i) RecordCompletion(start);
  batches_.Add();
  batched_requests_.Add(ods.size());
  return out;
}

std::string EtaService::ExportJson() const {
  StatsSources sources;
  sources.service = this;
  return ExportStatsJson(sources);
}

std::string EtaService::ExportPrometheus() const {
  return registry_.ExportPrometheus(options_.registry_prefix);
}

}  // namespace deepod::serve
