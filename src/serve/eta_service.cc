#include "serve/eta_service.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"
#include "serve/stats.h"

namespace deepod::serve {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

EtaService::EtaService(core::DeepOdModel& model,
                       const EtaServiceOptions& options)
    : EtaService(BorrowServingState(model), options) {}

EtaService::EtaService(std::shared_ptr<ServingState> initial,
                       const EtaServiceOptions& options)
    : options_(options),
      cache_(options.cache_capacity, options.cache_shards),
      requests_(registry_.counter(options.registry_prefix + "requests")),
      hits_(registry_.counter(options.registry_prefix + "cache_hits")),
      misses_(registry_.counter(options.registry_prefix + "cache_misses")),
      batches_(registry_.counter(options.registry_prefix + "batches")),
      batched_requests_(
          registry_.counter(options.registry_prefix + "batched_requests")),
      swaps_(registry_.counter(options.registry_prefix + "swaps")),
      queue_depth_(registry_.gauge(options.registry_prefix + "queue_depth")),
      epoch_gauge_(registry_.gauge(options.registry_prefix + "epoch")),
      latency_(registry_.histogram(options.registry_prefix + "latency")),
      queue_wait_(registry_.histogram(options.registry_prefix + "queue_wait")),
      batch_assembly_(
          registry_.histogram(options.registry_prefix + "batch_assembly")),
      start_time_(std::chrono::steady_clock::now()) {
  if (!initial || initial->model == nullptr) {
    throw std::invalid_argument("EtaService: null serving state");
  }
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.ratio_bucket <= 0.0) options_.ratio_bucket = 0.05;
  initial->epoch = last_epoch_;  // construction epoch 0
  state_ = std::move(initial);
  epoch_gauge_.Set(0.0);
  if (options_.batch_threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(options_.batch_threads);
  }
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

std::unique_ptr<EtaService> EtaService::FromArtifact(
    const std::string& artifact_path, const road::RoadNetwork& network,
    const EtaServiceOptions& options) {
  io::ArtifactOptions artifact_options;
  artifact_options.quant = options.quant;
  return std::make_unique<EtaService>(
      LoadServingState(artifact_path, network, artifact_options), options);
}

EtaService::~EtaService() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
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
  // (keyed by weather/snapshot, not by matrix content) are stale.
  fresh->model->ClearOcodeMemo();
  state_ = std::move(fresh);
  epoch_gauge_.Set(static_cast<double>(state_->epoch));
  return state_->epoch;
}

OdCacheKey EtaService::MakeKeyForState(const traj::OdInput& od,
                                       const ServingState& state) const {
  OdCacheKey key;
  key.segments = (static_cast<uint64_t>(od.origin_segment) << 32) |
                 static_cast<uint64_t>(od.dest_segment & 0xffffffffull);
  const int64_t slot = state.slotter.Slot(od.departure_time);
  const uint64_t node =
      static_cast<uint64_t>(state.slotter.WeeklyNode(slot)) & 0xffffffffull;
  const auto bucket = [this](double ratio) -> uint64_t {
    const double clamped = std::clamp(ratio, 0.0, 1.0);
    return static_cast<uint64_t>(clamped / options_.ratio_bucket) & 0xffull;
  };
  key.context = (node << 32) |
                (static_cast<uint64_t>(static_cast<uint32_t>(od.weather_type) &
                                       0xffffu)
                 << 16) |
                (bucket(od.origin_ratio) << 8) | bucket(od.dest_ratio);
  key.epoch = state.epoch;
  return key;
}

OdCacheKey EtaService::MakeKey(const traj::OdInput& od) const {
  return MakeKeyForState(od, *state());
}

void EtaService::RecordCompletion(
    std::chrono::steady_clock::time_point start) {
  latency_.Observe(SecondsSince(start, std::chrono::steady_clock::now()));
  requests_.Add();
}

double EtaService::Estimate(const traj::OdInput& od) {
  const auto start = std::chrono::steady_clock::now();
  const std::shared_ptr<const ServingState> state = this->state();
  const OdCacheKey key = MakeKeyForState(od, *state);
  if (auto cached = cache_.Get(key)) {
    hits_.Add();
    RecordCompletion(start);
    return *cached;
  }
  misses_.Add();
  double eta;
  if (options_.kernel_mode.has_value()) {
    const nn::KernelModeScope scope(*options_.kernel_mode);
    eta = state->model->Predict(od);
  } else {
    eta = state->model->Predict(od);
  }
  cache_.Put(key, eta);
  RecordCompletion(start);
  return eta;
}

std::optional<std::future<double>> EtaService::TrySubmit(
    const traj::OdInput& od, std::chrono::nanoseconds timeout) {
  Pending pending;
  pending.od = od;
  pending.enqueued = std::chrono::steady_clock::now();
  std::future<double> future = pending.promise.get_future();
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    const bool room = queue_not_full_.wait_for(lock, timeout, [this] {
      return stopping_ || queue_.size() < options_.queue_capacity;
    });
    if (!room) return std::nullopt;  // still full after `timeout`: shed
    if (stopping_) {
      pending.promise.set_exception(std::make_exception_ptr(
          std::runtime_error("EtaService: shutting down")));
      return future;
    }
    queue_.push_back(std::move(pending));
    queue_depth_.Set(static_cast<double>(queue_.size()));
  }
  queue_not_empty_.notify_one();
  return future;
}

std::vector<double> EtaService::EstimateBatch(
    std::span<const traj::OdInput> ods, util::ThreadPool* pool) {
  if (ods.empty()) return {};
  const auto start = std::chrono::steady_clock::now();
  // One state snapshot answers the whole batch: a concurrent SwapState
  // never splits it across models or cache generations.
  const std::shared_ptr<const ServingState> state = this->state();
  std::vector<double> out(ods.size(), 0.0);
  std::vector<size_t> miss_index;
  std::vector<traj::OdInput> miss_ods;
  std::vector<OdCacheKey> miss_keys;
  for (size_t i = 0; i < ods.size(); ++i) {
    const OdCacheKey key = MakeKeyForState(ods[i], *state);
    if (auto cached = cache_.Get(key)) {
      hits_.Add();
      out[i] = *cached;
    } else {
      misses_.Add();
      miss_index.push_back(i);
      miss_ods.push_back(ods[i]);
      miss_keys.push_back(key);
    }
  }
  batch_assembly_.Observe(
      SecondsSince(start, std::chrono::steady_clock::now()));
  if (!miss_ods.empty()) {
    std::vector<double> etas;
    if (options_.kernel_mode.has_value()) {
      const nn::KernelModeScope scope(*options_.kernel_mode);
      etas = state->model->PredictBatch(miss_ods, pool);
    } else {
      etas = state->model->PredictBatch(miss_ods, pool);
    }
    for (size_t m = 0; m < miss_index.size(); ++m) {
      cache_.Put(miss_keys[m], etas[m]);
      out[miss_index[m]] = etas[m];
    }
  }
  // Per-request latency is the whole batch's wall time — that is what a
  // caller of the batch actually waited.
  for (size_t i = 0; i < ods.size(); ++i) RecordCompletion(start);
  batches_.Add();
  batched_requests_.Add(ods.size());
  return out;
}

void EtaService::PauseDispatcherForTest(bool paused) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    paused_for_test_ = paused;
  }
  queue_not_empty_.notify_all();
}

void EtaService::DispatchLoop() {
  std::vector<Pending> batch;
  batch.reserve(options_.max_batch);
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_not_empty_.wait(lock, [this] {
        return stopping_ || (!paused_for_test_ && !queue_.empty());
      });
      if (queue_.empty()) return;  // stopping, queue drained
      const size_t take = std::min(options_.max_batch, queue_.size());
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      queue_depth_.Set(static_cast<double>(queue_.size()));
    }
    queue_not_full_.notify_all();

    // One state snapshot per drained batch: everything below — cache keys,
    // the forward, the answers cached back — is consistent with the epoch
    // current at dequeue time, even while a reloader flips the pointer.
    const std::shared_ptr<const ServingState> state = this->state();

    // Batch assembly: resolve cache hits and collect the miss list; the
    // queue-wait histogram records how long each request sat in the queue.
    const auto assembly_start = std::chrono::steady_clock::now();
    std::vector<size_t> miss_index;
    std::vector<traj::OdInput> miss_ods;
    std::vector<OdCacheKey> miss_keys;
    for (size_t i = 0; i < batch.size(); ++i) {
      queue_wait_.Observe(SecondsSince(batch[i].enqueued, assembly_start));
      const OdCacheKey key = MakeKeyForState(batch[i].od, *state);
      if (auto cached = cache_.Get(key)) {
        hits_.Add();
        // Record before set_value: a caller unblocked by the future may
        // read StatsSnapshot immediately and must see this request counted.
        RecordCompletion(batch[i].enqueued);
        batch[i].promise.set_value(*cached);
      } else {
        misses_.Add();
        miss_index.push_back(i);
        miss_ods.push_back(batch[i].od);
        miss_keys.push_back(key);
      }
    }
    const auto assembly_end = std::chrono::steady_clock::now();
    batch_assembly_.Observe(SecondsSince(assembly_start, assembly_end));
    if (obs::TraceEnabled()) {
      obs::AppendTraceEvent("serve/batch_assembly", assembly_start,
                            assembly_end);
    }
    if (!miss_ods.empty()) {
      std::vector<double> etas;
      if (options_.kernel_mode.has_value()) {
        // PredictBatch pool workers inherit the dispatcher's mode.
        const nn::KernelModeScope scope(*options_.kernel_mode);
        etas = state->model->PredictBatch(miss_ods, pool_.get());
      } else {
        etas = state->model->PredictBatch(miss_ods, pool_.get());
      }
      for (size_t m = 0; m < miss_index.size(); ++m) {
        cache_.Put(miss_keys[m], etas[m]);
        RecordCompletion(batch[miss_index[m]].enqueued);
        batch[miss_index[m]].promise.set_value(etas[m]);
      }
      if (obs::TraceEnabled()) {
        obs::AppendTraceEvent("serve/batch_predict", assembly_end,
                              std::chrono::steady_clock::now());
      }
    }
    batches_.Add();
    batched_requests_.Add(batch.size());
  }
}

EtaServiceStats EtaService::StatsSnapshot() const {
  EtaServiceStats stats;
  stats.requests = requests_.Value();
  stats.cache_hits = hits_.Value();
  stats.cache_misses = misses_.Value();
  stats.batches = batches_.Value();
  const uint64_t batched = batched_requests_.Value();
  stats.avg_batch_size =
      stats.batches == 0
          ? 0.0
          : static_cast<double>(batched) / static_cast<double>(stats.batches);
  stats.swaps = swaps_.Value();
  stats.epoch = state()->epoch;
  stats.p50_ms = latency_.Percentile(0.50) * 1e3;
  stats.p95_ms = latency_.Percentile(0.95) * 1e3;
  stats.p99_ms = latency_.Percentile(0.99) * 1e3;
  const double elapsed =
      SecondsSince(start_time_, std::chrono::steady_clock::now());
  stats.qps = elapsed > 0.0 ? static_cast<double>(stats.requests) / elapsed
                            : 0.0;
  return stats;
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
