#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "nn/ops.h"
#include "nn/serialize.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace deepod::core {
namespace {

// Copies every state-dict entry's values into one flat vector (and back).
// Used for the in-memory best-epoch snapshot: it covers buffers (BatchNorm
// running statistics, the time scale) as well as parameters, so restoring
// the best epoch also restores the running statistics of that epoch.
void FlattenState(const nn::StateDict& state, std::vector<double>& out) {
  out.resize(state.NumElements());
  size_t offset = 0;
  for (const auto& e : state.entries()) {
    std::copy_n(e.data, e.size, out.data() + offset);
    offset += e.size;
  }
}

void UnflattenState(const std::vector<double>& flat, const nn::StateDict& state) {
  size_t offset = 0;
  for (const auto& e : state.entries()) {
    std::copy_n(flat.data() + offset, e.size, e.data);
    offset += e.size;
  }
  nn::BumpParamEpoch();  // parameter storage changed in place
}

}  // namespace

DeepOdTrainer::DeepOdTrainer(DeepOdModel& model, const sim::Dataset& dataset)
    : DeepOdTrainer(model, dataset, nullptr) {}

DeepOdTrainer::DeepOdTrainer(DeepOdModel& model, const sim::Dataset& dataset,
                             TripFeed* feed)
    : model_(model),
      dataset_(dataset),
      optimizer_(model.Parameters(), model.config().learning_rate),
      rng_(model.config().seed ^ 0xbadc0ffeull),
      feed_(feed),
      num_threads_(
          util::ThreadPool::ResolveThreadCount(model.config().num_threads)) {
  if (feed_ == nullptr) {
    owned_feed_ = std::make_unique<InMemoryTripFeed>(dataset.train);
    feed_ = owned_feed_.get();
  }
  if (num_threads_ > 1) {
    pool_ = std::make_unique<util::ThreadPool>(num_threads_);
    auto params = model_.Parameters();
    arenas_.reserve(num_threads_);
    for (size_t w = 0; w < num_threads_; ++w) {
      arenas_.emplace_back(std::make_unique<nn::GradArena>(params));
    }
    bn_logs_.resize(num_threads_);
  }
  if (obs::MetricsEnabled()) {
    // Grad-arena occupancy: detached gradient buffers held per worker (the
    // data-parallel path's extra memory footprint vs. serial training).
    size_t param_doubles = 0;
    for (const auto& p : model_.Parameters()) param_doubles += p.size();
    obs::Registry::Global()
        .gauge("trainer/grad_arena_bytes")
        .Set(static_cast<double>(arenas_.size() * param_doubles *
                                 sizeof(double)));
    obs::Registry::Global()
        .gauge("trainer/threads")
        .Set(static_cast<double>(num_threads_));
  }
}

double DeepOdTrainer::ValidationMae(size_t max_samples) {
  OBS_SPAN("trainer/validation");
  model_.SetTraining(false);
  const size_t n = std::min(max_samples, dataset_.validation.size());
  if (n == 0) {
    model_.SetTraining(true);
    return 0.0;
  }
  // Graph-free batched evaluation. The serial path is bit-identical to the
  // historical per-sample Predict loop (PredictBatch's contract); the
  // parallel path keeps the vectorised kernels the data-parallel trainer
  // always used for evaluation.
  std::vector<traj::OdInput> ods(n);
  for (size_t i = 0; i < n; ++i) ods[i] = dataset_.validation[i].od;
  std::vector<double> preds;
  if (pool_ == nullptr) {
    preds = model_.PredictBatch(ods);
  } else {
    nn::KernelModeScope mode_scope(nn::KernelMode::kVector);
    preds = model_.PredictBatch(ods, pool_.get());
  }
  double sum = 0.0;
  if (pool_ == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      sum += std::fabs(preds[i] - dataset_.validation[i].travel_time);
    }
  } else {
    // Merge in chunk order, matching the historical parallel reduction so
    // the result stays stable for a fixed thread count.
    const size_t tasks = std::min(num_threads_, n);
    for (size_t w = 0; w < tasks; ++w) {
      const auto [begin, end] = util::ThreadPool::ChunkRange(n, tasks, w);
      double s = 0.0;
      for (size_t i = begin; i < end; ++i) {
        s += std::fabs(preds[i] - dataset_.validation[i].travel_time);
      }
      sum += s;
    }
  }
  model_.SetTraining(true);
  return sum / static_cast<double>(n);
}

void DeepOdTrainer::AccumulateBatchParallel(size_t pos, size_t batch_n,
                                            size_t bs) {
  const size_t tasks = std::min(num_threads_, batch_n);
  obs::Gauge* queue_depth = nullptr;
  if (obs::MetricsEnabled()) {
    queue_depth = &obs::Registry::Global().gauge("trainer/pool/queue_depth");
    queue_depth->Set(static_cast<double>(tasks));
  }
  pool_->ParallelFor(tasks, [&](size_t w) {
    const auto [begin, end] = util::ThreadPool::ChunkRange(batch_n, tasks, w);
    // All shared-parameter gradient writes of this chunk land in arena `w`;
    // BatchNorm running-statistic updates are logged instead of applied.
    // The parallel trainer also opts into the vectorised kernels (the
    // serial num_threads == 1 path never reaches here and stays on the
    // bit-identical default kernels).
    nn::KernelModeScope mode_scope(nn::KernelMode::kVector);
    nn::GradArenaScope arena_scope(arenas_[w].get());
    nn::BnCaptureScope bn_scope(&bn_logs_[w]);
    for (size_t i = begin; i < end; ++i) {
      nn::Tensor loss = nn::Scale(model_.SampleLoss(feed_->At(pos + i)),
                                  1.0 / static_cast<double>(bs));
      loss.Backward();
    }
  });
  // Merge arenas and replay the deferred BatchNorm updates in chunk order.
  // Chunks are contiguous ascending sample ranges, so the replay applies
  // the running-statistic updates in exactly the serial sample order.
  for (size_t w = 0; w < tasks; ++w) {
    arenas_[w]->MergeIntoParamsAndReset();
    for (const auto& rec : bn_logs_[w]) rec.bn->ApplyMomentumUpdate(rec.mu, rec.var);
    bn_logs_[w].clear();
  }
  if (queue_depth != nullptr) queue_depth->Set(0.0);
}

double DeepOdTrainer::TrainPrefix(int end_epoch, const StepCallback& callback,
                                  size_t eval_every, size_t max_val_samples) {
  const auto& config = model_.config();
  const int last_epoch = std::min(end_epoch, config.epochs);
  const size_t n = feed_->size();

  model_.SetTraining(true);
  const size_t bs = std::max<size_t>(1, config.batch_size);
  double last_val = std::numeric_limits<double>::quiet_NaN();
  for (int epoch = epoch_; epoch < last_epoch; ++epoch) {
    OBS_SPAN("trainer/epoch");
    // §6.1: learning rate reduced by the decay factor every 2 epochs.
    const double lr =
        config.learning_rate *
        std::pow(config.lr_decay_factor,
                 static_cast<double>(epoch / config.lr_decay_epochs));
    optimizer_.set_learning_rate(lr);
    feed_->BeginEpoch(rng_);  // Algorithm 1, ModelTrain line 2
    optimizer_.ZeroGrad();
    if (pool_ == nullptr) {
      // Legacy serial path (num_threads == 1): operation sequence kept
      // verbatim so results stay bit-identical to the pre-threading
      // implementation (the in-memory feed's At is exactly the historical
      // train[order[pos]] lookup and its prefetch is a no-op).
      size_t in_batch = 0;
      for (size_t pos = 0; pos < n; ++pos) {
        if (in_batch == 0) feed_->PrefetchWindow(pos, std::min(bs, n - pos));
        {
          OBS_SPAN("trainer/forward_backward");
          // Per-sample backward accumulates gradients; scaling by 1/bs makes
          // the accumulated gradient the mini-batch mean (Algorithm 1 trains
          // on mini-batches).
          nn::Tensor loss =
              nn::Scale(model_.SampleLoss(feed_->At(pos)),
                        1.0 / static_cast<double>(bs));
          loss.Backward();
        }
        if (++in_batch == bs) {
          {
            OBS_SPAN("trainer/optimizer");
            optimizer_.ClipGradNorm(config.grad_clip);
            optimizer_.Step();
            optimizer_.ZeroGrad();
          }
          in_batch = 0;
          ++step_;
          if (callback && step_ % eval_every == 0) {
            callback(step_, ValidationMae(max_val_samples));
          }
        }
      }
      if (in_batch > 0) {
        OBS_SPAN("trainer/optimizer");
        optimizer_.ClipGradNorm(config.grad_clip);
        optimizer_.Step();
        optimizer_.ZeroGrad();
        ++step_;
      }
    } else {
      // Data-parallel path: each mini-batch fans out over the pool.
      size_t pos = 0;
      while (pos < n) {
        const size_t batch_n = std::min(bs, n - pos);
        {
          OBS_SPAN("trainer/forward_backward");
          feed_->PrefetchWindow(pos, batch_n);
          AccumulateBatchParallel(pos, batch_n, bs);
        }
        {
          OBS_SPAN("trainer/optimizer");
          optimizer_.ClipGradNorm(config.grad_clip);
          optimizer_.Step();
          optimizer_.ZeroGrad();
        }
        ++step_;
        // Mirrors the serial path: the trailing partial batch steps but
        // never fires the callback.
        if (callback && batch_n == bs && step_ % eval_every == 0) {
          callback(step_, ValidationMae(max_val_samples));
        }
        pos += batch_n;
      }
    }
    // End-of-epoch validation snapshot; the best epoch is restored by
    // Train() once the last epoch finishes. The snapshot is the full state
    // dict — parameters, BatchNorm running statistics and the time scale.
    const double epoch_val = ValidationMae(max_val_samples);
    last_val = epoch_val;
    if (epoch_val < best_val_) {
      best_val_ = epoch_val;
      FlattenState(model_.State(), best_state_);
    }
    epoch_ = epoch + 1;
  }
  if (std::isnan(last_val)) last_val = ValidationMae(max_val_samples);
  return last_val;
}

double DeepOdTrainer::Train(const StepCallback& callback, size_t eval_every,
                            size_t max_val_samples) {
  TrainPrefix(model_.config().epochs, callback, eval_every, max_val_samples);
  if (!best_state_.empty() && std::isfinite(best_val_)) {
    const nn::StateDict state = model_.State();
    UnflattenState(best_state_, state);
    model_.ClearOcodeMemo();
  }
  // Score the restored best state, then leave the model in inference mode:
  // ValidationMae toggles training back on for the next step, but after
  // Train() callers expect Predict to run BatchNorm off the frozen running
  // statistics (and not mutate them), matching what Save/WriteModelArtifact
  // just captured.
  const double final_mae = ValidationMae(max_val_samples);
  model_.SetTraining(false);
  return final_mae;
}

void DeepOdTrainer::EnsureBestState() {
  if (best_state_.empty()) {
    best_state_.assign(model_.State().NumElements(), 0.0);
  }
}

void DeepOdTrainer::SaveCheckpoint(const std::string& path) {
  nn::StateDict ckpt = model_.State("model.");
  optimizer_.AppendState("optim.", ckpt);
  // Trainer bookkeeping. Counters are exact as doubles; the RNG words are
  // bit-cast so the xoshiro stream resumes exactly.
  double step_value = static_cast<double>(step_);
  double epoch_value = static_cast<double>(epoch_);
  const std::vector<uint64_t> rng_state = rng_.SaveState();
  std::vector<double> rng_bits(rng_state.size());
  std::memcpy(rng_bits.data(), rng_state.data(),
              rng_state.size() * sizeof(uint64_t));
  const std::vector<size_t>& order = feed_->order();
  std::vector<double> order_values(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order_values[i] = static_cast<double>(order[i]);
  }
  EnsureBestState();
  ckpt.AddScalarBuffer("trainer.step", &step_value);
  ckpt.AddScalarBuffer("trainer.epoch", &epoch_value);
  // best_val is +inf before the first validation; the RNG words are raw
  // bits. Neither is model state, so neither is held to the finite check.
  ckpt.AddScalarBuffer("trainer.best_val", &best_val_,
                       nn::StateDict::Values::kAny);
  ckpt.AddBuffer("trainer.rng", {rng_bits.size()}, rng_bits.data(),
                 nn::StateDict::Values::kAny);
  ckpt.AddBuffer("trainer.order", {order_values.size()}, order_values.data());
  ckpt.AddBuffer("trainer.best_state", {best_state_.size()},
                 best_state_.data());
  nn::ThrowIfError(nn::SaveStateDict(path, ckpt));
}

void DeepOdTrainer::LoadCheckpoint(const std::string& path) {
  nn::StateDict ckpt = model_.State("model.");
  optimizer_.AppendState("optim.", ckpt);
  double step_value = 0.0;
  double epoch_value = 0.0;
  std::vector<double> rng_bits(util::Rng().SaveState().size(), 0.0);
  std::vector<double> order_values(feed_->order().size(), 0.0);
  EnsureBestState();
  ckpt.AddScalarBuffer("trainer.step", &step_value);
  ckpt.AddScalarBuffer("trainer.epoch", &epoch_value);
  // best_val is +inf before the first validation; the RNG words are raw
  // bits. Neither is model state, so neither is held to the finite check.
  ckpt.AddScalarBuffer("trainer.best_val", &best_val_,
                       nn::StateDict::Values::kAny);
  ckpt.AddBuffer("trainer.rng", {rng_bits.size()}, rng_bits.data(),
                 nn::StateDict::Values::kAny);
  ckpt.AddBuffer("trainer.order", {order_values.size()}, order_values.data());
  ckpt.AddBuffer("trainer.best_state", {best_state_.size()},
                 best_state_.data());
  nn::ThrowIfError(nn::LoadStateDict(path, ckpt));
  step_ = static_cast<size_t>(std::llround(step_value));
  epoch_ = static_cast<int>(std::llround(epoch_value));
  std::vector<size_t>& order = feed_->order();
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<size_t>(std::llround(order_values[i]));
  }
  feed_->NotifyOrderChanged();
  std::vector<uint64_t> rng_state(rng_bits.size());
  std::memcpy(rng_state.data(), rng_bits.data(),
              rng_bits.size() * sizeof(double));
  rng_.RestoreState(rng_state);
  model_.ClearOcodeMemo();
}

std::vector<double> DeepOdTrainer::PredictAll(
    const std::vector<traj::TripRecord>& trips) {
  model_.SetTraining(false);
  if (trips.empty()) return {};
  std::vector<traj::OdInput> ods(trips.size());
  for (size_t i = 0; i < trips.size(); ++i) ods[i] = trips[i].od;
  if (pool_ == nullptr) return model_.PredictBatch(ods);
  nn::KernelModeScope mode_scope(nn::KernelMode::kVector);
  return model_.PredictBatch(ods, pool_.get());
}

}  // namespace deepod::core
