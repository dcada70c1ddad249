#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

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
      pool_(util::ThreadPool::ResolveThreadCount(model.config().num_threads)) {
  if (feed_ == nullptr) {
    owned_feed_ = std::make_unique<InMemoryTripFeed>(dataset.train);
    feed_ = owned_feed_.get();
  }
  // A batch splits into at most batch_size chunks, so a larger pool needs no
  // more arenas than that.
  const size_t chunks =
      std::min(num_threads(), std::max<size_t>(1, model_.config().batch_size));
  const auto params = model_.Parameters();
  arenas_.reserve(chunks);
  for (size_t w = 0; w < chunks; ++w) {
    arenas_.emplace_back(std::make_unique<nn::GradArena>(params));
  }
  bn_logs_.resize(chunks);
  if (obs::MetricsEnabled()) {
    // Grad-arena occupancy: the detached gradient buffers the trainer holds
    // beside the parameter gradients.
    size_t param_doubles = 0;
    for (const auto& p : params) param_doubles += p.size();
    obs::Registry::Global()
        .gauge("trainer/grad_arena_bytes")
        .Set(static_cast<double>(arenas_.size() * param_doubles *
                                 sizeof(double)));
    obs::Registry::Global()
        .gauge("trainer/threads")
        .Set(static_cast<double>(num_threads()));
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
  // Graph-free batched evaluation.
  std::vector<traj::OdInput> ods(n);
  for (size_t i = 0; i < n; ++i) ods[i] = dataset_.validation[i].od;
  const std::vector<double> preds = model_.PredictBatch(ods, &pool_);
  // PredictBatch's answers do not depend on its chunking, and the errors
  // are summed in index order into one accumulator, so the MAE is a
  // function of the weights alone, whatever the thread count.
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += std::fabs(preds[i] - dataset_.validation[i].travel_time);
  }
  model_.SetTraining(true);
  return sum / static_cast<double>(n);
}

void DeepOdTrainer::AccumulateBatch(size_t pos, size_t batch_n, size_t bs) {
  const size_t tasks = std::min(num_threads(), batch_n);
  pool_.ParallelFor(tasks, [&](size_t w) {
    const auto [begin, end] = util::ThreadPool::ChunkRange(batch_n, tasks, w);
    // All shared-parameter gradient writes of this chunk land in arena `w`;
    // BatchNorm running-statistic updates are logged instead of applied.
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
  // the running-statistic updates in sample order. Each arena accumulated
  // from +0.0 and merges into gradients ZeroGrad just set to +0.0, so with
  // one chunk the gradient equals per-sample backward into the parameters.
  for (size_t w = 0; w < tasks; ++w) {
    arenas_[w]->MergeIntoParamsAndReset();
    for (const auto& rec : bn_logs_[w]) rec.bn->ApplyMomentumUpdate(rec.mu, rec.var);
    bn_logs_[w].clear();
  }
}

double DeepOdTrainer::TrainPrefix(int end_epoch, const StepCallback& callback,
                                  size_t eval_every, size_t max_val_samples) {
  if (callback && eval_every == 0) {
    throw std::invalid_argument(
        "DeepOdTrainer: eval_every must be positive when a step callback is "
        "set");
  }
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
    for (size_t pos = 0; pos < n;) {
      const size_t batch_n = std::min(bs, n - pos);
      {
        OBS_SPAN("trainer/forward_backward");
        feed_->PrefetchWindow(pos, batch_n);
        AccumulateBatch(pos, batch_n, bs);
      }
      {
        OBS_SPAN("trainer/optimizer");
        optimizer_.ClipGradNorm(config.grad_clip);
        optimizer_.Step();
        optimizer_.ZeroGrad();
      }
      ++step_;
      // The trailing partial batch steps but never fires the callback.
      if (callback && batch_n == bs && step_ % eval_every == 0) {
        callback(step_, ValidationMae(max_val_samples));
      }
      pos += batch_n;
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

nn::StateDict DeepOdTrainer::CheckpointState(CheckpointFields& fields) {
  nn::StateDict ckpt = model_.State("model.");
  optimizer_.AppendState("optim.", ckpt);
  // Zero-filled until the first end-of-epoch validation snapshots a state.
  if (best_state_.empty()) {
    best_state_.assign(model_.State().NumElements(), 0.0);
  }
  ckpt.AddScalarBuffer("trainer.step", &fields.step);
  ckpt.AddScalarBuffer("trainer.epoch", &fields.epoch);
  // best_val is +inf before the first validation; the RNG words are raw
  // bits. Neither is model state, so neither is held to the finite check.
  ckpt.AddScalarBuffer("trainer.best_val", &best_val_,
                       nn::StateDict::Values::kAny);
  ckpt.AddBuffer("trainer.rng", {fields.rng_bits.size()},
                 fields.rng_bits.data(), nn::StateDict::Values::kAny);
  ckpt.AddBuffer("trainer.order", {fields.order.size()}, fields.order.data());
  ckpt.AddBuffer("trainer.best_state", {best_state_.size()},
                 best_state_.data());
  return ckpt;
}

void DeepOdTrainer::SaveCheckpoint(const std::string& path) {
  // Counters are exact as doubles; the RNG words are bit-cast so the
  // xoshiro stream resumes exactly.
  CheckpointFields fields;
  fields.step = static_cast<double>(step_);
  fields.epoch = static_cast<double>(epoch_);
  const std::vector<uint64_t> rng_state = rng_.SaveState();
  fields.rng_bits.resize(rng_state.size());
  std::memcpy(fields.rng_bits.data(), rng_state.data(),
              rng_state.size() * sizeof(uint64_t));
  const std::vector<size_t>& order = feed_->order();
  fields.order.assign(order.begin(), order.end());
  nn::ThrowIfError(nn::SaveStateDict(path, CheckpointState(fields)));
}

void DeepOdTrainer::LoadCheckpoint(const std::string& path) {
  CheckpointFields fields;
  fields.rng_bits.assign(util::Rng().SaveState().size(), 0.0);
  fields.order.assign(feed_->order().size(), 0.0);
  nn::StateDict ckpt = CheckpointState(fields);
  nn::ThrowIfError(nn::LoadStateDict(path, ckpt));
  step_ = static_cast<size_t>(std::llround(fields.step));
  epoch_ = static_cast<int>(std::llround(fields.epoch));
  std::vector<size_t>& order = feed_->order();
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<size_t>(std::llround(fields.order[i]));
  }
  feed_->NotifyOrderChanged();
  std::vector<uint64_t> rng_state(fields.rng_bits.size());
  std::memcpy(rng_state.data(), fields.rng_bits.data(),
              fields.rng_bits.size() * sizeof(double));
  rng_.RestoreState(rng_state);
  model_.ClearOcodeMemo();
}

std::vector<double> DeepOdTrainer::PredictAll(
    const std::vector<traj::TripRecord>& trips) {
  model_.SetTraining(false);
  if (trips.empty()) return {};
  std::vector<traj::OdInput> ods(trips.size());
  for (size_t i = 0; i < trips.size(); ++i) ods[i] = trips[i].od;
  return model_.PredictBatch(ods, &pool_);
}

}  // namespace deepod::core
