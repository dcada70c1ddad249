#ifndef DEEPOD_CORE_TRAINER_H_
#define DEEPOD_CORE_TRAINER_H_

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/deepod_model.h"
#include "core/trip_feed.h"
#include "nn/conv.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"
#include "sim/dataset.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace deepod::core {

// Offline training / online estimation driver implementing Algorithm 1's
// ModelTrain and Estimation procedures for DeepOD.
//
// Threading: the trainer owns a util::ThreadPool of config.num_threads
// workers (0 = auto via DEEPOD_THREADS / hardware concurrency). Every
// mini-batch is split into contiguous chunks of samples, one per worker;
// each chunk runs forward+backward into its own detached gradient arena and
// records its BatchNorm running-statistic updates, and the trainer merges
// the arenas and replays the BN updates in chunk order before the optimiser
// step. A one-worker pool runs the single chunk inline, which is
// bit-identical to per-sample backward into the parameter gradients; a
// multi-worker pool is deterministic for a fixed thread count (see
// DESIGN.md, "Threading model").
class DeepOdTrainer {
 public:
  // Invoked every `eval_every` optimisation steps with (step, validation
  // MAE in seconds). Drives the Fig. 10 convergence curves.
  using StepCallback = std::function<void(size_t step, double val_mae)>;

  // Trains from dataset.train through an internally owned InMemoryTripFeed.
  DeepOdTrainer(DeepOdModel& model, const sim::Dataset& dataset);

  // Trains from an external TripFeed (e.g. io::ShardedTripSource for
  // out-of-core epochs over on-disk shards). `feed` is not owned and must
  // outlive the trainer; `dataset` still provides the validation/test
  // splits and the model environment. Passing nullptr falls back to the
  // owned in-memory feed over dataset.train.
  DeepOdTrainer(DeepOdModel& model, const sim::Dataset& dataset,
                TripFeed* feed);

  // Trains from the last completed epoch through model.config().epochs;
  // returns the final validation MAE (seconds) after restoring the
  // best-validation state. `callback` may be null. Validation is evaluated
  // on at most `max_val_samples` trips for speed. The full model state
  // (parameters AND BatchNorm running statistics AND the time scale) is
  // snapshotted at every end-of-epoch validation and the best snapshot is
  // restored at the end (the paper tunes on the validation split, §6.1).
  // Throws std::invalid_argument if `callback` is set and `eval_every` is 0.
  double Train(const StepCallback& callback = nullptr, size_t eval_every = 25,
               size_t max_val_samples = 200);

  // Trains up to `end_epoch` (exclusive, clamped to config.epochs) WITHOUT
  // the final best-epoch restore, so training can be split across process
  // lifetimes: run a prefix, SaveCheckpoint, and a fresh trainer that
  // LoadCheckpoints and calls Train() finishes bit-identically to an
  // uninterrupted run. Returns the last end-of-epoch validation MAE (or the
  // current one when no epoch runs).
  double TrainPrefix(int end_epoch, const StepCallback& callback = nullptr,
                     size_t eval_every = 25, size_t max_val_samples = 200);

  // Resumable checkpoints (tagged state-dict files): the complete model
  // state ("model.*"), the Adam moments and step count ("optim.*"), the
  // shuffle RNG state, epoch/step counters and the best-validation
  // bookkeeping ("trainer.*"). LoadCheckpoint restores all of it into this
  // trainer and its model; the model must have been constructed with the
  // same config and dataset shape. Both throw nn::SerializeError on
  // failure, naming the first offending tensor.
  void SaveCheckpoint(const std::string& path);
  void LoadCheckpoint(const std::string& path);

  // Epochs completed so far (the next Train/TrainPrefix starts here).
  int completed_epochs() const { return epoch_; }
  // Best end-of-epoch validation MAE seen so far (+inf before the first).
  double best_validation_mae() const { return best_val_; }

  // Mean validation MAE in seconds over up to `max_samples` trips.
  double ValidationMae(size_t max_samples = 200);

  // Predicted travel time (seconds) for every test trip.
  std::vector<double> PredictAll(const std::vector<traj::TripRecord>& trips);

  size_t steps_taken() const { return step_; }
  size_t num_threads() const { return pool_.num_threads(); }

 private:
  // The checkpoint's trainer.* values staged as doubles (a state dict holds
  // doubles): counters, the shuffle RNG words bit-cast, the epoch order.
  struct CheckpointFields {
    double step = 0.0;
    double epoch = 0.0;
    std::vector<double> rng_bits;
    std::vector<double> order;
  };

  // Runs forward+backward for the feed's epoch positions [pos, pos+batch_n)
  // across the worker chunks, leaving the merged mean-of-batch gradient
  // (scaled by 1/bs) in the parameters and the BatchNorm running statistics
  // updated in sample order. The caller must have prefetched the range.
  void AccumulateBatch(size_t pos, size_t batch_n, size_t bs);

  // The checkpoint schema, shared by SaveCheckpoint and LoadCheckpoint:
  // "model.*", "optim.*", then the trainer.* entries, which point into
  // `fields`, best_val_ and best_state_ (sized here on first use).
  nn::StateDict CheckpointState(CheckpointFields& fields);

  DeepOdModel& model_;
  const sim::Dataset& dataset_;
  nn::Adam optimizer_;
  size_t step_ = 0;

  // Resume state: epoch/shuffle-RNG/best bookkeeping live on the trainer so
  // a checkpoint can capture them (see SaveCheckpoint).
  util::Rng rng_;
  int epoch_ = 0;  // completed epochs
  double best_val_ = std::numeric_limits<double>::infinity();
  std::vector<double> best_state_;  // flat model-state snapshot at best epoch
  // Training-sample source. The feed owns the epoch visit order (shuffled
  // by BeginEpoch at the start of every epoch, so epoch k permutes the
  // order epoch k-1 left behind, exactly as the original in-function local
  // did); the order is checkpointed so a resumed run replays the same
  // sample sequence an uninterrupted run would.
  std::unique_ptr<TripFeed> owned_feed_;  // set when no external feed given
  TripFeed* feed_;

  // One per batch chunk: min(num_threads, batch_size) of each.
  std::vector<std::unique_ptr<nn::GradArena>> arenas_;
  std::vector<nn::BnStatsLog> bn_logs_;
  util::ThreadPool pool_;  // last: its workers are joined before the above go
};

}  // namespace deepod::core

#endif  // DEEPOD_CORE_TRAINER_H_
