#ifndef DEEPOD_TESTS_REFERENCE_TRAINER_H_
#define DEEPOD_TESTS_REFERENCE_TRAINER_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "core/deepod_model.h"
#include "core/trip_feed.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "sim/dataset.h"
#include "util/rng.h"

// Algorithm 1's ModelTrain as a plain per-sample loop: the test oracle that
// core::DeepOdTrainer at one worker must match bit for bit. Every sample's
// scaled loss runs Backward straight into the parameter gradients and
// updates the BatchNorm running statistics inline, with no gradient arena,
// no deferred BatchNorm replay and no thread pool; every batch then clips
// the gradient norm and takes one Adam step.

namespace deepod::core::reference {

class SerialTrainer {
 public:
  SerialTrainer(DeepOdModel& model, const sim::Dataset& dataset)
      : model_(model),
        dataset_(dataset),
        optimizer_(model.Parameters(), model.config().learning_rate),
        rng_(model.config().seed ^ 0xbadc0ffeull),
        feed_(dataset.train) {}

  // Trains epochs [0, end_epoch) and returns the last end-of-epoch
  // validation MAE over at most `max_val_samples` trips.
  double TrainPrefix(int end_epoch, size_t max_val_samples = 200) {
    const DeepOdConfig& config = model_.config();
    const size_t n = feed_.size();
    const size_t bs = std::max<size_t>(1, config.batch_size);
    model_.SetTraining(true);
    double last_val = std::numeric_limits<double>::quiet_NaN();
    for (int epoch = 0; epoch < std::min(end_epoch, config.epochs); ++epoch) {
      // §6.1: the learning rate decays by a fixed factor every few epochs.
      optimizer_.set_learning_rate(
          config.learning_rate *
          std::pow(config.lr_decay_factor,
                   static_cast<double>(epoch / config.lr_decay_epochs)));
      feed_.BeginEpoch(rng_);
      optimizer_.ZeroGrad();
      size_t in_batch = 0;
      for (size_t pos = 0; pos < n; ++pos) {
        nn::Tensor loss = nn::Scale(model_.SampleLoss(feed_.At(pos)),
                                    1.0 / static_cast<double>(bs));
        loss.Backward();
        if (++in_batch == bs || pos + 1 == n) {
          optimizer_.ClipGradNorm(config.grad_clip);
          optimizer_.Step();
          optimizer_.ZeroGrad();
          in_batch = 0;
        }
      }
      last_val = ValidationMae(max_val_samples);
    }
    return last_val;
  }

  // Mean absolute error in seconds of per-query Predict over the first
  // `max_samples` validation trips, summed in trip order.
  double ValidationMae(size_t max_samples) {
    model_.SetTraining(false);
    const size_t n = std::min(max_samples, dataset_.validation.size());
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += std::fabs(model_.Predict(dataset_.validation[i].od) -
                       dataset_.validation[i].travel_time);
    }
    model_.SetTraining(true);
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }

  nn::Adam& optimizer() { return optimizer_; }

 private:
  DeepOdModel& model_;
  const sim::Dataset& dataset_;
  nn::Adam optimizer_;
  util::Rng rng_;
  InMemoryTripFeed feed_;
};

}  // namespace deepod::core::reference

#endif  // DEEPOD_TESTS_REFERENCE_TRAINER_H_
