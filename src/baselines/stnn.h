#ifndef DEEPOD_BASELINES_STNN_H_
#define DEEPOD_BASELINES_STNN_H_

#include <memory>
#include <vector>

#include <functional>

#include "baselines/baseline.h"
#include "nn/module.h"
#include "nn/optimizer.h"

namespace deepod::baselines {

// STNN (Jindal et al. 2017): a two-stage neural network that first predicts
// the travel *distance* from the raw OD coordinates, then combines the
// predicted distance with the temporal features to predict travel time.
// Per the paper's critique (§6.4), it uses no road-network information —
// only coordinates and time — which is why it trails the embedding-based
// models.
class StnnEstimator : public OdEstimator {
 public:
  struct Options {
    size_t hidden_dim = 32;
    int epochs = 8;
    size_t batch_size = 32;
    double learning_rate = 0.01;
    double distance_loss_weight = 0.3;
    uint64_t seed = 11;
    // Optional instrumentation: invoked every eval_every optimiser steps
    // with (step, validation MAE seconds). Drives Fig. 10 / Table 3.
    // Train throws std::invalid_argument if it is set and eval_every is 0.
    std::function<void(size_t, double)> step_callback;
    size_t eval_every = 25;
  };

  StnnEstimator();
  explicit StnnEstimator(Options options);

  std::string name() const override { return "STNN"; }
  void Train(const sim::Dataset& dataset) override;
  double Predict(const traj::OdInput& od) const override;
  size_t ModelSizeBytes() const override;

 private:
  // Spatial features [ox, oy, dx, dy] (normalised) and temporal features
  // (time harmonics + weekend flag).
  std::vector<double> SpatialFeatures(const traj::OdInput& od) const;
  std::vector<double> TemporalFeatures(const traj::OdInput& od) const;
  nn::Tensor ForwardDistance(const traj::OdInput& od) const;
  nn::Tensor ForwardTime(const traj::OdInput& od, const nn::Tensor& dist) const;

  Options options_;
  const road::RoadNetwork* net_ = nullptr;
  double time_scale_ = 1.0;
  double dist_scale_ = 1.0;
  std::unique_ptr<nn::Mlp2> distance_net_;
  std::unique_ptr<nn::Mlp2> time_net_;
};

}  // namespace deepod::baselines

#endif  // DEEPOD_BASELINES_STNN_H_
