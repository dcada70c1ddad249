#ifndef DEEPOD_BASELINES_MURAT_H_
#define DEEPOD_BASELINES_MURAT_H_

#include <memory>
#include <vector>

#include <functional>

#include "baselines/baseline.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "temporal/time_slot.h"

namespace deepod::baselines {

// MURAT (Li et al., KDD 2018): multi-task representation learning for OD
// travel time. Per the paper's §7.1 characterisation, MURAT (a) embeds the
// *longitude/latitude* of the origin and destination — realised here as
// learned embeddings of the spatial grid cells containing the raw points,
// pre-trained on the (undirected) grid-adjacency graph — rather than
// map-matched road segments, (b) uses an undirected daily temporal graph
// with no neighbouring-day edges, and (c) never exploits the historical
// trajectory; supervision is a multi-task head predicting both travel time
// and travel distance.
class MuratEstimator : public OdEstimator {
 public:
  struct Options {
    size_t cell_dim = 16;     // lat/lng grid-cell embedding size
    size_t time_dim = 16;
    size_t hidden_dim = 64;
    double cell_size_m = 400.0;
    double slot_seconds = 300.0;
    int epochs = 8;
    size_t batch_size = 32;
    double learning_rate = 0.01;
    double distance_loss_weight = 0.3;
    uint64_t seed = 13;
    // Optional instrumentation: invoked every eval_every optimiser steps
    // with (step, validation MAE seconds). Drives Fig. 10 / Table 3.
    // Train throws std::invalid_argument if it is set and eval_every is 0.
    std::function<void(size_t, double)> step_callback;
    size_t eval_every = 25;
  };

  MuratEstimator();
  explicit MuratEstimator(Options options);

  std::string name() const override { return "MURAT"; }
  void Train(const sim::Dataset& dataset) override;
  double Predict(const traj::OdInput& od) const override;
  size_t ModelSizeBytes() const override;

 private:
  size_t CellOf(const road::Point& p) const;
  nn::Tensor Trunk(const traj::OdInput& od) const;

  Options options_;
  const road::RoadNetwork* net_ = nullptr;
  temporal::TimeSlotter slotter_{0.0, 300.0};
  double time_scale_ = 1.0;
  double dist_scale_ = 1.0;
  road::Point grid_lo_;
  size_t grid_nx_ = 0, grid_ny_ = 0;
  std::unique_ptr<nn::Embedding> cell_embedding_;
  std::unique_ptr<nn::Embedding> time_embedding_;
  std::unique_ptr<nn::Mlp2> trunk_;
  std::unique_ptr<nn::Linear> time_head_;
  std::unique_ptr<nn::Linear> dist_head_;
};

}  // namespace deepod::baselines

#endif  // DEEPOD_BASELINES_MURAT_H_
