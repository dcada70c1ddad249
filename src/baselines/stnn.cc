#include "baselines/stnn.h"

#include <cmath>
#include <stdexcept>

#include "nn/ops.h"
#include "temporal/time_slot.h"
#include "util/rng.h"

namespace deepod::baselines {

StnnEstimator::StnnEstimator() : StnnEstimator(Options{}) {}

StnnEstimator::StnnEstimator(Options options) : options_(options) {}

std::vector<double> StnnEstimator::SpatialFeatures(
    const traj::OdInput& od) const {
  road::Point lo, hi;
  net_->BoundingBox(&lo, &hi);
  const double sx = std::max(1.0, hi.x - lo.x);
  const double sy = std::max(1.0, hi.y - lo.y);
  return {(od.origin.x - lo.x) / sx, (od.origin.y - lo.y) / sy,
          (od.destination.x - lo.x) / sx, (od.destination.y - lo.y) / sy};
}

std::vector<double> StnnEstimator::TemporalFeatures(
    const traj::OdInput& od) const {
  const double day_frac =
      std::fmod(od.departure_time, temporal::kSecondsPerDay) /
      temporal::kSecondsPerDay;
  const int dow = static_cast<int>(
      std::fmod(od.departure_time, temporal::kSecondsPerWeek) /
      temporal::kSecondsPerDay);
  return {std::sin(2.0 * M_PI * day_frac), std::cos(2.0 * M_PI * day_frac),
          std::sin(4.0 * M_PI * day_frac), std::cos(4.0 * M_PI * day_frac),
          dow >= 5 ? 1.0 : 0.0};
}

nn::Tensor StnnEstimator::ForwardDistance(const traj::OdInput& od) const {
  return distance_net_->Forward(
      nn::Tensor::FromData({4}, SpatialFeatures(od)));
}

nn::Tensor StnnEstimator::ForwardTime(const traj::OdInput& od,
                                      const nn::Tensor& dist) const {
  const auto temporal_features = TemporalFeatures(od);
  const nn::Tensor tf = nn::Tensor::FromData(
      {temporal_features.size()}, temporal_features);
  return time_net_->Forward(nn::ConcatVec({dist, tf}));
}

void StnnEstimator::Train(const sim::Dataset& dataset) {
  if (options_.step_callback && options_.eval_every == 0) {
    throw std::invalid_argument(
        "StnnEstimator: eval_every must be positive when a step callback is set");
  }
  net_ = &dataset.network;
  util::Rng rng(options_.seed);
  distance_net_ = std::make_unique<nn::Mlp2>(4, options_.hidden_dim, 1, rng);
  time_net_ = std::make_unique<nn::Mlp2>(6, options_.hidden_dim, 1, rng);

  const auto& train = dataset.train;
  if (train.empty()) return;
  double time_sum = 0.0, dist_sum = 0.0;
  for (const auto& t : train) {
    time_sum += t.travel_time;
    dist_sum += road::Distance(t.od.origin, t.od.destination);
  }
  time_scale_ = time_sum / static_cast<double>(train.size());
  dist_scale_ = std::max(1.0, dist_sum / static_cast<double>(train.size()));

  std::vector<nn::Tensor> params = distance_net_->Parameters();
  auto tp = time_net_->Parameters();
  params.insert(params.end(), tp.begin(), tp.end());
  nn::Adam optimizer(params, options_.learning_rate);

  std::vector<size_t> order(train.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const size_t bs = std::max<size_t>(1, options_.batch_size);
  size_t step = 0;
  auto maybe_eval = [&] {
    ++step;
    if (!options_.step_callback || step % options_.eval_every != 0) return;
    const size_t n = std::min<size_t>(200, dataset.validation.size());
    if (n == 0) return;
    double mae = 0.0;
    for (size_t i = 0; i < n; ++i) {
      mae += std::fabs(Predict(dataset.validation[i].od) -
                       dataset.validation[i].travel_time);
    }
    options_.step_callback(step, mae / static_cast<double>(n));
  };
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    optimizer.set_learning_rate(options_.learning_rate *
                                std::pow(0.5, epoch / 2));
    rng.Shuffle(order);
    size_t in_batch = 0;
    optimizer.ZeroGrad();
    for (size_t idx : order) {
      const auto& trip = train[idx];
      // Distance label: the trajectory's travelled length when available,
      // else the straight-line distance.
      const double dist_label =
          trip.trajectory.empty()
              ? road::Distance(trip.od.origin, trip.od.destination)
              : trip.trajectory.TravelledLength(*net_);
      const nn::Tensor dist = ForwardDistance(trip.od);
      const nn::Tensor time = ForwardTime(trip.od, dist);
      const nn::Tensor dist_loss = nn::MaeLoss(
          dist, nn::Tensor::Scalar(dist_label / dist_scale_));
      const nn::Tensor time_loss = nn::MaeLoss(
          time, nn::Tensor::Scalar(trip.travel_time / time_scale_));
      nn::Tensor loss = nn::Add(
          nn::Scale(dist_loss, options_.distance_loss_weight),
          nn::Scale(time_loss, 1.0 - options_.distance_loss_weight));
      loss = nn::Scale(loss, 1.0 / static_cast<double>(bs));
      loss.Backward();
      if (++in_batch == bs) {
        optimizer.ClipGradNorm(5.0);
        optimizer.Step();
        optimizer.ZeroGrad();
        in_batch = 0;
        maybe_eval();
      }
    }
    if (in_batch > 0) {
      optimizer.ClipGradNorm(5.0);
      optimizer.Step();
      optimizer.ZeroGrad();
    }
  }
}

double StnnEstimator::Predict(const traj::OdInput& od) const {
  if (net_ == nullptr || !distance_net_) return 0.0;
  const nn::Tensor dist = ForwardDistance(od);
  return ForwardTime(od, dist).item() * time_scale_;
}

size_t StnnEstimator::ModelSizeBytes() const {
  if (!distance_net_ || !time_net_) return 0;
  size_t n = 0;
  for (const auto& p :
       const_cast<StnnEstimator*>(this)->distance_net_->Parameters()) {
    n += p.size();
  }
  for (const auto& p :
       const_cast<StnnEstimator*>(this)->time_net_->Parameters()) {
    n += p.size();
  }
  return n * sizeof(double);
}

}  // namespace deepod::baselines
