#ifndef DEEPOD_CORE_ENCODERS_H_
#define DEEPOD_CORE_ENCODERS_H_

#include <memory>
#include <vector>

#include "core/deepod_config.h"
#include "nn/conv.h"
#include "nn/lstm.h"
#include "nn/module.h"
#include "temporal/time_slot.h"
#include "traj/trajectory.h"

namespace deepod::core {

// Time Interval Encoder (§4.3, Fig. 6). Converts an interval [t[1], t[-1]]
// into tcode: the covered time slots are looked up in the shared time-slot
// embedding Wt, stacked into the Δd x d_t matrix D^t, passed through the
// CNN ResNet block (Eq. 5-8), average-pooled over slots (Eq. 10),
// concatenated with the two time remainders (normalised by Δt so they are
// O(1) features) and projected by a two-layer MLP (Eq. 11).
class TimeIntervalEncoder : public nn::Module {
 public:
  TimeIntervalEncoder(const DeepOdConfig& config,
                      const temporal::TimeSlotter& slotter,
                      nn::Embedding& time_slot_embedding, util::Rng& rng);

  nn::Tensor Forward(temporal::Timestamp t1, temporal::Timestamp t2);

  std::vector<nn::Tensor> Parameters() override;
  void AppendState(const std::string& prefix, nn::StateDict& out) override;
  void SetTraining(bool training) override;

  size_t out_dim() const;

 private:
  const temporal::TimeSlotter& slotter_;
  nn::Embedding& time_slot_embedding_;  // shared, owned by DeepOdModel
  bool daily_graph_;
  nn::ResNetTimeBlock resnet_;
  nn::Mlp2 mlp_;
};

// Trajectory Encoder (§4.4, Fig. 7; the module M_T). Each spatio-temporal
// path element contributes concat(tcode_i, D^s_i); the sequence runs
// through an LSTM (Eq. 12-16) and the final state is merged with the two
// position ratios through a two-layer MLP (Eq. 17) into stcode.
class TrajectoryEncoder : public nn::Module {
 public:
  TrajectoryEncoder(const DeepOdConfig& config,
                    const temporal::TimeSlotter& slotter,
                    nn::Embedding& road_embedding,
                    nn::Embedding& time_slot_embedding, util::Rng& rng);

  nn::Tensor Forward(const traj::MatchedTrajectory& trajectory);

  std::vector<nn::Tensor> Parameters() override;
  void AppendState(const std::string& prefix, nn::StateDict& out) override;
  void SetTraining(bool training) override;

  size_t out_dim() const;

 private:
  const DeepOdConfig config_;
  nn::Embedding& road_embedding_;
  TimeIntervalEncoder interval_encoder_;
  nn::Lstm lstm_;
  nn::Mlp2 mlp_;
};

// External Features Encoder (§4.5). One-hot weather (N_wea = 16) plus the
// CNN encoding of the current speed matrix, merged by a two-layer MLP
// (Eq. 18) into ocode. The speed matrix is average-pooled down to at most
// max_speed_matrix_dim per side before the CNN (see DeepOdConfig).
class ExternalFeaturesEncoder : public nn::Module {
 public:
  static constexpr size_t kNumWeatherTypes = 16;

  ExternalFeaturesEncoder(const DeepOdConfig& config, util::Rng& rng);

  // `speed_matrix` is row-major rows x cols in [0,1].
  nn::Tensor Forward(int weather_type, const std::vector<double>& speed_matrix,
                     size_t rows, size_t cols);

  std::vector<nn::Tensor> Parameters() override;
  void AppendState(const std::string& prefix, nn::StateDict& out) override;
  void SetTraining(bool training) override;

  size_t out_dim() const;
  size_t max_dim() const { return max_dim_; }
  const nn::TrafficCnn& cnn() const { return cnn_; }
  const nn::Mlp2& mlp() const { return mlp_; }

 private:
  size_t max_dim_;
  nn::TrafficCnn cnn_;
  nn::Mlp2 mlp_;
};

// Average-pools a rows x cols matrix down so neither side exceeds max_dim.
// Exposed for testing.
std::vector<double> PoolMatrix(const std::vector<double>& matrix, size_t rows,
                               size_t cols, size_t max_dim, size_t* out_rows,
                               size_t* out_cols);

// PoolMatrix into caller storage: `out` and `counts` each hold
// min(rows, max_dim) * min(cols, max_dim) doubles (`counts` is scratch).
// Writes the same values PoolMatrix returns.
void PoolMatrixInto(const double* matrix, size_t rows, size_t cols,
                    size_t max_dim, double* out, double* counts,
                    size_t* out_rows, size_t* out_cols);

}  // namespace deepod::core

#endif  // DEEPOD_CORE_ENCODERS_H_
