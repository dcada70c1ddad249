#ifndef DEEPOD_NN_CONV_H_
#define DEEPOD_NN_CONV_H_

#include <vector>

#include "nn/module.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace deepod::nn {

// 2-D convolution layer over [C_in, H, W] single-instance tensors (our
// models process variable-shaped instances one at a time, so there is no
// batch axis).
class Conv2dLayer : public Module {
 public:
  Conv2dLayer(size_t in_channels, size_t out_channels, size_t kh, size_t kw,
              size_t pad_h, size_t pad_w, util::Rng& rng);

  Tensor Forward(const Tensor& input) const;

  std::vector<Tensor> Parameters() override;
  void AppendState(const std::string& prefix, StateDict& out) override;

  size_t out_channels() const { return out_channels_; }
  size_t pad_h() const { return pad_h_; }
  size_t pad_w() const { return pad_w_; }
  const Tensor& kernel() const { return kernel_; }
  const Tensor& bias() const { return bias_; }

 private:
  size_t out_channels_;
  size_t pad_h_, pad_w_;
  Tensor kernel_;  // [C_out, C_in, KH, KW]
  Tensor bias_;    // [C_out]
};

// Per-channel normalisation with learned scale/shift and running statistics.
//
// The paper uses PyTorch BatchNorm over mini-batches; our encoders process
// one variable-length instance at a time, so statistics are computed over
// the spatial extent of the instance (instance normalisation) during
// training while exponential running statistics are kept for inference.
// This preserves BatchNorm's role in the architecture (conditioning the
// conv activations) at single-instance granularity.
class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(size_t channels, double momentum = 0.1,
                       double eps = 1e-5);

  // input: [C, H, W].
  Tensor Forward(const Tensor& input);

  std::vector<Tensor> Parameters() override;
  // Registers gamma/beta plus the running_mean/running_var buffers — the
  // running statistics are inference state and must travel with checkpoints.
  void AppendState(const std::string& prefix, StateDict& out) override;

  const std::vector<double>& running_mean() const { return running_mean_; }
  const std::vector<double>& running_var() const { return running_var_; }
  const Tensor& gamma() const { return gamma_; }
  const Tensor& beta() const { return beta_; }
  double eps() const { return eps_; }

  // Applies one exponential-moving-average step to the running statistics.
  // Training forwards do this inline, except while a BnCaptureScope is
  // active on the thread — then the (layer, mu, var) triple is recorded
  // instead and the trainer replays the records later in sample order, so
  // parallel training updates the EMA in exactly the serial order.
  void ApplyMomentumUpdate(const std::vector<double>& mu,
                           const std::vector<double>& var);

 private:
  size_t channels_;
  double momentum_, eps_;
  Tensor gamma_;  // [C]
  Tensor beta_;   // [C]
  std::vector<double> running_mean_;
  std::vector<double> running_var_;
};

// One deferred running-statistics update recorded during a captured
// training forward.
struct BnStatsRecord {
  BatchNorm2d* bn;
  std::vector<double> mu;
  std::vector<double> var;
};
using BnStatsLog = std::vector<BnStatsRecord>;

// RAII: while alive on a thread, BatchNorm2d training forwards append their
// running-statistics updates to `log` instead of applying them. Not
// reentrant.
class BnCaptureScope {
 public:
  explicit BnCaptureScope(BnStatsLog* log);
  ~BnCaptureScope();
  BnCaptureScope(const BnCaptureScope&) = delete;
  BnCaptureScope& operator=(const BnCaptureScope&) = delete;
};

// The ResNet block of Fig. 6 (Eq. 5-8): three convolutions over the
// Δd x d_t time-interval matrix viewed as a 1 x Δd x d_t tensor —
//   Z1 = ReLU(BN(conv3x1, 4 channels))
//   Z2 = ReLU(BN(conv3x1, 8 channels))
//   Z3 = conv1x1 back to 1 channel
//   Z4 = input ⊕ Z3 (residual)
// Kernels span 3 neighbouring time slots and 1 embedding column; "same"
// padding keeps Δd so the residual add is well-formed.
class ResNetTimeBlock : public Module {
 public:
  explicit ResNetTimeBlock(util::Rng& rng);

  // input: [Δd, d_t] matrix D^t; output: [Δd, d_t] matrix Z4.
  Tensor Forward(const Tensor& input);

  std::vector<Tensor> Parameters() override;
  void AppendState(const std::string& prefix, StateDict& out) override;
  void SetTraining(bool training) override;

 private:
  Conv2dLayer conv1_;  // 1 -> 4, 3x1
  BatchNorm2d bn1_;
  Conv2dLayer conv2_;  // 4 -> 8, 3x1
  BatchNorm2d bn2_;
  Conv2dLayer conv3_;  // 8 -> 1, 1x1
};

// The traffic-condition CNN of §4.5: three Conv→BN→ReLU blocks over the
// speed matrix followed by global average pooling and a linear projection
// to d_traf.
class TrafficCnn : public Module {
 public:
  TrafficCnn(size_t out_dim, util::Rng& rng);

  // input: [1, H, W] speed matrix; output: [out_dim].
  Tensor Forward(const Tensor& input);

  std::vector<Tensor> Parameters() override;
  void AppendState(const std::string& prefix, StateDict& out) override;
  void SetTraining(bool training) override;

  size_t out_dim() const { return proj_.out_dim(); }

  // The Conv→BN→ReLU blocks in forward order, and the projection.
  static constexpr size_t kBlocks = 3;
  const Conv2dLayer& conv(size_t block) const;
  const BatchNorm2d& bn(size_t block) const;
  const Linear& proj() const { return proj_; }

 private:
  Conv2dLayer conv1_, conv2_, conv3_;
  BatchNorm2d bn1_, bn2_, bn3_;
  Linear proj_;
};

}  // namespace deepod::nn

#endif  // DEEPOD_NN_CONV_H_
