#ifndef DEEPOD_CORE_SERVING_PLAN_H_
#define DEEPOD_CORE_SERVING_PLAN_H_

#include <cstddef>
#include <vector>

#include "core/encoders.h"
#include "nn/module.h"

namespace deepod::core {

// The serving-mode forward of DeepOdModel's dense parts, packed for the
// query path: MLP1 (Eq. 19), MLP2 (Eq. 20) and the whole external-features
// stack of §4.5 — three conv+bias layers, BatchNorm over its running
// statistics (inverse std precomputed), ReLU, global average pooling, the
// projection and the encoder MLP. Every weight lives in one contiguous
// arena; a forward uses thread-local scratch and builds no Tensor, takes no
// lock and allocates nothing once the scratch has grown.
//
// Each layer calls the raw kernels the Tensor ops use (nn/kernels.h), and
// the elementwise stages repeat the ops' expressions, so the plan's answers
// are bit-identical to the Tensor forward. The plan is a snapshot:
// DeepOdModel rebuilds it whenever the parameter epoch moves or its training
// mode flips.
class ServingPlan {
 public:
  ServingPlan() = default;
  ServingPlan(const nn::Mlp2& mlp1, const nn::Mlp2& mlp2,
              const ExternalFeaturesEncoder& external);

  ServingPlan(ServingPlan&&) = default;
  ServingPlan& operator=(ServingPlan&&) = default;
  ServingPlan(const ServingPlan&) = delete;
  ServingPlan& operator=(const ServingPlan&) = delete;

  // MLP2(MLP1(z9)): the normalised travel time for one Z9 feature row.
  double Estimate(const double* z9) const;

  // ocode for `weather_type` and a row-major rows x cols speed matrix —
  // what ExternalFeaturesEncoder::Forward computes in inference mode, with
  // the same argument checks (std::out_of_range for a bad weather type,
  // std::invalid_argument for a bad matrix shape). Writes code_dim() values.
  void ExternalCode(int weather_type, const std::vector<double>& speed_matrix,
                    size_t rows, size_t cols, double* out) const;

  size_t z9_dim() const { return mlp1_[0].in; }
  size_t code_dim() const { return external_mlp_[1].out; }

  // Same weights bit for bit (NaN payloads included).
  bool SameWeights(const ServingPlan& other) const;

 private:
  // One dense layer: offsets of W [out, in] and b [out] inside the arena.
  struct Dense {
    size_t w = 0, b = 0, out = 0, in = 0;
  };
  // Conv2dLayer + BatchNorm2d (running statistics) of one CNN block.
  struct ConvBlock {
    size_t kernel = 0, bias = 0, gamma = 0, beta = 0, mean = 0, inv_std = 0;
    size_t cin = 0, cout = 0, kh = 0, kw = 0, pad_h = 0, pad_w = 0;
  };

  size_t Append(const double* data, size_t n);
  Dense AppendDense(const nn::Linear& layer);
  void DenseForward(const Dense& layer, const double* x, double* y) const;
  // y = layer2(ReLU(layer1(x))); `hidden` holds layer1.out doubles.
  void MlpForward(const Dense* layers, const double* x, double* hidden,
                  double* y) const;

  std::vector<double> arena_;
  Dense mlp1_[2], mlp2_[2], external_mlp_[2], proj_;
  ConvBlock blocks_[nn::TrafficCnn::kBlocks];
  size_t max_dim_ = 0;
};

}  // namespace deepod::core

#endif  // DEEPOD_CORE_SERVING_PLAN_H_
