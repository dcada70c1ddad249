#ifndef DEEPOD_NN_OPTIMIZER_H_
#define DEEPOD_NN_OPTIMIZER_H_

#include <vector>

#include "nn/module.h"
#include "nn/tensor.h"

namespace deepod::nn {

// Adam (Kingma & Ba 2014) — the paper's optimiser (§5, Algorithm 1 line 13)
// over a fixed parameter list. Gradients are read from each parameter's grad
// buffer (accumulated by Backward calls) and cleared by ZeroGrad().
class Adam {
 public:
  Adam(std::vector<Tensor> params, double lr = 0.01, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8);

  void Step();

  // Registers the optimiser's own state (moment buffers, step counter) in a
  // state dict under `prefix`, so a training run can be checkpointed and
  // resumed bit-identically. Buffers are named by the position of their
  // parameter in the construction list ("m.012"), which is stable because
  // Parameters() order is part of the module contract.
  void AppendState(const std::string& prefix, StateDict& out);

  void ZeroGrad() {
    for (auto& p : params_) p.ZeroGrad();
  }

  void set_learning_rate(double lr) { lr_ = lr; }
  double learning_rate() const { return lr_; }

  // Clips the global gradient norm to `max_norm` (returns the pre-clip
  // norm). Guards against the occasional exploding LSTM gradient.
  double ClipGradNorm(double max_norm);

 private:
  std::vector<Tensor> params_;
  double lr_;
  double beta1_, beta2_, eps_;
  // Step count; held as a double (exact for any realistic count) so the
  // checkpoint state dict can reference it in place.
  double t_ = 0.0;
  std::vector<std::vector<double>> m_;
  std::vector<std::vector<double>> v_;
};

}  // namespace deepod::nn

#endif  // DEEPOD_NN_OPTIMIZER_H_
