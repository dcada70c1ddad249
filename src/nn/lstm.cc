#include "nn/lstm.h"

#include <cmath>
#include <stdexcept>

namespace deepod::nn {

Lstm::Lstm(size_t input_dim, size_t hidden_dim, util::Rng& rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  const size_t concat_dim = input_dim + hidden_dim;
  const double bound = 1.0 / std::sqrt(static_cast<double>(concat_dim));
  auto make_w = [&] {
    Tensor t = Tensor::RandUniform({hidden_dim, concat_dim}, rng, -bound, bound);
    t.set_requires_grad(true);
    return t;
  };
  auto make_b = [&](double init) {
    Tensor t = Tensor::Full({hidden_dim}, init);
    t.set_requires_grad(true);
    return t;
  };
  wf_ = make_w();
  wi_ = make_w();
  wo_ = make_w();
  wc_ = make_w();
  // Forget-gate bias starts at 1 (standard trick for gradient flow on long
  // sequences); the paper does not specify, this matches PyTorch folklore.
  bf_ = make_b(1.0);
  bi_ = make_b(0.0);
  bo_ = make_b(0.0);
  bc_ = make_b(0.0);
}

std::vector<Tensor> Lstm::ForwardAll(const std::vector<Tensor>& inputs) const {
  if (inputs.empty()) throw std::invalid_argument("Lstm::Forward: empty sequence");
  Tensor h = Tensor::Zeros({hidden_dim_});
  Tensor c = Tensor::Zeros({hidden_dim_});
  std::vector<Tensor> hidden_states;
  hidden_states.reserve(inputs.size());
  for (const Tensor& x : inputs) {
    if (x.ndim() != 1 || x.dim(0) != input_dim_) {
      throw std::invalid_argument("Lstm::Forward: bad input shape " +
                                  x.ShapeString());
    }
    // The whole cell (Eq. 12-16) is one graph node, sliced back into h and
    // c views.
    const Tensor hc =
        LstmCellFused(x, h, c, wf_, wi_, wo_, wc_, bf_, bi_, bo_, bc_);
    h = SliceVec(hc, 0, hidden_dim_);
    c = SliceVec(hc, hidden_dim_, 2 * hidden_dim_);
    hidden_states.push_back(h);
  }
  return hidden_states;
}

Tensor Lstm::Forward(const std::vector<Tensor>& inputs) const {
  return ForwardAll(inputs).back();
}

std::vector<Tensor> Lstm::Parameters() {
  return {wf_, wi_, wo_, wc_, bf_, bi_, bo_, bc_};
}

void Lstm::AppendState(const std::string& prefix, StateDict& out) {
  out.AddParameter(JoinName(prefix, "w_forget"), wf_);
  out.AddParameter(JoinName(prefix, "w_input"), wi_);
  out.AddParameter(JoinName(prefix, "w_output"), wo_);
  out.AddParameter(JoinName(prefix, "w_cell"), wc_);
  out.AddParameter(JoinName(prefix, "b_forget"), bf_);
  out.AddParameter(JoinName(prefix, "b_input"), bi_);
  out.AddParameter(JoinName(prefix, "b_output"), bo_);
  out.AddParameter(JoinName(prefix, "b_cell"), bc_);
}

}  // namespace deepod::nn
