#include "nn/optimizer.h"

#include <cmath>

namespace deepod::nn {

double Adam::ClipGradNorm(double max_norm) {
  double sq = 0.0;
  for (auto& p : params_) {
    for (double g : p.grad()) sq += g * g;
  }
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const double scale = max_norm / norm;
    for (auto& p : params_) {
      for (double& g : p.mutable_grad()) g *= scale;
    }
  }
  return norm;
}

namespace {

// Zero-padded parameter index ("007") so names sort in construction order.
std::string IndexName(size_t i) {
  std::string s = std::to_string(i);
  while (s.size() < 3) s.insert(s.begin(), '0');
  return s;
}

}  // namespace

Adam::Adam(std::vector<Tensor> params, double lr, double beta1, double beta2,
           double eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (auto& p : params_) {
    m_.emplace_back(p.size(), 0.0);
    v_.emplace_back(p.size(), 0.0);
  }
}

void Adam::AppendState(const std::string& prefix, StateDict& out) {
  out.AddScalarBuffer(JoinName(prefix, "t"), &t_);
  for (size_t i = 0; i < m_.size(); ++i) {
    out.AddBuffer(JoinName(prefix, "m." + IndexName(i)), {m_[i].size()},
                  m_[i].data());
    out.AddBuffer(JoinName(prefix, "v." + IndexName(i)), {v_[i].size()},
                  v_[i].data());
  }
}

void Adam::Step() {
  t_ += 1.0;
  const double bc1 = 1.0 - std::pow(beta1_, t_);
  const double bc2 = 1.0 - std::pow(beta2_, t_);
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& data = params_[i].data();
    const auto& grad = params_[i].grad();
    auto& m = m_[i];
    auto& v = v_[i];
    for (size_t j = 0; j < data.size(); ++j) {
      m[j] = beta1_ * m[j] + (1.0 - beta1_) * grad[j];
      v[j] = beta2_ * v[j] + (1.0 - beta2_) * grad[j] * grad[j];
      const double mhat = m[j] / bc1;
      const double vhat = v[j] / bc2;
      data[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
  BumpParamEpoch();  // invalidates the serving plan
}

}  // namespace deepod::nn
