#include "nn/conv.h"

#include <cmath>
#include <stdexcept>

namespace deepod::nn {
namespace {

using Impl = Tensor::Impl;

// Fused per-channel normalisation with exact backward.
//   y[c,i] = gamma[c] * (x[c,i] - mu[c]) / sqrt(var[c] + eps) + beta[c]
// where mu/var are the statistics used (instance stats in training mode,
// running stats in eval mode, where the stats carry no gradient).
Tensor NormalizePerChannel(const Tensor& input, const Tensor& gamma,
                           const Tensor& beta, const std::vector<double>& mu,
                           const std::vector<double>& var, double eps,
                           bool stats_from_input) {
  const size_t c = input.dim(0), hw = input.dim(1) * input.dim(2);
  const auto& x = input.data();
  const auto& g = gamma.data();
  const auto& b = beta.data();
  std::vector<double> inv_std(c);
  for (size_t ch = 0; ch < c; ++ch) inv_std[ch] = 1.0 / std::sqrt(var[ch] + eps);
  std::vector<double> xhat(x.size());
  auto out = AcquireBuffer(x.size());
  for (size_t ch = 0; ch < c; ++ch) {
    for (size_t i = 0; i < hw; ++i) {
      const size_t idx = ch * hw + i;
      xhat[idx] = (x[idx] - mu[ch]) * inv_std[ch];
      out[idx] = g[ch] * xhat[idx] + b[ch];
    }
  }
  auto pin = input.impl(), pg = gamma.impl(), pb = beta.impl();
  return Tensor::MakeOpResult(
      input.shape(), std::move(out), {pin, pg, pb},
      [pin, pg, pb, xhat, inv_std, c, hw, stats_from_input](Impl& self) {
        double* gg = pg->grad_sink();
        double* gb = pb->grad_sink();
        double* gx = pin->grad_sink();
        for (size_t ch = 0; ch < c; ++ch) {
          double sum_dy = 0.0, sum_dy_xhat = 0.0;
          for (size_t i = 0; i < hw; ++i) {
            const size_t idx = ch * hw + i;
            const double dy = self.grad[idx];
            sum_dy += dy;
            sum_dy_xhat += dy * xhat[idx];
            gg[ch] += dy * xhat[idx];
            gb[ch] += dy;
          }
          const double gamma_v = pg->data[ch];
          const double n = static_cast<double>(hw);
          for (size_t i = 0; i < hw; ++i) {
            const size_t idx = ch * hw + i;
            const double dy = self.grad[idx];
            if (stats_from_input) {
              // Full batch-norm backward: statistics depend on the input.
              gx[idx] += gamma_v * inv_std[ch] *
                         (dy - sum_dy / n - xhat[idx] * sum_dy_xhat / n);
            } else {
              // Running statistics are constants.
              gx[idx] += gamma_v * inv_std[ch] * dy;
            }
          }
        }
      });
}

thread_local BnStatsLog* tls_bn_log = nullptr;

}  // namespace

BnCaptureScope::BnCaptureScope(BnStatsLog* log) {
  if (tls_bn_log != nullptr) {
    throw std::logic_error("BnCaptureScope: capture already installed");
  }
  tls_bn_log = log;
}

BnCaptureScope::~BnCaptureScope() { tls_bn_log = nullptr; }

Conv2dLayer::Conv2dLayer(size_t in_channels, size_t out_channels, size_t kh,
                         size_t kw, size_t pad_h, size_t pad_w, util::Rng& rng)
    : out_channels_(out_channels), pad_h_(pad_h), pad_w_(pad_w) {
  const double fan_in = static_cast<double>(in_channels * kh * kw);
  const double bound = 1.0 / std::sqrt(fan_in);
  kernel_ = Tensor::RandUniform({out_channels, in_channels, kh, kw}, rng,
                                -bound, bound);
  bias_ = Tensor::RandUniform({out_channels}, rng, -bound, bound);
  kernel_.set_requires_grad(true);
  bias_.set_requires_grad(true);
}

Tensor Conv2dLayer::Forward(const Tensor& input) const {
  return AddChannelBias(Conv2d(input, kernel_, pad_h_, pad_w_), bias_);
}

std::vector<Tensor> Conv2dLayer::Parameters() { return {kernel_, bias_}; }

void Conv2dLayer::AppendState(const std::string& prefix, StateDict& out) {
  out.AddParameter(JoinName(prefix, "kernel"), kernel_);
  out.AddParameter(JoinName(prefix, "bias"), bias_);
}

BatchNorm2d::BatchNorm2d(size_t channels, double momentum, double eps)
    : channels_(channels), momentum_(momentum), eps_(eps) {
  gamma_ = Tensor::Full({channels}, 1.0);
  beta_ = Tensor::Zeros({channels});
  gamma_.set_requires_grad(true);
  beta_.set_requires_grad(true);
  running_mean_.assign(channels, 0.0);
  running_var_.assign(channels, 1.0);
}

Tensor BatchNorm2d::Forward(const Tensor& input) {
  if (input.ndim() != 3 || input.dim(0) != channels_) {
    throw std::invalid_argument("BatchNorm2d: bad input shape " +
                                input.ShapeString());
  }
  const size_t hw = input.dim(1) * input.dim(2);
  if (training_) {
    const auto& x = input.data();
    std::vector<double> mu(channels_, 0.0), var(channels_, 0.0);
    for (size_t ch = 0; ch < channels_; ++ch) {
      double s = 0.0;
      for (size_t i = 0; i < hw; ++i) s += x[ch * hw + i];
      mu[ch] = s / static_cast<double>(hw);
      double v = 0.0;
      for (size_t i = 0; i < hw; ++i) {
        const double d = x[ch * hw + i] - mu[ch];
        v += d * d;
      }
      var[ch] = v / static_cast<double>(hw);
    }
    if (tls_bn_log != nullptr) {
      tls_bn_log->push_back({this, mu, var});
    } else {
      ApplyMomentumUpdate(mu, var);
    }
    return NormalizePerChannel(input, gamma_, beta_, mu, var, eps_,
                               /*stats_from_input=*/true);
  }
  return NormalizePerChannel(input, gamma_, beta_, running_mean_, running_var_,
                             eps_, /*stats_from_input=*/false);
}

void BatchNorm2d::ApplyMomentumUpdate(const std::vector<double>& mu,
                                      const std::vector<double>& var) {
  for (size_t ch = 0; ch < channels_; ++ch) {
    running_mean_[ch] =
        (1.0 - momentum_) * running_mean_[ch] + momentum_ * mu[ch];
    running_var_[ch] =
        (1.0 - momentum_) * running_var_[ch] + momentum_ * var[ch];
  }
}

std::vector<Tensor> BatchNorm2d::Parameters() { return {gamma_, beta_}; }

void BatchNorm2d::AppendState(const std::string& prefix, StateDict& out) {
  out.AddParameter(JoinName(prefix, "gamma"), gamma_);
  out.AddParameter(JoinName(prefix, "beta"), beta_);
  out.AddBuffer(JoinName(prefix, "running_mean"), {channels_},
                running_mean_.data());
  out.AddBuffer(JoinName(prefix, "running_var"), {channels_},
                running_var_.data());
}

ResNetTimeBlock::ResNetTimeBlock(util::Rng& rng)
    : conv1_(1, 4, 3, 1, 1, 0, rng),
      bn1_(4),
      conv2_(4, 8, 3, 1, 1, 0, rng),
      bn2_(8),
      conv3_(8, 1, 1, 1, 0, 0, rng) {}

Tensor ResNetTimeBlock::Forward(const Tensor& input) {
  if (input.ndim() != 2) {
    throw std::invalid_argument("ResNetTimeBlock: expected [Δd, d_t] matrix");
  }
  const size_t dd = input.dim(0), dt = input.dim(1);
  const Tensor as_tensor = Reshape(input, {1, dd, dt});
  const Tensor z1 = Relu(bn1_.Forward(conv1_.Forward(as_tensor)));  // Eq. 5
  const Tensor z2 = Relu(bn2_.Forward(conv2_.Forward(z1)));         // Eq. 6
  const Tensor z3 = conv3_.Forward(z2);                             // Eq. 7
  const Tensor z4 = Add(as_tensor, z3);                             // Eq. 8
  return Reshape(z4, {dd, dt});
}

std::vector<Tensor> ResNetTimeBlock::Parameters() {
  std::vector<Tensor> params;
  for (Module* m : std::vector<Module*>{&conv1_, &bn1_, &conv2_, &bn2_, &conv3_}) {
    auto p = m->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

void ResNetTimeBlock::AppendState(const std::string& prefix, StateDict& out) {
  conv1_.AppendState(JoinName(prefix, "conv1."), out);
  bn1_.AppendState(JoinName(prefix, "bn1."), out);
  conv2_.AppendState(JoinName(prefix, "conv2."), out);
  bn2_.AppendState(JoinName(prefix, "bn2."), out);
  conv3_.AppendState(JoinName(prefix, "conv3."), out);
}

void ResNetTimeBlock::SetTraining(bool training) {
  Module::SetTraining(training);
  bn1_.SetTraining(training);
  bn2_.SetTraining(training);
}

TrafficCnn::TrafficCnn(size_t out_dim, util::Rng& rng)
    : conv1_(1, 4, 3, 3, 1, 1, rng),
      conv2_(4, 8, 3, 3, 1, 1, rng),
      conv3_(8, 8, 3, 3, 1, 1, rng),
      bn1_(4),
      bn2_(8),
      bn3_(8),
      proj_(8, out_dim, rng) {}

Tensor TrafficCnn::Forward(const Tensor& input) {
  if (input.ndim() != 3 || input.dim(0) != 1) {
    throw std::invalid_argument("TrafficCnn: expected [1, H, W] speed matrix");
  }
  Tensor z = Relu(bn1_.Forward(conv1_.Forward(input)));
  z = Relu(bn2_.Forward(conv2_.Forward(z)));
  z = Relu(bn3_.Forward(conv3_.Forward(z)));
  return proj_.Forward(GlobalAvgPool(z));
}

const Conv2dLayer& TrafficCnn::conv(size_t block) const {
  const Conv2dLayer* convs[kBlocks] = {&conv1_, &conv2_, &conv3_};
  return *convs[block];
}

const BatchNorm2d& TrafficCnn::bn(size_t block) const {
  const BatchNorm2d* bns[kBlocks] = {&bn1_, &bn2_, &bn3_};
  return *bns[block];
}

std::vector<Tensor> TrafficCnn::Parameters() {
  std::vector<Tensor> params;
  for (Module* m : std::vector<Module*>{&conv1_, &conv2_, &conv3_, &bn1_, &bn2_,
                                        &bn3_, &proj_}) {
    auto p = m->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

void TrafficCnn::AppendState(const std::string& prefix, StateDict& out) {
  conv1_.AppendState(JoinName(prefix, "conv1."), out);
  conv2_.AppendState(JoinName(prefix, "conv2."), out);
  conv3_.AppendState(JoinName(prefix, "conv3."), out);
  bn1_.AppendState(JoinName(prefix, "bn1."), out);
  bn2_.AppendState(JoinName(prefix, "bn2."), out);
  bn3_.AppendState(JoinName(prefix, "bn3."), out);
  proj_.AppendState(JoinName(prefix, "proj."), out);
}

void TrafficCnn::SetTraining(bool training) {
  Module::SetTraining(training);
  bn1_.SetTraining(training);
  bn2_.SetTraining(training);
  bn3_.SetTraining(training);
}

}  // namespace deepod::nn
