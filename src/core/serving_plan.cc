#include "core/serving_plan.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/kernels.h"

namespace deepod::core {
namespace {

// Per-thread working storage of the plan's forwards. It only grows, so a
// warm thread allocates nothing per query.
struct Scratch {
  std::vector<double> mlp;  // Estimate: the two hidden layers and the code
  std::vector<double> cnn;  // ExternalCode: pooled map, planes, conv scratch
};

double* Reserve(std::vector<double>& buffer, size_t n) {
  if (buffer.size() < n) buffer.resize(n);
  return buffer.data();
}

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

double Relu(double x) { return x > 0.0 ? x : 0.0; }  // nn::Relu's forward

}  // namespace

ServingPlan::ServingPlan(const nn::Mlp2& mlp1, const nn::Mlp2& mlp2,
                         const ExternalFeaturesEncoder& external)
    : max_dim_(external.max_dim()) {
  mlp1_[0] = AppendDense(mlp1.layer1());
  mlp1_[1] = AppendDense(mlp1.layer2());
  mlp2_[0] = AppendDense(mlp2.layer1());
  mlp2_[1] = AppendDense(mlp2.layer2());
  const nn::TrafficCnn& cnn = external.cnn();
  for (size_t i = 0; i < nn::TrafficCnn::kBlocks; ++i) {
    const nn::Conv2dLayer& conv = cnn.conv(i);
    const nn::BatchNorm2d& bn = cnn.bn(i);
    const auto& shape = conv.kernel().shape();
    ConvBlock& block = blocks_[i];
    block.cout = shape[0];
    block.cin = shape[1];
    block.kh = shape[2];
    block.kw = shape[3];
    block.pad_h = conv.pad_h();
    block.pad_w = conv.pad_w();
    block.kernel = Append(conv.kernel().data().data(), conv.kernel().size());
    block.bias = Append(conv.bias().data().data(), block.cout);
    block.gamma = Append(bn.gamma().data().data(), block.cout);
    block.beta = Append(bn.beta().data().data(), block.cout);
    block.mean = Append(bn.running_mean().data(), block.cout);
    // BatchNorm2d's inference normalisation computes exactly this per call.
    std::vector<double> inv_std(block.cout);
    for (size_t ch = 0; ch < block.cout; ++ch) {
      inv_std[ch] = 1.0 / std::sqrt(bn.running_var()[ch] + bn.eps());
    }
    block.inv_std = Append(inv_std.data(), block.cout);
  }
  proj_ = AppendDense(cnn.proj());
  external_mlp_[0] = AppendDense(external.mlp().layer1());
  external_mlp_[1] = AppendDense(external.mlp().layer2());
}

size_t ServingPlan::Append(const double* data, size_t n) {
  const size_t offset = arena_.size();
  arena_.insert(arena_.end(), data, data + n);
  return offset;
}

ServingPlan::Dense ServingPlan::AppendDense(const nn::Linear& layer) {
  Dense dense;
  dense.out = layer.out_dim();
  dense.in = layer.in_dim();
  dense.w = Append(layer.weight().data().data(), dense.out * dense.in);
  dense.b = Append(layer.bias().data().data(), dense.out);
  return dense;
}

void ServingPlan::DenseForward(const Dense& layer, const double* x,
                               double* y) const {
  const double* base = arena_.data();
  nn::AffineForward(base + layer.w, x, base + layer.b, y, layer.out, layer.in);
}

void ServingPlan::MlpForward(const Dense* layers, const double* x,
                             double* hidden, double* y) const {
  DenseForward(layers[0], x, hidden);
  for (size_t i = 0; i < layers[0].out; ++i) hidden[i] = Relu(hidden[i]);
  DenseForward(layers[1], hidden, y);
}

double ServingPlan::Estimate(const double* z9) const {
  double* s = Reserve(ThreadScratch().mlp,
                      mlp1_[0].out + mlp1_[1].out + mlp2_[0].out);
  double* code = s + mlp1_[0].out;
  double* hidden2 = code + mlp1_[1].out;
  MlpForward(mlp1_, z9, s, code);  // Eq. 19
  double y = 0.0;
  MlpForward(mlp2_, code, hidden2, &y);  // Eq. 20
  return y;
}

void ServingPlan::ExternalCode(int weather_type,
                               const std::vector<double>& speed_matrix,
                               size_t rows, size_t cols, double* out) const {
  if (weather_type < 0 ||
      weather_type >=
          static_cast<int>(ExternalFeaturesEncoder::kNumWeatherTypes)) {
    throw std::out_of_range("ExternalFeaturesEncoder: bad weather type");
  }
  if (speed_matrix.size() != rows * cols || rows == 0 || cols == 0) {
    throw std::invalid_argument("ExternalFeaturesEncoder: bad matrix shape");
  }
  const size_t pr = std::min(rows, max_dim_), pc = std::min(cols, max_dim_);
  const size_t hw = pr * pc;
  size_t channels = 1, conv_scratch = 0;
  for (const ConvBlock& b : blocks_) {
    channels = std::max(channels, b.cout);
    conv_scratch = std::max(
        conv_scratch, nn::ConvScratchSize({b.cin, pr, pc, b.cout, b.kh, b.kw,
                                           pr, pc, b.pad_h, b.pad_w}));
  }
  const size_t z8_dim = external_mlp_[0].in;
  double* s = Reserve(ThreadScratch().cnn, 2 * hw + 2 * channels * hw +
                                               conv_scratch + z8_dim +
                                               external_mlp_[0].out);
  double* plane_in = s;  // pooled matrix; counts live in the next hw
  double* plane_a = plane_in + 2 * hw;
  double* plane_b = plane_a + channels * hw;
  double* conv_buf = plane_b + channels * hw;
  double* z8 = conv_buf + conv_scratch;
  double* hidden = z8 + z8_dim;

  size_t h = 0, w = 0;
  PoolMatrixInto(speed_matrix.data(), rows, cols, max_dim_, plane_in,
                 plane_in + hw, &h, &w);
  double mean = 0.0;
  for (size_t i = 0; i < hw; ++i) mean += plane_in[i];
  mean /= static_cast<double>(hw);
  double var = 0.0;
  for (size_t i = 0; i < hw; ++i) {
    var += (plane_in[i] - mean) * (plane_in[i] - mean);
  }
  const double sd = std::sqrt(var / static_cast<double>(hw));

  // Conv → +bias → BatchNorm (running statistics) → ReLU, per block; the
  // elementwise stages are AddChannelBias, BatchNorm2d's inference
  // normalisation and Relu, expression for expression.
  const double* base = arena_.data();
  const double* x = plane_in;
  double* y = plane_a;
  for (const ConvBlock& b : blocks_) {
    const nn::ConvGeom geom{b.cin, h,  w, b.cout, b.kh, b.kw,
                            h + 2 * b.pad_h - b.kh + 1,
                            w + 2 * b.pad_w - b.kw + 1, b.pad_h, b.pad_w};
    if (geom.oh != h || geom.ow != w) {
      throw std::logic_error("ServingPlan: CNN blocks must keep the map size");
    }
    nn::ConvForward(geom, x, base + b.kernel, y, conv_buf);
    for (size_t ch = 0; ch < b.cout; ++ch) {
      const double bias = base[b.bias + ch], g = base[b.gamma + ch];
      const double beta = base[b.beta + ch], mu = base[b.mean + ch];
      const double inv_std = base[b.inv_std + ch];
      double* plane = y + ch * hw;
      for (size_t i = 0; i < hw; ++i) {
        const double v = plane[i] + bias;
        plane[i] = Relu(g * ((v - mu) * inv_std) + beta);
      }
    }
    x = y;
    y = y == plane_a ? plane_b : plane_a;
  }

  // z8 = [one-hot weather ; proj(global average pool) ; mean ; sd].
  std::fill(z8, z8 + ExternalFeaturesEncoder::kNumWeatherTypes, 0.0);
  z8[weather_type] = 1.0;
  const size_t last_channels = blocks_[nn::TrafficCnn::kBlocks - 1].cout;
  double* pooled = y;  // the free plane
  const double inv = 1.0 / static_cast<double>(hw);
  for (size_t ch = 0; ch < last_channels; ++ch) {
    double sum = 0.0;
    for (size_t i = 0; i < hw; ++i) sum += x[ch * hw + i];
    pooled[ch] = sum * inv;
  }
  double* dtraf = z8 + ExternalFeaturesEncoder::kNumWeatherTypes;
  DenseForward(proj_, pooled, dtraf);
  dtraf[proj_.out] = mean;
  dtraf[proj_.out + 1] = sd;
  MlpForward(external_mlp_, z8, hidden, out);  // Eq. 18 -> ocode
}

bool ServingPlan::SameWeights(const ServingPlan& other) const {
  return arena_.size() == other.arena_.size() &&
         std::memcmp(arena_.data(), other.arena_.data(),
                     arena_.size() * sizeof(double)) == 0;
}

}  // namespace deepod::core
