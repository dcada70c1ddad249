#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "nn/ops.h"
#include "nn/tensor.h"
#include "reference_kernels.h"
#include "util/rng.h"

namespace deepod::nn {
namespace {

TEST(OpsTest, AddSubMulForward) {
  Tensor a = Tensor::FromData({3}, {1, 2, 3});
  Tensor b = Tensor::FromData({3}, {4, 5, 6});
  EXPECT_EQ(Add(a, b).data(), (std::vector<double>{5, 7, 9}));
  EXPECT_EQ(Sub(a, b).data(), (std::vector<double>{-3, -3, -3}));
  EXPECT_EQ(Mul(a, b).data(), (std::vector<double>{4, 10, 18}));
}

TEST(OpsTest, ShapeMismatchThrows) {
  Tensor a = Tensor::Zeros({3});
  Tensor b = Tensor::Zeros({4});
  EXPECT_THROW(Add(a, b), std::invalid_argument);
  EXPECT_THROW(Mul(a, b), std::invalid_argument);
  EXPECT_THROW(MaeLoss(a, b), std::invalid_argument);
}

TEST(OpsTest, Scale) {
  Tensor a = Tensor::FromData({2}, {1, -2});
  EXPECT_EQ(Scale(a, 3.0).data(), (std::vector<double>{3, -6}));
}

TEST(OpsTest, Activations) {
  Tensor a = Tensor::FromData({3}, {-1, 0, 2});
  EXPECT_EQ(Relu(a).data(), (std::vector<double>{0, 0, 2}));
  const auto sig = Sigmoid(a).data();
  EXPECT_NEAR(sig[1], 0.5, 1e-12);
  EXPECT_NEAR(sig[2], 1.0 / (1.0 + std::exp(-2.0)), 1e-12);
  const auto th = Tanh(a).data();
  EXPECT_NEAR(th[0], std::tanh(-1.0), 1e-12);
  EXPECT_EQ(Abs(a).data(), (std::vector<double>{1, 0, 2}));
  EXPECT_EQ(Square(a).data(), (std::vector<double>{1, 0, 4}));
}

TEST(OpsTest, AffineForward) {
  Tensor w = Tensor::FromData({2, 3}, {1, 0, 0, 0, 1, 1});
  Tensor x = Tensor::FromData({3}, {5, 6, 7});
  Tensor b = Tensor::FromData({2}, {0.5, -0.5});
  Tensor y = Affine(w, x, b);
  EXPECT_DOUBLE_EQ(y.at(0), 5.5);
  EXPECT_DOUBLE_EQ(y.at(1), 12.5);
}

// Affine must sum every row in the lane order of the reference dense
// kernel, bit for bit: inner sizes 1..23 cover an empty lane group (in < 4)
// and every tail length in % 4, and the values span magnitudes so that a
// different association of the same products rounds differently.
TEST(OpsTest, AffineMatchesLaneOrderReferenceBitForBit) {
  util::Rng rng(20261019);
  for (size_t in = 1; in <= 23; ++in) {
    for (const size_t out : {size_t{1}, size_t{3}, size_t{8}}) {
      std::vector<double> w(out * in), x(in), b(out);
      for (double& v : w) v = rng.Normal() * std::exp(4.0 * rng.Normal());
      for (double& v : x) v = rng.Normal() * std::exp(4.0 * rng.Normal());
      for (double& v : b) v = rng.Normal();
      std::vector<double> want(out);
      reference::AffineNaive(w.data(), x.data(), b.data(), want.data(), out,
                             in);
      const Tensor y = Affine(Tensor::FromData({out, in}, w),
                              Tensor::FromData({in}, x),
                              Tensor::FromData({out}, b));
      ASSERT_EQ(std::memcmp(y.data().data(), want.data(),
                            out * sizeof(double)),
                0)
          << out << "x" << in;
    }
  }
}

TEST(OpsTest, ConcatVec) {
  Tensor a = Tensor::FromData({2}, {1, 2});
  Tensor b = Tensor::FromData({3}, {3, 4, 5});
  Tensor c = ConcatVec({a, b});
  EXPECT_EQ(c.shape(), (std::vector<size_t>{5}));
  EXPECT_EQ(c.data(), (std::vector<double>{1, 2, 3, 4, 5}));
  EXPECT_THROW(ConcatVec({}), std::invalid_argument);
  EXPECT_THROW(ConcatVec({Tensor::Zeros({2, 2})}), std::invalid_argument);
}

TEST(OpsTest, RowAndGather) {
  Tensor m = Tensor::FromData({3, 2}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(Row(m, 1).data(), (std::vector<double>{3, 4}));
  EXPECT_THROW(Row(m, 3), std::out_of_range);
  Tensor g = GatherRows(m, {2, 0, 2});
  EXPECT_EQ(g.shape(), (std::vector<size_t>{3, 2}));
  EXPECT_EQ(g.data(), (std::vector<double>{5, 6, 1, 2, 5, 6}));
  EXPECT_THROW(GatherRows(m, {7}), std::out_of_range);
}

TEST(OpsTest, GatherRowsGradScattersWithAccumulation) {
  Tensor m = Tensor::FromData({2, 2}, {1, 1, 1, 1});
  m.set_requires_grad(true);
  // Row 0 gathered twice: its gradient doubles.
  Tensor g = GatherRows(m, {0, 0, 1});
  Tensor loss = Sum(g);
  loss.Backward();
  EXPECT_DOUBLE_EQ(m.grad()[0], 2.0);
  EXPECT_DOUBLE_EQ(m.grad()[2], 1.0);
}

TEST(OpsTest, ReshapePreservesDataAndGrad) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  a.set_requires_grad(true);
  Tensor r = Reshape(a, {4});
  EXPECT_EQ(r.data(), a.data());
  Sum(r).Backward();
  for (double g : a.grad()) EXPECT_DOUBLE_EQ(g, 1.0);
  EXPECT_THROW(Reshape(a, {5}), std::invalid_argument);
}

TEST(OpsTest, Reductions) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(Sum(a).item(), 10.0);
  EXPECT_DOUBLE_EQ(Mean(a).item(), 2.5);
  const auto mr = MeanRows(a).data();
  EXPECT_DOUBLE_EQ(mr[0], 2.0);
  EXPECT_DOUBLE_EQ(mr[1], 3.0);
}

TEST(OpsTest, Conv2dIdentityKernel) {
  // 1x1 kernel with weight 1 reproduces the input.
  Tensor in = Tensor::FromData({1, 2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor k = Tensor::FromData({1, 1, 1, 1}, {1.0});
  Tensor out = Conv2d(in, k, 0, 0);
  EXPECT_EQ(out.shape(), in.shape());
  EXPECT_EQ(out.data(), in.data());
}

TEST(OpsTest, Conv2dAveragingKernel) {
  // 3x1 kernel of ones with padding 1 computes vertical neighbour sums.
  Tensor in = Tensor::FromData({1, 3, 1}, {1, 2, 3});
  Tensor k = Tensor::FromData({1, 1, 3, 1}, {1, 1, 1});
  Tensor out = Conv2d(in, k, 1, 0);
  EXPECT_EQ(out.shape(), (std::vector<size_t>{1, 3, 1}));
  EXPECT_DOUBLE_EQ(out.at(0, 0, 0), 3.0);  // 0+1+2
  EXPECT_DOUBLE_EQ(out.at(0, 1, 0), 6.0);  // 1+2+3
  EXPECT_DOUBLE_EQ(out.at(0, 2, 0), 5.0);  // 2+3+0
}

TEST(OpsTest, Conv2dMultiChannel) {
  // Two input channels summed by a 1x1 kernel with weights {2, 3}.
  Tensor in = Tensor::FromData({2, 1, 2}, {1, 2, 10, 20});
  Tensor k = Tensor::FromData({1, 2, 1, 1}, {2, 3});
  Tensor out = Conv2d(in, k, 0, 0);
  EXPECT_DOUBLE_EQ(out.at(0, 0, 0), 32.0);
  EXPECT_DOUBLE_EQ(out.at(0, 0, 1), 64.0);
}

TEST(OpsTest, Conv2dShapeChecks) {
  EXPECT_THROW(Conv2d(Tensor::Zeros({2, 2}), Tensor::Zeros({1, 1, 1, 1}), 0, 0),
               std::invalid_argument);
  EXPECT_THROW(
      Conv2d(Tensor::Zeros({2, 2, 2}), Tensor::Zeros({1, 3, 1, 1}), 0, 0),
      std::invalid_argument);
  // Kernel taller than padded input.
  EXPECT_THROW(
      Conv2d(Tensor::Zeros({1, 2, 2}), Tensor::Zeros({1, 1, 5, 1}), 0, 0),
      std::invalid_argument);
}

// Forward value and both gradients of one op.
struct OpRun {
  std::vector<double> out, grad_a, grad_b;
};

// Conv2d of (in, kernel), backwarded from `grad_out`.
OpRun RunConv(const std::vector<double>& in, const std::vector<double>& kernel,
              const std::vector<size_t>& in_shape,
              const std::vector<size_t>& kernel_shape, size_t pad_h,
              size_t pad_w, const std::vector<double>& grad_out) {
  Tensor x = Tensor::FromData(in_shape, in);
  Tensor k = Tensor::FromData(kernel_shape, kernel);
  x.set_requires_grad(true);
  k.set_requires_grad(true);
  Tensor y = Conv2d(x, k, pad_h, pad_w);
  // d(sum(y * g))/dy = g: a seeded upstream gradient.
  Sum(Mul(y, Tensor::FromData(y.shape(), grad_out))).Backward();
  return {y.data(), x.grad(), k.grad()};
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// |got[i] - want[i]| <= 1e-12 * scale[i] for every entry, where scale is
// the sum of the absolute values of the terms `want` adds up. Two orders of
// summing the same n products differ by at most 2 (n - 1) 2^-53 of that
// scale; the conv sums here have at most 529 terms (< 1.2e-13), so 1e-12
// leaves headroom, while a missing or misplaced product of any real size
// fails. Exact zeros stay exact.
bool WithinRounding(const std::vector<double>& got,
                    const std::vector<double>& want,
                    const std::vector<double>& scale) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - want[i]) <= 1e-12 * scale[i])) return false;
  }
  return true;
}

std::vector<double> AbsValues(std::vector<double> v) {
  for (double& x : v) x = std::fabs(x);
  return v;
}

// n values in [-2, 2), a quarter of them +0.0 or -0.0.
std::vector<double> SignedZeroValues(util::Rng& rng, size_t n) {
  std::vector<double> v(n);
  for (double& x : v) {
    const uint64_t pick = rng.UniformInt(uint64_t{8});
    x = pick == 0 ? 0.0 : pick == 1 ? -0.0 : rng.Uniform(-2.0, 2.0);
  }
  return v;
}

// The padded four-accumulator forward must reproduce the naive reference
// loop's bits for finite weights, and the backward must match the naive
// gradients within rounding (it reassociates their sums; gradcheck covers
// its math in trainer_parallel_test), over random geometries: every kernel
// shape the models use (1x1, the 3x1 of the ResNet time block, the 3x3 of
// the traffic CNN) plus 5x5, padding from 0 up to the kernel size (so pad
// >= kernel and maps smaller than the kernel occur), and inputs and
// weights seeded with +0.0 and -0.0.
TEST(OpsTest, Conv2dMatchesNaiveReference) {
  util::Rng rng(20261017);
  const size_t kernels[][2] = {{1, 1}, {3, 1}, {3, 3}, {5, 5}};
  size_t cases = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto [kh, kw] = kernels[trial % 4];
    const size_t cin = 1 + rng.UniformInt(uint64_t{9});
    const size_t cout = 1 + rng.UniformInt(uint64_t{9});
    const size_t h = 1 + rng.UniformInt(uint64_t{17});
    const size_t w = 1 + rng.UniformInt(uint64_t{17});
    const size_t pad_h = rng.UniformInt(uint64_t{kh + 1});
    const size_t pad_w = rng.UniformInt(uint64_t{kw + 1});
    if (h + 2 * pad_h < kh || w + 2 * pad_w < kw) continue;  // Conv2d throws
    const std::vector<double> in = SignedZeroValues(rng, cin * h * w);
    const std::vector<double> kernel =
        SignedZeroValues(rng, cout * cin * kh * kw);
    const size_t oh = h + 2 * pad_h - kh + 1, ow = w + 2 * pad_w - kw + 1;
    const std::vector<double> grad_out = SignedZeroValues(rng, cout * oh * ow);
    const ConvGeom geom{cin, h, w, cout, kh, kw, oh, ow, pad_h, pad_w};
    OpRun naive{std::vector<double>(cout * oh * ow),
                std::vector<double>(in.size(), 0.0),
                std::vector<double>(kernel.size(), 0.0)};
    reference::ConvForwardNaive(geom, in.data(), kernel.data(),
                                naive.out.data());
    reference::ConvBackwardNaive(geom, grad_out.data(), in.data(),
                                 kernel.data(), naive.grad_a.data(),
                                 naive.grad_b.data());
    // The same sums over absolute values: each gradient entry's scale.
    std::vector<double> scale_in(in.size(), 0.0), scale_k(kernel.size(), 0.0);
    reference::ConvBackwardNaive(geom, AbsValues(grad_out).data(),
                                 AbsValues(in).data(), AbsValues(kernel).data(),
                                 scale_in.data(), scale_k.data());
    const OpRun got = RunConv(in, kernel, {cin, h, w}, {cout, cin, kh, kw},
                              pad_h, pad_w, grad_out);
    const std::string where =
        "cin " + std::to_string(cin) + " cout " + std::to_string(cout) +
        " map " + std::to_string(h) + "x" + std::to_string(w) + " kernel " +
        std::to_string(kh) + "x" + std::to_string(kw) + " pad " +
        std::to_string(pad_h) + "," + std::to_string(pad_w);
    ASSERT_TRUE(SameBits(naive.out, got.out)) << where;
    ASSERT_TRUE(WithinRounding(got.grad_a, naive.grad_a, scale_in)) << where;
    ASSERT_TRUE(WithinRounding(got.grad_b, naive.grad_b, scale_k)) << where;
    ++cases;
  }
  EXPECT_GT(cases, 300u);
}

TEST(OpsTest, AddChannelBiasAndGlobalAvgPool) {
  Tensor in = Tensor::FromData({2, 1, 2}, {1, 2, 3, 4});
  Tensor bias = Tensor::FromData({2}, {10, 20});
  Tensor out = AddChannelBias(in, bias);
  EXPECT_EQ(out.data(), (std::vector<double>{11, 12, 23, 24}));
  const auto pooled = GlobalAvgPool(in).data();
  EXPECT_DOUBLE_EQ(pooled[0], 1.5);
  EXPECT_DOUBLE_EQ(pooled[1], 3.5);
}

TEST(OpsTest, Losses) {
  Tensor pred = Tensor::FromData({2}, {1.0, 3.0});
  Tensor target = Tensor::FromData({2}, {2.0, 1.0});
  EXPECT_DOUBLE_EQ(MaeLoss(pred, target).item(), 1.5);
  EXPECT_NEAR(EuclideanDistance(pred, target).item(), std::sqrt(5.0), 1e-6);
}

TEST(OpsTest, SqrtGuardsZero) {
  Tensor zero = Tensor::Scalar(0.0);
  zero.set_requires_grad(true);
  Tensor y = Sqrt(zero);
  y.Backward();
  EXPECT_TRUE(std::isfinite(zero.grad()[0]));
}

}  // namespace
}  // namespace deepod::nn
