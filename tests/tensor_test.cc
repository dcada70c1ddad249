#include <gtest/gtest.h>

#include "nn/ops.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace deepod::nn {
namespace {

TEST(TensorTest, Factories) {
  Tensor z = Tensor::Zeros({2, 3});
  EXPECT_EQ(z.size(), 6u);
  EXPECT_EQ(z.ndim(), 2u);
  for (double v : z.data()) EXPECT_EQ(v, 0.0);

  Tensor f = Tensor::Full({4}, 1.5);
  for (double v : f.data()) EXPECT_EQ(v, 1.5);

  Tensor s = Tensor::Scalar(3.0);
  EXPECT_EQ(s.item(), 3.0);

  Tensor d = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(d.at(1, 0), 3.0);
}

TEST(TensorTest, FromDataShapeMismatchThrows) {
  EXPECT_THROW(Tensor::FromData({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(TensorTest, RandnStatistics) {
  util::Rng rng(1);
  Tensor t = Tensor::Randn({10000}, rng, 2.0);
  double sum = 0.0, sq = 0.0;
  for (double v : t.data()) {
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.0, 0.1);
  EXPECT_NEAR(sq / 10000.0, 4.0, 0.2);
}

TEST(TensorTest, AccessorsValidateRank) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_THROW(t.at(0, 0, 0), std::logic_error);
  EXPECT_THROW(t.item(), std::logic_error);
  EXPECT_THROW(t.dim(5), std::out_of_range);
}

TEST(TensorTest, SetAndGet3d) {
  Tensor t = Tensor::Zeros({2, 2, 2});
  t.set(1, 0, 1, 7.0);
  EXPECT_EQ(t.at(1, 0, 1), 7.0);
}

TEST(TensorTest, NullHandleThrows) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_THROW(t.shape(), std::logic_error);
  EXPECT_THROW(t.data(), std::logic_error);
}

TEST(TensorTest, BackwardOnScalarOnly) {
  Tensor t = Tensor::Zeros({3});
  EXPECT_THROW(t.Backward(), std::logic_error);
}

TEST(TensorTest, BackwardSimpleChain) {
  Tensor x = Tensor::Scalar(2.0);
  x.set_requires_grad(true);
  Tensor y = Mul(x, x);  // y = x^2, dy/dx = 2x = 4
  y.Backward();
  EXPECT_DOUBLE_EQ(x.grad()[0], 4.0);
}

TEST(TensorTest, GradAccumulatesAcrossBackwardCalls) {
  Tensor x = Tensor::Scalar(3.0);
  x.set_requires_grad(true);
  Tensor y1 = Scale(x, 2.0);
  y1.Backward();
  Tensor y2 = Scale(x, 5.0);
  y2.Backward();
  EXPECT_DOUBLE_EQ(x.grad()[0], 7.0);  // 2 + 5
  x.ZeroGrad();
  EXPECT_DOUBLE_EQ(x.grad()[0], 0.0);
}

TEST(TensorTest, DiamondGraphGradient) {
  // y = a*x + b*x where a=2, b=3 constants: dy/dx = 5.
  Tensor x = Tensor::Scalar(1.0);
  x.set_requires_grad(true);
  Tensor y = Add(Scale(x, 2.0), Scale(x, 3.0));
  y.Backward();
  EXPECT_DOUBLE_EQ(x.grad()[0], 5.0);
}

TEST(TensorTest, DeepChainBackwardNoStackOverflow) {
  // 10k-op chain exercises the iterative topological sort.
  Tensor x = Tensor::Scalar(1.0);
  x.set_requires_grad(true);
  Tensor y = x;
  for (int i = 0; i < 10000; ++i) y = Scale(y, 1.0);
  y.Backward();
  EXPECT_DOUBLE_EQ(x.grad()[0], 1.0);
}

TEST(TensorTest, ShapeString) {
  EXPECT_EQ(Tensor::Zeros({2, 3}).ShapeString(), "[2,3]");
  EXPECT_EQ(Tensor::Scalar(1.0).ShapeString(), "[1]");
}

TEST(TensorTest, NoGradTrackingWithoutRequiresGrad) {
  Tensor a = Tensor::Scalar(1.0);
  Tensor b = Tensor::Scalar(2.0);
  Tensor c = Add(a, b);
  // Parents are pruned when no input needs grad.
  c.Backward();
  EXPECT_DOUBLE_EQ(a.grad()[0], 0.0);
}

}  // namespace
}  // namespace deepod::nn
