#include <gtest/gtest.h>

#include <cmath>

#include "nn/conv.h"
#include "nn/lstm.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace deepod::nn {
namespace {

TEST(LinearTest, ShapesAndParamCount) {
  util::Rng rng(1);
  Linear layer(4, 3, rng);
  EXPECT_EQ(layer.Forward(Tensor::Zeros({4})).shape(),
            (std::vector<size_t>{3}));
  EXPECT_EQ(layer.NumParameters(), 4u * 3u + 3u);
  EXPECT_THROW(layer.Forward(Tensor::Zeros({5, 4})), std::invalid_argument);
  EXPECT_THROW(layer.Forward(Tensor::Zeros({2, 2, 2})), std::invalid_argument);
}

TEST(Mlp2Test, OutputDimAndNonlinearity) {
  util::Rng rng(3);
  Mlp2 mlp(2, 8, 1, rng);
  EXPECT_EQ(mlp.out_dim(), 1u);
  // A two-layer MLP with ReLU is not linear: f(2x) != 2 f(x) in general.
  Tensor x = Tensor::FromData({2}, {1.0, -1.0});
  Tensor x2 = Tensor::FromData({2}, {2.0, -2.0});
  const double f1 = mlp.Forward(x).item();
  const double f2 = mlp.Forward(x2).item();
  EXPECT_NE(std::fabs(f2 - 2.0 * f1) < 1e-12, true);
}

TEST(EmbeddingTest, LookupReturnsRow) {
  util::Rng rng(4);
  Embedding emb(5, 3, rng);
  std::vector<std::vector<double>> init(5, std::vector<double>(3));
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 3; ++j) init[i][j] = static_cast<double>(i * 10 + j);
  }
  emb.LoadPretrained(init);
  EXPECT_EQ(emb.Forward(2).data(), (std::vector<double>{20, 21, 22}));
  const Tensor batch = emb.Forward(std::vector<size_t>{4, 0});
  EXPECT_DOUBLE_EQ(batch.at(0, 0), 40);
  EXPECT_DOUBLE_EQ(batch.at(1, 2), 2);
  EXPECT_THROW(emb.Forward(size_t{9}), std::out_of_range);
}

TEST(EmbeddingTest, LoadPretrainedValidates) {
  util::Rng rng(5);
  Embedding emb(2, 3, rng);
  EXPECT_THROW(emb.LoadPretrained({{1, 2, 3}}), std::invalid_argument);
  EXPECT_THROW(emb.LoadPretrained({{1, 2}, {3, 4}}), std::invalid_argument);
}

TEST(LstmTest, ShapesAndDeterminism) {
  util::Rng rng(6);
  Lstm lstm(3, 5, rng);
  std::vector<Tensor> seq = {Tensor::FromData({3}, {1, 0, -1}),
                             Tensor::FromData({3}, {0.5, 0.5, 0.5})};
  const Tensor h1 = lstm.Forward(seq);
  EXPECT_EQ(h1.shape(), (std::vector<size_t>{5}));
  const Tensor h2 = lstm.Forward(seq);
  EXPECT_EQ(h1.data(), h2.data());
  EXPECT_THROW(lstm.Forward({}), std::invalid_argument);
  EXPECT_THROW(lstm.Forward({Tensor::Zeros({4})}), std::invalid_argument);
}

TEST(LstmTest, HiddenStatesBoundedByTanh) {
  util::Rng rng(7);
  Lstm lstm(2, 4, rng);
  std::vector<Tensor> seq;
  for (int i = 0; i < 20; ++i) {
    seq.push_back(Tensor::FromData({2}, {100.0, -100.0}));  // extreme inputs
  }
  const auto states = lstm.ForwardAll(seq);
  EXPECT_EQ(states.size(), 20u);
  for (const auto& h : states) {
    for (double v : h.data()) {
      EXPECT_LE(std::fabs(v), 1.0);  // |h| = |o * tanh(c)| <= 1
    }
  }
}

TEST(LstmTest, OrderSensitivity) {
  util::Rng rng(8);
  Lstm lstm(2, 4, rng);
  std::vector<Tensor> ab = {Tensor::FromData({2}, {1, 0}),
                            Tensor::FromData({2}, {0, 1})};
  std::vector<Tensor> ba = {ab[1], ab[0]};
  const auto h_ab = lstm.Forward(ab).data();
  const auto h_ba = lstm.Forward(ba).data();
  double diff = 0.0;
  for (size_t i = 0; i < h_ab.size(); ++i) diff += std::fabs(h_ab[i] - h_ba[i]);
  EXPECT_GT(diff, 1e-6);  // a sequence model must be order-sensitive
}

TEST(BatchNormTest, NormalisesTrainingInstance) {
  BatchNorm2d bn(1);
  Tensor in = Tensor::FromData({1, 1, 4}, {2, 4, 6, 8});
  const auto out = bn.Forward(in).data();
  double mean = 0.0;
  for (double v : out) mean += v;
  EXPECT_NEAR(mean / 4.0, 0.0, 1e-9);  // gamma=1, beta=0 at init
  double var = 0.0;
  for (double v : out) var += v * v;
  EXPECT_NEAR(var / 4.0, 1.0, 1e-3);
}

TEST(BatchNormTest, RunningStatsConverge) {
  util::Rng rng(9);
  BatchNorm2d bn(1, /*momentum=*/0.5);
  for (int i = 0; i < 50; ++i) {
    Tensor in = Tensor::Randn({1, 4, 4}, rng, 2.0);
    for (double& v : in.data()) v += 10.0;
    bn.Forward(in);
  }
  EXPECT_NEAR(bn.running_mean()[0], 10.0, 0.5);
  EXPECT_NEAR(bn.running_var()[0], 4.0, 1.0);
}

TEST(BatchNormTest, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  bn.Forward(Tensor::FromData({1, 1, 2}, {0.0, 2.0}));  // warm up
  bn.SetTraining(false);
  // In eval mode two different instances map through the same affine.
  const auto a = bn.Forward(Tensor::FromData({1, 1, 2}, {1.0, 1.0})).data();
  EXPECT_NEAR(a[0], a[1], 1e-12);
}

TEST(ResNetBlockTest, PreservesShapeAcrossDeltaD) {
  util::Rng rng(10);
  ResNetTimeBlock block(rng);
  for (size_t dd : {1u, 2u, 5u, 9u}) {
    Tensor in = Tensor::Randn({dd, 6}, rng, 1.0);
    EXPECT_EQ(block.Forward(in).shape(), (std::vector<size_t>{dd, 6}));
  }
  EXPECT_THROW(block.Forward(Tensor::Zeros({2, 2, 2})), std::invalid_argument);
}

TEST(ResNetBlockTest, ResidualPathDominatesAtInit) {
  // With small random kernels the block output stays close to its input
  // (identity mapping + small residual), the property ResNets rely on.
  util::Rng rng(11);
  ResNetTimeBlock block(rng);
  Tensor in = Tensor::Randn({4, 6}, rng, 1.0);
  const auto out = block.Forward(in).data();
  double corr_num = 0.0, in_sq = 0.0, out_sq = 0.0;
  for (size_t i = 0; i < out.size(); ++i) {
    corr_num += out[i] * in.data()[i];
    in_sq += in.data()[i] * in.data()[i];
    out_sq += out[i] * out[i];
  }
  EXPECT_GT(corr_num / std::sqrt(in_sq * out_sq), 0.5);
}

TEST(TrafficCnnTest, OutputDim) {
  util::Rng rng(12);
  TrafficCnn cnn(7, rng);
  Tensor in = Tensor::Randn({1, 9, 11}, rng, 1.0);
  EXPECT_EQ(cnn.Forward(in).shape(), (std::vector<size_t>{7}));
  EXPECT_THROW(cnn.Forward(Tensor::Zeros({2, 3, 3})), std::invalid_argument);
}

TEST(OptimizerTest, AdamConvergesOnIllConditionedQuadratic) {
  Tensor x = Tensor::FromData({2}, {5.0, -3.0});
  x.set_requires_grad(true);
  Adam adam({x}, 0.1);
  Tensor scales = Tensor::FromData({2}, {100.0, 0.01});
  for (int i = 0; i < 500; ++i) {
    adam.ZeroGrad();
    Tensor loss = Sum(Mul(scales, Square(x)));
    loss.Backward();
    adam.Step();
  }
  EXPECT_NEAR(x.data()[0], 0.0, 1e-3);
  EXPECT_NEAR(x.data()[1], 0.0, 0.2);
}

TEST(OptimizerTest, ClipGradNorm) {
  Tensor x = Tensor::FromData({2}, {0.0, 0.0});
  x.set_requires_grad(true);
  x.mutable_grad() = {3.0, 4.0};  // norm 5
  Adam adam({x}, 1.0);
  const double pre = adam.ClipGradNorm(2.5);
  EXPECT_DOUBLE_EQ(pre, 5.0);
  EXPECT_NEAR(x.grad()[0], 1.5, 1e-12);
  EXPECT_NEAR(x.grad()[1], 2.0, 1e-12);
  // Below the threshold: untouched.
  EXPECT_NEAR(adam.ClipGradNorm(10.0), 2.5, 1e-12);
  EXPECT_NEAR(x.grad()[0], 1.5, 1e-12);
}

}  // namespace
}  // namespace deepod::nn
