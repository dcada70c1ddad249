// Finite-difference gradient verification for every op and module — the
// property tests that certify the autograd engine implements the paper's
// equations (Eq. 1-20) with exact gradients.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/conv.h"
#include "nn/gradcheck.h"
#include "nn/lstm.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "util/rng.h"

namespace deepod::nn {
namespace {

Tensor MakeParam(std::vector<size_t> shape, util::Rng& rng) {
  Tensor t = Tensor::Randn(std::move(shape), rng, 0.5);
  t.set_requires_grad(true);
  return t;
}

// --- Parameterised sweep over unary elementwise ops ------------------------

struct UnaryCase {
  const char* name;
  std::function<Tensor(const Tensor&)> op;
};

class UnaryGradTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradTest, MatchesFiniteDifference) {
  util::Rng rng(101);
  Tensor x = MakeParam({7}, rng);
  // Shift away from the ReLU/Abs kink at 0 to keep finite differences valid.
  for (double& v : x.data()) {
    if (std::fabs(v) < 0.05) v += 0.1;
  }
  const auto& op = GetParam().op;
  auto loss_fn = [&] { return Sum(op(x)); };
  const auto result = CheckGradients(loss_fn, {x});
  EXPECT_TRUE(result.ok) << GetParam().name
                         << " max_abs_err=" << result.max_abs_error;
}

INSTANTIATE_TEST_SUITE_P(
    AllUnaryOps, UnaryGradTest,
    ::testing::Values(
        UnaryCase{"relu", [](const Tensor& x) { return Relu(x); }},
        UnaryCase{"sigmoid", [](const Tensor& x) { return Sigmoid(x); }},
        UnaryCase{"tanh", [](const Tensor& x) { return Tanh(x); }},
        UnaryCase{"abs", [](const Tensor& x) { return Abs(x); }},
        UnaryCase{"square", [](const Tensor& x) { return Square(x); }},
        UnaryCase{"scale", [](const Tensor& x) { return Scale(x, -2.5); }},
        UnaryCase{"sqrt_sq",
                  [](const Tensor& x) { return Sqrt(Square(x), 1e-9); }}),
    [](const ::testing::TestParamInfo<UnaryCase>& info) {
      return info.param.name;
    });

// --- Binary / structural ops ------------------------------------------------

TEST(GradCheckTest, AddSubMul) {
  util::Rng rng(7);
  Tensor a = MakeParam({5}, rng);
  Tensor b = MakeParam({5}, rng);
  auto loss = [&] { return Sum(Mul(Add(a, b), Sub(a, b))); };
  EXPECT_TRUE(CheckGradients(loss, {a, b}).ok);
}

TEST(GradCheckTest, Affine) {
  util::Rng rng(10);
  Tensor w = MakeParam({3, 4}, rng);
  Tensor x = MakeParam({4}, rng);
  Tensor b = MakeParam({3}, rng);
  auto loss = [&] { return Sum(Tanh(Affine(w, x, b))); };
  EXPECT_TRUE(CheckGradients(loss, {w, x, b}).ok);
}

TEST(GradCheckTest, ConcatAndRow) {
  util::Rng rng(12);
  Tensor a = MakeParam({3}, rng);
  Tensor b = MakeParam({2}, rng);
  Tensor m = MakeParam({4, 3}, rng);
  auto loss = [&] {
    Tensor cat = ConcatVec({a, b, Row(m, 1)});
    // Row 2 twice: its gradient accumulates.
    Tensor repeated = ConcatVec({a, Row(m, 2), Row(m, 2)});
    return Add(Sum(Square(cat)), Sum(Tanh(repeated)));
  };
  EXPECT_TRUE(CheckGradients(loss, {a, b, m}).ok);
}

TEST(GradCheckTest, GatherRowsRepeatedIndices) {
  util::Rng rng(13);
  Tensor m = MakeParam({5, 3}, rng);
  auto loss = [&] { return Sum(Square(GatherRows(m, {0, 2, 2, 4}))); };
  EXPECT_TRUE(CheckGradients(loss, {m}).ok);
}

TEST(GradCheckTest, MeanAndMeanRows) {
  util::Rng rng(14);
  Tensor m = MakeParam({4, 3}, rng);
  auto loss = [&] { return Add(Mean(m), Sum(Square(MeanRows(m)))); };
  EXPECT_TRUE(CheckGradients(loss, {m}).ok);
}

TEST(GradCheckTest, Conv2dWithPadding) {
  util::Rng rng(15);
  Tensor in = MakeParam({2, 4, 3}, rng);
  Tensor k = MakeParam({3, 2, 3, 1}, rng);
  auto loss = [&] { return Sum(Square(Conv2d(in, k, 1, 0))); };
  EXPECT_TRUE(CheckGradients(loss, {in, k}).ok);
}

TEST(GradCheckTest, ChannelBiasAndPool) {
  util::Rng rng(16);
  Tensor in = MakeParam({2, 3, 3}, rng);
  Tensor bias = MakeParam({2}, rng);
  auto loss = [&] {
    return Sum(Square(GlobalAvgPool(AddChannelBias(in, bias))));
  };
  EXPECT_TRUE(CheckGradients(loss, {in, bias}).ok);
}

TEST(GradCheckTest, Losses) {
  util::Rng rng(17);
  Tensor pred = MakeParam({6}, rng);
  Tensor target = Tensor::FromData({6}, {0.4, -0.2, 1.7, 0.8, -1.1, 0.3});
  auto loss = [&] {
    return Add(MaeLoss(pred, target), EuclideanDistance(pred, target));
  };
  EXPECT_TRUE(CheckGradients(loss, {pred}).ok);
}

// --- Modules ----------------------------------------------------------------

TEST(GradCheckTest, Linear) {
  util::Rng rng(18);
  Linear layer(4, 3, rng);
  Tensor x = MakeParam({4}, rng);
  auto loss = [&] { return Sum(Tanh(layer.Forward(x))); };
  auto params = layer.Parameters();
  params.push_back(x);
  EXPECT_TRUE(CheckGradients(loss, params).ok);
}

TEST(GradCheckTest, Mlp2) {
  util::Rng rng(19);
  Mlp2 mlp(3, 5, 2, rng);
  Tensor x = MakeParam({3}, rng);
  auto loss = [&] { return Sum(Square(mlp.Forward(x))); };
  auto params = mlp.Parameters();
  params.push_back(x);
  EXPECT_TRUE(CheckGradients(loss, params).ok);
}

TEST(GradCheckTest, EmbeddingLookup) {
  util::Rng rng(20);
  Embedding emb(6, 3, rng);
  auto loss = [&] {
    return Sum(Square(ConcatVec({emb.Forward(1), emb.Forward(4)})));
  };
  EXPECT_TRUE(CheckGradients(loss, emb.Parameters()).ok);
}

TEST(GradCheckTest, LstmSequence) {
  util::Rng rng(21);
  Lstm lstm(3, 4, rng);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 3; ++i) inputs.push_back(MakeParam({3}, rng));
  auto loss = [&] { return Sum(Square(lstm.Forward(inputs))); };
  auto params = lstm.Parameters();
  for (auto& in : inputs) params.push_back(in);
  EXPECT_TRUE(CheckGradients(loss, params, 1e-5, 1e-5, 1e-3).ok);
}

TEST(GradCheckTest, BatchNormTrainingStats) {
  util::Rng rng(22);
  BatchNorm2d bn(2);
  Tensor in = MakeParam({2, 2, 3}, rng);
  auto loss = [&] { return Sum(Square(bn.Forward(in))); };
  // Note: running statistics update during each call, but they do not feed
  // the training-mode output, so finite differences remain valid.
  auto params = bn.Parameters();
  params.push_back(in);
  EXPECT_TRUE(CheckGradients(loss, params, 1e-5, 1e-5, 1e-3).ok);
}

TEST(GradCheckTest, BatchNormEvalMode) {
  util::Rng rng(23);
  BatchNorm2d bn(2);
  Tensor warm = Tensor::Randn({2, 3, 3}, rng, 1.0);
  bn.Forward(warm);  // populate running stats
  bn.SetTraining(false);
  Tensor in = MakeParam({2, 2, 2}, rng);
  auto loss = [&] { return Sum(Square(bn.Forward(in))); };
  auto params = bn.Parameters();
  params.push_back(in);
  EXPECT_TRUE(CheckGradients(loss, params).ok);
}

TEST(GradCheckTest, ResNetTimeBlock) {
  util::Rng rng(24);
  ResNetTimeBlock block(rng);
  Tensor in = MakeParam({3, 4}, rng);  // Δd = 3 slots, d_t = 4
  auto loss = [&] { return Sum(Square(block.Forward(in))); };
  auto params = block.Parameters();
  params.push_back(in);
  EXPECT_TRUE(CheckGradients(loss, params, 1e-5, 1e-5, 1e-3).ok);
}

TEST(GradCheckTest, ResNetTimeBlockSingleSlot) {
  // Δd = 1 (interval within one slot) is the most common path shape.
  util::Rng rng(25);
  ResNetTimeBlock block(rng);
  Tensor in = MakeParam({1, 4}, rng);
  auto loss = [&] { return Sum(Square(block.Forward(in))); };
  auto params = block.Parameters();
  params.push_back(in);
  EXPECT_TRUE(CheckGradients(loss, params, 1e-5, 1e-5, 1e-3).ok);
}

TEST(GradCheckTest, TrafficCnn) {
  util::Rng rng(26);
  TrafficCnn cnn(3, rng);
  Tensor in = MakeParam({1, 5, 4}, rng);
  auto loss = [&] { return Sum(Square(cnn.Forward(in))); };
  auto params = cnn.Parameters();
  params.push_back(in);
  EXPECT_TRUE(CheckGradients(loss, params, 1e-5, 1e-5, 1e-3).ok);
}

}  // namespace
}  // namespace deepod::nn
