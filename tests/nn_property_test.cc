// Property-style sweeps over the nn substrate: randomly composed op DAGs
// must pass gradient checking, optimiser invariants must hold across
// shapes, and modules must be deterministic functions of their seeds.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/conv.h"
#include "nn/gradcheck.h"
#include "nn/lstm.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "util/rng.h"

namespace deepod::nn {
namespace {

// --- Random-DAG gradient checks (parameterised by seed) --------------------

class RandomDagGradTest : public ::testing::TestWithParam<uint64_t> {};

// Builds a random smooth computation over a pool of parameter tensors and
// verifies autograd against finite differences. Smooth ops only (no
// relu/abs kinks) so central differences are reliable at every point.
TEST_P(RandomDagGradTest, MatchesFiniteDifference) {
  util::Rng rng(GetParam());
  std::vector<Tensor> params;
  for (int i = 0; i < 3; ++i) {
    Tensor t = Tensor::Randn({4}, rng, 0.7);
    t.set_requires_grad(true);
    params.push_back(t);
  }
  auto loss_fn = [&params, seed = GetParam()] {
    util::Rng op_rng(seed ^ 0xabcdef);
    std::vector<Tensor> pool = params;
    // Compose 8 random binary/unary smooth ops.
    for (int step = 0; step < 8; ++step) {
      const size_t a = op_rng.UniformInt(static_cast<uint64_t>(pool.size()));
      const size_t b = op_rng.UniformInt(static_cast<uint64_t>(pool.size()));
      Tensor result;
      switch (op_rng.UniformInt(uint64_t{5})) {
        case 0:
          result = Add(pool[a], pool[b]);
          break;
        case 1:
          result = Mul(pool[a], pool[b]);
          break;
        case 2:
          result = Tanh(pool[a]);
          break;
        case 3:
          result = Sigmoid(pool[a]);
          break;
        default:
          result = Scale(pool[a], 0.5);
          break;
      }
      pool.push_back(result);
    }
    Tensor total = Sum(pool.back());
    for (size_t i = 0; i + 1 < pool.size(); ++i) {
      total = Add(total, Mean(pool[i]));
    }
    return total;
  };
  const auto result = CheckGradients(loss_fn, params, 1e-5, 1e-6, 1e-4);
  EXPECT_TRUE(result.ok) << "seed " << GetParam()
                         << " max_abs_err=" << result.max_abs_error;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagGradTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// --- Conv2d shape sweep ------------------------------------------------------

struct ConvCase {
  size_t cin, h, w, cout, kh, kw, pad_h, pad_w;
};

class ConvShapeTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvShapeTest, OutputShapeAndGradient) {
  const auto& c = GetParam();
  util::Rng rng(31);
  Tensor in = Tensor::Randn({c.cin, c.h, c.w}, rng, 0.5);
  in.set_requires_grad(true);
  Tensor k = Tensor::Randn({c.cout, c.cin, c.kh, c.kw}, rng, 0.5);
  k.set_requires_grad(true);
  Tensor out = Conv2d(in, k, c.pad_h, c.pad_w);
  EXPECT_EQ(out.dim(0), c.cout);
  EXPECT_EQ(out.dim(1), c.h + 2 * c.pad_h - c.kh + 1);
  EXPECT_EQ(out.dim(2), c.w + 2 * c.pad_w - c.kw + 1);
  auto loss_fn = [&] { return Sum(Square(Conv2d(in, k, c.pad_h, c.pad_w))); };
  EXPECT_TRUE(CheckGradients(loss_fn, {in, k}).ok);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvShapeTest,
    ::testing::Values(ConvCase{1, 1, 4, 2, 1, 1, 0, 0},
                      ConvCase{1, 5, 3, 4, 3, 1, 1, 0},
                      ConvCase{2, 4, 4, 3, 3, 3, 1, 1},
                      ConvCase{3, 2, 6, 1, 1, 3, 0, 1},
                      ConvCase{4, 3, 3, 2, 3, 3, 2, 2}));

// --- LSTM properties ---------------------------------------------------------

TEST(LstmPropertyTest, SequenceLengthIndependentParamCount) {
  util::Rng rng(41);
  Lstm lstm(5, 7, rng);
  const size_t params = lstm.NumParameters();
  // 4 gates x (weights [7 x 12] + bias [7]).
  EXPECT_EQ(params, 4u * (7u * 12u + 7u));
}

TEST(LstmPropertyTest, PrefixConsistency) {
  // h_k from ForwardAll over a long sequence equals Forward over its prefix.
  util::Rng rng(42);
  Lstm lstm(3, 4, rng);
  std::vector<Tensor> seq;
  for (int i = 0; i < 6; ++i) seq.push_back(Tensor::Randn({3}, rng, 1.0));
  const auto all = lstm.ForwardAll(seq);
  for (size_t k : {size_t{1}, size_t{3}, size_t{6}}) {
    std::vector<Tensor> prefix(seq.begin(), seq.begin() + k);
    const auto h = lstm.Forward(prefix);
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(h.at(j), all[k - 1].at(j), 1e-12);
    }
  }
}

// --- Optimiser invariants ----------------------------------------------------

TEST(OptimizerPropertyTest, AdamStepMagnitudeBounded) {
  // Adam's per-parameter step is bounded by ~lr regardless of gradient
  // scale (the property that makes the seconds-scale main loss workable).
  util::Rng rng(51);
  Tensor p = Tensor::Zeros({8});
  p.set_requires_grad(true);
  Adam adam({p}, 0.01);
  for (double scale : {1e-4, 1.0, 1e6}) {
    Tensor q = Tensor::Zeros({8});
    q.set_requires_grad(true);
    Adam opt({q}, 0.01);
    for (double& g : q.mutable_grad()) g = scale * rng.Normal();
    opt.Step();
    for (double v : q.data()) {
      EXPECT_LE(std::fabs(v), 0.011) << "scale " << scale;
    }
  }
}

TEST(OptimizerPropertyTest, ZeroGradZeroStep) {
  Tensor p = Tensor::FromData({3}, {1.0, 2.0, 3.0});
  p.set_requires_grad(true);
  p.mutable_grad() = {1.0, -2.0, 0.5};
  Adam adam({p}, 0.5);
  adam.ZeroGrad();
  adam.Step();
  EXPECT_EQ(p.data(), (std::vector<double>{1.0, 2.0, 3.0}));
}

// --- Determinism -------------------------------------------------------------

TEST(DeterminismTest, ModulesIdenticalAcrossConstructionsWithSameSeed) {
  auto build = [] {
    util::Rng rng(77);
    Mlp2 mlp(4, 6, 2, rng);
    return SerializeStateDict(mlp.State());
  };
  EXPECT_EQ(build(), build());
}

TEST(DeterminismTest, TrainingStepReproducible) {
  auto run = [] {
    util::Rng rng(78);
    Linear layer(3, 1, rng);
    Adam adam(layer.Parameters(), 0.01);
    util::Rng data_rng(79);
    for (int i = 0; i < 20; ++i) {
      adam.ZeroGrad();
      Tensor x = Tensor::Randn({3}, data_rng, 1.0);
      Tensor loss = Square(Sum(layer.Forward(x)));
      loss.Backward();
      adam.Step();
    }
    return SerializeStateDict(layer.State());
  };
  EXPECT_EQ(run(), run());
}

// --- BatchNorm across channel counts ----------------------------------------

class BatchNormChannelTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BatchNormChannelTest, EachChannelNormalisedIndependently) {
  const size_t channels = GetParam();
  util::Rng rng(91);
  BatchNorm2d bn(channels);
  Tensor in = Tensor::Randn({channels, 3, 4}, rng, 2.0);
  // Offset each channel by a distinct large constant.
  for (size_t c = 0; c < channels; ++c) {
    for (size_t i = 0; i < 12; ++i) {
      in.data()[c * 12 + i] += 10.0 * static_cast<double>(c + 1);
    }
  }
  const Tensor out = bn.Forward(in);
  for (size_t c = 0; c < channels; ++c) {
    double mean = 0.0;
    for (size_t i = 0; i < 12; ++i) mean += out.data()[c * 12 + i];
    EXPECT_NEAR(mean / 12.0, 0.0, 1e-9) << "channel " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Channels, BatchNormChannelTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

}  // namespace
}  // namespace deepod::nn
