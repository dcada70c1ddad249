// Tests for the kSimd kernel tier (nn/simd.h) and the int8/fp16 quantised
// predict-only path (nn/quant.h, serialize v3, artifact options):
//
//  - packed-GEMV layout and tail lanes: every (N, I, O) shape class,
//    including N = 1 and dimensions not divisible by 4/8;
//  - the kSimd floating-point contracts: GEMV-shaped ops within an explicit
//    tolerance of the scalar tiers, Conv2d and the inactive-AVX2 fallback
//    bit-identical to kVector, Affine == AffineRows row-for-row;
//  - packed-weights cache invalidation on parameter mutation;
//  - the f16 codec (round-to-nearest-even, denormals, overflow) and the
//    per-row absmax int8 codec;
//  - serialize v3 round trips, the v2-byte-identity guarantee and the
//    "quant dtypes only in v3" negative case;
//  - end-to-end artifact MAE budgets: int8/fp16 serving predictions vs the
//    fp64 goldens across batch sizes and thread counts, and the
//    EtaService quant/kernel_mode options.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/deepod_config.h"
#include "core/deepod_model.h"
#include "io/model_artifact.h"
#include "nn/lstm.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/quant.h"
#include "nn/serialize.h"
#include "nn/simd.h"
#include "nn/tensor.h"
#include "serve/eta_service.h"
#include "sim/dataset.h"
#include "sim/snapshot_speed_field.h"
#include "util/thread_pool.h"

namespace deepod {
namespace {

using nn::KernelMode;
using nn::KernelModeScope;
using nn::QuantMode;
using nn::Tensor;

// Tolerance of the kSimd GEMV contract: same inputs, different (fused,
// 4-row) summation order. The dimensions here are tiny, so a loose absolute
// bound is still billions of ulp away from a real bug.
constexpr double kSimdTol = 1e-9;

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

// --- Packed GEMV layout ------------------------------------------------------

TEST(SimdPackTest, PackGemvCoversEveryRowOnce) {
  // Shapes straddling the panel boundary: rows % 4 in {0, 1, 2, 3}.
  for (const auto& [rows, cols] :
       {std::pair<size_t, size_t>{1, 3}, {2, 7}, {3, 5}, {4, 4}, {5, 129},
        {8, 1}, {13, 65}}) {
    std::vector<double> w(rows * cols);
    for (size_t i = 0; i < w.size(); ++i) w[i] = static_cast<double>(i) + 0.5;
    const nn::PackedGemv packed = nn::PackGemv(w.data(), rows, cols);
    ASSERT_EQ(packed.rows, rows);
    ASSERT_EQ(packed.cols, cols);
    ASSERT_EQ(packed.full_panels, rows / nn::kGemvPanel);
    ASSERT_EQ(packed.panels.size(), packed.full_panels * cols * nn::kGemvPanel);
    ASSERT_EQ(packed.tail.size(), (rows % nn::kGemvPanel) * cols);
    // Reconstruct W from the panel-major layout and the row-major tail.
    for (size_t r = 0; r < rows; ++r) {
      for (size_t j = 0; j < cols; ++j) {
        const size_t p = r / nn::kGemvPanel, lane = r % nn::kGemvPanel;
        const double got =
            p < packed.full_panels
                ? packed.panels[(p * cols + j) * nn::kGemvPanel + lane]
                : packed.tail[(r - packed.full_panels * nn::kGemvPanel) * cols +
                              j];
        ASSERT_EQ(got, w[r * cols + j]) << rows << "x" << cols << " at " << r
                                        << "," << j;
      }
    }
  }
}

// --- kSimd vs scalar tiers ---------------------------------------------------

// Every (batch, in, out) shape class the serving path can hit, none of the
// interesting ones divisible by the 4-wide panel or the 8-wide unroll.
const std::vector<std::array<size_t, 3>>& TailShapes() {
  static const std::vector<std::array<size_t, 3>> shapes = {
      {1, 3, 5}, {2, 7, 4}, {1, 1, 1}, {3, 129, 65}, {7, 8, 8}, {4, 16, 12}};
  return shapes;
}

TEST(SimdKernelTest, AffineRowsMatchesVectorTierWithinTolerance) {
  util::Rng rng(11);
  for (const auto& [n, in, out] : TailShapes()) {
    const Tensor x = Tensor::Randn({n, in}, rng, 1.0);
    const Tensor w = Tensor::Randn({out, in}, rng, 1.0);
    const Tensor b = Tensor::Randn({out}, rng, 1.0);
    std::vector<double> vec, simd;
    {
      const nn::InferenceGuard guard;
      const KernelModeScope mode(KernelMode::kVector);
      vec = nn::AffineRows(x, w, b).data();
    }
    {
      const nn::InferenceGuard guard;
      const KernelModeScope mode(KernelMode::kSimd);
      simd = nn::AffineRows(x, w, b).data();
    }
    EXPECT_LE(MaxAbsDiff(vec, simd), kSimdTol)
        << "shape " << n << "x" << in << "->" << out;
  }
}

TEST(SimdKernelTest, AffineBitIdenticalToAffineRowsPerRow) {
  // The Predict == PredictBatch bit-identity contract rides on Affine and
  // AffineRows running the exact same per-row kernel in every tier,
  // including kSimd's packed GEMV.
  util::Rng rng(12);
  for (const auto& [n, in, out] : TailShapes()) {
    const Tensor x = Tensor::Randn({n, in}, rng, 1.0);
    const Tensor w = Tensor::Randn({out, in}, rng, 1.0);
    const Tensor b = Tensor::Randn({out}, rng, 1.0);
    const nn::InferenceGuard guard;
    const KernelModeScope mode(KernelMode::kSimd);
    const std::vector<double> rows = nn::AffineRows(x, w, b).data();
    for (size_t r = 0; r < n; ++r) {
      const Tensor xr = Tensor::FromData(
          {in}, std::vector<double>(x.data().begin() + r * in,
                                    x.data().begin() + (r + 1) * in));
      const std::vector<double> single = nn::Affine(w, xr, b).data();
      ASSERT_EQ(std::memcmp(single.data(), rows.data() + r * out,
                            out * sizeof(double)),
                0)
          << "row " << r;
    }
  }
}

TEST(SimdKernelTest, MatMulMatchesVectorTierWithinTolerance) {
  util::Rng rng(13);
  for (const auto& [m, k, n] : TailShapes()) {
    const Tensor a = Tensor::Randn({m, k}, rng, 1.0);
    const Tensor b = Tensor::Randn({k, n}, rng, 1.0);
    std::vector<double> vec, simd;
    {
      const nn::InferenceGuard guard;
      const KernelModeScope mode(KernelMode::kVector);
      vec = nn::MatMul(a, b).data();
    }
    {
      const nn::InferenceGuard guard;
      const KernelModeScope mode(KernelMode::kSimd);
      simd = nn::MatMul(a, b).data();
    }
    EXPECT_LE(MaxAbsDiff(vec, simd), kSimdTol)
        << "shape " << m << "x" << k << "x" << n;
  }
}

TEST(SimdKernelTest, LstmForwardMatchesVectorTierWithinTolerance) {
  // Odd input/hidden dims exercise the GemvBiasPacked2 tail rows and the
  // scalar tail of the vectorised activations.
  util::Rng rng(14);
  for (const auto& [in, hd] :
       {std::pair<size_t, size_t>{24, 16}, {7, 5}, {3, 1}, {13, 9}}) {
    nn::Lstm lstm(in, hd, rng);
    std::vector<Tensor> inputs;
    for (int t = 0; t < 6; ++t) inputs.push_back(Tensor::Randn({in}, rng, 1.0));
    std::vector<double> vec, simd;
    {
      const nn::InferenceGuard guard;
      const KernelModeScope mode(KernelMode::kVector);
      vec = lstm.Forward(inputs).data();
    }
    {
      const nn::InferenceGuard guard;
      const KernelModeScope mode(KernelMode::kSimd);
      simd = lstm.Forward(inputs).data();
    }
    EXPECT_LE(MaxAbsDiff(vec, simd), kSimdTol) << in << "->" << hd;
  }
}

TEST(SimdKernelTest, Conv2dMatchesVectorTierWithinTolerance) {
  // Conv2d's kSimd kernel keeps kVector's element order but fuses each
  // multiply-add into one FMA: at most one rounding of difference per tap,
  // far inside the shared kSimd tolerance.
  util::Rng rng(15);
  const Tensor input = Tensor::Randn({3, 7, 9}, rng, 1.0);
  const Tensor kernel = Tensor::Randn({5, 3, 3, 3}, rng, 1.0);
  std::vector<double> vec, simd;
  {
    const nn::InferenceGuard guard;
    const KernelModeScope mode(KernelMode::kVector);
    vec = nn::Conv2d(input, kernel, 1, 1).data();
  }
  {
    const nn::InferenceGuard guard;
    const KernelModeScope mode(KernelMode::kSimd);
    simd = nn::Conv2d(input, kernel, 1, 1).data();
  }
  ASSERT_EQ(vec.size(), simd.size());
  EXPECT_LE(MaxAbsDiff(vec, simd), kSimdTol);
}

TEST(SimdKernelTest, InactiveSimdIsBitIdenticalToVector) {
  // When AVX2 is compiled out, unsupported by the CPU, or disabled via
  // DEEPOD_SIMD=off, kSimd must take the kVector code path exactly. On an
  // AVX2 host this case runs in the forced-scalar CI job (DEEPOD_SIMD=off).
  if (nn::Avx2Active()) {
    GTEST_SKIP() << "AVX2 active (backend " << nn::SimdBackendName()
                 << "); fallback covered by the DEEPOD_SIMD=off job";
  }
  util::Rng rng(16);
  const Tensor x = Tensor::Randn({3, 13}, rng, 1.0);
  const Tensor w = Tensor::Randn({7, 13}, rng, 1.0);
  const Tensor b = Tensor::Randn({7}, rng, 1.0);
  const nn::InferenceGuard guard;
  std::vector<double> vec, simd;
  {
    const KernelModeScope mode(KernelMode::kVector);
    vec = nn::AffineRows(x, w, b).data();
  }
  {
    const KernelModeScope mode(KernelMode::kSimd);
    simd = nn::AffineRows(x, w, b).data();
  }
  EXPECT_EQ(std::memcmp(vec.data(), simd.data(), vec.size() * sizeof(double)),
            0);
}

TEST(SimdKernelTest, VectorizedActivationsMatchLibm) {
  if (!nn::Avx2Active()) GTEST_SKIP() << "AVX2 inactive";
  util::Rng rng(17);
  std::vector<double> x(1003);  // odd length: scalar tail lanes too
  for (auto& v : x) v = rng.Normal() * 12.0;
  x[0] = 0.0;
  x[1] = 1e-12;
  x[2] = -1e-12;
  x[3] = 750.0;  // saturates
  x[4] = -750.0;
  std::vector<double> y(x.size());
  nn::SigmoidAvx2(x.data(), y.data(), x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i], 1.0 / (1.0 + std::exp(-x[i])), 1e-15) << "x=" << x[i];
  }
  nn::TanhAvx2(x.data(), y.data(), x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i], std::tanh(x[i]), 1e-15) << "x=" << x[i];
  }
}

TEST(SimdKernelTest, PackedCacheInvalidatedByOptimizerStep) {
  if (!nn::Avx2Active()) GTEST_SKIP() << "AVX2 inactive (no packing)";
  util::Rng rng(18);
  Tensor w = Tensor::Randn({6, 5}, rng, 1.0);
  w.set_requires_grad(true);
  const Tensor x = Tensor::Randn({5}, rng, 1.0);
  const Tensor b = Tensor::Randn({6}, rng, 1.0);

  const auto run_simd = [&] {
    const nn::InferenceGuard guard;
    const KernelModeScope mode(KernelMode::kSimd);
    return nn::Affine(w, x, b).data();
  };
  const std::vector<double> before = run_simd();
  const size_t cache_size = nn::PackedCacheSize();
  EXPECT_GE(cache_size, 1u);
  // Re-running hits the cache (no growth) and reproduces the values.
  EXPECT_EQ(run_simd(), before);
  EXPECT_EQ(nn::PackedCacheSize(), cache_size);

  // An optimizer step mutates w in place; the epoch bump must force a
  // repack, so the next kSimd run sees the new weights.
  for (double& g : w.mutable_grad()) g = 1.0;
  nn::Sgd sgd({w}, /*lr=*/0.25);
  sgd.Step();
  const std::vector<double> after = run_simd();
  EXPECT_NE(before, after);
  // And the repacked values agree with a scalar-tier recompute.
  std::vector<double> scalar;
  {
    const nn::InferenceGuard guard;
    const KernelModeScope mode(KernelMode::kVector);
    scalar = nn::Affine(w, x, b).data();
  }
  EXPECT_LE(MaxAbsDiff(after, scalar), kSimdTol);
}

// --- f16 codec ---------------------------------------------------------------

TEST(QuantCodecTest, HalfRoundTripsRepresentableValues) {
  for (const double v : {0.0, 1.0, -1.0, 0.5, -2.25, 65504.0, -65504.0,
                         6.103515625e-05 /* min normal */,
                         5.960464477539063e-08 /* min denormal */}) {
    EXPECT_EQ(nn::HalfToDouble(nn::HalfFromDouble(v)), v) << v;
  }
}

TEST(QuantCodecTest, HalfRoundsToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1 and 1 + 2^-10 (the f16 mantissa
  // step at 1.0): ties go to the even mantissa, i.e. down to 1.0.
  EXPECT_EQ(nn::HalfToDouble(nn::HalfFromDouble(1.0 + 0x1p-11)), 1.0);
  // 1 + 3*2^-11 is halfway between 1 + 2^-10 and 1 + 2^-9: up to the even.
  EXPECT_EQ(nn::HalfToDouble(nn::HalfFromDouble(1.0 + 3 * 0x1p-11)),
            1.0 + 0x1p-9);
  // Just above/below a tie rounds to nearest, not to even.
  EXPECT_EQ(nn::HalfToDouble(nn::HalfFromDouble(1.0 + 0x1p-11 + 0x1p-30)),
            1.0 + 0x1p-10);
}

TEST(QuantCodecTest, HalfHandlesOverflowDenormalsAndNan) {
  EXPECT_TRUE(std::isinf(nn::HalfToDouble(nn::HalfFromDouble(1e6))));
  EXPECT_TRUE(std::isinf(nn::HalfToDouble(nn::HalfFromDouble(65520.0))));
  EXPECT_LT(nn::HalfToDouble(nn::HalfFromDouble(-1e6)), 0.0);
  // Below half the smallest denormal: flushes to (signed) zero.
  EXPECT_EQ(nn::HalfToDouble(nn::HalfFromDouble(1e-9)), 0.0);
  // A denormal that must round, not truncate: 1.5 * 2^-24 -> 2^-23.
  EXPECT_EQ(nn::HalfToDouble(nn::HalfFromDouble(1.5 * 0x1p-24)), 0x1p-23);
  EXPECT_TRUE(std::isnan(
      nn::HalfToDouble(nn::HalfFromDouble(std::nan("")))));
}

TEST(QuantCodecTest, HalfErrorBoundedByHalfUlp) {
  util::Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.Normal() * 8.0;
    const double q = nn::HalfToDouble(nn::HalfFromDouble(v));
    // Relative half-ulp bound for binary16 normals: 2^-11.
    EXPECT_LE(std::abs(q - v), std::abs(v) * 0x1p-11 + 0x1p-25) << v;
  }
}

// --- int8 codec --------------------------------------------------------------

TEST(QuantCodecTest, Int8PerRowAbsmaxScales) {
  // Row 0: absmax 6.35 -> scale 0.05, every dequantised value within
  // scale/2. Row 1: all zeros -> scale 0 and zero codes.
  const std::vector<double> data = {6.35, -3.1, 0.004, 1.0,
                                    0.0,  0.0,  0.0,   0.0};
  std::vector<double> scales(2);
  std::vector<int8_t> q(8);
  nn::QuantizeInt8(data.data(), 2, 4, scales.data(), q.data());
  EXPECT_DOUBLE_EQ(scales[0], 6.35 / 127.0);
  EXPECT_EQ(q[0], 127);  // the absmax element pins the scale
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_LE(std::abs(q[j] * scales[0] - data[j]), scales[0] / 2.0 + 1e-15);
  }
  EXPECT_EQ(scales[1], 0.0);
  for (size_t j = 4; j < 8; ++j) EXPECT_EQ(q[j], 0);
}

TEST(QuantCodecTest, FakeQuantizeStateDictTouchesOnlyEligibleEntries) {
  Tensor weight = Tensor::FromData({2, 3}, {1.0001, -2.3, 0.7, 4.4, -5.5, 6.6});
  Tensor bias = Tensor::FromData({3}, {0.123456789, -1.0, 2.0});
  std::vector<double> running = {0.333333333, 0.666666666};
  nn::StateDict dict;
  dict.AddParameter("w", weight);
  dict.AddParameter("b", bias);  // 1-D: not eligible
  dict.AddBuffer("bn.mean", {2}, running.data());

  const std::vector<double> bias_before = bias.data();
  const std::vector<double> running_before = running;
  const uint64_t epoch_before = nn::ParamEpoch();
  EXPECT_EQ(nn::FakeQuantizeStateDict(dict, QuantMode::kInt8), 1u);
  EXPECT_GT(nn::ParamEpoch(), epoch_before);
  EXPECT_EQ(bias.data(), bias_before);
  EXPECT_EQ(running, running_before);
  // The weight actually snapped (1.0001 is not on the int8 grid).
  EXPECT_NE(weight.data()[0], 1.0001);
  // kNone is a free no-op.
  const uint64_t epoch_mid = nn::ParamEpoch();
  EXPECT_EQ(nn::FakeQuantizeStateDict(dict, QuantMode::kNone), 0u);
  EXPECT_EQ(nn::ParamEpoch(), epoch_mid);
}

// --- Serialize v3 ------------------------------------------------------------

struct QuantDictFixture {
  Tensor weight;
  std::vector<double> running = {0.5, -0.5};
  double scale = 42.0;

  QuantDictFixture() {
    util::Rng rng(20);
    weight = Tensor::Randn({5, 9}, rng, 1.0);  // tail rows + odd cols
  }

  nn::StateDict Dict() {
    nn::StateDict dict;
    dict.AddParameter("mlp.weight", weight);
    dict.AddBuffer("bn.running_mean", {2}, running.data());
    dict.AddScalarBuffer("time_scale", &scale);
    return dict;
  }
};

uint32_t BufferVersion(const std::vector<uint8_t>& bytes) {
  return static_cast<uint32_t>(bytes[4]) | static_cast<uint32_t>(bytes[5]) << 8 |
         static_cast<uint32_t>(bytes[6]) << 16 |
         static_cast<uint32_t>(bytes[7]) << 24;
}

TEST(SerializeQuantTest, AllF64DictStaysVersion2ByteIdentical) {
  QuantDictFixture src;
  const std::vector<uint8_t> plain = nn::SerializeStateDict(src.Dict());
  const std::vector<uint8_t> none =
      nn::SerializeStateDict(src.Dict(), QuantMode::kNone);
  EXPECT_EQ(plain, none);
  EXPECT_EQ(BufferVersion(plain), 2u);
}

TEST(SerializeQuantTest, QuantRoundTripDequantisesExactly) {
  for (const QuantMode mode : {QuantMode::kFp16, QuantMode::kInt8}) {
    QuantDictFixture src;
    const std::vector<uint8_t> bytes = nn::SerializeStateDict(src.Dict(), mode);
    EXPECT_EQ(BufferVersion(bytes), 3u);

    // The expected stored values are the fake-quantised weights; buffers
    // stay exact.
    std::vector<double> snapped = src.weight.data();
    nn::FakeQuantizeValues(snapped.data(), 5, 9, mode);

    QuantDictFixture dst;
    dst.weight.data().assign(45, 0.0);
    dst.running = {9.0, 9.0};
    dst.scale = 0.0;
    nn::StateDict dict = dst.Dict();
    ASSERT_TRUE(nn::DeserializeStateDict(bytes, dict).ok());
    EXPECT_EQ(dst.weight.data(), snapped);
    EXPECT_EQ(dst.running, src.running);
    EXPECT_EQ(dst.scale, src.scale);

    // Record metadata: the weight is tagged with the quantised dtype, and
    // an int8 record exposes its per-row scales.
    std::vector<nn::TensorRecord> records;
    ASSERT_TRUE(nn::IndexStateDict(bytes, &records).ok());
    const auto* wrec = &records[0];
    ASSERT_EQ(wrec->name, "mlp.weight");
    EXPECT_EQ(wrec->dtype,
              mode == QuantMode::kFp16 ? nn::kDtypeF16 : nn::kDtypeI8);
    EXPECT_EQ(nn::ReadRecordPayload(*wrec), snapped);
    if (mode == QuantMode::kInt8) {
      EXPECT_EQ(nn::ReadRecordScales(*wrec).size(), 5u);
      EXPECT_EQ(nn::RecordPayloadBytes(*wrec), 5 * sizeof(double) + 45);
    } else {
      EXPECT_EQ(nn::RecordPayloadBytes(*wrec), 45 * sizeof(uint16_t));
    }
  }
}

TEST(SerializeQuantTest, QuantDtypeRejectedInVersion2) {
  QuantDictFixture src;
  std::vector<uint8_t> bytes =
      nn::SerializeStateDict(src.Dict(), QuantMode::kFp16);
  ASSERT_EQ(BufferVersion(bytes), 3u);
  // Forge the version back to 2 and re-seal the checksum: a conforming v2
  // reader must reject the f16 record as a bad dtype, not misparse it.
  bytes[4] = 2;
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64, as serialize.cc seals it
  for (size_t i = 0; i + 8 < bytes.size(); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  std::memcpy(bytes.data() + bytes.size() - 8, &h, 8);
  std::vector<nn::TensorRecord> records;
  const nn::LoadStatus status = nn::IndexStateDict(bytes, &records);
  EXPECT_EQ(status.kind, nn::LoadErrorKind::kBadDtype);
}

// --- End-to-end artifact + serving budgets -----------------------------------

// Tiny dataset + untrained (but embedding-initialised) model: the quant
// budgets measure weight-rounding error propagation, which does not need a
// trained model — only realistic magnitudes, which initialisation provides.
const sim::Dataset& QuantDataset() {
  static const sim::Dataset* dataset = [] {
    sim::DatasetConfig config;
    config.city = road::XianSimConfig();
    config.city.rows = 6;
    config.city.cols = 6;
    config.trips_per_day = 12;
    config.num_days = 15;
    config.seed = 17;
    return new sim::Dataset(sim::BuildDataset(config));
  }();
  return *dataset;
}

core::DeepOdModel& QuantModel() {
  static core::DeepOdModel* model = [] {
    core::DeepOdConfig config = core::DeepOdConfig().Scaled(16);
    config.epochs = 1;
    config.batch_size = 8;
    auto* m = new core::DeepOdModel(config, QuantDataset());
    m->SetTraining(false);
    return m;
  }();
  return *model;
}

std::vector<traj::OdInput> QuantOds(size_t n) {
  const auto& dataset = QuantDataset();
  std::vector<traj::OdInput> ods;
  for (size_t i = 0; i < std::min(n, dataset.test.size()); ++i) {
    ods.push_back(dataset.test[i].od);
  }
  return ods;
}

std::string QuantArtifactPath() {
  static const std::string* path = [] {
    auto* p = new std::string(testing::TempDir() + "simd_quant_model.artifact");
    const auto& dataset = QuantDataset();
    double begin = dataset.test.front().od.departure_time, end = begin;
    for (const auto& trip : dataset.test) {
      begin = std::min(begin, trip.od.departure_time);
      end = std::max(end, trip.od.departure_time);
    }
    const sim::SnapshotSpeedField speed = sim::SnapshotSpeedField::Capture(
        *dataset.speed_matrices, begin, end);
    io::WriteModelArtifact(*p, QuantModel(), &speed);
    return p;
  }();
  return *path;
}

// Explicit MAE budgets of the quantised predict path, in seconds of ETA,
// over the tiny-city test queries (mean ETA there is a few hundred
// seconds). Measured values are ~0.024 s (fp16) and ~0.14 s (int8); the
// budgets leave ~4-7x headroom so they catch contract regressions, not
// run-to-run noise.
constexpr double kFp16MaeBudget = 0.1;
constexpr double kInt8MaeBudget = 1.0;

TEST(QuantArtifactTest, QuantisedPredictionsMeetMaeBudget) {
  const auto ods = QuantOds(24);
  ASSERT_FALSE(ods.empty());
  const io::ServingModel golden =
      io::LoadModelArtifact(QuantArtifactPath(), QuantDataset().network);
  EXPECT_EQ(golden.quant, QuantMode::kNone);
  const std::vector<double> want = golden.model->PredictBatch(ods);

  for (const auto& [mode, budget] :
       {std::pair<QuantMode, double>{QuantMode::kFp16, kFp16MaeBudget},
        {QuantMode::kInt8, kInt8MaeBudget}}) {
    io::ArtifactOptions options;
    options.quant = mode;
    const io::ServingModel quant = io::LoadModelArtifact(
        QuantArtifactPath(), QuantDataset().network, options);
    EXPECT_EQ(quant.quant, mode);
    // Across batch sizes and thread counts: the quantised model must stay
    // deterministic (same snapped weights => same answers regardless of
    // batching) and within budget vs fp64.
    std::vector<double> reference;
    util::ThreadPool pool(4);
    for (const size_t batch : {size_t{1}, size_t{7}, ods.size()}) {
      for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                                  &pool}) {
        std::vector<double> got;
        for (size_t pos = 0; pos < ods.size(); pos += batch) {
          const size_t m = std::min(batch, ods.size() - pos);
          const auto part =
              quant.model->PredictBatch({ods.data() + pos, m}, p);
          got.insert(got.end(), part.begin(), part.end());
        }
        if (reference.empty()) {
          reference = got;
          double mae = 0.0;
          for (size_t i = 0; i < got.size(); ++i) {
            mae += std::abs(got[i] - want[i]);
          }
          mae /= static_cast<double>(got.size());
          std::printf("%s MAE vs fp64: %.6f s (budget %.3f)\n",
                      nn::QuantModeName(mode), mae, budget);
          EXPECT_LE(mae, budget)
              << nn::QuantModeName(mode) << " MAE over budget";
          EXPECT_GT(mae, 0.0) << "quantisation changed nothing?";
        } else {
          EXPECT_EQ(got, reference)
              << nn::QuantModeName(mode) << " batch=" << batch;
        }
      }
    }
  }
}

TEST(QuantArtifactTest, StoredQuantArtifactRoundTrips) {
  // Write the artifact with int8 storage (serialize v3), load it plainly:
  // the loader reports the stored mode and the values are already snapped,
  // so a second load-time quantisation request is a no-op.
  const std::string path = testing::TempDir() + "simd_quant_stored.artifact";
  io::ArtifactOptions write_options;
  write_options.quant = QuantMode::kInt8;
  io::WriteModelArtifact(path, QuantModel(), nullptr, write_options);

  const io::ServingModel stored =
      io::LoadModelArtifact(path, QuantDataset().network);
  EXPECT_EQ(stored.quant, QuantMode::kInt8);

  io::ArtifactOptions load_options;
  load_options.quant = QuantMode::kInt8;
  const io::ServingModel again =
      io::LoadModelArtifact(path, QuantDataset().network, load_options);
  const auto ods = QuantOds(8);
  const std::vector<double> a = stored.model->PredictBatch(ods);
  const std::vector<double> b = again.model->PredictBatch(ods);
  EXPECT_EQ(a, b);

  // And the quantised file is genuinely smaller than its fp64 sibling.
  EXPECT_LT(std::filesystem::file_size(path),
            std::filesystem::file_size(QuantArtifactPath()));
  std::remove(path.c_str());
}

TEST(QuantArtifactTest, EtaServiceServesQuantisedOnSimdTier) {
  const auto ods = QuantOds(12);
  const auto fp64 = serve::EtaService::FromArtifact(
      QuantArtifactPath(), QuantDataset().network, serve::EtaServiceOptions{});

  serve::EtaServiceOptions options;
  options.quant = QuantMode::kInt8;
  options.kernel_mode = KernelMode::kSimd;
  const auto service = serve::EtaService::FromArtifact(
      QuantArtifactPath(), QuantDataset().network, options);
  double mae = 0.0;
  for (const auto& od : ods) {
    const double got = service->Estimate(od);
    EXPECT_TRUE(std::isfinite(got));
    mae += std::abs(got - fp64->Estimate(od));
  }
  mae /= static_cast<double>(ods.size());
  // int8 budget plus the kSimd tolerance (negligible next to it).
  EXPECT_LE(mae, kInt8MaeBudget);
}

}  // namespace
}  // namespace deepod
