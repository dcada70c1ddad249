// Tests for the int8/fp16 quantised predict-only path (nn/quant.h,
// quantised state-dict records, artifacts):
//
//  - the f16 codec (round-to-nearest-even, denormals, overflow) and the
//    per-row absmax int8 codec;
//  - quantised state-dict round trips, the all-f64 kNone stream and an
//    unknown dtype tag rejected as bad_dtype;
//  - end-to-end artifact MAE budgets: predictions from fp16/int8 artifacts
//    vs the fp64 goldens across batch sizes and thread counts, and an
//    EtaService serving an int8 artifact.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/deepod_config.h"
#include "core/deepod_model.h"
#include "io/model_artifact.h"
#include "nn/module.h"
#include "nn/quant.h"
#include "nn/serialize.h"
#include "nn/tensor.h"
#include "serve/eta_service.h"
#include "sim/dataset.h"
#include "sim/snapshot_speed_field.h"
#include "util/thread_pool.h"

namespace deepod {
namespace {

using nn::QuantMode;
using nn::Tensor;

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

TEST(QuantCodecTest, QuantisedWriteTouchesOnlyEligibleEntries) {
  struct Entries {
    Tensor weight =
        Tensor::FromData({2, 3}, {1.0001, -2.3, 0.7, 4.4, -5.5, 6.6});
    Tensor bias = Tensor::FromData({3}, {0.123456789, -1.0, 2.0});
    std::vector<double> running = {0.333333333, 0.666666666};
    nn::StateDict Dict() {
      nn::StateDict dict;
      dict.AddParameter("w", weight);
      dict.AddParameter("b", bias);  // 1-D: not eligible
      dict.AddBuffer("bn.mean", {2}, running.data());
      return dict;
    }
  };
  Entries src;
  const nn::StateDict dict = src.Dict();
  EXPECT_TRUE(nn::QuantEligible(dict.entries()[0]));
  EXPECT_FALSE(nn::QuantEligible(dict.entries()[1]));
  EXPECT_FALSE(nn::QuantEligible(dict.entries()[2]));

  const std::vector<uint8_t> bytes =
      nn::SerializeStateDict(dict, QuantMode::kInt8);
  std::vector<nn::TensorRecord> records;
  ASSERT_TRUE(nn::IndexStateDict(bytes, &records).ok());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].dtype, nn::kDtypeI8);
  EXPECT_EQ(records[1].dtype, nn::kDtypeF64);
  EXPECT_EQ(records[2].dtype, nn::kDtypeF64);

  Entries dst;
  dst.weight.data().assign(6, 0.0);
  dst.bias.data().assign(3, 0.0);
  dst.running = {9.0, 9.0};
  nn::StateDict loaded = dst.Dict();
  const uint64_t epoch_before = nn::ParamEpoch();
  ASSERT_TRUE(nn::DeserializeStateDict(bytes, loaded).ok());
  EXPECT_GT(nn::ParamEpoch(), epoch_before);
  EXPECT_EQ(dst.bias.data(), src.bias.data());
  EXPECT_EQ(dst.running, src.running);
  // The weight actually snapped (1.0001 is not on the int8 grid).
  EXPECT_NE(dst.weight.data()[0], 1.0001);
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

TEST(SerializeQuantTest, NoneModeWritesTheAllF64Stream) {
  QuantDictFixture src;
  const std::vector<uint8_t> plain = nn::SerializeStateDict(src.Dict());
  const std::vector<uint8_t> none =
      nn::SerializeStateDict(src.Dict(), QuantMode::kNone);
  EXPECT_EQ(plain, none);
  EXPECT_EQ(BufferVersion(plain), 4u);
}

TEST(SerializeQuantTest, QuantRoundTripDequantisesExactly) {
  for (const QuantMode mode : {QuantMode::kFp16, QuantMode::kInt8}) {
    QuantDictFixture src;
    const std::vector<uint8_t> bytes = nn::SerializeStateDict(src.Dict(), mode);
    EXPECT_EQ(BufferVersion(bytes), 4u);

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

TEST(SerializeQuantTest, UnknownDtypeTagRejected) {
  QuantDictFixture src;
  std::vector<uint8_t> bytes =
      nn::SerializeStateDict(src.Dict(), QuantMode::kFp16);
  std::vector<nn::TensorRecord> records;
  ASSERT_TRUE(nn::IndexStateDict(bytes, &records).ok());
  const nn::TensorRecord* wrec = nullptr;
  for (const auto& r : records) {
    if (r.dtype == nn::kDtypeF16) wrec = &r;
  }
  ASSERT_NE(wrec, nullptr);
  // The dtype byte precedes the u32 ndim and the u64 dims. Tag 4 names no
  // dtype; re-sealed, the stream reaches the framing check, which must
  // reject the record as a bad dtype, not misparse it.
  bytes[wrec->payload_offset - 8 * wrec->shape.size() - 4 - 1] = 4;
  const uint64_t h = nn::Xxh64::Hash(bytes.data(), bytes.size() - 8);
  std::memcpy(bytes.data() + bytes.size() - 8, &h, 8);
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

// QuantModel written as an artifact with `mode` weight records (fp64 by
// default), once per mode.
std::string QuantArtifactPath(QuantMode mode = QuantMode::kNone) {
  static const std::array<std::string, 3>* paths = [] {
    const auto& dataset = QuantDataset();
    double begin = dataset.test.front().od.departure_time, end = begin;
    for (const auto& trip : dataset.test) {
      begin = std::min(begin, trip.od.departure_time);
      end = std::max(end, trip.od.departure_time);
    }
    const sim::SnapshotSpeedField speed = sim::SnapshotSpeedField::Capture(
        *dataset.speed_matrices, begin, end);
    auto* p = new std::array<std::string, 3>;
    for (const QuantMode m :
         {QuantMode::kNone, QuantMode::kFp16, QuantMode::kInt8}) {
      std::string& path = (*p)[static_cast<size_t>(m)];
      path = testing::TempDir() + "quant_model." + nn::QuantModeName(m) +
             ".artifact";
      io::ArtifactOptions options;
      options.quant = m;
      io::WriteModelArtifact(path, QuantModel(), &speed, options);
    }
    return p;
  }();
  return (*paths)[static_cast<size_t>(mode)];
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
    const io::ServingModel quant =
        io::LoadModelArtifact(QuantArtifactPath(mode), QuantDataset().network);
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
  // The loader reports the stored mode, and the quantised file is genuinely
  // smaller than its fp64 sibling.
  for (const QuantMode mode : {QuantMode::kFp16, QuantMode::kInt8}) {
    const io::ServingModel stored =
        io::LoadModelArtifact(QuantArtifactPath(mode), QuantDataset().network);
    EXPECT_EQ(stored.quant, mode);
    EXPECT_LT(std::filesystem::file_size(QuantArtifactPath(mode)),
              std::filesystem::file_size(QuantArtifactPath()));
  }
}

TEST(QuantArtifactTest, EtaServiceServesQuantised) {
  const auto ods = QuantOds(12);
  const auto fp64 = serve::EtaService::FromArtifact(
      QuantArtifactPath(), QuantDataset().network, serve::EtaServiceOptions{});

  const auto service = serve::EtaService::FromArtifact(
      QuantArtifactPath(QuantMode::kInt8), QuantDataset().network,
      serve::EtaServiceOptions{});
  double mae = 0.0;
  for (const auto& od : ods) {
    const double got = service->Estimate(od);
    EXPECT_TRUE(std::isfinite(got));
    mae += std::abs(got - fp64->Estimate(od));
  }
  mae /= static_cast<double>(ods.size());
  EXPECT_LE(mae, kInt8MaeBudget);
}

}  // namespace
}  // namespace deepod
