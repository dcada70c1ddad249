// End-to-end tests for the model lifecycle added with the named state-dict
// refactor: Save/Load round trips (including BatchNorm running statistics
// and legacy blobs), the self-contained serving artifact, serving from an
// artifact through EtaService, and resumable trainer checkpoints.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/deepod_config.h"
#include "core/deepod_model.h"
#include "core/trainer.h"
#include "io/model_artifact.h"
#include "nn/serialize.h"
#include "nn/tensor.h"
#include "serve/eta_service.h"
#include "sim/dataset.h"
#include "sim/snapshot_speed_field.h"
#include "util/thread_pool.h"

namespace deepod {
namespace {

// Same tiny dataset as core_test.cc (expensive to build, shared).
const sim::Dataset& TinyDataset() {
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

core::DeepOdConfig TinyConfig() {
  core::DeepOdConfig config = core::DeepOdConfig().Scaled(16);
  config.epochs = 1;
  config.batch_size = 8;
  return config;
}

// One trained model shared by the read-only round-trip tests (training is
// the expensive part; every test below only reads it or copies its state).
core::DeepOdModel& TrainedModel() {
  static core::DeepOdModel* model = [] {
    auto* m = new core::DeepOdModel(TinyConfig(), TinyDataset());
    core::DeepOdTrainer trainer(*m, TinyDataset());
    trainer.Train();
    return m;
  }();
  return *model;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

std::vector<traj::OdInput> TestOds(size_t n) {
  const auto& dataset = TinyDataset();
  std::vector<traj::OdInput> ods;
  for (size_t i = 0; i < std::min(n, dataset.test.size()); ++i) {
    ods.push_back(dataset.test[i].od);
  }
  return ods;
}

// Bit-exact comparison of two full state dicts (names, shapes, payloads).
void ExpectStateBitEqual(const nn::StateDict& a, const nn::StateDict& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const auto& ea = a.entries()[i];
    const auto& eb = b.entries()[i];
    ASSERT_EQ(ea.name, eb.name);
    ASSERT_EQ(ea.shape, eb.shape);
    ASSERT_EQ(ea.size, eb.size);
    EXPECT_EQ(std::memcmp(ea.data, eb.data, ea.size * sizeof(double)), 0)
        << "payload differs for " << ea.name;
  }
}

TEST(ModelStateTest, SaveLoadRoundTripIsBitExact) {
  core::DeepOdModel& trained = TrainedModel();
  const std::string path = TempPath("artifact_test_model.bin");
  trained.Save(path);

  // A fresh model of the same config starts from different state (training
  // moved every parameter); Load must restore all of it, buffers included.
  core::DeepOdModel loaded(TinyConfig(), TinyDataset());
  loaded.SetTraining(false);
  const auto ods = TestOds(4);
  ASSERT_NE(loaded.Predict(ods[0]), trained.Predict(ods[0]));
  loaded.Load(path);

  EXPECT_EQ(loaded.time_scale(), trained.time_scale());
  {
    const nn::StateDict a = trained.State();
    const nn::StateDict b = loaded.State();
    ExpectStateBitEqual(a, b);
  }
  for (const auto& od : ods) {
    const double want = trained.Predict(od);
    const double got = loaded.Predict(od);
    EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0);
  }
  std::remove(path.c_str());
}

TEST(ModelStateTest, TrainingUpdatesAndCheckpointKeepsBatchNormStats) {
  // The state dict must carry BatchNorm running statistics, and training
  // must actually have moved them off their init values (mean 0 / var 1) —
  // the regression the old parameter-only format silently dropped.
  const nn::StateDict state = TrainedModel().State();
  size_t buffers = 0, moved = 0;
  for (const auto& e : state.entries()) {
    if (e.name.find("running_") == std::string::npos) continue;
    ++buffers;
    for (size_t i = 0; i < e.size; ++i) {
      const double init =
          e.name.find("running_var") != std::string::npos ? 1.0 : 0.0;
      if (e.data[i] != init) {
        ++moved;
        break;
      }
    }
  }
  EXPECT_GT(buffers, 0u);
  EXPECT_GT(moved, 0u);
}

TEST(ModelStateTest, LegacyPositionalBlobStillLoads) {
  core::DeepOdModel& trained = TrainedModel();
  // Emulate a pre-state-dict checkpoint: positional parameters plus a
  // trailing time-scale scalar.
  auto params = trained.Parameters();
  params.push_back(nn::Tensor::Scalar(trained.time_scale()));
  const std::string path = TempPath("artifact_test_legacy.bin");
  nn::SaveParameters(path, params);

  core::DeepOdModel loaded(TinyConfig(), TinyDataset());
  loaded.Load(path);
  EXPECT_EQ(loaded.time_scale(), trained.time_scale());
  const auto loaded_params = loaded.Parameters();
  const auto trained_params = trained.Parameters();
  ASSERT_EQ(loaded_params.size(), trained_params.size());
  for (size_t i = 0; i < loaded_params.size(); ++i) {
    EXPECT_EQ(loaded_params[i].data(), trained_params[i].data());
  }
  std::remove(path.c_str());
}

TEST(ModelStateTest, LoadWithWrongConfigNamesFirstMismatchingTensor) {
  const std::string path = TempPath("artifact_test_scale16.bin");
  TrainedModel().Save(path);

  core::DeepOdConfig smaller = core::DeepOdConfig().Scaled(32);
  smaller.epochs = 1;
  smaller.batch_size = 8;
  core::DeepOdModel narrow(smaller, TinyDataset());
  try {
    narrow.Load(path);
    FAIL() << "expected SerializeError";
  } catch (const nn::SerializeError& e) {
    EXPECT_EQ(e.status().kind, nn::LoadErrorKind::kShapeMismatch);
    EXPECT_FALSE(e.status().tensor.empty());
    EXPECT_NE(e.status().message.find(e.status().tensor), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(ModelStateTest, TruncatedFileRejectedWithoutTouchingModel) {
  const std::string path = TempPath("artifact_test_trunc.bin");
  TrainedModel().Save(path);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(nn::ReadFileBytes(path, &bytes).ok());
  bytes.resize(bytes.size() / 2);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  core::DeepOdModel loaded(TinyConfig(), TinyDataset());
  loaded.SetTraining(false);
  const auto ods = TestOds(1);
  const double before = loaded.Predict(ods[0]);
  try {
    loaded.Load(path);
    FAIL() << "expected SerializeError";
  } catch (const nn::SerializeError& e) {
    EXPECT_EQ(e.status().kind, nn::LoadErrorKind::kTruncated);
  }
  const double after = loaded.Predict(ods[0]);
  EXPECT_EQ(std::memcmp(&before, &after, sizeof(double)), 0);
  std::remove(path.c_str());
}

TEST(ArtifactTest, RoundTripBitIdenticalAcrossKernelModesAndThreads) {
  core::DeepOdModel& trained = TrainedModel();
  const auto& dataset = TinyDataset();

  // Freeze the live speed process over the test window so the serving-side
  // external features reproduce exactly.
  double begin = dataset.test.front().od.departure_time, end = begin;
  for (const auto& trip : dataset.test) {
    begin = std::min(begin, trip.od.departure_time);
    end = std::max(end, trip.od.departure_time);
  }
  const sim::SnapshotSpeedField frozen =
      sim::SnapshotSpeedField::Capture(*dataset.speed_matrices, begin, end);

  const std::string path = TempPath("artifact_test_full.artifact");
  io::WriteModelArtifact(path, trained, &frozen);
  io::ServingModel bundle = io::LoadModelArtifact(path, dataset.network);
  ASSERT_NE(bundle.model, nullptr);
  ASSERT_NE(bundle.speed, nullptr);
  EXPECT_EQ(bundle.speed->snapshots().size(), frozen.snapshots().size());
  EXPECT_EQ(bundle.config.ds, trained.config().ds);

  // Point the training-side model at the same frozen field so both sides
  // see identical inputs, then demand bit-identity on every tier the
  // kernels ship and on both serial and pooled batch paths.
  trained.SetSpeedProvider(&frozen);
  const auto ods = TestOds(8);
  util::ThreadPool pool(4);
  for (const nn::KernelMode mode :
       {nn::KernelMode::kLegacy, nn::KernelMode::kBlocked,
        nn::KernelMode::kVector}) {
    nn::KernelModeScope scope(mode);
    for (const auto& od : ods) {
      const double want = trained.Predict(od);
      const double got = bundle.model->Predict(od);
      EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
          << "mode " << static_cast<int>(mode);
    }
    const std::vector<double> serial_want = trained.PredictBatch(ods);
    const std::vector<double> serial_got = bundle.model->PredictBatch(ods);
    const std::vector<double> pooled_want = trained.PredictBatch(ods, &pool);
    const std::vector<double> pooled_got = bundle.model->PredictBatch(ods, &pool);
    ASSERT_EQ(serial_want.size(), ods.size());
    EXPECT_EQ(std::memcmp(serial_want.data(), serial_got.data(),
                          ods.size() * sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(pooled_want.data(), pooled_got.data(),
                          ods.size() * sizeof(double)), 0);
  }
  trained.SetSpeedProvider(dataset.speed_matrices.get());
  trained.ClearOcodeMemo();
  std::remove(path.c_str());
}

TEST(ArtifactTest, EtaServiceServesFromArtifactBitExactly) {
  core::DeepOdModel& trained = TrainedModel();
  const auto& dataset = TinyDataset();
  double begin = dataset.test.front().od.departure_time, end = begin;
  for (const auto& trip : dataset.test) {
    begin = std::min(begin, trip.od.departure_time);
    end = std::max(end, trip.od.departure_time);
  }
  const sim::SnapshotSpeedField frozen =
      sim::SnapshotSpeedField::Capture(*dataset.speed_matrices, begin, end);
  const std::string path = TempPath("artifact_test_serve.artifact");
  io::WriteModelArtifact(path, trained, &frozen);

  auto service = serve::EtaService::FromArtifact(path, dataset.network,
                                                 serve::EtaServiceOptions{});
  trained.SetSpeedProvider(&frozen);
  for (const auto& od : TestOds(6)) {
    const double want = trained.Predict(od);
    const double miss = service->Estimate(od);
    const double hit = service->Estimate(od);
    EXPECT_EQ(std::memcmp(&want, &miss, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&want, &hit, sizeof(double)), 0);
  }
  trained.SetSpeedProvider(dataset.speed_matrices.get());
  trained.ClearOcodeMemo();
  std::remove(path.c_str());
}

TEST(ArtifactTest, MissingArtifactThrowsTypedError) {
  try {
    io::LoadModelArtifact(TempPath("artifact_test_nope.artifact"),
                          TinyDataset().network);
    FAIL() << "expected SerializeError";
  } catch (const nn::SerializeError& e) {
    EXPECT_EQ(e.status().kind, nn::LoadErrorKind::kIoError);
  }
}

// Sets element 3 of the named state entry of `model` to `value`.
void PoisonWeight(core::DeepOdModel& model, const std::string& name,
                  double value) {
  const nn::StateDict state = model.State();
  const nn::StateDict::Entry* entry = state.Find(name);
  ASSERT_NE(entry, nullptr) << name;
  ASSERT_GT(entry->size, 3u);
  entry->data[3] = value;
}

void ExpectNonFinite(const std::function<void()>& load,
                     const std::string& tensor) {
  try {
    load();
    FAIL() << "expected SerializeError";
  } catch (const nn::SerializeError& e) {
    EXPECT_EQ(e.status().kind, nn::LoadErrorKind::kNonFinite) << e.what();
    EXPECT_EQ(e.status().tensor, tensor);
  }
}

// TinyConfig without graph-embedding pre-training: these tests only need
// some finite model to poison.
core::DeepOdConfig RandomInitConfig() {
  core::DeepOdConfig config = TinyConfig();
  config.road_init = core::RoadInit::kOneHot;
  config.time_init = core::TimeInit::kOneHot;
  return config;
}

TEST(ArtifactTest, NonFiniteWeightsAreRejectedByName) {
  const std::string weight = "external_encoder.cnn.conv2.kernel";
  core::DeepOdModel target(RandomInitConfig(), TinyDataset());
  target.SetTraining(false);
  for (const double bad : {std::nan(""), HUGE_VAL}) {
    core::DeepOdModel source(RandomInitConfig(), TinyDataset());
    source.SetTraining(false);
    PoisonWeight(source, weight, bad);
    const std::string artifact = TempPath("artifact_test_nonfinite.artifact");
    const std::string state = TempPath("artifact_test_nonfinite.state");
    io::WriteModelArtifact(artifact, source, nullptr);
    source.Save(state);

    ExpectNonFinite(
        [&] { io::LoadModelArtifact(artifact, TinyDataset().network); },
        "model." + weight);
    // The state-dict loader rejects it too, before writing anything.
    const auto ods = TestOds(1);
    const double before = target.Predict(ods[0]);
    ExpectNonFinite([&] { target.Load(state); }, weight);
    const double after = target.Predict(ods[0]);
    EXPECT_EQ(std::memcmp(&before, &after, sizeof(double)), 0);
    std::remove(artifact.c_str());
    std::remove(state.c_str());
  }
}

TEST(ArtifactTest, Fp16OverflowAtLoadIsRejected) {
  // 1e6 is a finite fp64 weight, but past fp16's largest value (65504):
  // quantising it at load time yields an infinity the loader must catch.
  const std::string weight = "mlp1.layer1.weight";
  core::DeepOdModel source(RandomInitConfig(), TinyDataset());
  source.SetTraining(false);
  PoisonWeight(source, weight, 1e6);
  const std::string artifact = TempPath("artifact_test_overflow.artifact");
  io::WriteModelArtifact(artifact, source, nullptr);
  EXPECT_NO_THROW(io::LoadModelArtifact(artifact, TinyDataset().network));
  io::ArtifactOptions fp16;
  fp16.quant = nn::QuantMode::kFp16;
  ExpectNonFinite(
      [&] { io::LoadModelArtifact(artifact, TinyDataset().network, fp16); },
      "model." + weight);
  std::remove(artifact.c_str());
}

TEST(CheckpointTest, ResumeMatchesUninterruptedRunBitExactly) {
  core::DeepOdConfig config = TinyConfig();
  config.epochs = 2;

  // Uninterrupted two-epoch run.
  core::DeepOdModel straight(config, TinyDataset());
  core::DeepOdTrainer straight_trainer(straight, TinyDataset());
  const double straight_mae = straight_trainer.Train();

  // Same run split in two processes' worth of work: one epoch, checkpoint,
  // then a *fresh* model+trainer resumes and finishes.
  const std::string path = TempPath("artifact_test_resume.ckpt");
  {
    core::DeepOdModel half(config, TinyDataset());
    core::DeepOdTrainer half_trainer(half, TinyDataset());
    half_trainer.TrainPrefix(1);
    EXPECT_EQ(half_trainer.completed_epochs(), 1);
    half_trainer.SaveCheckpoint(path);
  }
  core::DeepOdModel resumed(config, TinyDataset());
  core::DeepOdTrainer resumed_trainer(resumed, TinyDataset());
  resumed_trainer.LoadCheckpoint(path);
  EXPECT_EQ(resumed_trainer.completed_epochs(), 1);
  const double resumed_mae = resumed_trainer.Train();

  EXPECT_EQ(std::memcmp(&straight_mae, &resumed_mae, sizeof(double)), 0);
  EXPECT_EQ(resumed_trainer.steps_taken(), straight_trainer.steps_taken());
  EXPECT_EQ(resumed_trainer.completed_epochs(),
            straight_trainer.completed_epochs());
  EXPECT_EQ(resumed_trainer.best_validation_mae(),
            straight_trainer.best_validation_mae());
  {
    const nn::StateDict a = straight.State();
    const nn::StateDict b = resumed.State();
    ExpectStateBitEqual(a, b);
  }
  for (const auto& od : TestOds(4)) {
    const double want = straight.Predict(od);
    const double got = resumed.Predict(od);
    EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace deepod
