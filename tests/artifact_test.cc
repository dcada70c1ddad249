// End-to-end tests for the model lifecycle added with the named state-dict
// refactor: Save/Load round trips (including BatchNorm running
// statistics), the self-contained serving artifact, serving from an
// artifact through EtaService, and resumable trainer checkpoints.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/od_oracle.h"
#include "baselines/path_tte.h"

#include "core/deepod_config.h"
#include "core/deepod_model.h"
#include "core/encoders.h"
#include "core/trainer.h"
#include "io/model_artifact.h"
#include "nn/quant.h"
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

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
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
  std::vector<uint8_t> bytes = ReadBytes(path);
  bytes.resize(bytes.size() / 2);
  WriteBytes(path, bytes);

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

TEST(ArtifactTest, RoundTripBitIdenticalAcrossThreads) {
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
  // The stored size, so the loaded cells can be compared with the frozen
  // ones (PooledLoadServesTheStoredLoadsBits covers the default size).
  io::ServingModel bundle = io::LoadModelArtifact(
      path, dataset.network, io::SpeedFieldSize::kStored);
  ASSERT_NE(bundle.model, nullptr);
  ASSERT_NE(bundle.speed, nullptr);
  EXPECT_EQ(bundle.speed->indices(), frozen.indices());
  EXPECT_EQ(bundle.speed->matrices(), frozen.matrices());
  EXPECT_EQ(bundle.config.ds, trained.config().ds);

  // Point the training-side model at the same frozen field so both sides
  // see identical inputs, then demand bit-identity on both serial and
  // pooled batch paths.
  trained.SetSpeedProvider(&frozen);
  const auto ods = TestOds(8);
  util::ThreadPool pool(4);
  for (const auto& od : ods) {
    const double want = trained.Predict(od);
    const double got = bundle.model->Predict(od);
    EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0);
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
  // the fp16 artifact stores it as an infinity the loader must catch.
  const std::string weight = "mlp1.layer1.weight";
  core::DeepOdModel source(RandomInitConfig(), TinyDataset());
  source.SetTraining(false);
  PoisonWeight(source, weight, 1e6);
  const std::string artifact = TempPath("artifact_test_overflow.artifact");
  io::WriteModelArtifact(artifact, source, nullptr);
  EXPECT_NO_THROW(io::LoadModelArtifact(artifact, TinyDataset().network));
  io::ArtifactOptions fp16;
  fp16.quant = nn::QuantMode::kFp16;
  io::WriteModelArtifact(artifact, source, nullptr, fp16);
  ExpectNonFinite(
      [&] { io::LoadModelArtifact(artifact, TinyDataset().network); },
      "model." + weight);
  std::remove(artifact.c_str());
}

// --- Hostile and corrupt artifacts -------------------------------------------

// One-shot XXH64 (seed 0) straight from the xxHash specification, written
// apart from nn::Xxh64 so the re-sealing below does not trust the code it
// tests.
uint64_t PlainXxh64(const uint8_t* p, size_t size) {
  constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull, kP2 = 0xC2B2AE3D27D4EB4Full,
                     kP3 = 0x165667B19E3779F9ull, kP4 = 0x85EBCA77C2B2AE63ull,
                     kP5 = 0x27D4EB2F165667C5ull;
  const auto rotl = [](uint64_t x, int r) { return (x << r) | (x >> (64 - r)); };
  const auto u64 = [](const uint8_t* q) {
    uint64_t v;
    std::memcpy(&v, q, sizeof(v));
    return v;
  };
  const auto round = [&](uint64_t acc, uint64_t lane) {
    return rotl(acc + lane * kP2, 31) * kP1;
  };
  const uint8_t* end = p + size;
  uint64_t acc = kP5;
  if (size >= 32) {
    uint64_t v[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
    for (; end - p >= 32; p += 32) {
      for (int i = 0; i < 4; ++i) v[i] = round(v[i], u64(p + 8 * i));
    }
    acc = rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) + rotl(v[3], 18);
    for (const uint64_t lane : v) acc = (acc ^ round(0, lane)) * kP1 + kP4;
  }
  acc += size;
  for (; end - p >= 8; p += 8) {
    acc = rotl(acc ^ round(0, u64(p)), 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    uint32_t w;
    std::memcpy(&w, p, sizeof(w));
    acc = rotl(acc ^ (w * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) acc = rotl(acc ^ (*p * kP5), 11) * kP1;
  acc = (acc ^ (acc >> 33)) * kP2;
  acc = (acc ^ (acc >> 29)) * kP3;
  return acc ^ (acc >> 32);
}

// The format's trailing XXH64 checksum, recomputed independently of
// nn/serialize so a patched file passes the integrity check and reaches the
// value checks behind it.
void Rechecksum(std::vector<uint8_t>& bytes) {
  const size_t body = bytes.size() - sizeof(uint64_t);
  const uint64_t h = PlainXxh64(bytes.data(), body);
  std::memcpy(bytes.data() + body, &h, sizeof(h));
}

std::vector<nn::TensorRecord> Index(const std::vector<uint8_t>& bytes) {
  std::vector<nn::TensorRecord> records;
  nn::ThrowIfError(nn::IndexStateDict(bytes, &records));
  return records;
}

nn::TensorRecord RecordNamed(const std::vector<nn::TensorRecord>& records,
                             const std::string& name) {
  for (const auto& r : records) {
    if (r.name == name) return r;
  }
  throw std::invalid_argument("no record " + name);
}

// `bytes` with element `element` of f64 record `name` set to `value` and
// the checksum recomputed.
std::vector<uint8_t> PatchScalar(std::vector<uint8_t> bytes,
                                 const std::string& name, size_t element,
                                 double value) {
  const nn::TensorRecord r = RecordNamed(Index(bytes), name);
  std::memcpy(bytes.data() + r.payload_offset + element * sizeof(double),
              &value, sizeof(value));
  Rechecksum(bytes);
  return bytes;
}

double ScalarAt(const std::vector<uint8_t>& bytes, const std::string& name,
                size_t element) {
  return nn::ReadRecordPayload(RecordNamed(Index(bytes), name))[element];
}

// A small model artifact carrying every block — config, model, a frozen
// 100-snapshot speed field (80 KB, so the file loaders read its payload
// straight into the record, past the read window), oracle and link-mean — plus the matching
// standalone oracle artifact, written once.
struct SweepFiles {
  std::string model_path = TempPath("artifact_test_sweep.artifact");
  std::string oracle_path = TempPath("artifact_test_sweep.oracle");
  std::vector<uint8_t> model;
  std::vector<uint8_t> oracle;
};

const SweepFiles& Sweep() {
  static const SweepFiles* files = [] {
    auto* f = new SweepFiles;
    const sim::Dataset& dataset = TinyDataset();
    core::DeepOdModel source(RandomInitConfig(), dataset);
    source.SetTraining(false);
    baselines::OdOracle oracle(dataset.network, baselines::OdOracle::Options{});
    baselines::LinkMeanEstimator links;
    for (const auto& trip : dataset.train) {
      oracle.Add(dataset.network, trip.od, trip.travel_time);
      links.Add(trip.trajectory);
    }
    oracle.Finalize();
    links.Finalize(dataset.network.num_segments());
    const double begin = dataset.test.front().od.departure_time;
    const sim::SnapshotSpeedField frozen = sim::SnapshotSpeedField::Capture(
        *dataset.speed_matrices, begin,
        begin + 99.0 * dataset.speed_matrices->snapshot_seconds());
    io::ArtifactOptions options;
    options.network_id = 7;
    options.oracle = &oracle;
    options.link_mean = &links;
    io::WriteModelArtifact(f->model_path, source, &frozen, options);
    io::WriteOracleArtifact(f->oracle_path, 7, &oracle, &links);
    f->model = ReadBytes(f->model_path);
    f->oracle = ReadBytes(f->oracle_path);
    return f;
  }();
  return *files;
}

// Writes `bytes` to a file and runs `load` on it; returns the typed status
// it failed with (kNone when it loaded). Any exception other than
// SerializeError fails the test.
nn::LoadStatus LoadStatusOf(
    const std::vector<uint8_t>& bytes,
    const std::function<void(const std::string&)>& load) {
  const std::string path = TempPath("artifact_test_case.artifact");
  WriteBytes(path, bytes);
  try {
    load(path);
    return nn::LoadStatus::Ok();
  } catch (const nn::SerializeError& e) {
    return e.status();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped exception: " << e.what();
  } catch (...) {
    ADD_FAILURE() << "non-exception throw";
  }
  return nn::LoadStatus::Error(nn::LoadErrorKind::kIoError, "untyped");
}

nn::LoadStatus LoadModelBytesAt(const std::vector<uint8_t>& bytes,
                                io::SpeedFieldSize size) {
  return LoadStatusOf(bytes, [size](const std::string& path) {
    io::LoadModelArtifact(path, TinyDataset().network, size);
  });
}

// The default load: the speed field pooled to the model's input size.
nn::LoadStatus LoadModelBytes(const std::vector<uint8_t>& bytes) {
  return LoadModelBytesAt(bytes, io::SpeedFieldSize::kModelInput);
}

nn::LoadStatus LoadStoredModelBytes(const std::vector<uint8_t>& bytes) {
  return LoadModelBytesAt(bytes, io::SpeedFieldSize::kStored);
}

nn::LoadStatus LoadOracleBytes(const std::vector<uint8_t>& bytes) {
  return LoadStatusOf(
      bytes, [](const std::string& path) { io::LoadOracleArtifact(path); });
}

TEST(ArtifactTest, HostileScalarsAreTypedErrorsNamingTheField) {
  const std::vector<uint8_t>& intact = Sweep().model;
  ASSERT_TRUE(LoadModelBytes(intact).ok());
  const double index0 = ScalarAt(intact, "speed.indices", 0);
  const double dm4 = ScalarAt(intact, "config.dm4", 0);
  const double rows = ScalarAt(intact, "speed.rows", 0);
  struct Case {
    std::string record;
    size_t element;
    double value;
    nn::LoadErrorKind kind;
    std::string tensor;
  };
  using K = nn::LoadErrorKind;
  const Case cases[] = {
      // Each of these aborted the server before the scalars were checked:
      // bad_alloc from the model or arena allocation, invalid_argument
      // from SnapshotSpeedField / TimeSlotter, or a NaN width rounding to
      // a zero-element shape.
      {"config.ds", 0, 1e12, K::kBadValue, "config.ds"},
      {"config.dm6", 0, 1e9, K::kBadValue, "config.dm6"},
      {"speed.indices", 0, 1e12, K::kBadValue, "speed.indices"},
      {"speed.snapshot_seconds", 0, 0.0, K::kBadValue,
       "speed.snapshot_seconds"},
      {"config.slot_seconds", 0, 0.0, K::kBadValue, "config.slot_seconds"},
      {"config.ds", 0, std::nan(""), K::kNonFinite, "config.ds"},
      // Integral where integral, inside the bound, consistent with the
      // records it sizes.
      {"config.ds", 0, 3.5, K::kBadValue, "config.ds"},
      {"config.ds", 0, 5.0, K::kShapeMismatch, "model.road_embedding.table"},
      {"config.slot_seconds", 0, 7.0, K::kBadValue, "config.slot_seconds"},
      {"config.slot_seconds", 0, 1.0, K::kShapeMismatch,
       "model.time_slot_embedding.table"},
      {"config.dm8", 0, dm4 + 1.0, K::kBadValue, "config.dm8"},
      {"config.ablation", 0, 9.0, K::kBadValue, "config.ablation"},
      {"config.num_threads", 0, 1e9, K::kBadValue, "config.num_threads"},
      {"config.seed", 0, -1.0, K::kBadValue, "config.seed"},
      {"config.max_speed_matrix_dim", 0, 0.0, K::kBadValue,
       "config.max_speed_matrix_dim"},
      {"config.learning_rate", 0, HUGE_VAL, K::kNonFinite,
       "config.learning_rate"},
      {"speed.rows", 0, rows + 1.0, K::kShapeMismatch, "speed.matrices"},
      {"speed.cols", 0, -1.0, K::kBadValue, "speed.cols"},
      {"speed.snapshot_seconds", 0, 1e300, K::kBadValue,
       "speed.snapshot_seconds"},
      {"speed.indices", 1, index0, K::kBadValue, "speed.indices"},
      {"speed.indices", 0, index0 + 0.5, K::kBadValue, "speed.indices"},
      {"artifact.version", 0, std::nan(""), K::kBadVersion,
       "artifact.version"},
      {"artifact.version", 0, 1.5, K::kBadVersion, "artifact.version"},
      {"artifact.version", 0, 1.0, K::kBadVersion, "artifact.version"},
      {"artifact.network_id", 0, -1.0, K::kBadValue, "artifact.network_id"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.record + "[" + std::to_string(c.element) +
                 "] = " + std::to_string(c.value));
    const nn::LoadStatus status =
        LoadModelBytes(PatchScalar(intact, c.record, c.element, c.value));
    EXPECT_EQ(status.kind, c.kind) << status.message;
    EXPECT_EQ(status.tensor, c.tensor) << status.message;
  }
  // rows x cols that wraps to exactly the record's row length (100 cells):
  // only the overflow check stands between it and a SnapshotSpeedField
  // whose rows x cols is not its matrix size.
  ASSERT_EQ(RecordNamed(Index(intact), "speed.matrices").shape[1], 100u);
  const nn::LoadStatus wrapped = LoadModelBytes(
      PatchScalar(PatchScalar(intact, "speed.rows", 0, 1099511635537.0),
                  "speed.cols", 0, 448664779599140.0));
  EXPECT_EQ(wrapped.kind, K::kShapeMismatch) << wrapped.message;
  EXPECT_EQ(wrapped.tensor, "speed.matrices");
  // The standalone oracle artifact checks its header scalars the same way.
  EXPECT_EQ(LoadOracleBytes(PatchScalar(Sweep().oracle, "artifact.network_id",
                                        0, 0.5))
                .kind,
            K::kBadValue);
}

// The oracle.* geometry and key tables of a checksum-valid artifact: each
// out-of-bounds value reached std::clamp with hi < lo (or a binary search
// over unsorted keys) on the first fallback query. Both loaders reject it.
TEST(ArtifactTest, HostileOracleScalarsAreTypedErrorsNamingTheField) {
  ASSERT_GE(RecordNamed(Index(Sweep().oracle), "oracle.keys").num_elements, 2u);
  ASSERT_GE(
      RecordNamed(Index(Sweep().oracle), "oracle.pair_keys").num_elements, 2u);
  const double key0 = ScalarAt(Sweep().oracle, "oracle.keys", 0);
  const double pair_key0 = ScalarAt(Sweep().oracle, "oracle.pair_keys", 0);
  const double slots = ScalarAt(Sweep().oracle, "oracle.slots_per_day", 0);
  struct Case {
    std::string record;
    size_t element;
    double value;
  };
  const Case cases[] = {
      {"oracle.slots_per_day", 0, 0.0},
      {"oracle.slots_per_day", 0, slots - 1.0},
      {"oracle.slots_per_day", 0, slots + 0.5},
      {"oracle.grid_cells", 0, 0.0},
      {"oracle.grid_cells", 0, 0.5},
      {"oracle.grid_cells", 0, 2.5},
      {"oracle.slot_seconds", 0, 0.0},
      {"oracle.slot_seconds", 0, -3600.0},
      {"oracle.slot_seconds", 0, 86401.0},
      {"oracle.keys", 1, key0},
      {"oracle.pair_keys", 1, pair_key0 - 1.0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.record + "[" + std::to_string(c.element) +
                 "] = " + std::to_string(c.value));
    for (const auto& [bytes, load] :
         {std::pair{&Sweep().model, &LoadModelBytes},
          std::pair{&Sweep().oracle, &LoadOracleBytes}}) {
      const nn::LoadStatus status =
          load(PatchScalar(*bytes, c.record, c.element, c.value));
      EXPECT_EQ(status.kind, nn::LoadErrorKind::kBadValue) << status.message;
      EXPECT_EQ(status.tensor, c.record) << status.message;
    }
  }
}

// `bytes` with the dims of record `name` set to `dims` (as many as it has)
// and the checksum recomputed.
std::vector<uint8_t> PatchDims(std::vector<uint8_t> bytes,
                               const std::string& name,
                               const std::vector<uint64_t>& dims) {
  const nn::TensorRecord r = RecordNamed(Index(bytes), name);
  EXPECT_EQ(dims.size(), r.shape.size());
  std::memcpy(bytes.data() + r.payload_offset - dims.size() * sizeof(uint64_t),
              dims.data(), dims.size() * sizeof(uint64_t));
  Rechecksum(bytes);
  return bytes;
}

TEST(ArtifactTest, RecordWhoseByteSizeWrapsIsTruncated) {
  // 2^61 + n elements of 8 bytes wrap to exactly the n * 8 payload bytes
  // the record holds, so a size check done in wrapped arithmetic passes
  // and the loader sizes the link-mean table from 2^61 + n.
  for (const auto* bytes : {&Sweep().model, &Sweep().oracle}) {
    const size_t n = RecordNamed(Index(*bytes), "linkmean.means").num_elements;
    const std::vector<uint8_t> wrapped =
        PatchDims(*bytes, "linkmean.means", {(uint64_t{1} << 61) + n});
    std::vector<nn::TensorRecord> records;
    EXPECT_EQ(nn::IndexStateDict(wrapped, &records).kind,
              nn::LoadErrorKind::kTruncated);
    const nn::LoadStatus status = bytes == &Sweep().model
                                      ? LoadModelBytes(wrapped)
                                      : LoadOracleBytes(wrapped);
    EXPECT_EQ(status.kind, nn::LoadErrorKind::kTruncated) << status.message;
  }
}

TEST(ArtifactTest, HostileDimCountIsTruncatedBeforeAllocating) {
  // A u32 ndim near 2^32 once reserved ~32 GB for the shape before a single
  // dim was read, so std::bad_alloc escaped both loaders. The shape may
  // only grow with dims the file really holds.
  for (const auto* bytes : {&Sweep().model, &Sweep().oracle}) {
    const nn::TensorRecord r = RecordNamed(Index(*bytes), "linkmean.means");
    std::vector<uint8_t> patched = *bytes;
    const uint32_t ndim = 0xfffffff0u;
    std::memcpy(patched.data() + r.payload_offset -
                    r.shape.size() * sizeof(uint64_t) - sizeof(ndim),
                &ndim, sizeof(ndim));
    std::vector<nn::TensorRecord> records;
    EXPECT_EQ(nn::IndexStateDict(patched, &records).kind,
              nn::LoadErrorKind::kTruncated);
    const nn::LoadStatus status = bytes == &Sweep().model
                                      ? LoadModelBytes(patched)
                                      : LoadOracleBytes(patched);
    EXPECT_EQ(status.kind, nn::LoadErrorKind::kTruncated) << status.message;
  }
}

// Byte ranges [begin, end) of every record (header included) of `bytes`.
std::vector<std::pair<size_t, size_t>> RecordSpans(
    const std::vector<nn::TensorRecord>& records) {
  std::vector<std::pair<size_t, size_t>> spans;
  size_t begin = 16;  // magic, version, entry count
  for (const auto& r : records) {
    const size_t end = r.payload_offset + nn::RecordPayloadBytes(r);
    spans.emplace_back(begin, end);
    begin = end;
  }
  return spans;
}

// The byte range covered by every record whose name starts with `prefix`.
std::pair<size_t, size_t> PrefixSpan(const std::vector<uint8_t>& bytes,
                                     const std::string& prefix) {
  const auto records = Index(bytes);
  const auto spans = RecordSpans(records);
  size_t begin = bytes.size(), end = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].name.rfind(prefix, 0) != 0) continue;
    begin = std::min(begin, spans[i].first);
    end = std::max(end, spans[i].second);
  }
  return {begin, end};
}

// Seeded single-byte flips across the named regions of `bytes`.
std::vector<std::vector<uint8_t>> FlipCases(
    const std::vector<uint8_t>& bytes,
    const std::vector<std::pair<size_t, size_t>>& regions, size_t per_region,
    uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<uint8_t>> out;
  for (const auto& [begin, end] : regions) {
    EXPECT_LT(begin, end);
    for (size_t i = 0; i < per_region; ++i) {
      std::vector<uint8_t> flipped = bytes;
      const size_t pos = begin + rng() % (end - begin);
      flipped[pos] ^= static_cast<uint8_t>(1 + rng() % 255);
      out.push_back(std::move(flipped));
    }
  }
  return out;
}

// `bytes` cut at every record boundary and one byte either side.
std::vector<std::vector<uint8_t>> TruncationCases(
    const std::vector<uint8_t>& bytes) {
  std::vector<size_t> cuts = {0, 1, 15, 16, 17, bytes.size() - 1};
  for (const auto& [begin, end] : RecordSpans(Index(bytes))) {
    for (const size_t cut : {end - 1, end, end + 1}) cuts.push_back(cut);
  }
  std::vector<std::vector<uint8_t>> out;
  for (const size_t cut : cuts) {
    if (cut >= bytes.size()) continue;
    out.emplace_back(bytes.begin(),
                     bytes.begin() + static_cast<ptrdiff_t>(cut));
  }
  return out;
}

std::vector<std::vector<uint8_t>> ModelSweepCases() {
  const std::vector<uint8_t>& bytes = Sweep().model;
  const auto speed = RecordNamed(Index(bytes), "speed.matrices");
  const std::vector<std::pair<size_t, size_t>> regions = {
      {0, 16},
      PrefixSpan(bytes, "config."),
      PrefixSpan(bytes, "model."),
      {speed.payload_offset,
       speed.payload_offset + nn::RecordPayloadBytes(speed)},
      PrefixSpan(bytes, "oracle."),
  };
  std::vector<std::vector<uint8_t>> cases = FlipCases(bytes, regions, 48, 2024);
  for (auto& c : TruncationCases(bytes)) cases.push_back(std::move(c));
  return cases;
}

std::vector<std::vector<uint8_t>> OracleSweepCases() {
  const std::vector<uint8_t>& bytes = Sweep().oracle;
  const std::vector<std::pair<size_t, size_t>> regions = {
      {0, 16},
      PrefixSpan(bytes, "artifact."),
      PrefixSpan(bytes, "oracle."),
      PrefixSpan(bytes, "linkmean."),
  };
  std::vector<std::vector<uint8_t>> cases = FlipCases(bytes, regions, 52, 2025);
  for (auto& c : TruncationCases(bytes)) cases.push_back(std::move(c));
  return cases;
}

TEST(ArtifactTest, CorruptionSweepOnlyEverThrowsSerializeError) {
  const auto model_cases = ModelSweepCases();
  const auto oracle_cases = OracleSweepCases();
  EXPECT_GE(model_cases.size(), 200u + 3u * Index(Sweep().model).size());
  EXPECT_GE(oracle_cases.size(), 200u);
  // The model loads at both speed-field sizes fail alike on every case:
  // pooling speed.matrices while it is read changes no verdict.
  const auto load_model = [](const std::vector<uint8_t>& bytes) {
    const nn::LoadStatus pooled = LoadModelBytes(bytes);
    const nn::LoadStatus stored = LoadStoredModelBytes(bytes);
    EXPECT_EQ(pooled.kind, stored.kind) << pooled.message;
    EXPECT_EQ(pooled.tensor, stored.tensor) << pooled.message;
    return pooled;
  };
  // Stale checksum or cut framing: every case must fail, typed.
  for (size_t i = 0; i < model_cases.size(); ++i) {
    EXPECT_FALSE(load_model(model_cases[i]).ok()) << "model case " << i;
  }
  for (size_t i = 0; i < oracle_cases.size(); ++i) {
    EXPECT_FALSE(LoadOracleBytes(oracle_cases[i]).ok()) << "oracle case " << i;
  }
  // The same flips with the checksum recomputed reach the value checks:
  // each either loads or fails typed (LoadModelBytes flags anything else).
  size_t loaded = 0, rejected = 0;
  for (auto bytes : model_cases) {
    if (bytes.size() != Sweep().model.size()) continue;
    Rechecksum(bytes);
    (load_model(bytes).ok() ? loaded : rejected)++;
  }
  for (auto bytes : oracle_cases) {
    if (bytes.size() != Sweep().oracle.size()) continue;
    Rechecksum(bytes);
    (LoadOracleBytes(bytes).ok() ? loaded : rejected)++;
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(loaded, 0u);
}

// A StateDict over zeroed storage shaped like every record of `bytes`.
struct ShapedDict {
  std::vector<std::vector<double>> storage;
  nn::StateDict dict;
  explicit ShapedDict(const std::vector<uint8_t>& bytes) {
    const auto records = Index(bytes);
    storage.reserve(records.size());
    for (const auto& r : records) {
      storage.emplace_back(r.num_elements);
      dict.AddBuffer(r.name, r.shape, storage.back().data());
    }
  }
};

void ExpectSameStatus(const nn::LoadStatus& a, const nn::LoadStatus& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.tensor, b.tensor);
  EXPECT_EQ(a.message, b.message);
}

// Every entry of `a` equals, bit for bit, the entry of `b` with its name;
// returns how many entries were compared.
size_t ExpectEntriesBitEqualByName(const nn::StateDict& a,
                                   const nn::StateDict& b) {
  size_t compared = 0;
  for (const auto& ea : a.entries()) {
    const nn::StateDict::Entry* eb = nullptr;
    for (const auto& e : b.entries()) {
      if (e.name == ea.name) eb = &e;
    }
    if (eb == nullptr) {
      ADD_FAILURE() << "no entry " << ea.name;
      continue;
    }
    EXPECT_EQ(ea.shape, eb->shape) << ea.name;
    if (ea.size != eb->size) continue;
    EXPECT_EQ(std::memcmp(ea.data, eb->data, ea.size * sizeof(double)), 0)
        << "payload differs for " << ea.name;
    ++compared;
  }
  return compared;
}

// Kinds only the framing parser reports (kBadVersion is left out: the
// artifact.version check reports it too).
bool IsFramingKind(nn::LoadErrorKind kind) {
  using K = nn::LoadErrorKind;
  return kind == K::kBadMagic || kind == K::kTruncated ||
         kind == K::kBadDtype || kind == K::kTrailingBytes ||
         kind == K::kBadChecksum;
}

// The file source against the in-memory one, over every sweep mutation plus
// one trailing byte. nn::LoadStateDict on the written file returns exactly
// the status DeserializeStateDict returns for the same bytes in memory, and
// a clean load lands the same bits. Each artifact loader fails with the
// in-memory index's kind whenever the bytes do not index, and with no
// framing or checksum kind when they do.
TEST(ArtifactTest, FileLoadersMatchTheInMemoryParse) {
  const nn::TensorRecord speed =
      RecordNamed(Index(Sweep().model), "speed.matrices");
  ASSERT_GE(nn::RecordPayloadBytes(speed), nn::kReadWindowBytes);
  const std::string path = TempPath("artifact_test_differential.artifact");
  const std::tuple<const std::vector<uint8_t>*,
                   std::vector<std::vector<uint8_t>>,
                   nn::LoadStatus (*)(const std::vector<uint8_t>&)>
      sweeps[] = {{&Sweep().model, ModelSweepCases(), &LoadModelBytes},
                  {&Sweep().oracle, OracleSweepCases(), &LoadOracleBytes}};
  size_t clean = 0, indexed = 0;
  for (const auto& [intact, cases, load_artifact] : sweeps) {
    ShapedDict memory(*intact), file(*intact);
    std::vector<std::vector<uint8_t>> inputs = cases;
    for (auto bytes : cases) {
      if (bytes.size() != intact->size()) continue;
      Rechecksum(bytes);
      inputs.push_back(std::move(bytes));
    }
    inputs.push_back(*intact);
    inputs.push_back(*intact);
    inputs.back().push_back(0);
    for (size_t i = 0; i < inputs.size(); ++i) {
      SCOPED_TRACE("input " + std::to_string(i));
      const std::vector<uint8_t>& bytes = inputs[i];
      WriteBytes(path, bytes);
      const nn::LoadStatus from_memory =
          nn::DeserializeStateDict(bytes, memory.dict);
      ExpectSameStatus(from_memory, nn::LoadStateDict(path, file.dict));
      if (from_memory.ok()) {
        ++clean;
        EXPECT_EQ(ExpectEntriesBitEqualByName(memory.dict, file.dict),
                  memory.dict.size());
      }
      std::vector<nn::TensorRecord> records;
      const nn::LoadStatus index = nn::IndexStateDict(bytes, &records);
      const nn::LoadStatus artifact = load_artifact(bytes);
      if (!index.ok()) {
        EXPECT_EQ(artifact.kind, index.kind) << artifact.message;
      } else {
        ++indexed;
        EXPECT_FALSE(IsFramingKind(artifact.kind)) << artifact.message;
      }
    }
  }
  EXPECT_GT(clean, 2u);
  EXPECT_GT(indexed, 100u);
  std::remove(path.c_str());
}

// A clean load from the file holds the in-memory decode's bits in every
// parameter, the speed arena and the fallback tables.
TEST(ArtifactTest, FileLoadIsBitEqualToTheInMemoryDecode) {
  const SweepFiles& files = Sweep();
  ShapedDict memory(files.model);
  ASSERT_TRUE(nn::DeserializeStateDict(files.model, memory.dict).ok());
  io::ServingModel bundle = io::LoadModelArtifact(
      files.model_path, TinyDataset().network, io::SpeedFieldSize::kStored);
  ASSERT_NE(bundle.speed, nullptr);
  ASSERT_NE(bundle.oracle, nullptr);
  ASSERT_NE(bundle.link_mean, nullptr);
  nn::StateDict loaded;
  bundle.model->AppendState("model.", loaded);
  bundle.oracle->AppendState("oracle.", loaded);
  bundle.link_mean->AppendState("linkmean.", loaded);
  const nn::TensorRecord speed =
      RecordNamed(Index(files.model), "speed.matrices");
  loaded.AddBuffer("speed.matrices", speed.shape,
                   const_cast<double*>(bundle.speed->matrices().data()));
  EXPECT_EQ(ExpectEntriesBitEqualByName(loaded, memory.dict), loaded.size());

  ShapedDict oracle_memory(files.oracle);
  ASSERT_TRUE(nn::DeserializeStateDict(files.oracle, oracle_memory.dict).ok());
  io::OracleBundle oracle = io::LoadOracleArtifact(files.oracle_path);
  nn::StateDict oracle_loaded;
  oracle.oracle->AppendState("oracle.", oracle_loaded);
  oracle.link_mean->AppendState("linkmean.", oracle_loaded);
  EXPECT_EQ(ExpectEntriesBitEqualByName(oracle_loaded, oracle_memory.dict),
            oracle_loaded.size());
}

// At the stored size: a pooled field writes a smaller (and valid) artifact.
TEST(ArtifactTest, WriteLoadWriteIsByteIdentical) {
  const SweepFiles& files = Sweep();
  io::ServingModel bundle = io::LoadModelArtifact(
      files.model_path, TinyDataset().network, io::SpeedFieldSize::kStored);
  ASSERT_NE(bundle.speed, nullptr);
  ASSERT_EQ(bundle.model->speed_provider(), bundle.speed.get());
  io::ArtifactOptions options;
  options.network_id = bundle.network_id;
  options.oracle = bundle.oracle.get();
  options.link_mean = bundle.link_mean.get();
  const std::string path = TempPath("artifact_test_rewrite.artifact");
  io::WriteModelArtifact(path, *bundle.model, bundle.speed.get(), options);
  EXPECT_TRUE(ReadBytes(path) == files.model) << "model artifact changed";

  io::OracleBundle oracle = io::LoadOracleArtifact(files.oracle_path);
  io::WriteOracleArtifact(path, oracle.network_id, oracle.oracle.get(),
                          oracle.link_mean.get());
  EXPECT_TRUE(ReadBytes(path) == files.oracle) << "oracle artifact changed";
  std::remove(path.c_str());
}

// --- The speed field at the model's input size --------------------------------

// A synthetic frozen field: `n` snapshots of rows x cols seeded values in
// [0.05, 1), at 300 s snapshots with gaps between the stored indices.
sim::SnapshotSpeedField SyntheticField(size_t rows, size_t cols, size_t n,
                                       uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> speed(0.05, 1.0);
  std::vector<int64_t> indices;
  for (size_t i = 0; i < n; ++i) indices.push_back(40 + 3 * static_cast<int64_t>(i));
  std::vector<double> matrices(n * rows * cols);
  for (double& v : matrices) v = speed(rng);
  return sim::SnapshotSpeedField(rows, cols, 300.0, std::move(indices),
                                 std::move(matrices));
}

// The block means of one stored matrix, summed in row-major order, written
// apart from core::PoolMatrixInto: a pooled snapshot must hold exactly
// these bits.
std::vector<double> ReferencePool(std::span<const double> matrix, size_t rows,
                                  size_t cols, size_t max_dim) {
  const size_t pr = std::min(rows, max_dim), pc = std::min(cols, max_dim);
  std::vector<double> sum(pr * pc, 0.0), count(pr * pc, 0.0);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const size_t block = (r * pr / rows) * pc + c * pc / cols;
      sum[block] += matrix[r * cols + c];
      count[block] += 1.0;
    }
  }
  for (size_t i = 0; i < sum.size(); ++i) sum[i] /= count[i];
  return sum;
}

// One OD per stored snapshot of `field` and weather type, departing
// mid-snapshot.
std::vector<traj::OdInput> EverySnapshotAndWeather(
    const sim::SnapshotSpeedField& field) {
  const traj::OdInput base = TestOds(1)[0];
  std::vector<traj::OdInput> ods;
  for (const int64_t index : field.indices()) {
    for (size_t w = 0; w < core::ExternalFeaturesEncoder::kNumWeatherTypes;
         ++w) {
      traj::OdInput od = base;
      od.departure_time =
          (static_cast<double>(index) + 0.5) * field.snapshot_seconds();
      od.weather_type = static_cast<int>(w);
      ods.push_back(od);
    }
  }
  return ods;
}

// The default load pools each stored snapshot to the model's input size;
// every prediction stays bit-identical to the stored-size load, over every
// snapshot and weather type, for fields reduced in even and uneven blocks
// (14x14, 21x21, 13x9) and one within the bound (6x6, the copy branch),
// from fp64, f16 and int8 artifacts and the N-other ablation.
TEST(ArtifactTest, PooledLoadServesTheStoredLoadsBits) {
  const sim::Dataset& dataset = TinyDataset();
  core::DeepOdModel full(RandomInitConfig(), dataset);
  core::DeepOdConfig no_other_config = RandomInitConfig();
  no_other_config.ablation = core::Ablation::kNoOther;
  core::DeepOdModel no_other(no_other_config, dataset);
  full.SetTraining(false);
  no_other.SetTraining(false);
  struct Variant {
    const char* name;
    core::DeepOdModel* model;
    nn::QuantMode quant;
  };
  const Variant variants[] = {{"fp64", &full, nn::QuantMode::kNone},
                              {"f16", &full, nn::QuantMode::kFp16},
                              {"int8", &full, nn::QuantMode::kInt8},
                              {"no_other", &no_other, nn::QuantMode::kNone}};
  const std::string path = TempPath("artifact_test_pooled.artifact");
  for (const auto& [rows, cols] : {std::pair<size_t, size_t>{14, 14},
                                   {21, 21},
                                   {13, 9},
                                   {6, 6}}) {
    const sim::SnapshotSpeedField field =
        SyntheticField(rows, cols, 12, 100 * rows + cols);
    const std::vector<traj::OdInput> ods = EverySnapshotAndWeather(field);
    for (const Variant& v : variants) {
      SCOPED_TRACE(testing::Message()
                   << rows << "x" << cols << " field, " << v.name);
      io::ArtifactOptions options;
      options.quant = v.quant;
      io::WriteModelArtifact(path, *v.model, &field, options);
      const io::ServingModel pooled =
          io::LoadModelArtifact(path, dataset.network);
      const io::ServingModel stored = io::LoadModelArtifact(
          path, dataset.network, io::SpeedFieldSize::kStored);
      ASSERT_NE(pooled.speed, nullptr);
      ASSERT_NE(stored.speed, nullptr);
      EXPECT_EQ(pooled.quant, v.quant);
      EXPECT_EQ(stored.speed->matrices(), field.matrices());

      const size_t d = pooled.config.max_speed_matrix_dim;
      ASSERT_EQ(pooled.speed->rows(), std::min(rows, d));
      ASSERT_EQ(pooled.speed->cols(), std::min(cols, d));
      EXPECT_EQ(pooled.speed->indices(), field.indices());
      EXPECT_EQ(pooled.speed->snapshot_seconds(), field.snapshot_seconds());
      ASSERT_EQ(pooled.speed->matrices().size(),
                field.size() * pooled.speed->rows() * pooled.speed->cols());
      for (size_t i = 0; i < field.size(); ++i) {
        const std::span<const double> cells = field.matrix(i);
        size_t pr = 0, pc = 0;
        const std::vector<double> want = core::PoolMatrix(
            {cells.begin(), cells.end()}, rows, cols, d, &pr, &pc);
        const std::vector<double> reference =
            ReferencePool(cells, rows, cols, d);
        const std::span<const double> got = pooled.speed->matrix(i);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(double)), 0)
            << "snapshot " << i;
        EXPECT_EQ(std::memcmp(got.data(), reference.data(),
                              reference.size() * sizeof(double)), 0)
            << "snapshot " << i << " is not the row-major block mean";
      }

      const std::vector<double> from_pooled = pooled.model->PredictBatch(ods);
      const std::vector<double> from_stored = stored.model->PredictBatch(ods);
      ASSERT_EQ(from_pooled.size(), ods.size());
      EXPECT_EQ(std::memcmp(from_pooled.data(), from_stored.data(),
                            ods.size() * sizeof(double)), 0);
      if (v.quant == nn::QuantMode::kNone) {
        // And both serve the in-process model's bits.
        v.model->SetSpeedProvider(&field);
        const std::vector<double> in_process = v.model->PredictBatch(ods);
        v.model->SetSpeedProvider(dataset.speed_matrices.get());
        EXPECT_EQ(std::memcmp(from_pooled.data(), in_process.data(),
                              ods.size() * sizeof(double)), 0);
      }
    }
  }
  std::remove(path.c_str());
}

// `bytes` with record `name` moved to just before record `before`, and the
// checksum recomputed.
std::vector<uint8_t> MoveRecordBefore(const std::vector<uint8_t>& bytes,
                                      const std::string& name,
                                      const std::string& before) {
  const auto records = Index(bytes);
  const auto spans = RecordSpans(records);
  const auto span_of = [&](const std::string& record) {
    for (size_t i = 0; i < records.size(); ++i) {
      if (records[i].name == record) return spans[i];
    }
    throw std::invalid_argument("no record " + record);
  };
  const auto [moved_begin, moved_end] = span_of(name);
  std::vector<uint8_t> out(bytes.begin(), bytes.begin() + 16);
  for (const auto& [begin, end] : spans) {
    if (begin == moved_begin) continue;
    if (begin == span_of(before).first) {
      out.insert(out.end(), bytes.begin() + moved_begin,
                 bytes.begin() + moved_end);
    }
    out.insert(out.end(), bytes.begin() + begin, bytes.begin() + end);
  }
  out.insert(out.end(), bytes.end() - sizeof(uint64_t), bytes.end());
  Rechecksum(out);
  return out;
}

// `bytes` with a second copy of record `name` right after it, the entry
// count bumped and the checksum recomputed.
std::vector<uint8_t> DuplicateRecord(const std::vector<uint8_t>& bytes,
                                     const std::string& name) {
  const auto records = Index(bytes);
  const auto spans = RecordSpans(records);
  std::vector<uint8_t> out = bytes;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].name != name) continue;
    const auto [begin, end] = spans[i];
    out.insert(out.begin() + static_cast<ptrdiff_t>(end),
               bytes.begin() + begin, bytes.begin() + end);
    break;
  }
  uint64_t count = 0;
  std::memcpy(&count, out.data() + 8, sizeof(count));
  ++count;
  std::memcpy(out.data() + 8, &count, sizeof(count));
  Rechecksum(out);
  return out;
}

// `bytes` with the f64 speed.matrices record stored as f16, a record only
// a hand-made file holds, and the checksum recomputed.
std::vector<uint8_t> HalfSpeedMatrices(const std::vector<uint8_t>& bytes) {
  const nn::TensorRecord r = RecordNamed(Index(bytes), "speed.matrices");
  std::vector<uint8_t> out(bytes.begin(),
                           bytes.begin() + static_cast<ptrdiff_t>(r.payload_offset));
  // The dtype byte sits before the u32 ndim and the dims.
  out[r.payload_offset - r.shape.size() * sizeof(uint64_t) -
      sizeof(uint32_t) - 1] = nn::kDtypeF16;
  for (const double v : nn::ReadRecordPayload(r)) {
    const uint16_t half = nn::HalfFromDouble(v);
    const auto* p = reinterpret_cast<const uint8_t*>(&half);
    out.insert(out.end(), p, p + sizeof(half));
  }
  out.insert(out.end(),
             bytes.begin() + static_cast<ptrdiff_t>(r.payload_offset +
                                                    nn::RecordPayloadBytes(r)),
             bytes.end());
  Rechecksum(out);
  return out;
}

// Re-sealed files whose speed.matrices record the pooling load must refuse
// with a typed error naming it, and what the stored-size load says of each.
// Only the record order is the pooling load's own rule: it takes the record
// while it is read, so the config and speed geometry must come first.
TEST(ArtifactTest, HostileSpeedMatricesAreTypedErrorsAtBothSizes) {
  const std::vector<uint8_t>& intact = Sweep().model;
  const nn::TensorRecord speed = RecordNamed(Index(intact), "speed.matrices");
  const size_t n = speed.shape[0], cells = speed.shape[1];
  ASSERT_GE(n, 2u);
  using K = nn::LoadErrorKind;
  struct Case {
    std::string what;
    std::vector<uint8_t> bytes;
    K pooled, stored;
  };
  const Case cases[] = {
      {"framed before speed.rows",
       MoveRecordBefore(intact, "speed.matrices", "speed.rows"),
       K::kUnexpectedTensor, K::kNone},
      {"framed before config.max_speed_matrix_dim",
       MoveRecordBefore(intact, "speed.matrices",
                        "config.max_speed_matrix_dim"),
       K::kUnexpectedTensor, K::kNone},
      {"NaN in the last snapshot",
       PatchScalar(intact, "speed.matrices", n * cells - 1, std::nan("")),
       K::kNonFinite, K::kNonFinite},
      {"infinity in the last snapshot",
       PatchScalar(intact, "speed.matrices", (n - 1) * cells, -HUGE_VAL),
       K::kNonFinite, K::kNonFinite},
      {"row length not rows x cols",
       PatchDims(intact, "speed.matrices", {2 * n, cells / 2}),
       K::kShapeMismatch, K::kShapeMismatch},
      {"stored as f16", HalfSpeedMatrices(intact), K::kBadDtype,
       K::kBadDtype},
      {"framed twice", DuplicateRecord(intact, "speed.matrices"),
       K::kUnexpectedTensor, K::kUnexpectedTensor},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const nn::LoadStatus pooled = LoadModelBytes(c.bytes);
    const nn::LoadStatus stored = LoadStoredModelBytes(c.bytes);
    EXPECT_EQ(pooled.kind, c.pooled) << pooled.message;
    EXPECT_EQ(stored.kind, c.stored) << stored.message;
    for (const nn::LoadStatus* status : {&pooled, &stored}) {
      if (!status->ok()) {
        EXPECT_EQ(status->tensor, "speed.matrices");
      }
    }
    if (c.pooled == K::kNonFinite) {
      // Both name the same element.
      EXPECT_EQ(pooled.message, stored.message);
    }
  }
}

// Pinned thread counts, so the run does not follow the host's core count.
TEST(CheckpointTest, ResumeMatchesUninterruptedRunBitExactly) {
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(testing::Message() << threads << " thread(s)");
    core::DeepOdConfig config = TinyConfig();
    config.epochs = 2;
    config.num_threads = threads;

    // Uninterrupted two-epoch run.
    core::DeepOdModel straight(config, TinyDataset());
    core::DeepOdTrainer straight_trainer(straight, TinyDataset());
    const double straight_mae = straight_trainer.Train();

    // Same run split in two processes' worth of work: one epoch,
    // checkpoint, then a *fresh* model+trainer resumes and finishes.
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
}

}  // namespace
}  // namespace deepod
