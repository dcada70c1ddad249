#include "io/model_artifact.h"

#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "nn/serialize.h"

namespace deepod::io {
namespace {

// v1: version + config.* + model.* + optional speed.*.
// v2: adds artifact.network_id and the optional oracle.* / linkmean.*
// fallback-estimator blocks. v1 artifacts still load (network_id 0, no
// fallback estimators); new artifacts are always written as v2.
constexpr double kArtifactVersion = 2.0;
constexpr double kMinArtifactVersion = 1.0;

// The config snapshot as (field name, value) pairs. Enum fields are stored
// as their integer values; the seed is stored as a double (exact below
// 2^53, and only reproduction metadata — predictions never read it).
std::vector<std::pair<const char*, double>> ConfigFields(
    const core::DeepOdConfig& c) {
  return {
      {"ds", static_cast<double>(c.ds)},
      {"dt", static_cast<double>(c.dt)},
      {"dm1", static_cast<double>(c.dm1)},
      {"dm2", static_cast<double>(c.dm2)},
      {"dm3", static_cast<double>(c.dm3)},
      {"dm4", static_cast<double>(c.dm4)},
      {"dm5", static_cast<double>(c.dm5)},
      {"dm6", static_cast<double>(c.dm6)},
      {"dm7", static_cast<double>(c.dm7)},
      {"dm8", static_cast<double>(c.dm8)},
      {"dm9", static_cast<double>(c.dm9)},
      {"dh", static_cast<double>(c.dh)},
      {"dtraf", static_cast<double>(c.dtraf)},
      {"slot_seconds", c.slot_seconds},
      {"loss_weight_w", c.loss_weight_w},
      {"supervise_stcode", c.supervise_stcode ? 1.0 : 0.0},
      {"learning_rate", c.learning_rate},
      {"lr_decay_epochs", static_cast<double>(c.lr_decay_epochs)},
      {"lr_decay_factor", c.lr_decay_factor},
      {"batch_size", static_cast<double>(c.batch_size)},
      {"epochs", static_cast<double>(c.epochs)},
      {"grad_clip", c.grad_clip},
      {"max_speed_matrix_dim", static_cast<double>(c.max_speed_matrix_dim)},
      {"ablation", static_cast<double>(static_cast<int>(c.ablation))},
      {"time_init", static_cast<double>(static_cast<int>(c.time_init))},
      {"road_init", static_cast<double>(static_cast<int>(c.road_init))},
      {"embed_method", static_cast<double>(static_cast<int>(c.embed_method))},
      {"seed", static_cast<double>(c.seed)},
      {"num_threads", static_cast<double>(c.num_threads)},
  };
}

core::DeepOdConfig ConfigFromScalars(
    const std::function<double(const char*)>& get) {
  const auto sz = [&get](const char* name) {
    return static_cast<size_t>(std::llround(get(name)));
  };
  core::DeepOdConfig c;
  c.ds = sz("ds");
  c.dt = sz("dt");
  c.dm1 = sz("dm1");
  c.dm2 = sz("dm2");
  c.dm3 = sz("dm3");
  c.dm4 = sz("dm4");
  c.dm5 = sz("dm5");
  c.dm6 = sz("dm6");
  c.dm7 = sz("dm7");
  c.dm8 = sz("dm8");
  c.dm9 = sz("dm9");
  c.dh = sz("dh");
  c.dtraf = sz("dtraf");
  c.slot_seconds = get("slot_seconds");
  c.loss_weight_w = get("loss_weight_w");
  c.supervise_stcode = get("supervise_stcode") != 0.0;
  c.learning_rate = get("learning_rate");
  c.lr_decay_epochs = static_cast<int>(std::llround(get("lr_decay_epochs")));
  c.lr_decay_factor = get("lr_decay_factor");
  c.batch_size = sz("batch_size");
  c.epochs = static_cast<int>(std::llround(get("epochs")));
  c.grad_clip = get("grad_clip");
  c.max_speed_matrix_dim = sz("max_speed_matrix_dim");
  c.ablation =
      static_cast<core::Ablation>(std::llround(get("ablation")));
  c.time_init =
      static_cast<core::TimeInit>(std::llround(get("time_init")));
  c.road_init =
      static_cast<core::RoadInit>(std::llround(get("road_init")));
  c.embed_method =
      static_cast<embed::EmbedMethod>(std::llround(get("embed_method")));
  c.seed = static_cast<uint64_t>(std::llround(get("seed")));
  c.num_threads = sz("num_threads");
  return c;
}

// Flat staging buffers for the speed.* entries of one artifact dict. The
// dict borrows this storage, so it must outlive the (de)serialisation call.
struct SpeedStaging {
  double rows = 0.0, cols = 0.0, snapshot_seconds = 0.0;
  std::vector<double> indices;
  std::vector<double> matrices;  // [n, rows*cols]
};

void AppendSpeedEntries(SpeedStaging& staging, nn::StateDict& dict) {
  dict.AddScalarBuffer("speed.rows", &staging.rows);
  dict.AddScalarBuffer("speed.cols", &staging.cols);
  dict.AddScalarBuffer("speed.snapshot_seconds", &staging.snapshot_seconds);
  dict.AddBuffer("speed.indices", {staging.indices.size()},
                 staging.indices.data());
  const size_t n = staging.indices.size();
  dict.AddBuffer("speed.matrices", {n, n > 0 ? staging.matrices.size() / n : 0},
                 staging.matrices.data());
}

[[noreturn]] void ThrowMissing(const char* name) {
  throw nn::SerializeError(nn::LoadStatus::Error(
      nn::LoadErrorKind::kMissingTensor,
      std::string("artifact is missing required entry '") + name + "'", name));
}

}  // namespace

void WriteModelArtifact(const std::string& path, core::DeepOdModel& model,
                        const sim::SnapshotSpeedField* speed) {
  WriteModelArtifact(path, model, speed, ArtifactOptions{});
}

void WriteModelArtifact(const std::string& path, core::DeepOdModel& model,
                        const sim::SnapshotSpeedField* speed,
                        const ArtifactOptions& options) {
  nn::StateDict dict;
  double version = kArtifactVersion;
  dict.AddScalarBuffer("artifact.version", &version);
  double network_id = static_cast<double>(options.network_id);
  dict.AddScalarBuffer("artifact.network_id", &network_id);

  auto config_fields = ConfigFields(model.config());
  for (auto& [name, value] : config_fields) {
    dict.AddScalarBuffer(std::string("config.") + name, &value);
  }

  model.AppendState("model.", dict);

  if (options.oracle != nullptr) options.oracle->AppendState("oracle.", dict);
  if (options.link_mean != nullptr) {
    options.link_mean->AppendState("linkmean.", dict);
  }

  SpeedStaging staging;
  if (speed != nullptr) {
    staging.rows = static_cast<double>(speed->rows());
    staging.cols = static_cast<double>(speed->cols());
    staging.snapshot_seconds = speed->snapshot_seconds();
    const auto& snapshots = speed->snapshots();
    const size_t cell_count = speed->rows() * speed->cols();
    staging.indices.reserve(snapshots.size());
    staging.matrices.reserve(snapshots.size() * cell_count);
    for (const auto& snap : snapshots) {
      staging.indices.push_back(static_cast<double>(snap.index));
      staging.matrices.insert(staging.matrices.end(), snap.matrix.begin(),
                              snap.matrix.end());
    }
    AppendSpeedEntries(staging, dict);
  }

  // Only model.* weight entries are quantisation-eligible (trainable,
  // ndim >= 2); the config/speed buffers always stay f64.
  nn::ThrowIfError(nn::SaveStateDict(path, dict, options.quant));
}

ServingModel LoadModelArtifact(const std::string& path,
                               const road::RoadNetwork& network) {
  return LoadModelArtifact(path, network, ArtifactOptions{});
}

ServingModel LoadModelArtifact(const std::string& path,
                               const road::RoadNetwork& network,
                               const ArtifactOptions& options) {
  std::vector<uint8_t> buffer;
  nn::ThrowIfError(nn::ReadFileBytes(path, &buffer));
  std::vector<nn::TensorRecord> records;
  nn::ThrowIfError(nn::IndexStateDict(buffer, &records));

  const auto find = [&records](const char* name) -> const nn::TensorRecord* {
    for (const auto& r : records) {
      if (r.name == name) return &r;
    }
    return nullptr;
  };
  const auto scalar = [&](const char* name) {
    const nn::TensorRecord* r = find(name);
    if (r == nullptr || r->num_elements != 1) ThrowMissing(name);
    return nn::ReadRecordPayload(buffer, *r)[0];
  };

  const double version = scalar("artifact.version");
  if (version < kMinArtifactVersion || version > kArtifactVersion) {
    throw nn::SerializeError(nn::LoadStatus::Error(
        nn::LoadErrorKind::kBadVersion,
        "unsupported artifact version " + std::to_string(version),
        "artifact.version"));
  }

  ServingModel out;
  if (find("artifact.network_id") != nullptr) {
    out.network_id =
        static_cast<uint32_t>(std::llround(scalar("artifact.network_id")));
  }
  out.config = ConfigFromScalars([&](const char* name) {
    return scalar((std::string("config.") + name).c_str());
  });

  // The frozen speed field, when the artifact carries one. Built up front
  // from the indexed records so the predict-only model can be constructed
  // pointing at it; the strict full-dict pass below still re-validates the
  // same bytes by name and shape.
  if (find("speed.rows") != nullptr) {
    const auto rows = static_cast<size_t>(std::llround(scalar("speed.rows")));
    const auto cols = static_cast<size_t>(std::llround(scalar("speed.cols")));
    const double snapshot_seconds = scalar("speed.snapshot_seconds");
    const nn::TensorRecord* indices = find("speed.indices");
    const nn::TensorRecord* matrices = find("speed.matrices");
    if (indices == nullptr) ThrowMissing("speed.indices");
    if (matrices == nullptr) ThrowMissing("speed.matrices");
    const std::vector<double> index_values =
        nn::ReadRecordPayload(buffer, *indices);
    const std::vector<double> matrix_values =
        nn::ReadRecordPayload(buffer, *matrices);
    if (matrix_values.size() != index_values.size() * rows * cols) {
      throw nn::SerializeError(nn::LoadStatus::Error(
          nn::LoadErrorKind::kShapeMismatch,
          "speed.matrices size does not match speed.indices x rows x cols",
          "speed.matrices"));
    }
    std::vector<sim::SnapshotSpeedField::Snapshot> snapshots(
        index_values.size());
    const size_t cell_count = rows * cols;
    for (size_t i = 0; i < snapshots.size(); ++i) {
      snapshots[i].index = static_cast<int64_t>(std::llround(index_values[i]));
      snapshots[i].matrix.assign(
          matrix_values.begin() + static_cast<ptrdiff_t>(i * cell_count),
          matrix_values.begin() + static_cast<ptrdiff_t>((i + 1) * cell_count));
    }
    out.speed = std::make_unique<sim::SnapshotSpeedField>(
        rows, cols, snapshot_seconds, std::move(snapshots));
  }

  out.model = std::make_unique<core::DeepOdModel>(out.config, network,
                                                  out.speed.get());

  // Strict validated pass over the whole file: every artifact entry must
  // match an expected entry by name and shape (checksum already verified by
  // the index). This is what actually writes the model parameters — and
  // catches truncated tables, unexpected tensors and table-size mismatches
  // (e.g. an artifact from a different road network) with a typed error
  // before any value lands in the model.
  // The optional fallback-estimator blocks, sized from the indexed record
  // shapes so the strict pass below can deserialise straight into them.
  if (find("oracle.keys") != nullptr) {
    const nn::TensorRecord* pair_keys = find("oracle.pair_keys");
    if (pair_keys == nullptr) ThrowMissing("oracle.pair_keys");
    out.oracle = std::make_unique<baselines::OdOracle>();
    out.oracle->PrepareLoad(find("oracle.keys")->num_elements,
                            pair_keys->num_elements);
  }
  if (find("linkmean.means") != nullptr) {
    out.link_mean = std::make_unique<baselines::LinkMeanEstimator>();
    out.link_mean->PrepareLoad(find("linkmean.means")->num_elements);
  }

  nn::StateDict dict;
  double version_staging = 0.0;
  dict.AddScalarBuffer("artifact.version", &version_staging);
  double network_id_staging = 0.0;
  if (find("artifact.network_id") != nullptr) {
    dict.AddScalarBuffer("artifact.network_id", &network_id_staging);
  }
  auto config_fields = ConfigFields(out.config);
  for (auto& [name, value] : config_fields) {
    dict.AddScalarBuffer(std::string("config.") + name, &value);
  }
  out.model->AppendState("model.", dict);
  SpeedStaging staging;
  if (out.speed != nullptr) {
    staging.indices.resize(out.speed->snapshots().size());
    staging.matrices.resize(staging.indices.size() * out.speed->rows() *
                            out.speed->cols());
    AppendSpeedEntries(staging, dict);
  }
  if (out.oracle != nullptr) out.oracle->AppendState("oracle.", dict);
  if (out.link_mean != nullptr) out.link_mean->AppendState("linkmean.", dict);
  nn::ThrowIfError(nn::DeserializeStateDict(buffer, dict));

  // Effective quantisation: a load-time request wins; otherwise whatever
  // the records were stored as (the deserialise above already produced the
  // dequantised — i.e. snapped — fp64 values for a quantised artifact, so
  // no further pass is needed in that case).
  nn::QuantMode stored = nn::QuantMode::kNone;
  for (const auto& r : records) {
    if (r.dtype == nn::kDtypeF16) stored = nn::QuantMode::kFp16;
    if (r.dtype == nn::kDtypeI8) stored = nn::QuantMode::kInt8;
  }
  out.quant = options.quant != nn::QuantMode::kNone ? options.quant : stored;
  if (options.quant != nn::QuantMode::kNone) {
    nn::FakeQuantizeStateDict(dict, options.quant);
    // fp16 overflows past 65504 to infinity: the snapped weights must
    // still be servable.
    nn::ThrowIfError(nn::CheckFinite(dict));
  }

  out.model->ClearOcodeMemo();
  out.model->SetTraining(false);
  return out;
}

void WriteOracleArtifact(const std::string& path, uint32_t network_id,
                         baselines::OdOracle* oracle,
                         baselines::LinkMeanEstimator* link_mean) {
  nn::StateDict dict;
  double version = kArtifactVersion;
  dict.AddScalarBuffer("artifact.version", &version);
  double network_id_staging = static_cast<double>(network_id);
  dict.AddScalarBuffer("artifact.network_id", &network_id_staging);
  if (oracle != nullptr) oracle->AppendState("oracle.", dict);
  if (link_mean != nullptr) link_mean->AppendState("linkmean.", dict);
  nn::ThrowIfError(nn::SaveStateDict(path, dict, nn::QuantMode::kNone));
}

OracleBundle LoadOracleArtifact(const std::string& path) {
  std::vector<uint8_t> buffer;
  nn::ThrowIfError(nn::ReadFileBytes(path, &buffer));
  std::vector<nn::TensorRecord> records;
  nn::ThrowIfError(nn::IndexStateDict(buffer, &records));

  const auto find = [&records](const char* name) -> const nn::TensorRecord* {
    for (const auto& r : records) {
      if (r.name == name) return &r;
    }
    return nullptr;
  };
  const auto scalar = [&](const char* name) {
    const nn::TensorRecord* r = find(name);
    if (r == nullptr || r->num_elements != 1) ThrowMissing(name);
    return nn::ReadRecordPayload(buffer, *r)[0];
  };

  const double version = scalar("artifact.version");
  if (version < 2.0 || version > kArtifactVersion) {
    throw nn::SerializeError(nn::LoadStatus::Error(
        nn::LoadErrorKind::kBadVersion,
        "unsupported oracle artifact version " + std::to_string(version),
        "artifact.version"));
  }

  OracleBundle out;
  out.network_id =
      static_cast<uint32_t>(std::llround(scalar("artifact.network_id")));
  if (find("oracle.keys") != nullptr) {
    const nn::TensorRecord* pair_keys = find("oracle.pair_keys");
    if (pair_keys == nullptr) ThrowMissing("oracle.pair_keys");
    out.oracle = std::make_unique<baselines::OdOracle>();
    out.oracle->PrepareLoad(find("oracle.keys")->num_elements,
                            pair_keys->num_elements);
  }
  if (find("linkmean.means") != nullptr) {
    out.link_mean = std::make_unique<baselines::LinkMeanEstimator>();
    out.link_mean->PrepareLoad(find("linkmean.means")->num_elements);
  }

  nn::StateDict dict;
  double version_staging = 0.0;
  dict.AddScalarBuffer("artifact.version", &version_staging);
  double network_id_staging = 0.0;
  dict.AddScalarBuffer("artifact.network_id", &network_id_staging);
  if (out.oracle != nullptr) out.oracle->AppendState("oracle.", dict);
  if (out.link_mean != nullptr) out.link_mean->AppendState("linkmean.", dict);
  nn::ThrowIfError(nn::DeserializeStateDict(buffer, dict));
  return out;
}

}  // namespace deepod::io
