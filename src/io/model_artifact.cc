#include "io/model_artifact.h"

#include <algorithm>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "core/encoders.h"
#include "nn/serialize.h"
#include "temporal/time_slot.h"

namespace deepod::io {
namespace {

// The one entry layout written and read: artifact.network_id, then
// config.* + model.* + optional speed.* (model artifacts) and the optional
// oracle.* / linkmean.* fallback-estimator blocks. Version 1 (no
// network_id, no fallback blocks) is retired and reads as kBadVersion.
constexpr double kArtifactVersion = 2.0;

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

// Stated bounds of the artifact scalars that size an allocation or reach a
// constructor. Each is checked before its first use, so a checksum-valid
// file with a hostile scalar is a typed error, never an abort.
// Every layer width (config.ds ... config.dtraf): 4x the paper's widest
// layer (128, §6.2).
constexpr double kMaxLayerWidth = 512.0;
constexpr double kMaxNumThreads = 4096.0;
// The CNN pools the grid down to at most this many rows/cols; it sizes
// nothing itself, so the bound only keeps it a positive int.
constexpr double kMaxSpeedMatrixDim = 0x1p31;
// Speed snapshot period, seconds: a millisecond to a week.
constexpr double kMinSnapshotSeconds = 1e-3;
constexpr double kMaxSnapshotSeconds = temporal::kSecondsPerWeek;

[[noreturn]] void ThrowMissing(const std::string& name) {
  throw nn::SerializeError(nn::LoadStatus::Error(
      nn::LoadErrorKind::kMissingTensor,
      "artifact is missing required entry '" + name + "'", name));
}

[[noreturn]] void ThrowBadValue(const std::string& name,
                                const std::string& what) {
  throw nn::SerializeError(nn::LoadStatus::Error(
      nn::LoadErrorKind::kBadValue, name + " " + what, name));
}

[[noreturn]] void ThrowShape(const nn::TensorRecord& record,
                             const std::string& expected) {
  throw nn::SerializeError(nn::LoadStatus::Error(
      nn::LoadErrorKind::kShapeMismatch,
      "tensor '" + record.name + "': expected shape " + expected +
          ", file has " + nn::ShapeToString(record.shape),
      record.name));
}

std::string Num(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// Validating reads over the records of one artifact file, as
// nn::ReadStateDict framed and checksummed them (or over the records framed
// so far, for a PayloadConsumer). Every failed read throws a typed
// nn::SerializeError naming the record.
class RecordTable {
 public:
  explicit RecordTable(const std::vector<nn::TensorRecord>& records)
      : records_(records) {}

  const nn::TensorRecord* Find(const std::string& name) const {
    for (const auto& r : records_) {
      if (r.name == name) return &r;
    }
    return nullptr;
  }

  const nn::TensorRecord& Require(const std::string& name) const {
    const nn::TensorRecord* r = Find(name);
    if (r == nullptr) ThrowMissing(name);
    return *r;
  }

  // The value of a one-element record, unchecked.
  double Raw(const std::string& name) const {
    const nn::TensorRecord& r = Require(name);
    if (r.num_elements != 1) ThrowMissing(name);
    return nn::ReadRecordPayload(r)[0];
  }

  // A finite value in [lo, hi].
  double Real(const std::string& name, double lo, double hi) const {
    const double v = Raw(name);
    if (!std::isfinite(v)) {
      throw nn::SerializeError(nn::LoadStatus::Error(
          nn::LoadErrorKind::kNonFinite,
          "tensor '" + name + "' holds a NaN or an infinity", name));
    }
    if (v < lo || v > hi) {
      ThrowBadValue(name, "= " + Num(v) + " is outside [" + Num(lo) + ", " +
                              Num(hi) + "]");
    }
    return v;
  }

  // An integral finite value in [lo, hi].
  double Integer(const std::string& name, double lo, double hi) const {
    const double v = Real(name, lo, hi);
    if (v != std::floor(v)) {
      ThrowBadValue(name, "= " + Num(v) + " is not an integer");
    }
    return v;
  }

 private:
  const std::vector<nn::TensorRecord>& records_;
};

// Checks that artifact.version is kArtifactVersion and returns the
// required artifact.network_id.
uint32_t ReadHeader(const RecordTable& in) {
  const double version = in.Raw("artifact.version");
  if (version != kArtifactVersion) {
    throw nn::SerializeError(nn::LoadStatus::Error(
        nn::LoadErrorKind::kBadVersion,
        "unsupported artifact version " + Num(version), "artifact.version"));
  }
  return static_cast<uint32_t>(
      in.Integer("artifact.network_id", 0.0, 4294967295.0));
}

// The config snapshot, each field validated against its stated bound. The
// two tables that grow with the network and the slot count are also
// cross-checked against their records — the road table must be
// [network segments, ds] and the time-slot table [slots, dt] — so neither
// is sized past what the file holds.
core::DeepOdConfig ReadConfig(const RecordTable& in,
                              const road::RoadNetwork& network) {
  const auto field = [](const char* name) {
    return std::string("config.") + name;
  };
  const auto integer = [&](const char* name, double lo, double hi) {
    return in.Integer(field(name), lo, hi);
  };
  const auto width = [&](const char* name) {
    return static_cast<size_t>(integer(name, 1.0, kMaxLayerWidth));
  };
  const auto finite = [&](const char* name) {
    return in.Real(field(name), -DBL_MAX, DBL_MAX);
  };
  const auto enumerator = [&](const char* name, auto last) {
    return static_cast<decltype(last)>(
        integer(name, 0.0, static_cast<double>(static_cast<int>(last))));
  };
  core::DeepOdConfig c;
  c.ds = width("ds");
  c.dt = width("dt");
  c.dm1 = width("dm1");
  c.dm2 = width("dm2");
  c.dm3 = width("dm3");
  c.dm4 = width("dm4");
  c.dm5 = width("dm5");
  c.dm6 = width("dm6");
  c.dm7 = width("dm7");
  c.dm8 = width("dm8");
  c.dm9 = width("dm9");
  c.dh = width("dh");
  c.dtraf = width("dtraf");
  // TimeSlotter's precondition: a positive slot that divides the day.
  c.slot_seconds =
      in.Real(field("slot_seconds"), 1.0, temporal::kSecondsPerDay);
  const double per_day = temporal::kSecondsPerDay / c.slot_seconds;
  if (std::fabs(per_day - std::round(per_day)) > 1e-9) {
    ThrowBadValue(field("slot_seconds"),
                  "= " + Num(c.slot_seconds) + " does not divide a day");
  }
  c.loss_weight_w = finite("loss_weight_w");
  c.supervise_stcode = integer("supervise_stcode", 0.0, 1.0) != 0.0;
  c.learning_rate = finite("learning_rate");
  c.lr_decay_epochs =
      static_cast<int>(integer("lr_decay_epochs", INT_MIN, INT_MAX));
  c.lr_decay_factor = finite("lr_decay_factor");
  c.batch_size = static_cast<size_t>(integer("batch_size", 0.0, 0x1p53));
  c.epochs = static_cast<int>(integer("epochs", INT_MIN, INT_MAX));
  c.grad_clip = finite("grad_clip");
  c.max_speed_matrix_dim = static_cast<size_t>(
      integer("max_speed_matrix_dim", 1.0, kMaxSpeedMatrixDim));
  c.ablation = enumerator("ablation", core::Ablation::kNoOther);
  c.time_init = enumerator("time_init", core::TimeInit::kTimestamp);
  c.road_init = enumerator("road_init", core::RoadInit::kOneHot);
  c.embed_method = enumerator("embed_method", embed::EmbedMethod::kRandom);
  // Any uint64 seed: the largest double below 2^64 is its bound.
  c.seed = static_cast<uint64_t>(integer("seed", 0.0, 0x1.fffffffffffffp63));
  c.num_threads =
      static_cast<size_t>(integer("num_threads", 0.0, kMaxNumThreads));
  if (c.dm4 != c.dm8) {
    ThrowBadValue(field("dm8"), "= " + std::to_string(c.dm8) +
                                    " must equal config.dm4 = " +
                                    std::to_string(c.dm4) + " (§4.6)");
  }

  const temporal::TimeSlotter slotter(0.0, c.slot_seconds);
  const auto slots = static_cast<size_t>(
      c.time_init == core::TimeInit::kDailyGraph ? slotter.slots_per_day()
                                                 : slotter.slots_per_week());
  const std::pair<const char*, std::vector<size_t>> tables[] = {
      {"model.road_embedding.table", {network.num_segments(), c.ds}},
      {"model.time_slot_embedding.table", {slots, c.dt}},
  };
  for (const auto& [name, shape] : tables) {
    const nn::TensorRecord& r = in.Require(name);
    if (r.shape != shape) ThrowShape(r, nn::ShapeToString(shape));
  }
  return c;
}

// The speed.* entries of one artifact dict over caller-owned storage: the
// geometry scalars, the snapshot indices (doubles, as stored on disk) and
// the matrix arena [indices.size(), cells]. The dict borrows all of it, so
// it must outlive the (de)serialisation call. A null `matrices` leaves the
// arena out (the model-input load pools it while the file is read).
struct SpeedEntries {
  double rows = 0.0, cols = 0.0, snapshot_seconds = 0.0;
  std::vector<double> indices;
  double* matrices = nullptr;
  size_t cells = 0;

  void AppendTo(nn::StateDict& dict) {
    dict.AddScalarBuffer("speed.rows", &rows);
    dict.AddScalarBuffer("speed.cols", &cols);
    dict.AddScalarBuffer("speed.snapshot_seconds", &snapshot_seconds);
    dict.AddBuffer("speed.indices", {indices.size()}, indices.data());
    if (matrices != nullptr) {
      dict.AddBuffer("speed.matrices", {indices.size(), cells}, matrices);
    }
  }
};

// Validates the speed.* geometry against the framed `matrices` record:
// integral rows and cols whose product (overflow-checked) is the row length
// of a non-empty [n, cells] f64 speed.matrices record (a quantised one,
// which only a hand-made file holds, is kBadDtype), a [n] speed.indices
// record and a bounded snapshot period. Sizes `entries` from the record
// shapes, never from the scalars; leaves `entries.matrices` null.
void ReadSpeedGeometry(const RecordTable& in,
                       const nn::TensorRecord& matrices,
                       SpeedEntries& entries) {
  entries.rows = in.Integer("speed.rows", 1.0, 0x1p53);
  entries.cols = in.Integer("speed.cols", 1.0, 0x1p53);
  entries.snapshot_seconds = in.Real(
      "speed.snapshot_seconds", kMinSnapshotSeconds, kMaxSnapshotSeconds);
  const nn::TensorRecord& indices = in.Require("speed.indices");
  size_t cells = 0;
  if (__builtin_mul_overflow(static_cast<size_t>(entries.rows),
                             static_cast<size_t>(entries.cols), &cells) ||
      matrices.shape.size() != 2 || matrices.shape[0] == 0 ||
      matrices.shape[1] != cells) {
    ThrowShape(matrices, "[n >= 1, speed.rows x speed.cols = " +
                             Num(entries.rows) + " x " + Num(entries.cols) +
                             "]");
  }
  if (matrices.dtype != nn::kDtypeF64) {
    throw nn::SerializeError(nn::LoadStatus::Error(
        nn::LoadErrorKind::kBadDtype,
        "tensor 'speed.matrices' is stored as " +
            std::string(nn::RecordDtypeName(matrices.dtype)) +
            "; the speed field is read as f64 only",
        matrices.name));
  }
  const size_t n = matrices.shape[0];
  if (indices.shape != std::vector<size_t>{n}) {
    ThrowShape(indices, nn::ShapeToString({n}));
  }
  entries.cells = cells;
  entries.indices.resize(n);
}

// The model-input load's consumer of speed.matrices (nn::PayloadConsumer):
// takes the record one stored snapshot at a time as the file is read,
// checks every value is finite and pools the snapshot with
// core::PoolMatrixInto into an arena of n x min(rows, d) x min(cols, d),
// d = config.max_speed_matrix_dim. Its working memory is one stored
// snapshot and that arena. The config and speed geometry must be framed
// before speed.matrices (the writer's order); a file that frames it first,
// or twice, is a typed error, and its payload is read and hashed but not
// kept. A failure is held in status() for the loader to raise once the
// read has verified the checksum.
class SpeedPooler : public nn::PayloadConsumer {
 public:
  SpeedPooler() : PayloadConsumer("speed.matrices") {}

  bool Begin(const nn::TensorRecord& record,
             const std::vector<nn::TensorRecord>& earlier) override {
    if (header_.has_value()) {
      Fail(nn::LoadStatus::Error(
          nn::LoadErrorKind::kUnexpectedTensor,
          "artifact holds a second 'speed.matrices' record", name()));
      return false;
    }
    header_ = record;
    try {
      const RecordTable in(earlier);
      for (const char* needed :
           {"config.max_speed_matrix_dim", "speed.rows", "speed.cols",
            "speed.snapshot_seconds", "speed.indices"}) {
        if (in.Find(needed) == nullptr) {
          throw nn::SerializeError(nn::LoadStatus::Error(
              nn::LoadErrorKind::kUnexpectedTensor,
              "artifact frames 'speed.matrices' before '" +
                  std::string(needed) +
                  "' (the config and speed geometry come first)",
              name()));
        }
      }
      SpeedEntries geometry;
      ReadSpeedGeometry(in, record, geometry);
      max_dim_ = static_cast<size_t>(in.Integer("config.max_speed_matrix_dim",
                                                1.0, kMaxSpeedMatrixDim));
      rows_ = static_cast<size_t>(geometry.rows);
      cols_ = static_cast<size_t>(geometry.cols);
    } catch (const nn::SerializeError& e) {
      Fail(e.status());
      return false;
    }
    pooled_rows_ = std::min(rows_, max_dim_);
    pooled_cols_ = std::min(cols_, max_dim_);
    snapshot_.resize(rows_ * cols_);
    counts_.resize(pooled_rows_ * pooled_cols_);
    arena_.resize(record.shape[0] * counts_.size());
    return true;
  }

  bool Consume(const uint8_t* bytes, size_t n) override {
    auto* snapshot = reinterpret_cast<uint8_t*>(snapshot_.data());
    const size_t snapshot_bytes = sizeof(double) * snapshot_.size();
    while (n > 0) {
      const size_t take = std::min(n, snapshot_bytes - filled_);
      std::memcpy(snapshot + filled_, bytes, take);
      filled_ += take;
      bytes += take;
      n -= take;
      if (filled_ < snapshot_bytes) break;
      filled_ = 0;
      for (size_t i = 0; i < snapshot_.size(); ++i) {
        if (!std::isfinite(snapshot_[i])) {
          Fail(nn::LoadStatus::Error(
              nn::LoadErrorKind::kNonFinite,
              "tensor 'speed.matrices' holds a NaN or an infinity at "
              "element " + std::to_string(pooled_ * snapshot_.size() + i),
              name()));
          return false;
        }
      }
      size_t r = 0, c = 0;
      core::PoolMatrixInto(snapshot_.data(), rows_, cols_, max_dim_,
                           arena_.data() + pooled_ * counts_.size(),
                           counts_.data(), &r, &c);
      ++pooled_;
    }
    return true;
  }

  // The framed speed.matrices header (payload empty), or null if the file
  // holds none.
  const nn::TensorRecord* header() const {
    return header_.has_value() ? &*header_ : nullptr;
  }
  const nn::LoadStatus& status() const { return status_; }
  size_t pooled_rows() const { return pooled_rows_; }
  size_t pooled_cols() const { return pooled_cols_; }
  std::vector<double> TakeArena() { return std::move(arena_); }

 private:
  void Fail(nn::LoadStatus status) {
    if (status_.ok()) status_ = std::move(status);
  }

  std::optional<nn::TensorRecord> header_;
  nn::LoadStatus status_;
  size_t rows_ = 0, cols_ = 0, max_dim_ = 0;
  size_t pooled_rows_ = 0, pooled_cols_ = 0;
  std::vector<double> snapshot_;  // one stored snapshot, filling
  size_t filled_ = 0;             // bytes of snapshot_ filled
  size_t pooled_ = 0;             // snapshots pooled into arena_
  std::vector<double> counts_;    // PoolMatrixInto scratch
  std::vector<double> arena_;
};

// The decoded snapshot indices as int64: each integral, strictly ascending,
// and a timestamp within ±temporal::kMaxTimestamp.
std::vector<int64_t> SnapshotIndices(const SpeedEntries& entries) {
  const double bound = temporal::kMaxTimestamp / entries.snapshot_seconds;
  std::vector<int64_t> out;
  out.reserve(entries.indices.size());
  for (const double v : entries.indices) {
    if (v != std::floor(v) || std::fabs(v) > bound) {
      ThrowBadValue("speed.indices",
                    "holds " + Num(v) + ", not an integer in [-" + Num(bound) +
                        ", " + Num(bound) + "]");
    }
    if (!out.empty() && static_cast<int64_t>(v) <= out.back()) {
      ThrowBadValue("speed.indices", "are not strictly ascending at " + Num(v));
    }
    out.push_back(static_cast<int64_t>(v));
  }
  return out;
}

// The oracle geometry OdOracle's constructor guarantees: a slot in
// (0, 1 day], the slot count it derives from that slot, and an integral
// grid of at least one cell per axis. Outside these bounds Locate and
// CellOf clamp with hi < lo.
void CheckOracleGeometry(const RecordTable& in) {
  const double slot_seconds =
      in.Real("oracle.slot_seconds", 0.0, temporal::kSecondsPerDay);
  if (slot_seconds == 0.0) {
    ThrowBadValue("oracle.slot_seconds", "= 0 is not positive");
  }
  const double per_day =
      std::max(1.0, std::ceil(temporal::kSecondsPerDay / slot_seconds));
  const double slots = in.Real("oracle.slots_per_day", 1.0, per_day);
  if (slots != per_day) {
    ThrowBadValue("oracle.slots_per_day",
                  "= " + Num(slots) +
                      " must be max(1, ceil(86400 / oracle.slot_seconds)) = " +
                      Num(per_day));
  }
  in.Integer("oracle.grid_cells", 1.0, 0x1p53);
}

// Predict's binary searches need strictly ascending key tables.
void CheckOracleKeys(const baselines::OdOracle* oracle) {
  if (oracle == nullptr) return;
  const std::pair<const char*, const std::vector<double>*> tables[] = {
      {"oracle.keys", &oracle->keys()},
      {"oracle.pair_keys", &oracle->pair_keys()}};
  for (const auto& [name, keys] : tables) {
    for (size_t i = 1; i < keys->size(); ++i) {
      if (!((*keys)[i - 1] < (*keys)[i])) {
        ThrowBadValue(name, "are not strictly ascending at " + Num((*keys)[i]));
      }
    }
  }
}

// Stands up the optional fallback estimators the records carry, sized from
// the indexed record shapes so the strict pass deserialises straight into
// them.
void PrepareFallbacks(
    const RecordTable& in, std::unique_ptr<baselines::OdOracle>& oracle,
    std::unique_ptr<baselines::LinkMeanEstimator>& link_mean) {
  if (const nn::TensorRecord* keys = in.Find("oracle.keys")) {
    CheckOracleGeometry(in);
    oracle = std::make_unique<baselines::OdOracle>();
    oracle->PrepareLoad(keys->num_elements,
                        in.Require("oracle.pair_keys").num_elements);
  }
  if (const nn::TensorRecord* means = in.Find("linkmean.means")) {
    link_mean = std::make_unique<baselines::LinkMeanEstimator>();
    link_mean->PrepareLoad(means->num_elements);
  }
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

  SpeedEntries speed_entries;
  if (speed != nullptr) {
    speed_entries.rows = static_cast<double>(speed->rows());
    speed_entries.cols = static_cast<double>(speed->cols());
    speed_entries.snapshot_seconds = speed->snapshot_seconds();
    speed_entries.indices.assign(speed->indices().begin(),
                                 speed->indices().end());
    // The arena is registered in place: SaveStateDict only reads entries.
    speed_entries.matrices = const_cast<double*>(speed->matrices().data());
    speed_entries.cells = speed->rows() * speed->cols();
    speed_entries.AppendTo(dict);
  }

  // Only model.* weight entries are quantisation-eligible (trainable,
  // ndim >= 2); the config/speed buffers always stay f64.
  nn::ThrowIfError(nn::SaveStateDict(path, dict, options.quant));
}

ServingModel LoadModelArtifact(const std::string& path,
                               const road::RoadNetwork& network,
                               SpeedFieldSize speed_size) {
  // One sequential pass frames and checksums the file and lands every
  // payload in its record, except speed.matrices at the model-input size:
  // the pooler takes that one snapshot by snapshot as it is read. The
  // strict pass below copies the model and estimator tensors out; at the
  // stored size the speed arena is the speed.matrices record's storage,
  // moved into the field without a copy.
  const bool pooled = speed_size == SpeedFieldSize::kModelInput;
  SpeedPooler pooler;
  std::vector<nn::TensorRecord> records;
  nn::ThrowIfError(
      nn::ReadStateDict(path, &records, pooled ? &pooler : nullptr));
  const RecordTable in(records);

  // Every scalar that sizes an allocation or reaches a constructor is
  // validated here, before the model, the arena or an estimator exists.
  ServingModel out;
  out.network_id = ReadHeader(in);
  out.config = ReadConfig(in, network);
  const bool has_speed = in.Find("speed.rows") != nullptr;
  SpeedEntries speed_entries;
  // At the stored size: the speed.matrices record, whose f64 payload the
  // strict pass checks in place.
  const auto stored = std::find_if(
      records.begin(), records.end(),
      [](const nn::TensorRecord& r) { return r.name == "speed.matrices"; });
  if (has_speed) {
    const nn::TensorRecord* matrices =
        pooled ? pooler.header()
               : (stored == records.end() ? nullptr : &*stored);
    if (matrices == nullptr) ThrowMissing("speed.matrices");
    ReadSpeedGeometry(in, *matrices, speed_entries);
    if (!pooled) speed_entries.matrices = stored->payload.data();
  }
  out.model =
      std::make_unique<core::DeepOdModel>(out.config, network, nullptr);
  PrepareFallbacks(in, out.oracle, out.link_mean);

  // Strict validated pass over every record (checksum already verified by
  // the read above): every artifact entry must match an expected entry by
  // name and shape, then every value must be finite. This is what actually
  // writes the model parameters and the estimators — and catches unexpected
  // tensors and table-size mismatches (e.g. an artifact from a different
  // road network) with a typed error before any value lands. The pooler's
  // own failure (a non-finite speed value, speed.matrices out of order or
  // twice) comes after it.
  nn::StateDict dict;
  double version_staging = 0.0;
  dict.AddScalarBuffer("artifact.version", &version_staging);
  double network_id_staging = 0.0;
  dict.AddScalarBuffer("artifact.network_id", &network_id_staging);
  auto config_fields = ConfigFields(out.config);
  for (auto& [name, value] : config_fields) {
    dict.AddScalarBuffer(std::string("config.") + name, &value);
  }
  out.model->AppendState("model.", dict);
  if (has_speed) speed_entries.AppendTo(dict);
  if (out.oracle != nullptr) out.oracle->AppendState("oracle.", dict);
  if (out.link_mean != nullptr) out.link_mean->AppendState("linkmean.", dict);
  nn::ThrowIfError(nn::DeserializeStateDict(records, dict));
  nn::ThrowIfError(pooler.status());
  CheckOracleKeys(out.oracle.get());

  // The stored mode: the deserialise above already produced the
  // dequantised (snapped) fp64 values of any f16/int8 record.
  for (const auto& r : records) {
    if (r.dtype == nn::kDtypeF16) out.quant = nn::QuantMode::kFp16;
    if (r.dtype == nn::kDtypeI8) out.quant = nn::QuantMode::kInt8;
  }

  // The frozen speed field takes the pooled or stored arena, by move.
  if (has_speed) {
    out.speed = std::make_unique<sim::SnapshotSpeedField>(
        pooled ? pooler.pooled_rows() : static_cast<size_t>(speed_entries.rows),
        pooled ? pooler.pooled_cols() : static_cast<size_t>(speed_entries.cols),
        speed_entries.snapshot_seconds, SnapshotIndices(speed_entries),
        pooled ? pooler.TakeArena() : std::move(stored->payload));
    out.model->SetSpeedProvider(out.speed.get());
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
  std::vector<nn::TensorRecord> records;
  nn::ThrowIfError(nn::ReadStateDict(path, &records));
  const RecordTable in(records);

  OracleBundle out;
  out.network_id = ReadHeader(in);
  PrepareFallbacks(in, out.oracle, out.link_mean);

  nn::StateDict dict;
  double version_staging = 0.0;
  dict.AddScalarBuffer("artifact.version", &version_staging);
  double network_id_staging = 0.0;
  dict.AddScalarBuffer("artifact.network_id", &network_id_staging);
  if (out.oracle != nullptr) out.oracle->AppendState("oracle.", dict);
  if (out.link_mean != nullptr) out.link_mean->AppendState("linkmean.", dict);
  nn::ThrowIfError(nn::DeserializeStateDict(records, dict));
  CheckOracleKeys(out.oracle.get());
  return out;
}

}  // namespace deepod::io
