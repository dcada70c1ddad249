#include "core/deepod_model.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "match/map_matcher.h"
#include "nn/ops.h"
#include "nn/serialize.h"
#include "road/routing.h"
#include "road/edge_graph.h"
#include "temporal/temporal_graph.h"

namespace deepod::core {
namespace {

// Initialises an embedding table from a graph embedding of `graph`, unless
// `use_random` (the one-hot-init ablations replace pre-training with the
// table's random initialisation).
void InitEmbedding(nn::Embedding& table, const util::WeightedDigraph& graph,
                   embed::EmbedMethod method, size_t dim, util::Rng& rng,
                   bool use_random) {
  if (use_random) return;  // keep the Embedding's own random init
  embed::EmbedOptions options;
  options.dim = dim;
  // A denser walk corpus than the library defaults: the pre-training cost
  // is one-off and a sharper initialisation measurably helps the small-data
  // regime the benches run in.
  options.walks_per_node = 8;
  options.walk_length = 30;
  options.window = 5;
  options.epochs = 3;
  const auto matrix = embed::EmbedGraph(graph, method, options, rng);
  table.LoadPretrained(matrix);
}

// The trajectory-derived constructor inputs, computed from the in-memory
// train split. The streamed path (deepod_train --feed sharded) computes the
// same two values in one pass over the trip shards instead.
std::unique_ptr<util::WeightedDigraph> TrainEdgeGraph(
    const DeepOdConfig& config, const sim::Dataset& dataset) {
  if (config.road_init == RoadInit::kOneHot) return nullptr;
  return std::make_unique<util::WeightedDigraph>(road::BuildEdgeGraph(
      dataset.network, dataset.TrainSegmentSequences()));
}

double TrainTimeScale(const sim::Dataset& dataset) {
  if (dataset.train.empty()) return 1.0;
  double sum = 0.0;
  for (const auto& t : dataset.train) sum += t.travel_time;
  return sum / static_cast<double>(dataset.train.size());
}

// External-code table key of `od`: the weather type in the low 4 bits, the
// speed-matrix snapshot index above them. nullopt when the pair does not
// fit — a weather type the CNN rejects anyway, or a snapshot index beyond
// ±2^58 from a provider with unclamped snapshot times — in which case the
// code is computed and not stored.
std::optional<uint64_t> OcodeKey(const sim::SpeedProvider& speed,
                                 const traj::OdInput& od) {
  static_assert(ExternalFeaturesEncoder::kNumWeatherTypes <= 16);
  const double snapshot =
      std::round(speed.SnapshotTime(od.departure_time) /
                 speed.snapshot_seconds());
  if (od.weather_type < 0 ||
      od.weather_type >=
          static_cast<int>(ExternalFeaturesEncoder::kNumWeatherTypes) ||
      !(std::abs(snapshot) < 0x1p58)) {
    return std::nullopt;
  }
  return static_cast<uint64_t>(static_cast<int64_t>(snapshot)) << 4 |
         static_cast<uint64_t>(od.weather_type);
}

}  // namespace

DeepOdModel::DeepOdModel(const DeepOdConfig& config, const sim::Dataset& dataset)
    : DeepOdModel(config, dataset, TrainEdgeGraph(config, dataset).get(),
                  TrainTimeScale(dataset)) {}

DeepOdModel::DeepOdModel(const DeepOdConfig& config, const sim::Dataset& dataset,
                         const util::WeightedDigraph* edge_graph,
                         double time_scale)
    : config_(config),
      network_(dataset.network),
      speed_(dataset.speed_matrices.get()),
      slotter_(0.0, config.slot_seconds) {
  if (config_.dm4 != config_.dm8) {
    throw std::invalid_argument(
        "DeepOdModel: dm4 (stcode) must equal dm8 (code), §4.6");
  }
  util::Rng rng(config_.seed);

  // --- Embedding matrices (Algorithm 1 lines 1-4) --------------------------
  road_embedding_ = std::make_unique<nn::Embedding>(
      dataset.network.num_segments(), config_.ds, rng);
  const bool road_random = config_.road_init == RoadInit::kOneHot;
  if (!road_random) {
    if (edge_graph == nullptr) {
      throw std::invalid_argument(
          "DeepOdModel: road_init requires a co-occurrence edge graph");
    }
    InitEmbedding(*road_embedding_, *edge_graph, config_.embed_method,
                  config_.ds, rng, road_random);
  }

  const size_t num_slots =
      config_.time_init == TimeInit::kDailyGraph
          ? static_cast<size_t>(slotter_.slots_per_day())
          : static_cast<size_t>(slotter_.slots_per_week());
  time_slot_embedding_ =
      std::make_unique<nn::Embedding>(num_slots, config_.dt, rng);
  if (config_.time_init == TimeInit::kTemporalGraph) {
    InitEmbedding(*time_slot_embedding_,
                  temporal::BuildWeeklyTemporalGraph(slotter_),
                  config_.embed_method, config_.dt, rng, false);
  } else if (config_.time_init == TimeInit::kDailyGraph) {
    InitEmbedding(*time_slot_embedding_,
                  temporal::BuildDailyTemporalGraph(slotter_),
                  config_.embed_method, config_.dt, rng, false);
  }
  // TimeInit::kOneHot and kTimestamp keep / ignore the random table.

  BuildModules(rng);

  // Mean training travel time (1.0 when no training trips exist).
  time_scale_ = time_scale;
}

DeepOdModel::DeepOdModel(const DeepOdConfig& config,
                         const road::RoadNetwork& network,
                         const sim::SpeedProvider* speed)
    : config_(config),
      network_(network),
      speed_(speed),
      slotter_(0.0, config.slot_seconds) {
  if (config_.dm4 != config_.dm8) {
    throw std::invalid_argument(
        "DeepOdModel: dm4 (stcode) must equal dm8 (code), §4.6");
  }
  // Predict-only: random tables, no graph-embedding pre-training — every
  // value is expected to be overwritten by Load before the first Predict.
  util::Rng rng(config_.seed);
  road_embedding_ = std::make_unique<nn::Embedding>(network.num_segments(),
                                                    config_.ds, rng);
  const size_t num_slots =
      config_.time_init == TimeInit::kDailyGraph
          ? static_cast<size_t>(slotter_.slots_per_day())
          : static_cast<size_t>(slotter_.slots_per_week());
  time_slot_embedding_ =
      std::make_unique<nn::Embedding>(num_slots, config_.dt, rng);
  BuildModules(rng);
  SetTraining(false);
}

void DeepOdModel::BuildModules(util::Rng& rng) {
  trajectory_encoder_ = std::make_unique<TrajectoryEncoder>(
      config_, slotter_, *road_embedding_, *time_slot_embedding_, rng);
  external_encoder_ = std::make_unique<ExternalFeaturesEncoder>(config_, rng);
  // Z9 = concat(Ds_1, Ds_n, Dt, ocode, r[1], r[-1], tr) — §4.6.
  mlp1_ = std::make_unique<nn::Mlp2>(z9_dim(), config_.dm7, config_.dm8, rng);
  mlp2_ = std::make_unique<nn::Mlp2>(config_.dm8, config_.dm9, 1, rng);
}

nn::Tensor DeepOdModel::EncodeOd(const traj::OdInput& od) {
  const bool use_sp = config_.ablation != Ablation::kNoSp;
  const bool use_tp = config_.ablation != Ablation::kNoTp;

  nn::Tensor ds1 = use_sp ? road_embedding_->Forward(od.origin_segment)
                          : nn::Tensor::Zeros({config_.ds});
  nn::Tensor dsn = use_sp ? road_embedding_->Forward(od.dest_segment)
                          : nn::Tensor::Zeros({config_.ds});

  nn::Tensor dt_vec;
  double tr_norm = 0.0;
  if (!use_tp) {
    dt_vec = nn::Tensor::Zeros({config_.dt});
  } else if (config_.time_init == TimeInit::kTimestamp) {
    // T-stamp ablation: the raw departure timestamp as a scalar feature
    // (in days; §6.5 notes large raw values dominate other features, which
    // is exactly the failure mode this variant demonstrates).
    dt_vec = nn::Tensor::Zeros({config_.dt});
    dt_vec.set(0, od.departure_time / temporal::kSecondsPerDay);
    tr_norm = 0.0;
  } else {
    const int64_t slot = slotter_.Slot(od.departure_time);
    const int64_t node = config_.time_init == TimeInit::kDailyGraph
                             ? slotter_.DailyNode(slot)
                             : slotter_.WeeklyNode(slot);
    dt_vec = time_slot_embedding_->Forward(static_cast<size_t>(node));
    tr_norm = slotter_.Remainder(od.departure_time) / slotter_.slot_seconds();
  }

  const nn::Tensor ocode = EncodeExternal(od);

  const nn::Tensor extras = nn::Tensor::FromData(
      {3}, {od.origin_ratio, od.dest_ratio, tr_norm});
  const nn::Tensor z9 = nn::ConcatVec({ds1, dsn, dt_vec, ocode, extras});
  return mlp1_->Forward(z9);  // Eq. 19 -> code
}

nn::Tensor DeepOdModel::EncodeTrajectory(
    const traj::MatchedTrajectory& trajectory) {
  return trajectory_encoder_->Forward(trajectory);
}

nn::Tensor DeepOdModel::EstimateFromCode(const nn::Tensor& code) {
  return mlp2_->Forward(code);  // Eq. 20 (normalised units)
}

nn::Tensor DeepOdModel::EncodeExternal(const traj::OdInput& od) {
  // Autograd needs the forward's graph; the table stores values only.
  if (nn::GradEnabled()) return ExternalForward(od);
  std::vector<double> code(config_.dm6);
  WriteExternalCode(od, code.data());
  return nn::Tensor::FromData({config_.dm6}, std::move(code));
}

nn::Tensor DeepOdModel::ExternalForward(const traj::OdInput& od) {
  if (config_.ablation == Ablation::kNoOther || speed_ == nullptr) {
    return nn::Tensor::Zeros({config_.dm6});
  }
  return external_encoder_->Forward(od.weather_type,
                                    speed_->MatrixAt(od.departure_time),
                                    speed_->rows(), speed_->cols());
}

void DeepOdModel::WriteExternalCode(const traj::OdInput& od, double* out) {
  const bool serving = config_.ablation != Ablation::kNoOther &&
                       speed_ != nullptr && !nn::GradEnabled() && !training_;
  const std::optional<uint64_t> key =
      serving ? OcodeKey(*speed_, od) : std::nullopt;
  uint64_t generation = 0;
  if (key) {
    std::lock_guard<std::mutex> lock(ocode_mu_);
    generation = ocode_generation_;
    const auto it = ocode_table_.find(*key);
    if (it != ocode_table_.end()) {
      std::copy(it->second.begin(), it->second.end(), out);
      return;
    }
  }
  const nn::Tensor code = ExternalForward(od);
  std::copy(code.data().begin(), code.data().end(), out);
  if (!key) return;
  std::lock_guard<std::mutex> lock(ocode_mu_);
  // A ClearOcodeMemo since the lookup (say a speed-field publish and its
  // epoch bump) means the matrix this code came from may be stale.
  if (generation == ocode_generation_ &&
      ocode_table_.size() < kOcodeTableMaxEntries) {
    ocode_table_.try_emplace(*key, code.data());
  }
}

double DeepOdModel::Predict(const traj::OdInput& od) {
  const nn::InferenceGuard guard;
  const nn::Tensor code = EncodeOd(od);
  const nn::Tensor y = EstimateFromCode(code);
  return y.item() * time_scale_;
}

void DeepOdModel::FillOdFeatureRow(const traj::OdInput& od, double* row) {
  const bool use_sp = config_.ablation != Ablation::kNoSp;
  const bool use_tp = config_.ablation != Ablation::kNoTp;
  double* p = row;

  const auto& road_table = road_embedding_->table().data();
  if (use_sp) {
    std::copy_n(&road_table[od.origin_segment * config_.ds], config_.ds, p);
    std::copy_n(&road_table[od.dest_segment * config_.ds], config_.ds,
                p + config_.ds);
  } else {
    std::fill_n(p, 2 * config_.ds, 0.0);
  }
  p += 2 * config_.ds;

  double tr_norm = 0.0;
  if (!use_tp) {
    std::fill_n(p, config_.dt, 0.0);
  } else if (config_.time_init == TimeInit::kTimestamp) {
    std::fill_n(p, config_.dt, 0.0);
    p[0] = od.departure_time / temporal::kSecondsPerDay;
  } else {
    const int64_t slot = slotter_.Slot(od.departure_time);
    const int64_t node = config_.time_init == TimeInit::kDailyGraph
                             ? slotter_.DailyNode(slot)
                             : slotter_.WeeklyNode(slot);
    const auto& time_table = time_slot_embedding_->table().data();
    std::copy_n(&time_table[static_cast<size_t>(node) * config_.dt],
                config_.dt, p);
    tr_norm = slotter_.Remainder(od.departure_time) / slotter_.slot_seconds();
  }
  p += config_.dt;

  WriteExternalCode(od, p);
  p += config_.dm6;

  p[0] = od.origin_ratio;
  p[1] = od.dest_ratio;
  p[2] = tr_norm;
}

std::vector<double> DeepOdModel::PredictBatch(
    std::span<const traj::OdInput> ods, util::ThreadPool* pool) {
  std::vector<double> out(ods.size());
  if (ods.empty()) return out;
  const size_t n = ods.size();
  const size_t z9 = z9_dim();
  const auto run_chunk = [&](size_t begin, size_t end) {
    const nn::InferenceGuard guard;
    const size_t m = end - begin;
    auto rows = nn::AcquireBuffer(m * z9);
    for (size_t i = begin; i < end; ++i) {
      FillOdFeatureRow(ods[i], &rows[(i - begin) * z9]);
    }
    const nn::Tensor x = nn::Tensor::FromData({m, z9}, std::move(rows));
    const nn::Tensor codes = mlp1_->ForwardBatch(x);   // Eq. 19, batched
    const nn::Tensor ys = mlp2_->ForwardBatch(codes);  // Eq. 20, batched
    const auto& yd = ys.data();
    for (size_t i = begin; i < end; ++i) {
      out[i] = yd[i - begin] * time_scale_;
    }
  };
  const size_t tasks =
      pool != nullptr ? std::min(pool->num_threads(), n) : size_t{1};
  if (tasks <= 1) {
    run_chunk(0, n);
    return out;
  }
  // Workers inherit the caller's kernel mode; rows are independent in every
  // stage, so the chunk boundaries cannot change any result.
  const nn::KernelMode mode = nn::GetKernelMode();
  pool->ParallelFor(tasks, [&](size_t w) {
    const nn::KernelModeScope mode_scope(mode);
    const auto [begin, end] = util::ThreadPool::ChunkRange(n, tasks, w);
    run_chunk(begin, end);
  });
  return out;
}

void DeepOdModel::ClearOcodeMemo() {
  std::lock_guard<std::mutex> lock(ocode_mu_);
  ++ocode_generation_;
  ocode_table_.clear();
}

size_t DeepOdModel::ocode_table_size() const {
  std::lock_guard<std::mutex> lock(ocode_mu_);
  return ocode_table_.size();
}

void DeepOdModel::SetSpeedProvider(const sim::SpeedProvider* speed) {
  speed_ = speed;
  ClearOcodeMemo();
}

traj::MatchedTrajectory DeepOdModel::BuildRoutePseudoTrajectory(
    const traj::OdInput& od, const std::vector<size_t>& route_segments) const {
  if (route_segments.empty()) {
    throw std::invalid_argument("PredictForRoute: empty route");
  }
  if (route_segments.front() != od.origin_segment ||
      route_segments.back() != od.dest_segment) {
    throw std::invalid_argument(
        "PredictForRoute: route must start/end at the OD's matched segments");
  }
  if (!road::IsConnectedPath(network_, route_segments)) {
    throw std::invalid_argument("PredictForRoute: route is not connected");
  }
  // Pseudo spatio-temporal path: distribute a free-flow-expected duration
  // over the route with the §2 linear interpolation.
  double expected_seconds = 0.0;
  for (size_t i = 0; i < route_segments.size(); ++i) {
    const auto& s = network_.segment(route_segments[i]);
    double fraction = 1.0;
    if (route_segments.size() == 1) {
      fraction = std::max(0.01, od.dest_ratio - od.origin_ratio);
    } else if (i == 0) {
      fraction = 1.0 - od.origin_ratio;
    } else if (i + 1 == route_segments.size()) {
      fraction = od.dest_ratio;
    }
    expected_seconds += fraction * s.length / s.free_flow_speed;
  }
  traj::MatchedTrajectory pseudo;
  pseudo.origin_ratio = od.origin_ratio;
  pseudo.dest_ratio = od.dest_ratio;
  pseudo.path = match::InterpolateIntervals(
      network_, route_segments, od.origin_ratio, od.dest_ratio,
      od.departure_time, od.departure_time + expected_seconds);
  return pseudo;
}

double DeepOdModel::PredictForRoute(const traj::OdInput& od,
                                    const std::vector<size_t>& route_segments) {
  const traj::MatchedTrajectory pseudo =
      BuildRoutePseudoTrajectory(od, route_segments);
  const nn::InferenceGuard guard;
  const nn::Tensor stcode = EncodeTrajectory(pseudo);
  return EstimateFromCode(stcode).item() * time_scale_;
}

nn::Tensor DeepOdModel::SampleLoss(const traj::TripRecord& record) {
  const nn::Tensor code = EncodeOd(record.od);
  const nn::Tensor estimate = EstimateFromCode(code);
  const nn::Tensor target =
      nn::Tensor::Scalar(record.travel_time / time_scale_);
  // mainloss is the MAE in *seconds* (Algorithm 1 line 11): the head works
  // in normalised units for conditioning, and the loss rescales back so the
  // paper's balance between mainloss (hundreds) and auxiliaryloss (O(1)
  // embedding distance) is preserved — that balance is what makes the w
  // sweep of Fig. 9 behave gently.
  const nn::Tensor main_loss =
      nn::Scale(nn::MaeLoss(estimate, target), time_scale_);
  const bool use_aux = config_.ablation != Ablation::kNoSt &&
                       !record.trajectory.empty() && config_.loss_weight_w > 0.0;
  if (!use_aux) return main_loss;
  const nn::Tensor stcode = EncodeTrajectory(record.trajectory);
  const nn::Tensor aux_loss = nn::EuclideanDistance(code, stcode);
  const double w = config_.loss_weight_w;
  nn::Tensor grounded_main = main_loss;
  if (config_.supervise_stcode) {
    // Keep stcode anchored to the label (see DeepOdConfig::supervise_stcode).
    const nn::Tensor st_estimate = EstimateFromCode(stcode);
    grounded_main = nn::Scale(
        nn::Add(main_loss, nn::MaeLoss(st_estimate, target)), 0.5);
  }
  return nn::Add(nn::Scale(aux_loss, w), nn::Scale(grounded_main, 1.0 - w));
}

void DeepOdModel::Save(const std::string& path) {
  // Tagged state dict: every parameter, every BatchNorm buffer and the time
  // scale under hierarchical names — one self-describing file captures
  // everything Predict needs.
  nn::StateDict state = State();
  nn::ThrowIfError(nn::SaveStateDict(path, state));
}

void DeepOdModel::Load(const std::string& path) {
  std::vector<uint8_t> buffer;
  nn::ThrowIfError(nn::ReadFileBytes(path, &buffer));
  if (nn::IsLegacyParameterBuffer(buffer)) {
    // Legacy positional blob: parameters + a trailing time-scale scalar.
    // BatchNorm buffers keep their current values — the old format never
    // stored them (the gap the state-dict format closes).
    auto params = Parameters();
    nn::Tensor scale = nn::Tensor::Scalar(0.0);
    params.push_back(scale);
    nn::DeserializeParameters(buffer, params);
    time_scale_ = scale.item();
  } else {
    nn::StateDict state = State();
    nn::ThrowIfError(nn::DeserializeStateDict(buffer, state));
  }
  ClearOcodeMemo();
}

std::vector<nn::Tensor> DeepOdModel::Parameters() {
  std::vector<nn::Tensor> params;
  auto append = [&params](std::vector<nn::Tensor> p) {
    params.insert(params.end(), p.begin(), p.end());
  };
  append(road_embedding_->Parameters());
  append(time_slot_embedding_->Parameters());
  append(trajectory_encoder_->Parameters());
  append(external_encoder_->Parameters());
  append(mlp1_->Parameters());
  append(mlp2_->Parameters());
  return params;
}

void DeepOdModel::AppendState(const std::string& prefix, nn::StateDict& out) {
  road_embedding_->AppendState(nn::JoinName(prefix, "road_embedding."), out);
  time_slot_embedding_->AppendState(
      nn::JoinName(prefix, "time_slot_embedding."), out);
  trajectory_encoder_->AppendState(
      nn::JoinName(prefix, "trajectory_encoder."), out);
  external_encoder_->AppendState(
      nn::JoinName(prefix, "external_encoder."), out);
  mlp1_->AppendState(nn::JoinName(prefix, "mlp1."), out);
  mlp2_->AppendState(nn::JoinName(prefix, "mlp2."), out);
  out.AddScalarBuffer(nn::JoinName(prefix, "time_scale"), &time_scale_);
}

void DeepOdModel::SetTraining(bool training) {
  Module::SetTraining(training);
  trajectory_encoder_->SetTraining(training);
  external_encoder_->SetTraining(training);
  // Mode flips bracket parameter updates (the trainer toggles around every
  // validation pass), so stored ocodes may be stale — drop them.
  ClearOcodeMemo();
}

}  // namespace deepod::core
