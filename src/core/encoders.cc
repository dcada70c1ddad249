#include "core/encoders.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/ops.h"

namespace deepod::core {

TimeIntervalEncoder::TimeIntervalEncoder(const DeepOdConfig& config,
                                         const temporal::TimeSlotter& slotter,
                                         nn::Embedding& time_slot_embedding,
                                         util::Rng& rng)
    : slotter_(slotter),
      time_slot_embedding_(time_slot_embedding),
      daily_graph_(config.time_init == TimeInit::kDailyGraph),
      resnet_(rng),
      mlp_(config.dt + 2, config.dm1, config.dm2, rng) {
  if (time_slot_embedding.dim() != config.dt) {
    throw std::invalid_argument(
        "TimeIntervalEncoder: time slot embedding dim mismatch");
  }
}

nn::Tensor TimeIntervalEncoder::Forward(temporal::Timestamp t1,
                                        temporal::Timestamp t2) {
  if (t2 < t1) throw std::invalid_argument("TimeIntervalEncoder: t2 < t1");
  const int64_t slot1 = slotter_.Slot(t1);
  const int64_t slot2 = slotter_.Slot(t2);
  // One weekly (or daily, for the T-day ablation) node per covered slot.
  std::vector<size_t> nodes;
  nodes.reserve(static_cast<size_t>(slot2 - slot1 + 1));
  for (int64_t s = slot1; s <= slot2; ++s) {
    const int64_t node = daily_graph_ ? slotter_.DailyNode(s)
                                      : slotter_.WeeklyNode(s);
    nodes.push_back(static_cast<size_t>(node));
  }
  // D^t: Δd x d_t stack of slot embeddings, then the ResNet block (Eq. 5-8)
  // and average pooling over the slot axis (Eq. 10).
  const nn::Tensor dt_matrix = time_slot_embedding_.Forward(nodes);
  const nn::Tensor z4 = resnet_.Forward(dt_matrix);
  const nn::Tensor z5 = nn::MeanRows(z4);
  // Remainders normalised to [0, 1) keep the concatenated features O(1).
  const double tr1 = slotter_.Remainder(t1) / slotter_.slot_seconds();
  const double tr2 = slotter_.Remainder(t2) / slotter_.slot_seconds();
  const nn::Tensor z6 =
      nn::ConcatVec({z5, nn::Tensor::FromData({2}, {tr1, tr2})});
  return mlp_.Forward(z6);  // Eq. 11 -> tcode
}

std::vector<nn::Tensor> TimeIntervalEncoder::Parameters() {
  // The shared time-slot embedding is owned (and reported) by DeepOdModel.
  auto params = resnet_.Parameters();
  auto mlp_params = mlp_.Parameters();
  params.insert(params.end(), mlp_params.begin(), mlp_params.end());
  return params;
}

void TimeIntervalEncoder::AppendState(const std::string& prefix,
                                      nn::StateDict& out) {
  // The shared time-slot embedding is registered by DeepOdModel.
  resnet_.AppendState(nn::JoinName(prefix, "resnet."), out);
  mlp_.AppendState(nn::JoinName(prefix, "mlp."), out);
}

void TimeIntervalEncoder::SetTraining(bool training) {
  Module::SetTraining(training);
  resnet_.SetTraining(training);
}

size_t TimeIntervalEncoder::out_dim() const { return mlp_.out_dim(); }

TrajectoryEncoder::TrajectoryEncoder(const DeepOdConfig& config,
                                     const temporal::TimeSlotter& slotter,
                                     nn::Embedding& road_embedding,
                                     nn::Embedding& time_slot_embedding,
                                     util::Rng& rng)
    : config_(config),
      road_embedding_(road_embedding),
      interval_encoder_(config, slotter, time_slot_embedding, rng),
      lstm_(config.dm2 + config.ds, config.dh, rng),
      mlp_(config.dh + 2, config.dm3, config.dm4, rng) {}

nn::Tensor TrajectoryEncoder::Forward(const traj::MatchedTrajectory& trajectory) {
  if (trajectory.empty()) {
    throw std::invalid_argument("TrajectoryEncoder: empty trajectory");
  }
  const bool use_tp = config_.ablation != Ablation::kNoTp;
  const bool use_sp = config_.ablation != Ablation::kNoSp;
  std::vector<nn::Tensor> sequence;
  sequence.reserve(trajectory.path.size());
  for (const auto& elem : trajectory.path) {
    // D^st_i = concat(tcode_i, D^s_i). Ablations zero the removed half so
    // the LSTM input width is unchanged.
    nn::Tensor tcode =
        use_tp ? interval_encoder_.Forward(elem.enter, elem.exit)
               : nn::Tensor::Zeros({config_.dm2});
    nn::Tensor ds = use_sp ? road_embedding_.Forward(elem.segment_id)
                           : nn::Tensor::Zeros({config_.ds});
    sequence.push_back(nn::ConcatVec({tcode, ds}));
  }
  const nn::Tensor hn = lstm_.Forward(sequence);  // Eq. 12-16
  const nn::Tensor z7 = nn::ConcatVec(
      {hn, nn::Tensor::FromData(
               {2}, {trajectory.origin_ratio, trajectory.dest_ratio})});
  return mlp_.Forward(z7);  // Eq. 17 -> stcode
}

std::vector<nn::Tensor> TrajectoryEncoder::Parameters() {
  auto params = interval_encoder_.Parameters();
  auto lstm_params = lstm_.Parameters();
  auto mlp_params = mlp_.Parameters();
  params.insert(params.end(), lstm_params.begin(), lstm_params.end());
  params.insert(params.end(), mlp_params.begin(), mlp_params.end());
  return params;
}

void TrajectoryEncoder::AppendState(const std::string& prefix,
                                    nn::StateDict& out) {
  interval_encoder_.AppendState(nn::JoinName(prefix, "interval_encoder."), out);
  lstm_.AppendState(nn::JoinName(prefix, "lstm."), out);
  mlp_.AppendState(nn::JoinName(prefix, "mlp."), out);
}

void TrajectoryEncoder::SetTraining(bool training) {
  Module::SetTraining(training);
  interval_encoder_.SetTraining(training);
}

size_t TrajectoryEncoder::out_dim() const { return mlp_.out_dim(); }

ExternalFeaturesEncoder::ExternalFeaturesEncoder(const DeepOdConfig& config,
                                                 util::Rng& rng)
    : max_dim_(config.max_speed_matrix_dim),
      cnn_(config.dtraf, rng),
      // +2: the speed matrix's spatial mean and stddev are fed through
      // explicitly. Our BatchNorm runs at single-instance granularity
      // (see BatchNorm2d), which normalises away exactly the city-wide
      // congestion level this feature must convey; the two summary scalars
      // restore it.
      mlp_(kNumWeatherTypes + config.dtraf + 2, config.dm5, config.dm6, rng) {}

nn::Tensor ExternalFeaturesEncoder::Forward(
    int weather_type, const std::vector<double>& speed_matrix, size_t rows,
    size_t cols) {
  if (weather_type < 0 || weather_type >= static_cast<int>(kNumWeatherTypes)) {
    throw std::out_of_range("ExternalFeaturesEncoder: bad weather type");
  }
  if (speed_matrix.size() != rows * cols || rows == 0 || cols == 0) {
    throw std::invalid_argument("ExternalFeaturesEncoder: bad matrix shape");
  }
  size_t pr = 0, pc = 0;
  const std::vector<double> pooled =
      PoolMatrix(speed_matrix, rows, cols, max_dim_, &pr, &pc);
  double mean = 0.0;
  for (double v : pooled) mean += v;
  mean /= static_cast<double>(pooled.size());
  double var = 0.0;
  for (double v : pooled) var += (v - mean) * (v - mean);
  const double sd = std::sqrt(var / static_cast<double>(pooled.size()));
  const nn::Tensor matrix = nn::Tensor::FromData({1, pr, pc}, pooled);
  const nn::Tensor dtraf = cnn_.Forward(matrix);
  std::vector<double> onehot(kNumWeatherTypes, 0.0);
  onehot[static_cast<size_t>(weather_type)] = 1.0;
  const nn::Tensor z8 = nn::ConcatVec(
      {nn::Tensor::FromData({kNumWeatherTypes}, onehot), dtraf,
       nn::Tensor::FromData({2}, {mean, sd})});
  return mlp_.Forward(z8);  // Eq. 18 -> ocode
}

std::vector<nn::Tensor> ExternalFeaturesEncoder::Parameters() {
  auto params = cnn_.Parameters();
  auto mlp_params = mlp_.Parameters();
  params.insert(params.end(), mlp_params.begin(), mlp_params.end());
  return params;
}

void ExternalFeaturesEncoder::AppendState(const std::string& prefix,
                                          nn::StateDict& out) {
  cnn_.AppendState(nn::JoinName(prefix, "cnn."), out);
  mlp_.AppendState(nn::JoinName(prefix, "mlp."), out);
}

void ExternalFeaturesEncoder::SetTraining(bool training) {
  Module::SetTraining(training);
  cnn_.SetTraining(training);
}

size_t ExternalFeaturesEncoder::out_dim() const { return mlp_.out_dim(); }

std::vector<double> PoolMatrix(const std::vector<double>& matrix, size_t rows,
                               size_t cols, size_t max_dim, size_t* out_rows,
                               size_t* out_cols) {
  if (max_dim == 0) throw std::invalid_argument("PoolMatrix: max_dim 0");
  const size_t cells = std::min(rows, max_dim) * std::min(cols, max_dim);
  std::vector<double> pooled(cells), counts(cells);
  PoolMatrixInto(matrix.data(), rows, cols, max_dim, pooled.data(),
                 counts.data(), out_rows, out_cols);
  return pooled;
}

void PoolMatrixInto(const double* matrix, size_t rows, size_t cols,
                    size_t max_dim, double* out, double* counts,
                    size_t* out_rows, size_t* out_cols) {
  if (max_dim == 0) throw std::invalid_argument("PoolMatrix: max_dim 0");
  const size_t pr = std::min(rows, max_dim);
  const size_t pc = std::min(cols, max_dim);
  *out_rows = pr;
  *out_cols = pc;
  if (pr == rows && pc == cols) {
    std::copy(matrix, matrix + rows * cols, out);
    return;
  }
  std::fill(out, out + pr * pc, 0.0);
  std::fill(counts, counts + pr * pc, 0.0);
  // Cell (r, c) lands in block (r * pr / rows, c * pc / cols), summed in
  // row-major order. pc <= cols, so the column block steps by at most one
  // per cell: it is tracked without a division per cell.
  for (size_t r = 0; r < rows; ++r) {
    double* block_row = out + r * pr / rows * pc;
    double* count_row = counts + r * pr / rows * pc;
    size_t tc = 0, next = cols;  // next = (tc + 1) * cols
    for (size_t c = 0; c < cols; ++c) {
      if (c * pc >= next) {
        ++tc;
        next += cols;
      }
      block_row[tc] += matrix[r * cols + c];
      count_row[tc] += 1.0;
    }
  }
  for (size_t i = 0; i < pr * pc; ++i) {
    if (counts[i] > 0.0) out[i] /= counts[i];
  }
}

}  // namespace deepod::core
