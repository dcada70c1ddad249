#include "sim/rolling_speed_field.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace deepod::sim {
namespace {

// Bound on a grid's cell count and on a snapshot index (2^53: every such
// integer is exact in a double), checked in double before any cast to an
// integer type.
constexpr double kMaxExactIndex = 9007199254740992.0;

}  // namespace

RollingSpeedField::RollingSpeedField(const road::RoadNetwork& net,
                                     double grid_size_m,
                                     double snapshot_seconds,
                                     const SpeedProvider* baseline,
                                     const Options& options)
    : net_(net),
      baseline_(baseline),
      options_(options),
      grid_size_m_(grid_size_m),
      snapshot_seconds_(snapshot_seconds) {
  if (!(std::isfinite(grid_size_m) && grid_size_m > 0.0 &&
        std::isfinite(snapshot_seconds) && snapshot_seconds > 0.0)) {
    throw std::invalid_argument(
        "RollingSpeedField: grid size and snapshot length must be finite "
        "and > 0");
  }
  if (options_.max_pending == 0) options_.max_pending = 1;
  // Geometry identical to SpeedMatrixBuilder: same bounding box, same grid
  // arithmetic, same midpoint assignment, same normalisation base — a model
  // trained on builder matrices must read these in the same scale.
  road::Point lo, hi;
  net.BoundingBox(&lo, &hi);
  const double cols = std::ceil((hi.x - lo.x) / grid_size_m_) + 1.0;
  const double rows = std::ceil((hi.y - lo.y) / grid_size_m_) + 1.0;
  if (!(cols * rows <= kMaxExactIndex)) {
    throw std::invalid_argument(
        "RollingSpeedField: the grid has more than 2^53 cells over the "
        "network's extent");
  }
  cols_ = static_cast<size_t>(cols);
  rows_ = static_cast<size_t>(rows);
  // 0 keeps every snapshot; a span past any snapshot index keeps them too.
  if (options_.window_seconds > 0.0) {
    const double span = std::ceil(options_.window_seconds / snapshot_seconds_);
    window_snapshots_ = static_cast<int64_t>(std::min(span, kMaxExactIndex));
  }
  uint64_t max_id = 0;
  for (const auto& s : net.segments()) {
    max_id = std::max<uint64_t>(max_id, s.id);
  }
  segment_cell_.assign(static_cast<size_t>(max_id) + 1, -1);
  for (const auto& s : net.segments()) {
    max_speed_ = std::max(max_speed_, s.free_flow_speed);
    const road::Point mid = net.PointAlong(s.id, 0.5);
    const size_t cx = static_cast<size_t>(
        std::clamp((mid.x - lo.x) / grid_size_m_, 0.0,
                   static_cast<double>(cols_ - 1)));
    const size_t cy = static_cast<size_t>(
        std::clamp((mid.y - lo.y) / grid_size_m_, 0.0,
                   static_cast<double>(rows_ - 1)));
    segment_cell_[s.id] = static_cast<int64_t>(cy * cols_ + cx);
  }
  baseline_compatible_ = baseline_ != nullptr && baseline_->rows() == rows_ &&
                         baseline_->cols() == cols_ &&
                         baseline_->snapshot_seconds() == snapshot_seconds_;
}

size_t RollingSpeedField::Ingest(
    std::span<const TripObservation> observations) {
  size_t taken = 0;
  std::lock_guard<std::mutex> lock(pending_mu_);
  for (const TripObservation& obs : observations) {
    const bool known_segment =
        obs.segment_id < segment_cell_.size() &&
        segment_cell_[obs.segment_id] >= 0;
    // A time is kept only while its snapshot index fits (NaN fails too).
    const bool indexable =
        std::abs(obs.time / snapshot_seconds_) < kMaxExactIndex;
    if (!known_segment || !(obs.speed_mps > 0.0) ||
        !std::isfinite(obs.speed_mps) || !indexable) {
      ++rejected_;
      continue;
    }
    pending_.push_back(obs);
    ++accepted_;
    ++taken;
  }
  if (pending_.size() > options_.max_pending) {
    // Bounded memory under a stalled publisher: drop the oldest pending
    // observations (they would age out of the window soonest anyway).
    pending_.erase(pending_.begin(),
                   pending_.begin() +
                       static_cast<ptrdiff_t>(pending_.size() -
                                              options_.max_pending));
  }
  return taken;
}

size_t RollingSpeedField::Publish() {
  std::vector<TripObservation> batch;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    batch.swap(pending_);
  }
  std::lock_guard<std::mutex> lock(publish_mu_);
  if (batch.empty()) return 0;

  for (const TripObservation& obs : batch) {
    const int64_t idx =
        static_cast<int64_t>(std::floor(obs.time / snapshot_seconds_));
    auto [it, inserted] = accum_.try_emplace(idx);
    if (inserted) it->second.assign(rows_ * cols_, CellAccum{});
    CellAccum& cell =
        it->second[static_cast<size_t>(segment_cell_[obs.segment_id])];
    cell.sum += obs.speed_mps / max_speed_;
    ++cell.count;
  }

  // Roll the window: drop snapshots too far behind the newest observed one.
  if (window_snapshots_ > 0 && !accum_.empty()) {
    const int64_t newest = accum_.rbegin()->first;
    accum_.erase(accum_.begin(),
                 accum_.lower_bound(newest - window_snapshots_ + 1));
  }

  auto table = std::make_shared<Table>();
  table->indices.reserve(accum_.size());
  table->matrices.reserve(accum_.size());
  for (const auto& [idx, cells] : accum_) {
    std::vector<double> matrix(rows_ * cols_, 0.0);
    double total = 0.0;
    size_t observed = 0;
    for (size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].count == 0) continue;
      matrix[c] = cells[c].sum / static_cast<double>(cells[c].count);
      total += matrix[c];
      ++observed;
    }
    const double fill =
        observed > 0 ? total / static_cast<double>(observed) : 0.5;
    std::vector<double> base;
    if (baseline_compatible_) {
      base = baseline_->MatrixAt(static_cast<double>(idx) *
                                 snapshot_seconds_);
    }
    for (size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].count != 0) continue;
      matrix[c] = base.size() == matrix.size() ? base[c] : fill;
    }
    table->indices.push_back(idx);
    table->matrices.push_back(std::move(matrix));
  }
  published_ = std::move(table);  // the atomic flip: readers hold snapshots
  ++publishes_;
  return batch.size();
}

std::shared_ptr<const RollingSpeedField::Table> RollingSpeedField::table()
    const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return published_;
}

std::vector<double> RollingSpeedField::MatrixAt(temporal::Timestamp t) const {
  const std::shared_ptr<const Table> table = this->table();
  if (!table || table->indices.empty()) {
    if (baseline_ != nullptr) return baseline_->MatrixAt(t);
    return std::vector<double>(rows_ * cols_, 0.5);
  }
  const int64_t want =
      static_cast<int64_t>(std::floor(t / snapshot_seconds_));
  // Last published snapshot at or before `want`; clamp to the earliest.
  auto it = std::upper_bound(table->indices.begin(), table->indices.end(),
                             want);
  const size_t pos =
      it == table->indices.begin()
          ? 0
          : static_cast<size_t>(it - table->indices.begin()) - 1;
  return table->matrices[pos];
}

temporal::Timestamp RollingSpeedField::SnapshotTime(
    temporal::Timestamp t) const {
  const std::shared_ptr<const Table> table = this->table();
  if (!table || table->indices.empty()) {
    if (baseline_ != nullptr) return baseline_->SnapshotTime(t);
    return std::floor(t / snapshot_seconds_) * snapshot_seconds_;
  }
  const int64_t want =
      static_cast<int64_t>(std::floor(t / snapshot_seconds_));
  auto it = std::upper_bound(table->indices.begin(), table->indices.end(),
                             want);
  const size_t pos =
      it == table->indices.begin()
          ? 0
          : static_cast<size_t>(it - table->indices.begin()) - 1;
  return static_cast<double>(table->indices[pos]) * snapshot_seconds_;
}

size_t RollingSpeedField::pending() const {
  std::lock_guard<std::mutex> lock(pending_mu_);
  return pending_.size();
}

uint64_t RollingSpeedField::publishes() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return publishes_;
}

size_t RollingSpeedField::published_snapshots() const {
  const std::shared_ptr<const Table> table = this->table();
  return table ? table->indices.size() : 0;
}

uint64_t RollingSpeedField::accepted() const {
  std::lock_guard<std::mutex> lock(pending_mu_);
  return accepted_;
}

uint64_t RollingSpeedField::rejected() const {
  std::lock_guard<std::mutex> lock(pending_mu_);
  return rejected_;
}

}  // namespace deepod::sim
