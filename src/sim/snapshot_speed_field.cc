#include "sim/snapshot_speed_field.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace deepod::sim {

SnapshotSpeedField::SnapshotSpeedField(size_t rows, size_t cols,
                                       double snapshot_seconds,
                                       std::vector<int64_t> indices,
                                       std::vector<double> matrices)
    : rows_(rows),
      cols_(cols),
      snapshot_seconds_(snapshot_seconds),
      indices_(std::move(indices)),
      matrices_(std::move(matrices)) {
  if (rows_ == 0 || cols_ == 0 || !(snapshot_seconds_ > 0.0)) {
    throw std::invalid_argument("SnapshotSpeedField: bad dimensions");
  }
  if (indices_.empty()) {
    throw std::invalid_argument("SnapshotSpeedField: no snapshots");
  }
  // Division-only, so no rows * cols product can overflow.
  const size_t cells = matrices_.size() / indices_.size();
  if (cells * indices_.size() != matrices_.size() || cells % rows_ != 0 ||
      cells / rows_ != cols_) {
    throw std::invalid_argument(
        "SnapshotSpeedField: snapshot matrix size mismatch");
  }
  for (size_t i = 1; i < indices_.size(); ++i) {
    if (indices_[i] <= indices_[i - 1]) {
      throw std::invalid_argument(
          "SnapshotSpeedField: snapshots must be strictly ascending");
    }
  }
}

SnapshotSpeedField SnapshotSpeedField::Capture(const SpeedProvider& source,
                                               temporal::Timestamp begin,
                                               temporal::Timestamp end) {
  if (end < begin) {
    throw std::invalid_argument("SnapshotSpeedField::Capture: end < begin");
  }
  const double ss = source.snapshot_seconds();
  const auto first =
      static_cast<int64_t>(std::llround(source.SnapshotTime(begin) / ss));
  const auto last =
      static_cast<int64_t>(std::llround(source.SnapshotTime(end) / ss));
  const auto count = static_cast<size_t>(last - first + 1);
  std::vector<int64_t> indices;
  std::vector<double> matrices;
  indices.reserve(count);
  matrices.reserve(count * source.rows() * source.cols());
  for (int64_t idx = first; idx <= last; ++idx) {
    const std::vector<double> matrix =
        source.MatrixAt(static_cast<double>(idx) * ss);
    indices.push_back(idx);
    matrices.insert(matrices.end(), matrix.begin(), matrix.end());
  }
  return SnapshotSpeedField(source.rows(), source.cols(), ss,
                            std::move(indices), std::move(matrices));
}

size_t SnapshotSpeedField::SlotFor(temporal::Timestamp t) const {
  // Clamped to the window in double space, so any t — huge, infinite or
  // NaN — is defined; inside the window the quotient fits an int64.
  const double idx = std::floor(t / snapshot_seconds_);
  if (!(idx > static_cast<double>(indices_.front()))) return 0;
  if (idx >= static_cast<double>(indices_.back())) return indices_.size() - 1;
  // Last stored snapshot with index <= idx.
  const auto it = std::upper_bound(indices_.begin(), indices_.end(),
                                   static_cast<int64_t>(idx));
  return static_cast<size_t>(it - indices_.begin()) - 1;
}

std::vector<double> SnapshotSpeedField::MatrixAt(temporal::Timestamp t) const {
  const std::span<const double> m = matrix(SlotFor(t));
  return {m.begin(), m.end()};
}

temporal::Timestamp SnapshotSpeedField::SnapshotTime(
    temporal::Timestamp t) const {
  return static_cast<double>(indices_[SlotFor(t)]) * snapshot_seconds_;
}

temporal::Timestamp SnapshotSpeedField::first_snapshot_time() const {
  return static_cast<double>(indices_.front()) * snapshot_seconds_;
}

temporal::Timestamp SnapshotSpeedField::last_snapshot_time() const {
  return static_cast<double>(indices_.back()) * snapshot_seconds_;
}

}  // namespace deepod::sim
