#ifndef DEEPOD_SIM_SNAPSHOT_SPEED_FIELD_H_
#define DEEPOD_SIM_SNAPSHOT_SPEED_FIELD_H_

#include <cstdint>
#include <span>
#include <vector>

#include "sim/speed_matrix.h"
#include "temporal/time_slot.h"

namespace deepod::sim {

// A frozen speed field: a sorted table of pre-computed snapshot matrices.
// This is the serving-side SpeedProvider — a model artifact carries one so
// an EtaService can reproduce the external-feature encoding bit-for-bit
// without the traffic simulation (or, in production, without the feature
// pipeline) in memory. Queries outside the captured window clamp to the
// nearest stored snapshot, which keeps serving total (a stale matrix beats
// a crash) — capture a window covering the serving horizon to avoid it.
//
// Storage is two flat arrays: the snapshot indices (snapshot timestamp /
// snapshot_seconds) and one contiguous arena holding every matrix back to
// back, row-major, in index order — the layout of the artifact's
// speed.matrices record, so the artifact loader decodes straight into it.
class SnapshotSpeedField : public SpeedProvider {
 public:
  // `indices` must be strictly ascending and non-empty, and `matrices` must
  // hold indices.size() * rows * cols values (matrix i starts at
  // i * rows * cols); throws std::invalid_argument otherwise.
  SnapshotSpeedField(size_t rows, size_t cols, double snapshot_seconds,
                     std::vector<int64_t> indices,
                     std::vector<double> matrices);

  // Captures every snapshot of `source` with a snapshot time in
  // [begin, end] (inclusive of the quantised begin; at least one snapshot).
  static SnapshotSpeedField Capture(const SpeedProvider& source,
                                    temporal::Timestamp begin,
                                    temporal::Timestamp end);

  size_t rows() const override { return rows_; }
  size_t cols() const override { return cols_; }
  double snapshot_seconds() const override { return snapshot_seconds_; }

  // The stored matrix whose snapshot index is closest at or before t;
  // clamps to the first/last stored snapshot outside the captured window
  // (a NaN t clamps to the first).
  std::vector<double> MatrixAt(temporal::Timestamp t) const override;
  temporal::Timestamp SnapshotTime(temporal::Timestamp t) const override;

  // Number of stored snapshots, their indices, the whole matrix arena and
  // the rows x cols matrix of snapshot i.
  size_t size() const { return indices_.size(); }
  const std::vector<int64_t>& indices() const { return indices_; }
  const std::vector<double>& matrices() const { return matrices_; }
  std::span<const double> matrix(size_t i) const {
    return {matrices_.data() + i * rows_ * cols_, rows_ * cols_};
  }

  // Captured window as snapshot timestamps.
  temporal::Timestamp first_snapshot_time() const;
  temporal::Timestamp last_snapshot_time() const;

 private:
  // Index of the stored snapshot serving time t (clamped binary search).
  size_t SlotFor(temporal::Timestamp t) const;

  size_t rows_, cols_;
  double snapshot_seconds_;
  std::vector<int64_t> indices_;
  std::vector<double> matrices_;  // size() matrices of rows_ * cols_
};

}  // namespace deepod::sim

#endif  // DEEPOD_SIM_SNAPSHOT_SPEED_FIELD_H_
