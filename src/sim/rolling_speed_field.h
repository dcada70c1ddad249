#ifndef DEEPOD_SIM_ROLLING_SPEED_FIELD_H_
#define DEEPOD_SIM_ROLLING_SPEED_FIELD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "road/road_network.h"
#include "sim/speed_matrix.h"
#include "temporal/time_slot.h"

namespace deepod::sim {

// One streamed speed observation: a probe vehicle covered `segment_id`
// around time `time` at effective speed `speed_mps`. The server's
// ObserveTrip ingest frame decodes to a span of these.
struct TripObservation {
  uint64_t segment_id = 0;
  temporal::Timestamp time = 0.0;  // seconds, same clock as departures
  double speed_mps = 0.0;
};

// Live speed field over streamed trajectory observations — the serving-side
// answer to "historical trajectories keep arriving". Observations are
// ingested into a pending buffer (cheap, lock-append, called from server
// connection threads); Publish() folds the buffer into windowed per-cell
// accumulators and flips a freshly built snapshot table into the published
// pointer — the same double-buffer/atomic-flip idiom as the EtaService
// ServingState epoch, so readers (model forwards mid-request) always see a
// complete, immutable table and never a half-folded one.
//
// Geometry and normalisation replicate SpeedMatrixBuilder exactly: the same
// bounding box, the same `cols = ceil(extent/grid)+1` grid, the same
// midpoint cell assignment and the same free-flow-max normalisation — so a
// model trained on builder matrices reads rolling matrices in the same
// scale, and a cell's value is the mean observed speed of the observations
// that landed in it.
//
// Fallback layering, per snapshot and per cell:
//  - a cell with observations in a snapshot window serves their mean;
//  - a cell without observations serves the `baseline` provider's value for
//    that cell (the artifact's frozen SnapshotSpeedField, typically) when a
//    baseline is attached and its geometry matches, else the snapshot's
//    observed-cell mean (SpeedMatrixBuilder's empty-cell fill, 0.5 when the
//    snapshot has no observations at all);
//  - a query with no published snapshot at or before it clamps to the
//    earliest published one; with nothing published at all the whole query
//    falls through to the baseline (or a flat 0.5 matrix without one).
//
// IMPORTANT for serving integration: Publish() changes the matrices served
// for snapshot times that may already be stored inside a model (the
// external-code table keys on snapshot index, not matrix content) and
// cached in an EtaService. Always follow a Publish with
// EtaService::BumpEpoch(), which drops both in one step. Thread-safe
// throughout.
struct RollingSpeedFieldOptions {
  // Snapshots older than `window_seconds` behind the newest observed
  // snapshot are dropped at Publish — the "rolling" in the name. 0 keeps
  // everything.
  double window_seconds = 3600.0;
  // Pending-buffer cap: past it, Ingest drops the oldest pending
  // observations first (bounded memory under a publisher outage).
  size_t max_pending = 1u << 20;
};

class RollingSpeedField : public SpeedProvider {
 public:
  using Options = RollingSpeedFieldOptions;

  // Geometry from `net` (must outlive the field). `baseline` is optional
  // and must outlive the field when given. Throws std::invalid_argument
  // when `grid_size_m` or `snapshot_seconds` is NaN, infinite or <= 0, or
  // when the grid over the network's extent has more than 2^53 cells.
  RollingSpeedField(const road::RoadNetwork& net, double grid_size_m,
                    double snapshot_seconds,
                    const SpeedProvider* baseline = nullptr,
                    const Options& options = Options());

  // Appends observations to the pending buffer. Observations for unknown
  // segments, non-positive or non-finite speeds, or a time whose snapshot
  // index is 2^53 or more in magnitude (NaN and infinity included) are
  // dropped (counted in the return value of Ingest as not-accepted). Does
  // NOT change what MatrixAt serves — only Publish does.
  size_t Ingest(std::span<const TripObservation> observations);
  void Ingest(const TripObservation& observation) {
    Ingest(std::span<const TripObservation>(&observation, 1));
  }

  // Folds every pending observation into the windowed accumulators,
  // rebuilds the snapshot table and atomically publishes it. Returns the
  // number of observations folded. Cheap when nothing is pending (no flip).
  size_t Publish();

  // SpeedProvider — served from the last published table (see fallback
  // layering above).
  size_t rows() const override { return rows_; }
  size_t cols() const override { return cols_; }
  double snapshot_seconds() const override { return snapshot_seconds_; }
  std::vector<double> MatrixAt(temporal::Timestamp t) const override;
  temporal::Timestamp SnapshotTime(temporal::Timestamp t) const override;

  // Introspection (tests, stats).
  size_t pending() const;
  uint64_t publishes() const;
  size_t published_snapshots() const;
  uint64_t accepted() const;
  uint64_t rejected() const;

 private:
  struct CellAccum {
    double sum = 0.0;  // normalised speeds
    uint64_t count = 0;
  };
  struct Table {
    // snapshot index (= snapshot time / snapshot_seconds) -> row-major
    // matrix, ascending.
    std::vector<int64_t> indices;
    std::vector<std::vector<double>> matrices;
  };

  std::shared_ptr<const Table> table() const;

  const road::RoadNetwork& net_;
  const SpeedProvider* baseline_;
  Options options_;
  double grid_size_m_, snapshot_seconds_;
  size_t rows_ = 0, cols_ = 0;
  int64_t window_snapshots_ = 0;  // options_.window_seconds; 0 = keep all
  double max_speed_ = 1.0;
  std::vector<int64_t> segment_cell_;  // segment id -> cell, -1 = unknown
  bool baseline_compatible_ = false;

  mutable std::mutex pending_mu_;
  std::vector<TripObservation> pending_;
  uint64_t accepted_ = 0;
  uint64_t rejected_ = 0;

  // Publisher state: accumulators + the published pointer. One publisher at
  // a time; readers only touch published_.
  mutable std::mutex publish_mu_;
  std::map<int64_t, std::vector<CellAccum>> accum_;  // snapshot idx -> cells
  std::shared_ptr<const Table> published_;
  uint64_t publishes_ = 0;
};

}  // namespace deepod::sim

#endif  // DEEPOD_SIM_ROLLING_SPEED_FIELD_H_
