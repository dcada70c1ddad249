#ifndef DEEPOD_BASELINES_OD_ORACLE_H_
#define DEEPOD_BASELINES_OD_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/module.h"
#include "road/road_network.h"
#include "traj/trajectory.h"

namespace deepod::baselines {

// DOT-style OD travel-time oracle (after the Origin-Destination Travel Time
// Oracle of arxiv/2307.03048): a histogram over grid-bucketed OD pairs ×
// time-of-day slots. Origin and destination are located on the network
// (PointAlong of the matched segment + ratio — the same fields a wire
// request carries), snapped to a uniform grid over the network's bounding
// box, and the departure time to a daily slot; each (o_cell, d_cell, slot)
// bucket stores the mean observed travel time.
//
// Prediction walks a progressive-widening fallback chain, so the oracle
// always answers:
//   (o_cell, d_cell, slot)  →  (o_cell, d_cell) any slot  →  global mean.
//
// This is the serving stack's availability tier: cheap (two binary
// searches), trained in one pass over the trip store (streamable — Add per
// trip, Finalize once), and serialized into the model artifact so a fleet
// shard can answer before — or instead of — the learned model
// (serve::FleetRouter). The empty-bucket test doubles as the router's
// out-of-distribution signal: an OD pair no training trip ever connected is
// exactly the query the learned model extrapolates worst on.
//
// Determinism: Add accumulates per-bucket sums in trip order and Finalize
// extracts buckets in sorted key order, so identical trip streams produce
// bit-identical tables regardless of hash-map iteration order.
class OdOracle {
 public:
  struct Options {
    // Grid resolution per axis over the network bounding box.
    size_t grid_cells = 16;
    // Daily time-slot width (seconds). 3600 = 24 slots/day.
    double slot_seconds = 3600.0;
  };

  // Empty oracle for deserialisation (PrepareLoad + AppendState +
  // nn::DeserializeStateDict).
  OdOracle() = default;

  // Geometry from the network bounding box; call Add per training trip,
  // then Finalize once.
  OdOracle(const road::RoadNetwork& network, const Options& options);

  // Accumulates one observed trip. Trips whose matched segments are invalid
  // for `network` fold into the global mean only.
  void Add(const road::RoadNetwork& network, const traj::OdInput& od,
           double travel_time);

  // Builds the sorted bucket tables from the accumulated sums. Idempotent
  // input-wise: call exactly once, after the last Add.
  void Finalize();

  // Mean travel time for the OD input via the fallback chain. Always
  // returns a finite value once at least one trip was added (0.0 for a
  // completely empty oracle).
  double Predict(const road::RoadNetwork& network,
                 const traj::OdInput& od) const;

  // True when the (o_cell, d_cell) pair was observed in training — the
  // router's OOD test (slot-exact coverage is deliberately not required;
  // a pair seen at any hour is in-distribution).
  bool InDistribution(const road::RoadNetwork& network,
                      const traj::OdInput& od) const;

  // --- Introspection ---------------------------------------------------------
  size_t grid_cells() const { return static_cast<size_t>(grid_cells_); }
  size_t slots_per_day() const { return static_cast<size_t>(slots_per_day_); }
  double slot_seconds() const { return slot_seconds_; }
  size_t num_buckets() const { return keys_.size(); }
  size_t num_pairs() const { return pair_keys_.size(); }
  // Bucket and pair keys; Predict's binary searches need each strictly
  // ascending (Finalize builds them so; the artifact loader checks it).
  const std::vector<double>& keys() const { return keys_; }
  const std::vector<double>& pair_keys() const { return pair_keys_; }
  double global_mean() const { return global_mean_; }
  uint64_t trips_seen() const { return static_cast<uint64_t>(global_count_); }

  // --- Serialization (model-artifact records under `prefix`) ----------------
  // Registers every field as buffers over this object's own storage; the
  // oracle must outlive the (de)serialisation call. For loading, size the
  // tables first with PrepareLoad (bucket/pair counts from the record
  // shapes), then AppendState + DeserializeStateDict.
  void AppendState(const std::string& prefix, nn::StateDict& dict);
  void PrepareLoad(size_t num_buckets, size_t num_pairs);

 private:
  // Grid cell of a point; false when the oracle has no geometry.
  bool CellOf(const road::Point& p, double* cell) const;
  // (o_cell, d_cell, slot) for an OD input located on `network`; false when
  // the matched segments are invalid.
  bool Locate(const road::RoadNetwork& network, const traj::OdInput& od,
              double* pair_key, double* bucket_key) const;

  // Geometry + aggregates, all doubles so AppendState can point straight at
  // them. Keys pack (o_cell * cells² + d_cell) * slots + slot — exact in a
  // double far beyond any realistic grid.
  double grid_cells_ = 0.0;
  double slots_per_day_ = 0.0;
  double slot_seconds_ = 3600.0;
  double lo_x_ = 0.0, lo_y_ = 0.0, hi_x_ = 0.0, hi_y_ = 0.0;
  double global_mean_ = 0.0;
  double global_count_ = 0.0;

  // Sorted-by-key bucket tables (built by Finalize / loaded from records).
  std::vector<double> keys_, means_, counts_;
  std::vector<double> pair_keys_, pair_means_, pair_counts_;

  // Accumulation state (train-time only; empty after Finalize).
  std::unordered_map<int64_t, std::pair<double, double>> acc_;       // sum,count
  std::unordered_map<int64_t, std::pair<double, double>> pair_acc_;  // sum,count
  double sum_ = 0.0;
};

}  // namespace deepod::baselines

#endif  // DEEPOD_BASELINES_OD_ORACLE_H_
