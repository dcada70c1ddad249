#ifndef DEEPOD_SIM_DATASET_H_
#define DEEPOD_SIM_DATASET_H_

#include <memory>
#include <string>
#include <vector>

#include "road/city_generator.h"
#include "road/road_network.h"
#include "sim/speed_matrix.h"
#include "sim/traffic_model.h"
#include "sim/trip_simulator.h"
#include "sim/weather.h"
#include "temporal/time_slot.h"
#include "traj/trajectory.h"

namespace deepod::sim {

// A fully materialised evaluation dataset: the city, its traffic and
// weather processes, and chronologically split trips. Mirrors §6.1's
// protocol: the split is 42:7:12 by *time* (first 42 days train, next 7
// validate, last 12 test), and test trips carry no trajectory — only the
// OD input — which is the paper's core constraint.
struct Dataset {
  std::string name;
  road::RoadNetwork network;
  std::unique_ptr<TrafficModel> traffic;
  std::unique_ptr<WeatherProcess> weather;
  std::unique_ptr<SpeedMatrixBuilder> speed_matrices;
  temporal::TimeSlotter slotter{0.0, 300.0};

  std::vector<traj::TripRecord> train;
  std::vector<traj::TripRecord> validation;
  std::vector<traj::TripRecord> test;

  size_t TotalTrips() const {
    return train.size() + validation.size() + test.size();
  }

  // Historical segment sequences of the training trips (the corpus the
  // edge-graph co-occurrence weights are counted over, §4.1).
  std::vector<std::vector<size_t>> TrainSegmentSequences() const;
};

struct DatasetConfig {
  road::CityConfig city;
  size_t trips_per_day = 80;
  // Total horizon in days; split 42:7:12 proportionally.
  size_t num_days = 61;
  double slot_seconds = 300.0;  // Δt = 5 minutes (paper default)
  double speed_grid_m = 200.0;  // §6.1: 200 m x 200 m grids
  uint64_t seed = 42;
};

// Simulates a full dataset. Deterministic in the config.
//
// A built Dataset must stay where it was constructed: traffic, weather and
// speed_matrices hold references to the `network` member, so moving the
// Dataset afterwards (move-assignment in particular) leaves them dangling.
// Direct initialisation from the value overload is safe (guaranteed
// elision); to fill a Dataset that already exists — a member, an outer
// variable assigned in a branch — use the pointer overload, which builds
// in place.
Dataset BuildDataset(const DatasetConfig& config);
void BuildDataset(const DatasetConfig& config, Dataset* out);

// Builds the environment members of `ds` (name, network, traffic, weather,
// speed matrices, slotter) from the config — the deterministic prefix
// shared by BuildDataset and the parallel generator (trip_gen.h).
void InitDatasetEnvironment(const DatasetConfig& config, Dataset* ds);

// Chronological 42:7:12 split (scaled to num_days) of `all` — which must be
// sorted by departure time — into the train/validation/test members. Test
// trajectories are blanked (§6.1: test trips expose only the OD input).
void SplitTripsChronological(std::vector<traj::TripRecord> all,
                             size_t num_days, Dataset* ds);

// Summary statistics used by the Table 2 bench.
struct DatasetStats {
  size_t num_orders = 0;
  double avg_travel_time = 0.0;
  double avg_num_segments = 0.0;
  double avg_length_m = 0.0;
};
DatasetStats ComputeStats(const Dataset& dataset);

}  // namespace deepod::sim

#endif  // DEEPOD_SIM_DATASET_H_
