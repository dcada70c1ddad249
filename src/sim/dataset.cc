#include "sim/dataset.h"

#include <algorithm>
#include <stdexcept>

namespace deepod::sim {

std::vector<std::vector<size_t>> Dataset::TrainSegmentSequences() const {
  std::vector<std::vector<size_t>> sequences;
  sequences.reserve(train.size());
  for (const auto& trip : train) {
    sequences.push_back(trip.trajectory.SegmentIds());
  }
  return sequences;
}

void InitDatasetEnvironment(const DatasetConfig& config, Dataset* ds) {
  ds->name = config.city.name;
  ds->network = road::GenerateCity(config.city);
  ds->traffic = std::make_unique<TrafficModel>(
      ds->network, TrafficModel::Options{.seed = config.seed ^ 0x51u});
  const double horizon =
      static_cast<double>(config.num_days + 1) * temporal::kSecondsPerDay;
  ds->weather = std::make_unique<WeatherProcess>(horizon, config.seed ^ 0x77u);
  ds->speed_matrices = std::make_unique<SpeedMatrixBuilder>(
      ds->network, *ds->traffic, *ds->weather, config.speed_grid_m,
      config.slot_seconds);
  ds->slotter = temporal::TimeSlotter(0.0, config.slot_seconds);
}

Dataset BuildDataset(const DatasetConfig& config) {
  Dataset ds;
  BuildDataset(config, &ds);
  return ds;
}

void BuildDataset(const DatasetConfig& config, Dataset* out) {
  if (config.num_days < 3) {
    throw std::invalid_argument("BuildDataset: need at least 3 days");
  }
  Dataset& ds = *out;
  InitDatasetEnvironment(config, &ds);

  TripSimulator::Options sim_options;
  // Beijing's sparse 1-minute GPS vs 3 s for Chengdu/Xi'an (Table 2).
  sim_options.gps_period = config.city.name == "beijing-sim" ? 60.0 : 3.0;
  TripSimulator simulator(ds.network, *ds.traffic, *ds.weather, sim_options);

  util::Rng rng(config.seed);
  std::vector<traj::TripRecord> all;
  all.reserve(config.trips_per_day * config.num_days);
  for (size_t day = 0; day < config.num_days; ++day) {
    const temporal::Timestamp day_start =
        static_cast<double>(day) * temporal::kSecondsPerDay;
    for (size_t k = 0; k < config.trips_per_day; ++k) {
      const temporal::Timestamp depart =
          simulator.SampleDepartureTime(day_start, rng);
      all.push_back(simulator.SimulateTrip(depart, rng));
    }
  }
  std::sort(all.begin(), all.end(),
            [](const traj::TripRecord& a, const traj::TripRecord& b) {
              return a.od.departure_time < b.od.departure_time;
            });
  SplitTripsChronological(std::move(all), config.num_days, &ds);
}

void SplitTripsChronological(std::vector<traj::TripRecord> all,
                             size_t num_days, Dataset* ds) {
  // Chronological 42:7:12 split scaled to num_days.
  const double total_ratio = 42.0 + 7.0 + 12.0;
  const double train_days = num_days * 42.0 / total_ratio;
  const double val_days = num_days * 7.0 / total_ratio;
  const temporal::Timestamp train_end = train_days * temporal::kSecondsPerDay;
  const temporal::Timestamp val_end =
      (train_days + val_days) * temporal::kSecondsPerDay;
  for (auto& trip : all) {
    if (trip.od.departure_time < train_end) {
      ds->train.push_back(std::move(trip));
    } else if (trip.od.departure_time < val_end) {
      ds->validation.push_back(std::move(trip));
    } else {
      // Test trips expose only the OD input (§6.1: "without historical
      // trajectories"). We blank the trajectory but keep the label.
      trip.trajectory = traj::MatchedTrajectory{};
      ds->test.push_back(std::move(trip));
    }
  }
}

DatasetStats ComputeStats(const Dataset& dataset) {
  DatasetStats stats;
  double time_sum = 0.0, seg_sum = 0.0, len_sum = 0.0;
  size_t with_traj = 0;
  auto accumulate = [&](const std::vector<traj::TripRecord>& trips) {
    for (const auto& t : trips) {
      stats.num_orders++;
      time_sum += t.travel_time;
      if (!t.trajectory.empty()) {
        seg_sum += static_cast<double>(t.trajectory.num_segments());
        len_sum += t.trajectory.TravelledLength(dataset.network);
        ++with_traj;
      }
    }
  };
  accumulate(dataset.train);
  accumulate(dataset.validation);
  accumulate(dataset.test);
  if (stats.num_orders > 0) {
    stats.avg_travel_time = time_sum / static_cast<double>(stats.num_orders);
  }
  if (with_traj > 0) {
    stats.avg_num_segments = seg_sum / static_cast<double>(with_traj);
    stats.avg_length_m = len_sum / static_cast<double>(with_traj);
  }
  return stats;
}

}  // namespace deepod::sim
