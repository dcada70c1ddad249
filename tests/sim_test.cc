#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include "road/city_generator.h"
#include "sim/dataset.h"
#include "sim/snapshot_speed_field.h"
#include "sim/speed_matrix.h"
#include "sim/traffic_model.h"
#include "sim/trip_simulator.h"
#include "sim/weather.h"
#include "temporal/time_slot.h"

namespace deepod::sim {
namespace {

road::RoadNetwork SmallCity() {
  road::CityConfig config = road::XianSimConfig();
  config.rows = 6;
  config.cols = 6;
  return road::GenerateCity(config);
}

TEST(TrafficModelTest, CongestionBounded) {
  const road::RoadNetwork net = SmallCity();
  const TrafficModel traffic(net);
  for (size_t sid = 0; sid < net.num_segments(); sid += 7) {
    for (double hour = 0.0; hour < 24.0; hour += 0.5) {
      const double c = traffic.CongestionAt(sid, hour * 3600.0);
      EXPECT_GT(c, 0.0);
      EXPECT_LE(c, 1.0);
    }
  }
}

TEST(TrafficModelTest, RushHourSlowerThanNight) {
  const road::RoadNetwork net = SmallCity();
  const TrafficModel traffic(net);
  // Averaged over segments, 8am weekday congestion exceeds 3am congestion.
  double rush = 0.0, night = 0.0;
  for (size_t sid = 0; sid < net.num_segments(); ++sid) {
    rush += traffic.CongestionAt(sid, 8.0 * 3600.0);
    night += traffic.CongestionAt(sid, 3.0 * 3600.0);
  }
  EXPECT_LT(rush, night * 0.9);
}

TEST(TrafficModelTest, WeeklyPeriodicityUpToDailyNoise) {
  const road::RoadNetwork net = SmallCity();
  TrafficModel::Options options;
  options.daily_sigma = 0.0;  // isolate the periodic component
  options.segment_daily_sigma = 0.0;
  const TrafficModel traffic(net, options);
  // Monday 8am of week 0 equals Monday 8am of week 1 (Fig. 5a periodicity).
  const double t0 = 8.0 * 3600.0;
  const double t1 = t0 + temporal::kSecondsPerWeek;
  for (size_t sid = 0; sid < net.num_segments(); sid += 5) {
    EXPECT_NEAR(traffic.CongestionAt(sid, t0), traffic.CongestionAt(sid, t1),
                1e-9);
  }
}

TEST(TrafficModelTest, WeekendRushIsWeaker) {
  const road::RoadNetwork net = SmallCity();
  TrafficModel::Options options;
  options.daily_sigma = 0.0;
  options.segment_daily_sigma = 0.0;
  const TrafficModel traffic(net, options);
  double weekday = 0.0, weekend = 0.0;
  const double hour8 = 8.0 * 3600.0;
  for (size_t sid = 0; sid < net.num_segments(); ++sid) {
    weekday += traffic.CongestionAt(sid, hour8);                             // Monday
    weekend += traffic.CongestionAt(sid, 5 * temporal::kSecondsPerDay + hour8);  // Saturday
  }
  EXPECT_GT(weekend, weekday);  // less congestion on Saturday morning
}

TEST(TrafficModelTest, DayToDayVariability) {
  const road::RoadNetwork net = SmallCity();
  const TrafficModel traffic(net);
  // The same time-of-day on different weeks should differ (daily draws).
  const double t0 = 10.0 * 3600.0;
  double diff = 0.0;
  for (int week = 1; week <= 4; ++week) {
    diff += std::fabs(traffic.CongestionAt(0, t0) -
                      traffic.CongestionAt(0, t0 + week * temporal::kSecondsPerWeek));
  }
  EXPECT_GT(diff, 1e-4);
}

TEST(TrafficModelTest, TraversalSecondsConsistent) {
  const road::RoadNetwork net = SmallCity();
  const TrafficModel traffic(net);
  const auto& s = net.segment(3);
  const double t = 12 * 3600.0;
  EXPECT_NEAR(traffic.TraversalSeconds(3, t),
              s.length / traffic.SpeedAt(3, t), 1e-9);
  EXPECT_LE(traffic.SpeedAt(3, t), s.free_flow_speed);
}

TEST(WeatherTest, TypesInRangeAndSticky) {
  const WeatherProcess weather(7 * 86400.0, 5);
  int changes = 0;
  int prev = weather.TypeAt(0.0);
  for (int h = 1; h < 7 * 24; ++h) {
    const int cur = weather.TypeAt(h * 3600.0);
    EXPECT_GE(cur, 0);
    EXPECT_LT(cur, WeatherProcess::kNumTypes);
    changes += cur != prev;
    prev = cur;
  }
  // Sticky chain: well under half the hours change state.
  EXPECT_LT(changes, 7 * 24 / 2);
}

TEST(WeatherTest, ConstantWithinHour) {
  const WeatherProcess weather(86400.0, 5);
  EXPECT_EQ(weather.TypeAt(3600.0), weather.TypeAt(3600.0 + 1800.0));
}

TEST(WeatherTest, SpeedFactorsSane) {
  for (int t = 0; t < WeatherProcess::kNumTypes; ++t) {
    EXPECT_GT(WeatherProcess::SpeedFactor(t), 0.5);
    EXPECT_LE(WeatherProcess::SpeedFactor(t), 1.0);
    EXPECT_FALSE(WeatherProcess::TypeName(t).empty());
  }
  EXPECT_THROW(WeatherProcess::SpeedFactor(99), std::out_of_range);
  EXPECT_THROW(WeatherProcess::TypeName(-1), std::out_of_range);
}

TEST(WeatherTest, BeyondHorizonThrows) {
  const WeatherProcess weather(3600.0, 5);
  EXPECT_THROW(weather.TypeAt(1e9), std::out_of_range);
  EXPECT_THROW(weather.TypeAt(-1.0), std::invalid_argument);
}

TEST(TripSimulatorTest, TripInvariants) {
  const road::RoadNetwork net = SmallCity();
  const TrafficModel traffic(net);
  const WeatherProcess weather(86400.0 * 2, 5);
  const TripSimulator simulator(net, traffic, weather);
  util::Rng rng(3);
  for (int i = 0; i < 25; ++i) {
    const auto record = simulator.SimulateTrip(30000.0, rng);
    EXPECT_GT(record.travel_time, 0.0);
    EXPECT_TRUE(record.trajectory.IsValid(net));
    EXPECT_DOUBLE_EQ(record.trajectory.departure_time(),
                     record.od.departure_time);
    EXPECT_NEAR(record.trajectory.travel_time(), record.travel_time, 1e-9);
    // First/last path segments match the OD's matched segments.
    EXPECT_EQ(record.trajectory.path.front().segment_id,
              record.od.origin_segment);
    EXPECT_EQ(record.trajectory.path.back().segment_id,
              record.od.dest_segment);
    // OD points lie on their segments at the stated ratios.
    const auto o = net.PointAlong(record.od.origin_segment,
                                  record.od.origin_ratio);
    EXPECT_NEAR(o.x, record.od.origin.x, 1e-6);
    EXPECT_NEAR(o.y, record.od.origin.y, 1e-6);
    // Trip length respects the configured minimum.
    EXPECT_GE(road::Distance(record.od.origin, record.od.destination), 800.0);
  }
}

TEST(TripSimulatorTest, RouteDiversityForSameOd) {
  // The Fig. 1 phenomenon: repeated trips at the same departure time do not
  // always use the same route.
  const road::RoadNetwork net = SmallCity();
  const TrafficModel traffic(net);
  const WeatherProcess weather(86400.0, 5);
  TripSimulator::Options options;
  options.route_choice_temperature = 10.0;  // noisy drivers
  const TripSimulator simulator(net, traffic, weather, options);
  util::Rng rng(5);
  std::set<std::vector<size_t>> routes;
  for (int i = 0; i < 40; ++i) {
    util::Rng trip_rng(100);  // identical OD sampling
    auto record = simulator.SimulateTrip(30000.0, rng);
    routes.insert(record.trajectory.SegmentIds());
  }
  EXPECT_GT(routes.size(), 10u);  // different ODs and some route variety
}

TEST(TripSimulatorTest, DepartureTimesFollowDemandPeaks) {
  const road::RoadNetwork net = SmallCity();
  const TrafficModel traffic(net);
  const WeatherProcess weather(86400.0 * 2, 5);
  const TripSimulator simulator(net, traffic, weather);
  util::Rng rng(7);
  int rush = 0, night = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const double t = simulator.SampleDepartureTime(0.0, rng);
    EXPECT_GE(t, 0.0);
    EXPECT_LT(t, 86400.0);
    const double hour = t / 3600.0;
    if (hour >= 7.0 && hour < 9.0) ++rush;
    if (hour >= 2.0 && hour < 4.0) ++night;
  }
  EXPECT_GT(rush, 3 * night);
}

TEST(TripSimulatorTest, GpsTraceCoversTrip) {
  const road::RoadNetwork net = SmallCity();
  const TrafficModel traffic(net);
  const WeatherProcess weather(86400.0, 5);
  TripSimulator::Options options;
  options.gps_period = 3.0;
  const TripSimulator simulator(net, traffic, weather, options);
  util::Rng rng(9);
  const auto record = simulator.SimulateTrip(40000.0, rng);
  const auto raw = simulator.EmitGps(record, rng);
  ASSERT_GE(raw.points.size(), 2u);
  EXPECT_DOUBLE_EQ(raw.departure_time(), record.od.departure_time);
  EXPECT_NEAR(raw.travel_time(), record.travel_time, 1e-6);
  for (size_t i = 1; i < raw.points.size(); ++i) {
    EXPECT_GE(raw.points[i].t, raw.points[i - 1].t);
  }
}

TEST(SpeedMatrixTest, ShapeAndRange) {
  const road::RoadNetwork net = SmallCity();
  const TrafficModel traffic(net);
  const WeatherProcess weather(86400.0, 5);
  const SpeedMatrixBuilder builder(net, traffic, weather, 200.0, 300.0);
  EXPECT_GT(builder.rows(), 0u);
  EXPECT_GT(builder.cols(), 0u);
  const auto matrix = builder.MatrixAt(12 * 3600.0);
  EXPECT_EQ(matrix.size(), builder.rows() * builder.cols());
  for (double v : matrix) {
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(SpeedMatrixTest, SnapshotQuantisation) {
  const road::RoadNetwork net = SmallCity();
  const TrafficModel traffic(net);
  const WeatherProcess weather(86400.0, 5);
  const SpeedMatrixBuilder builder(net, traffic, weather, 200.0, 300.0);
  EXPECT_DOUBLE_EQ(builder.SnapshotTime(610.0), 600.0);
  EXPECT_DOUBLE_EQ(builder.SnapshotTime(600.0), 600.0);
  // Two times within one snapshot yield identical matrices.
  EXPECT_EQ(builder.MatrixAt(601.0), builder.MatrixAt(899.0));
}

TEST(SpeedMatrixTest, RushHourMatrixSlower) {
  const road::RoadNetwork net = SmallCity();
  const TrafficModel traffic(net);
  const WeatherProcess weather(86400.0, 5);
  const SpeedMatrixBuilder builder(net, traffic, weather, 200.0, 300.0);
  const auto rush = builder.MatrixAt(8.0 * 3600.0);
  const auto night = builder.MatrixAt(3.0 * 3600.0);
  double rush_sum = 0.0, night_sum = 0.0;
  for (size_t i = 0; i < rush.size(); ++i) {
    rush_sum += rush[i];
    night_sum += night[i];
  }
  EXPECT_LT(rush_sum, night_sum);
}

// --- SnapshotSpeedField: one contiguous arena -------------------------------

// The field as it was stored before the arena: one matrix vector per
// snapshot, looked up by an int64 floor of t / snapshot_seconds. The
// equivalence test below holds the arena to exactly these semantics.
struct PerSnapshotField {
  struct Snapshot {
    int64_t index;
    std::vector<double> matrix;
  };
  double snapshot_seconds;
  std::vector<Snapshot> snapshots;

  size_t SlotFor(double t) const {
    const auto idx = static_cast<int64_t>(std::floor(t / snapshot_seconds));
    auto it = std::upper_bound(
        snapshots.begin(), snapshots.end(), idx,
        [](int64_t value, const Snapshot& s) { return value < s.index; });
    if (it == snapshots.begin()) return 0;
    return static_cast<size_t>(std::distance(snapshots.begin(), it)) - 1;
  }
  std::vector<double> MatrixAt(double t) const {
    return snapshots[SlotFor(t)].matrix;
  }
  double SnapshotTime(double t) const {
    return static_cast<double>(snapshots[SlotFor(t)].index) *
           snapshot_seconds;
  }
};

// A provider whose matrix at snapshot k is {k, k + 0.5, ...}: every
// snapshot distinct, snapshot times unclamped.
class RampProvider : public SpeedProvider {
 public:
  size_t rows() const override { return 2; }
  size_t cols() const override { return 3; }
  double snapshot_seconds() const override { return 300.0; }
  std::vector<double> MatrixAt(temporal::Timestamp t) const override {
    const double k = std::floor(t / 300.0);
    std::vector<double> m(6);
    for (size_t i = 0; i < m.size(); ++i) {
      m[i] = k + 0.5 * static_cast<double>(i);
    }
    return m;
  }
  temporal::Timestamp SnapshotTime(temporal::Timestamp t) const override {
    return std::floor(t / 300.0) * 300.0;
  }
};

TEST(SnapshotSpeedFieldTest, ArenaMatchesPerSnapshotSemantics) {
  // Gaps between stored indices exercise the clamped search inside the
  // window as well as at its ends.
  const std::vector<int64_t> indices = {3, 4, 7, 10, 11};
  const double ss = 300.0;
  const RampProvider ramp;
  PerSnapshotField old{ss, {}};
  std::vector<double> arena;
  for (const int64_t index : indices) {
    const std::vector<double> m =
        ramp.MatrixAt(static_cast<double>(index) * ss);
    old.snapshots.push_back({index, m});
    arena.insert(arena.end(), m.begin(), m.end());
  }
  const SnapshotSpeedField field(2, 3, ss, indices, arena);
  ASSERT_EQ(field.size(), indices.size());
  EXPECT_EQ(field.first_snapshot_time(), 3 * ss);
  EXPECT_EQ(field.last_snapshot_time(), 11 * ss);
  for (size_t i = 0; i < indices.size(); ++i) {
    const std::span<const double> m = field.matrix(i);
    EXPECT_EQ(std::vector<double>(m.begin(), m.end()), old.snapshots[i].matrix);
  }

  std::vector<double> times = {-1e12, -1e9, -1.0, 0.0, 2.0 * ss,
                               12.0 * ss, 1e6, 1e9, 1e12};
  const double eps = 1e-6;
  for (int64_t k = 2; k <= 12; ++k) {
    const double boundary = static_cast<double>(k) * ss;
    for (const double t : {boundary - eps, boundary, boundary + eps,
                           std::nextafter(boundary, 0.0),
                           boundary + 0.5 * ss}) {
      times.push_back(t);
    }
  }
  for (const double t : times) {
    EXPECT_EQ(field.MatrixAt(t), old.MatrixAt(t)) << "t = " << t;
    EXPECT_EQ(field.SnapshotTime(t), old.SnapshotTime(t)) << "t = " << t;
  }
  // Past the int64 range the old cast was undefined; the arena clamps.
  EXPECT_EQ(field.SnapshotTime(1e300), 11 * ss);
  EXPECT_EQ(field.SnapshotTime(-1e300), 3 * ss);
  EXPECT_EQ(field.SnapshotTime(std::numeric_limits<double>::infinity()),
            11 * ss);
  EXPECT_EQ(field.SnapshotTime(std::nan("")), 3 * ss);
}

TEST(SnapshotSpeedFieldTest, CaptureStoresEverySnapshotInOrder) {
  const RampProvider ramp;
  const SnapshotSpeedField field =
      SnapshotSpeedField::Capture(ramp, 5.0 * 300.0 + 17.0, 9.0 * 300.0);
  EXPECT_EQ(field.indices(), (std::vector<int64_t>{5, 6, 7, 8, 9}));
  ASSERT_EQ(field.matrices().size(), 5u * 6u);
  for (size_t i = 0; i < field.size(); ++i) {
    const double t = static_cast<double>(field.indices()[i]) * 300.0;
    const std::span<const double> m = field.matrix(i);
    EXPECT_EQ(std::vector<double>(m.begin(), m.end()), ramp.MatrixAt(t));
    EXPECT_EQ(field.MatrixAt(t + 1.0), ramp.MatrixAt(t));
  }
}

TEST(SnapshotSpeedFieldTest, RejectsMalformedTables) {
  const std::vector<double> one(6, 0.5);
  EXPECT_THROW(SnapshotSpeedField(2, 3, 300.0, {}, {}), std::invalid_argument);
  EXPECT_THROW(SnapshotSpeedField(2, 3, 300.0, {1}, {0.5}),
               std::invalid_argument);
  EXPECT_THROW(SnapshotSpeedField(2, 3, 300.0, {1, 2}, one),
               std::invalid_argument);
  std::vector<double> two(12, 0.5);
  EXPECT_THROW(SnapshotSpeedField(2, 3, 300.0, {2, 2}, two),
               std::invalid_argument);
  EXPECT_THROW(SnapshotSpeedField(2, 3, 300.0, {3, 2}, two),
               std::invalid_argument);
  EXPECT_THROW(SnapshotSpeedField(0, 3, 300.0, {1}, {}), std::invalid_argument);
  EXPECT_THROW(SnapshotSpeedField(2, 3, 0.0, {1}, one), std::invalid_argument);
  EXPECT_NO_THROW(SnapshotSpeedField(2, 3, 300.0, {1, 2}, two));
}

TEST(DatasetTest, SplitIsChronologicalAndComplete) {
  DatasetConfig config;
  config.city = road::XianSimConfig();
  config.city.rows = 6;
  config.city.cols = 6;
  config.trips_per_day = 10;
  config.num_days = 20;
  const Dataset ds = BuildDataset(config);
  EXPECT_EQ(ds.TotalTrips(), 200u);
  EXPECT_GT(ds.train.size(), ds.validation.size());
  EXPECT_GT(ds.test.size(), ds.validation.size());
  // Chronological: max(train) <= min(validation) <= ... within split bounds.
  double train_max = 0.0;
  for (const auto& t : ds.train) {
    train_max = std::max(train_max, t.od.departure_time);
    EXPECT_FALSE(t.trajectory.empty());  // training keeps trajectories
  }
  for (const auto& t : ds.validation) {
    EXPECT_GE(t.od.departure_time, train_max - 86400.0);  // later days
  }
  for (const auto& t : ds.test) {
    EXPECT_TRUE(t.trajectory.empty());  // §6.1: no trajectories at test time
    EXPECT_GT(t.travel_time, 0.0);      // but labels remain
  }
}

TEST(DatasetTest, DeterministicInSeed) {
  DatasetConfig config;
  config.city = road::XianSimConfig();
  config.city.rows = 5;
  config.city.cols = 5;
  config.trips_per_day = 5;
  config.num_days = 10;
  const Dataset a = BuildDataset(config);
  const Dataset b = BuildDataset(config);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.train[i].travel_time, b.train[i].travel_time);
    EXPECT_EQ(a.train[i].od.origin_segment, b.train[i].od.origin_segment);
  }
}

TEST(DatasetTest, StatsReasonable) {
  DatasetConfig config;
  config.city = road::XianSimConfig();
  config.city.rows = 6;
  config.city.cols = 6;
  config.trips_per_day = 10;
  config.num_days = 15;
  const Dataset ds = BuildDataset(config);
  const DatasetStats stats = ComputeStats(ds);
  EXPECT_EQ(stats.num_orders, ds.TotalTrips());
  EXPECT_GT(stats.avg_travel_time, 30.0);
  EXPECT_LT(stats.avg_travel_time, 3600.0);
  EXPECT_GT(stats.avg_num_segments, 1.0);
  EXPECT_GT(stats.avg_length_m, 500.0);
}

TEST(DatasetTest, TrainSegmentSequencesMatchTrajectories) {
  DatasetConfig config;
  config.city = road::XianSimConfig();
  config.city.rows = 5;
  config.city.cols = 5;
  config.trips_per_day = 5;
  config.num_days = 6;
  const Dataset ds = BuildDataset(config);
  const auto sequences = ds.TrainSegmentSequences();
  ASSERT_EQ(sequences.size(), ds.train.size());
  EXPECT_EQ(sequences[0], ds.train[0].trajectory.SegmentIds());
}

}  // namespace
}  // namespace deepod::sim
