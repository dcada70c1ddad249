#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "io/trip_io.h"
#include "road/city_generator.h"
#include "sim/dataset.h"

namespace deepod::io {
namespace {

road::RoadNetwork SmallNet() {
  road::CityConfig config = road::XianSimConfig();
  config.rows = 5;
  config.cols = 5;
  return road::GenerateCity(config);
}

TEST(NetworkCsvTest, RoundTripPreservesEverything) {
  const road::RoadNetwork net = SmallNet();
  std::stringstream buffer;
  WriteNetworkCsv(net, buffer);
  const road::RoadNetwork restored = ReadNetworkCsv(buffer);
  ASSERT_EQ(restored.num_vertices(), net.num_vertices());
  ASSERT_EQ(restored.num_segments(), net.num_segments());
  for (size_t v = 0; v < net.num_vertices(); ++v) {
    EXPECT_NEAR(restored.vertex(v).pos.x, net.vertex(v).pos.x, 1e-6);
    EXPECT_NEAR(restored.vertex(v).pos.y, net.vertex(v).pos.y, 1e-6);
  }
  for (size_t s = 0; s < net.num_segments(); ++s) {
    EXPECT_EQ(restored.segment(s).from, net.segment(s).from);
    EXPECT_EQ(restored.segment(s).to, net.segment(s).to);
    EXPECT_NEAR(restored.segment(s).length, net.segment(s).length, 1e-6);
    EXPECT_NEAR(restored.segment(s).free_flow_speed,
                net.segment(s).free_flow_speed, 1e-6);
    EXPECT_EQ(restored.segment(s).road_class, net.segment(s).road_class);
  }
  EXPECT_TRUE(restored.finalized());
}

TEST(NetworkCsvTest, RejectsMalformedInput) {
  std::stringstream bad1("not-a-section\n");
  EXPECT_THROW(ReadNetworkCsv(bad1), std::runtime_error);
  std::stringstream bad2("vertices\nid,x,y\n0,1\nsegments\nh\n");
  EXPECT_THROW(ReadNetworkCsv(bad2), std::runtime_error);
}

// The format persists the matched OD representation and writes doubles in
// shortest round-trip form, so every field reads back exactly.
TEST(TripsCsvTest, RoundTripPreservesTripsAndRoutes) {
  sim::DatasetConfig config;
  config.city = road::XianSimConfig();
  config.city.rows = 5;
  config.city.cols = 5;
  config.trips_per_day = 10;
  config.num_days = 6;
  const sim::Dataset ds = sim::BuildDataset(config);

  std::stringstream buffer;
  WriteTripsCsv(ds.train, buffer);
  const auto restored = ReadTripsCsv(ds.network, buffer);
  ASSERT_EQ(restored.size(), ds.train.size());
  for (size_t i = 0; i < restored.size(); ++i) {
    const auto& a = ds.train[i];
    const auto& b = restored[i];
    EXPECT_EQ(a.od.departure_time, b.od.departure_time);
    EXPECT_EQ(a.od.origin.x, b.od.origin.x);
    EXPECT_EQ(a.od.origin.y, b.od.origin.y);
    EXPECT_EQ(a.od.destination.x, b.od.destination.x);
    EXPECT_EQ(a.od.destination.y, b.od.destination.y);
    EXPECT_EQ(a.od.weather_type, b.od.weather_type);
    EXPECT_EQ(a.travel_time, b.travel_time);
    EXPECT_EQ(a.od.origin_segment, b.od.origin_segment);
    EXPECT_EQ(a.od.origin_ratio, b.od.origin_ratio);
    EXPECT_EQ(a.od.dest_segment, b.od.dest_segment);
    EXPECT_EQ(a.od.dest_ratio, b.od.dest_ratio);
    EXPECT_EQ(a.trajectory.origin_ratio, b.trajectory.origin_ratio);
    EXPECT_EQ(a.trajectory.dest_ratio, b.trajectory.dest_ratio);
    ASSERT_EQ(a.trajectory.path.size(), b.trajectory.path.size());
    for (size_t e = 0; e < a.trajectory.path.size(); ++e) {
      EXPECT_EQ(a.trajectory.path[e].segment_id,
                b.trajectory.path[e].segment_id);
      EXPECT_EQ(a.trajectory.path[e].enter, b.trajectory.path[e].enter);
      EXPECT_EQ(a.trajectory.path[e].exit, b.trajectory.path[e].exit);
    }
  }
}

TEST(TripsCsvTest, OdOnlyRecordsHaveEmptyRoutes) {
  sim::DatasetConfig config;
  config.city = road::XianSimConfig();
  config.city.rows = 5;
  config.city.cols = 5;
  config.trips_per_day = 10;
  config.num_days = 6;
  const sim::Dataset ds = sim::BuildDataset(config);

  std::stringstream buffer;
  WriteTripsCsv(ds.test, buffer);  // test records carry no trajectory
  const auto restored = ReadTripsCsv(ds.network, buffer);
  ASSERT_EQ(restored.size(), ds.test.size());
  for (const auto& trip : restored) {
    EXPECT_TRUE(trip.trajectory.empty());
    EXPECT_GT(trip.travel_time, 0.0);
  }
}

constexpr char kHeader[] =
    "depart,origin_x,origin_y,dest_x,dest_y,weather,travel_time,"
    "origin_seg,origin_ratio,dest_seg,dest_ratio,route\n";

TEST(TripsCsvTest, RejectsBadRows) {
  const road::RoadNetwork net = SmallNet();
  const auto read = [&net](const std::string& row) {
    std::stringstream in(kHeader + row);
    return ReadTripsCsv(net, in);
  };
  // A well-formed row parses, so each case below fails for its own defect.
  EXPECT_EQ(read("0,0,0,100,100,0,60,0,0.5,1,0.25,0:0:10\n").size(), 1u);
  EXPECT_THROW(read("1,2,3\n"), std::runtime_error);
  EXPECT_THROW(read("0,0,0,100,100,0,60,0,0.5,1,0.25,999999:0:10\n"),
               std::runtime_error);  // route segment out of range
  EXPECT_THROW(read("0,0,abc,100,100,0,60,0,0.5,1,0.25,\n"),
               std::runtime_error);
  EXPECT_THROW(read("0,0,0,100,100,0,60,999999,0.5,1,0.25,\n"),
               std::runtime_error);  // origin_seg out of range
}

// The 8-column header of the retired format (no matched OD columns) is
// rejected, with the expected header named in the error.
TEST(TripsCsvTest, RejectsEightFieldHeader) {
  const road::RoadNetwork net = SmallNet();
  std::stringstream in(
      "depart,origin_x,origin_y,dest_x,dest_y,weather,travel_time,route\n"
      "0,0,0,100,100,0,60,0:0:10\n");
  try {
    ReadTripsCsv(net, in);
    FAIL() << "8-field header accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "origin_seg,origin_ratio,dest_seg,dest_ratio,route"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace deepod::io
