#include <gtest/gtest.h>

#include <cmath>
#include <queue>
#include <set>

#include "road/city_generator.h"
#include "road/edge_graph.h"
#include "road/road_network.h"
#include "road/routing.h"
#include "road/spatial_index.h"

namespace deepod::road {
namespace {

RoadNetwork TinyNetwork() {
  // 0 --e0--> 1 --e1--> 2, plus 0 --e2--> 2 (direct but slow).
  RoadNetwork net;
  net.AddVertex({0, 0});
  net.AddVertex({100, 0});
  net.AddVertex({200, 0});
  net.AddSegment(0, 1, 10.0, RoadClass::kLocal);   // 10 s
  net.AddSegment(1, 2, 10.0, RoadClass::kLocal);   // 10 s
  net.AddSegment(0, 2, 4.0, RoadClass::kLocal, 200.0);  // 50 s direct
  net.Finalize();
  return net;
}

TEST(RoadNetworkTest, BasicAccessors) {
  const RoadNetwork net = TinyNetwork();
  EXPECT_EQ(net.num_vertices(), 3u);
  EXPECT_EQ(net.num_segments(), 3u);
  EXPECT_DOUBLE_EQ(net.segment(0).length, 100.0);
  EXPECT_EQ(net.OutSegments(0).size(), 2u);
  EXPECT_EQ(net.InSegments(2).size(), 2u);
}

TEST(RoadNetworkTest, RejectsInvalidSegments) {
  RoadNetwork net;
  net.AddVertex({0, 0});
  net.AddVertex({1, 0});
  EXPECT_THROW(net.AddSegment(0, 0, 1.0, RoadClass::kLocal),
               std::invalid_argument);
  EXPECT_THROW(net.AddSegment(0, 5, 1.0, RoadClass::kLocal), std::out_of_range);
  EXPECT_THROW(net.AddSegment(0, 1, 0.0, RoadClass::kLocal),
               std::invalid_argument);
}

TEST(RoadNetworkTest, MutationAfterFinalizeThrows) {
  RoadNetwork net = TinyNetwork();
  EXPECT_THROW(net.AddVertex({5, 5}), std::logic_error);
}

TEST(RoadNetworkTest, PointAlong) {
  const RoadNetwork net = TinyNetwork();
  const Point mid = net.PointAlong(0, 0.5);
  EXPECT_DOUBLE_EQ(mid.x, 50.0);
  EXPECT_DOUBLE_EQ(mid.y, 0.0);
  EXPECT_THROW(net.PointAlong(0, 1.5), std::invalid_argument);
}

TEST(RoadNetworkTest, ReverseSegment) {
  RoadNetwork net;
  net.AddVertex({0, 0});
  net.AddVertex({10, 0});
  const size_t fwd = net.AddSegment(0, 1, 5.0, RoadClass::kLocal);
  const size_t rev = net.AddSegment(1, 0, 5.0, RoadClass::kLocal);
  net.Finalize();
  EXPECT_EQ(net.ReverseSegment(fwd), rev);
  EXPECT_EQ(net.ReverseSegment(rev), fwd);
}

TEST(RoutingTest, DijkstraPicksFasterTwoHop) {
  const RoadNetwork net = TinyNetwork();
  const Route r = ShortestRoute(net, 0, 2, FreeFlowCost);
  ASSERT_EQ(r.segment_ids.size(), 2u);
  EXPECT_EQ(r.segment_ids[0], 0u);
  EXPECT_EQ(r.segment_ids[1], 1u);
  EXPECT_NEAR(r.cost, 20.0, 1e-9);
}

TEST(RoutingTest, UnreachableReturnsEmpty) {
  RoadNetwork net;
  net.AddVertex({0, 0});
  net.AddVertex({10, 0});
  net.AddVertex({20, 0});
  net.AddSegment(0, 1, 5.0, RoadClass::kLocal);
  net.Finalize();
  EXPECT_TRUE(ShortestRoute(net, 1, 0, FreeFlowCost).segment_ids.empty());
  EXPECT_TRUE(ShortestRoute(net, 0, 2, FreeFlowCost).segment_ids.empty());
}

TEST(RoutingTest, NegativeCostThrows) {
  const RoadNetwork net = TinyNetwork();
  EXPECT_THROW(Dijkstra(net, 0, [](const Segment&) { return -1.0; }),
               std::invalid_argument);
}

TEST(RoutingTest, AlternativeRoutesAreDistinctAndSorted) {
  const RoadNetwork net = TinyNetwork();
  const auto alts = AlternativeRoutes(net, 0, 2, FreeFlowCost, 3);
  ASSERT_GE(alts.size(), 2u);
  std::set<std::vector<size_t>> unique;
  for (const auto& r : alts) {
    EXPECT_TRUE(IsConnectedPath(net, r.segment_ids));
    unique.insert(r.segment_ids);
  }
  EXPECT_EQ(unique.size(), alts.size());
  for (size_t i = 1; i < alts.size(); ++i) {
    EXPECT_LE(alts[i - 1].cost, alts[i].cost);
  }
  // Costs are restated under the unpenalised metric.
  EXPECT_NEAR(alts[0].cost, 20.0, 1e-9);
}

TEST(RoutingTest, IsConnectedPathDetectsGaps) {
  const RoadNetwork net = TinyNetwork();
  EXPECT_TRUE(IsConnectedPath(net, {0, 1}));
  EXPECT_FALSE(IsConnectedPath(net, {1, 0}));
  EXPECT_TRUE(IsConnectedPath(net, {2}));
}

class CityGeneratorTest : public ::testing::TestWithParam<CityConfig> {};

TEST_P(CityGeneratorTest, StronglyConnectedAndWellFormed) {
  const RoadNetwork net = GenerateCity(GetParam());
  ASSERT_GT(net.num_segments(), 0u);
  // Every vertex has in and out degree >= 1.
  for (size_t v = 0; v < net.num_vertices(); ++v) {
    EXPECT_FALSE(net.OutSegments(v).empty()) << "vertex " << v;
    EXPECT_FALSE(net.InSegments(v).empty()) << "vertex " << v;
  }
  // Forward BFS from vertex 0 reaches everything (strong connectivity holds
  // because every link is two-way).
  std::vector<bool> seen(net.num_vertices(), false);
  std::queue<size_t> frontier;
  frontier.push(0);
  seen[0] = true;
  size_t reached = 1;
  while (!frontier.empty()) {
    const size_t v = frontier.front();
    frontier.pop();
    for (size_t sid : net.OutSegments(v)) {
      const size_t to = net.segment(sid).to;
      if (!seen[to]) {
        seen[to] = true;
        ++reached;
        frontier.push(to);
      }
    }
  }
  EXPECT_EQ(reached, net.num_vertices());
  // Positive lengths and speeds throughout.
  for (const auto& s : net.segments()) {
    EXPECT_GT(s.length, 0.0);
    EXPECT_GT(s.free_flow_speed, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCities, CityGeneratorTest,
                         ::testing::Values(ChengduSimConfig(), XianSimConfig(),
                                           BeijingSimConfig()),
                         [](const ::testing::TestParamInfo<CityConfig>& info) {
                           std::string name = info.param.name;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(CityGeneratorTest, DeterministicInSeed) {
  const RoadNetwork a = GenerateCity(ChengduSimConfig());
  const RoadNetwork b = GenerateCity(ChengduSimConfig());
  ASSERT_EQ(a.num_segments(), b.num_segments());
  for (size_t i = 0; i < a.num_segments(); ++i) {
    EXPECT_EQ(a.segment(i).from, b.segment(i).from);
    EXPECT_DOUBLE_EQ(a.segment(i).free_flow_speed, b.segment(i).free_flow_speed);
  }
}

TEST(CityGeneratorTest, RiverForcesDetour) {
  CityConfig config;
  config.rows = 9;
  config.cols = 9;
  config.removal_prob = 0.0;
  config.jitter_m = 0.0;
  config.river_rows = {4};
  config.bridge_period = 8;  // bridges only at column 2 (offset 2)
  config.seed = 9;
  const RoadNetwork net = GenerateCity(config);
  // A trip straight across the river far from the bridge must detour: its
  // network distance exceeds the straight-line distance substantially.
  // Find vertices near (col 7, row 3) and (col 7, row 5).
  const Point a{7 * config.spacing_m, 3 * config.spacing_m};
  const Point b{7 * config.spacing_m, 5 * config.spacing_m};
  size_t va = 0, vb = 0;
  double da = 1e18, db = 1e18;
  for (size_t v = 0; v < net.num_vertices(); ++v) {
    const double dda = Distance(net.vertex(v).pos, a);
    const double ddb = Distance(net.vertex(v).pos, b);
    if (dda < da) {
      da = dda;
      va = v;
    }
    if (ddb < db) {
      db = ddb;
      vb = v;
    }
  }
  const Route route = ShortestRoute(
      net, va, vb, [](const Segment& s) { return s.length; });
  ASSERT_FALSE(route.segment_ids.empty());
  const double straight = Distance(net.vertex(va).pos, net.vertex(vb).pos);
  EXPECT_GT(route.cost, 3.0 * straight);  // forced detour via the bridge
}

TEST(SpatialIndexTest, NearestFindsProjection) {
  const RoadNetwork net = TinyNetwork();
  const SpatialIndex index(net, 50.0);
  const Projection p = index.Nearest({50.0, 30.0});
  EXPECT_EQ(p.segment_id, 0u);
  EXPECT_NEAR(p.distance, 30.0, 1e-9);
  EXPECT_NEAR(p.ratio, 0.5, 1e-9);
}

TEST(SpatialIndexTest, NearestClampsToEndpoints) {
  const RoadNetwork net = TinyNetwork();
  const SpatialIndex index(net);
  const Projection p = index.Nearest({-40.0, 10.0});
  EXPECT_NEAR(p.ratio, 0.0, 1e-9);
  EXPECT_NEAR(p.distance, std::sqrt(40.0 * 40.0 + 10.0 * 10.0), 1e-9);
}

TEST(SpatialIndexTest, WithinSortedByDistance) {
  const RoadNetwork net = GenerateCity(XianSimConfig());
  const SpatialIndex index(net);
  const Point query{1000.0, 1000.0};
  const auto results = index.Within(query, 500.0);
  ASSERT_FALSE(results.empty());
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_LE(results[i - 1].distance, results[i].distance);
  }
  for (const auto& r : results) EXPECT_LE(r.distance, 500.0);
}

TEST(SpatialIndexTest, NearestAgreesWithBruteForce) {
  const RoadNetwork net = GenerateCity(XianSimConfig());
  const SpatialIndex index(net);
  util::Rng rng(55);
  Point lo, hi;
  net.BoundingBox(&lo, &hi);
  for (int trial = 0; trial < 50; ++trial) {
    const Point q{rng.Uniform(lo.x, hi.x), rng.Uniform(lo.y, hi.y)};
    const Projection fast = index.Nearest(q);
    Projection brute;
    brute.distance = 1e18;
    for (size_t sid = 0; sid < net.num_segments(); ++sid) {
      const Projection cand = SpatialIndex::ProjectOnto(net, sid, q);
      if (cand.distance < brute.distance) brute = cand;
    }
    EXPECT_NEAR(fast.distance, brute.distance, 1e-9);
  }
}

TEST(EdgeGraphTest, StructuralLineGraph) {
  const RoadNetwork net = TinyNetwork();
  const auto graph = BuildEdgeGraph(net, {});
  EXPECT_EQ(graph.num_nodes(), net.num_segments());
  EXPECT_TRUE(graph.HasArc(0, 1));   // e0 ends where e1 starts
  EXPECT_FALSE(graph.HasArc(1, 0));  // not in reverse
}

TEST(EdgeGraphTest, UTurnArcsExcluded) {
  RoadNetwork net;
  net.AddVertex({0, 0});
  net.AddVertex({10, 0});
  const size_t fwd = net.AddSegment(0, 1, 5.0, RoadClass::kLocal);
  const size_t rev = net.AddSegment(1, 0, 5.0, RoadClass::kLocal);
  net.Finalize();
  const auto graph = BuildEdgeGraph(net, {});
  EXPECT_FALSE(graph.HasArc(fwd, rev));
}

TEST(EdgeGraphTest, CoOccurrenceWeights) {
  const RoadNetwork net = TinyNetwork();
  // Two trajectories traverse e0 -> e1.
  const std::vector<std::vector<size_t>> trips = {{0, 1}, {0, 1}};
  const auto graph = BuildEdgeGraph(net, trips, /*base_weight=*/0.5);
  const auto& arcs = graph.OutArcs(0);
  ASSERT_EQ(arcs.size(), 1u);
  EXPECT_EQ(arcs[0].to, 1u);
  EXPECT_DOUBLE_EQ(arcs[0].weight, 2.5);  // 2 co-occurrences + base
}

TEST(EdgeGraphTest, RejectsBadSegmentIds) {
  const RoadNetwork net = TinyNetwork();
  EXPECT_THROW(BuildEdgeGraph(net, {{0, 99}}), std::out_of_range);
}

}  // namespace
}  // namespace deepod::road
