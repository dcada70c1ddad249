#ifndef DEEPOD_ROAD_EDGE_GRAPH_H_
#define DEEPOD_ROAD_EDGE_GRAPH_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "road/road_network.h"
#include "util/weighted_digraph.h"

namespace deepod::road {

// Streaming builder for the trajectory-weighted line graph: feed segment
// sequences one at a time (e.g. decoded record-by-record from a trip
// shard), then Build. Because the co-occurrence weights are exact sums of
// 1.0 and arc emission iterates the network (not the accumulation map), the
// result is bit-identical to BuildEdgeGraph over the same sequences in any
// order — pinned by datagen_test.
class EdgeGraphAccumulator {
 public:
  // Counts the consecutive segment pairs of one trajectory. Throws
  // std::out_of_range on a segment id outside `net`.
  void AddSequence(const RoadNetwork& net, std::span<const size_t> sequence);

  // Emits the line graph with the accumulated co-occurrence weights (plus
  // `base_weight` on every legal turn). The accumulator stays valid — more
  // sequences may be added and Build called again.
  util::WeightedDigraph Build(const RoadNetwork& net,
                              double base_weight = 0.05) const;

 private:
  std::unordered_map<uint64_t, double> counts_;
};

// Converts the road network into its line graph (Fig. 4): each node of the
// result is a road segment, and there is an arc e_ik -> e_kj whenever
// segment e_ik ends where e_kj begins. Arc weights count how many of the
// supplied historical segment sequences (trajectories) traverse the pair
// consecutively; `base_weight` keeps untravelled-but-legal turns reachable
// by the random-walk embedder (a zero-weight arc would never be walked).
util::WeightedDigraph BuildEdgeGraph(
    const RoadNetwork& net,
    const std::vector<std::vector<size_t>>& segment_sequences,
    double base_weight = 0.05);

}  // namespace deepod::road

#endif  // DEEPOD_ROAD_EDGE_GRAPH_H_
