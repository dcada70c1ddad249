#include "road/edge_graph.h"

#include <stdexcept>

namespace deepod::road {
namespace {

uint64_t PairKey(size_t a, size_t b) {
  return (static_cast<uint64_t>(a) << 32) | static_cast<uint64_t>(b);
}

}  // namespace

void EdgeGraphAccumulator::AddSequence(const RoadNetwork& net,
                                       std::span<const size_t> sequence) {
  for (size_t i = 0; i + 1 < sequence.size(); ++i) {
    if (sequence[i] >= net.num_segments() ||
        sequence[i + 1] >= net.num_segments()) {
      throw std::out_of_range("EdgeGraphAccumulator: segment id out of range");
    }
    counts_[PairKey(sequence[i], sequence[i + 1])] += 1.0;
  }
}

util::WeightedDigraph EdgeGraphAccumulator::Build(const RoadNetwork& net,
                                                  double base_weight) const {
  if (!net.finalized()) {
    throw std::logic_error("EdgeGraphAccumulator: network not finalized");
  }
  util::WeightedDigraph graph(net.num_segments());
  for (const auto& s : net.segments()) {
    for (size_t next : net.OutSegments(s.to)) {
      // Skip the immediate U-turn back onto the reverse carriageway; taxis
      // essentially never do this mid-route and it pollutes the walks.
      if (net.segment(next).to == s.from) continue;
      const auto it = counts_.find(PairKey(s.id, next));
      const double co = it == counts_.end() ? 0.0 : it->second;
      graph.AddArc(s.id, next, co + base_weight);
    }
  }
  return graph;
}

util::WeightedDigraph BuildEdgeGraph(
    const RoadNetwork& net,
    const std::vector<std::vector<size_t>>& segment_sequences,
    double base_weight) {
  if (!net.finalized()) {
    throw std::logic_error("BuildEdgeGraph: network not finalized");
  }
  EdgeGraphAccumulator acc;
  for (const auto& seq : segment_sequences) acc.AddSequence(net, seq);
  return acc.Build(net, base_weight);
}

}  // namespace deepod::road
