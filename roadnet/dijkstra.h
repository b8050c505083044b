// Plain and bidirectional Dijkstra over a RoadNetwork. These are the
// reference backends: exact, index-free, and the ground truth the hub-label
// oracle is tested against.

#pragma once

#include <vector>

#include "roadnet/road_network.h"

namespace structride {

/// Single-source shortest-path costs to every node (infinity if unreachable).
std::vector<double> DijkstraAll(const RoadNetwork& net, NodeId source);

/// Point-to-point cost via bidirectional search (infinity if unreachable).
double BidirectionalDijkstra(const RoadNetwork& net, NodeId source,
                             NodeId target);

}  // namespace structride
