#include "dispatch/common.h"

#include <algorithm>
#include <limits>

namespace structride {
namespace dispatch {

std::vector<size_t> VehiclesByDistance(const FleetView& fleet,
                                       const RoadNetwork& net, NodeId from) {
  std::vector<size_t> order;
  order.reserve(fleet.size());
  std::vector<double> dist(fleet.size());
  for (size_t i = 0; i < fleet.size(); ++i) {
    if (!fleet[i].in_service()) continue;  // scenario downtime: no new work
    order.push_back(i);
    dist[i] = net.EuclidLowerBound(fleet[i].node(), from);
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (dist[a] != dist[b]) return dist[a] < dist[b];
    return a < b;
  });
  return order;
}

std::vector<size_t> VehiclesByDistance(const std::vector<Vehicle>& fleet,
                                       const RoadNetwork& net, NodeId from) {
  // Read-only delegation; nothing mutates through the view.
  return VehiclesByDistance(
      FleetView(const_cast<std::vector<Vehicle>*>(&fleet)), net, from);
}

void CandidateScanner::Rebuild(const FleetView& fleet, const RoadNetwork& net,
                               bool use_index) {
  fleet_ = fleet;
  net_ = &net;
  use_index_ = use_index;
  if (use_index_) index_.Rebuild(fleet, net);
}

size_t CandidateScanner::NearestInto(NodeId from, size_t k,
                                     size_t* out) const {
  if (use_index_) return index_.KNearestInto(from, k, out);
  return NearestWithinInto(from, k, std::numeric_limits<double>::infinity(),
                           out);
}

size_t CandidateScanner::NearestWithinInto(NodeId from, size_t k,
                                           double max_dist,
                                           size_t* out) const {
  if (use_index_) return index_.KNearestWithinInto(from, k, max_dist, out);
  size_t n = 0;
  for (size_t vi : VehiclesByDistance(fleet_, *net_, from)) {
    if (n >= k) break;
    if (net_->EuclidLowerBound(fleet_[vi].node(), from) > max_dist) break;
    out[n++] = vi;
  }
  return n;
}

PooledGroupInsertion InsertGroupSequentialPooled(
    const RouteState& state, Span<const Stop> committed,
    Span<const Request* const> members, TravelCostEngine* engine,
    EpochArena* arena) {
  PooledGroupInsertion out;
  const size_t final_len = committed.size() + 2 * members.size();
  Stop* bufs[2] = {arena->AllocateArray<Stop>(final_len),
                   arena->AllocateArray<Stop>(final_len)};
  Span<const Stop> cur = committed;
  int which = 0;
  double delta = 0;
  for (const Request* r : members) {
    InsertionCandidate cand = BestInsertion(state, cur, *r, engine);
    if (!cand.feasible) return out;
    size_t len = ApplyInsertionInto(cur, *r, cand, bufs[which]);
    cur = {bufs[which], len};
    which ^= 1;
    delta += cand.delta_cost;
  }
  out.feasible = true;
  out.delta_cost = delta;
  out.stops = cur.data();
  out.len = cur.size();
  return out;
}

}  // namespace dispatch
}  // namespace structride
