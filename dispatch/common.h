// Helpers shared by the dispatcher implementations.

#pragma once

#include <vector>

#include "core/insertion.h"
#include "core/vehicle.h"
#include "dispatch/spatial_index.h"
#include "util/arena.h"

namespace structride {
namespace dispatch {

/// In-service view-local fleet indices sorted by straight-line distance from
/// \p from (ties by vehicle index, so orderings are deterministic); vehicles
/// a scenario pulled out of service are omitted. The legacy full-fleet scan:
/// O(F log F) per call. Kept as the spatial index's ground truth and as the
/// serial baseline behind `DispatchConfig::use_spatial_index=false`. Under
/// geo-sharding the view restricts the scan to one shard's residents.
std::vector<size_t> VehiclesByDistance(const FleetView& fleet,
                                       const RoadNetwork& net, NodeId from);
std::vector<size_t> VehiclesByDistance(const std::vector<Vehicle>& fleet,
                                       const RoadNetwork& net, NodeId from);

/// Per-batch nearest-candidate scanner. Rebuilt once per batch from the
/// batch-start fleet positions; answers from the grid-bucket index when
/// enabled, or from the full VehiclesByDistance sort when not. Both paths
/// return the identical (distance, index)-ordered prefix, so the knob only
/// moves time. A persistent instance reuses the index's planes across
/// Rebuild calls, so steady-state batches rebuild without heap allocation.
class CandidateScanner {
 public:
  void Rebuild(const FleetView& fleet, const RoadNetwork& net, bool use_index);

  /// Writes the (up to) \p k nearest fleet indices to \p from into \p out
  /// (room for k) and returns the count; NearestWithinInto stops at
  /// straight-line distance \p max_dist. Allocation-free on the indexed
  /// path, and safe to call from concurrent workers — staging uses the
  /// calling thread's scratch arena.
  size_t NearestInto(NodeId from, size_t k, size_t* out) const;
  size_t NearestWithinInto(NodeId from, size_t k, double max_dist,
                           size_t* out) const;

  size_t MemoryBytes() const { return use_index_ ? index_.MemoryBytes() : 0; }

 private:
  FleetView fleet_;
  const RoadNetwork* net_ = nullptr;
  bool use_index_ = false;
  FleetSpatialIndex index_;
};

/// Pooled result: the stop sequence lives in the arena passed to
/// InsertGroupSequentialPooled, valid until that arena rewinds.
struct PooledGroupInsertion {
  bool feasible = false;
  double delta_cost = 0;
  const Stop* stops = nullptr;
  size_t len = 0;
};

/// Linear insertion of \p members, in the given order, into \p committed
/// evaluated from \p state; infeasible if any member fails. Every
/// intermediate stage is ping-ponged between two \p arena blocks instead of
/// materialized as a Schedule.
PooledGroupInsertion InsertGroupSequentialPooled(
    const RouteState& state, Span<const Stop> committed,
    Span<const Request* const> members, TravelCostEngine* engine,
    EpochArena* arena);

}  // namespace dispatch
}  // namespace structride
