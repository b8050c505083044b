// Pruned-landmark hub labeling (2-hop cover): the paper's fixed
// shortest-path substrate. Exact distances from the labels' common hubs;
// build via pruned Dijkstra in a hierarchical quadtree-center order (a
// separator-style order: the node nearest the city center first, then the
// centers of the four quadrants, and so on — every prefix of the order
// spreads over the map, which is what keeps grid labels small).
//
// Memory layout (DESIGN.md §"Memory layout"): all labels live in one
// contiguous node-major arena addressed by one offset array, stored as two
// parallel planes — hub ranks (int32, 16 per cache line) and distances
// (double). Each node's run is terminated by a rank sentinel, so label
// walks use a single compare per step — no per-node vector headers, no
// bound checks. Every query spreads one node's label into a rank-indexed
// scratch array (pin), walks the other node's run against it, and restores
// the scratch (unpin); one-to-many batches (TravelCostEngine::CostMany) pin
// once and walk many targets.
//
// Ownership (DESIGN.md §"Graph import and persistence"): queries read the
// arena through borrowed views. A built labeling owns the planes; a
// snapshot-loaded one borrows them from the (possibly mmap-ed) section
// payloads and keeps the backing GraphSource alive via payload_.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "roadnet/road_network.h"

namespace structride {

class HubLabeling {
 public:
  explicit HubLabeling(const RoadNetwork& net);

  /// Terminates every node's label run; compares greater than any real rank.
  static constexpr int32_t kSentinelRank = INT32_MAX;

  /// Adopts an already-flattened node-major arena owned elsewhere (a loaded
  /// snapshot): \p offsets holds one run start per node, \p ranks / \p dists
  /// are the sentinel-terminated parallel planes, and \p payload keeps the
  /// backing storage alive. The snapshot loader validates the arena
  /// invariants (runs in range, ranks in [0, n) or sentinel, final sentinel
  /// present) before calling this.
  static std::unique_ptr<HubLabeling> FromFrozenSections(
      Span<const uint32_t> offsets, Span<const int32_t> ranks,
      Span<const double> dists, size_t total_entries,
      std::shared_ptr<const void> payload);

  /// Exact shortest-path cost (infinity if disconnected): pins s into
  /// ThreadScratch(), walks t's run, unpins.
  double Query(NodeId s, NodeId t) const;

  // One-to-many protocol: PinSource spreads s's label into \p scratch
  // (>= num_ranks() doubles, all +infinity), QueryPinned answers targets
  // with results identical to Query(s, t), UnpinSource restores the
  // all-infinity invariant.
  size_t num_ranks() const { return offsets_view_.size(); }
  void PinSource(NodeId s, double* scratch) const;
  double QueryPinned(const double* scratch, NodeId t) const;
  void UnpinSource(NodeId s, double* scratch) const;

  /// The calling thread's scratch, shared by Query and pinned batches:
  /// >= num_ranks() doubles, all +infinity between pin/unpin pairs. Valid
  /// until the thread calls this on a larger labeling.
  double* ThreadScratch() const;

  // Arena section views for serialization (roadnet/snapshot.cc). The rank
  // and distance planes include the per-node sentinels.
  Span<const uint32_t> label_offsets() const { return offsets_view_; }
  Span<const int32_t> rank_plane() const { return ranks_view_; }
  Span<const double> dist_plane() const { return dists_view_; }

  size_t TotalLabelEntries() const { return total_entries_; }
  size_t MemoryBytes() const;

 private:
  HubLabeling() = default;

  // Node-major label arena: node v's run is [offsets[v], sentinel), with
  // ranks ascending per run and dists[k] the matching distance. The vectors
  // hold the owned (built) arena; the views are what queries read and point
  // either at the vectors or at borrowed snapshot sections.
  std::vector<int32_t> ranks_;
  std::vector<double> dists_;
  std::vector<uint32_t> offsets_;  ///< start of node v's run
  Span<const int32_t> ranks_view_;
  Span<const double> dists_view_;
  Span<const uint32_t> offsets_view_;
  std::shared_ptr<const void> payload_;  ///< keeps borrowed sections alive
  size_t total_entries_ = 0;             ///< real entries (sentinels excluded)
};

}  // namespace structride
