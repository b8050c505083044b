// Shareability-graph construction (Alg. 1), maintained incrementally across
// batches (DESIGN.md §7): fold request batches into the graph by testing
// pairwise joint-service feasibility with the travel-cost engine, and peel
// closed requests back out in O(degree) as assignment / cancellation /
// expiry events retire them — instead of rebuilding the graph from scratch
// over the whole pending pool every batch. The angle pruning (Sec. III-B)
// screens divergent-direction pairs with a free Euclidean lower-bound walk
// before spending shortest-path queries; because the lower bound never
// overestimates, the pruned graph is identical to the unpruned one — only
// cheaper to build.
//
// Lifetimes: a pair (a, b) is exactly-checked at most once per request
// lifetime, by construction rather than by bookkeeping. AddRequests skips
// ids already present and pairs each newly added request only with the
// requests added before it (earlier batches, then earlier members of its
// own batch), so a pair is examined exactly once: when the later of its two
// requests arrives. A pair can be examined again only if one of its
// requests leaves (RemoveRequest ends its lifetime) and is then re-added,
// which starts a new lifetime and re-evaluates its pairs from scratch.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/schedule.h"
#include "geo/angle.h"
#include "sharegraph/share_graph.h"
#include "util/span.h"

namespace structride {

class ThreadPool;

struct ShareGraphBuilderOptions {
  bool use_angle_pruning = false;
  /// Seats on the (hypothetical) shared vehicle; pairs share iff
  /// min(2, vehicle_capacity) seats admit an overlapping order.
  int vehicle_capacity = 4;
  /// Pairs whose trip directions diverge by at least this angle go through
  /// the lower-bound screen first (paper default: pi/2).
  double angle_threshold = kPi / 2;
};

class ShareGraphBuilder {
 public:
  ShareGraphBuilder(TravelCostEngine* engine, ShareGraphBuilderOptions options)
      : engine_(engine), options_(options) {}

  /// Adds a batch: nodes for every request, then shareability edges among
  /// the batch and against all previously added requests. With a pool set,
  /// the pairwise feasibility checks (the dominant cost of a dispatch
  /// batch) run on the workers; edges are still committed serially in the
  /// canonical (insertion-order) sequence, so the graph — and, because pair
  /// checks are mutually independent, the set of travel-cost pairs queried —
  /// is identical at any thread count. Each new request's pickup-to-pickup
  /// legs are prefetched through TravelCostEngine::CostMany (one source, all
  /// candidate partners), which pins the source's hub label once without
  /// changing the query set (DESIGN.md §5).
  void AddRequests(Span<const Request> batch);
  void AddRequests(const std::vector<Request>& batch) {
    AddRequests(Span<const Request>(batch));
  }
  /// Historical name for AddRequests; kept for the call sites that fold a
  /// whole pool in one shot.
  void AddBatch(const std::vector<Request>& batch) {
    AddRequests(Span<const Request>(batch));
  }

  /// Removes one request: its node and edges leave the graph in O(degree)
  /// via the adjacency lists, and its slot in the insertion order is
  /// tombstoned (compacted lazily). Unknown ids are
  /// ignored, so lifecycle events may fire for requests that never
  /// reached a dispatch round. Returns whether the request was present —
  /// under geo-sharding a lifecycle event retires a request from every
  /// shard's builder, and only the shard(s) that synced it report true.
  bool RemoveRequest(RequestId id);
  void RemoveRequests(const std::vector<RequestId>& ids);

  /// Drops every request not in \p keep (assigned, expired or cancelled
  /// riders leave the graph; the paper's builder only carries open
  /// requests between batches).
  void Retain(Span<const RequestId> keep);
  void Retain(const std::vector<RequestId>& keep) {
    Retain(Span<const RequestId>(keep));
  }

  /// One-call delta sync against a dispatch round's open set: removes every
  /// request no longer pending, then folds the unseen ones in. Under
  /// engine-driven event removals the removal half is a no-op sweep; for
  /// hand-built contexts it is what keeps the graph honest.
  void SyncToPending(const std::vector<const Request*>& pending);

  /// Optional worker pool for AddRequests; null (the default) runs
  /// serially. Not owned; the caller keeps it alive across calls.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  const ShareGraph& graph() const { return graph_; }
  ShareGraph* mutable_graph() { return &graph_; }

  const Request& request(RequestId id) const;
  bool has_request(RequestId id) const { return requests_.count(id) > 0; }
  size_t num_requests() const { return requests_.size(); }

  /// Exact pairwise test: can one two-seat vehicle serve both requests with
  /// overlapping rides, within both deadlines? Costs shortest-path queries.
  bool Shareable(const Request& a, const Request& b) const;

  /// Pairs short-circuited by the angle screen (no shortest-path queries).
  uint64_t pruned_pairs() const { return pruned_pairs_; }
  /// Exact pairwise feasibility evaluations (Shareable runs) performed —
  /// the redundancy metric the incremental-vs-rebuild bench gates on.
  uint64_t pair_checks() const { return pair_checks_; }

  size_t MemoryBytes() const;

 private:
  bool AngleWide(const Request& a, const Request& b) const;
  /// False only when the pair is provably unshareable under the Euclidean
  /// lower-bound metric.
  bool LowerBoundShareable(const Request& a, const Request& b) const;

  template <typename Check>
  bool AnyJointOrderFeasible(const Request& a, const Request& b,
                             Check check) const;

  TravelCostEngine* engine_;
  ShareGraphBuilderOptions options_;
  ThreadPool* pool_ = nullptr;  ///< not owned
  /// The graph's node sequence doubles as the deterministic pairing order:
  /// every request is added to / removed from graph_ in lockstep with
  /// requests_, so graph_.Nodes() IS the insertion order of the live set.
  ShareGraph graph_;
  std::unordered_map<RequestId, Request> requests_;
  uint64_t pruned_pairs_ = 0;
  uint64_t pair_checks_ = 0;
};

}  // namespace structride
