// The travel-cost oracle every layer above roadnet/ programs against: a
// point-to-point shortest-path backend behind a lock-striped, sharded LRU
// cache with exact, race-free query accounting so benches can report #SP
// queries per run. Two backends: hub labels (the default, matching the
// paper's setup; ~1 us cold) and index-free bidirectional Dijkstra, the
// reference the labels are tested against.
//
// Concurrency contract (DESIGN.md §"Concurrency model"):
//  - The network is undirected and every backend is symmetric, so the cache
//    key is the canonical (min, max) node pair: Cost(s, t) and Cost(t, s)
//    share one slot and at most one backend computation.
//  - The cache is split into power-of-two shards, each with its own mutex
//    and allocation-free flat LRU (roadnet/flat_lru.h); threads touching
//    different pairs almost never contend.
//  - A backend computation is counted iff its result enters the cache. The
//    miss path computes under the shard lock, which doubles as in-flight
//    deduplication: two threads racing on the same cold pair serialize, the
//    second finds a hit, and num_queries() is identical at 1 and N threads
//    (as long as the working set fits the capacity — eviction order, and
//    hence re-misses, are the one thing access interleaving can change).
//  - In front of the striped LRU sits a per-thread memo: a fixed,
//    direct-mapped table of 4,096 {engine id, pair key, cost} slots in
//    static zero-initialised thread-local storage. Cost and every target of
//    CostMany check it before taking a shard lock; LRU hits and inserts fill
//    it. A memo hit takes no lock and does not touch the LRU, so it skips
//    the relink that dominates an LRU hit; it still counts as a lookup, on
//    a relaxed atomic of the engine, so num_lookups() stays exact. Slots are
//    tagged with a process-unique engine id (never `this`, whose address a
//    later engine may reuse), so partitions and later engines never see each
//    other's entries. Costs never change once computed, so every returned
//    double is the backend's whatever the memo holds. Misses, inserts,
//    num_queries() and the in-flight dedup are the LRU's alone.
//  - Consequence for num_queries(): while the working set fits the capacity
//    nothing is evicted and the count is exact and thread-count invariant.
//    Under eviction a memo hit does not refresh the pair's LRU recency, so
//    which pair is evicted — and hence the re-miss count — can differ from
//    an LRU-only cache; outcomes and returned costs cannot.
//  - CostMany(s, targets) is per-target equivalent to Cost(s, t): the same
//    memo and LRU hits, the same misses, the same counts, in the same order
//    (its lock-free counts are added once, as the call returns) — it only
//    pins the source's hub label once so the batch pays the source-side
//    label walk a single time instead of per pair.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "roadnet/flat_lru.h"
#include "roadnet/road_network.h"
#include "util/span.h"

namespace structride {

class HubLabeling;

struct TravelCostOptions {
  enum class Backend {
    kHubLabeling,
    kBidirectionalDijkstra,
  };
  Backend backend = Backend::kHubLabeling;
  /// Total cached pairs across all shards.
  size_t cache_capacity = 1u << 20;
  /// Lock stripes; rounded up to a power of two, clamped to >= 1.
  size_t cache_shards = 64;
  /// Already-built hub labels to adopt instead of rebuilding — how a
  /// snapshot-loaded GraphBundle's label sections are plugged in. Used only
  /// with the hub-label backend; must outlive the engine (and any
  /// partitions).
  const HubLabeling* prebuilt_hub_labels = nullptr;
};

class TravelCostEngine {
 public:
  explicit TravelCostEngine(const RoadNetwork& net,
                            TravelCostOptions options = {});
  ~TravelCostEngine();

  TravelCostEngine(const TravelCostEngine&) = delete;
  TravelCostEngine& operator=(const TravelCostEngine&) = delete;

  /// Shortest-path travel cost between two nodes. Thread-safe.
  double Cost(NodeId s, NodeId t) const;

  /// Batched one-to-many costs: out[i] = Cost(source, targets[i]), with
  /// identical cache fills, query counts and lookup counts as issuing the
  /// point-to-point calls in order. With the hub-label backend the source's
  /// label is pinned once into the per-thread rank-indexed scratch, so each
  /// miss costs one target-label walk instead of a pin, walk and unpin.
  /// Thread-safe.
  void CostMany(NodeId source, Span<const NodeId> targets, double* out) const;

  /// Admissible lower bound (straight-line distance); free, never counted.
  double LowerBound(NodeId s, NodeId t) const {
    return net_.EuclidLowerBound(s, t);
  }

  const RoadNetwork& network() const { return net_; }
  const TravelCostOptions& options() const { return options_; }

  /// Creates a cache partition: a child engine sharing this engine's frozen
  /// network and shortest-path backend, but owning a private FlatLru shard
  /// set and counters. Concurrent users (one geo-shard each) therefore never
  /// contend on a cache lock, and per-partition num_queries()/num_lookups()
  /// stay exact per user. The parent's num_queries()/num_lookups() aggregate
  /// over itself plus all partitions, live or destroyed (a dying partition
  /// folds its counts into the parent), so whole-process accounting is
  /// unaffected by partition lifetimes. Partitions must not outlive the
  /// parent and cannot themselves be partitioned.
  std::unique_ptr<TravelCostEngine> MakeCachePartition(size_t capacity,
                                                       size_t stripes);
  bool is_partition() const { return parent_ != nullptr; }

  /// Backend shortest-path computations (i.e. entries inserted on misses).
  uint64_t num_queries() const;
  /// All Cost() calls (CostMany counts one per target), memo and LRU hits
  /// included.
  uint64_t num_lookups() const;
  double CacheHitRate() const;

  size_t MemoryBytes() const;

 private:
  struct Shard {
    explicit Shard(size_t capacity) : lru(capacity) {}
    mutable std::mutex mutex;
    FlatLru lru;
    uint64_t queries = 0;  ///< inserts; guarded by mutex, hence exact
    uint64_t lookups = 0;  ///< Cost/CostMany targets routed here; ditto
  };

  /// Partition constructor: shares parent's network + backend, owns a cache.
  TravelCostEngine(TravelCostEngine* parent, size_t capacity, size_t stripes);

  void BuildCache(size_t capacity, size_t stripes);
  double BackendCost(NodeId s, NodeId t) const;
  Shard& ShardFor(uint64_t key) const;
  const HubLabeling* Hl() const {
    if (parent_ != nullptr) return parent_->Hl();
    return options_.prebuilt_hub_labels != nullptr
               ? options_.prebuilt_hub_labels
               : hub_labels_.get();
  }
  /// This engine's own cache counters, partitions excluded.
  uint64_t OwnQueries() const;
  uint64_t OwnLookups() const;
  void RetireChild(const TravelCostEngine* child);

  const RoadNetwork& net_;
  TravelCostOptions options_;
  std::unique_ptr<HubLabeling> hub_labels_;

  /// Tags this engine's per-thread memo slots; unique for the process's
  /// lifetime and never 0 (the value of a zero-initialised slot).
  const uint64_t id_;
  mutable std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_ = 0;
  /// Lookups that take no shard lock: s == t and memo hits. Everything else
  /// is counted under the shard lock it already takes.
  mutable std::atomic<uint64_t> unlocked_lookups_{0};

  /// Partition bookkeeping. parent_ is set on children; children_ and the
  /// retired_* accumulators live on the parent.
  TravelCostEngine* parent_ = nullptr;
  mutable std::mutex children_mutex_;
  std::vector<const TravelCostEngine*> children_;
  std::atomic<uint64_t> retired_queries_{0};
  std::atomic<uint64_t> retired_lookups_{0};
};

}  // namespace structride
