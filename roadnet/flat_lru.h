// Allocation-free LRU map from uint64 keys to double values — the per-shard
// store behind TravelCostEngine's travel-cost cache. One flat entry pool
// with intrusive MRU/LRU links plus an open-addressing index (linear
// probing, backward-shift deletion). All memory is reserved at construction
// and no operation allocates. A hit probes the index and reads the entry
// (two cache lines, not the old std::list + std::unordered_map node chase),
// then relinks the entry at the MRU end, which writes its two list
// neighbours and the old head: up to three more lines, scattered over the
// pool. On a table larger than the CPU caches that relink, not the probe,
// is most of what a hit costs, which is why TravelCostEngine answers
// repeated lookups from a per-thread memo in front of this store. The pool
// is reserved but not written: each insert appends one slot until the pool
// is full, so a cache pays for the entries it holds, not for its capacity.
//
// Semantics match the list-based shard it replaced exactly (tests pin the
// parity): Find touches the entry most-recently-used, Insert evicts the
// least-recently-used entry once `capacity` entries are live, and the
// caller owns the canonical-key and query-count contracts.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace structride {

class FlatLru {
 public:
  /// Reserves the entry pool and index for \p capacity entries (clamped to
  /// >= 1). Nothing allocates after this; pool slots are first written by
  /// the inserts that fill them.
  explicit FlatLru(size_t capacity);

  /// Value stored under \p key, touched most-recently-used; nullptr when
  /// absent. The pointer is valid until the next Insert.
  const double* Find(uint64_t key);

  /// Inserts a key that must not be present (checked), evicting the
  /// least-recently-used entry when full. Returns the evicted key, if any.
  std::optional<uint64_t> Insert(uint64_t key, double value);

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }

  /// Exact bytes of the two flat buffers as reserved (they never grow).
  size_t MemoryBytes() const {
    return entries_.capacity() * sizeof(Entry) +
           table_.capacity() * sizeof(int32_t);
  }

 private:
  struct Entry {
    uint64_t key = 0;
    double value = 0;
    int32_t prev = -1;  ///< toward MRU
    int32_t next = -1;  ///< toward LRU
  };

  size_t HomeBucket(uint64_t key) const;
  /// Index-table bucket currently holding \p key (which must be present).
  size_t BucketOf(uint64_t key) const;
  void MoveToFront(int32_t idx);
  /// Empties bucket \p b, back-shifting displaced entries so every probe
  /// chain stays contiguous.
  void EraseBucket(size_t b);

  /// Pool reserved for capacity_ entries, grown by append until full; the
  /// slot of an entry never moves.
  std::vector<Entry> entries_;
  std::vector<int32_t> table_;  ///< open addressing: entry index or -1
  size_t capacity_ = 0;
  size_t mask_ = 0;
  int shift_ = 0;
  int32_t head_ = -1;  ///< most recently used
  int32_t tail_ = -1;  ///< least recently used
};

}  // namespace structride
