#include "roadnet/flat_lru.h"

#include "util/bits.h"
#include "util/logging.h"

namespace structride {

FlatLru::FlatLru(size_t capacity) {
  if (capacity == 0) capacity = 1;
  capacity_ = capacity;
  entries_.reserve(capacity);
  // <= 50% load keeps linear-probe chains short even at full capacity.
  size_t buckets = RoundUpPow2(capacity * 2);
  table_.assign(buckets, -1);
  mask_ = buckets - 1;
  shift_ = 64;
  for (size_t b = buckets; b > 1; b >>= 1) --shift_;
}

size_t FlatLru::HomeBucket(uint64_t key) const {
  // Fibonacci hash: multiply spreads consecutive canonical pair keys, the
  // top bits index the power-of-two table.
  return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
}

size_t FlatLru::BucketOf(uint64_t key) const {
  size_t b = HomeBucket(key);
  for (;;) {
    int32_t idx = table_[b];
    SR_CHECK(idx >= 0);  // caller guarantees presence
    if (entries_[static_cast<size_t>(idx)].key == key) return b;
    b = (b + 1) & mask_;
  }
}

void FlatLru::MoveToFront(int32_t idx) {
  if (idx == head_) return;
  Entry& e = entries_[static_cast<size_t>(idx)];
  // Unlink (idx != head_, so e.prev is valid).
  entries_[static_cast<size_t>(e.prev)].next = e.next;
  if (e.next >= 0) {
    entries_[static_cast<size_t>(e.next)].prev = e.prev;
  } else {
    tail_ = e.prev;
  }
  // Relink at the head.
  e.prev = -1;
  e.next = head_;
  entries_[static_cast<size_t>(head_)].prev = idx;
  head_ = idx;
}

const double* FlatLru::Find(uint64_t key) {
  size_t b = HomeBucket(key);
  for (;;) {
    int32_t idx = table_[b];
    if (idx < 0) return nullptr;
    if (entries_[static_cast<size_t>(idx)].key == key) {
      MoveToFront(idx);
      return &entries_[static_cast<size_t>(idx)].value;
    }
    b = (b + 1) & mask_;
  }
}

void FlatLru::EraseBucket(size_t b) {
  // Backward-shift deletion: refill the hole with the next element whose
  // home bucket still reaches it, so no probe chain is ever broken and no
  // tombstones accumulate.
  size_t hole = b;
  size_t j = b;
  for (;;) {
    table_[hole] = -1;
    for (;;) {
      j = (j + 1) & mask_;
      int32_t idx = table_[j];
      if (idx < 0) return;
      size_t home = HomeBucket(entries_[static_cast<size_t>(idx)].key);
      // The hole lies on this element's probe path iff the forward distance
      // home -> j is at least the forward distance hole -> j.
      if (((j - home) & mask_) >= ((j - hole) & mask_)) break;
    }
    table_[hole] = table_[j];
    hole = j;
  }
}

std::optional<uint64_t> FlatLru::Insert(uint64_t key, double value) {
  std::optional<uint64_t> evicted;
  int32_t idx;
  if (entries_.size() == capacity_) {
    // Full: reuse the LRU entry's pool slot.
    idx = tail_;
    Entry& victim = entries_[static_cast<size_t>(idx)];
    evicted = victim.key;
    EraseBucket(BucketOf(victim.key));
    tail_ = victim.prev;
    if (tail_ >= 0) {
      entries_[static_cast<size_t>(tail_)].next = -1;
    } else {
      head_ = -1;
    }
  } else {
    idx = static_cast<int32_t>(entries_.size());
    entries_.emplace_back();
  }

  Entry& e = entries_[static_cast<size_t>(idx)];
  e.key = key;
  e.value = value;
  e.prev = -1;
  e.next = head_;
  if (head_ >= 0) entries_[static_cast<size_t>(head_)].prev = idx;
  head_ = idx;
  if (tail_ < 0) tail_ = idx;

  size_t b = HomeBucket(key);
  while (table_[b] >= 0) {
    SR_CHECK(entries_[static_cast<size_t>(table_[b])].key != key);
    b = (b + 1) & mask_;
  }
  table_[b] = idx;
  return evicted;
}

}  // namespace structride
