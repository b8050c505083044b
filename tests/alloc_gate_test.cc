// The allocation gate (DESIGN.md §8). This binary links
// util/counting_new.cc, so global operator new/delete really count — which
// turns two promises into assertions:
//
//  1. EpochArena semantics: Reset retains chunks (a warmed arena re-serves
//     the same workload with zero heap allocations), Save/Restore gives
//     scopes a stack discipline, and the process-wide retained-byte
//     accounting moves only on the cold paths.
//  2. The pooled dispatcher hot paths (SARD, GAS, RTV) perform zero heap
//     allocations on a steady-state batch: after one warm-up round over a
//     fixed pending pool, re-dispatching the same pool allocates nothing.
//  3. The travel-cost cache's FlatLru fills its reserved entry pool and
//     then evicts without touching the heap, and the per-thread memo in
//     front of it fills and hits without touching the heap, on a fresh
//     thread's first calls too.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "batch_context.h"
#include "dispatch/dispatcher.h"
#include "roadnet/flat_lru.h"
#include "roadnet/generator.h"
#include "roadnet/travel_cost.h"
#include "sim/workload.h"
#include "util/alloc_gate.h"
#include "util/arena.h"

namespace structride {
namespace {

TEST(AllocGateTest, CountingAllocatorIsInstalledHere) {
  ASSERT_TRUE(HeapAllocCountingActive());
  uint64_t before = CurrentHeapAllocCount();
  int* p = new int(7);
  EXPECT_GT(CurrentHeapAllocCount(), before);
  delete p;
}

TEST(AllocGateTest, ArenaResetRetainsChunksAndReservesZeroAllocSteadyState) {
  EpochArena arena(/*first_chunk_bytes=*/1024);
  const uint64_t epoch0 = arena.epoch();
  // Warm-up epoch: force growth across several chunks.
  for (int i = 0; i < 64; ++i) arena.AllocateArray<double>(100);
  const size_t retained = arena.retained_bytes();
  EXPECT_GT(retained, size_t{1024});
  EXPECT_GE(EpochArena::ProcessRetainedBytes(), retained);
  EXPECT_GE(EpochArena::ProcessPeakRetainedBytes(),
            EpochArena::ProcessRetainedBytes());

  arena.Reset();
  EXPECT_EQ(arena.epoch(), epoch0 + 1);
  EXPECT_EQ(arena.retained_bytes(), retained);  // chunks survive
  EXPECT_EQ(arena.used_bytes(), size_t{0});

  // Steady-state epoch: the identical workload re-served from warm chunks
  // must not touch the heap at all.
  uint64_t before = CurrentHeapAllocCount();
  for (int i = 0; i < 64; ++i) arena.AllocateArray<double>(100);
  EXPECT_EQ(CurrentHeapAllocCount() - before, uint64_t{0});
  EXPECT_EQ(arena.retained_bytes(), retained);
}

TEST(AllocGateTest, ArenaScopeRewindsToTheSameStorage) {
  EpochArena arena;
  void* outer = arena.Allocate(64);
  void* inner1;
  {
    ArenaScope scope(arena);
    inner1 = scope.AllocateArray<char>(128);
    EXPECT_NE(inner1, outer);
  }
  // The scope died, so its block is re-issued to the next caller.
  void* inner2 = arena.Allocate(128, alignof(char));
  EXPECT_EQ(inner1, inner2);

  // Zero-byte requests get distinct, valid storage.
  void* a = arena.Allocate(0);
  void* b = arena.Allocate(0);
  EXPECT_NE(a, nullptr);
  EXPECT_NE(a, b);
}

// The entry pool is reserved at construction and appended to as the cache
// fills, so filling to capacity and evicting from then on allocate nothing.
TEST(AllocGateTest, FlatLruFillsAndEvictsWithoutAllocating) {
  constexpr uint64_t kCapacity = 4096;
  FlatLru lru(kCapacity);
  const uint64_t before = CurrentHeapAllocCount();
  for (uint64_t k = 0; k < kCapacity; ++k) {
    EXPECT_FALSE(lru.Insert(k, 0.5 * static_cast<double>(k)).has_value());
  }
  EXPECT_EQ(lru.size(), kCapacity);
  for (uint64_t k = kCapacity; k < 3 * kCapacity; ++k) {
    // Untouched since insertion, the oldest key is the LRU victim.
    std::optional<uint64_t> evicted =
        lru.Insert(k, 0.5 * static_cast<double>(k));
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, k - kCapacity);
    const double* hit = lru.Find(k);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, 0.5 * static_cast<double>(k));
  }
  EXPECT_EQ(lru.size(), kCapacity);
  EXPECT_EQ(CurrentHeapAllocCount() - before, uint64_t{0});
}

// The memo is static, zero-initialised thread-local storage, so nothing is
// set up on a new thread: on a fresh std::thread, filling the memo from LRU
// hits, hitting it (Cost and CostMany), and filling it from inserts once the
// thread's hub-label scratch exists allocate nothing.
TEST(AllocGateTest, TravelCostMemoFillsAndHitsWithoutAllocating) {
  CityOptions opt;
  opt.rows = 12;
  opt.cols = 12;
  opt.seed = 53;
  RoadNetwork net = GenerateGridCity(opt);
  TravelCostEngine engine(net);
  const NodeId n = static_cast<NodeId>(net.num_nodes());
  for (NodeId s = 0; s < n; ++s) engine.Cost(s, n - 1 - s);  // LRU warm

  uint64_t lru_hit_fills = 0, memo_hits = 0, many_hits = 0,
           insert_fills = 0;
  std::thread([&] {
    uint64_t before = CurrentHeapAllocCount();
    for (NodeId s = 0; s < n; ++s) engine.Cost(s, n - 1 - s);
    lru_hit_fills = CurrentHeapAllocCount() - before;

    before = CurrentHeapAllocCount();
    for (NodeId s = 0; s < n; ++s) engine.Cost(n - 1 - s, s);
    memo_hits = CurrentHeapAllocCount() - before;

    const NodeId targets[] = {n - 1, 0, n - 1};  // memo-warm, self, again
    double out[3];
    before = CurrentHeapAllocCount();
    engine.CostMany(0, {targets, 3}, out);
    many_hits = CurrentHeapAllocCount() - before;

    engine.Cost(1, 2);  // the first miss sizes this thread's label scratch
    before = CurrentHeapAllocCount();
    for (NodeId s = 0; s + 5 < n; ++s) engine.Cost(s, s + 5);
    insert_fills = CurrentHeapAllocCount() - before;
  }).join();
  EXPECT_EQ(lru_hit_fills, 0u);
  EXPECT_EQ(memo_hits, 0u);
  EXPECT_EQ(many_hits, 0u);
  EXPECT_EQ(insert_fills, 0u);
  // Every call is a lookup, memo hits included.
  const uint64_t calls = static_cast<uint64_t>(n);
  EXPECT_EQ(engine.num_lookups(), calls + calls + calls + 3 + 1 + calls - 5);
}

// The dispatcher-level gate. The context is built the way the engine builds
// it (tests/batch_context.h) over a pending pool of riders
// whose deadlines already passed: every feasibility check fails, nothing
// commits, so the fleet and pending pool are identical round after round.
// Round 1 warms every pool (arena chunks, fleet index, grouping scratch,
// thread scratch, travel-cost cache); rounds 2 and 3 are steady-state and
// must allocate nothing.
class DispatcherGateTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DispatcherGateTest, SteadyStateBatchAllocatesNothing) {
  ASSERT_TRUE(HeapAllocCountingActive());
  CityOptions opt;
  opt.rows = 12;
  opt.cols = 12;
  opt.seed = 53;
  RoadNetwork net = GenerateGridCity(opt);
  TravelCostEngine engine(net);
  DeadlinePolicy policy;
  policy.gamma = 1.8;
  WorkloadOptions wopts;
  wopts.num_requests = 24;
  wopts.duration = 40;
  wopts.seed = 17;
  std::vector<Request> requests =
      GenerateWorkload(net, &engine, policy, wopts);
  for (Request& r : requests) {
    r.latest_pickup = -1000;  // expired: nothing is ever feasible
    r.deadline = -1000;
  }

  std::vector<Vehicle> fleet;
  for (int i = 0; i < 6; ++i) {
    fleet.emplace_back(i, requests[static_cast<size_t>(i)].source, 4);
  }

  DispatchConfig config;
  config.vehicle_capacity = 4;
  config.grouping.max_group_size = 4;
  config.sharegraph.vehicle_capacity = 4;
  std::unique_ptr<Dispatcher> dispatcher =
      MakeDispatcher(GetParam(), config);

  BatchContext batch(&engine, &fleet, config);
  for (const Request& r : requests) batch.ctx.pending.push_back(&r);

  for (int round = 1; round <= 3; ++round) {
    DispatchContext* ctx = batch.Round(100 + 5 * round);
    uint64_t before = CurrentHeapAllocCount();
    dispatcher->OnBatch(ctx);
    uint64_t allocs = CurrentHeapAllocCount() - before;
    EXPECT_TRUE(ctx->assigned.empty());
    if (round >= 2) {
      EXPECT_EQ(allocs, uint64_t{0})
          << GetParam() << " allocated on steady-state round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PooledDispatchers, DispatcherGateTest,
                         ::testing::Values("SARD", "GAS", "RTV"));

}  // namespace
}  // namespace structride
