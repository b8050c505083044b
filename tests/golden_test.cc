// Golden digests of the dispatch library's observable outcomes (DESIGN.md
// §8). Every dispatcher runs end to end on the three dataset presets, and
// the insertion operator, the kinetic tree and group enumeration run on
// seeded random inputs; each result is compared field by field with the
// checked-in table in tests/golden_digests.inc.
//
// The tables were recorded while a second, vector-backed implementation of
// every one of these algorithms still existed, with both implementations
// agreeing in every cell, so the digests carry that reference forward
// without keeping its code. Likewise every end-to-end row was reproduced,
// on every outcome field, by the reference paths it could run — the frozen
// fixed-batch engine, the rebuild-per-batch share graph, the full-fleet
// distance sort and the serial shard loop — before those were deleted.
//
// Re-recording needs no knob: on any mismatch a test prints its whole
// current table in the checked-in format. A change meant to move outcomes
// pastes that block over the same-named table in golden_digests.inc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/insertion.h"
#include "core/kinetic_tree.h"
#include "group/grouping.h"
#include "roadnet/generator.h"
#include "sharegraph/builder.h"
#include "sim/datasets.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "sim/workload.h"
#include "util/random.h"

namespace structride {
namespace {

// --------------------------------------------------------- golden tables --

struct EngineGolden {
  const char* dataset;
  const char* algorithm;
  int threads;
  int shards;
  int served;
  int cancelled;
  int late_dropoffs;
  uint64_t sp_queries;
  uint64_t pair_checks;
  uint64_t memory_bytes;
  // IEEE-754 bit patterns: the doubles are pinned bitwise.
  uint64_t unified_cost;
  uint64_t travel_cost;
  uint64_t penalty_cost;
  uint64_t service_rate;
  uint64_t pickup_wait_p50;
  uint64_t pickup_wait_p99;
  uint64_t mean_detour_ratio;
  int expired;
  int rejected;
  int cross_shard_trips;
  uint64_t shard_load_max_over_mean;  ///< bit pattern
  uint64_t shard_sp_queries;          ///< digest of the per-shard vector
  int repositions;
  uint64_t reposition_cost;  ///< bit pattern
  const char* scenario;
};

struct GroupingGolden {
  uint64_t groups;  ///< digest of count, truncation, members, deltas, stops
  uint64_t memory_bytes;
};

#include "golden_digests.inc"

// ---------------------------------------------------------------- digest --

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// FNV-1a over the little-endian bytes of each folded word.
class Digest {
 public:
  void Word(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void Real(double d) { Word(Bits(d)); }
  void Stops(Span<const Stop> stops) {
    Word(stops.size());
    for (const Stop& s : stops) {
      Word(static_cast<uint64_t>(s.request));
      Word(static_cast<uint64_t>(s.node));
      Word(static_cast<uint64_t>(s.kind));
      Real(s.earliest);
      Real(s.deadline);
    }
  }
  void Group(Span<const RequestId> members, double delta,
             Span<const Stop> stops) {
    Word(members.size());
    for (RequestId m : members) Word(static_cast<uint64_t>(m));
    Real(delta);
    Stops(stops);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

std::string PrintWords(const char* name, const std::vector<uint64_t>& rows) {
  std::string out = std::string("const uint64_t ") + name + "[] = {\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    out += (i % 3 == 0 ? "    " : " ") + Hex(rows[i]) + ",";
    if (i % 3 == 2 || i + 1 == rows.size()) out += "\n";
  }
  return out + "};\n";
}

template <size_t N>
void ExpectWords(const char* name, const uint64_t (&golden)[N],
                 const std::vector<uint64_t>& current) {
  bool match = current.size() == N;
  for (size_t i = 0; match && i < N; ++i) match = golden[i] == current[i];
  EXPECT_TRUE(match) << name << " differs from tests/golden_digests.inc; "
                     << "the current table is:\n"
                     << PrintWords(name, current);
}

// ---------------------------------------------------- per-trial fixtures --

struct SeededFixture : public ::testing::Test {
  SeededFixture() {
    CityOptions opt;
    opt.rows = 12;
    opt.cols = 12;
    opt.seed = 47;
    net = GenerateGridCity(opt);
    engine = std::make_unique<TravelCostEngine>(net);
    DeadlinePolicy policy;
    policy.gamma = 1.8;
    WorkloadOptions wopts;
    wopts.num_requests = 80;
    wopts.duration = 80;
    wopts.seed = 13;
    requests = GenerateWorkload(net, engine.get(), policy, wopts);
  }
  const Request& Pick(Rng* rng) const {
    return requests[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(requests.size()) - 1))];
  }
  RoadNetwork net;
  std::unique_ptr<TravelCostEngine> engine;
  std::vector<Request> requests;
};

// BestInsertion over random schedules, with and without pruning, and the
// schedule ApplyInsertionInto grows from each winner. One digest per trial
// covers feasibility, positions, delta and total cost, and every stop.
TEST_F(SeededFixture, InsertionMatchesGolden) {
  Rng rng(99);
  std::vector<uint64_t> current;
  int feasible = 0;
  for (int trial = 0; trial < 20; ++trial) {
    Digest d;
    RouteState state;
    state.start = Pick(&rng).source;
    state.start_time = 0;
    state.capacity = static_cast<int>(rng.UniformInt(2, 6));
    Schedule schedule;
    for (int step = 0; step < 6; ++step) {
      const Request& r = Pick(&rng);
      for (bool pruning : {true, false}) {
        InsertionOptions opts;
        opts.use_pruning = pruning;
        InsertionCandidate c =
            BestInsertion(state, schedule, r, engine.get(), opts);
        d.Word(c.feasible);
        if (!c.feasible) continue;
        d.Word(c.pickup_pos);
        d.Word(c.dropoff_pos);
        d.Real(c.delta_cost);
        d.Real(c.total_cost);
        ++feasible;
      }
      InsertionCandidate grow = BestInsertion(state, schedule, r, engine.get());
      if (grow.feasible) {
        std::vector<Stop> staged(schedule.size() + 2);
        size_t len =
            ApplyInsertionInto(schedule.stops(), r, grow, staged.data());
        d.Stops({staged.data(), len});
        staged.resize(len);
        schedule = Schedule(std::move(staged));
      }
    }
    current.push_back(d.value());
  }
  EXPECT_GT(feasible, 20);
  ExpectWords("kInsertionGolden", kInsertionGolden, current);
}

// The SchedulePool-backed kinetic tree, insert after insert: the insert
// verdict, every held ordering in sequence, and the best cost.
TEST_F(SeededFixture, KineticTreeMatchesGolden) {
  Rng rng(7);
  std::vector<uint64_t> current;
  int inserted = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const Request& seed = Pick(&rng);
    RouteState state;
    state.start = seed.source;
    state.start_time = seed.release_time;
    state.capacity = 4;
    KineticTree tree(state);
    Digest d;
    for (int step = 0; step < 5; ++step) {
      bool ok = tree.Insert(Pick(&rng), engine.get());
      d.Word(ok);
      d.Word(tree.NumSchedules());
      for (size_t i = 0; i < tree.NumSchedules(); ++i) {
        d.Stops(tree.ScheduleAt(i));
      }
      d.Real(tree.BestCost(engine.get()));
      if (ok) ++inserted;
    }
    current.push_back(d.value());
  }
  EXPECT_GT(inserted, 5);
  ExpectWords("kKineticTreeGolden", kKineticTreeGolden, current);
}

uint64_t DigestGroups(const GroupingScratch& scratch,
                      const PooledGroupingResult& res) {
  Digest d;
  d.Word(res.count);
  d.Word(res.truncated);
  for (size_t gi = 0; gi < res.count; ++gi) {
    const PooledGroup& g = scratch.groups[res.first_group + gi];
    d.Group(scratch.MembersOf(g), g.delta_cost, scratch.ScheduleOf(g));
  }
  return d.value();
}

uint64_t DigestGroups(const GroupingResult& res) {
  Digest d;
  d.Word(res.groups.size());
  d.Word(res.truncated);
  for (const CandidateGroup& g : res.groups) {
    d.Group(g.members, g.delta_cost, g.schedule.stops());
  }
  return d.value();
}

// EnumerateGroupsPooled under both insertion-order policies: the group
// sequence (members, schedules, deltas, truncation) and the instrumented
// bytes. Two passes over one Reset cycle must agree, the second on warmed
// scratch capacity, and the EnumerateGroups copy-out must carry the same
// groups.
TEST_F(SeededFixture, GroupingMatchesGolden) {
  ShareGraphBuilderOptions bopts;
  bopts.vehicle_capacity = 3;
  ShareGraphBuilder builder(engine.get(), bopts);
  builder.AddBatch(requests);

  std::vector<const Request*> pool;
  for (const Request& r : requests) pool.push_back(&r);

  GroupingScratch scratch;
  Rng rng(23);
  std::vector<uint64_t> groups, bytes;
  for (auto policy : {InsertionOrderPolicy::kByShareability,
                      InsertionOrderPolicy::kBestOfAllParents}) {
    for (int trial = 0; trial < 4; ++trial) {
      RouteState state;
      state.start = Pick(&rng).source;
      state.start_time = 0;
      state.capacity = 3;
      GroupingOptions gopts;
      gopts.max_group_size = 3;
      gopts.insertion_order = policy;

      uint64_t first = 0;
      for (int pass = 0; pass < 2; ++pass) {
        scratch.Reset();
        PooledGroupingResult res = EnumerateGroupsPooled(
            state, Span<const Stop>(nullptr, 0),
            Span<const Request* const>(pool.data(), pool.size()),
            &builder.graph(), engine.get(), gopts, &scratch);
        const uint64_t digest = DigestGroups(scratch, res);
        if (pass == 0) {
          first = digest;
          groups.push_back(digest);
          bytes.push_back(PooledGroupingMemoryBytes(scratch, res));
        } else {
          EXPECT_EQ(digest, first) << "warm-scratch pass diverged";
        }
      }
      GroupingResult copied = EnumerateGroups(
          state, Schedule(), requests, &builder.graph(), engine.get(), gopts);
      EXPECT_EQ(DigestGroups(copied), first);
    }
  }

  std::vector<uint64_t> golden_groups, golden_bytes;
  for (const GroupingGolden& g : kGroupingGolden) {
    golden_groups.push_back(g.groups);
    golden_bytes.push_back(g.memory_bytes);
  }
  if (groups != golden_groups || bytes != golden_bytes) {
    std::string table = "const GroupingGolden kGroupingGolden[] = {\n";
    for (size_t i = 0; i < groups.size(); ++i) {
      table += "    {" + Hex(groups[i]) + ", " + std::to_string(bytes[i]) +
               "},\n";
    }
    ADD_FAILURE() << "kGroupingGolden differs from tests/golden_digests.inc; "
                  << "the current table is:\n"
                  << table << "};\n";
  }
}

// ------------------------------------------------------------ end to end --

struct CellKey {
  std::string dataset;
  std::string algorithm;
  int threads;
  int shards;
  /// "default", or a run condition RunCell layers on: "faults" (rider
  /// cancellations and capacity variance), "mode-switch" (online dispatch
  /// from a quarter of the stream on), "seed-777" (another fleet spawn and
  /// fault-model stream).
  std::string scenario;
};

std::vector<CellKey> EngineCells() {
  std::vector<CellKey> cells;
  for (const char* ds : {"CHD", "NYC", "Cainiao"}) {
    for (const char* algo :
         {"RTV", "pruneGDP", "GAS", "TicketAssign+", "DARM+DPRS", "SARD"}) {
      cells.push_back({ds, algo, 1, 1, "default"});
    }
    cells.push_back({ds, "SARD", 8, 1, "default"});
    cells.push_back({ds, "SARD", 8, 4, "default"});
  }
  // The serial shard loop: one thread runs the shards' batches in shard-id
  // order, and must match the concurrent 8-thread rows above.
  for (const char* ds : {"CHD", "NYC", "Cainiao"}) {
    cells.push_back({ds, "SARD", 1, 4, "default"});
  }
  for (const char* ds : {"CHD", "NYC", "Cainiao"}) {
    cells.push_back({ds, "SARD", 1, 1, "seed-777"});
    cells.push_back({ds, "SARD", 8, 1, "seed-777"});
  }
  cells.push_back({"CHD", "SARD", 1, 1, "faults"});
  cells.push_back({"CHD", "SARD", 1, 1, "mode-switch"});
  return cells;
}

// A preset shrunk to unit-test size, with a fresh network, travel-cost
// cache and fault-model RNG per run. The fleet has at least 24 vehicles, so
// the 16-vehicle candidate scans of SARD, TicketAssign+ and DARM+DPRS
// leave vehicles out.
RunMetrics RunCell(const CellKey& cell) {
  DatasetSpec spec = DatasetByName(cell.dataset, 0.05);
  const int side =
      cell.dataset == "CHD" ? 16 : (cell.dataset == "NYC" ? 18 : 14);
  spec.city.rows = side;
  spec.city.cols = side;
  RoadNetwork net = BuildNetwork(&spec);
  TravelCostEngine engine(net);
  auto reqs = GenerateWorkload(net, &engine, spec.policy, spec.workload);
  SimulationOptions sopts;
  sopts.batch_period = 5;
  sopts.seed = cell.scenario == "seed-777" ? 777 : 4242;
  sopts.dataset = spec.name;
  if (cell.scenario == "faults") {
    sopts.cancellation_rate = 0.4;
    sopts.cancellation_patience = 15;
    sopts.capacity_sigma = 1.0;
    sopts.capacity_mean = spec.capacity;
  }
  SimulationEngine sim(&engine, reqs, sopts);
  sim.SpawnFleet(std::max(24, spec.num_vehicles), spec.capacity);
  if (cell.scenario == "mode-switch") {
    sim.AddScenario(MakeDispatchModeSwitch(
        0.25 * spec.workload.duration,
        std::numeric_limits<double>::infinity()));
  }
  DispatchConfig config;
  config.vehicle_capacity = spec.capacity;
  config.grouping.max_group_size = spec.capacity;
  config.sharegraph.vehicle_capacity = spec.capacity;
  if (cell.threads > 1) {
    config.sard_parallel_acceptance = true;
    config.num_threads = cell.threads;
  }
  config.num_shards = cell.shards;
  return sim.Run(cell.algorithm, config);
}

EngineGolden ToGolden(const CellKey& key, const RunMetrics& m) {
  Digest shard_sp;
  shard_sp.Word(m.shard_sp_queries.size());
  for (uint64_t q : m.shard_sp_queries) shard_sp.Word(q);
  return {key.dataset.c_str(),      key.algorithm.c_str(),
          key.threads,              key.shards,
          m.served,                 m.cancelled,
          m.late_dropoffs,          m.sp_queries,
          m.sharegraph_pair_checks, m.memory_bytes,
          Bits(m.unified_cost),     Bits(m.travel_cost),
          Bits(m.penalty_cost),     Bits(m.service_rate),
          Bits(m.pickup_wait_p50),  Bits(m.pickup_wait_p99),
          Bits(m.mean_detour_ratio),
          m.expired,                m.rejected,
          m.cross_shard_trips,      Bits(m.shard_load_max_over_mean),
          shard_sp.value(),         m.repositions,
          Bits(m.reposition_cost),  key.scenario.c_str()};
}

std::string PrintEngineTable(const std::vector<EngineGolden>& rows) {
  std::string out = "const EngineGolden kEngineGolden[] = {\n";
  char buf[640];
  for (const EngineGolden& g : rows) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"%s\", \"%s\", %d, %d,\n"
                  "     %d, %d, %d, %" PRIu64 ", %" PRIu64 ", %" PRIu64 ",\n"
                  "     %s, %s, %s,\n"
                  "     %s, %s, %s,\n"
                  "     %s,\n"
                  "     %d, %d, %d, %s, %s, %d, %s,\n"
                  "     \"%s\"},\n",
                  g.dataset, g.algorithm, g.threads, g.shards, g.served,
                  g.cancelled, g.late_dropoffs, g.sp_queries, g.pair_checks,
                  g.memory_bytes, Hex(g.unified_cost).c_str(),
                  Hex(g.travel_cost).c_str(), Hex(g.penalty_cost).c_str(),
                  Hex(g.service_rate).c_str(), Hex(g.pickup_wait_p50).c_str(),
                  Hex(g.pickup_wait_p99).c_str(),
                  Hex(g.mean_detour_ratio).c_str(), g.expired, g.rejected,
                  g.cross_shard_trips,
                  Hex(g.shard_load_max_over_mean).c_str(),
                  Hex(g.shard_sp_queries).c_str(), g.repositions,
                  Hex(g.reposition_cost).c_str(), g.scenario);
    out += buf;
  }
  return out + "};\n";
}

double Real(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// dispatcher x preset x threads x shards x scenario: served, cancelled,
// late dropoffs, SP queries, pair checks, instrumented memory, expired,
// rejected, cross-shard trips, repositions, a digest of the per-shard SP
// queries, and the bit patterns of unified/travel/penalty cost, service
// rate, pickup-wait p50/p99, mean detour, shard load max/mean and
// reposition cost.
TEST(GoldenEngineTest, EveryDispatcherMatchesGolden) {
  const std::vector<CellKey> cells = EngineCells();
  EXPECT_EQ(std::size(kEngineGolden), cells.size());
  std::vector<EngineGolden> current;  // views into `cells`' strings
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellKey& key = cells[i];
    SCOPED_TRACE(key.dataset + " " + key.algorithm +
                 " threads=" + std::to_string(key.threads) +
                 " shards=" + std::to_string(key.shards) + " " +
                 key.scenario);
    const RunMetrics m = RunCell(key);
    // Live checks on what the table does not store: the engine stamps the
    // preset name and shard count, and every request reaches exactly one
    // terminal outcome.
    EXPECT_EQ(m.dataset, key.dataset);
    EXPECT_EQ(m.num_shards, key.shards);
    EXPECT_EQ(m.served + m.cancelled + m.expired + m.rejected + m.late_dropoffs,
              m.total_requests);
    const EngineGolden got = ToGolden(key, m);
    current.push_back(got);
    if (i >= std::size(kEngineGolden)) continue;
    const EngineGolden& want = kEngineGolden[i];
    EXPECT_TRUE(key.dataset == want.dataset &&
                key.algorithm == want.algorithm &&
                key.threads == want.threads && key.shards == want.shards &&
                key.scenario == want.scenario)
        << "golden row " << i << " is " << want.dataset << " "
        << want.algorithm << " threads=" << want.threads
        << " shards=" << want.shards << " " << want.scenario;
    EXPECT_EQ(got.served, want.served);
    EXPECT_EQ(got.cancelled, want.cancelled);
    EXPECT_EQ(got.late_dropoffs, want.late_dropoffs);
    EXPECT_EQ(got.sp_queries, want.sp_queries);
    EXPECT_EQ(got.pair_checks, want.pair_checks);
    EXPECT_EQ(got.memory_bytes, want.memory_bytes);
    EXPECT_EQ(got.unified_cost, want.unified_cost)
        << Real(got.unified_cost) << " vs " << Real(want.unified_cost);
    EXPECT_EQ(got.travel_cost, want.travel_cost)
        << Real(got.travel_cost) << " vs " << Real(want.travel_cost);
    EXPECT_EQ(got.penalty_cost, want.penalty_cost)
        << Real(got.penalty_cost) << " vs " << Real(want.penalty_cost);
    EXPECT_EQ(got.service_rate, want.service_rate)
        << Real(got.service_rate) << " vs " << Real(want.service_rate);
    EXPECT_EQ(got.pickup_wait_p50, want.pickup_wait_p50)
        << Real(got.pickup_wait_p50) << " vs " << Real(want.pickup_wait_p50);
    EXPECT_EQ(got.pickup_wait_p99, want.pickup_wait_p99)
        << Real(got.pickup_wait_p99) << " vs " << Real(want.pickup_wait_p99);
    EXPECT_EQ(got.mean_detour_ratio, want.mean_detour_ratio)
        << Real(got.mean_detour_ratio) << " vs "
        << Real(want.mean_detour_ratio);
    EXPECT_EQ(got.expired, want.expired);
    EXPECT_EQ(got.rejected, want.rejected);
    EXPECT_EQ(got.cross_shard_trips, want.cross_shard_trips);
    EXPECT_EQ(got.shard_load_max_over_mean, want.shard_load_max_over_mean)
        << Real(got.shard_load_max_over_mean) << " vs "
        << Real(want.shard_load_max_over_mean);
    EXPECT_EQ(got.shard_sp_queries, want.shard_sp_queries);
    EXPECT_EQ(got.repositions, want.repositions);
    EXPECT_EQ(got.reposition_cost, want.reposition_cost)
        << Real(got.reposition_cost) << " vs " << Real(want.reposition_cost);
  }
  if (::testing::Test::HasFailure()) {
    ADD_FAILURE() << "kEngineGolden differs from tests/golden_digests.inc; "
                  << "the current table is:\n"
                  << PrintEngineTable(current);
  }
}

}  // namespace
}  // namespace structride
