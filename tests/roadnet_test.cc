// Shortest-path substrate: every backend must agree with plain Dijkstra on
// a small grid, and the cached engine must count queries as misses only.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "roadnet/astar.h"
#include "roadnet/dijkstra.h"
#include "roadnet/flat_lru.h"
#include "roadnet/generator.h"
#include "roadnet/hub_labeling.h"
#include "roadnet/importer.h"
#include "roadnet/snapshot.h"
#include "roadnet/travel_cost.h"
#include "sim/datasets.h"
#include "util/random.h"

namespace structride {
namespace {

const RoadNetwork& Net() {
  static RoadNetwork net = [] {
    CityOptions opt;
    opt.rows = 9;
    opt.cols = 9;
    opt.seed = 13;
    return GenerateGridCity(opt);
  }();
  return net;
}

// Island A: a 2x2 block at the origin; island B: the same block far away,
// with no connecting edge, so half of all ordered pairs are +inf.
RoadNetwork TwoIslands() {
  RoadNetwork net;
  for (double off : {0.0, 50.0}) {
    NodeId base = net.AddNode({off, off});
    net.AddNode({off + 1, off});
    net.AddNode({off, off + 1});
    net.AddNode({off + 1, off + 1});
    net.AddEdge(base, base + 1, 1.2);
    net.AddEdge(base, base + 2, 1.1);
    net.AddEdge(base + 1, base + 3, 1.3);
    net.AddEdge(base + 2, base + 3, 1.4);
  }
  return net;
}

TEST(RoadnetTest, GeneratorShape) {
  const RoadNetwork& net = Net();
  EXPECT_EQ(net.num_nodes(), 81u);
  EXPECT_GE(net.num_edges(), 2u * 8u * 9u);  // full grid at minimum
}

TEST(RoadnetTest, EdgeCostsDominateEuclid) {
  const RoadNetwork& net = Net();
  for (size_t v = 0; v < net.num_nodes(); ++v) {
    for (const RoadNetwork::Arc& arc : net.arcs(static_cast<NodeId>(v))) {
      EXPECT_GE(arc.cost,
                net.EuclidLowerBound(static_cast<NodeId>(v), arc.to) - 1e-9);
    }
  }
}

TEST(RoadnetTest, AllBackendsMatchDijkstra) {
  const RoadNetwork& net = Net();
  HubLabeling hl(net);
  Rng rng(5);
  for (int trial = 0; trial < 60; ++trial) {
    NodeId s = static_cast<NodeId>(
        rng.UniformInt(0, static_cast<int64_t>(net.num_nodes()) - 1));
    NodeId t = static_cast<NodeId>(
        rng.UniformInt(0, static_cast<int64_t>(net.num_nodes()) - 1));
    std::vector<double> ref = DijkstraAll(net, s);
    double expected = ref[static_cast<size_t>(t)];
    EXPECT_NEAR(BidirectionalDijkstra(net, s, t), expected, 1e-6);
    EXPECT_NEAR(AStarCost(net, s, t), expected, 1e-6);
    EXPECT_NEAR(hl.Query(s, t), expected, 1e-6);
    EXPECT_LE(net.EuclidLowerBound(s, t), expected + 1e-9);
  }
}

TEST(RoadnetTest, EngineBackendsMatchAndCacheCountsMisses) {
  const RoadNetwork& net = Net();
  std::vector<double> ref = DijkstraAll(net, 0);

  for (auto backend : {TravelCostOptions::Backend::kHubLabeling,
                       TravelCostOptions::Backend::kBidirectionalDijkstra}) {
    TravelCostOptions options;
    options.backend = backend;
    TravelCostEngine engine(net, options);
    for (NodeId t : {NodeId{5}, NodeId{40}, NodeId{80}}) {
      EXPECT_NEAR(engine.Cost(0, t), ref[static_cast<size_t>(t)], 1e-6);
    }
    uint64_t misses = engine.num_queries();
    EXPECT_EQ(misses, 3u);
    // Re-asking the same pairs must be pure cache hits.
    for (NodeId t : {NodeId{5}, NodeId{40}, NodeId{80}}) {
      EXPECT_NEAR(engine.Cost(0, t), ref[static_cast<size_t>(t)], 1e-6);
    }
    EXPECT_EQ(engine.num_queries(), misses);
    EXPECT_GT(engine.CacheHitRate(), 0.0);
  }
}

// Regression for the directed-key cache bug: the network is undirected, so
// Cost(s, t) followed by Cost(t, s) must hit one canonical cache slot and
// perform exactly one backend query.
TEST(RoadnetTest, SymmetricPairSharesOneCacheSlot) {
  TravelCostEngine engine(Net());
  double st = engine.Cost(3, 77);
  EXPECT_EQ(engine.num_queries(), 1u);
  double ts = engine.Cost(77, 3);
  EXPECT_EQ(engine.num_queries(), 1u);
  EXPECT_DOUBLE_EQ(st, ts);
  EXPECT_EQ(engine.num_lookups(), 2u);
}

// Regression for the double-counted-miss bug: N threads hammering the same
// cold pairs (both directions) must insert — and therefore count — each
// canonical pair exactly once, so Tables V/VI savings cannot depend on
// thread count.
TEST(RoadnetTest, ConcurrentColdMissesCountEachPairOnce) {
  const RoadNetwork& net = Net();
  TravelCostOptions options;
  options.backend = TravelCostOptions::Backend::kBidirectionalDijkstra;
  TravelCostEngine engine(net, options);

  std::vector<std::pair<NodeId, NodeId>> pairs;
  const NodeId n = static_cast<NodeId>(net.num_nodes());
  for (NodeId s = 0; s < 20; ++s) {
    pairs.emplace_back(s, static_cast<NodeId>(n - 1 - s));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& [s, d] : pairs) {
          engine.Cost(s, d);
          engine.Cost(d, s);  // the flipped direction is the same pair
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(engine.num_queries(), pairs.size());
  EXPECT_EQ(engine.num_lookups(),
            static_cast<uint64_t>(kThreads) * kRounds * 2 * pairs.size());
  // Values must match single-threaded ground truth.
  for (const auto& [s, d] : pairs) {
    EXPECT_NEAR(engine.Cost(s, d), BidirectionalDijkstra(net, s, d), 1e-9);
  }
}

// Cache partitions (DESIGN.md §12): a partition shares the parent's frozen
// backend but owns a private LRU and counters; the parent aggregates its
// own traffic plus every partition's, live or destroyed.
TEST(RoadnetTest, CachePartitionsIsolateLruAndAggregateCounters) {
  const RoadNetwork& net = Net();
  TravelCostEngine root(net);
  const double ref = root.Cost(0, 50);
  EXPECT_EQ(root.num_queries(), 1u);
  {
    auto a = root.MakeCachePartition(/*capacity=*/64, /*stripes=*/4);
    auto b = root.MakeCachePartition(/*capacity=*/64, /*stripes=*/4);
    EXPECT_TRUE(a->is_partition());
    EXPECT_FALSE(root.is_partition());
    // Cold in each partition even though hot in the root: private LRUs,
    // one backend computation per partition.
    EXPECT_DOUBLE_EQ(a->Cost(0, 50), ref);
    EXPECT_DOUBLE_EQ(b->Cost(0, 50), ref);
    // The flipped direction is the canonical pair: a pure hit.
    EXPECT_DOUBLE_EQ(a->Cost(50, 0), ref);
    EXPECT_EQ(a->num_queries(), 1u);
    EXPECT_EQ(b->num_queries(), 1u);
    EXPECT_EQ(a->num_lookups(), 2u);
    EXPECT_EQ(b->num_lookups(), 1u);
    // The parent reports the aggregate over itself and live partitions.
    EXPECT_EQ(root.num_queries(), 3u);
    EXPECT_EQ(root.num_lookups(), 4u);
  }
  // Dying partitions fold their counts into the parent: the process-wide
  // totals are unaffected by partition lifetimes.
  EXPECT_EQ(root.num_queries(), 3u);
  EXPECT_EQ(root.num_lookups(), 4u);
}

TEST(RoadnetTest, SelfCostIsZeroAndFree) {
  TravelCostEngine engine(Net());
  uint64_t before = engine.num_queries();
  EXPECT_DOUBLE_EQ(engine.Cost(7, 7), 0);
  EXPECT_EQ(engine.num_queries(), before);
}

// The frozen CSR view must expose exactly the arcs AddEdge recorded, per
// node, in insertion order — so pre-freeze and post-freeze traversals are
// the same sequence.
TEST(RoadnetTest, CsrFreezePreservesArcOrder) {
  RoadNetwork net;
  NodeId a = net.AddNode({0, 0});
  NodeId b = net.AddNode({1, 0});
  NodeId c = net.AddNode({0, 1});
  net.AddEdge(a, b, 1.5);
  net.AddEdge(a, c, 2.0);
  net.AddEdge(b, c, 2.5);
  EXPECT_FALSE(net.frozen());
  RoadNetwork::ArcSpan arcs_a = net.arcs(a);  // lazy freeze
  EXPECT_TRUE(net.frozen());
  ASSERT_EQ(arcs_a.size(), 2u);
  EXPECT_EQ(arcs_a[0].to, b);
  EXPECT_DOUBLE_EQ(arcs_a[0].cost, 1.5);
  EXPECT_EQ(arcs_a[1].to, c);
  EXPECT_DOUBLE_EQ(arcs_a[1].cost, 2.0);
  RoadNetwork::ArcSpan arcs_c = net.arcs(c);
  ASSERT_EQ(arcs_c.size(), 2u);
  EXPECT_EQ(arcs_c[0].to, a);
  EXPECT_EQ(arcs_c[1].to, b);
  EXPECT_EQ(net.num_edges(), 3u);
  EXPECT_GT(net.MemoryBytes(), 0u);
}

// Randomized equivalence over generator layouts: every backend over the
// frozen CSR must agree with plain Dijkstra ground truth.
TEST(RoadnetTest, RandomGridBackendEquivalence) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    CityOptions opt;
    opt.rows = 7;
    opt.cols = 8;
    opt.seed = seed;
    opt.diagonal_prob = 0.3;
    RoadNetwork net = GenerateGridCity(opt);
    EXPECT_TRUE(net.frozen());
    HubLabeling hl(net);
    Rng rng(seed);
    for (int trial = 0; trial < 25; ++trial) {
      NodeId s = static_cast<NodeId>(
          rng.UniformInt(0, static_cast<int64_t>(net.num_nodes()) - 1));
      NodeId t = static_cast<NodeId>(
          rng.UniformInt(0, static_cast<int64_t>(net.num_nodes()) - 1));
      std::vector<double> ref = DijkstraAll(net, s);
      double expected = ref[static_cast<size_t>(t)];
      EXPECT_NEAR(BidirectionalDijkstra(net, s, t), expected, 1e-6);
      EXPECT_NEAR(AStarCost(net, s, t), expected, 1e-6);
      EXPECT_NEAR(hl.Query(s, t), expected, 1e-6);
    }
  }
}

// Two islands with no connecting edge: cross-island costs must be infinite
// from every backend; intra-island costs must still match Dijkstra.
TEST(RoadnetTest, DisconnectedComponentsReportInfinity) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  RoadNetwork net = TwoIslands();
  HubLabeling hl(net);
  for (NodeId s = 0; s < 4; ++s) {
    for (NodeId t = 4; t < 8; ++t) {
      EXPECT_EQ(hl.Query(s, t), kInf);
      EXPECT_EQ(BidirectionalDijkstra(net, s, t), kInf);
      EXPECT_EQ(AStarCost(net, s, t), kInf);
    }
  }
  for (NodeId s = 0; s < 8; ++s) {
    std::vector<double> ref = DijkstraAll(net, s);
    for (NodeId t = 0; t < 8; ++t) {
      double expected = ref[static_cast<size_t>(t)];
      if (expected == kInf) {
        EXPECT_EQ(hl.Query(s, t), kInf);
      } else {
        EXPECT_NEAR(hl.Query(s, t), expected, 1e-9);
      }
    }
  }
  // CostMany across components: infinities propagate, queries still count.
  TravelCostEngine engine(net);
  std::vector<NodeId> targets = {4, 5, 0, 6};
  std::vector<double> out(targets.size());
  engine.CostMany(0, {targets.data(), targets.size()}, out.data());
  EXPECT_EQ(out[0], kInf);
  EXPECT_EQ(out[1], kInf);
  EXPECT_DOUBLE_EQ(out[2], 0);
  EXPECT_EQ(out[3], kInf);
  EXPECT_EQ(engine.num_queries(), 3u);
}

// CostMany must be per-target equivalent to the point-to-point path:
// bitwise-identical results and identical num_queries()/num_lookups(), for
// every backend, including duplicate and self targets.
TEST(RoadnetTest, CostManyMatchesRepeatedCost) {
  const RoadNetwork& net = Net();
  for (auto backend : {TravelCostOptions::Backend::kHubLabeling,
                       TravelCostOptions::Backend::kBidirectionalDijkstra}) {
    TravelCostOptions options;
    options.backend = backend;
    TravelCostEngine seq(net, options);
    TravelCostEngine batch(net, options);

    const NodeId source = 12;
    Rng rng(17);
    std::vector<NodeId> targets;
    for (int i = 0; i < 40; ++i) {
      targets.push_back(static_cast<NodeId>(
          rng.UniformInt(0, static_cast<int64_t>(net.num_nodes()) - 1)));
    }
    targets.push_back(source);      // self target: free, uncounted query
    targets.push_back(targets[0]);  // duplicate: second hit, one count
    targets.push_back(targets[5]);

    std::vector<double> expected;
    for (NodeId t : targets) expected.push_back(seq.Cost(source, t));
    std::vector<double> got(targets.size());
    batch.CostMany(source, {targets.data(), targets.size()}, got.data());
    for (size_t i = 0; i < targets.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "target " << i;
    }
    EXPECT_EQ(batch.num_queries(), seq.num_queries());
    EXPECT_EQ(batch.num_lookups(), seq.num_lookups());

    // Second pass is all hits on both paths.
    for (NodeId t : targets) seq.Cost(source, t);
    batch.CostMany(source, {targets.data(), targets.size()}, got.data());
    EXPECT_EQ(batch.num_queries(), seq.num_queries());
    EXPECT_EQ(batch.num_lookups(), seq.num_lookups());
  }
}

// The flat open-addressing LRU must behave exactly like the PR2 shard it
// replaced (std::list + unordered_map): same hits, same values, same
// eviction victims in the same order.
TEST(RoadnetTest, FlatLruMatchesReferenceListLru) {
  constexpr size_t kCapacity = 8;
  FlatLru flat(kCapacity);
  EXPECT_EQ(flat.capacity(), kCapacity);
  std::list<std::pair<uint64_t, double>> ref_lru;
  std::unordered_map<uint64_t,
                     std::list<std::pair<uint64_t, double>>::iterator>
      ref_map;

  Rng rng(99);
  for (int op = 0; op < 5000; ++op) {
    uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 23));
    const double* hit = flat.Find(key);
    auto it = ref_map.find(key);
    if (it != ref_map.end()) {
      ASSERT_NE(hit, nullptr) << "op " << op;
      EXPECT_EQ(*hit, it->second->second);
      if (it->second != ref_lru.begin()) {
        ref_lru.splice(ref_lru.begin(), ref_lru, it->second);
      }
    } else {
      ASSERT_EQ(hit, nullptr) << "op " << op;
      double value = static_cast<double>(key) * 3.5 + op;
      std::optional<uint64_t> evicted = flat.Insert(key, value);
      ref_lru.emplace_front(key, value);
      ref_map[key] = ref_lru.begin();
      if (ref_map.size() > kCapacity) {
        ASSERT_TRUE(evicted.has_value()) << "op " << op;
        EXPECT_EQ(*evicted, ref_lru.back().first) << "op " << op;
        ref_map.erase(ref_lru.back().first);
        ref_lru.pop_back();
      } else {
        EXPECT_FALSE(evicted.has_value()) << "op " << op;
      }
    }
    ASSERT_EQ(flat.size(), ref_map.size());
  }
  EXPECT_GT(flat.MemoryBytes(), 0u);
}

// ------------------------------------------------------ label-plane goldens --

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// FNV-1a over the little-endian bytes of each folded word (the golden_test
// digest).
class Fnv {
 public:
  void Word(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

struct LabelGolden {
  const char* graph;
  uint64_t nodes;
  uint64_t entries;  ///< TotalLabelEntries()
  uint64_t offsets;  ///< digest of the offset plane
  uint64_t ranks;    ///< digest of the rank plane, sentinels included
  uint64_t dists;    ///< digest of the distance plane's bit patterns
};

// Recorded from the merge-join pruning build; any build must reproduce
// every label byte. On a mismatch the test prints the current table.
const LabelGolden kLabelGolden[] = {
    {"CHD", 1600, 163635,
     0x45557b8a6d6e9686, 0x6f5d8acd23c2caaa, 0x4cd2160d17b2caac},
    {"NYC", 2304, 295260,
     0x84045ec3829ef203, 0xc734dc881bba6186, 0x3b8d1f7d7e20d229},
    {"Cainiao", 1024, 77229,
     0xee2dbfce23901671, 0x1f900779cbab273f, 0x185b213c309c0131},
    {"mini.gr", 484, 23082,
     0x3cb0f63295d3ed2f, 0xa06921e8c05ac1a3, 0x8b408cbdb8fb120a},
};

std::string FixturePath(const char* name) {
  return std::string(STRUCTRIDE_TEST_DATA_DIR) + "/" + name;
}

RoadNetwork FixtureNetwork() {
  RoadNetwork net;
  ImportStats stats;
  std::string error;
  EXPECT_TRUE(ImportDimacs(FixturePath("mini.gr"), FixturePath("mini.co"), {},
                           &net, &stats, &error))
      << error;
  return net;
}

RoadNetwork PresetNetwork(const char* name) {
  return GenerateGridCity(DatasetByName(name, 1.0).city);
}

LabelGolden DigestLabels(const char* graph, const HubLabeling& hl) {
  Fnv offsets, ranks, dists;
  for (uint32_t o : hl.label_offsets()) offsets.Word(o);
  for (int32_t r : hl.rank_plane()) ranks.Word(static_cast<uint32_t>(r));
  for (double d : hl.dist_plane()) dists.Word(Bits(d));
  return {graph,           hl.num_ranks(), hl.TotalLabelEntries(),
          offsets.value(), ranks.value(),  dists.value()};
}

std::string PrintLabelTable(const std::vector<LabelGolden>& rows) {
  std::string out = "const LabelGolden kLabelGolden[] = {\n";
  for (const LabelGolden& r : rows) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"%s\", %" PRIu64 ", %" PRIu64 ",\n"
                  "     0x%016" PRIx64 ", 0x%016" PRIx64 ", 0x%016" PRIx64
                  "},\n",
                  r.graph, r.nodes, r.entries, r.offsets, r.ranks, r.dists);
    out += buf;
  }
  return out + "};\n";
}

// The hub-label arena of every preset city and of the bundled fixture is
// pinned byte for byte: offsets, ranks and distance bits.
TEST(RoadnetTest, LabelPlanesMatchGolden) {
  std::vector<LabelGolden> current;
  for (const char* preset : {"CHD", "NYC", "Cainiao"}) {
    current.push_back(DigestLabels(preset, HubLabeling(PresetNetwork(preset))));
  }
  current.push_back(DigestLabels("mini.gr", HubLabeling(FixtureNetwork())));

  const size_t n = sizeof(kLabelGolden) / sizeof(kLabelGolden[0]);
  bool match = current.size() == n;
  for (size_t i = 0; match && i < n; ++i) {
    const LabelGolden& g = kLabelGolden[i];
    const LabelGolden& c = current[i];
    match = std::strcmp(g.graph, c.graph) == 0 && g.nodes == c.nodes &&
            g.entries == c.entries && g.offsets == c.offsets &&
            g.ranks == c.ranks && g.dists == c.dists;
  }
  EXPECT_TRUE(match) << "kLabelGolden differs; the current table is:\n"
                     << PrintLabelTable(current);
}

// --------------------------------------------------------- query oracle --

// The sorted-label merge join: min over the hubs both runs share of the two
// distances' sum, walking both sentinel-terminated runs in rank order. The
// library answers Query by pinning instead; this is the oracle it must match
// bit for bit.
double MergeJoinQuery(const HubLabeling& hl, NodeId s, NodeId t) {
  if (s == t) return 0;
  const int32_t* R = hl.rank_plane().data();
  const double* D = hl.dist_plane().data();
  size_t i = hl.label_offsets()[static_cast<size_t>(s)];
  size_t j = hl.label_offsets()[static_cast<size_t>(t)];
  double best = std::numeric_limits<double>::infinity();
  for (;;) {
    const int32_t ra = R[i];
    const int32_t rb = R[j];
    if (ra == rb) {
      if (ra == HubLabeling::kSentinelRank) break;
      const double d = D[i] + D[j];
      if (d < best) best = d;
      ++i;
      ++j;
    } else if (ra < rb) {
      ++i;
    } else {
      ++j;
    }
  }
  return best;
}

struct PairCensus {
  size_t pairs = 0;
  size_t mismatches = 0;
  size_t self = 0;
  size_t disconnected = 0;
};

// Query against the oracle over every ordered pair, s == t included.
PairCensus CheckAllPairs(const HubLabeling& hl) {
  PairCensus c;
  const auto n = static_cast<NodeId>(hl.num_ranks());
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      const double want = MergeJoinQuery(hl, s, t);
      const double got = hl.Query(s, t);
      ++c.pairs;
      if (Bits(got) != Bits(want)) {
        if (c.mismatches++ < 5) {
          ADD_FAILURE() << "Query(" << s << ", " << t << ") = " << got
                        << ", oracle " << want;
        }
      }
      if (s == t) ++c.self;
      if (want == std::numeric_limits<double>::infinity()) ++c.disconnected;
    }
  }
  return c;
}

// The labeling loaded back from a snapshot: the same arena through borrowed
// views.
std::unique_ptr<HubLabeling> LoadedLabels(const RoadNetwork& net,
                                          const HubLabeling& hl,
                                          const std::string& name,
                                          GraphBundle* bundle) {
  const std::string path = testing::TempDir() + name;
  SnapshotWriteOptions opts;
  opts.hub_labels = &hl;
  std::string error;
  EXPECT_TRUE(WriteGraphSnapshot(net, opts, path, &error)) << error;
  EXPECT_TRUE(LoadGraphSnapshot(path, {}, bundle, &error)) << error;
  std::remove(path.c_str());
  return std::move(bundle->hub_labels);
}

TEST(RoadnetTest, QueryMatchesMergeJoinOracleBitwise) {
  struct Case {
    const char* name;
    RoadNetwork net;
    size_t disconnected;  ///< ordered pairs the oracle reports +inf
  };
  Case cases[] = {{"Cainiao", PresetNetwork("Cainiao"), 0},
                  {"mini.gr", FixtureNetwork(), 0},
                  {"islands", TwoIslands(), 32}};
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    HubLabeling built(c.net);
    GraphBundle bundle;
    std::unique_ptr<HubLabeling> loaded =
        LoadedLabels(c.net, built, std::string(c.name) + ".snap", &bundle);
    ASSERT_NE(loaded, nullptr);
    for (const HubLabeling* hl : {&built, loaded.get()}) {
      const PairCensus census = CheckAllPairs(*hl);
      EXPECT_EQ(census.mismatches, 0u);
      EXPECT_EQ(census.pairs, c.net.num_nodes() * c.net.num_nodes());
      EXPECT_EQ(census.self, c.net.num_nodes());
      EXPECT_EQ(census.disconnected, c.disconnected);
    }
  }
}

// Query and CostMany share one per-thread rank scratch. Interleaving them on
// one thread must leave every answer exact and every scratch slot +inf
// between calls, including after batches across disconnected islands.
TEST(RoadnetTest, QueryAndCostManyShareTheThreadScratch) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const RoadNetwork& net : {PresetNetwork("Cainiao"), TwoIslands()}) {
    HubLabeling hl(net);
    TravelCostOptions options;
    options.prebuilt_hub_labels = &hl;
    TravelCostEngine engine(net, options);
    const auto n = static_cast<int64_t>(net.num_nodes());
    Rng rng(23);
    auto all_slots_inf = [&] {
      const double* scratch = hl.ThreadScratch();
      for (size_t r = 0; r < hl.num_ranks(); ++r) {
        if (scratch[r] != kInf) return false;
      }
      return true;
    };
    for (int round = 0; round < 50; ++round) {
      const auto a = static_cast<NodeId>(rng.UniformInt(0, n - 1));
      const auto b = static_cast<NodeId>(rng.UniformInt(0, n - 1));
      EXPECT_EQ(Bits(hl.Query(a, b)), Bits(MergeJoinQuery(hl, a, b)));
      ASSERT_TRUE(all_slots_inf()) << "after Query, round " << round;

      const auto source = static_cast<NodeId>(rng.UniformInt(0, n - 1));
      std::vector<NodeId> targets;
      for (int k = 0; k < 12; ++k) {
        targets.push_back(static_cast<NodeId>(rng.UniformInt(0, n - 1)));
      }
      targets.push_back(source);
      std::vector<double> out(targets.size());
      engine.CostMany(source, {targets.data(), targets.size()}, out.data());
      ASSERT_TRUE(all_slots_inf()) << "after CostMany, round " << round;
      for (size_t k = 0; k < targets.size(); ++k) {
        EXPECT_EQ(Bits(out[k]), Bits(MergeJoinQuery(hl, source, targets[k])))
            << "round " << round << " target " << k;
        EXPECT_EQ(Bits(hl.Query(source, targets[k])), Bits(out[k]));
      }
    }
  }
}

// ------------------------------------------------------ per-thread memo --

RoadNetwork Grid(int side, uint64_t seed) {
  CityOptions opt;
  opt.rows = side;
  opt.cols = side;
  opt.seed = seed;
  return GenerateGridCity(opt);
}

// Memo slots are tagged with a process-unique engine id, not the engine's
// address: an engine built in the storage of a destroyed one (so at the
// same address) on another graph returns its own graph's costs for every
// pair the first had cached, and a partition built where an earlier one
// died counts its own misses.
TEST(RoadnetTest, MemoNeverServesAnotherEngine) {
  const RoadNetwork a = Grid(9, 13);
  const RoadNetwork b = Grid(9, 14);
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  const NodeId n = static_cast<NodeId>(a.num_nodes());
  TravelCostOptions options;
  options.backend = TravelCostOptions::Backend::kBidirectionalDijkstra;

  std::optional<TravelCostEngine> engine;
  engine.emplace(a, options);
  const TravelCostEngine* address = &*engine;
  size_t differing = 0;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = s + 1; t < n; t += 7) engine->Cost(s, t);  // memo warm
  }
  engine.reset();
  engine.emplace(b, options);
  ASSERT_EQ(&*engine, address);
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = s + 1; t < n; t += 7) {
      const double want = BidirectionalDijkstra(b, s, t);
      EXPECT_EQ(Bits(engine->Cost(s, t)), Bits(want)) << s << "-" << t;
      EXPECT_EQ(Bits(engine->Cost(t, s)), Bits(want)) << t << "-" << s;
      if (want != BidirectionalDijkstra(a, s, t)) ++differing;
    }
  }
  EXPECT_GT(differing, 100u);  // the graphs really disagree

  TravelCostEngine root(a, options);
  uint64_t pairs = 0;
  for (int life = 0; life < 2; ++life) {
    auto part = root.MakeCachePartition(/*capacity=*/4096, /*stripes=*/4);
    pairs = 0;
    for (NodeId t = 1; t < n; ++t, ++pairs) part->Cost(0, t);
    for (NodeId t = 1; t < n; ++t) part->Cost(t, 0);  // memo hits
    EXPECT_EQ(part->num_queries(), pairs) << "life " << life;
    EXPECT_EQ(part->num_lookups(), 2 * pairs) << "life " << life;
  }
  EXPECT_EQ(root.num_queries(), 2 * pairs);
  EXPECT_EQ(root.num_lookups(), 4 * pairs);
}

// The fixed call sequence behind the recorded counts below: point-to-point
// costs over a pool larger than the memo (so memo slots get displaced and
// the LRU serves some repeats), CostMany fans with duplicate and self
// targets, and re-asked pairs in both directions.
void RunFixedSequence(const TravelCostEngine& engine, NodeId n) {
  Rng rng(31);
  std::vector<std::pair<NodeId, NodeId>> pool;
  for (int i = 0; i < 6000; ++i) {
    pool.emplace_back(static_cast<NodeId>(rng.UniformInt(0, n - 1)),
                      static_cast<NodeId>(rng.UniformInt(0, n - 1)));
  }
  std::vector<NodeId> targets(16);
  std::vector<double> out(targets.size());
  for (int step = 0; step < 20000; ++step) {
    const auto& [s, t] = pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
    if (step % 2 == 0) {
      engine.Cost(s, t);
    } else {
      engine.Cost(t, s);
    }
    if (step % 40 == 0) {
      for (NodeId& target : targets) {
        target = pool[static_cast<size_t>(rng.UniformInt(0, 999))].second;
      }
      targets[3] = s;          // self target
      targets[9] = targets[2];  // duplicate
      engine.CostMany(s, {targets.data(), targets.size()}, out.data());
    }
  }
}

// num_lookups() and num_queries() on the fixed sequence equal the values
// recorded before the memo existed, at 1 thread and with 8 threads running
// the sequence at once (the working set fits, so nothing is evicted), on a
// root engine and on a cache partition, whose counts also fold into its
// root's.
TEST(RoadnetTest, CountsOnAFixedSequenceMatchTheRecordedValues) {
  constexpr uint64_t kLookups = 28000;
  constexpr uint64_t kQueries = 12616;
  const RoadNetwork net = Grid(40, 9);
  const NodeId n = static_cast<NodeId>(net.num_nodes());
  for (int threads : {1, 8}) {
    const auto lookups = kLookups * static_cast<uint64_t>(threads);
    TravelCostEngine engine(net);
    auto partition = engine.MakeCachePartition(size_t{1} << 16, 16);
    for (const TravelCostEngine* e : {&engine, partition.get()}) {
      std::vector<std::thread> workers;
      for (int w = 0; w < threads; ++w) {
        workers.emplace_back([&] { RunFixedSequence(*e, n); });
      }
      for (std::thread& w : workers) w.join();
    }
    EXPECT_EQ(partition->num_lookups(), lookups) << threads << " threads";
    EXPECT_EQ(partition->num_queries(), kQueries) << threads << " threads";
    EXPECT_EQ(engine.num_lookups(), 2 * lookups) << threads << " threads";
    EXPECT_EQ(engine.num_queries(), 2 * kQueries) << threads << " threads";
  }
}

// CostMany equals point-to-point Cost bit for bit whatever the memo holds:
// cold (fresh engine), warm (the same batch again, all memo hits), and with
// the LRU warm but this thread's memo cold (a fresh thread on the engine).
TEST(RoadnetTest, CostManyMatchesCostWithTheMemoWarmAndCold) {
  const RoadNetwork net = Grid(20, 5);
  const NodeId n = static_cast<NodeId>(net.num_nodes());
  TravelCostEngine reference(net);
  TravelCostEngine batch(net);
  Rng rng(41);
  for (int round = 0; round < 30; ++round) {
    const auto source = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    std::vector<NodeId> targets;
    for (int k = 0; k < 24; ++k) {
      targets.push_back(static_cast<NodeId>(rng.UniformInt(0, n - 1)));
    }
    targets.push_back(source);
    targets.push_back(targets[4]);
    std::vector<double> want;
    for (NodeId t : targets) want.push_back(reference.Cost(source, t));
    std::vector<double> cold(targets.size()), warm(targets.size()),
        other_thread(targets.size());
    batch.CostMany(source, {targets.data(), targets.size()}, cold.data());
    batch.CostMany(source, {targets.data(), targets.size()}, warm.data());
    std::thread([&] {
      batch.CostMany(source, {targets.data(), targets.size()},
                     other_thread.data());
    }).join();
    for (size_t k = 0; k < targets.size(); ++k) {
      EXPECT_EQ(Bits(cold[k]), Bits(want[k])) << round << "/" << k;
      EXPECT_EQ(Bits(warm[k]), Bits(want[k])) << round << "/" << k;
      EXPECT_EQ(Bits(other_thread[k]), Bits(want[k])) << round << "/" << k;
    }
    EXPECT_EQ(batch.num_queries(), reference.num_queries());
    EXPECT_EQ(batch.num_lookups(), 3 * reference.num_lookups());
  }
}

// ----------------------------------------------------------- FlatLru pool --

// The entry pool is reserved, not filled, at construction; capacity and the
// reported bytes are those of the fully allocated pool and index.
TEST(RoadnetTest, FlatLruReportsTheReservedPool) {
  struct Row {
    size_t requested;
    size_t capacity;
    size_t bytes;  ///< 24-byte entries plus a 2x power-of-two int32 index
  };
  for (const Row& row : {Row{0, 1, 32}, Row{1, 1, 32}, Row{8, 8, 256},
                         Row{1000, 1000, 32192}, Row{16384, 16384, 524288}}) {
    FlatLru lru(row.requested);
    EXPECT_EQ(lru.capacity(), row.capacity) << row.requested;
    EXPECT_EQ(lru.MemoryBytes(), row.bytes) << row.requested;
    EXPECT_EQ(lru.size(), 0u);
  }
}

}  // namespace
}  // namespace structride
