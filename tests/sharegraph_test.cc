// ShareGraph structure operations, and the load-bearing property of the
// angle pruning: it must never drop a feasible share pair — the pruned and
// unpruned builders must produce identical graphs (the pruning only saves
// shortest-path queries).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "roadnet/generator.h"
#include "sharegraph/analysis.h"
#include "sharegraph/builder.h"
#include "sharegraph/loss.h"
#include "sim/workload.h"
#include "util/random.h"

namespace structride {
namespace {

TEST(ShareGraphTest, BasicOperations) {
  ShareGraph g;
  g.AddNode(1);
  g.AddNode(2);
  g.AddEdge(1, 2);
  g.AddEdge(1, 2);  // duplicate ignored
  g.AddEdge(2, 2);  // self-loop ignored
  g.AddEdge(2, 3);  // implicit node
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_FALSE(g.HasEdge(1, 3));
  EXPECT_EQ(g.Degree(2), 2u);
  g.RemoveNode(2);
  EXPECT_EQ(g.NumNodes(), 2u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.Degree(1), 0u);
}

TEST(ShareGraphTest, SupernodeKeepsCommonNeighbors) {
  // 1-2 share neighbors {3}, while 4 neighbors only 1.
  ShareGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  g.AddEdge(1, 4);
  EXPECT_DOUBLE_EQ(ShareabilityLoss(g, {1, 2}), 1.0);  // loses 4, keeps 3
  g.SubstituteSupernode({1, 2}, 100);
  EXPECT_TRUE(g.HasNode(100));
  EXPECT_FALSE(g.HasNode(1));
  EXPECT_FALSE(g.HasNode(2));
  EXPECT_TRUE(g.HasEdge(100, 3));
  EXPECT_FALSE(g.HasEdge(100, 4));
}

TEST(ShareGraphTest, AnalysisOnKnownGraph) {
  // A triangle plus a pendant and an isolated node.
  ShareGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(2, 3);
  g.AddNode(9);
  StructureReport report = AnalyzeStructure(g, 3);
  EXPECT_EQ(report.degrees.num_nodes, 5u);
  EXPECT_EQ(report.degrees.num_edges, 4u);
  EXPECT_EQ(report.degeneracy, 2);
  EXPECT_EQ(report.max_clique, 3u);
  EXPECT_EQ(report.num_components, 2u);
  // Partition: {0,1,2} triangle, {3}, {9} at capacity 3.
  EXPECT_EQ(report.greedy_partition_cliques, 3u);
  EXPECT_GE(report.partition_upper_bound, report.greedy_partition_cliques - 1);
  auto cliques = GreedyCliquePartition(g, 3);
  size_t covered = 0;
  for (const auto& clique : cliques) {
    covered += clique.size();
    for (size_t i = 0; i < clique.size(); ++i) {
      for (size_t j = i + 1; j < clique.size(); ++j) {
        EXPECT_TRUE(g.HasEdge(clique[i], clique[j]));
      }
    }
  }
  EXPECT_EQ(covered, g.NumNodes());
}

TEST(ShareGraphBuilderTest, AnglePruningNeverDropsAFeasiblePair) {
  CityOptions copt;
  copt.rows = 15;
  copt.cols = 15;
  copt.seed = 21;
  RoadNetwork net = GenerateGridCity(copt);
  TravelCostEngine engine(net);
  DeadlinePolicy policy;
  policy.gamma = 1.5;
  WorkloadOptions wopts;
  wopts.num_requests = 90;
  wopts.duration = 120;
  wopts.seed = 4;
  auto requests = GenerateWorkload(net, &engine, policy, wopts);

  ShareGraphBuilderOptions plain;
  plain.use_angle_pruning = false;
  ShareGraphBuilder unpruned(&engine, plain);
  unpruned.AddBatch(requests);

  ShareGraphBuilderOptions pruned_opts;
  pruned_opts.use_angle_pruning = true;
  ShareGraphBuilder pruned(&engine, pruned_opts);
  pruned.AddBatch(requests);

  // The screen must have fired (otherwise this test checks nothing)...
  EXPECT_GT(pruned.pruned_pairs(), 0u);
  // ...and the graphs must still be identical.
  ASSERT_EQ(unpruned.graph().NumNodes(), pruned.graph().NumNodes());
  EXPECT_EQ(unpruned.graph().NumEdges(), pruned.graph().NumEdges());
  for (RequestId v : unpruned.graph().Nodes()) {
    auto a = unpruned.graph().Neighbors(v);
    auto b = pruned.graph().Neighbors(v);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "neighborhood mismatch at request " << v;
  }
}

TEST(ShareGraphTest, RemovalPreservesInsertionOrderAndReaddAppends) {
  ShareGraph g;
  for (RequestId id : {5, 3, 9, 1, 7}) g.AddNode(id);
  g.AddEdge(5, 9);
  g.AddEdge(3, 9);
  g.AddEdge(9, 7);
  g.RemoveNode(9);  // tombstoned slot, edges gone in O(degree)
  EXPECT_EQ(g.NumNodes(), 4u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.Nodes(), (std::vector<RequestId>{5, 3, 1, 7}));
  g.AddNode(9);  // re-add lands at the end of the insertion order
  EXPECT_EQ(g.Nodes(), (std::vector<RequestId>{5, 3, 1, 7, 9}));
  // A removal burst exceeding half the order vector compacts eagerly even
  // when no one reads Nodes() in between.
  g.RemoveNode(5);
  g.RemoveNode(3);
  g.RemoveNode(1);
  g.AddNode(11);
  EXPECT_EQ(g.Nodes(), (std::vector<RequestId>{7, 9, 11}));
}

// Pair lifetimes (DESIGN.md §7): an exact check runs once per pair
// lifetime, and a removal ends the lifetime, so a removed and re-added
// request costs exactly one more exact check against its live partner.
TEST(ShareGraphBuilderTest, ReaddedRequestCostsOneMoreExactCheck) {
  CityOptions copt;
  copt.rows = 10;
  copt.cols = 10;
  copt.seed = 17;
  RoadNetwork net = GenerateGridCity(copt);
  TravelCostEngine engine(net);
  DeadlinePolicy policy;
  WorkloadOptions wopts;
  wopts.num_requests = 20;
  wopts.duration = 60;
  wopts.seed = 5;
  auto requests = GenerateWorkload(net, &engine, policy, wopts);

  // A pair that survives the temporal screen, so adding it costs exactly
  // one exact check.
  const Request* a = nullptr;
  const Request* b = nullptr;
  for (size_t i = 0; i < requests.size() && a == nullptr; ++i) {
    for (size_t j = i + 1; j < requests.size(); ++j) {
      if (requests[i].release_time <= requests[j].deadline &&
          requests[j].release_time <= requests[i].deadline) {
        a = &requests[i];
        b = &requests[j];
        break;
      }
    }
  }
  ASSERT_NE(a, nullptr);

  ShareGraphBuilder builder(&engine, {});
  builder.AddRequests({*a, *b});
  EXPECT_EQ(builder.pair_checks(), 1u);
  const bool edge = builder.graph().HasEdge(a->id, b->id);

  // Re-presenting live requests is skipped: no new exact check.
  builder.AddRequests({*a, *b});
  EXPECT_EQ(builder.pair_checks(), 1u);

  // Removal ends b's lifetime; re-adding re-evaluates the pair from
  // scratch (same immutable request data, hence the same edge verdict).
  builder.RemoveRequest(b->id);
  EXPECT_FALSE(builder.graph().HasNode(b->id));
  builder.AddRequests({*b});
  EXPECT_EQ(builder.pair_checks(), 2u);
  EXPECT_EQ(builder.graph().HasEdge(a->id, b->id), edge);
}

// The differential harness pinning the tentpole (DESIGN.md §7): drive many
// seeded random batch / assignment / expiry / retain sequences through the
// incremental builder, and after EVERY step rebuild the graph from scratch
// over the surviving requests (in the incremental builder's insertion
// order — exactly what rebuilding the graph every batch would do). Node
// sequence, edge count and each node's full neighbor SEQUENCE must match;
// the graph is unweighted, so adjacency order is the strictest per-edge
// invariant there is — it is what makes dispatcher results independent of
// how the graph was maintained.
TEST(ShareGraphBuilderTest, DifferentialIncrementalVsFromScratchRebuild) {
  CityOptions copt;
  copt.rows = 12;
  copt.cols = 12;
  copt.seed = 41;
  RoadNetwork net = GenerateGridCity(copt);
  TravelCostEngine engine(net);
  DeadlinePolicy policy;
  policy.gamma = 1.5;
  WorkloadOptions wopts;
  wopts.num_requests = 80;
  wopts.duration = 120;
  wopts.seed = 12;
  auto requests = GenerateWorkload(net, &engine, policy, wopts);
  std::unordered_map<RequestId, const Request*> by_id;
  for (const Request& r : requests) by_id[r.id] = &r;

  for (bool angle_pruning : {false, true}) {
    for (uint64_t seed : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
      SCOPED_TRACE(std::string("pruning=") + (angle_pruning ? "on" : "off") +
                   " seed=" + std::to_string(seed));
      Rng rng(seed);
      ShareGraphBuilderOptions opts;
      opts.use_angle_pruning = angle_pruning;
      ShareGraphBuilder inc(&engine, opts);
      std::vector<char> alive(requests.size(), 0);
      uint64_t rebuild_checks_total = 0;

      for (int step = 0; step < 25; ++step) {
        const int op = static_cast<int>(rng.UniformInt(0, 2));
        if (op == 0 || inc.num_requests() == 0) {
          // Release a batch: fresh requests and re-adds of retired ones.
          std::vector<Request> batch;
          const int k = static_cast<int>(rng.UniformInt(1, 8));
          for (int t = 0; t < k; ++t) {
            size_t idx = static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(requests.size()) - 1));
            if (alive[idx]) continue;
            alive[idx] = 1;
            batch.push_back(requests[idx]);
          }
          inc.AddRequests(batch);
        } else if (op == 1) {
          // Assignment / cancellation / expiry events: retire a few.
          std::vector<RequestId> drop;
          for (size_t idx = 0; idx < requests.size(); ++idx) {
            if (alive[idx] && rng.Uniform(0, 1) < 0.3) {
              alive[idx] = 0;
              drop.push_back(requests[idx].id);
            }
          }
          inc.RemoveRequests(drop);
        } else {
          // A dispatch-round sweep: keep a random subset of the open pool.
          std::vector<RequestId> keep;
          for (size_t idx = 0; idx < requests.size(); ++idx) {
            if (!alive[idx]) continue;
            if (rng.Uniform(0, 1) < 0.7) {
              keep.push_back(requests[idx].id);
            } else {
              alive[idx] = 0;
            }
          }
          inc.Retain(keep);
        }

        // From-scratch reference over the survivors, in the incremental
        // builder's insertion order.
        std::vector<Request> pool;
        for (RequestId id : inc.graph().Nodes()) pool.push_back(*by_id.at(id));
        ShareGraphBuilder ref(&engine, opts);
        ref.AddRequests(pool);
        rebuild_checks_total += ref.pair_checks();

        ASSERT_EQ(inc.graph().NumNodes(), ref.graph().NumNodes())
            << "step " << step;
        ASSERT_EQ(inc.graph().NumEdges(), ref.graph().NumEdges())
            << "step " << step;
        ASSERT_EQ(inc.graph().Nodes(), ref.graph().Nodes()) << "step " << step;
        for (RequestId v : ref.graph().Nodes()) {
          ASSERT_EQ(inc.graph().Neighbors(v), ref.graph().Neighbors(v))
              << "neighbor sequence mismatch at request " << v << ", step "
              << step;
        }
      }
      // The economics of maintenance: across the whole sequence the
      // incremental builder spent strictly fewer exact checks than the
      // rebuild-after-every-step discipline it replaces.
      EXPECT_LT(inc.pair_checks(), rebuild_checks_total);
    }
  }
}

TEST(ShareGraphBuilderTest, IncrementalAddBatchMatchesOneShot) {
  CityOptions copt;
  copt.rows = 10;
  copt.cols = 10;
  copt.seed = 31;
  RoadNetwork net = GenerateGridCity(copt);
  TravelCostEngine engine(net);
  DeadlinePolicy policy;
  WorkloadOptions wopts;
  wopts.num_requests = 60;
  wopts.duration = 90;
  wopts.seed = 8;
  auto requests = GenerateWorkload(net, &engine, policy, wopts);

  ShareGraphBuilderOptions opts;
  ShareGraphBuilder one_shot(&engine, opts);
  one_shot.AddBatch(requests);

  ShareGraphBuilder incremental(&engine, opts);
  std::vector<Request> first(requests.begin(), requests.begin() + 40);
  std::vector<Request> second(requests.begin() + 40, requests.end());
  incremental.AddBatch(first);
  incremental.AddBatch(second);

  EXPECT_EQ(one_shot.graph().NumEdges(), incremental.graph().NumEdges());
}

}  // namespace
}  // namespace structride
