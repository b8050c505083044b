// Ablation: the distance-oracle backend choice. The paper's setup fixes hub
// labeling + LRU cache for every algorithm; this bench measures what that
// choice buys by comparing all point-to-point backends (hub labels, A*,
// bidirectional Dijkstra) on query latency and preprocessing cost over the
// same synthetic city.

#include <benchmark/benchmark.h>

#include "roadnet/astar.h"
#include "roadnet/dijkstra.h"
#include "roadnet/generator.h"
#include "roadnet/hub_labeling.h"
#include "roadnet/travel_cost.h"
#include "util/random.h"

namespace structride {
namespace {

const RoadNetwork& Net() {
  static RoadNetwork net = [] {
    CityOptions opt;
    opt.rows = 40;
    opt.cols = 40;
    opt.seed = 9;
    return GenerateGridCity(opt);
  }();
  return net;
}

std::pair<NodeId, NodeId> RandomPair(Rng& rng) {
  return {static_cast<NodeId>(rng.UniformInt(0, Net().num_nodes() - 1)),
          static_cast<NodeId>(rng.UniformInt(0, Net().num_nodes() - 1))};
}

void BM_QueryHubLabel(benchmark::State& state) {
  static HubLabeling index(Net());
  Rng rng(1);
  for (auto _ : state) {
    auto [s, t] = RandomPair(rng);
    benchmark::DoNotOptimize(index.Query(s, t));
  }
  state.SetLabel("index " + std::to_string(index.MemoryBytes() / 1024) + " KiB");
}
BENCHMARK(BM_QueryHubLabel);

void BM_QueryAStar(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    auto [s, t] = RandomPair(rng);
    benchmark::DoNotOptimize(AStarCost(Net(), s, t));
  }
  state.SetLabel("no index");
}
BENCHMARK(BM_QueryAStar);

void BM_QueryBidirectionalDijkstra(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    auto [s, t] = RandomPair(rng);
    benchmark::DoNotOptimize(BidirectionalDijkstra(Net(), s, t));
  }
  state.SetLabel("no index");
}
BENCHMARK(BM_QueryBidirectionalDijkstra);

// Preprocessing cost, swept over city size: what hub labels pay up front
// for answering far faster than the index-free searches.
void BM_BuildHubLabel(benchmark::State& state) {
  CityOptions opt;
  opt.rows = static_cast<int>(state.range(0));
  opt.cols = static_cast<int>(state.range(0));
  opt.seed = 11;
  RoadNetwork net = GenerateGridCity(opt);
  for (auto _ : state) {
    HubLabeling index(net);
    benchmark::DoNotOptimize(index.TotalLabelEntries());
  }
  state.SetLabel(std::to_string(net.num_nodes()) + " nodes");
}
BENCHMARK(BM_BuildHubLabel)->Arg(10)->Arg(20)->Arg(30)->Unit(benchmark::kMillisecond)->Iterations(3);

// Dispatch-shaped access pattern: the LRU-cached engine over each indexed
// backend, on a skewed (hotspot-heavy) query mix like real batches produce.
void CachedEngineBench(benchmark::State& state, TravelCostOptions::Backend backend) {
  TravelCostOptions options;
  options.backend = backend;
  TravelCostEngine engine(Net(), options);
  Rng rng(7);
  // 80% of queries touch a 32-node hotspot set; 20% are uniform.
  std::vector<NodeId> hot;
  for (int i = 0; i < 32; ++i) {
    hot.push_back(static_cast<NodeId>(rng.UniformInt(0, Net().num_nodes() - 1)));
  }
  for (auto _ : state) {
    NodeId s, t;
    if (rng.Uniform(0, 1) < 0.8) {
      s = hot[static_cast<size_t>(rng.UniformInt(0, 31))];
      t = hot[static_cast<size_t>(rng.UniformInt(0, 31))];
    } else {
      std::tie(s, t) = RandomPair(rng);
    }
    benchmark::DoNotOptimize(engine.Cost(s, t));
  }
  state.SetLabel("hit rate " + std::to_string(engine.CacheHitRate()));
}

void BM_CachedEngineHubLabel(benchmark::State& state) {
  CachedEngineBench(state, TravelCostOptions::Backend::kHubLabeling);
}
BENCHMARK(BM_CachedEngineHubLabel);

void BM_CachedEngineDijkstra(benchmark::State& state) {
  CachedEngineBench(state, TravelCostOptions::Backend::kBidirectionalDijkstra);
}
BENCHMARK(BM_CachedEngineDijkstra);

}  // namespace
}  // namespace structride
