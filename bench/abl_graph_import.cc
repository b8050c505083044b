// Graph import / snapshot-persistence ablation: the build-once/load-many
// story, measured and gated.
//
// Phases (always all of them, so both CI modes emit the same row set):
//   1. import the graph file (DIMACS/OSM; default: the bundled fixture)
//   2. build the hub-label arena from scratch
//   3. write the snapshot — or reuse an existing one at
//      STRUCTRIDE_SNAPSHOT_PATH (the CI cache), which turns the parity
//      gate below into a cross-run differential
//   4. load it back, heap-read and mmap, several times (load-many)
//   5. parity gate: on sampled pairs, Dijkstra / bidirectional / A* / HL
//      on the loaded graph must be bitwise equal to the rebuilt
//      in-memory versions, and a loaded-engine vs rebuilt-engine replay
//      must agree cost-for-cost with identical sp_queries. Any divergence
//      exits nonzero.
//
// The "engine_ready" row is the compare_bench.py hook: its running_time_s
// is the time from graph file to query-ready engine under
// STRUCTRIDE_IMPORT_MODE — "build" (import + HL build) or "snapshot"
// (one heap-read load). CI runs the bench once per mode into two JSON dirs
// and gates snapshot >= 10x build. The row's unified_cost carries the sum
// of the sampled costs and sp_queries the replay's backend count, so the
// same compare also pins cost parity across the two processes.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "roadnet/astar.h"
#include "roadnet/dijkstra.h"
#include "roadnet/hub_labeling.h"
#include "roadnet/importer.h"
#include "roadnet/snapshot.h"
#include "roadnet/travel_cost.h"
#include "util/random.h"

namespace structride {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "[abl_graph_import] PARITY FAIL: %s\n", what);
    ++g_failures;
  }
}

// One timing row for the JSON diff; the zeroed outcome fields are equal in
// both modes by construction, so only the gates we set carry signal.
void RecordTiming(const std::string& dataset, const std::string& point,
                  double seconds, double cost_digest = 0,
                  uint64_t sp_queries = 0, int samples = 0) {
  RunMetrics m;
  m.dataset = dataset;
  m.algorithm = "import";
  m.running_time = seconds;
  m.unified_cost = cost_digest;
  m.sp_queries = sp_queries;
  m.total_requests = samples;
  bench::RecordJsonRow("import", point, m);
}

}  // namespace
}  // namespace structride

int main() {
  using namespace structride;

  const char* file_env = std::getenv("STRUCTRIDE_GRAPH_FILE");
  const std::string graph_file =
      (file_env != nullptr && file_env[0] != '\0')
          ? file_env
          : std::string(STRUCTRIDE_FIXTURE_DIR) + "/mini.gr";
  const char* mode_env = std::getenv("STRUCTRIDE_IMPORT_MODE");
  const std::string mode = mode_env != nullptr ? mode_env : "build";
  if (mode != "build" && mode != "snapshot") {
    std::fprintf(stderr, "STRUCTRIDE_IMPORT_MODE must be build or snapshot\n");
    return 2;
  }
  const char* snap_env = std::getenv("STRUCTRIDE_SNAPSHOT_PATH");
  const std::string snap_path =
      (snap_env != nullptr && snap_env[0] != '\0') ? snap_env
                                                   : graph_file + ".snap";
  size_t slash = graph_file.find_last_of('/');
  const std::string dataset =
      slash == std::string::npos ? graph_file : graph_file.substr(slash + 1);

  std::printf("abl_graph_import: %s (mode=%s, snapshot=%s)\n",
              graph_file.c_str(), mode.c_str(), snap_path.c_str());

  // Phase 1+2: the cold path every process without a snapshot pays.
  std::string error;
  RoadNetwork net;
  ImportStats stats;
  auto t0 = Clock::now();
  if (!ImportGraphFile(graph_file, {}, &net, &stats, &error)) {
    std::fprintf(stderr, "import failed: %s\n", error.c_str());
    return 2;
  }
  net.Freeze();
  auto t1 = Clock::now();
  HubLabeling hl(net);
  auto t2 = Clock::now();
  const double import_s = Seconds(t0, t1);
  const double build_hl_s = Seconds(t1, t2);
  std::printf("  import          %8.2f ms  (%zu nodes, %zu edges)\n",
              import_s * 1e3, net.num_nodes(), net.num_edges());
  std::printf("  build HL        %8.2f ms  (%zu label entries)\n",
              build_hl_s * 1e3, hl.TotalLabelEntries());

  // Phase 3: write (or adopt the cached) snapshot.
  double write_s = 0;
  GraphBundle probe;
  bool have_cached = LoadGraphSnapshot(snap_path, {}, &probe, &error);
  if (!have_cached) {
    SnapshotWriteOptions wopts;
    wopts.hub_labels = &hl;
    auto w0 = Clock::now();
    if (!WriteGraphSnapshot(net, wopts, snap_path, &error)) {
      std::fprintf(stderr, "snapshot write failed: %s\n", error.c_str());
      return 2;
    }
    write_s = Seconds(w0, Clock::now());
    std::printf("  write snapshot  %8.2f ms\n", write_s * 1e3);
  } else {
    std::printf("  reusing cached snapshot (cross-run differential)\n");
  }
  probe = GraphBundle{};  // drop the probe mapping before the timed loads

  // Phase 4: load-many. The heap read is what BuildGraph does; time both.
  constexpr int kLoads = 5;
  double load_read_s = 0, load_mmap_s = 0;
  GraphBundle loaded;
  for (int i = 0; i < kLoads; ++i) {
    for (bool use_mmap : {false, true}) {
      GraphBundle bundle;
      SnapshotLoadOptions lopts;
      lopts.use_mmap = use_mmap;
      auto l0 = Clock::now();
      if (!LoadGraphSnapshot(snap_path, lopts, &bundle, &error)) {
        std::fprintf(stderr, "snapshot load failed: %s\n", error.c_str());
        return 2;
      }
      (use_mmap ? load_mmap_s : load_read_s) += Seconds(l0, Clock::now());
      if (i + 1 == kLoads) loaded = std::move(bundle);
    }
  }
  load_read_s /= kLoads;
  load_mmap_s /= kLoads;
  std::printf("  load (read)     %8.2f ms  (mean of %d)\n", load_read_s * 1e3,
              kLoads);
  std::printf("  load (mmap)     %8.2f ms  (mean of %d)\n", load_mmap_s * 1e3,
              kLoads);

  // Phase 5a: backend parity, loaded vs rebuilt, bitwise.
  Check(loaded.network.num_nodes() == net.num_nodes(), "node count");
  Check(loaded.network.num_edges() == net.num_edges(), "edge count");
  Check(loaded.hub_labels != nullptr, "loaded snapshot carries hub labels");
  if (g_failures != 0) return 1;

  Rng rng(4321);
  const int64_t n = static_cast<int64_t>(net.num_nodes());
  const int kSamples = 200;
  double cost_digest = 0;
  for (int i = 0; i < kSamples; ++i) {
    NodeId s = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    NodeId t = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    const double want_hl = hl.Query(s, t);
    Check(BidirectionalDijkstra(loaded.network, s, t) ==
              BidirectionalDijkstra(net, s, t),
          "bidirectional Dijkstra bitwise equality");
    Check(AStarCost(loaded.network, s, t) == AStarCost(net, s, t),
          "A* bitwise equality");
    Check(loaded.hub_labels->Query(s, t) == want_hl,
          "hub-label bitwise equality");
    cost_digest += want_hl;
  }
  std::vector<double> full_ref = DijkstraAll(net, 0);
  std::vector<double> full_loaded = DijkstraAll(loaded.network, 0);
  Check(full_ref == full_loaded, "full Dijkstra tree bitwise equality");

  // Phase 5b: engine differential — a rebuilt engine and a loaded-adopting
  // engine replay the same query stream; costs and sp_queries must match.
  TravelCostOptions built_opts;
  TravelCostEngine built(net, built_opts);
  TravelCostOptions adopt_opts;
  adopt_opts.prebuilt_hub_labels = loaded.hub_labels.get();
  TravelCostEngine adopted(loaded.network, adopt_opts);
  Rng qrng(8765);
  for (int i = 0; i < 2000; ++i) {
    NodeId s = static_cast<NodeId>(qrng.UniformInt(0, n - 1));
    NodeId t = static_cast<NodeId>(qrng.UniformInt(0, n - 1));
    Check(built.Cost(s, t) == adopted.Cost(s, t), "engine cost equality");
  }
  Check(built.num_queries() == adopted.num_queries(),
        "engine sp_queries equality");
  const uint64_t sp_queries = adopted.num_queries();

  // The compare_bench rows (see file comment).
  const double build_path_s = import_s + build_hl_s;
  const double ready_s = mode == "build" ? build_path_s : load_read_s;
  RecordTiming(dataset, "engine_ready", ready_s, cost_digest, sp_queries,
               kSamples);
  RecordTiming(dataset, "import", import_s);
  RecordTiming(dataset, "build_hl", build_hl_s);
  RecordTiming(dataset, "load_read", load_read_s);
  RecordTiming(dataset, "load_mmap", load_mmap_s);

  std::printf("  engine_ready    %8.2f ms  (mode=%s; build path %.2f ms, "
              "load %.2f ms, ratio %.1fx)\n",
              ready_s * 1e3, mode.c_str(), build_path_s * 1e3,
              load_read_s * 1e3,
              load_read_s > 0 ? build_path_s / load_read_s : 0.0);

  if (g_failures != 0) {
    std::fprintf(stderr, "abl_graph_import: %d parity failures\n", g_failures);
    return 1;
  }
  std::printf("abl_graph_import: loaded and rebuilt backends agree bitwise "
              "on %d sampled pairs + %d engine queries\n",
              kSamples, 2000);
  return 0;
}
