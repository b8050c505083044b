// Geo-sharding ablation (DESIGN.md §12): SARD on the event core at 1, 2 and
// 4 shards over the CHD preset, plus a 4-shard NYC wall-clock cell. Two
// hard gates, both fatal (nonzero exit):
//
//   serial==conc     every cell runs at 1 thread (the shards' batches one
//                    after another in shard-id order) and at 8 threads (the
//                    pool-task batch phase); the two must agree bitwise on
//                    every parity metric, per-shard sp_queries included.
//   census           at every shard count every request must reach exactly
//                    one terminal outcome: served + cancelled + expired +
//                    rejected + late == total. (The engine additionally
//                    SR_CHECKs vehicle/request conservation every round,
//                    so a violation aborts the binary — also nonzero.)
//
// The sweep reports the sharding observables per cell: per-shard load
// balance (max/mean of per-shard assignment counts), the cross-shard trip
// fraction, and the batch-time imbalance ratio, all landing in the BENCH
// json via RecordJsonRow. Recorded rows run at STRUCTRIDE_THREADS, so two
// invocations — STRUCTRIDE_THREADS=1 and a concurrent thread count —
// record the same point names for CI's compare_bench.py speedup gate on
// the "NYC shards=4" row; that row also carries the in-process speedup of
// the recorded run over its 1-thread run.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "sim/engine.h"

using namespace structride;
using namespace structride::bench;

namespace {

// Bitwise agreement on every parity metric (wall-clock and allocation
// sampling are the only fields legitimately mode-dependent).
bool SameOutcome(const RunMetrics& a, const RunMetrics& b) {
  return a.served == b.served && a.cancelled == b.cancelled &&
         a.expired == b.expired && a.rejected == b.rejected &&
         a.total_requests == b.total_requests &&
         a.unified_cost == b.unified_cost && a.travel_cost == b.travel_cost &&
         a.penalty_cost == b.penalty_cost &&
         a.service_rate == b.service_rate && a.sp_queries == b.sp_queries &&
         a.sharegraph_pair_checks == b.sharegraph_pair_checks &&
         a.memory_bytes == b.memory_bytes &&
         a.pickup_wait_p50 == b.pickup_wait_p50 &&
         a.pickup_wait_p99 == b.pickup_wait_p99 &&
         a.mean_detour_ratio == b.mean_detour_ratio &&
         a.late_dropoffs == b.late_dropoffs &&
         a.num_shards == b.num_shards &&
         a.cross_shard_trips == b.cross_shard_trips &&
         a.shard_load_max_over_mean == b.shard_load_max_over_mean &&
         a.shard_sp_queries == b.shard_sp_queries &&
         a.shard_cache_hit_rate == b.shard_cache_hit_rate;
}

}  // namespace

int main() {
  const double scale = BenchScale();
  int failures = 0;

  std::printf("\n================================================================\n");
  std::printf("Geo-sharding ablation: SARD on CHD at 1/2/4 shards\n");
  std::printf("================================================================\n");
  std::printf("%-8s%8s%10s%16s%10s%12s%12s%12s%10s\n", "shards", "served",
              "service", "unified cost", "x-shard", "x-fraction", "load m/m",
              "time m/m", "time (s)");

  DatasetSpec spec = DatasetByName("CHD", scale);
  RoadNetwork net = BuildNetwork(&spec);
  TravelCostEngine engine(net);
  auto requests = GenerateWorkload(net, &engine, spec.policy, spec.workload);

  DispatchConfig config;
  config.vehicle_capacity = spec.capacity;
  config.grouping.max_group_size = spec.capacity;
  config.sharegraph.vehicle_capacity = spec.capacity;
  const int threads = BenchThreads();

  auto run_cell = [&](int num_shards, int num_threads) {
    SimulationOptions sopts;
    sopts.batch_period = 5;
    sopts.seed = 4242;
    sopts.dataset = "CHD";
    SimulationEngine sim(&engine, requests, sopts);
    sim.SpawnFleet(spec.num_vehicles, spec.capacity);
    DispatchConfig cell_config = config;
    cell_config.num_shards = num_shards;
    cell_config.num_threads = num_threads;
    return sim.Run("SARD", cell_config);
  };

  // Warm the shared travel-cost cache so every recorded cell sees the same
  // (hot) root cache and #SP-query comparisons are apples-to-apples. (The
  // per-shard cache partitions live on each cell's own SimulationEngine and
  // start cold either way, identically at every thread count.)
  run_cell(1, 1);

  for (int shards : {1, 2, 4}) {
    const RunMetrics serial = run_cell(shards, 1);
    const RunMetrics conc = run_cell(shards, 8);
    const RunMetrics m = threads == 1   ? serial
                         : threads == 8 ? conc
                                        : run_cell(shards, threads);
    double frac = m.served > 0 ? static_cast<double>(m.cross_shard_trips) /
                                     static_cast<double>(m.served)
                               : 0;
    RecordJsonRow("SARD", "shards=" + std::to_string(shards), m);
    RecordJsonValue("SARD", "shards=" + std::to_string(shards),
                    "cross_shard_fraction", frac);
    std::printf("%-8d%8d%10.3f%16.0f%10d%12.4f%12.3f%12.3f%10.2f\n", shards,
                m.served, m.service_rate, m.unified_cost, m.cross_shard_trips,
                frac, m.shard_load_max_over_mean,
                m.shard_round_time_max_over_mean, m.running_time);

    if (!SameOutcome(serial, conc) || !SameOutcome(serial, m)) {
      ++failures;
      std::fprintf(stderr,
                   "FAIL: the concurrent batch phase diverged from the "
                   "1-thread run at %d shards\n",
                   shards);
    }
    long closed = static_cast<long>(m.served) +
                  static_cast<long>(m.cancelled) +
                  static_cast<long>(m.expired) +
                  static_cast<long>(m.rejected) +
                  static_cast<long>(m.late_dropoffs);
    if (closed != m.total_requests || m.num_shards != shards ||
        (shards == 1 && m.cross_shard_trips != 0)) {
      ++failures;
      std::fprintf(stderr, "FAIL: %d-shard census %ld != %d total requests\n",
                   shards, closed, m.total_requests);
    }
  }

  // ---- NYC wall-clock cell: 4 shards, 1 thread vs STRUCTRIDE_THREADS ----
  // sard_parallel_acceptance stays off so shard-level concurrency is the
  // only difference between the two runs; the speedup is then sum(t_i) /
  // max-chain, bounded by the batch-time imbalance ratio reported above.
  std::printf("\nNYC preset, 4 shards: 1 thread vs %d threads\n", threads);
  {
    DatasetSpec nyc = DatasetByName("NYC", scale);
    RoadNetwork nyc_net = BuildNetwork(&nyc);
    TravelCostEngine nyc_engine(nyc_net);
    auto nyc_requests =
        GenerateWorkload(nyc_net, &nyc_engine, nyc.policy, nyc.workload);
    DispatchConfig nyc_config;
    nyc_config.vehicle_capacity = nyc.capacity;
    nyc_config.grouping.max_group_size = nyc.capacity;
    nyc_config.sharegraph.vehicle_capacity = nyc.capacity;
    nyc_config.num_shards = 4;
    auto run_nyc = [&](int num_threads) {
      SimulationOptions sopts;
      sopts.batch_period = 5;
      sopts.seed = 4242;
      sopts.dataset = "NYC";
      SimulationEngine sim(&nyc_engine, nyc_requests, sopts);
      sim.SpawnFleet(nyc.num_vehicles, nyc.capacity);
      DispatchConfig cell_config = nyc_config;
      cell_config.num_threads = num_threads;
      return sim.Run("SARD", cell_config);
    };
    run_nyc(1);  // warm the root cache, as above
    const RunMetrics serial = run_nyc(1);
    const RunMetrics m = threads == 1 ? serial : run_nyc(threads);
    if (!SameOutcome(serial, m)) {
      ++failures;
      std::fprintf(stderr,
                   "FAIL: the concurrent batch phase diverged from the "
                   "1-thread run on NYC/4 shards\n");
    }
    const double speedup =
        m.running_time > 0 ? serial.running_time / m.running_time : 0;
    RecordJsonRow("SARD", "NYC shards=4", m);
    RecordJsonValue("SARD", "NYC shards=4", "concurrent_speedup", speedup);
    std::printf("%-22s%12s%12s%10s\n", "threads", "time (s)", "time m/m",
                "speedup");
    std::printf("%-22d%12.2f%12.3f%10s\n", 1, serial.running_time,
                serial.shard_round_time_max_over_mean, "-");
    std::printf("%-22d%12.2f%12.3f%10.2f\n", threads, m.running_time,
                m.shard_round_time_max_over_mean, speedup);
  }

  std::printf(
      "\nAt 1 shard the partition degenerates to one zone and the\n"
      "coordinator runs the single-region round. At 2/4 shards each zone\n"
      "dispatches its own requests over its resident fleet (against its\n"
      "own travel-cost cache partition); boundary requests re-home through\n"
      "the escrow (the x-shard column counts trips assigned by a foreign\n"
      "shard), the census must balance exactly, and the concurrent batch\n"
      "phase must agree bitwise with the 1-thread run.\n");
  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %d sharding gate(s) violated\n", failures);
    return 1;
  }
  return 0;
}
