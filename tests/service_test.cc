// The streaming-service-mode contract (DESIGN.md §13):
//  1. service_mode=false constructs none of the ingestion machinery: every
//     service-mode metric of a replay run stays zero. (Replay outcomes are
//     pinned by golden_test.)
//  2. A service run terminates with every request at exactly one terminal
//     outcome (shed arrivals included), reports ingest→decision latency
//     quantiles in order, and observes the ring depth it actually used.
//  3. A full ring sheds instead of blocking: admission control, counted,
//     never served, never releasing.
//  4. Service mode composes with geo-sharding (the engine's conservation
//     and census SR_CHECKs run on every round).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "sim/datasets.h"
#include "sim/engine.h"
#include "sim/workload.h"

namespace structride {
namespace {

// A preset shrunk to unit-test size, like engine_test's TinyPreset.
struct TinyPreset {
  explicit TinyPreset(const std::string& name)
      : spec(DatasetByName(name, 0.02)) {
    const int side = name == "CHD" ? 16 : (name == "NYC" ? 18 : 14);
    spec.city.rows = side;
    spec.city.cols = side;
    net = BuildNetwork(&spec);
    engine = std::make_unique<TravelCostEngine>(net);
    requests = GenerateWorkload(net, engine.get(), spec.policy, spec.workload);
  }

  DispatchConfig Config(int threads = 1) const {
    DispatchConfig config;
    config.vehicle_capacity = spec.capacity;
    config.grouping.max_group_size = spec.capacity;
    config.sharegraph.vehicle_capacity = spec.capacity;
    if (threads > 1) {
      config.sard_parallel_acceptance = true;
      config.num_threads = threads;
    }
    return config;
  }

  SimulationOptions Options(uint64_t seed = 4242) const {
    SimulationOptions sopts;
    sopts.batch_period = 5;
    sopts.seed = seed;
    sopts.dataset = spec.name;
    return sopts;
  }

  std::unique_ptr<SimulationEngine> MakeEngine(const SimulationOptions& sopts) {
    auto sim =
        std::make_unique<SimulationEngine>(engine.get(), requests, sopts);
    sim->SpawnFleet(std::max(3, spec.num_vehicles), spec.capacity);
    return sim;
  }

  DatasetSpec spec;
  RoadNetwork net;
  std::unique_ptr<TravelCostEngine> engine;
  std::vector<Request> requests;
};

void ExpectServiceMetricsZero(const RunMetrics& m) {
  EXPECT_EQ(m.dispatch_latency_p50_ms, 0);
  EXPECT_EQ(m.dispatch_latency_p99_ms, 0);
  EXPECT_EQ(m.dispatch_latency_p999_ms, 0);
  EXPECT_EQ(m.max_sustained_qps, 0);
  EXPECT_EQ(m.shed_requests, 0u);
  EXPECT_EQ(m.ingest_queue_depth_max, 0u);
}

// Contract 1: with service_mode at its default (false), no ingestion
// machinery leaks into replay runs — for every roster dispatcher on the
// three presets at 1 and 8 threads.
TEST(ServiceModeOffTest, ReplayRunsReportNoServiceMetrics) {
  for (const char* ds : {"CHD", "NYC", "Cainiao"}) {
    for (const std::string& algo : AllDispatcherNames()) {
      for (int threads : {1, 8}) {
        SCOPED_TRACE(std::string(ds) + " / " + algo + " / " + std::to_string(threads) +
                     " threads");
        TinyPreset tiny(ds);
        SimulationOptions sopts = tiny.Options();
        EXPECT_FALSE(sopts.service_mode);  // the default stays off
        RunMetrics m =
            tiny.MakeEngine(sopts)->Run(algo, tiny.Config(threads));
        EXPECT_GT(m.served, 0);
        ExpectServiceMetricsZero(m);
      }
    }
  }
}

// Contract 2: a service run accounts for every request exactly once and
// reports ordered latency quantiles from a populated histogram.
TEST(ServiceModeTest, EveryRequestReachesOneTerminalOutcome) {
  TinyPreset tiny("NYC");
  SimulationOptions sopts = tiny.Options();
  sopts.service_mode = true;
  sopts.service_qps = 2000;  // arrivals finish in tens of milliseconds
  RunMetrics m = tiny.MakeEngine(sopts)->Run("SARD", tiny.Config());
  const int total = m.total_requests;
  ASSERT_GT(total, 0);
  // Ample ring: nothing shed, so the terminal outcomes partition the
  // stream exactly.
  EXPECT_EQ(m.shed_requests, 0u);
  EXPECT_EQ(m.served + m.cancelled + m.expired + m.rejected + m.late_dropoffs,
            total);
  EXPECT_GT(m.served, 0);
  // Every request went through the ring and through a dispatch round.
  EXPECT_GE(m.ingest_queue_depth_max, 1u);
  EXPECT_GT(m.dispatch_latency_p50_ms, 0);
  EXPECT_LE(m.dispatch_latency_p50_ms, m.dispatch_latency_p99_ms);
  EXPECT_LE(m.dispatch_latency_p99_ms, m.dispatch_latency_p999_ms);
  // One run probes one rate; the bench, not the engine, fills this.
  EXPECT_EQ(m.max_sustained_qps, 0);
}

// Contract 2, trace-paced: arrival gaps follow the stream's own spacing.
TEST(ServiceModeTest, TraceArrivalsDrainToo) {
  TinyPreset tiny("CHD");
  SimulationOptions sopts = tiny.Options();
  sopts.service_mode = true;
  sopts.service_qps = 2000;
  sopts.service_trace_arrivals = true;
  RunMetrics m = tiny.MakeEngine(sopts)->Run("GAS", tiny.Config());
  EXPECT_EQ(m.shed_requests, 0u);
  EXPECT_EQ(m.served + m.cancelled + m.expired + m.rejected + m.late_dropoffs,
            m.total_requests);
  EXPECT_GT(m.dispatch_latency_p99_ms, 0);
}

// Contract 3: a capacity-1 ring against a deliberately slow drain cadence
// must shed — and shed requests stay unserved, never crash the census.
TEST(ServiceModeTest, FullRingShedsInsteadOfBlocking) {
  TinyPreset tiny("NYC");
  SimulationOptions sopts = tiny.Options();
  sopts.service_mode = true;
  sopts.service_qps = 4000;           // 0.25 ms arrival gap...
  sopts.service_queue_capacity = 1;   // ...into a one-slot ring...
  sopts.service_time_scale = 250;     // ...drained every 20 ms of wall
  RunMetrics m = tiny.MakeEngine(sopts)->Run("pruneGDP", tiny.Config());
  EXPECT_GT(m.shed_requests, 0u);
  EXPECT_LT(m.served + m.cancelled + m.expired + m.rejected, m.total_requests);
  EXPECT_EQ(static_cast<uint64_t>(m.served + m.cancelled + m.expired +
                                  m.rejected + m.late_dropoffs) +
                m.shed_requests,
            static_cast<uint64_t>(m.total_requests));
  EXPECT_EQ(m.ingest_queue_depth_max, 1u);  // the ring never holds more
}

// Contract 4: service mode under geo-sharding — the per-round conservation
// checks and the final census (which must count shed arrivals) all run.
TEST(ServiceModeTest, ComposesWithGeoSharding) {
  TinyPreset tiny("CHD");
  SimulationOptions sopts = tiny.Options();
  sopts.service_mode = true;
  sopts.service_qps = 2000;
  DispatchConfig config = tiny.Config(4);
  config.num_shards = 4;
  RunMetrics m = tiny.MakeEngine(sopts)->Run("SARD", config);
  EXPECT_EQ(m.num_shards, 4);
  EXPECT_EQ(static_cast<uint64_t>(m.served + m.cancelled + m.expired +
                                  m.rejected + m.late_dropoffs) +
                m.shed_requests,
            static_cast<uint64_t>(m.total_requests));
  EXPECT_GT(m.dispatch_latency_p99_ms, 0);
}

}  // namespace
}  // namespace structride
