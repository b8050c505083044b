// densitybench: the density-split SARD benchmark (see README.md next to
// this file). It links the structride library and measures it from the
// outside only: setup through DatasetByName/BuildGraph, HubLabeling and
// GenerateWorkload; runs through SimulationEngine::Run; per-round state
// through the public RepositioningPolicy hook, which proposes no moves.
//
//   densitybench --workload dense-replay|sparse-sharded|paced-service
//                --seed N --seconds S --trace 0|1 [--size full|tiny]
//                [--corrupt-digest] [--force-collapse]
//
// The last stdout line is one JSON object: the result (correct, attempted,
// failed, metrics) plus a "detail" object with sample counts, the digest and
// the reason for every failed check. The process exits 0 only when every
// check passed; run.py wraps it for the benchmark contract.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/insertion.h"
#include "dispatch/spatial_index.h"
#include "group/grouping.h"
#include "roadnet/hub_labeling.h"
#include "roadnet/travel_cost.h"
#include "sharegraph/builder.h"
#include "sim/datasets.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "sim/workload.h"
#include "util/random.h"

namespace structride {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --------------------------------------------------------------- workloads --

constexpr double kBatchPeriod = 5;  ///< virtual seconds per dispatch round
constexpr int kWorkerThreads = 2;   ///< every workload's dispatch threads

struct Workload {
  std::string name;
  int num_requests = 0;
  double duration = 0;  ///< virtual arrival window, seconds
  int vehicles = 0;
  int shards = 1;
  double qps = 0;  ///< paced arrival rate; 0 = replay
  /// A replay Run shorter than this is an error: its timings would be noise.
  double min_run_s = 0;
};

// See README.md for why each workload exists. The self-test's "tiny" size
// shortens the stream and its window alike, so arrivals per 5 s round and
// the fleet that serves them stay as in "full".
bool MakeWorkload(const std::string& name, bool tiny, Workload* w) {
  w->name = name;
  int div = tiny ? 20 : 1;
  if (name == "dense-replay") {
    // ~14 arrivals per round: share graph, cache and insertion dominate.
    w->num_requests = 40000;
    w->duration = 14400;
    w->vehicles = 1500;
  } else if (name == "sparse-sharded") {
    // <1 arrival per round over 4 shards: per-round engine and dispatch
    // bookkeeping dominates (the NYC preset at scale 6).
    w->num_requests = 24000;
    w->duration = 129600;
    w->vehicles = 720;
    w->shards = 4;
  } else if (name == "paced-service") {
    // Open loop at a fixed rate well below the knee: the dense arrival
    // rate, at twice the wall budget per round it collapsed at. Tiny keeps
    // over 1 s of arrivals, or the run's fixed drain tail would trip the
    // collapse check.
    w->num_requests = 4000;
    w->duration = 1440;
    w->vehicles = 250;
    w->qps = 1250;
    if (tiny) div = 2;
  } else {
    return false;
  }
  w->num_requests /= div;
  w->duration /= div;
  w->min_run_s = (tiny || w->qps > 0) ? 0 : 1.0;
  return true;
}

DispatchConfig MakeConfig(const Workload& w, int threads) {
  DispatchConfig config;
  config.vehicle_capacity = 4;
  config.grouping.max_group_size = 4;
  config.sharegraph.vehicle_capacity = 4;
  config.num_threads = threads;
  // Without this SARD runs serially at one shard whatever num_threads says.
  config.sard_parallel_acceptance = true;
  config.num_shards = w.shards;
  return config;
}

// ------------------------------------------------------------------- setup --

/// Everything built before a Run: graph, hub labels and the request stream.
/// Engines borrow the network and labels, so this never moves.
struct Prepared {
  DatasetSpec spec;
  GraphBundle graph;
  std::unique_ptr<HubLabeling> labels;
  std::vector<Request> requests;
  double graph_build_s = 0;
  double index_build_s = 0;
  double workload_gen_s = 0;

  Prepared() = default;
  Prepared(const Prepared&) = delete;
  Prepared& operator=(const Prepared&) = delete;
};

TravelCostOptions EngineOptions(const Prepared& p) {
  TravelCostOptions opts;
  opts.prebuilt_hub_labels = p.labels.get();
  return opts;
}

// The NYC preset fixes the demand pattern: its workload seed places the
// hotspots and draws the trips, and a different draw changes trip lengths
// and sharing far more than any code change would. So the preset seed
// generates the trips, and the benchmark seed draws when each is released.
// Deadlines follow the preset's gamma policy from the drawn release time.
std::vector<Request> SampleStream(const Prepared& p, const Workload& w,
                                  uint64_t seed) {
  WorkloadOptions trip_opts = p.spec.workload;
  trip_opts.num_requests = w.num_requests;
  std::vector<Request> stream;
  {
    // Direct costs go through a throwaway engine so the runs start cold.
    TravelCostEngine gen(p.graph.network, EngineOptions(p));
    stream = GenerateWorkload(p.graph.network, &gen, p.spec.policy, trip_opts);
  }
  Rng rng(seed);
  for (Request& r : stream) {
    r.release_time = rng.Uniform(0, w.duration);
    r.deadline = r.release_time + p.spec.policy.gamma * r.direct_cost;
    r.latest_pickup = r.deadline - r.direct_cost;
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Request& a, const Request& b) {
                     return a.release_time < b.release_time;
                   });
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].id = static_cast<RequestId>(i);
  }
  return stream;
}

std::unique_ptr<Prepared> Prepare(const Workload& w, uint64_t seed) {
  auto p = std::make_unique<Prepared>();
  double t0 = Now();
  p->spec = DatasetByName("NYC", 1.0);
  p->graph = BuildGraph(&p->spec);
  double t1 = Now();
  p->labels = std::make_unique<HubLabeling>(p->graph.network);
  double t2 = Now();
  p->requests = SampleStream(*p, w, seed);
  double t3 = Now();
  p->graph_build_s = t1 - t0;
  p->index_build_s = t2 - t1;
  p->workload_gen_s = t3 - t2;
  return p;
}

/// One Run's engines: a cold travel-cost cache and a freshly spawned fleet,
/// so every Run of a seed starts from the same state.
struct Rig {
  std::unique_ptr<TravelCostEngine> engine;
  std::unique_ptr<SimulationEngine> sim;
  double spawn_s = 0;
};

Rig MakeRig(const Prepared& p, const Workload& w, uint64_t seed) {
  Rig rig;
  double t0 = Now();
  rig.engine =
      std::make_unique<TravelCostEngine>(p.graph.network, EngineOptions(p));
  SimulationOptions sopts;
  sopts.batch_period = kBatchPeriod;
  sopts.seed = seed;
  sopts.dataset = "NYC";
  if (w.qps > 0) {
    sopts.service_mode = true;
    sopts.service_qps = w.qps;
  }
  rig.sim =
      std::make_unique<SimulationEngine>(rig.engine.get(), p.requests, sopts);
  rig.sim->SpawnFleet(w.vehicles, 4);
  rig.spawn_s = Now() - t0;
  return rig;
}

// ----------------------------------------------------------------- samples --

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(const std::vector<double>& v) {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// ------------------------------------------------------------------ probes --

/// Times calls into each layer's public functions on a sampled round's
/// state: the fleet and open pool after the round, plus the next round's
/// arrivals taken from the stream. Every call goes through a private
/// TravelCostEngine, so the run's own counters (sp_queries, lookups) are
/// untouched.
class LayerProbe {
 public:
  LayerProbe(const Prepared& p, const DispatchConfig& config)
      : engine_(p.graph.network, SmallCache(p)),
        config_(config),
        stream_(p.requests) {}

  std::vector<double> hit_ns, miss_us, sharegraph_build_us, sharegraph_edges,
      enumerate_us, groups, insertion_us, spatial_rebuild_us,
      spatial_query_us;
  double sink = 0;  ///< keeps timed results observable

  /// Probes one round; \p next_id is the first stream request the engine
  /// has not released yet. Returns false when there was nothing to probe.
  bool Probe(const RepositioningContext& ctx, size_t next_id) {
    const std::vector<Vehicle>& fleet = *ctx.fleet;
    const std::vector<const Request*>& open = *ctx.open;

    // The next round's arrivals, released now with their slack kept (the
    // shift service mode applies when it drains a request).
    arrivals_.clear();
    for (size_t i = next_id; i < stream_.size(); ++i) {
      Request r = stream_[i];
      if (r.release_time > ctx.now + kBatchPeriod ||
          arrivals_.size() >= kMaxBatch) {
        break;
      }
      const double delta = ctx.now - r.release_time;
      r.release_time += delta;
      r.deadline += delta;
      r.latest_pickup += delta;
      arrivals_.push_back(r);
    }
    batch_.clear();
    for (size_t i = 0; i < open.size() && batch_.size() < kMaxBatch; ++i) {
      batch_.push_back(*open[i]);
    }
    const std::vector<Request>& focus = arrivals_.empty() ? batch_ : arrivals_;
    if (focus.empty()) return false;
    const size_t nq = std::min<size_t>(focus.size(), 16);

    double t0 = Now();
    index_.Rebuild(fleet, *ctx.net);
    spatial_rebuild_us.push_back((Now() - t0) * 1e6);
    size_t hits[16];
    for (size_t i = 0; i < nq; ++i) {
      t0 = Now();
      size_t got = index_.KNearestInto(focus[i].source, 16, hits);
      spatial_query_us.push_back((Now() - t0) * 1e6);
      sink += static_cast<double>(got);
    }

    // Cost: fresh pickup-to-dropoff pairs across requests are mostly
    // misses; a pair already cached is re-read in a loop for the hit cost.
    for (size_t i = 0; i < nq; ++i) {
      const Request& a = focus[i];
      const Request& b = focus[(i + 1) % focus.size()];
      const uint64_t before = engine_.num_queries();
      t0 = Now();
      sink += engine_.Cost(a.source, b.destination);
      const double dt = Now() - t0;
      if (engine_.num_queries() != before) miss_us.push_back(dt * 1e6);
    }
    {
      const Request& a = focus[0];
      sink += engine_.Cost(a.source, a.destination);
      constexpr int kReps = 256;
      t0 = Now();
      for (int k = 0; k < kReps; ++k) {
        sink += engine_.Cost(a.source, a.destination);
      }
      hit_ns.push_back((Now() - t0) * 1e9 / kReps);
    }

    // Share graph: the open pool (capped so a probe stays small) goes in
    // untimed; the timed part folds the arrivals in, as a round does.
    ShareGraphBuilder builder(&engine_, config_.sharegraph);
    builder.AddRequests(batch_);
    t0 = Now();
    builder.AddRequests(arrivals_);
    sharegraph_build_us.push_back((Now() - t0) * 1e6);
    const ShareGraph& graph = builder.graph();
    sharegraph_edges.push_back(static_cast<double>(graph.NumEdges()));

    // Groups and insertions: the best-connected arrival (or open request)
    // and up to 7 share-graph neighbours, for the nearest of its 16 nearest
    // in-service vehicles that can take it (else the nearest), as a
    // proposal that could be accepted.
    size_t best = 0;
    for (size_t i = 1; i < focus.size(); ++i) {
      if (graph.Degree(focus[i].id) > graph.Degree(focus[best].id)) best = i;
    }
    pool_.clear();
    pool_.push_back(focus[best]);
    for (RequestId nb : graph.Neighbors(focus[best].id)) {
      if (pool_.size() >= 8) break;
      pool_.push_back(builder.request(nb));
    }
    const size_t near = index_.KNearestInto(focus[best].source, 16, hits);
    if (near == 0) return true;
    size_t vi = hits[0];
    for (size_t k = 0; k < near; ++k) {
      const Vehicle& c = fleet[hits[k]];
      if (BestInsertion(c.route_state(ctx.now), c.schedule(), focus[best],
                        &engine_)
              .feasible) {
        vi = hits[k];
        break;
      }
    }
    const Vehicle& v = fleet[vi];
    const RouteState state = v.route_state(ctx.now);
    t0 = Now();
    GroupingResult result = EnumerateGroups(state, v.schedule(), pool_, &graph,
                                            &engine_, config_.grouping);
    enumerate_us.push_back((Now() - t0) * 1e6);
    groups.push_back(static_cast<double>(result.groups.size()));
    for (const Request& r : pool_) {
      t0 = Now();
      InsertionCandidate c = BestInsertion(state, v.schedule(), r, &engine_);
      insertion_us.push_back((Now() - t0) * 1e6);
      sink += c.feasible ? c.delta_cost : 0;
    }
    return true;
  }

  const std::vector<Request>& stream() const { return stream_; }

 private:
  static constexpr size_t kMaxBatch = 256;

  static TravelCostOptions SmallCache(const Prepared& p) {
    TravelCostOptions opts = EngineOptions(p);
    opts.cache_capacity = 1u << 16;
    opts.cache_shards = 4;
    return opts;
  }

  TravelCostEngine engine_;
  DispatchConfig config_;
  const std::vector<Request>& stream_;
  dispatch::FleetSpatialIndex index_;
  std::vector<Request> arrivals_;
  std::vector<Request> batch_;
  std::vector<Request> pool_;
};

/// The installed RepositioningPolicy: proposes nothing. After every round
/// it stamps the wall clock, the round's virtual time and the open-pool
/// size; with a probe attached it also probes every `probe_every`-th round
/// that has requests to probe, and times the probing it does.
class RoundClock : public RepositioningPolicy {
 public:
  RoundClock(size_t expected_rounds, bool track_drained, LayerProbe* probe,
             size_t probe_every)
      : track_drained_(track_drained),
        probe_(probe),
        probe_every_(std::max<size_t>(1, probe_every)) {
    wall.reserve(2 * expected_rounds + 64);
    now.reserve(2 * expected_rounds + 64);
    open.reserve(2 * expected_rounds + 64);
    if (track_drained_) drained.reserve(2 * expected_rounds + 64);
  }

  const char* name() const override { return "densitybench-round-clock"; }

  void Propose(const RepositioningContext& ctx,
               std::vector<RepositionMove>* /*moves*/) override {
    const double t = Now();
    wall.push_back(t);
    now.push_back(ctx.now);
    open.push_back(static_cast<double>(ctx.open->size()));
    if (track_drained_) {
      // Service mode drains arrivals in stream (= id) order, and after its
      // first round a drained request is either still open or committed
      // to a vehicle, so the largest id in sight ends the drained prefix.
      for (const Request* r : *ctx.open) {
        drained_ = std::max<int64_t>(drained_, r->id + 1);
      }
      for (const Vehicle& v : *ctx.fleet) {
        for (const Stop& stop : v.schedule().stops()) {
          drained_ = std::max<int64_t>(drained_, stop.request + 1);
        }
      }
      drained.push_back(static_cast<double>(drained_));
    }
    if (probe_ == nullptr || wall.size() < next_probe_) return;
    size_t next_id = static_cast<size_t>(drained_);
    if (!track_drained_) {
      const std::vector<Request>& stream = probe_->stream();
      next_id = static_cast<size_t>(
          std::upper_bound(stream.begin(), stream.end(), ctx.now,
                           [](double now, const Request& r) {
                             return now < r.release_time;
                           }) -
          stream.begin());
    }
    if (probe_->Probe(ctx, next_id)) next_probe_ = wall.size() + probe_every_;
    hook_s += Now() - t;
  }

  std::vector<double> wall, now, open;
  /// Service mode: requests drained from the ingest ring by each round.
  std::vector<double> drained;
  double hook_s = 0;  ///< wall seconds spent probing inside Run

 private:
  bool track_drained_;
  int64_t drained_ = 0;
  LayerProbe* probe_;
  size_t probe_every_;
  size_t next_probe_ = 0;
};

// -------------------------------------------------------------------- runs --

/// Ends the process once a paced Run has certainly collapsed, instead of
/// waiting for it: past the knee a Run can take minutes. If the Run is still
/// going at `deadline_s` after construction, the watch calls `on_collapse`,
/// which prints what the invocation can still report and returns the exit
/// status, and then exits with it. The Run's own threads end with the
/// process.
class CollapseWatch {
 public:
  CollapseWatch(double deadline_s, std::function<int()> on_collapse)
      : thread_([this, deadline_s, on_collapse] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(deadline_s),
                            [this] { return done_; })) {
            std::fprintf(stderr,
                         "densitybench: paced Run still going after %.1f s: "
                         "collapsed\n",
                         deadline_s);
            const int code = on_collapse();
            std::fflush(nullptr);
            std::_Exit(code);
          }
        }) {}

  ~CollapseWatch() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  ///< last, so the members it uses exist first
};

struct RunResult {
  RunMetrics m;
  double run_s = 0;
  double busy_s = 0;
  double hook_s = 0;
  uint64_t lookups = 0;
  uint64_t queries = 0;
  std::string digest;
  bool failed = false;  ///< shed, collapsed, late or census gap
  std::vector<std::string> errors;  ///< correctness violations
  std::vector<double> round_ms;     ///< wall gap between consecutive rounds
  std::vector<double> decision_ms;  ///< per-request decision times
  std::vector<double> open;         ///< open pool after every round
};

std::string Digest(const RunMetrics& m, bool corrupt) {
  // FNV-1a over the bitwise outcome contract.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  uint64_t cost_bits = 0;
  std::memcpy(&cost_bits, &m.unified_cost, sizeof cost_bits);
  mix(static_cast<uint64_t>(m.served));
  mix(cost_bits);
  mix(m.sp_queries);
  mix(m.sharegraph_pair_checks);
  if (corrupt) h ^= 1;
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Twice the paced length: a paced Run still going then has collapsed.
double CollapseDeadline(const Workload& w) {
  return 2 * static_cast<double>(w.num_requests) / w.qps;
}

/// One Run. A paced Run that collapses never returns: `on_collapse` reports
/// and the process exits (see CollapseWatch). `force_collapse` gives the
/// watch a zero deadline, for the self-test.
RunResult RunOnce(const Prepared& p, const Workload& w, uint64_t seed,
                  Rig rig, int threads, LayerProbe* probe, bool corrupt,
                  const std::function<int()>& on_collapse,
                  bool force_collapse = false) {
  const size_t expected_rounds =
      static_cast<size_t>(w.duration / kBatchPeriod) + 16;
  auto clock_owner = std::make_unique<RoundClock>(
      expected_rounds, w.qps > 0, probe, expected_rounds / 120);
  RoundClock* clock = clock_owner.get();
  rig.sim->SetRepositioningPolicy(std::move(clock_owner));

  RunResult r;
  std::unique_ptr<CollapseWatch> watch;
  if (w.qps > 0) {
    watch = std::make_unique<CollapseWatch>(
        force_collapse ? 0.0 : CollapseDeadline(w), on_collapse);
  }
  const double t0 = Now();
  r.m = rig.sim->Run("SARD", MakeConfig(w, threads));
  r.run_s = Now() - t0;
  watch.reset();
  r.busy_s = r.m.running_time;
  r.hook_s = clock->hook_s;
  r.lookups = rig.engine->num_lookups();
  r.queries = rig.engine->num_queries();
  r.digest = Digest(r.m, corrupt);
  r.open = clock->open;

  double prev = t0;
  for (double t : clock->wall) {
    r.round_ms.push_back((t - prev) * 1e3);
    prev = t;
  }
  if (w.qps <= 0) {
    // Replay decision time: a request released in (now[k-1], now[k]] is
    // decided by round k, whose wall interval it waited through.
    size_t next = 0;
    for (size_t k = 0; k < clock->now.size(); ++k) {
      while (next < p.requests.size() &&
             p.requests[next].release_time <= clock->now[k]) {
        r.decision_ms.push_back(r.round_ms[k]);
        ++next;
      }
    }
  } else {
    // Open loop: request i is due 1/qps after request i-1, the first at the
    // Run call; it is decided by the round that drained it.
    size_t next = 0;
    for (size_t k = 0; k < clock->drained.size(); ++k) {
      for (; next < static_cast<size_t>(clock->drained[k]); ++next) {
        const double due = t0 + static_cast<double>(next) / w.qps;
        r.decision_ms.push_back((clock->wall[k] - due) * 1e3);
      }
    }
  }

  const RunMetrics& m = r.m;
  const long census = static_cast<long>(m.served) + m.cancelled + m.expired +
                      m.rejected + m.late_dropoffs +
                      static_cast<long>(m.shed_requests);
  if (census != m.total_requests) {
    r.errors.push_back("census does not close: " + std::to_string(census) +
                       " of " + std::to_string(m.total_requests));
  }
  if (m.late_dropoffs != 0) {
    r.errors.push_back("late dropoffs: " + std::to_string(m.late_dropoffs));
  }
  if (m.total_requests != static_cast<int>(p.requests.size())) {
    r.errors.push_back("run saw a different request count");
  }
  r.failed = !r.errors.empty();
  std::fprintf(stderr,
               "densitybench: %s seed %llu threads %d: run %.3f s, busy %.3f "
               "s, rounds %zu, served %d, shed %llu, digest %s\n",
               w.name.c_str(), static_cast<unsigned long long>(seed), threads,
               r.run_s, r.busy_s, r.round_ms.size(), m.served,
               static_cast<unsigned long long>(m.shed_requests),
               r.digest.c_str());
  if (w.qps > 0) {
    if (m.shed_requests > 0 || r.run_s > CollapseDeadline(w)) r.failed = true;
  } else if (r.run_s < w.min_run_s) {
    r.errors.push_back("replay Run took " + std::to_string(r.run_s) +
                       " s, under the " + std::to_string(w.min_run_s) +
                       " s floor");
  }
  return r;
}

// ------------------------------------------------------------------ output --

class Json {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    Sep(&metrics_);
    metrics_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                unit + "\"}";
  }
  void Detail(const std::string& name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    Sep(&detail_);
    detail_ += "\"" + name + "\": " + buf;
  }
  void Detail(const std::string& name, const std::string& value) {
    Sep(&detail_);
    detail_ += "\"" + name + "\": \"" + Escape(value) + "\"";
  }
  void Error(const std::string& e) { errors_.push_back(e); }
  bool ok() const { return errors_.empty(); }

  void Print(long attempted, long failed) {
    std::string errs;
    for (const std::string& e : errors_) {
      Sep(&errs);
      errs += "\"" + Escape(e) + "\"";
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
        "\"metrics\": {%s}, \"detail\": {%s, \"errors\": [%s]}}\n",
        ok() ? "true" : "false", attempted, failed, metrics_.c_str(),
        detail_.c_str(), errs.c_str());
    std::fflush(stdout);
  }

 private:
  static void Sep(std::string* s) {
    if (!s->empty()) *s += ", ";
  }
  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
  }
  std::string metrics_, detail_;
  std::vector<std::string> errors_;
};

double PeakRssMb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void CheckRun(const RunResult& r, const std::string& label,
              const std::string& reference_digest, bool replay, Json* out) {
  for (const std::string& e : r.errors) out->Error(label + ": " + e);
  if (replay && r.digest != reference_digest) {
    out->Error(label + ": outcome digest " + r.digest + " != " +
               reference_digest);
  }
}

// ---------------------------------------------------------- end to end ----

/// Prints the end-to-end result over `runs` (a failed run is never timed)
/// and returns the exit status: 3 when no run could be timed.
int Report(const Workload& w, uint64_t seed, const std::vector<double>& setup_s,
           const std::vector<RunResult>& runs, const std::string& reference,
           long attempted, long failed, Json* out_json) {
  Json& out = *out_json;
  const bool replay = w.qps <= 0;
  std::vector<double> rps, p50, p90, push_p50, push_p99, rate, cost, wait;
  size_t decision_samples = 0;
  for (const RunResult& r : runs) {
    if (r.failed) continue;  // a failed run is never timed
    rps.push_back(r.m.total_requests / r.run_s);
    p50.push_back(Quantile(r.decision_ms, 0.50));
    p90.push_back(Quantile(r.decision_ms, 0.90));
    decision_samples += r.decision_ms.size();
    push_p50.push_back(r.m.dispatch_latency_p50_ms);
    push_p99.push_back(r.m.dispatch_latency_p99_ms);
    rate.push_back(r.m.service_rate);
    cost.push_back(r.m.unified_cost);
    wait.push_back(r.m.pickup_wait_p99);
  }
  if (rps.empty()) {
    std::fprintf(stderr, "densitybench: every run failed; nothing measured\n");
    return 3;
  }

  out.Metric("setup_s", Median(setup_s), "s");
  out.Metric("requests_per_s", Median(rps), "1/s");
  // Per-run quantiles, then the median over runs: one run hit by a burst
  // of host noise cannot move the tail figure on its own. The tail is p90,
  // not p99: on a shared host p99 measures the host's stalls (README.md).
  out.Metric("decision_p50_ms", Median(p50), "ms");
  out.Metric("decision_p90_ms", Median(p90), "ms");
  out.Metric("service_rate", Median(rate), "frac");
  out.Metric("unified_cost", Median(cost), "cost");
  out.Metric("pickup_wait_p99_s", Median(wait), "s");
  out.Metric("peak_rss_mb", PeakRssMb(), "MB");
  out.Metric("completed_frac",
             1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
             "frac");
  out.Detail("workload", w.name);
  out.Detail("seed", static_cast<double>(seed));
  if (replay) out.Detail("digest", reference);
  out.Detail("setups", static_cast<double>(setup_s.size()));
  out.Detail("runs", static_cast<double>(attempted / w.num_requests));
  out.Detail("timed_runs", static_cast<double>(rps.size()));
  out.Detail("decision_samples", static_cast<double>(decision_samples));
  if (!replay) {
    // The engine's own ingest-push-to-decision histogram, for comparison:
    // the gap to decision_*_ms is how late the arrivals were pushed.
    out.Detail("engine_push_p50_ms", Median(push_p50));
    out.Detail("engine_push_p99_ms", Median(push_p99));
  }
  out.Detail("run_s_median", Median([&] {
               std::vector<double> v;
               for (const RunResult& r : runs) v.push_back(r.run_s);
               return v;
             }()));
  out.Print(attempted, failed);
  return out.ok() ? 0 : 1;
}

int EndToEnd(const Workload& w, uint64_t seed, double seconds, bool corrupt,
             bool force_collapse) {
  Json out;
  const bool replay = w.qps <= 0;
  const double start = Now();

  // Set-up is timed several times; the last one is kept for the runs.
  constexpr int kSetups = 5;
  std::vector<double> setup_s;
  std::unique_ptr<Prepared> p;
  Rig first_rig;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = Now();
    p.reset();
    first_rig = Rig();
    p = Prepare(w, seed);
    first_rig = MakeRig(*p, w, seed);
    setup_s.push_back(Now() - t0);
  }

  std::vector<RunResult> runs;
  std::string reference;
  long attempted = 0, failed = 0;
  // Prints the result over the finished runs; with `collapsed`, one more
  // run, the one still going, counts as failed. Returns the exit status.
  auto report = [&](bool collapsed) {
    if (collapsed) {
      attempted += w.num_requests;
      failed += w.num_requests;
    }
    return Report(w, seed, setup_s, runs, reference, attempted, failed, &out);
  };
  constexpr size_t kMinRuns = 3;
  while (runs.size() < kMinRuns || Now() - start < seconds) {
    Rig rig = runs.empty() ? std::move(first_rig) : MakeRig(*p, w, seed);
    RunResult r = RunOnce(
        *p, w, seed, std::move(rig), kWorkerThreads, nullptr,
        corrupt && runs.size() == 1, [&] { return report(true); },
        force_collapse && runs.size() == 1);
    if (reference.empty()) reference = r.digest;
    CheckRun(r, "run " + std::to_string(runs.size()), reference, replay, &out);
    attempted += w.num_requests;
    if (r.failed) failed += w.num_requests;
    runs.push_back(std::move(r));
    if (runs.size() >= 64) break;
  }
  return report(false);
}

// ------------------------------------------------------------------ traced --

int Traced(const Workload& w, uint64_t seed, double main_start, bool corrupt) {
  Json out;
  const bool replay = w.qps <= 0;

  // A traced run needs all three passes, so a collapse ends it unreported.
  auto collapsed = [] {
    std::fprintf(stderr, "densitybench: a traced pass collapsed\n");
    return 3;
  };

  // Primary pass: set-up spans, then the Run span with the round clock only.
  std::unique_ptr<Prepared> p = Prepare(w, seed);
  Rig rig = MakeRig(*p, w, seed);
  const double spawn_s = rig.spawn_s;
  const double setup_spans =
      p->graph_build_s + p->index_build_s + p->workload_gen_s + spawn_s;
  RunResult primary =
      RunOnce(*p, w, seed, std::move(rig), kWorkerThreads, nullptr, false,
              collapsed);
  const double coverage = (setup_spans + primary.run_s) / (Now() - main_start);

  // Probe pass: same run, sampled rounds probed through a private engine.
  LayerProbe probe(*p, MakeConfig(w, kWorkerThreads));
  RunResult probed = RunOnce(*p, w, seed, MakeRig(*p, w, seed), kWorkerThreads,
                             &probe, corrupt, collapsed);
  // Serial pass for the pool speed-up.
  RunResult serial =
      RunOnce(*p, w, seed, MakeRig(*p, w, seed), 1, nullptr, false, collapsed);

  CheckRun(primary, "traced run", primary.digest, replay, &out);
  CheckRun(probed, "probed run", primary.digest, replay, &out);
  CheckRun(serial, "1-thread run", primary.digest, replay, &out);
  if (coverage < 0.95) {
    out.Error("set-up and Run spans cover only " + std::to_string(coverage) +
              " of the process wall time");
  }
  if (primary.failed || probed.failed || serial.failed) {
    std::fprintf(stderr, "densitybench: a traced run failed\n");
    out.Error("a traced run failed (shed, collapsed, late or census gap)");
  }

  const RunMetrics& m = primary.m;
  const double engine_self_s = primary.run_s - primary.busy_s;

  out.Metric("roadnet.graph_build_s", p->graph_build_s, "s");
  out.Metric("roadnet.index_build_s", p->index_build_s, "s");
  out.Metric("roadnet.lookups", static_cast<double>(primary.lookups), "count");
  out.Metric("roadnet.backend_queries", static_cast<double>(primary.queries),
             "count");
  out.Metric("roadnet.hit_rate",
             primary.lookups == 0
                 ? 0
                 : 1.0 - static_cast<double>(primary.queries) /
                             static_cast<double>(primary.lookups),
             "frac");
  out.Metric("roadnet.hit_ns", Median(probe.hit_ns), "ns");
  out.Metric("roadnet.miss_us", Median(probe.miss_us), "us");
  out.Metric("sharegraph.pair_checks",
             static_cast<double>(m.sharegraph_pair_checks), "count");
  out.Metric("sharegraph.build_us_per_round", Median(probe.sharegraph_build_us),
             "us");
  out.Metric("sharegraph.edges_per_round", Mean(probe.sharegraph_edges),
             "count");
  out.Metric("group.enumerate_us", Median(probe.enumerate_us), "us");
  out.Metric("group.groups_per_round", Mean(probe.groups), "count");
  out.Metric("core.insertion_us", Median(probe.insertion_us), "us");
  out.Metric("dispatch.busy_s", primary.busy_s, "s");
  out.Metric("dispatch.spatial_rebuild_us", Median(probe.spatial_rebuild_us),
             "us");
  out.Metric("dispatch.spatial_query_us", Median(probe.spatial_query_us), "us");
  out.Metric("dispatch.shard_load_max_over_mean", m.shard_load_max_over_mean,
             "ratio");
  out.Metric("dispatch.shard_round_time_max_over_mean",
             m.shard_round_time_max_over_mean, "ratio");
  out.Metric("dispatch.cross_shard_trips", m.cross_shard_trips, "count");
  out.Metric("dispatch.memory_bytes", static_cast<double>(m.memory_bytes),
             "bytes");
  out.Metric("sim.engine_self_s", engine_self_s, "s");
  out.Metric("sim.rounds", static_cast<double>(primary.round_ms.size()),
             "count");
  out.Metric("sim.open_per_round_mean", Mean(primary.open), "count");
  out.Metric("sim.arrivals_per_round",
             static_cast<double>(m.total_requests) /
                 std::max<size_t>(1, primary.round_ms.size()),
             "count");
  out.Metric("sim.round_p50_ms", Quantile(primary.round_ms, 0.50), "ms");
  out.Metric("sim.round_p99_ms", Quantile(primary.round_ms, 0.99), "ms");
  out.Metric("sim.workload_gen_s", p->workload_gen_s, "s");
  out.Metric("sim.fleet_spawn_s", spawn_s, "s");
  out.Metric("util.pool_speedup",
             primary.busy_s > 0 ? serial.busy_s / primary.busy_s : 0, "ratio");
  out.Metric("util.ingest_depth_max",
             static_cast<double>(m.ingest_queue_depth_max), "count");
  out.Metric("util.shed", static_cast<double>(m.shed_requests), "count");
  out.Metric("util.arena_peak_bytes", static_cast<double>(m.arena_peak_bytes),
             "bytes");
  out.Metric("trace.run_s", primary.run_s, "s");
  out.Metric("trace.coverage_frac", coverage, "frac");
  out.Metric("trace.overhead_frac",
             (probed.run_s - primary.run_s) / primary.run_s, "frac");
  out.Metric("trace.probe_s", probed.hook_s, "s");

  out.Detail("workload", w.name);
  out.Detail("seed", static_cast<double>(seed));
  if (replay) out.Detail("digest", primary.digest);
  out.Detail("probe_rounds", static_cast<double>(probe.sharegraph_build_us.size()));
  out.Detail("miss_samples", static_cast<double>(probe.miss_us.size()));
  out.Detail("insertion_samples", static_cast<double>(probe.insertion_us.size()));
  out.Detail("round_samples", static_cast<double>(primary.round_ms.size()));
  out.Detail("probe_sink", probe.sink);
  const long attempted = 3L * w.num_requests;
  const long failed = (primary.failed + probed.failed + serial.failed) *
                      static_cast<long>(w.num_requests);
  out.Print(attempted, failed);
  return out.ok() ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: densitybench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--corrupt-digest] "
               "[--force-collapse]\n");
  return 2;
}

int Main(int argc, char** argv) {
  const double main_start = Now();
  std::string workload, size = "full";
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool corrupt = false, force_collapse = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--corrupt-digest") {
      corrupt = true;
    } else if (a == "--force-collapse") {
      force_collapse = true;
    } else if (!has_value) {
      return Usage();
    } else if (a == "--workload") {
      workload = argv[++i];
    } else if (a == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::atof(argv[++i]);
    } else if (a == "--trace") {
      trace = std::atoi(argv[++i]);
    } else if (a == "--size") {
      size = argv[++i];
    } else {
      return Usage();
    }
  }
  Workload w;
  if (!MakeWorkload(workload, size == "tiny", &w) ||
      (size != "tiny" && size != "full") || (trace != 0 && trace != 1) ||
      !(seconds > 0)) {
    return Usage();
  }
  if (const char* env = std::getenv("STRUCTRIDE_GRAPH_FILE")) {
    if (env[0] != '\0') {
      std::fprintf(stderr,
                   "densitybench: unset STRUCTRIDE_GRAPH_FILE; the benchmark "
                   "runs on the synthetic NYC preset only\n");
      return 2;
    }
  }
  return trace ? Traced(w, seed, main_start, corrupt)
               : EndToEnd(w, seed, seconds, corrupt, force_collapse);
}

}  // namespace
}  // namespace structride

int main(int argc, char** argv) { return structride::Main(argc, argv); }
