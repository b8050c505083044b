// A complete DispatchContext for driving one dispatcher by hand, built the
// way the simulation engine builds each shard's: a run-scoped share graph,
// a batch arena rewound every round, and SoA planes refreshed
// every round over the fleet and ctx.pending.

#pragma once

#include <vector>

#include "core/entity_pools.h"
#include "dispatch/dispatcher.h"
#include "sharegraph/builder.h"
#include "util/arena.h"

namespace structride {

struct BatchContext {
  BatchContext(TravelCostEngine* engine, std::vector<Vehicle>* fleet,
               const DispatchConfig& config)
      : sharegraph(engine, config.sharegraph) {
    ctx.engine = engine;
    ctx.fleet = fleet;
    ctx.sharegraph = &sharegraph;
    ctx.arena = &arena;
    ctx.fleet_soa = &fleet_soa;
    ctx.pending_soa = &pending_soa;
  }

  /// Starts a round at \p now: clears the outputs, rewinds the arena and
  /// refreshes both planes. Returns the context to hand to OnBatch.
  DispatchContext* Round(double now) {
    ctx.now = now;
    ctx.assigned.clear();
    ctx.rejected.clear();
    ctx.repositions.clear();
    arena.Reset();
    fleet_soa.Refresh(ctx.fleet);
    pending_soa.Refresh(
        Span<const Request* const>(ctx.pending.data(), ctx.pending.size()));
    return &ctx;
  }

  ShareGraphBuilder sharegraph;
  EpochArena arena;
  FleetSoA fleet_soa;
  RequestSoA pending_soa;
  DispatchContext ctx;
};

}  // namespace structride
