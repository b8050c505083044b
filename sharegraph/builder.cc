#include "sharegraph/builder.h"

#include <algorithm>

#include "util/arena.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace structride {

namespace {

// The four stop orders in which the two rides overlap (sequential service is
// not "sharing" and would make the graph near-complete).
constexpr int kJointOrders[4][4] = {
    // 0=pickup a, 1=pickup b, 2=dropoff a, 3=dropoff b
    {0, 1, 2, 3},
    {0, 1, 3, 2},
    {1, 0, 2, 3},
    {1, 0, 3, 2},
};

}  // namespace

template <typename Check>
bool ShareGraphBuilder::AnyJointOrderFeasible(const Request& a,
                                              const Request& b,
                                              Check check) const {
  const Stop stops[4] = {PickupStop(a), PickupStop(b), DropoffStop(a),
                         DropoffStop(b)};
  Stop sequence[4];
  for (const auto& order : kJointOrders) {
    for (int k = 0; k < 4; ++k) sequence[static_cast<size_t>(k)] = stops[order[k]];
    const Request& first = order[0] == 0 ? a : b;
    RouteState state;
    state.start = first.source;
    state.start_time = first.release_time;
    // A pair needs two seats; a capacity-1 fleet shares nothing.
    state.capacity = std::min(2, options_.vehicle_capacity);
    if (check(state, Span<const Stop>(sequence, 4))) return true;
  }
  return false;
}

bool ShareGraphBuilder::Shareable(const Request& a, const Request& b) const {
  return AnyJointOrderFeasible(
      a, b, [this](const RouteState& state, Span<const Stop> stops) {
        return CheckSchedule(state, stops, engine_).first;
      });
}

bool ShareGraphBuilder::LowerBoundShareable(const Request& a,
                                            const Request& b) const {
  return AnyJointOrderFeasible(
      a, b, [this](const RouteState& state, Span<const Stop> stops) {
        return CheckScheduleLowerBound(state, stops, engine_).first;
      });
}

bool ShareGraphBuilder::AngleWide(const Request& a, const Request& b) const {
  const RoadNetwork& net = engine_->network();
  Point sa = net.position(a.source), ea = net.position(a.destination);
  Point sb = net.position(b.source), eb = net.position(b.destination);
  // Directions of both trips as seen from the other trip's origin.
  double theta_ab = AngleBetween(ea - sb, eb - sb);
  double theta_ba = AngleBetween(eb - sa, ea - sa);
  return theta_ab >= options_.angle_threshold ||
         theta_ba >= options_.angle_threshold;
}

void ShareGraphBuilder::AddRequests(Span<const Request> batch) {
  // graph_.Nodes() is the pairing order (see the member comment); reading
  // it first settles any pending removal tombstones, so the node adds
  // below are pure appends and the reference stays valid for the tasks.
  const size_t first_new = graph_.Nodes().size();
  for (const Request& r : batch) {
    if (requests_.count(r.id)) continue;
    requests_[r.id] = r;
    graph_.AddNode(r.id);
  }
  const std::vector<RequestId>& order = graph_.Nodes();
  const size_t num_new = order.size() - first_new;
  if (num_new == 0) return;

  // Phase 1 — evaluate pair feasibility, one task per new request against
  // everything before it. Tasks only read builder state (no writer runs
  // concurrently) and write their own slot, and the pair checks are
  // mutually independent, so running them on the pool changes neither the
  // accepted edges nor the set of travel-cost pairs queried.
  struct Verdict {
    const Request* partner = nullptr;
    bool shareable = false;
  };
  // Per task, the exact-checked partners in insertion order.
  std::vector<std::vector<Verdict>> verdicts(num_new);
  std::vector<uint64_t> pruned(num_new, 0);
  auto check_new_request = [&](size_t task) {
    const size_t i = first_new + task;
    const Request& a = requests_.at(order[i]);
    std::vector<Verdict>& list = verdicts[task];
    // Free screens first (no shortest-path queries), collecting survivors.
    for (size_t j = 0; j < i; ++j) {
      const Request& b = requests_.at(order[j]);
      // Temporal screen: if one ride must end before the other exists, no
      // overlapping order can be feasible.
      if (a.release_time > b.deadline || b.release_time > a.deadline) continue;
      if (options_.use_angle_pruning && AngleWide(a, b) &&
          !LowerBoundShareable(a, b)) {
        ++pruned[task];
        continue;
      }
      list.push_back({&b, false});
    }
    // Batched warm-up: every surviving pair reaches Shareable, whose first
    // evaluated joint order starts at one rider's pickup and prices the leg
    // to the other pickup before any deadline can fail — so the
    // (a.source, b.source) cost is queried for every candidate regardless
    // of which order wins. Fetching those legs one-to-many pins a's source
    // label once; CostMany's per-target cache fill/count keeps the query
    // set — and hence sp_queries — identical to the point-to-point path.
    if (list.size() > 1) {
      // The leading rider must be able to make its own pickup, or every
      // joint order starting with it bails before pricing any leg; a pair
      // where neither rider can lead performs zero queries and must not be
      // warmed.
      const bool a_can_lead = a.release_time <= a.latest_pickup + 1e-7;
      std::vector<NodeId> pickups;
      pickups.reserve(list.size());
      for (const Verdict& v : list) {
        const Request& b = *v.partner;
        if (a_can_lead || b.release_time <= b.latest_pickup + 1e-7) {
          pickups.push_back(b.source);
        }
      }
      std::vector<double> warmed(pickups.size());
      engine_->CostMany(a.source, {pickups.data(), pickups.size()},
                        warmed.data());
    }
    for (Verdict& v : list) v.shareable = Shareable(a, *v.partner);
  };
  if (pool_ != nullptr && num_new > 1) {
    pool_->ParallelFor(num_new, check_new_request);
  } else {
    for (size_t task = 0; task < num_new; ++task) check_new_request(task);
  }

  // Phase 2 — commit serially in canonical order: edge lists come out in
  // the exact sequence the serial loop would have produced.
  for (size_t task = 0; task < num_new; ++task) {
    pruned_pairs_ += pruned[task];
    pair_checks_ += verdicts[task].size();
    const RequestId a_id = order[first_new + task];
    for (const Verdict& v : verdicts[task]) {
      if (v.shareable) graph_.AddEdge(a_id, v.partner->id);
    }
  }
}

bool ShareGraphBuilder::RemoveRequest(RequestId id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return false;
  graph_.RemoveNode(id);  // also retires the pairing-order slot
  requests_.erase(it);
  return true;
}

void ShareGraphBuilder::RemoveRequests(const std::vector<RequestId>& ids) {
  for (RequestId id : ids) RemoveRequest(id);
}

void ShareGraphBuilder::Retain(Span<const RequestId> keep) {
  // Arena internals (a sorted keep array instead of a hash set, the drop
  // list bump-allocated): a steady-state sync — everything retained,
  // nothing dropped — touches the heap not at all. Ids are unique, so the
  // sorted array answers membership exactly like the set did.
  ArenaScope scope(ScratchArena());
  RequestId* sorted = scope.AllocateArray<RequestId>(keep.size());
  std::copy(keep.begin(), keep.end(), sorted);
  std::sort(sorted, sorted + keep.size());
  const std::vector<RequestId>& nodes = graph_.Nodes();
  RequestId* drop = scope.AllocateArray<RequestId>(nodes.size());
  size_t num_drop = 0;
  for (RequestId id : nodes) {
    if (!std::binary_search(sorted, sorted + keep.size(), id)) {
      drop[num_drop++] = id;
    }
  }
  for (size_t k = 0; k < num_drop; ++k) RemoveRequest(drop[k]);
}

void ShareGraphBuilder::SyncToPending(
    const std::vector<const Request*>& pending) {
  ArenaScope scope(ScratchArena());
  RequestId* open_ids = scope.AllocateArray<RequestId>(pending.size());
  for (size_t i = 0; i < pending.size(); ++i) open_ids[i] = pending[i]->id;
  Retain({static_cast<const RequestId*>(open_ids), pending.size()});
  // The fresh slice, staged on the arena; a steady round has none and
  // AddRequests returns before allocating anything.
  Request* fresh = scope.AllocateArray<Request>(pending.size());
  size_t num_fresh = 0;
  for (const Request* r : pending) {
    if (!requests_.count(r->id)) fresh[num_fresh++] = *r;
  }
  AddRequests(Span<const Request>(fresh, num_fresh));
}

const Request& ShareGraphBuilder::request(RequestId id) const {
  auto it = requests_.find(id);
  SR_CHECK(it != requests_.end());
  return it->second;
}

size_t ShareGraphBuilder::MemoryBytes() const {
  size_t bytes = graph_.MemoryBytes();
  bytes += requests_.bucket_count() * sizeof(void*);
  bytes += requests_.size() * (sizeof(Request) + sizeof(RequestId) + 2 * sizeof(void*));
  return bytes;
}

}  // namespace structride
