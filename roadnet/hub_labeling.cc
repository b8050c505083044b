#include "roadnet/hub_labeling.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <queue>
#include <utility>

namespace structride {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Hierarchical quadtree-center build order: the node nearest the full
// bounding box's center first, then one node per quadrant, breadth-first
// down the recursion. Every prefix of the order covers the map at its own
// granularity — the separator property that keeps pruned-landmark labels
// near sqrt(n) on grid cities (a global centrality sort clusters redundant
// hubs in the center instead). Deterministic: ties broken by node id.
std::vector<NodeId> QuadtreeCenterOrder(const RoadNetwork& net) {
  const size_t n = net.num_nodes();
  std::vector<NodeId> order;
  order.reserve(n);
  if (n == 0) return order;

  double x0 = kInf, y0 = kInf, x1 = -kInf, y1 = -kInf;
  for (size_t v = 0; v < n; ++v) {
    const Point& p = net.position(static_cast<NodeId>(v));
    x0 = std::min(x0, p.x);
    y0 = std::min(y0, p.y);
    x1 = std::max(x1, p.x);
    y1 = std::max(y1, p.y);
  }

  struct Cell {
    double x0, y0, x1, y1;
    std::vector<NodeId> nodes;
  };
  std::deque<Cell> queue;
  Cell root{x0, y0, x1, y1, {}};
  root.nodes.resize(n);
  for (size_t v = 0; v < n; ++v) root.nodes[v] = static_cast<NodeId>(v);
  queue.push_back(std::move(root));

  while (!queue.empty()) {
    Cell cell = std::move(queue.front());
    queue.pop_front();
    if (cell.nodes.empty()) continue;
    const double cx = (cell.x0 + cell.x1) / 2;
    const double cy = (cell.y0 + cell.y1) / 2;

    NodeId pick = cell.nodes[0];
    double best = kInf;
    for (NodeId v : cell.nodes) {
      double d = EuclidDistance(net.position(v), {cx, cy});
      if (d < best || (d == best && v < pick)) {
        best = d;
        pick = v;
      }
    }
    order.push_back(pick);
    if (cell.nodes.size() == 1) continue;

    // Degenerate cell (coincident points): emit the rest in id order rather
    // than splitting forever.
    if (cell.x1 - cell.x0 < 1e-9 && cell.y1 - cell.y0 < 1e-9) {
      std::vector<NodeId> rest;
      for (NodeId v : cell.nodes) {
        if (v != pick) rest.push_back(v);
      }
      std::sort(rest.begin(), rest.end());
      for (NodeId v : rest) order.push_back(v);
      continue;
    }

    Cell quads[4] = {{cell.x0, cell.y0, cx, cy, {}},
                     {cx, cell.y0, cell.x1, cy, {}},
                     {cell.x0, cy, cx, cell.y1, {}},
                     {cx, cy, cell.x1, cell.y1, {}}};
    for (NodeId v : cell.nodes) {
      if (v == pick) continue;
      const Point& p = net.position(v);
      int q = (p.x >= cx ? 1 : 0) + (p.y >= cy ? 2 : 0);
      quads[q].nodes.push_back(v);
    }
    for (Cell& q : quads) {
      if (!q.nodes.empty()) queue.push_back(std::move(q));
    }
  }
  return order;
}

}  // namespace

HubLabeling::HubLabeling(const RoadNetwork& net) {
  size_t n = net.num_nodes();
  std::vector<NodeId> order = QuadtreeCenterOrder(net);

  // Labels grow across hub rounds at arbitrary nodes, so the build works on
  // per-node (rank, dist) vectors and flattens into the arena at the end.
  struct BuildEntry {
    int32_t hub_rank;
    double dist;
  };
  std::vector<std::vector<BuildEntry>> labels(n);

  // Pruned-landmark test (Akiba, Iwata, Yoshida, SIGMOD 2013): with the
  // root's label spread into a rank-indexed array once per round, u is
  // certified at d when some hub h of u's label has root_dist[h] + d(u, h)
  // <= d + 1e-9. Those are the sums a merge join of the two labels takes
  // the min of, and a min is <= x iff some term is, so the scan prunes
  // exactly the same nodes. The root's own round entry needs no spreading:
  // no other label holds that rank yet.
  std::vector<double> root_dist(n, kInf);
  auto certified = [&](NodeId u, double d) {
    const double bound = d + 1e-9;
    for (const BuildEntry& e : labels[static_cast<size_t>(u)]) {
      if (root_dist[static_cast<size_t>(e.hub_rank)] + e.dist <= bound) {
        return true;
      }
    }
    return false;
  };

  std::vector<double> dist(n, kInf);
  std::vector<NodeId> touched;
  using Entry = std::pair<double, NodeId>;
  // Drained every round, so one heap's storage serves the whole build.
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (int32_t rank = 0; rank < static_cast<int32_t>(n); ++rank) {
    NodeId hub = order[static_cast<size_t>(rank)];
    for (const BuildEntry& e : labels[static_cast<size_t>(hub)]) {
      root_dist[static_cast<size_t>(e.hub_rank)] = e.dist;
    }
    dist[static_cast<size_t>(hub)] = 0;
    touched.push_back(hub);
    heap.push({0, hub});
    while (!heap.empty()) {
      auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[static_cast<size_t>(u)]) continue;
      // Prune: if existing labels already certify a path <= d, the hub adds
      // nothing for u or anything beyond it.
      if (certified(u, d)) continue;
      labels[static_cast<size_t>(u)].push_back({rank, d});
      for (const RoadNetwork::Arc& arc : net.arcs(u)) {
        double nd = d + arc.cost;
        size_t to = static_cast<size_t>(arc.to);
        if (nd < dist[to]) {
          if (dist[to] == kInf) touched.push_back(arc.to);
          dist[to] = nd;
          heap.push({nd, arc.to});
        }
      }
    }
    for (NodeId v : touched) dist[static_cast<size_t>(v)] = kInf;
    touched.clear();
    for (const BuildEntry& e : labels[static_cast<size_t>(hub)]) {
      root_dist[static_cast<size_t>(e.hub_rank)] = kInf;
    }
  }

  for (const auto& label : labels) total_entries_ += label.size();

  // Flatten: each node's (rank-ascending) run followed by one sentinel, so
  // label walks need no bound checks at all.
  offsets_.resize(n);
  ranks_.reserve(total_entries_ + n);
  dists_.reserve(total_entries_ + n);
  for (size_t v = 0; v < n; ++v) {
    offsets_[v] = static_cast<uint32_t>(ranks_.size());
    for (const BuildEntry& e : labels[v]) {
      ranks_.push_back(e.hub_rank);
      dists_.push_back(e.dist);
    }
    ranks_.push_back(kSentinelRank);
    dists_.push_back(kInf);
  }
  ranks_view_ = {ranks_.data(), ranks_.size()};
  dists_view_ = {dists_.data(), dists_.size()};
  offsets_view_ = {offsets_.data(), offsets_.size()};
}

std::unique_ptr<HubLabeling> HubLabeling::FromFrozenSections(
    Span<const uint32_t> offsets, Span<const int32_t> ranks,
    Span<const double> dists, size_t total_entries,
    std::shared_ptr<const void> payload) {
  SR_CHECK(ranks.size() == dists.size());
  auto hl = std::unique_ptr<HubLabeling>(new HubLabeling());
  hl->offsets_view_ = offsets;
  hl->ranks_view_ = ranks;
  hl->dists_view_ = dists;
  hl->total_entries_ = total_entries;
  hl->payload_ = std::move(payload);
  return hl;
}

double HubLabeling::Query(NodeId s, NodeId t) const {
  if (s == t) return 0;
  double* scratch = ThreadScratch();
  PinSource(s, scratch);
  const double best = QueryPinned(scratch, t);
  UnpinSource(s, scratch);
  return best;
}

double* HubLabeling::ThreadScratch() const {
  // Every slot is +infinity between pins, so growing for a larger labeling
  // on the same thread only appends more +infinity.
  thread_local std::vector<double> scratch;
  if (scratch.size() < num_ranks()) scratch.resize(num_ranks(), kInf);
  return scratch.data();
}

void HubLabeling::PinSource(NodeId s, double* scratch) const {
  for (size_t k = offsets_view_[static_cast<size_t>(s)];
       ranks_view_[k] != kSentinelRank; ++k) {
    scratch[ranks_view_[k]] = dists_view_[k];
  }
}

double HubLabeling::QueryPinned(const double* scratch, NodeId t) const {
  double best = kInf;
  // min over the pinned source's hubs ∩ t's hubs: a rank the source does not
  // label contributes +inf and never wins, so one pass over t's run takes
  // the min of exactly the sums a merge join of the two runs would.
  for (size_t k = offsets_view_[static_cast<size_t>(t)];
       ranks_view_[k] != kSentinelRank; ++k) {
    const double d = scratch[ranks_view_[k]] + dists_view_[k];
    if (d < best) best = d;
  }
  return best;
}

void HubLabeling::UnpinSource(NodeId s, double* scratch) const {
  for (size_t k = offsets_view_[static_cast<size_t>(s)];
       ranks_view_[k] != kSentinelRank; ++k) {
    scratch[ranks_view_[k]] = kInf;
  }
}

size_t HubLabeling::MemoryBytes() const {
  size_t bytes = ranks_.capacity() * sizeof(int32_t) +
                 dists_.capacity() * sizeof(double) +
                 offsets_.capacity() * sizeof(uint32_t);
  if (payload_ != nullptr) {
    bytes += ranks_view_.size() * sizeof(int32_t) +
             dists_view_.size() * sizeof(double) +
             offsets_view_.size() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace structride
