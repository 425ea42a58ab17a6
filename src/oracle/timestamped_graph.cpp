#include "oracle/timestamped_graph.hpp"

#include <algorithm>
#include <deque>

#include "common/check.hpp"

namespace dynsub::oracle {

TimestampedGraph::TimestampedGraph(std::size_t n) : adj_(n) {}

Timestamp TimestampedGraph::timestamp(Edge e) const {
  auto it = edges_.find(e);
  DYNSUB_CHECK_MSG(it != edges_.end(), "timestamp of absent edge " << e);
  return it->second;
}

void TimestampedGraph::apply(const EdgeEvent& ev, Round round) {
  DYNSUB_CHECK(ev.edge.hi() < adj_.size());
  if (ev.kind == EventKind::kInsert) {
    const bool fresh = edges_.try_emplace(ev.edge, round).second;
    DYNSUB_CHECK_MSG(fresh, "double insert of " << ev.edge << " at round "
                                                << round);
    adj_[ev.edge.lo()].insert(ev.edge.hi());
    adj_[ev.edge.hi()].insert(ev.edge.lo());
  } else {
    const bool present = edges_.erase(ev.edge);
    DYNSUB_CHECK_MSG(present, "delete of absent edge " << ev.edge
                                                       << " at round "
                                                       << round);
    adj_[ev.edge.lo()].erase(ev.edge.hi());
    adj_[ev.edge.hi()].erase(ev.edge.lo());
  }
}

bool TimestampedGraph::batch_applicable(
    std::span<const EdgeEvent> batch) const {
  std::vector<Edge> edges;
  edges.reserve(batch.size());
  for (const auto& ev : batch) {
    if (ev.edge.hi() >= adj_.size()) return false;
    const bool present = has_edge(ev.edge);
    if (ev.kind == EventKind::kInsert && present) return false;
    if (ev.kind == EventKind::kDelete && !present) return false;
    edges.push_back(ev.edge);
  }
  // Same edge twice in one round: one sort, O(k log k) for k events.
  std::sort(edges.begin(), edges.end());
  return std::adjacent_find(edges.begin(), edges.end()) == edges.end();
}

std::vector<std::uint32_t> TimestampedGraph::distances_from(NodeId v) const {
  DYNSUB_CHECK(v < adj_.size());
  std::vector<std::uint32_t> dist(adj_.size(), kUnreachable);
  std::deque<NodeId> frontier{v};
  dist[v] = 0;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (NodeId w : adj_[u]) {
      if (dist[w] == kUnreachable) {
        dist[w] = dist[u] + 1;
        frontier.push_back(w);
      }
    }
  }
  return dist;
}

}  // namespace dynsub::oracle
