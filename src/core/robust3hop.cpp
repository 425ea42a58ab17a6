#include "core/robust3hop.hpp"

#include <algorithm>
#include <cstdint>
#include <ranges>
#include <utility>

#include "common/check.hpp"

namespace dynsub::core {

namespace {

/// True when the two pending items involve a common edge (in which case
/// their relative order is semantically meaningful).
bool conflicts(const NodeId self, const Robust3HopNode::PendingView& a,
               const Robust3HopNode::PendingView& b) {
  Edge ea[2] = {Edge(0, 1), Edge(0, 1)};
  Edge eb[2] = {Edge(0, 1), Edge(0, 1)};
  const int na = a.edges(self, ea);
  const int nb = b.edges(self, eb);
  for (int i = 0; i < na; ++i) {
    for (int j = 0; j < nb; ++j) {
      if (ea[i] == eb[j]) return true;
    }
  }
  return false;
}

/// Bounds [lo, hi) of the path keys whose hops start with `first` and,
/// unless it is kNoNode, `second`.  Unused hops are kNoNode, so a shorter
/// path sorts after its extensions, inside the same range.
std::pair<PathKey, PathKey> prefix_range(NodeId first, NodeId second) {
  if (second == kNoNode) {
    return {PathKey{{first, 0, 0}}, PathKey{{first + 1, 0, 0}}};
  }
  return {PathKey{{first, second, 0}}, PathKey{{first, second + 1, 0}}};
}

}  // namespace

int Robust3HopNode::PendingView::edges(NodeId self, Edge out[2]) const {
  if (item->type == Pending::Type::kDeleteEdge) {
    out[0] = Edge(item->a[0], item->a[1]);
    return 1;
  }
  out[0] = Edge(self, item->a[0]);
  if (item->len_or_ell == 2) {
    out[1] = Edge(item->a[0], item->a[1]);
    return 2;
  }
  return 1;
}

void Robust3HopNode::enqueue_unique(const Pending& p) {
  // Duplicate suppression, made order-aware: a new item is redundant only
  // if an identical copy is already pending *and* nothing enqueued after
  // that copy touches the same edges -- the queue is a causal event log,
  // and an intervening conflicting item (e.g. a deletion between two
  // identical re-insertions) makes the repeat load-bearing.
  if (!queued_keys_.contains(key_of(p))) {
    queued_keys_.insert(key_of(p));
    queue_.push_back(p);
    return;
  }
  std::size_t last_equal = queue_.size();
  for (std::size_t i = queue_.size(); i-- > 0;) {
    if (queue_[i] == p) {
      last_equal = i;
      break;
    }
  }
  DYNSUB_CHECK(last_equal < queue_.size());
  const PendingView pv{&p};
  for (std::size_t i = last_equal + 1; i < queue_.size(); ++i) {
    if (conflicts(view_.self(), PendingView{&queue_[i]}, pv)) {
      queue_.push_back(p);  // keep queued_keys_ entry; duplicates allowed
      return;
    }
  }
  // Identical copy pending with no conflicting item after it: redundant.
}

void Robust3HopNode::add_path(std::span<const NodeId> hops) {
  DYNSUB_CHECK(!hops.empty() && hops.size() <= 3);
  // The path set is prefix-closed: every prefix of a stored path is stored
  // too.  add_path keeps that by adding every prefix, and remove_paths_via
  // keeps it because a path dies only together with its stored extensions.
  // So the longest prefix goes in first, and the first prefix already
  // present ends the walk, since its own prefixes are there as well.
  for (std::size_t len = hops.size(); len > 0; --len) {
    PathKey pk;
    std::copy_n(hops.begin(), len, pk.hops.begin());
    if (!paths_.insert(pk)) return;
  }
}

void Robust3HopNode::remove_paths_via(Edge e, NodeId chain, NodeId via) {
  // Relay-chain-scoped removal: a deletion relayed by neighbor `chain`
  // kills only the discovery paths learned along the same relay chain --
  // first hop `chain` and (for forwarded relays) second hop `via`.  Those
  // are exactly the key range prefix_range(chain, via), so nothing outside
  // it is visited.  A forwarded relay's range leaves out the 1-edge path
  // [chain], whose only edge {self, chain} touches self: receive_and_update
  // drops such relays before they get here.
  //
  // This keeps the set prefix-closed: when a path in the range contains e,
  // so does every stored extension of it (an extension has the same edges
  // and more), and every extension lies in the same range (it starts with
  // the same hops, and a path of one hop is in the range only when via is
  // kNoNode, whose range holds every path through `chain`).
  const NodeId root = view_.self();
  const auto [lo, hi] = prefix_range(chain, via);
  paths_.erase_if(lo, hi,
                  [&](const PathKey& pk) { return pk.contains(root, e); });
}

bool Robust3HopNode::has_edge(Edge e) const {
  // Only a few key shapes can end in e, so look those up instead of
  // scanning the set.  No stored path revisits v (receive_and_update drops
  // such walks), so the only path that can end in an incident edge {v, u}
  // is [u].
  const NodeId v = view_.self();
  if (e.touches(v)) {
    return paths_.contains(PathKey{{e.other(v), kNoNode, kNoNode}});
  }
  const NodeId a = e.lo();
  const NodeId b = e.hi();
  if (paths_.contains(PathKey{{a, b, kNoNode}}) ||
      paths_.contains(PathKey{{b, a, kNoNode}})) {
    return true;
  }
  // The 3-edge shapes [c, a, b] and [c, b, a], one first hop c at a time.
  // Each step searches only c's range and then jumps past it, so the walk
  // costs three searches per distinct first hop, whether or not c is still
  // a neighbour.
  const std::vector<PathKey>& keys = paths_.values();
  for (auto it = keys.begin(); it != keys.end();) {
    const NodeId c = it->hops[0];
    const auto next = std::lower_bound(it, keys.end(), PathKey{{c + 1, 0, 0}});
    if (std::binary_search(it, next, PathKey{{c, a, b}}) ||
        std::binary_search(it, next, PathKey{{c, b, a}})) {
      return true;
    }
    it = next;
  }
  return false;
}

void Robust3HopNode::react_and_send(const net::NodeContext& ctx,
                                    std::span<const EdgeEvent> events,
                                    net::Outbox& out) {
  const NodeId v = ctx.self;
  view_.apply(events, ctx.round);

  // --- Paper step 2: own topology changes take effect on S immediately
  // (react time); only the broadcast is queued.  Applying the local purge
  // lazily at dequeue -- the paper's literal reading -- lets a backlogged
  // own-deletion execute long after the link flickered back, destroying
  // fresh chain knowledge that arrived in between.
  for (const auto& ev : events) {
    const NodeId u = ev.edge.other(v);
    if (ev.kind == EventKind::kInsert) {
      const std::array<NodeId, 1> own{u};
      add_path(own);
      enqueue_unique({Pending::Type::kInsertPath, {u, kNoNode}, 1});
    } else {
      // The link is gone: every discovery path learned through it dies.
      remove_paths_via(ev.edge, u, kNoNode);
      enqueue_unique({Pending::Type::kDeleteEdge,
                      {ev.edge.lo(), ev.edge.hi()},
                      0});
    }
  }

  // --- Paper step 3: communication. ----------------------------------------
  busy_at_send_ = !queue_.empty();
  if (busy_at_send_) out.declare_busy();
  if (neighbors_busy_prev_) out.declare_neighbors_busy();
  if (busy_at_send_) {
    const Pending item = queue_.front();
    queue_.pop_front();
    queued_keys_.erase(key_of(item));
    // Dequeue is broadcast-only: local effects already happened at react
    // (own events) or at receipt (relayed items).
    if (item.type == Pending::Type::kInsertPath) {
      std::array<NodeId, 3> wire{v, item.a[0], item.a[1]};
      const std::size_t verts = 1 + item.len_or_ell;
      for (const auto& [u, t_vu] : view_.incident()) {
        (void)t_vu;
        out.send(u, net::WireMessage::path_insert(
                        std::span<const NodeId>(wire.data(), verts)));
      }
    } else {
      const Edge e(item.a[0], item.a[1]);
      for (const auto& [u, t_vu] : view_.incident()) {
        (void)t_vu;
        out.send(u,
                 net::WireMessage::path_delete(e, item.len_or_ell, item.via));
      }
    }
  }
}

void Robust3HopNode::receive_and_update(const net::NodeContext& ctx,
                                        const net::Inbox& in) {
  const NodeId v = ctx.self;
  for (const auto& [from, msg] : in.payloads) {
    using Kind = net::WireMessage::Kind;
    if (msg.kind == Kind::kPathInsert) {
      DYNSUB_CHECK(msg.nodes[0] == from);
      const std::size_t verts = static_cast<std::size_t>(msg.path_len) + 1;
      DYNSUB_CHECK(verts >= 2 && verts <= 3);
      if (verts == 2 && msg.nodes[1] == v) {
        // Own-edge form {v, from}: record, never re-forward -- v broadcast
        // this edge itself, so the echo tells its neighbors nothing new.
        const std::array<NodeId, 1> own{from};
        add_path(own);
        continue;
      }
      // Skip degenerate extensions that would revisit v: such a walk
      // witnesses only edges with an endpoint adjacent to v, and a robust
      // one of those is already covered by a shorter path that does not
      // revisit v.
      bool contains_self = false;
      for (std::size_t j = 0; j < verts; ++j) {
        contains_self |= (msg.nodes[j] == v);
      }
      if (contains_self) continue;
      // Prepend v: hops after v are the received vertices.
      add_path(std::span<const NodeId>(msg.nodes.data(), verts));
      if (verts == 2) {
        // The extension v-from-x has 2 edges: keep flooding one more hop.
        enqueue_unique(
            {Pending::Type::kInsertPath, {msg.nodes[0], msg.nodes[1]}, 2});
      }
    } else if (msg.kind == Kind::kPathDelete) {
      const Edge e(msg.nodes[0], msg.nodes[1]);
      // Relays about our own incident edges carry no information we do not
      // already manage locally (and a stale one could wrongly erase the
      // incident-edge path after a re-insertion): ignore them.
      if (e.touches(v)) continue;
      remove_paths_via(e, from, msg.ttl == 0 ? kNoNode : msg.nodes[2]);
      const bool forward =
          msg.ttl == 0 ||
          (options_.paper_literal_l2_forward && msg.ttl <= 1);
      if (forward) {
        enqueue_unique({Pending::Type::kDeleteEdge,
                        {e.lo(), e.hi()},
                        static_cast<std::uint8_t>(msg.ttl + 1),
                        from});
      }
    } else {
      DYNSUB_CHECK_MSG(false, "Robust3HopNode: unexpected message kind");
    }
  }
  const bool quiet = !busy_at_send_ && queue_.empty() &&
                     in.busy_neighbors.empty() && in.busy_two_hop.empty();
  consistent_ = quiet && quiet_prev_;
  quiet_prev_ = quiet;
  neighbors_busy_prev_ = !in.busy_neighbors.empty();
}

net::Answer Robust3HopNode::query_edge(Edge e) const {
  if (!consistent_) return net::Answer::kInconsistent;
  return has_edge(e) ? net::Answer::kTrue : net::Answer::kFalse;
}

net::Answer Robust3HopNode::query_cycle(
    std::span<const NodeId> cycle) const {
  if (!consistent_) return net::Answer::kInconsistent;
  DYNSUB_CHECK(cycle.size() == 4 || cycle.size() == 5);
  bool self_in_cycle = false;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    if (cycle[i] == view_.self()) self_in_cycle = true;
    for (std::size_t j = i + 1; j < cycle.size(); ++j) {
      if (cycle[i] == cycle[j]) return net::Answer::kFalse;
    }
  }
  DYNSUB_CHECK_MSG(self_in_cycle, "query_cycle: self not on candidate cycle");
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const Edge e(cycle[i], cycle[(i + 1) % cycle.size()]);
    if (!has_edge(e)) return net::Answer::kFalse;
  }
  return net::Answer::kTrue;
}

FlatSet<Edge> Robust3HopNode::known_edges() const {
  // Each stored path's last edge, deduplicated by the bulk build.
  std::vector<Edge> edges;
  edges.reserve(paths_.size());
  const NodeId v = view_.self();
  for (const PathKey& pk : paths_) edges.push_back(pk.last_edge(v));
  return FlatSet<Edge>::from_unsorted(std::move(edges));
}

namespace {

/// Adjacency over a set of edges, used for local cycle enumeration: both
/// directions of every edge as sorted arcs (from << 32 | to), so the
/// neighbours of x are one contiguous run of them.  Building it is one sort
/// and one allocation, not a container per vertex.
class Adjacency {
 public:
  explicit Adjacency(const FlatSet<Edge>& edges) {
    arcs_.reserve(2 * edges.size());
    for (const Edge& e : edges) {
      arcs_.push_back(e.key());
      arcs_.push_back((std::uint64_t{e.hi()} << 32) | e.lo());
    }
    std::sort(arcs_.begin(), arcs_.end());
  }

  /// x's neighbours in ascending order: the low halves of x's arcs.
  [[nodiscard]] auto neighbors(NodeId x) const {
    const std::uint64_t from = std::uint64_t{x} << 32;
    const auto first = std::lower_bound(arcs_.begin(), arcs_.end(), from);
    const auto last = std::upper_bound(first, arcs_.end(), from | kNoNode);
    return std::ranges::subrange(first, last) |
           std::views::transform(
               [](std::uint64_t arc) { return static_cast<NodeId>(arc); });
  }

 private:
  std::vector<std::uint64_t> arcs_;
};

}  // namespace

std::vector<oracle::Cycle4> Robust3HopNode::list_4cycles() const {
  const FlatSet<Edge> edges = known_edges();
  const Adjacency adj(edges);
  const NodeId v = view_.self();
  std::vector<oracle::Cycle4> out;
  for (NodeId a : adj.neighbors(v)) {
    for (NodeId b : adj.neighbors(a)) {
      if (b == v) continue;
      for (NodeId c : adj.neighbors(b)) {
        if (c == a || c == v) continue;
        if (!edges.contains(Edge(c, v))) continue;
        // Canonicalize v-a-b-c like oracle::all_4_cycles: rotate so the
        // minimum is first, direction so second < fourth.
        std::array<NodeId, 4> cyc{v, a, b, c};
        std::size_t mi = 0;
        for (std::size_t i = 1; i < 4; ++i) {
          if (cyc[i] < cyc[mi]) mi = i;
        }
        std::array<NodeId, 4> rot{};
        for (std::size_t i = 0; i < 4; ++i) rot[i] = cyc[(mi + i) % 4];
        if (rot[3] < rot[1]) std::swap(rot[1], rot[3]);
        oracle::Cycle4 c4{rot};
        if (std::find(out.begin(), out.end(), c4) == out.end()) {
          out.push_back(c4);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<oracle::Cycle5> Robust3HopNode::list_5cycles() const {
  const FlatSet<Edge> edges = known_edges();
  const Adjacency adj(edges);
  const NodeId v = view_.self();
  std::vector<oracle::Cycle5> out;
  for (NodeId a : adj.neighbors(v)) {
    for (NodeId b : adj.neighbors(a)) {
      if (b == v) continue;
      for (NodeId c : adj.neighbors(b)) {
        if (c == a || c == v) continue;
        for (NodeId d : adj.neighbors(c)) {
          if (d == b || d == a || d == v) continue;
          if (!edges.contains(Edge(d, v))) continue;
          std::array<NodeId, 5> cyc{v, a, b, c, d};
          std::size_t mi = 0;
          for (std::size_t i = 1; i < 5; ++i) {
            if (cyc[i] < cyc[mi]) mi = i;
          }
          std::array<NodeId, 5> rot{};
          for (std::size_t i = 0; i < 5; ++i) rot[i] = cyc[(mi + i) % 5];
          if (rot[4] < rot[1]) {
            std::swap(rot[1], rot[4]);
            std::swap(rot[2], rot[3]);
          }
          oracle::Cycle5 c5{rot};
          if (std::find(out.begin(), out.end(), c5) == out.end()) {
            out.push_back(c5);
          }
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dynsub::core
