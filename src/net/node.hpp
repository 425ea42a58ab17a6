// The node-program interface: what a distributed algorithm implements.
//
// A round has the anatomy of the paper's Figure 1:
//
//   topology change indications --> react & send --> receive & update --> query
//
// react_and_send() corresponds to the first half of the communication round
// (manipulate the local data structure, dequeue and transmit at most one
// payload per link); receive_and_update() to the second half (read messages,
// update, recompute the consistency flag).  Queries happen at the end of the
// round with *no* communication -- they are const member functions on the
// concrete node types.
//
// Nodes know only: their id, n, the round number, their incident topology
// events, and what arrives on their links.  The simulator enforces the
// bandwidth budget and that messages travel only over edges of G_i.
//
// Storage: a NodeStore holds all n programs of one simulator, and
// TypedNodeStore<T> keeps them by value in one std::vector<T>, so building
// a network makes O(1) allocations instead of one per node.  A program must
// therefore be movable.  At O(1) amortized rounds almost every program is
// idle almost all the time, so a program may keep only its id and flags
// inline and create its heap state on first use (TriangleNode does).  A
// detector's factory builds the store (store_of<T>), and audits and
// queries reach the concrete programs through one checked cast per store
// (NodeStore::as<T>).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/edge.hpp"
#include "common/types.hpp"
#include "net/message.hpp"

namespace dynsub::net {

/// Immutable per-round facts a node may legitimately use.
struct NodeContext {
  NodeId self = 0;
  std::size_t n = 0;
  Round round = 0;
};

/// Answers a distributed dynamic data structure may give (paper Section 1.1).
enum class Answer : std::uint8_t { kFalse = 0, kTrue = 1, kInconsistent = 2 };

/// Collects a node's outgoing traffic for one round.  At most one payload
/// message per destination link per round (asserted by the simulator); the
/// two control bits ride along for free, matching the paper's convention
/// that IsEmpty / AreNeighborsEmpty indications are piggybacked single bits.
///
/// Outboxes are pooled by the simulator and reused across rounds (reset()
/// keeps the payload vector's capacity), so steady-state sends do not
/// heap-allocate.
class Outbox {
 public:
  struct Directed {
    NodeId dst;
    WireMessage msg;
  };

  /// Queues a payload for one neighbor.
  void send(NodeId dst, WireMessage msg) {
    directed_.push_back({dst, std::move(msg)});
  }

  /// Returns the outbox to its empty state, keeping allocated capacity.
  void reset() {
    directed_.clear();
    is_empty_ = true;
    are_neighbors_empty_ = true;
  }

  /// Declares "my queue was non-empty this round" (IsEmpty = false).
  void declare_busy() { is_empty_ = false; }

  /// Declares "some neighbor reported a non-empty queue last round"
  /// (AreNeighborsEmpty = false).
  void declare_neighbors_busy() { are_neighbors_empty_ = false; }

  [[nodiscard]] const std::vector<Directed>& directed() const {
    return directed_;
  }
  /// Simulator-only: the router moves payloads out of the outbox (the
  /// outbox is reset before its next use).
  [[nodiscard]] std::vector<Directed>& directed_mut() { return directed_; }
  [[nodiscard]] bool is_empty_flag() const { return is_empty_; }
  [[nodiscard]] bool are_neighbors_empty_flag() const {
    return are_neighbors_empty_;
  }

 private:
  std::vector<Directed> directed_;
  bool is_empty_ = true;
  bool are_neighbors_empty_ = true;
};

/// One round's incoming traffic.  A non-owning view into the simulator's
/// pooled routing buffers, valid only for the duration of
/// receive_and_update (nodes must copy anything they want to keep, which
/// every algorithm in the repo already does by construction).
struct Inbox {
  struct Item {
    NodeId from;
    WireMessage msg;
  };
  /// Payloads, sorted by sender id (deterministic processing order).
  std::span<const Item> payloads;
  /// Senders that declared IsEmpty = false this round, ascending.
  std::span<const NodeId> busy_neighbors;
  /// Senders that declared AreNeighborsEmpty = false this round, ascending.
  std::span<const NodeId> busy_two_hop;
};

/// A distributed algorithm, instantiated once per node.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// First half of the round: process incident topology events (already
  /// applied to G_i), update local state, emit messages.
  virtual void react_and_send(const NodeContext& ctx,
                              std::span<const EdgeEvent> events,
                              Outbox& out) = 0;

  /// Second half: consume received messages, recompute the consistency flag.
  virtual void receive_and_update(const NodeContext& ctx, const Inbox& in) = 0;

  /// The consistency flag C_v at the end of the last completed round.
  [[nodiscard]] virtual bool consistent() const = 0;

  /// Current local queue length (for congestion metrics); 0 if the
  /// algorithm has no queue.
  [[nodiscard]] virtual std::size_t queue_length() const { return 0; }

  /// First-class "I may act if stepped" signal, consulted by the sparse
  /// round engine after every round the node runs.  Contract: when this
  /// returns false, stepping the node with no incident events and an empty
  /// inbox must be a no-op -- no messages, no control bits, no externally
  /// visible state change (consistent() in particular must not flip).  The
  /// simulator then skips the node entirely until an event or a message
  /// touches it again, which is what makes quiescent rounds O(1) instead
  /// of Theta(n).
  ///
  /// The default covers every queue-driven algorithm in the paper: a
  /// non-empty pending queue means work remains, and an inconsistent node
  /// may still be converging (e.g. the two-quiet-rounds rule of Theorem 1
  /// flips consistent() one idle round after the queue drains).  Programs
  /// with pending work outside those two signals must override.
  [[nodiscard]] virtual bool wants_to_act() const {
    return queue_length() > 0 || !consistent();
  }
};

template <typename T>
class TypedNodeStore;

/// All n programs of one simulator, indexed by node id.
class NodeStore {
 public:
  explicit NodeStore(std::size_t n) : size_(n) {}
  virtual ~NodeStore() = default;
  NodeStore(const NodeStore&) = delete;
  NodeStore& operator=(const NodeStore&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Program v: one virtual call, so the engine takes it once per node
  /// step.
  [[nodiscard]] virtual NodeProgram& at(NodeId v) = 0;
  [[nodiscard]] virtual const NodeProgram& at(NodeId v) const = 0;

  /// Every program as its concrete type T, indexed by node id: one checked
  /// cast for the whole store.  Aborts with `what` when the store holds
  /// another type (a simulator built by a different factory).
  template <typename T>
  [[nodiscard]] std::span<const T> as(std::string_view what) const {
    const auto* typed = dynamic_cast<const TypedNodeStore<T>*>(this);
    DYNSUB_CHECK_MSG(typed != nullptr, what);
    return typed->programs();
  }

 private:
  std::size_t size_;
};

/// The store of one concrete program type: program v is T(v, n, extra...),
/// and all n live in one vector.
template <typename T>
class TypedNodeStore final : public NodeStore {
  static_assert(std::is_base_of_v<NodeProgram, T>);
  static_assert(std::is_move_constructible_v<T>,
                "the store keeps programs by value: a program must be "
                "movable");

 public:
  template <typename... Extra>
  explicit TypedNodeStore(std::size_t n, const Extra&... extra)
      : NodeStore(n) {
    programs_.reserve(n);
    for (std::size_t v = 0; v < n; ++v) {
      programs_.emplace_back(static_cast<NodeId>(v), n, extra...);
    }
  }

  [[nodiscard]] NodeProgram& at(NodeId v) override { return programs_[v]; }
  [[nodiscard]] const NodeProgram& at(NodeId v) const override {
    return programs_[v];
  }
  [[nodiscard]] std::span<const T> programs() const { return programs_; }

 private:
  std::vector<T> programs_;
};

/// Builds the node store of an n-node network.
using NodeFactory = std::function<std::unique_ptr<NodeStore>(std::size_t n)>;

/// NodeFactory of a program type constructible as T(v, n, extra...).
template <typename T, typename... Extra>
[[nodiscard]] NodeFactory store_of(Extra... extra) {
  return [extra...](std::size_t n) -> std::unique_ptr<NodeStore> {
    return std::make_unique<TypedNodeStore<T>>(n, extra...);
  };
}

}  // namespace dynsub::net
