// Wire messages: the O(log n)-bit payloads nodes exchange.
//
// The model allows each node to send O(log n) bits per incident link per
// round.  Every algorithm in the paper fits its per-round item into a
// constant number of node ids plus a few marker bits; the Lemma 1 baseline
// additionally ships neighborhood snapshots as raw bit chunks.  WireMessage
// is the closed union of those shapes; payload_bits() is the exact bit cost
// the router charges against the per-link budget
// (bandwidth_bits(n) = 4*ceil(log2 n) + 16).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/edge.hpp"
#include "common/types.hpp"

namespace dynsub::net {

/// Per-link bandwidth budget in bits for an n-node network.
[[nodiscard]] std::size_t bandwidth_bits(std::size_t n);

/// Bits needed to name one node among n.
[[nodiscard]] std::size_t node_id_bits(std::size_t n);

/// Byte payload of a snapshot chunk: a fixed 16-byte buffer plus its
/// length, so a WireMessage is trivially copyable and copying one through
/// the router never touches the heap.
///
/// Any bandwidth-legal chunk fits: payload_bits() charges 3 + 2*id + aux2
/// bits against bandwidth_bits(n) = 4*id + 16, so a chunk carries at most
/// 2*ceil(log2 n) + 13 bits -- 10 bytes for 32-bit node ids.  Asking for
/// more than kCapacity bytes is a CHECK failure, and the wire decoder
/// rejects a longer claimed length before it touches the buffer.
class SmallBlob {
 public:
  static constexpr std::size_t kCapacity = 16;

  SmallBlob() = default;
  SmallBlob(std::span<const std::uint8_t> bytes) { assign(bytes); }
  SmallBlob(const std::vector<std::uint8_t>& bytes) {
    assign(std::span<const std::uint8_t>(bytes));
  }

  void assign(std::span<const std::uint8_t> bytes) {
    resize(bytes.size());
    std::memcpy(data(), bytes.data(), bytes.size());
  }
  void assign(std::size_t count, std::uint8_t value) {
    resize(count);
    std::memset(data(), value, count);
  }

  /// Resizes without preserving contents (callers overwrite immediately).
  void resize(std::size_t count) {
    DYNSUB_CHECK(count <= kCapacity);
    size_ = static_cast<std::uint8_t>(count);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::uint8_t* data() { return bytes_.data(); }
  [[nodiscard]] const std::uint8_t* data() const { return bytes_.data(); }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {bytes_.data(), size_};
  }

  /// Compares the first size() bytes only: resize() leaves stale bytes
  /// past the end.
  friend bool operator==(const SmallBlob& a, const SmallBlob& b) {
    return a.size_ == b.size_ &&
           std::memcmp(a.data(), b.data(), a.size_) == 0;
  }

 private:
  std::array<std::uint8_t, kCapacity> bytes_{};
  std::uint8_t size_ = 0;
};

struct WireMessage {
  enum class Kind : std::uint8_t {
    /// Mark-(a) item of Thm 1 / Thm 7: edge {nodes[0], nodes[1]} was
    /// inserted.
    kEdgeInsert,
    /// Mark-(a) item: edge {nodes[0], nodes[1]} was deleted.
    kEdgeDelete,
    /// Mark-(b) item of Thm 1: the sender tells the (single) recipient that
    /// edge {nodes[0], nodes[1]} exists (the "older than both" triangle
    /// pattern).
    kTriangleHint,
    /// Thm 6 insertion item: a path of `path_len` edges starting at the
    /// sender; nodes[0..path_len] are its vertices (nodes[0] == sender).
    kPathInsert,
    /// Thm 6 deletion item: edge {nodes[0], nodes[1]} was deleted; ttl is
    /// the paper's attached number l; nodes[2] is the upstream hop the
    /// relay came through (kNoNode at l = 0), which receivers use to
    /// scope the removal to the exact relay chain.
    kPathDelete,
    /// Lemma 1 baseline: `blob` carries `aux2` bits of a neighborhood
    /// bitmap starting at bit offset aux * chunk_bits of node nodes[0].
    kSnapshotChunk,
    /// Generic O(1)-id notice used by baselines (flood TTL in ttl).
    kNotice,
  };

  Kind kind = Kind::kNotice;
  std::array<NodeId, 4> nodes{kNoNode, kNoNode, kNoNode, kNoNode};
  std::uint8_t path_len = 0;  // kPathInsert: number of edges (1 or 2 on wire)
  std::uint8_t ttl = 0;       // kPathDelete / kNotice hop budget
  std::uint32_t aux = 0;   // kSnapshotChunk: chunk index
  std::uint32_t aux2 = 0;  // kSnapshotChunk: bit count in blob
  SmallBlob blob;          // kSnapshotChunk payload

  /// Exact size charged against the per-link budget.
  [[nodiscard]] std::size_t payload_bits(std::size_t n) const;

  friend bool operator==(const WireMessage&, const WireMessage&) = default;

  // --- convenience constructors -----------------------------------------
  [[nodiscard]] static WireMessage edge_insert(Edge e);
  [[nodiscard]] static WireMessage edge_delete(Edge e);
  [[nodiscard]] static WireMessage triangle_hint(Edge e);
  /// Path starting at `first`, continuing along `rest` (1 or 2 more nodes).
  [[nodiscard]] static WireMessage path_insert(
      std::span<const NodeId> vertices);
  [[nodiscard]] static WireMessage path_delete(Edge e, std::uint8_t ttl,
                                               NodeId via);
};

std::ostream& operator<<(std::ostream& os, const WireMessage& m);

}  // namespace dynsub::net
