// Unit tests for the sharded routing fabric (net/router.hpp): lane-major
// merge determinism, cross-lane duplicate-destination semantics, stale
// bucket slots, the capacity-decay policy, and the lane batch wire format.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "alloc_counter.hpp"
#include "detect/registry.hpp"
#include "net/message.hpp"
#include "net/router.hpp"
#include "net/shard_fabric.hpp"
#include "net/simulator.hpp"
#include "oracle/timestamped_graph.hpp"

namespace dynsub::net {
namespace {

// ----------------------------------------------------- ShardedBuckets ----

/// Stages `stream` into a ShardedBuckets at 1..4 lanes (the stream split
/// into contiguous shards, exactly the WorkerPool's split) and asserts the
/// merge matches a hand-built per-destination reference: every
/// destination's items in staging order, destinations in first-touch
/// order.
template <typename T>
void expect_merge_matches_reference(
    std::size_t n, const std::vector<std::pair<NodeId, T>>& stream) {
  std::vector<std::vector<T>> want(n);
  std::vector<NodeId> want_touched;
  for (const auto& [dst, item] : stream) {
    if (want[dst].empty()) want_touched.push_back(dst);
    want[dst].push_back(item);
  }
  for (std::size_t lanes = 1; lanes <= 4; ++lanes) {
    ShardedBuckets<T> sharded(n, lanes);
    sharded.begin_round();
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::size_t lane = i * lanes / stream.size();
      sharded.stage(lane, stream[i].first, stream[i].second);
    }
    sharded.merge();
    EXPECT_EQ(sharded.total(), stream.size()) << "lanes=" << lanes;
    EXPECT_EQ(sharded.touched(), want_touched) << "lanes=" << lanes;
    for (NodeId dst = 0; dst < n; ++dst) {
      const auto got = sharded.bucket(dst);
      EXPECT_EQ(std::vector<T>(got.begin(), got.end()), want[dst])
          << "dst=" << dst << " lanes=" << lanes;
    }
  }
}

TEST(ShardedBucketsTest, LaneMajorMergeMatchesSingleLaneReference) {
  expect_merge_matches_reference<int>(
      16, {{3, 100}, {7, 101}, {3, 102}, {0, 103}, {7, 104},
           {7, 105}, {1, 106}, {3, 107}, {0, 108}, {15, 109}});
}

TEST(ShardedBucketsTest, EdgeEventFanOutMatchesReference) {
  // The Phase 0 event fan-out: every event staged at both endpoints.
  // EdgeEvent has no default constructor, so merge() must move items into
  // place without default-constructing any.
  static_assert(!std::is_default_constructible_v<EdgeEvent>);
  const std::vector<EdgeEvent> batch = {
      EdgeEvent::insert(0, 5), EdgeEvent::insert(5, 9),
      EdgeEvent::remove(2, 0), EdgeEvent::insert(9, 1),
      EdgeEvent::remove(5, 1), EdgeEvent::insert(3, 7)};
  std::vector<std::pair<NodeId, EdgeEvent>> stream;
  for (const EdgeEvent& ev : batch) {
    stream.emplace_back(ev.edge.lo(), ev);
    stream.emplace_back(ev.edge.hi(), ev);
  }
  expect_merge_matches_reference<EdgeEvent>(10, stream);
}

TEST(ShardedBucketsTest, StaleSlotsReadEmpty) {
  // A destination keeps the slot index it was given in the last round it
  // was touched.  Later rounds hand that slot number to other destinations
  // (or leave it past the end of the touched list); either way the stale
  // slot must read empty, and a destination touched again must see only
  // its new items.  Each round's staging is checked against a reference.
  ShardedBuckets<int> b(6, 2);
  const std::vector<std::vector<std::pair<NodeId, int>>> rounds = {
      {{1, 10}, {2, 20}, {1, 11}},  // slots: 1 -> 0, 2 -> 1
      {{2, 30}},                    // 2 -> 0: 1's slot 0 now belongs to 2
      {{4, 40}, {1, 41}},           // 4 -> 0, 1 -> 1: 2's slot 0 is 4's
      {},                           // nothing touched: every slot is stale
      {{5, 50}, {3, 51}, {5, 52}},  // 1's slot 1 now belongs to 3
      {{1, 60}, {2, 61}, {1, 62}},  // the first round's slots, new items
  };
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    b.begin_round();
    for (NodeId dst = 0; dst < 6; ++dst) {
      EXPECT_TRUE(b.bucket(dst).empty()) << "before merge, round " << r;
    }
    // Item i is staged on lane i % 2, so lane-major order puts the even
    // items first, then the odd ones.
    const auto& items = rounds[r];
    for (std::size_t i = 0; i < items.size(); ++i) {
      b.stage(i % 2, items[i].first, items[i].second);
    }
    std::vector<std::vector<int>> want(6);
    for (std::size_t lane = 0; lane < 2; ++lane) {
      for (std::size_t i = lane; i < items.size(); i += 2) {
        want[items[i].first].push_back(items[i].second);
      }
    }
    b.merge();
    for (NodeId dst = 0; dst < 6; ++dst) {
      const auto got = b.bucket(dst);
      EXPECT_EQ(std::vector<int>(got.begin(), got.end()), want[dst])
          << "dst=" << dst << " round " << r;
    }
  }
}

TEST(ShardedBucketsTest, CapacityDecaysAfterBurst) {
  ShardedBuckets<int> b(8, 2);
  constexpr std::size_t kBurst = 10000;
  b.begin_round();
  for (std::size_t i = 0; i < kBurst; ++i) {
    b.stage(i % 2, static_cast<NodeId>(i % 8), static_cast<int>(i));
  }
  b.merge();
  EXPECT_GE(b.retained_capacity(), kBurst);
  // Two decay windows of near-empty rounds: the first window still
  // remembers the burst as its peak, the second shrinks to the floor.
  for (std::size_t r = 0; r < 2 * ShardedBuckets<int>::kDecayWindow + 4;
       ++r) {
    b.begin_round();
    b.stage(0, 0, 1);
    b.merge();
  }
  EXPECT_LT(b.retained_capacity(), kBurst);
  // The 2 lanes, the merged items and the merge order decay to the floor;
  // the per-slot arrays (8 destinations) never grew past it.
  EXPECT_LE(b.retained_capacity(), 6 * ShardedBuckets<int>::kDecayFloor);
}

TEST(ShardedBucketsTest, OneLaneEventFanOutDecaysAfterBurst) {
  // Phase 0's shape: one lane, each event staged at both endpoints.  A
  // first round that inserts a whole edge set at once (15,000-20,000 edges
  // on the region_3hop / serve_100k benchmarks) is a burst; the small
  // batches after it must not keep its staging, order, item or per-slot
  // capacity for the rest of the run.
  using Buckets = ShardedBuckets<EdgeEvent>;
  constexpr NodeId kNodes = 10000;
  Buckets b(kNodes, 1);
  b.begin_round();
  for (NodeId v = 0; v < kNodes; ++v) {  // a ring touches every node
    const EdgeEvent ev = EdgeEvent::insert(v, (v + 1) % kNodes);
    b.stage(0, ev.edge.lo(), ev);
    b.stage(0, ev.edge.hi(), ev);
  }
  b.merge();
  ASSERT_EQ(b.touched().size(), kNodes);
  EXPECT_GE(b.retained_capacity(), 2 * kNodes);
  for (std::size_t r = 0; r < 2 * Buckets::kDecayWindow + 4; ++r) {
    b.begin_round();
    for (NodeId k = 0; k < 20; ++k) {
      const NodeId v = static_cast<NodeId>((r * 37 + k * 101) % kNodes);
      const EdgeEvent ev = EdgeEvent::insert(v, (v + 1) % kNodes);
      b.stage(0, ev.edge.lo(), ev);
      b.stage(0, ev.edge.hi(), ev);
    }
    b.merge();
  }
  // 7 buffers -- the lane, the merged items, the merge order, the touched
  // list and the count / offset / cursor slot arrays -- each at the floor.
  EXPECT_LE(b.retained_capacity(), 7 * Buckets::kDecayFloor);
}

// -------------------------------------------------------------- Router ----

oracle::TimestampedGraph complete_graph(std::size_t n) {
  oracle::TimestampedGraph g(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      g.apply(EdgeEvent::insert(i, j), 1);
    }
  }
  return g;
}

/// Per-destination inbox fingerprint: sender ids in delivered order.
std::vector<std::vector<NodeId>> inbox_senders(const Router& r,
                                               std::size_t n) {
  std::vector<std::vector<NodeId>> out(n);
  for (NodeId v = 0; v < n; ++v) {
    for (const auto& item : r.inbox(v).payloads) out[v].push_back(item.from);
  }
  return out;
}

/// Stages one outbox per sender: sender s sends edge_insert to each
/// destination in dests[s], on the lane owning s under a contiguous split.
void stage_all(Router& r, const oracle::TimestampedGraph& g,
               const std::vector<std::vector<NodeId>>& dests) {
  const std::size_t count = dests.size();
  for (NodeId s = 0; s < count; ++s) {
    Outbox out;
    for (NodeId d : dests[s]) {
      out.send(d, WireMessage::edge_insert(Edge(s, d)));
    }
    const std::size_t lane = s * r.lanes() / count;
    r.stage_outbox(lane, s, out, g);
  }
}

TEST(RouterTest, LaneMajorMergeIsDeterministicAcrossLaneCounts) {
  const std::size_t n = 8;
  const auto g = complete_graph(n);
  // Senders 0..5, several sharing destinations (cross-lane fan-in).
  const std::vector<std::vector<NodeId>> dests = {
      {6, 7}, {6}, {7, 6}, {6, 5}, {7}, {6, 7, 0}};
  Router reference(n, 1);
  reference.begin_round(1);
  stage_all(reference, g, dests);
  const LaneTraffic ref_traffic = reference.merge();
  const auto ref_inboxes = inbox_senders(reference, n);
  // Destination 6 hears from senders 0,1,2,3,5 in ascending order.
  EXPECT_EQ(ref_inboxes[6], (std::vector<NodeId>{0, 1, 2, 3, 5}));
  for (std::size_t lanes = 2; lanes <= 4; ++lanes) {
    Router sharded(n, lanes);
    sharded.begin_round(1);
    stage_all(sharded, g, dests);
    const LaneTraffic traffic = sharded.merge();
    EXPECT_EQ(traffic, ref_traffic) << "lanes=" << lanes;
    EXPECT_EQ(inbox_senders(sharded, n), ref_inboxes) << "lanes=" << lanes;
    EXPECT_EQ(sharded.payload_touched(), reference.payload_touched())
        << "lanes=" << lanes;
  }
}

TEST(RouterTest, CrossLaneDuplicateDestinationsFromDistinctSendersAreLegal) {
  // The one-payload-per-link rule is per *directed link*: two senders on
  // different lanes targeting the same destination is normal fan-in, and
  // the merged inbox keeps them sender-sorted.
  const std::size_t n = 4;
  const auto g = complete_graph(n);
  Router r(n, 2);
  r.begin_round(1);
  Outbox a;
  a.send(3, WireMessage::edge_insert(Edge(0, 3)));
  r.stage_outbox(0, 0, a, g);
  Outbox b;
  b.send(3, WireMessage::edge_insert(Edge(2, 3)));
  r.stage_outbox(1, 2, b, g);
  const LaneTraffic traffic = r.merge();
  EXPECT_EQ(traffic.messages, 2u);
  const auto in = r.inbox(3);
  ASSERT_EQ(in.payloads.size(), 2u);
  EXPECT_EQ(in.payloads[0].from, 0u);
  EXPECT_EQ(in.payloads[1].from, 2u);
}

TEST(RouterTest, SameSenderDuplicateDestinationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        const auto g = complete_graph(3);
        Router r(3, 2);
        r.begin_round(1);
        Outbox out;
        out.send(1, WireMessage::edge_insert(Edge(0, 1)));
        out.send(2, WireMessage::edge_insert(Edge(0, 2)));
        out.send(1, WireMessage::edge_insert(Edge(0, 1)));
        r.stage_outbox(0, 0, out, g);
      },
      "two payloads");
}

TEST(RouterTest, AbsentLinkAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        oracle::TimestampedGraph g(3);  // no edges at all
        Router r(3, 1);
        r.begin_round(1);
        Outbox out;
        out.send(1, WireMessage::edge_insert(Edge(0, 1)));
        r.stage_outbox(0, 0, out, g);
      },
      "absent link");
}

TEST(RouterTest, OutOfRangeDestinationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        const auto g = complete_graph(3);
        Router r(3, 1);
        r.begin_round(1);
        Outbox out;
        out.send(99, WireMessage::edge_insert(Edge(0, 1)));
        r.stage_outbox(0, 0, out, g);
      },
      "sent to bad id");
}

TEST(RouterTest, BandwidthOverrunAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        const auto g = complete_graph(2);
        Router r(2, 1);
        r.begin_round(1);
        WireMessage m;
        m.kind = WireMessage::Kind::kSnapshotChunk;
        m.aux2 = 100000;  // way over budget
        m.blob.assign(100000 / 8, 0xff);
        Outbox out;
        out.send(1, std::move(m));
        r.stage_outbox(0, 0, out, g);
      },
      "exceeds budget");
}

TEST(RouterTest, ControlBitsBroadcastToAllNeighbors) {
  const auto g = complete_graph(4);
  Router r(4, 2);
  r.begin_round(1);
  Outbox out;
  out.declare_busy();
  out.declare_neighbors_busy();
  r.stage_outbox(1, 2, out, g);
  r.merge();
  for (NodeId v : {0u, 1u, 3u}) {
    const auto in = r.inbox(v);
    ASSERT_EQ(in.busy_neighbors.size(), 1u) << "v=" << v;
    EXPECT_EQ(in.busy_neighbors[0], 2u);
    ASSERT_EQ(in.busy_two_hop.size(), 1u) << "v=" << v;
    EXPECT_EQ(in.busy_two_hop[0], 2u);
  }
  EXPECT_TRUE(r.inbox(2).busy_neighbors.empty());
}

TEST(RouterTest, StaleSlotsReadEmpty) {
  // Alternating rounds hand each destination's bucket slot to another
  // destination: a destination's slot from an earlier round must never
  // surface old payloads or control bits.
  const auto g = complete_graph(3);
  Router r(3, 2);
  for (int round = 1; round <= 8; ++round) {
    r.begin_round(round);
    Outbox out;
    if (round % 2 == 1) {
      // Payload slots: 1 -> 0, 2 -> 1.  No control bits.
      out.send(1, WireMessage::edge_insert(Edge(0, 1)));
      out.send(2, WireMessage::edge_insert(Edge(0, 2)));
      r.stage_outbox(0, 0, out, g);
    } else {
      // Payload slot 0 now belongs to 2; busy bits reach 0 and 2.
      out.send(2, WireMessage::edge_insert(Edge(1, 2)));
      out.declare_busy();
      r.stage_outbox(1, 1, out, g);
    }
    const LaneTraffic traffic = r.merge();
    const bool odd = round % 2 == 1;
    EXPECT_EQ(traffic.messages, odd ? 2u : 1u) << "round=" << round;
    const auto senders = inbox_senders(r, 3);
    EXPECT_TRUE(senders[0].empty()) << "round=" << round;
    EXPECT_EQ(senders[1], odd ? std::vector<NodeId>{0}
                              : std::vector<NodeId>{})
        << "round=" << round;
    EXPECT_EQ(senders[2], std::vector<NodeId>{odd ? 0u : 1u})
        << "round=" << round;
    for (NodeId v = 0; v < 3; ++v) {
      const bool busy = !odd && v != 1;
      EXPECT_EQ(r.inbox(v).busy_neighbors.size(), busy ? 1u : 0u)
          << "v=" << v << " round=" << round;
      EXPECT_TRUE(r.inbox(v).busy_two_hop.empty());
    }
  }
}

// ---------------------------------------------------- lane batch wire ----

TEST(LaneBatchTest, HeaderAndSectionsRoundTrip) {
  const std::size_t n = 6;
  const auto g = complete_graph(n);
  Router r(n, 2);
  r.begin_round(7);
  Outbox a;
  a.send(1, WireMessage::edge_insert(Edge(0, 1)));
  WireMessage chunk;
  chunk.kind = WireMessage::Kind::kSnapshotChunk;
  chunk.nodes[0] = 0;
  chunk.aux = 3;
  chunk.aux2 = 8;  // small enough for the n=6 per-link budget
  chunk.blob.assign(1, 0x5a);
  a.send(2, std::move(chunk));
  a.declare_busy();
  r.stage_outbox(0, 0, a, g);
  Outbox b;
  b.send(4, WireMessage::triangle_hint(Edge(3, 4)));
  r.stage_outbox(1, 3, b, g);

  const LaneBatchHeader h0 = r.lane_header(0);
  EXPECT_EQ(h0.magic, LaneBatchHeader::kMagic);
  EXPECT_EQ(h0.version, LaneBatchHeader::kVersion);
  EXPECT_EQ(h0.lane, 0u);
  EXPECT_EQ(h0.round, 7);
  EXPECT_EQ(h0.payload_count, 2u);
  EXPECT_EQ(h0.busy_count, n - 1);  // broadcast to every neighbor
  EXPECT_EQ(h0.two_hop_count, 0u);
  EXPECT_EQ(h0.messages, 2u);
  EXPECT_GT(h0.payload_bits, 0u);

  std::vector<std::uint8_t> wire;
  r.encode_lane(0, wire);
  // The sized header makes the batch self-describing on the wire.
  EXPECT_EQ(wire.size(), LaneBatchHeader::kWireBytes + h0.payload_bytes +
                             8 * (h0.busy_count + h0.two_hop_count));

  LaneBatch decoded;
  std::string error;
  ASSERT_TRUE(Router::decode_lane(wire, &decoded, &error)) << error;
  EXPECT_EQ(decoded.header, h0);
  ASSERT_EQ(decoded.payloads.size(), 2u);
  EXPECT_EQ(decoded.payloads[0].first, 1u);
  EXPECT_EQ(decoded.payloads[0].second.from, 0u);
  EXPECT_EQ(decoded.payloads[0].second.msg.kind,
            WireMessage::Kind::kEdgeInsert);
  EXPECT_EQ(decoded.payloads[1].first, 2u);
  EXPECT_EQ(decoded.payloads[1].second.msg.kind,
            WireMessage::Kind::kSnapshotChunk);
  EXPECT_EQ(decoded.payloads[1].second.msg.aux, 3u);
  EXPECT_EQ(decoded.payloads[1].second.msg.blob.size(), 1u);
  EXPECT_EQ(decoded.payloads[1].second.msg.blob.data()[0], 0x5a);
  ASSERT_EQ(decoded.busy.size(), n - 1);
  EXPECT_EQ(decoded.busy[0], (std::pair<NodeId, NodeId>{1, 0}));
  EXPECT_TRUE(decoded.two_hop.empty());

  // Lane 1 serializes independently.
  std::vector<std::uint8_t> wire1;
  r.encode_lane(1, wire1);
  LaneBatch decoded1;
  ASSERT_TRUE(Router::decode_lane(wire1, &decoded1, &error)) << error;
  EXPECT_EQ(decoded1.header.lane, 1u);
  ASSERT_EQ(decoded1.payloads.size(), 1u);
  EXPECT_EQ(decoded1.payloads[0].second.from, 3u);
}

TEST(LaneBatchTest, DecodeRejectsCorruptInput) {
  const auto g = complete_graph(3);
  Router r(3, 1);
  r.begin_round(1);
  Outbox out;
  out.send(1, WireMessage::edge_insert(Edge(0, 1)));
  r.stage_outbox(0, 0, out, g);
  std::vector<std::uint8_t> wire;
  r.encode_lane(0, wire);

  LaneBatch batch;
  std::string error;
  // Bad magic.
  auto corrupt = wire;
  corrupt[0] ^= 0xff;
  EXPECT_FALSE(Router::decode_lane(corrupt, &batch, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos);
  // Unsupported version.
  corrupt = wire;
  corrupt[4] = 0xee;
  EXPECT_FALSE(Router::decode_lane(corrupt, &batch, &error));
  EXPECT_NE(error.find("version"), std::string::npos);
  // Truncated header.
  EXPECT_FALSE(Router::decode_lane(
      std::span<const std::uint8_t>(wire.data(), 10), &batch, &error));
  EXPECT_NE(error.find("truncated header"), std::string::npos);
  // Truncated payload section.
  EXPECT_FALSE(Router::decode_lane(
      std::span<const std::uint8_t>(wire.data(), wire.size() - 1), &batch,
      &error));
}

TEST(LaneBatchTest, EveryTruncatedPrefixRejectsCleanly) {
  // The all-prefix fuzz: decode must reject *every* strict prefix of a
  // valid encoding -- including the off-by-one at wire.size() - 1 -- and
  // a frame with any trailing bytes, without over-reading or trusting a
  // partial header.  A batch with payloads, busy bits, and a blob message
  // exercises every section boundary.
  const std::size_t n = 6;
  const auto g = complete_graph(n);
  Router r(n, 2);
  r.begin_round(5);
  Outbox a;
  a.send(1, WireMessage::edge_insert(Edge(0, 1)));
  WireMessage chunk;
  chunk.kind = WireMessage::Kind::kSnapshotChunk;
  chunk.nodes[0] = 0;
  chunk.aux = 2;
  chunk.aux2 = 8;
  chunk.blob.assign(1, 0x33);
  a.send(2, std::move(chunk));
  a.declare_busy();
  a.declare_neighbors_busy();
  r.stage_outbox(0, 0, a, g);
  std::vector<std::uint8_t> wire;
  r.encode_lane(0, wire);
  ASSERT_GT(wire.size(), LaneBatchHeader::kWireBytes);

  LaneBatch batch;
  std::string error;
  ASSERT_TRUE(Router::decode_lane(wire, &batch, &error)) << error;
  for (std::size_t len = 0; len < wire.size(); ++len) {
    error.clear();
    EXPECT_FALSE(Router::decode_lane(
        std::span<const std::uint8_t>(wire.data(), len), &batch, &error))
        << "accepted a " << len << "-byte prefix of a " << wire.size()
        << "-byte frame";
    EXPECT_FALSE(error.empty()) << "len=" << len;
  }
  // Off-by-one in the other direction: one trailing byte is garbage too.
  auto longer = wire;
  longer.push_back(0);
  EXPECT_FALSE(Router::decode_lane(longer, &batch, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(LaneBatchTest, EverySingleBitFlipIsRejected) {
  // CRC32C detects every single-bit error, so flipping any one bit of the
  // frame -- header fields, counts, payload bytes, the checksum itself --
  // must make decode reject.  (Some flips die earlier on magic/version
  // checks; none may be accepted.)
  const auto g = complete_graph(4);
  Router r(4, 1);
  r.begin_round(2);
  Outbox out;
  out.send(1, WireMessage::edge_insert(Edge(0, 1)));
  out.declare_busy();
  r.stage_outbox(0, 0, out, g);
  std::vector<std::uint8_t> wire;
  r.encode_lane(0, wire);
  LaneBatch batch;
  std::string error;
  ASSERT_TRUE(Router::decode_lane(wire, &batch, &error)) << error;
  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(Router::decode_lane(wire, &batch, &error))
        << "accepted a frame with bit " << bit << " flipped";
    wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  // Restored intact, the frame decodes again.
  EXPECT_TRUE(Router::decode_lane(wire, &batch, &error)) << error;
}

TEST(LaneBatchTest, SeqAndEpochStampsTrackRouterState) {
  // The v2 anti-replay stamps: seq is bumped by begin_round() -- a frame
  // encoded in an earlier round stays structurally valid (CRC passes) but
  // identifies itself as stale -- and the per-lane epoch survives rounds
  // until a transport bumps it after a declared loss.
  const auto g = complete_graph(3);
  Router r(3, 2);
  r.begin_round(1);
  Outbox out;
  out.send(1, WireMessage::edge_insert(Edge(0, 1)));
  r.stage_outbox(0, 0, out, g);
  const std::uint64_t seq1 = r.wire_seq();
  std::vector<std::uint8_t> old_wire;
  r.encode_lane(0, old_wire);
  LaneBatch batch;
  std::string error;
  ASSERT_TRUE(Router::decode_lane(old_wire, &batch, &error)) << error;
  EXPECT_EQ(batch.header.seq, seq1);
  EXPECT_EQ(batch.header.epoch, r.wire_epoch(0));
  r.merge();

  r.begin_round(2);
  EXPECT_GT(r.wire_seq(), seq1);
  // The old frame still decodes (it is not corrupt, just stale) -- the
  // seq mismatch is how a receiver refuses it, which is exactly what the
  // chaos transport's delayed-copy path asserts.
  ASSERT_TRUE(Router::decode_lane(old_wire, &batch, &error)) << error;
  EXPECT_NE(batch.header.seq, r.wire_seq());

  // Epoch bumps are per lane and land in subsequent encodings.
  r.set_wire_epoch(0, r.wire_epoch(0) + 1);
  EXPECT_EQ(r.wire_epoch(0), 2u);
  EXPECT_EQ(r.wire_epoch(1), 1u);
  Outbox again;
  again.send(1, WireMessage::edge_insert(Edge(0, 1)));
  r.stage_outbox(0, 0, again, g);
  std::vector<std::uint8_t> fresh;
  r.encode_lane(0, fresh);
  ASSERT_TRUE(Router::decode_lane(fresh, &batch, &error)) << error;
  EXPECT_EQ(batch.header.epoch, 2u);
}

// ------------------------------------------ multi-shard frame streams ----

/// Stages a round of real cross-shard traffic on an S=2, L=2 fabric over
/// the complete graph on 8 nodes: senders from both shards (each on a
/// slot its shard owns), payloads and busy bits to destinations on both
/// sides of the partition.
void stage_two_shard_round(ShardFabric& fabric,
                           const oracle::TimestampedGraph& g) {
  auto send_from = [&](std::size_t slot, NodeId sender,
                       std::initializer_list<NodeId> dsts) {
    Outbox out;
    for (const NodeId dst : dsts) {
      out.send(dst, WireMessage::edge_insert(Edge(sender, dst)));
    }
    out.declare_busy();
    fabric.stage_outbox(slot, sender, out, g);
  };
  // Partition of [0, 8) into 2 shards: shard 0 owns {0..3} (slots 0, 1),
  // shard 1 owns {4..7} (slots 2, 3).
  send_from(0, 0, {1, 5});   // local + cross
  send_from(1, 2, {6, 7});   // cross only
  send_from(2, 4, {0, 6});   // cross + local
  send_from(3, 7, {3});      // cross only
}

/// Payload senders per destination after stage_two_shard_round (every
/// sender there also declares busy to all its neighbors).
const std::vector<std::vector<NodeId>> kTwoShardSenders = {
    {4}, {0}, {}, {7}, {}, {0}, {2, 4}, {2}};

/// A quieter round over the same fabric: no control bits, and payloads
/// that take bucket slots stage_two_shard_round gave other destinations
/// (shard 0's slot 0 passes from 1 to 2, shard 1's from 5 to 7).
void stage_shifted_shard_round(ShardFabric& fabric,
                               const oracle::TimestampedGraph& g) {
  Outbox out;
  out.send(2, WireMessage::edge_insert(Edge(1, 2)));
  fabric.stage_outbox(0, 1, out, g);
  out.reset();
  out.send(7, WireMessage::edge_insert(Edge(5, 7)));
  out.send(3, WireMessage::edge_insert(Edge(5, 3)));
  fabric.stage_outbox(2, 5, out, g);
}

const std::vector<std::vector<NodeId>> kShiftedSenders = {
    {}, {}, {1}, {5}, {}, {}, {}, {5}};

/// Encodes every non-empty ingress frame of `fabric` into one byte
/// stream, interleaving destination shards per slot -- the shape a
/// multi-process barrier exchange would put on one connection -- and
/// records each frame's end offset.
std::vector<std::uint8_t> encode_frame_stream(
    const ShardFabric& fabric, std::vector<std::size_t>* boundaries) {
  std::vector<std::uint8_t> stream;
  for (std::size_t slot = 0; slot < fabric.slots(); ++slot) {
    for (std::size_t d = 0; d < fabric.shards(); ++d) {
      if (fabric.ingress_empty(d, slot)) continue;
      fabric.encode_ingress(d, slot, stream);
      boundaries->push_back(stream.size());
    }
  }
  return stream;
}

/// Walks a concatenated frame stream with peek_frame_size + decode_lane.
/// Returns the decoded frame count, or nullopt when the stream is not a
/// whole number of valid frames.
std::optional<std::size_t> walk_frame_stream(
    std::span<const std::uint8_t> stream) {
  std::size_t frames = 0;
  while (!stream.empty()) {
    const std::size_t size = peek_frame_size(stream);
    if (size == 0 || size > stream.size()) return std::nullopt;
    LaneBatch batch;
    if (!Router::decode_lane(stream.first(size), &batch)) {
      return std::nullopt;
    }
    stream = stream.subspan(size);
    ++frames;
  }
  return frames;
}

TEST(MultiShardFrameStreamTest, EveryPrefixOfAFrameSequenceRejectsMidFrame) {
  // The all-prefix fuzz, lifted from one frame to a *sequence* of frames:
  // peek_frame_size must let a receiver walk a concatenated multi-shard
  // stream frame by frame, and every truncation that is not a frame
  // boundary must reject cleanly -- never accept a partial frame, never
  // read past the prefix.
  const std::size_t n = 8;
  const auto g = complete_graph(n);
  ShardFabric fabric(n, /*lanes_per_shard=*/2, /*shards=*/2);
  fabric.begin_round(3);
  stage_two_shard_round(fabric, g);

  std::vector<std::size_t> boundaries;
  const std::vector<std::uint8_t> stream =
      encode_frame_stream(fabric, &boundaries);
  // The staged round produces several frames (locally staged slots plus
  // real cross-shard egress); the walk must account for every byte.
  ASSERT_GE(boundaries.size(), 4u);
  ASSERT_EQ(boundaries.back(), stream.size());
  EXPECT_EQ(walk_frame_stream(stream), boundaries.size());

  std::size_t next_boundary = 0;
  for (std::size_t len = 0; len < stream.size(); ++len) {
    const std::span<const std::uint8_t> prefix(stream.data(), len);
    if (next_boundary < boundaries.size() &&
        boundaries[next_boundary] == len) {
      ++next_boundary;
    }
    if (len == 0 || (next_boundary > 0 &&
                     boundaries[next_boundary - 1] == len)) {
      // A frame-boundary prefix IS a valid shorter stream.
      EXPECT_EQ(walk_frame_stream(prefix), next_boundary) << "len=" << len;
    } else {
      EXPECT_EQ(walk_frame_stream(prefix), std::nullopt)
          << "accepted a " << len << "-byte prefix cutting frame "
          << next_boundary << " short";
    }
  }
  // Trailing garbage after the last whole frame fails the walk too.
  auto longer = stream;
  longer.push_back(0);
  EXPECT_EQ(walk_frame_stream(longer), std::nullopt);
}

TEST(MultiShardFrameStreamTest, InterleavedSeqContinuityAcrossStaleSlots) {
  // Per-shard wire sequence continuity while alternate rounds hand bucket
  // slots to other destinations: both routers stay in seq lockstep round
  // after round, every interleaved ingress frame of a round carries that
  // round's seq and its lane's current epoch, any frame kept from an
  // earlier round stays structurally valid but identifies itself as
  // stale, and every merged inbox holds exactly its own round's traffic.
  const std::size_t n = 8;
  const auto g = complete_graph(n);
  ShardFabric fabric(n, /*lanes_per_shard=*/2, /*shards=*/2);

  std::uint64_t prev_seq = 0;
  std::vector<std::uint8_t> stale;  // one cross-shard frame, one round old
  std::size_t stale_slot = 0;
  for (Round round = 1; round <= 8; ++round) {
    const bool shifted = round % 2 == 0;
    fabric.begin_round(round);
    if (shifted) {
      stage_shifted_shard_round(fabric, g);
    } else {
      stage_two_shard_round(fabric, g);
    }

    const std::uint64_t seq = fabric.wire_seq();
    if (round > 1) {
      EXPECT_EQ(seq, prev_seq + 1) << "seq discontinuity at round " << round;
    }
    for (std::size_t s = 0; s < fabric.shards(); ++s) {
      EXPECT_EQ(fabric.router(s).wire_seq(), seq)
          << "shard " << s << " fell out of lockstep at round " << round;
    }

    std::vector<std::uint8_t> wire;
    for (std::size_t slot = 0; slot < fabric.slots(); ++slot) {
      for (std::size_t d = 0; d < fabric.shards(); ++d) {
        if (fabric.ingress_empty(d, slot)) continue;
        wire.clear();
        fabric.encode_ingress(d, slot, wire);
        LaneBatch batch;
        std::string error;
        ASSERT_TRUE(Router::decode_lane(wire, &batch, &error))
            << "round " << round << " frame (" << d << ", " << slot
            << "): " << error;
        EXPECT_EQ(batch.header.seq, seq);
        EXPECT_EQ(batch.header.lane, slot);
        EXPECT_EQ(batch.header.round, static_cast<std::int64_t>(round));
        EXPECT_EQ(batch.header.epoch, fabric.wire_epoch(d, slot));
        if (fabric.shard_of_slot(slot) != d) {
          if (stale.empty()) {
            stale = wire;
            stale_slot = slot;
          }
          fabric.deliver(d, slot, std::move(batch));  // cross-shard hop
        }
      }
    }

    if (!stale.empty()) {
      LaneBatch old;
      ASSERT_TRUE(Router::decode_lane(stale, &old));
      if (old.header.seq != seq) {
        // A keeper from an earlier round: CRC-clean, refused by seq.
        EXPECT_LT(old.header.seq, seq);
      }
      (void)stale_slot;
    }
    fabric.merge();
    const auto& want = shifted ? kShiftedSenders : kTwoShardSenders;
    for (NodeId v = 0; v < n; ++v) {
      const Inbox in = fabric.inbox(v);
      std::vector<NodeId> senders;
      for (const auto& item : in.payloads) senders.push_back(item.from);
      EXPECT_EQ(senders, want[v]) << "v=" << v << " round " << round;
      // In the base round senders 0, 2, 4 and 7 declare busy to everyone.
      const bool busy_sender = v == 0 || v == 2 || v == 4 || v == 7;
      const std::size_t busy = shifted ? 0 : (busy_sender ? 3 : 4);
      EXPECT_EQ(in.busy_neighbors.size(), busy)
          << "v=" << v << " round " << round;
    }
    prev_seq = seq;
  }
}

// ------------------------------------------- simulator memory policy ----

/// Collects neighbors from round-1 insertions and blasts one payload per
/// neighbor the following round -- a one-round traffic burst.
class BurstNode final : public NodeProgram {
 public:
  BurstNode(NodeId self, std::size_t) : self_(self) {}

  void react_and_send(const NodeContext&, std::span<const EdgeEvent> events,
                      Outbox& out) override {
    if (pending_) {
      for (NodeId u : neighbors_) {
        out.send(u, WireMessage::edge_insert(Edge(self_, u)));
      }
      pending_ = false;
    }
    for (const auto& ev : events) {
      if (ev.kind == EventKind::kInsert) {
        neighbors_.push_back(ev.edge.other(self_));
        pending_ = true;
      }
    }
  }
  void receive_and_update(const NodeContext&, const Inbox&) override {}
  [[nodiscard]] bool consistent() const override { return true; }
  [[nodiscard]] bool wants_to_act() const override { return pending_; }

 private:
  NodeId self_;
  std::vector<NodeId> neighbors_;
  bool pending_ = false;
};

NodeFactory burst_factory() { return store_of<BurstNode>(); }

TEST(SimulatorMemoryTest, OutboxScratchIsLaneBoundedNotNodeBounded) {
  // The old engine kept one pooled outbox per active node, so a single
  // dense bootstrap at n pinned n outboxes forever.  The fabric keeps one
  // scratch outbox per lane.
  Simulator seq(512, burst_factory());
  seq.step({});  // dense bootstrap round
  EXPECT_EQ(seq.outbox_pool_slots(), 1u);
  Simulator par(512, burst_factory(), {.threads = 3});
  par.step({});
  EXPECT_EQ(par.outbox_pool_slots(), 3u);
}

/// A node program that never acts: constructing it is all it costs.
class IdleNode final : public NodeProgram {
 public:
  IdleNode(NodeId, std::size_t) {}
  void react_and_send(const NodeContext&, std::span<const EdgeEvent>,
                      Outbox&) override {}
  void receive_and_update(const NodeContext&, const Inbox&) override {}
  [[nodiscard]] bool consistent() const override { return true; }
};

TEST(SimulatorMemoryTest, EngineBytesPerNodeStayUnderBound) {
  // Heap bytes the engine and the node programs request per node at
  // construction, in the default configuration, with the triangle
  // detector's programs (the ones churn_1m runs).  Measured 84.3 B: the
  // idle TriangleNode in the store (24: vtable pointer, id and flags, a
  // null State), the G_i adjacency header (24), the two Metrics counters
  // (16), four 4-byte bucket slot indices (16), the active-set stamp (4)
  // and two flag bits.  A new O(n) array of even 4 bytes per node fails
  // the bound; so does a program that holds its containers inline (the
  // 104-B TriangleNode) or a per-node heap object behind an n-sized
  // pointer array (both together read 172.3 B).
  constexpr std::size_t kNodes = std::size_t{1} << 16;
  constexpr double kMaxBytesPerNode = 87.0;
  const NodeFactory factory = detect::build_detector("triangle")->factory();
  std::size_t bytes = 0;
  {
    testing::AllocationCounter counter;
    const Simulator sim(kNodes, factory);
    bytes = counter.bytes();
  }
  const double per_node = static_cast<double>(bytes) / kNodes;
  EXPECT_LE(per_node, kMaxBytesPerNode)
      << "engine + program heap bytes per node at construction";
}

TEST(SimulatorMemoryTest, BootstrapNodeSetsAreHandedBack) {
  // Round 1 steps all n nodes, so the active set and its merge with the
  // pure receivers grow to n entries each.  From round 2 on a round needs
  // O(active) of them; an idle network must not keep 2n entries for the
  // rest of the run.
  constexpr std::size_t kNodes = std::size_t{1} << 16;
  Simulator sim(kNodes, store_of<IdleNode>());
  sim.step({});
  ASSERT_EQ(sim.last_round_active(), kNodes);
  EXPECT_GE(sim.retained_capacity(), 2 * kNodes);
  for (int r = 0; r < 3; ++r) sim.step({});
  EXPECT_EQ(sim.last_round_stepped(), 0u);
  EXPECT_LE(sim.retained_capacity(), 64u)
      << "per-round node sets still hold the bootstrap's capacity";
}

TEST(SimulatorMemoryTest, RouterCapacityDecaysToSteadyState) {
  // Clique bootstrap: one round with 64*63 payloads, then quiet rounds.
  // The routing fabric must hand the burst's buffers back instead of
  // pinning the high-water capacity forever.
  const std::size_t k = 64;
  Simulator sim(k, burst_factory());
  std::vector<EdgeEvent> clique;
  for (NodeId i = 0; i < k; ++i) {
    for (NodeId j = i + 1; j < k; ++j) clique.push_back(EdgeEvent::insert(i, j));
  }
  sim.step(clique);
  sim.step({});  // the burst round: k*(k-1) payloads
  const std::size_t burst = k * (k - 1);
  EXPECT_EQ(sim.metrics().messages(), burst);
  EXPECT_GE(sim.router().retained_capacity(), burst);
  for (std::size_t r = 0; r < 2 * ShardedBuckets<int>::kDecayWindow + 4;
       ++r) {
    sim.step({});
  }
  EXPECT_LT(sim.router().retained_capacity(), burst);
}

}  // namespace
}  // namespace dynsub::net
