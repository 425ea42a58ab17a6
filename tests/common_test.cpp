// Unit tests for the common foundation: edges, containers, RNG, bitsets.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <string>

#include "alloc_counter.hpp"
#include "common/bitset.hpp"
#include "common/edge.hpp"
#include "common/fifo.hpp"
#include "common/flat_set.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"

namespace dynsub {
namespace {

// ---------------------------------------------------------------- Edge ----

TEST(ParseU64Test, StrictDigitsOnlyAndNoWraparound) {
  using dynsub::parse_u64;
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("007"), 7u);
  // The exact 64-bit boundary.
  EXPECT_EQ(parse_u64("18446744073709551615"), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());
  EXPECT_FALSE(parse_u64("99999999999999999999999").has_value());
  // Everything strtoull would quietly accept.
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64("-1").has_value());
  EXPECT_FALSE(parse_u64("+1").has_value());
  EXPECT_FALSE(parse_u64(" 1").has_value());
  EXPECT_FALSE(parse_u64("1 ").has_value());
  EXPECT_FALSE(parse_u64("0x10").has_value());
  EXPECT_FALSE(parse_u64("1e3").has_value());
  EXPECT_FALSE(parse_u64("10O0").has_value());
}

TEST(EdgeTest, NormalizesEndpointOrder) {
  const Edge a(5, 2);
  EXPECT_EQ(a.lo(), 2u);
  EXPECT_EQ(a.hi(), 5u);
  EXPECT_EQ(a, Edge(2, 5));
}

TEST(EdgeTest, TouchesAndOther) {
  const Edge e(3, 7);
  EXPECT_TRUE(e.touches(3));
  EXPECT_TRUE(e.touches(7));
  EXPECT_FALSE(e.touches(4));
  EXPECT_EQ(e.other(3), 7u);
  EXPECT_EQ(e.other(7), 3u);
}

TEST(EdgeTest, IntersectsSharedEndpoint) {
  EXPECT_TRUE(Edge(1, 2).intersects(Edge(2, 3)));
  EXPECT_TRUE(Edge(1, 2).intersects(Edge(1, 2)));
  EXPECT_FALSE(Edge(1, 2).intersects(Edge(3, 4)));
}

TEST(EdgeTest, OrderingIsLexicographic) {
  EXPECT_LT(Edge(1, 2), Edge(1, 3));
  EXPECT_LT(Edge(1, 9), Edge(2, 3));
}

TEST(EdgeTest, HashDistinguishesPairs) {
  EdgeHash h;
  std::set<std::size_t> seen;
  for (NodeId a = 0; a < 30; ++a) {
    for (NodeId b = a + 1; b < 30; ++b) seen.insert(h(Edge(a, b)));
  }
  EXPECT_EQ(seen.size(), 30u * 29u / 2u);  // no collisions on a small grid
}

TEST(EdgeEventTest, FactoryHelpers) {
  const EdgeEvent ins = EdgeEvent::insert(4, 1);
  EXPECT_EQ(ins.kind, EventKind::kInsert);
  EXPECT_EQ(ins.edge, Edge(1, 4));
  const EdgeEvent del = EdgeEvent::remove(1, 4);
  EXPECT_EQ(del.kind, EventKind::kDelete);
}

// ------------------------------------------------------------- FlatSet ----

TEST(FlatSetTest, InsertEraseContains) {
  FlatSet<int> s;
  EXPECT_TRUE(s.insert(5));
  EXPECT_TRUE(s.insert(1));
  EXPECT_FALSE(s.insert(5));  // duplicate
  EXPECT_TRUE(s.contains(1));
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(2));
  EXPECT_TRUE(s.erase(1));
  EXPECT_FALSE(s.erase(1));
  EXPECT_EQ(s.size(), 1u);
}

TEST(FlatSetTest, IterationIsSorted) {
  FlatSet<int> s;
  for (int v : {9, 3, 7, 1, 5}) s.insert(v);
  std::vector<int> got(s.begin(), s.end());
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_EQ(got.size(), 5u);
}

TEST(FlatSetTest, EraseIf) {
  FlatSet<int> s;
  for (int v = 0; v < 10; ++v) s.insert(v);
  const auto erased = s.erase_if([](int v) { return v % 2 == 0; });
  EXPECT_EQ(erased, 5u);
  EXPECT_EQ(s.size(), 5u);
  EXPECT_FALSE(s.contains(4));
  EXPECT_TRUE(s.contains(5));
  // The range form visits only the elements in [lo, hi).
  std::vector<int> visited;
  EXPECT_EQ(s.erase_if(3, 8,
                       [&](int v) {
                         visited.push_back(v);
                         return v != 5;
                       }),
            2u);
  EXPECT_EQ(visited, (std::vector<int>{3, 5, 7}));
  EXPECT_EQ(s.values(), (std::vector<int>{1, 5, 9}));
}

TEST(FlatMapTest, BasicOperations) {
  FlatMap<int, std::string> m;
  m[3] = "c";
  m[1] = "a";
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.contains(1));
  EXPECT_EQ(m.find(3)->second, "c");
  EXPECT_EQ(m.find(2), m.end());
  auto [it, fresh] = m.try_emplace(1, "z");
  EXPECT_FALSE(fresh);
  EXPECT_EQ(it->second, "a");
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
}

TEST(FlatMapTest, SortedIteration) {
  FlatMap<int, int> m;
  for (int k : {5, 2, 8, 1}) m[k] = k * 10;
  std::vector<int> keys;
  for (const auto& [k, v] : m) {
    keys.push_back(k);
    EXPECT_EQ(v, k * 10);
  }
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

// ---------------------------------------------------------------- Fifo ----

// Seeded random push_back / pop_front / erase_if sequences on a Fifo and a
// std::deque must leave identical contents after every operation.  The push
// bias alternates every 300 operations, so the queue fills to dozens of
// items and drains again many times, crossing both the drained reset and
// the half-consumed compaction.
TEST(FifoTest, MatchesDequeOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    Fifo<std::uint64_t> fifo;
    std::deque<std::uint64_t> ref;
    for (int op = 0; op < 3000; ++op) {
      const std::uint64_t push_pct = (op / 300) % 2 == 0 ? 70 : 30;
      const std::uint64_t roll = rng.next_below(100);
      if (roll < 3) {
        const std::uint64_t mod = 2 + rng.next_below(4);
        const auto pred = [mod](std::uint64_t x) { return x % mod == 0; };
        ASSERT_EQ(fifo.erase_if(pred), std::erase_if(ref, pred));
      } else if (roll < 3 + push_pct) {
        const std::uint64_t x = rng.next_u64();
        fifo.push_back(x);
        ref.push_back(x);
      } else if (!ref.empty()) {
        ASSERT_EQ(fifo.front(), ref.front());
        fifo.pop_front();
        ref.pop_front();
      }
      ASSERT_EQ(fifo.size(), ref.size()) << "seed " << seed << " op " << op;
      ASSERT_EQ(fifo.empty(), ref.empty());
      ASSERT_TRUE(std::equal(fifo.begin(), fifo.end(), ref.begin(), ref.end()))
          << "seed " << seed << " op " << op;
      for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(fifo[i], ref[i]);
    }
  }
}

// A moved-from Fifo is empty (its head index goes with the items), which
// is what FlatMap<K, Fifo<T>> relies on when it shifts entries.
TEST(FifoTest, MovedFromIsEmptyAndReusable) {
  Fifo<std::string> a;
  for (const char* s : {"x", "y", "z"}) a.push_back(s);
  a.pop_front();
  Fifo<std::string> b = std::move(a);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.front(), "y");
  a.push_back("w");
  EXPECT_EQ(a.front(), "w");
  b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], "w");
}

// An idle node program's queue owns no heap: a thousand default-constructed
// Fifos cost one allocation, their vector's.
TEST(FifoTest, DefaultConstructedNeverAllocates) {
  std::size_t allocations = 0;
  std::size_t queued = 0;
  {
    testing::AllocationCounter counter;
    const std::vector<Fifo<std::string>> fifos(1000);
    for (const auto& f : fifos) queued += f.size();
    allocations = counter.count();
  }
  EXPECT_EQ(queued, 0u);
  EXPECT_EQ(allocations, 1u);
}

// ----------------------------------------------------------------- Rng ----

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(RngTest, NextInInclusive) {
  Rng r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, SampleDistinctIsDistinctAndComplete) {
  Rng r(11);
  auto picks = r.sample_distinct(20, 20);
  std::sort(picks.begin(), picks.end());
  for (std::uint32_t i = 0; i < 20; ++i) EXPECT_EQ(picks[i], i);
  picks = r.sample_distinct(100, 10);
  std::set<std::uint32_t> uniq(picks.begin(), picks.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(RngTest, ParetoRespectsMinimumAndIsHeavyTailed) {
  Rng r(13);
  double max_seen = 0;
  for (int i = 0; i < 5000; ++i) {
    const double v = r.next_pareto(4.0, 1.5);
    EXPECT_GE(v, 4.0);
    max_seen = std::max(max_seen, v);
  }
  EXPECT_GT(max_seen, 40.0);  // the tail actually shows up
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(5);
  Rng child = a.split();
  // Child stream differs from continuing the parent.
  Rng b(5);
  (void)b.next_u64();  // parent consumed one word for the split
  EXPECT_NE(child.next_u64(), b.next_u64());
}

// -------------------------------------------------------------- Bitset ----

TEST(BitsetTest, SetResetTestCount) {
  DenseBitset bs(130);
  EXPECT_EQ(bs.count(), 0u);
  bs.set(0);
  bs.set(64);
  bs.set(129);
  EXPECT_TRUE(bs.test(0));
  EXPECT_TRUE(bs.test(64));
  EXPECT_TRUE(bs.test(129));
  EXPECT_FALSE(bs.test(1));
  EXPECT_EQ(bs.count(), 3u);
  bs.reset(64);
  EXPECT_FALSE(bs.test(64));
  EXPECT_EQ(bs.count(), 2u);
}

TEST(BitsetTest, ExtractDepositRoundTrip) {
  DenseBitset src(200);
  Rng r(3);
  for (std::size_t i = 0; i < 200; ++i) {
    if (r.next_bool(0.4)) src.set(i);
  }
  DenseBitset dst(200);
  // Copy in awkward chunk sizes crossing word boundaries.
  for (std::size_t from = 0; from < 200;) {
    const std::size_t nbits = std::min<std::size_t>(37, 200 - from);
    dst.deposit_bits(from, nbits, src.extract_bits(from, nbits));
    from += nbits;
  }
  EXPECT_EQ(src, dst);
}

TEST(BitsetTest, DepositOverwritesStaleBits) {
  DenseBitset d(64);
  for (std::size_t i = 0; i < 64; ++i) d.set(i);
  DenseBitset zero(64);
  d.deposit_bits(8, 16, zero.extract_bits(8, 16));
  EXPECT_EQ(d.count(), 64u - 16u);
}

// -------------------------------------------------------------- Format ----

TEST(FormatTest, Thousands) {
  EXPECT_EQ(with_thousands(0), "0");
  EXPECT_EQ(with_thousands(999), "999");
  EXPECT_EQ(with_thousands(1000), "1,000");
  EXPECT_EQ(with_thousands(1234567), "1,234,567");
}

TEST(FormatTest, FixedDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(FormatTest, TableHasHeaderRule) {
  const auto table = render_table({{"a", "bb"}, {"1", "2"}});
  EXPECT_NE(table.find("| a | bb |"), std::string::npos);
  EXPECT_NE(table.find("|---|----|"), std::string::npos);
  EXPECT_NE(table.find("| 1 | 2  |"), std::string::npos);
}

}  // namespace
}  // namespace dynsub
