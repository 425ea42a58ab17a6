// Unit tests for the centralized oracle: the ground truth everything else
// is audited against, so it gets brute-force cross-checks of its own.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "oracle/robust_sets.hpp"
#include "oracle/subgraphs.hpp"
#include "oracle/timestamped_graph.hpp"

namespace dynsub::oracle {
namespace {

TimestampedGraph make_graph(std::size_t n,
                            std::initializer_list<std::pair<NodeId, NodeId>>
                                edges,
                            Round t0 = 1) {
  TimestampedGraph g(n);
  Round r = t0;
  for (const auto& [a, b] : edges) {
    g.apply(EdgeEvent::insert(a, b), r++);
  }
  return g;
}

// -------------------------------------------------- TimestampedGraph ----

TEST(TimestampedGraphTest, InsertDeleteAndTimestamps) {
  TimestampedGraph g(4);
  g.apply(EdgeEvent::insert(0, 1), 3);
  EXPECT_TRUE(g.has_edge(Edge(0, 1)));
  EXPECT_EQ(g.timestamp(Edge(0, 1)), 3);
  EXPECT_EQ(g.degree(0), 1u);
  g.apply(EdgeEvent::remove(0, 1), 5);
  EXPECT_FALSE(g.has_edge(Edge(0, 1)));
  g.apply(EdgeEvent::insert(0, 1), 9);
  EXPECT_EQ(g.timestamp(Edge(0, 1)), 9);  // re-insertion refreshes t_e
}

TEST(TimestampedGraphTest, NeighborsSorted) {
  auto g = make_graph(5, {{2, 4}, {2, 0}, {2, 3}});
  const auto nb = g.neighbors(2);
  EXPECT_EQ(std::vector<NodeId>(nb.begin(), nb.end()),
            (std::vector<NodeId>{0, 3, 4}));
}

TEST(TimestampedGraphTest, BatchValidation) {
  auto g = make_graph(4, {{0, 1}});
  // Valid: delete present, insert absent.
  EXPECT_TRUE(g.batch_applicable(std::vector<EdgeEvent>{
      EdgeEvent::remove(0, 1), EdgeEvent::insert(1, 2)}));
  // Invalid: duplicate edge in one round.
  EXPECT_FALSE(g.batch_applicable(std::vector<EdgeEvent>{
      EdgeEvent::remove(0, 1), EdgeEvent::insert(0, 1)}));
  // Invalid: inserting a present edge.
  EXPECT_FALSE(g.batch_applicable(
      std::vector<EdgeEvent>{EdgeEvent::insert(0, 1)}));
  // Invalid: deleting an absent edge.
  EXPECT_FALSE(g.batch_applicable(
      std::vector<EdgeEvent>{EdgeEvent::remove(2, 3)}));

  // Invalid: in a batch of thousands, the first event's edge comes back as
  // the last event; each event alone is applicable.
  TimestampedGraph big(6000);
  std::vector<EdgeEvent> batch;
  for (NodeId v = 0; v + 1 < 6000; ++v) {
    batch.push_back(EdgeEvent::insert(v, v + 1));
  }
  EXPECT_TRUE(big.batch_applicable(batch));
  batch.push_back(EdgeEvent::insert(1, 0));
  EXPECT_FALSE(big.batch_applicable(batch));
}

TEST(TimestampedGraphTest, DistancesBfs) {
  auto g = make_graph(6, {{0, 1}, {1, 2}, {2, 3}, {4, 5}});
  const auto d = g.distances_from(0);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], 2u);
  EXPECT_EQ(d[3], 3u);
  EXPECT_EQ(d[4], TimestampedGraph::kUnreachable);
}

// ------------------------------------------------------- enumeration ----

TEST(SubgraphsTest, TrianglesThroughNode) {
  auto g = make_graph(5, {{0, 1}, {0, 2}, {1, 2}, {0, 3}, {2, 3}});
  const auto tris = triangles_through(g, 0);
  ASSERT_EQ(tris.size(), 2u);
  EXPECT_EQ(tris[0], (TrianglePartners{1, 2}));
  EXPECT_EQ(tris[1], (TrianglePartners{2, 3}));
  EXPECT_TRUE(triangles_through(g, 4).empty());
}

TEST(SubgraphsTest, CliquesThroughNode) {
  // K4 on {0,1,2,3}.
  auto g = make_graph(5, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  auto c3 = cliques_through(g, 0, 3);
  EXPECT_EQ(c3.size(), 3u);  // {1,2},{1,3},{2,3}
  auto c4 = cliques_through(g, 0, 4);
  ASSERT_EQ(c4.size(), 1u);
  EXPECT_EQ(c4[0], (std::vector<NodeId>{1, 2, 3}));
  EXPECT_TRUE(cliques_through(g, 0, 5).empty());
}

TEST(SubgraphsTest, FourCyclesCanonical) {
  // Single 4-cycle 0-1-2-3.
  auto g = make_graph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const auto cycles = all_4_cycles(g);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].v, (std::array<NodeId, 4>{0, 1, 2, 3}));
}

TEST(SubgraphsTest, K4HasThreeFourCycles) {
  auto g = make_graph(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(all_4_cycles(g).size(), 3u);
}

TEST(SubgraphsTest, FiveCyclesCanonical) {
  auto g = make_graph(7, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  const auto cycles = all_5_cycles(g);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].v, (std::array<NodeId, 5>{0, 1, 2, 3, 4}));
}

TEST(SubgraphsTest, K5FiveCycleCount) {
  TimestampedGraph g(5);
  Round r = 1;
  for (NodeId a = 0; a < 5; ++a) {
    for (NodeId b = a + 1; b < 5; ++b) g.apply(EdgeEvent::insert(a, b), r++);
  }
  // K5 contains 5!/(5*2) = 12 distinct 5-cycles.
  EXPECT_EQ(all_5_cycles(g).size(), 12u);
}

TEST(SubgraphsTest, ChordalSquareHasOneFourCycle) {
  // Square + diagonal: still exactly one 4-cycle (diagonals make triangles,
  // not 4-cycles).
  auto g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  EXPECT_EQ(all_4_cycles(g).size(), 1u);
}

TEST(SubgraphsTest, HopEdgesRadiusTwo) {
  // Path 0-1-2-3-4: E^{0,2} = edges touching 0 or a neighbor of 0.
  auto g = make_graph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const auto e2 = hop_edges(g, 0, 2);
  EXPECT_TRUE(e2.contains(Edge(0, 1)));
  EXPECT_TRUE(e2.contains(Edge(1, 2)));
  EXPECT_FALSE(e2.contains(Edge(2, 3)));
  const auto e3 = hop_edges(g, 0, 3);
  EXPECT_TRUE(e3.contains(Edge(2, 3)));
  EXPECT_FALSE(e3.contains(Edge(3, 4)));
}

// Brute-force cross-check of 4-cycle enumeration on random graphs.
TEST(SubgraphsTest, FourCyclesMatchBruteForceOnRandomGraphs) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    TimestampedGraph g(9);
    Round r = 1;
    for (NodeId a = 0; a < 9; ++a) {
      for (NodeId b = a + 1; b < 9; ++b) {
        if (rng.next_bool(0.3)) g.apply(EdgeEvent::insert(a, b), r++);
      }
    }
    // Brute force: all ordered quadruples, canonicalized into a set.
    std::vector<Cycle4> brute;
    for (NodeId a = 0; a < 9; ++a) {
      for (NodeId b = 0; b < 9; ++b) {
        for (NodeId c = 0; c < 9; ++c) {
          for (NodeId d = 0; d < 9; ++d) {
            if (a >= b || a >= c || a >= d) continue;  // a minimal
            if (b == c || b == d || c == d) continue;
            if (b > d) continue;  // direction canonical
            if (g.has_edge(Edge(a, b)) && g.has_edge(Edge(b, c)) &&
                g.has_edge(Edge(c, d)) && g.has_edge(Edge(d, a))) {
              brute.push_back(Cycle4{{a, b, c, d}});
            }
          }
        }
      }
    }
    std::sort(brute.begin(), brute.end());
    brute.erase(std::unique(brute.begin(), brute.end()), brute.end());
    EXPECT_EQ(all_4_cycles(g), brute) << "trial " << trial;
  }
}

// ------------------------------------------------------- robust sets ----

TEST(RobustSetsTest, Robust2HopRespectsInsertionOrder) {
  // v=0; {0,1} at t=1, {1,2} at t=2 (newer: robust), {1,3} at t=0... use
  // two graphs to get both orders.
  TimestampedGraph g(4);
  g.apply(EdgeEvent::insert(1, 3), 1);  // older than {0,1}
  g.apply(EdgeEvent::insert(0, 1), 2);
  g.apply(EdgeEvent::insert(1, 2), 3);  // newer than {0,1}
  const auto r2 = robust_2hop(g, 0);
  EXPECT_TRUE(r2.contains(Edge(0, 1)));   // incident
  EXPECT_TRUE(r2.contains(Edge(1, 2)));   // t=3 >= t_{0,1}=2
  EXPECT_FALSE(r2.contains(Edge(1, 3)));  // t=1 < 2, no other witness
}

TEST(RobustSetsTest, Robust2HopSecondWitnessRescues) {
  TimestampedGraph g(4);
  g.apply(EdgeEvent::insert(1, 2), 1);  // the far edge, old
  g.apply(EdgeEvent::insert(0, 1), 2);
  g.apply(EdgeEvent::insert(0, 2), 1);  // as old as the far edge
  // Through 1: t_{1,2}=1 < t_{0,1}=2 -> not robust via 1.
  // Through 2: t_{1,2}=1 >= t_{0,2}=1 -> robust via 2.
  EXPECT_TRUE(robust_2hop(g, 0).contains(Edge(1, 2)));
}

TEST(RobustSetsTest, TrianglePatternSetCoversAllTriangleFarEdges) {
  // Whatever the insertion order, the far edge of a triangle through v is
  // in T^{v,2}.
  const std::array<std::array<int, 3>, 6> orders{{{0, 1, 2},
                                                  {0, 2, 1},
                                                  {1, 0, 2},
                                                  {1, 2, 0},
                                                  {2, 0, 1},
                                                  {2, 1, 0}}};
  for (const auto& order : orders) {
    TimestampedGraph g(3);
    const std::array<EdgeEvent, 3> ev{EdgeEvent::insert(0, 1),
                                      EdgeEvent::insert(0, 2),
                                      EdgeEvent::insert(1, 2)};
    Round r = 1;
    for (int idx : order) g.apply(ev[idx], r++);
    const auto t2 = triangle_pattern_set(g, 0);
    EXPECT_TRUE(t2.contains(Edge(1, 2)))
        << "order " << order[0] << order[1] << order[2];
  }
}

TEST(RobustSetsTest, TrianglePatternSetExcludesOldEdgeWithoutTriangle) {
  TimestampedGraph g(4);
  g.apply(EdgeEvent::insert(1, 2), 1);
  g.apply(EdgeEvent::insert(0, 1), 5);  // {1,2} older, no edge {0,2}
  const auto t2 = triangle_pattern_set(g, 0);
  EXPECT_FALSE(t2.contains(Edge(1, 2)));
}

TEST(RobustSetsTest, Robust3HopPatterns) {
  // Path 0-1-2-3 with strictly increasing timestamps: both patterns hold.
  TimestampedGraph g(5);
  g.apply(EdgeEvent::insert(0, 1), 1);
  g.apply(EdgeEvent::insert(1, 2), 2);
  g.apply(EdgeEvent::insert(2, 3), 3);
  const auto r3 = robust_3hop(g, 0);
  EXPECT_TRUE(r3.contains(Edge(0, 1)));
  EXPECT_TRUE(r3.contains(Edge(1, 2)));  // pattern (a)
  EXPECT_TRUE(r3.contains(Edge(2, 3)));  // pattern (b)
}

TEST(RobustSetsTest, Robust3HopPatternBNeedsFarEdgeNewest) {
  // 0-1-2-3 but the far edge {2,3} is the OLDEST: not robust for 0.
  TimestampedGraph g(4);
  g.apply(EdgeEvent::insert(2, 3), 1);
  g.apply(EdgeEvent::insert(1, 2), 2);
  g.apply(EdgeEvent::insert(0, 1), 3);
  const auto r3 = robust_3hop(g, 0);
  EXPECT_FALSE(r3.contains(Edge(2, 3)));
  EXPECT_FALSE(r3.contains(Edge(1, 2)));  // t=2 < t_{0,1}=3, pattern (a) no
}

TEST(RobustSetsTest, Robust3HopContainsRobust2Hop) {
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    TimestampedGraph g(10);
    Round r = 1;
    for (NodeId a = 0; a < 10; ++a) {
      for (NodeId b = a + 1; b < 10; ++b) {
        if (rng.next_bool(0.25)) g.apply(EdgeEvent::insert(a, b), r++);
      }
    }
    for (NodeId v = 0; v < 10; ++v) {
      const auto r2 = robust_2hop(g, v);
      const auto r3 = robust_3hop(g, v);
      for (const Edge& e : r2) {
        EXPECT_TRUE(r3.contains(e)) << "v=" << v << " e=" << e;
      }
      // And R^{v,3} stays inside E^{v,3}.
      const auto e3 = hop_edges(g, v, 3);
      for (const Edge& e : r3) {
        EXPECT_TRUE(e3.contains(e)) << "v=" << v << " e=" << e;
      }
    }
  }
}

}  // namespace
}  // namespace dynsub::oracle
