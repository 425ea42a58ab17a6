// Unit tests for the experiment harness: summaries, series rendering,
// slope estimation, and the parallel sweep runner.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <optional>
#include <string>

#include "core/robust2hop.hpp"
#include "harness/engine_flags.hpp"
#include "harness/experiment.hpp"
#include "net/workload.hpp"

namespace dynsub::harness {
namespace {

TEST(HarnessTest, SummarizeReflectsMetrics) {
  net::Simulator sim(4, [](NodeId v, std::size_t n) {
    return std::make_unique<core::Robust2HopNode>(v, n);
  });
  sim.step(std::vector<EdgeEvent>{EdgeEvent::insert(0, 1)});
  sim.run_until_stable(50);
  const RunSummary s = summarize(sim);
  EXPECT_EQ(s.n, 4u);
  EXPECT_EQ(s.changes, 1u);
  EXPECT_GT(s.rounds, 0);
  EXPECT_GE(s.messages, 1u);
  EXPECT_DOUBLE_EQ(s.amortized,
                   static_cast<double>(s.inconsistent_rounds) /
                       static_cast<double>(s.changes));
}

TEST(HarnessTest, RenderResultsTableAlignsSeries) {
  Series a{"alpha", {{1, 0.5}, {2, 0.25}}};
  Series b{"beta", {{1, 1.0}, {2, 2.0}}};
  const auto table = render_results_table("n", {a, b});
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("beta"), std::string::npos);
  EXPECT_NE(table.find("0.500"), std::string::npos);
  EXPECT_NE(table.find("2.000"), std::string::npos);
}

TEST(HarnessTest, AsciiChartContainsLegendAndBounds) {
  Series s{"curve", {{10, 1.0}, {100, 2.0}, {1000, 3.0}}};
  const auto chart = ascii_chart({s});
  EXPECT_NE(chart.find("curve"), std::string::npos);
  EXPECT_NE(chart.find("[10, 1000]"), std::string::npos);
  EXPECT_NE(chart.find('*'), std::string::npos);
}

TEST(HarnessTest, AsciiChartHandlesEmptyAndDegenerate) {
  EXPECT_EQ(ascii_chart({}), "(no data)\n");
  Series flat{"flat", {{5, 7.0}}};
  const auto chart = ascii_chart({flat});
  EXPECT_FALSE(chart.empty());  // single-point series must not crash
}

TEST(HarnessTest, LogLogSlopeRecognizesShapes) {
  Series constant{"c", {}};
  Series linear{"l", {}};
  Series sqrt_s{"s", {}};
  for (double x : {16.0, 32.0, 64.0, 128.0, 256.0}) {
    constant.points.push_back({x, 3.0});
    linear.points.push_back({x, 0.5 * x});
    sqrt_s.points.push_back({x, 2.0 * std::sqrt(x)});
  }
  EXPECT_NEAR(log_log_slope(constant), 0.0, 0.01);
  EXPECT_NEAR(log_log_slope(linear), 1.0, 0.01);
  EXPECT_NEAR(log_log_slope(sqrt_s), 0.5, 0.01);
}

TEST(HarnessTest, LogLogSlopeIgnoresNonPositivePoints) {
  Series s{"s", {{0, 1}, {-3, 2}, {10, 0}, {16, 4.0}, {64, 8.0}}};
  EXPECT_NEAR(log_log_slope(s), 0.5, 0.01);
}

TEST(HarnessTest, ParallelForCoversEveryIndexOnce) {
  constexpr std::size_t kCount = 500;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(HarnessTest, ParallelForSingleThreadFallback) {
  std::vector<int> order;
  parallel_for(
      5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
      /*threads=*/1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(HarnessTest, ParallelForZeroCountIsNoop) {
  parallel_for(0, [&](std::size_t) { FAIL() << "must not be called"; });
}

// The engine-flag value parsers shared by dynsub_run, dynsub_serve and the
// bench CLI: boundaries, strictness, and a reason that names the flag.
TEST(EngineFlagsTest, ThreadsTakeZeroThrough256) {
  std::string error;
  EXPECT_EQ(parse_threads_flag("0", &error), std::optional<std::size_t>{0});
  EXPECT_EQ(parse_threads_flag("256", &error),
            std::optional<std::size_t>{256});
  EXPECT_EQ(parse_threads_flag("257", &error), std::nullopt);
  EXPECT_EQ(error, "--threads wants an unsigned integer <= 256, got '257'");
  EXPECT_EQ(parse_threads_flag("-1", &error), std::nullopt);
  EXPECT_EQ(parse_threads_flag("", &error), std::nullopt);
}

TEST(EngineFlagsTest, ShardsTakeOneThrough64) {
  std::string error;
  EXPECT_EQ(parse_shards_flag("0", &error), std::nullopt);
  EXPECT_EQ(error, "--shards wants an unsigned integer in 1..64, got '0'");
  EXPECT_EQ(parse_shards_flag("1", &error), std::optional<std::size_t>{1});
  EXPECT_EQ(parse_shards_flag("64", &error), std::optional<std::size_t>{64});
  EXPECT_EQ(parse_shards_flag("65", &error), std::nullopt);
}

TEST(EngineFlagsTest, SeedIsAStrictU64) {
  std::string error;
  EXPECT_EQ(parse_seed_flag("10O", &error), std::nullopt);
  EXPECT_EQ(error, "--seed wants an unsigned integer, got '10O'");
  EXPECT_EQ(parse_seed_flag("0", &error), std::optional<std::uint64_t>{0});
  EXPECT_EQ(parse_seed_flag("18446744073709551615", &error),
            std::optional<std::uint64_t>{~std::uint64_t{0}});
  EXPECT_EQ(parse_seed_flag("18446744073709551616", &error), std::nullopt);
}

TEST(EngineFlagsTest, FaultsTakeNoneOrAChaosPlan) {
  std::string error;
  const auto none = parse_faults_flag("none", &error);
  ASSERT_TRUE(none.has_value());
  EXPECT_FALSE(none->enabled);
  const auto chaos = parse_faults_flag("chaos(seed=7, drop=0.01)", &error);
  ASSERT_TRUE(chaos.has_value());
  EXPECT_TRUE(chaos->enabled);
  EXPECT_EQ(chaos->seed, 7u);
  EXPECT_EQ(parse_faults_flag("chaos(drop=1.5)", &error), std::nullopt);
  EXPECT_EQ(error.rfind("--faults: ", 0), 0u) << error;
  EXPECT_EQ(parse_faults_flag("mayhem(seed=1)", &error), std::nullopt);
  EXPECT_EQ(error.rfind("--faults: ", 0), 0u) << error;
}

}  // namespace
}  // namespace dynsub::harness
