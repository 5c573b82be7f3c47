#include "algo/kw_reduce.hpp"

#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "algo/deg_plus_one_plan.hpp"
#include "graph/generators.hpp"
#include "validate/validate.hpp"

namespace valocal {
namespace {

// Centralized synchronous simulation of a KW plan: every vertex runs
// every round (double-buffered), starting from the given proper colors.
std::vector<std::uint64_t> simulate_kw(const Graph& g,
                                       const KwReduction& kw,
                                       std::vector<std::uint64_t> color) {
  for (std::size_t t = 0; t < kw.num_rounds(); ++t) {
    std::vector<std::uint64_t> next(color.size());
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      std::vector<std::uint64_t> nbrs;
      for (Vertex u : g.neighbors(v)) nbrs.push_back(color[u]);
      next[v] = kw.advance(t, color[v], nbrs);
    }
    color = std::move(next);
  }
  return color;
}

std::vector<int> to_int(const std::vector<std::uint64_t>& c) {
  return {c.begin(), c.end()};
}

TEST(KwReduction, NoRoundsWhenAlreadySmall) {
  const KwReduction kw(4, 5);
  EXPECT_EQ(kw.num_rounds(), 0u);
  EXPECT_EQ(kw.final_palette(), 4u);
}

TEST(KwReduction, RoundCountIsKLogMoverK) {
  const std::size_t k = 7;
  const KwReduction kw(1024, k);
  // Each halving phase costs k+1 rounds; ~log2(1024/8) = 7 phases.
  EXPECT_LE(kw.num_rounds(), (k + 1) * 9);
  EXPECT_GE(kw.num_rounds(), (k + 1) * 3);
}

TEST(KwReduction, ReducesIdsToDeltaPlusOneOnRing) {
  const Graph g = gen::ring(100);
  const KwReduction kw(100, g.max_degree());
  std::vector<std::uint64_t> ids(100);
  for (Vertex v = 0; v < 100; ++v) ids[v] = v;
  const auto final = simulate_kw(g, kw, ids);
  const auto color = to_int(final);
  EXPECT_TRUE(is_proper_coloring(g, color));
  for (auto c : final) EXPECT_LT(c, g.max_degree() + 1);
}

TEST(KwReduction, ProperAfterEveryRound) {
  const Graph g = gen::erdos_renyi(150, 6.0, 2);
  const std::size_t k = g.max_degree();
  const KwReduction kw(150, k);
  std::vector<std::uint64_t> color(150);
  for (Vertex v = 0; v < 150; ++v) color[v] = v;
  for (std::size_t t = 0; t < kw.num_rounds(); ++t) {
    std::vector<std::uint64_t> next(color.size());
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      std::vector<std::uint64_t> nbrs;
      for (Vertex u : g.neighbors(v)) nbrs.push_back(color[u]);
      next[v] = kw.advance(t, color[v], nbrs);
    }
    color = std::move(next);
    EXPECT_TRUE(is_proper_coloring(g, to_int(color))) << "round " << t;
  }
  for (auto c : color) EXPECT_LE(c, k);
}

class KwSweep : public ::testing::TestWithParam<
                    std::tuple<std::size_t, double, std::uint64_t>> {};

TEST_P(KwSweep, AlwaysProperAndTight) {
  const auto [n, avg_deg, seed] = GetParam();
  const Graph g = gen::erdos_renyi(n, avg_deg, seed);
  const std::size_t k = std::max<std::size_t>(1, g.max_degree());
  const KwReduction kw(n, k);
  std::vector<std::uint64_t> ids(n);
  for (Vertex v = 0; v < n; ++v) ids[v] = v;
  const auto final = simulate_kw(g, kw, ids);
  EXPECT_TRUE(is_proper_coloring(g, to_int(final)));
  for (auto c : final) EXPECT_LE(c, k);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KwSweep,
    ::testing::Combine(::testing::Values(50, 200, 800),
                       ::testing::Values(2.0, 5.0, 10.0),
                       ::testing::Values(1, 2, 3)));

TEST(DegPlusOnePlan, ColorsArbitraryGraphWithDeltaPlusOne) {
  for (std::uint64_t seed : {1ULL, 7ULL}) {
    const Graph g = gen::erdos_renyi(300, 7.0, seed);
    const std::size_t d = std::max<std::size_t>(1, g.max_degree());
    const DegPlusOnePlan plan(300, d);
    std::vector<std::uint64_t> color(300);
    for (Vertex v = 0; v < 300; ++v) color[v] = v;
    for (std::size_t t = 0; t < plan.num_rounds(); ++t) {
      std::vector<std::uint64_t> next(color.size());
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        std::vector<std::uint64_t> nbrs;
        for (Vertex u : g.neighbors(v)) nbrs.push_back(color[u]);
        next[v] = plan.advance(t, color[v], nbrs);
      }
      color = std::move(next);
    }
    EXPECT_TRUE(is_proper_coloring(g, to_int(color)));
    for (auto c : color) EXPECT_LT(c, plan.palette());
  }
}

// Random neighbor colors for a vertex of degree <= k, drawn from a
// range that overlaps every block.
std::vector<std::uint64_t> random_neighbors(std::size_t k,
                                            std::uint64_t range,
                                            std::mt19937_64& rng) {
  std::vector<std::uint64_t> nbrs(rng() % (k + 1));
  for (auto& c : nbrs) c = rng() % range;
  return nbrs;
}

TEST(KwReduction, SkippedNeighborsNeverChangeTheColor) {
  // Wherever needs_neighbors(t, own) is false, advance must ignore the
  // list: random neighbors and an empty list give the same color.
  // Colors follow a vertex's trajectory so each stays in its round's
  // palette.
  std::mt19937_64 rng(99);
  for (const auto& [m0, k] :
       {std::pair<std::uint64_t, std::size_t>{50, 3}, {1000, 4},
        {257, 1}, {5000, 16}, {64, 31}}) {
    const KwReduction kw(m0, k);
    std::size_t skipped = 0;
    for (int vertex = 0; vertex < 200; ++vertex) {
      std::uint64_t color = rng() % m0;
      for (std::size_t t = 0; t < kw.num_rounds(); ++t) {
        const auto nbrs = random_neighbors(k, 2 * m0, rng);
        const std::uint64_t next = kw.advance(t, color, nbrs);
        if (!kw.needs_neighbors(t, color)) {
          ++skipped;
          ASSERT_EQ(next, kw.advance(t, color, {}))
              << "m0=" << m0 << " k=" << k << " t=" << t;
        }
        color = next;
      }
    }
    EXPECT_GT(skipped, 0u) << "m0=" << m0 << " k=" << k;
  }
}

TEST(KwReductionDeathTest, OutOfRangeRoundStillReachesTheRangeCheck) {
  // needs_neighbors answers true past the last round, so a caller that
  // asks first still calls advance and hits its range check.
  const KwReduction kw(1000, 4);
  ASSERT_TRUE(kw.needs_neighbors(kw.num_rounds(), 0));
  EXPECT_DEATH((void)kw.advance(kw.num_rounds(), 0, {}),
               "round index out of range");
}

TEST(DegPlusOnePlan, SkippedNeighborsNeverChangeTheColor) {
  std::mt19937_64 rng(4242);
  for (const auto& [ids, d] :
       {std::pair<std::uint64_t, std::size_t>{1 << 12, 3}, {1 << 17, 7},
        {300, 12}, {5, 2}, {1, 1}}) {
    const DegPlusOnePlan plan(ids, d);
    for (int vertex = 0; vertex < 200; ++vertex) {
      std::uint64_t color = rng() % ids;
      ASSERT_TRUE(plan.num_rounds() == 0 || plan.needs_neighbors(0, color));
      for (std::size_t t = 0; t < plan.num_rounds(); ++t) {
        const auto nbrs = random_neighbors(d, 2 * ids, rng);
        const std::uint64_t next = plan.advance(t, color, nbrs);
        if (!plan.needs_neighbors(t, color)) {
          ASSERT_EQ(next, plan.advance(t, color, {}))
              << "ids=" << ids << " d=" << d << " t=" << t;
        }
        color = next;
      }
    }
  }
}

TEST(DegPlusOnePlan, FirstRoundAlwaysNeedsNeighbors) {
  // Round 0 gathers for every vertex, so the degree-bound check sees
  // each full list once per invocation — also when the ladder is empty
  // and round 0 is already a KW round.
  ASSERT_EQ(ArbLinialLadder(50, 8).num_steps(), 0u);
  for (const auto& [ids, d] :
       {std::pair<std::uint64_t, std::size_t>{1 << 16, 3}, {50, 8},
        {30, 8}}) {
    const DegPlusOnePlan plan(ids, d);
    ASSERT_GT(plan.num_rounds(), 0u);
    for (std::uint64_t own = 0; own < std::min<std::uint64_t>(ids, 4096);
         ++own)
      ASSERT_TRUE(plan.needs_neighbors(0, own)) << own;
  }
}

TEST(DegPlusOnePlanDeathTest, FirstRoundStillChecksTheDegreeBound) {
  const DegPlusOnePlan plan(1 << 12, 3);
  const std::vector<std::uint64_t> too_many{1, 2, 3, 4};
  EXPECT_DEATH((void)plan.advance(0, 0, too_many), "degree bound violated");
}

TEST(DegPlusOnePlan, RoundCountScalesWithDNotN) {
  // log* n term only: for fixed D, doubling n barely changes rounds.
  const DegPlusOnePlan small(1 << 10, 8);
  const DegPlusOnePlan large(1 << 20, 8);
  EXPECT_LE(large.num_rounds(), small.num_rounds() + 4);
}

}  // namespace
}  // namespace valocal
