#include "coverfree/coverfree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <unordered_set>
#include <vector>

#include "util/mathx.hpp"

namespace valocal {
namespace {

// p_c(x) mod q over the base-q digits of c, in 128-bit arithmetic: the
// evaluation the library used before its 64-bit fast path.
std::uint64_t reference_poly_eval(const CoverFreeFamily& f,
                                  std::uint64_t color, std::uint64_t x) {
  const std::uint64_t q = f.prime();
  std::uint64_t digits[64];
  for (unsigned i = 0; i < f.degree(); ++i) {
    digits[i] = color % q;
    color /= q;
  }
  std::uint64_t acc = 0;
  for (unsigned i = f.degree(); i-- > 0;)
    acc = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(acc) * x + digits[i]) % q);
  return acc;
}

// The earlier pick_escaping, kept as the oracle: block every point where
// some other polynomial agrees with ours, then take the smallest free
// one.
std::uint64_t reference_pick_escaping(
    const CoverFreeFamily& f, std::uint64_t color,
    const std::vector<std::uint64_t>& others) {
  const std::uint64_t q = f.prime();
  std::unordered_set<std::uint64_t> blocked;
  for (std::uint64_t other : others) {
    if (other == color) continue;
    for (std::uint64_t j = 0; j < q; ++j)
      if (reference_poly_eval(f, other, j) ==
          reference_poly_eval(f, color, j))
        blocked.insert(j);
  }
  for (std::uint64_t j = 0; j < q; ++j)
    if (!blocked.contains(j)) return j * q + reference_poly_eval(f, color, j);
  ADD_FAILURE() << "reference found no escape";
  return 0;
}

// A color other than `color` whose polynomial agrees with p_color at
// point j: random higher digits below `digit_cap` (and below q), with the
// constant digit solved for. Needs degree >= 2.
std::uint64_t colliding_color(const CoverFreeFamily& f, std::uint64_t color,
                              std::uint64_t j, std::uint64_t digit_cap,
                              std::mt19937_64& rng) {
  using u128 = unsigned __int128;
  const std::uint64_t q = f.prime();
  while (true) {
    u128 other = 0, place = q;
    std::uint64_t power = 1, sum = 0;  // j^i and sum of o_i j^i, mod q
    for (unsigned i = 1; i < f.degree(); ++i) {
      const std::uint64_t o = rng() % std::min(q, digit_cap);
      power = static_cast<std::uint64_t>(u128{power} * j % q);
      sum = static_cast<std::uint64_t>((sum + u128{o} * power) % q);
      other += u128{o} * place;
      place *= q;
    }
    other += (reference_poly_eval(f, color, j) + q - sum) % q;
    if (other != color) return static_cast<std::uint64_t>(other);
  }
}

// Ascending scan that stops at the first free point; usable on fields
// far too large for the blocked-set oracle.
std::uint64_t reference_first_escape(
    const CoverFreeFamily& f, std::uint64_t color,
    const std::vector<std::uint64_t>& others) {
  const std::uint64_t q = f.prime();
  for (std::uint64_t j = 0; j < q; ++j) {
    const std::uint64_t own = reference_poly_eval(f, color, j);
    const bool blocked = std::any_of(
        others.begin(), others.end(), [&](std::uint64_t other) {
          return other != color && reference_poly_eval(f, other, j) == own;
        });
    if (!blocked) return j * q + own;
  }
  ADD_FAILURE() << "reference found no escape";
  return 0;
}

TEST(CoverFree, SetsHaveDeclaredSize) {
  const CoverFreeFamily f(100, 3);
  for (std::uint64_t c : {0ULL, 1ULL, 57ULL, 99ULL}) {
    const auto s = f.set_of(c);
    EXPECT_EQ(s.size(), f.set_size());
    for (auto x : s) EXPECT_LT(x, f.ground_size());
    // Elements are distinct (one per evaluation point).
    std::set<std::uint64_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), s.size());
  }
}

TEST(CoverFree, DistinctColorsHaveDistinctSets) {
  const CoverFreeFamily f(64, 2);
  std::set<std::vector<std::uint64_t>> seen;
  for (std::uint64_t c = 0; c < 64; ++c)
    EXPECT_TRUE(seen.insert(f.set_of(c)).second) << c;
}

TEST(CoverFree, PairwiseIntersectionsBounded) {
  // Two degree-<d polynomials agree on at most d-1 points.
  const CoverFreeFamily f(200, 4);
  const auto bound = static_cast<std::size_t>(f.degree() - 1);
  for (std::uint64_t c1 = 0; c1 < 40; ++c1)
    for (std::uint64_t c2 = c1 + 1; c2 < 40; ++c2) {
      const auto s1 = f.set_of(c1);
      const auto s2 = f.set_of(c2);
      std::vector<std::uint64_t> inter;
      std::set_intersection(s1.begin(), s1.end(), s2.begin(), s2.end(),
                            std::back_inserter(inter));
      EXPECT_LE(inter.size(), bound) << c1 << " vs " << c2;
    }
}

TEST(CoverFree, ExhaustiveCoverFreeness) {
  // Brute-force check on a small family: no set is covered by the
  // union of any r = 2 others.
  const std::size_t r = 2;
  const std::uint64_t m = 20;
  const CoverFreeFamily f(m, r);
  for (std::uint64_t c = 0; c < m; ++c) {
    const auto sc = f.set_of(c);
    for (std::uint64_t o1 = 0; o1 < m; ++o1) {
      if (o1 == c) continue;
      for (std::uint64_t o2 = o1 + 1; o2 < m; ++o2) {
        if (o2 == c) continue;
        std::set<std::uint64_t> cover;
        for (auto x : f.set_of(o1)) cover.insert(x);
        for (auto x : f.set_of(o2)) cover.insert(x);
        const bool escaped = std::any_of(
            sc.begin(), sc.end(),
            [&](std::uint64_t x) { return !cover.contains(x); });
        EXPECT_TRUE(escaped) << c << " covered by " << o1 << "," << o2;
      }
    }
  }
}

TEST(CoverFree, PickEscapingAvoidsAllParents) {
  const CoverFreeFamily f(1000, 5);
  std::vector<std::uint64_t> parents{3, 141, 592, 653, 999};
  const std::uint64_t x = f.pick_escaping(42, parents);
  const auto own = f.set_of(42);
  EXPECT_NE(std::find(own.begin(), own.end(), x), own.end());
  for (auto p : parents) {
    const auto sp = f.set_of(p);
    EXPECT_EQ(std::find(sp.begin(), sp.end(), x), sp.end()) << p;
  }
}

TEST(CoverFree, PickEscapingIgnoresOwnColorAmongOthers) {
  const CoverFreeFamily f(50, 3);
  std::vector<std::uint64_t> parents{7, 7, 9};
  EXPECT_NO_FATAL_FAILURE({ (void)f.pick_escaping(7, parents); });
}

TEST(CoverFree, GroundSizeIsSubquadraticForLargeM) {
  // For m = 2^20, r = 8, the polynomial construction must beat the
  // trivial m ground set by orders of magnitude.
  const CoverFreeFamily f(1ULL << 20, 8);
  EXPECT_LT(f.ground_size(), 1ULL << 16);
  EXPECT_GE(ipow_capped(f.prime(), f.degree(), ~0ULL >> 1), 1ULL << 20);
}

TEST(CoverFree, PickEscapingMatchesTheBlockedSetReference) {
  // Random families, colors and parent lists, including repeated
  // parents and parents equal to the own color.
  std::mt19937_64 rng(20181);
  for (int family = 0; family < 60; ++family) {
    const std::uint64_t m = 1 + rng() % (1ULL << 20);
    const std::size_t r = 1 + rng() % 16;
    const CoverFreeFamily f(m, r);
    for (int draw = 0; draw < 40; ++draw) {
      const std::uint64_t color = rng() % m;
      std::vector<std::uint64_t> others(rng() % (r + 1));
      for (auto& o : others) {
        switch (rng() % 4) {
          case 0: o = color; break;
          case 1: o = others.front(); break;  // duplicate (or unset: 0)
          default: o = rng() % m;
        }
      }
      ASSERT_EQ(f.pick_escaping(color, others),
                reference_pick_escaping(f, color, others))
          << "m=" << m << " r=" << r << " color=" << color;
    }
  }
}

TEST(CoverFree, PickEscapingSkipsEveryCollidingPoint) {
  // Parents built to agree with the own polynomial at points 0..k-1
  // push the escape to point k or beyond.
  const CoverFreeFamily f(1000, 6);
  const std::uint64_t q = f.prime();
  ASSERT_GE(f.degree(), 2u);
  std::mt19937_64 rng(7);
  for (int draw = 0; draw < 300; ++draw) {
    const std::uint64_t color = rng() % f.num_colors();
    std::vector<std::uint64_t> others;
    const std::size_t k = rng() % (f.cover() + 1);
    for (std::uint64_t j = 0; j < k; ++j)
      others.push_back(colliding_color(f, color, j, q, rng));
    const std::uint64_t x = f.pick_escaping(color, others);
    EXPECT_GE(x / q, k) << "color=" << color;
    EXPECT_EQ(x, reference_pick_escaping(f, color, others));
  }
}

TEST(CoverFree, PickEscapingOnFieldsBeyond32Bits) {
  // A cover this large forces q > r >= 2^33, past the 64-bit Horner
  // bound, so the 128-bit path runs.
  const CoverFreeFamily f(1ULL << 40, std::size_t{1} << 33);
  const std::uint64_t q = f.prime();
  ASSERT_GE(q, 1ULL << 32);
  ASSERT_GE(f.degree(), 2u);
  std::mt19937_64 rng(33);
  for (int draw = 0; draw < 300; ++draw) {
    const std::uint64_t color = rng() % f.num_colors();
    std::vector<std::uint64_t> others;
    const std::size_t k = rng() % 12;
    for (std::uint64_t j = 0; j < k; ++j) {
      // A parent colliding at point j (small high digits keep it within
      // 64 bits), or an unrelated random color.
      others.push_back(rng() % 3 == 0 ? rng() % f.num_colors()
                                      : colliding_color(f, color, j, 100, rng));
    }
    if (rng() % 4 == 0) others.push_back(color);
    ASSERT_EQ(f.pick_escaping(color, others),
              reference_first_escape(f, color, others))
        << "color=" << color;
  }
}

TEST(ArbLinialSchedule, StrictlyDecreasingToFixedPoint) {
  const auto seq = arb_linial_schedule(1ULL << 20, 6);
  ASSERT_GE(seq.size(), 2u);
  for (std::size_t i = 1; i < seq.size(); ++i)
    EXPECT_LT(seq[i], seq[i - 1]);
  // Number of steps is O(log* p0) — generous constant.
  EXPECT_LE(seq.size(), 12u);
  // Fixed point is poly(r): small and essentially independent of p0.
  const auto seq2 = arb_linial_schedule(1ULL << 40, 6);
  EXPECT_LE(seq.back(), 5000u);
  EXPECT_LE(seq2.back(), 5000u);
}

}  // namespace
}  // namespace valocal
