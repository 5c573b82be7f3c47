// Golden-checksum oracle for run_local's frontier. The engine has one
// frontier representation — the word-granular awake bitset, with the
// wake calendar setting bits back for parked vertices — and one state
// layout (double-buffered AoS State arrays). These checksums were
// recorded on the engine that still carried the dense/sparse/calendar
// frontier switch and the opt-in SoA state packing; every
// threads x grain x sleep-hint combination of the single engine must
// reproduce them bit for bit, so deleting that machinery changed no
// output, r(v), active_per_round, or calendar schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "algo/hset_composition.hpp"
#include "algo/partition.hpp"
#include "algo/rings.hpp"
#include "baseline/luby_mis.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "sim/network.hpp"

namespace valocal {
namespace {

// Deterministic wait-heavy workload (mirrors bench_common's): a
// composition whose sub terminates after 2 of 24 budgeted sub-rounds,
// so unjoined vertices idle through most of every block — the regime
// where sleep hints park most of the graph.
struct IdleSub {
  struct State {
    std::uint64_t x = 1;
  };
  using Output = std::uint64_t;

  std::size_t sub_rounds() const { return 24; }

  bool step(Vertex v, std::size_t t, const SubView<State>& view,
            State& next, Xoshiro256&) const {
    std::uint64_t mix = next.x * 0x9e3779b97f4a7c15ULL + v + t;
    for (std::size_t i = 0; i < view.degree(); ++i)
      if (view.same_set(i)) mix += view.neighbor_state(i).x;
    next.x = mix;
    return t >= 1;
  }

  Output output(Vertex, const State& s) const { return s.x; }

  static constexpr bool uses_rng = false;
};

// FNV-1a over each value widened to 64 bits (order-sensitive).
struct Fnv64 {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  template <class T>
  void add_all(const std::vector<T>& values) {
    add(values.size());
    for (const T& x : values) add(static_cast<std::uint64_t>(x));
  }
};

/// The semantic triple every engine setting must agree on.
template <class Outputs>
std::uint64_t core_checksum(const Outputs& outputs, const Metrics& m) {
  Fnv64 f;
  f.add_all(outputs);
  f.add_all(m.rounds);
  f.add_all(m.active_per_round);
  return f.h;
}

std::uint64_t parked_checksum(const Metrics& m) {
  Fnv64 f;
  f.add_all(m.parked_per_round);
  return f.h;
}

std::string hex(std::uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

/// Recorded checksums of one workload: the semantic triple, and the
/// calendar's parked_per_round under sleep hints (the checksum of an
/// empty series for algorithms the engine never parks).
struct Golden {
  std::uint64_t core;
  std::uint64_t parked_hinted;
};

constexpr std::uint64_t kEmptyParked = 0xa8c7f832281a39c5ULL;

/// Runs the full threads x grain x hints grid and checks every run
/// against the recorded checksums.
template <class A>
void expect_golden(const Graph& g, const A& algo, std::uint64_t seed,
                   const Golden& golden) {
  for (const SleepHints hints : {SleepHints::kOff, SleepHints::kOn}) {
    for (const std::size_t threads : {1u, 4u}) {
      for (const std::size_t grain : {0u, 7u}) {
        const auto run = run_local(g, algo,
                                   {.seed = seed,
                                    .num_threads = threads,
                                    .grain = grain,
                                    .sleep_hints = hints});
        const bool on = hints == SleepHints::kOn;
        const std::string what = "threads=" + std::to_string(threads) +
                                 " grain=" + std::to_string(grain) +
                                 " hints=" + (on ? "on" : "off");
        EXPECT_EQ(hex(core_checksum(run.outputs, run.metrics)),
                  hex(golden.core))
            << what;
        EXPECT_EQ(hex(parked_checksum(run.metrics)),
                  hex(on ? golden.parked_hinted : kEmptyParked))
            << what;
      }
    }
  }
}

TEST(FrontierGolden, EmptySeriesChecksumIsTheSentinel) {
  EXPECT_EQ(hex(parked_checksum(Metrics{})), hex(kEmptyParked));
}

TEST(FrontierGolden, RingColoring3OnRing2048) {
  const Graph g = gen::ring(2048);
  const RingColoring3Algo algo(g.num_vertices());
  expect_golden(g, algo, 0x5eed,
                {0x64fc428206d9d33aULL, 0x46d87e2c60e37022ULL});
}

TEST(FrontierGolden, LubyOnRmat12x8) {
  // RNG-drawing algorithm: matching checksums prove the per-vertex
  // streams advance identically under every schedule.
  const Graph g = gen::rmat(gen::parse_rmat_spec("12x8", 7));
  const LubyMisAlgo algo;
  expect_golden(g, algo, 1, {0x23ac307fc076cf91ULL, kEmptyParked});
  expect_golden(g, algo, 4242, {0x1754d344369d9d1aULL, kEmptyParked});
}

TEST(FrontierGolden, WaitHeavyCompositionOnDaryTree1500) {
  // Hinted: with hints on most of each block sleeps in the calendar,
  // so parked_per_round pins the wake schedule as well.
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  const Graph g = gen::dary_tree(1500, params.threshold() + 1);
  const HSetComposition<IdleSub> algo(g.num_vertices(), params,
                                      IdleSub{});
  expect_golden(g, algo, 0x5eed,
                {0x8169b1471884090aULL, 0x3214c6a7358c5105ULL});
}

}  // namespace
}  // namespace valocal
