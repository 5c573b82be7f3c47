// Wake-scheduled engine contract tests: for every hinted algorithm,
// turning sleep hints on must leave the run byte-identical to the
// unhinted engine — outputs, r(v), active_per_round, and the semantic
// trace event stream — for every threads x grain combination, while
// Metrics::skipped_steps records the simulator work actually saved.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "algo/coloring_ka.hpp"
#include "algo/coloring_ka2.hpp"
#include "algo/hset_composition.hpp"
#include "algo/partition.hpp"
#include "algo/rings.hpp"
#include "graph/generators.hpp"
#include "sim/network.hpp"
#include "sim/wake_calendar.hpp"
#include "trace/trace.hpp"

namespace valocal {
namespace {

// Deterministic per-H-set subroutine: a fixed budget of same-set
// mixing rounds. Every output bit depends on every preceding round's
// neighborhood, so a single mis-skipped step changes the bytes.
struct MixSub {
  struct State {
    std::uint64_t x = 1;
  };
  using Output = std::uint64_t;

  std::size_t budget = 6;

  std::size_t sub_rounds() const { return budget; }

  bool step(Vertex v, std::size_t t, const SubView<State>& view,
            State& next, Xoshiro256&) const {
    std::uint64_t mix = next.x * 0x9e3779b97f4a7c15ULL + v + t;
    for (std::size_t i = 0; i < view.degree(); ++i)
      if (view.same_set(i)) mix += view.neighbor_state(i).x;
    next.x = mix;
    return false;
  }

  Output output(Vertex, const State& s) const { return s.x; }

  static constexpr bool uses_rng = false;
};

// RNG-drawing subroutine with coin-flip early termination: the final
// bytes encode the exact per-vertex RNG stream positions, so wake
// scheduling must preserve the streams bit-for-bit to pass.
struct CoinSub {
  struct State {
    std::uint64_t x = 0;
  };
  using Output = std::uint64_t;

  std::size_t budget = 8;

  std::size_t sub_rounds() const { return budget; }

  bool step(Vertex, std::size_t, const SubView<State>& view, State& next,
            Xoshiro256& rng) const {
    std::uint64_t mix = next.x;
    for (std::size_t i = 0; i < view.degree(); ++i)
      if (view.same_set(i))
        mix = mix * 0x9e3779b97f4a7c15ULL + view.neighbor_state(i).x;
    next.x = mix ^ rng();
    return (rng() & 3) == 0;  // early exit w.p. 1/4 per sub-round
  }

  Output output(Vertex, const State& s) const { return s.x; }
};

// The trait plumbing the engine dispatches on, pinned at compile time.
static_assert(WakeHinted<HSetComposition<MixSub>>);
static_assert(WakeHinted<HSetComposition<CoinSub>>);
static_assert(WakeHinted<ColoringKaAlgo>);
static_assert(WakeHinted<ColoringKa2Algo>);
static_assert(WakeHinted<RingColoring3Algo>);
static_assert(WakeHinted<PartitionAlgo>);
static_assert(!WakeHinted<LeaderElectionAlgo>);
static_assert(!algorithm_uses_rng<HSetComposition<MixSub>>);
static_assert(algorithm_uses_rng<HSetComposition<CoinSub>>);
static_assert(!algorithm_uses_rng<ColoringKaAlgo>);

/// Serializes the SEMANTIC trace fields (everything the determinism
/// contract covers; no wall-clock, no worker load, no asleep split):
/// log equality means hinted and unhinted engines are observationally
/// identical to any tooling built on the trace layer.
struct SemanticLog final : trace::TraceSink {
  std::ostringstream log;

  void on_run_begin(const trace::RunInfo& info,
                    std::span<const char* const> phases) override {
    log << "begin " << info.engine << " n=" << info.num_vertices
        << " seed=" << info.seed << " phases=" << phases.size() << "\n";
  }
  void on_round(const trace::RoundEvent& e) override {
    log << "round " << e.round << " active=" << e.active
        << " charged=" << e.charged << " committed=" << e.committed
        << " terminated=" << e.terminated << " vol=" << e.volume_bytes;
    for (std::size_t p : e.phase_charged) log << " p" << p;
    log << "\n";
  }
  void on_run_end(const trace::RunEndEvent& e) override {
    log << "end rounds=" << e.rounds << " sum=" << e.round_sum
        << " wc=" << e.worst_case << "\n";
  }
};

template <class A>
std::string traced_log(const Graph& g, const A& algo, RunOptions opt) {
  SemanticLog log;
  {
    trace::ScopedSink scoped(&log);
    (void)run_local(g, algo, opt);
  }
  return log.log.str();
}

/// The core equivalence sweep: unhinted reference vs hinted runs for
/// threads {1,2,4} x grain {1,5,64}. Returns the hinted runs'
/// skipped_steps (identical across all combinations by construction).
template <class A>
std::uint64_t expect_hint_equivalence(const Graph& g, const A& algo,
                                      std::uint64_t seed) {
  const RunOptions off{.seed = seed, .sleep_hints = SleepHints::kOff};
  const auto ref = run_local(g, algo, off);
  EXPECT_EQ(ref.metrics.skipped_steps, 0u)
      << "hints off must never skip a step";
  const std::string ref_log = traced_log(g, algo, off);
  EXPECT_FALSE(ref_log.empty());

  std::uint64_t skipped = 0;
  bool first = true;
  for (std::size_t threads : {1u, 2u, 4u}) {
    for (std::size_t grain : {1u, 5u, 64u}) {
      const RunOptions on{.seed = seed,
                          .num_threads = threads,
                          .grain = grain,
                          .sleep_hints = SleepHints::kOn};
      const auto hinted = run_local(g, algo, on);
      const std::string what = "threads=" + std::to_string(threads) +
                               " grain=" + std::to_string(grain);
      EXPECT_EQ(hinted.outputs, ref.outputs) << what;
      EXPECT_EQ(hinted.metrics.rounds, ref.metrics.rounds) << what;
      EXPECT_EQ(hinted.metrics.active_per_round,
                ref.metrics.active_per_round)
          << what;
      EXPECT_EQ(traced_log(g, algo, on), ref_log) << what;
      if (first) {
        skipped = hinted.metrics.skipped_steps;
        first = false;
      } else {
        EXPECT_EQ(hinted.metrics.skipped_steps, skipped)
            << what << ": skipped_steps must be schedule-independent";
      }
    }
  }
  return skipped;
}

TEST(WakeEngine, CompositionWithDeterministicSubIsByteIdentical) {
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  for (const Graph& g :
       {gen::dary_tree(1500, 4), gen::forest_union(900, 2, 11)}) {
    const HSetComposition<MixSub> algo(g.num_vertices(), params,
                                       MixSub{});
    const auto skipped = expect_hint_equivalence(g, algo, 0x5eed);
    EXPECT_GT(skipped, 0u)
        << "composition blocks must actually park idle vertices";
  }
}

TEST(WakeEngine, CompositionWithRngSubPreservesStreamsAcrossSeeds) {
  const PartitionParams params{.arboricity = 2, .epsilon = 1.0};
  const Graph g = gen::forest_union(700, 2, 29);
  const HSetComposition<CoinSub> algo(g.num_vertices(), params,
                                      CoinSub{});
  for (std::uint64_t seed : {1u, 77u, 4242u, 999983u}) {
    const auto skipped = expect_hint_equivalence(g, algo, seed);
    EXPECT_GT(skipped, 0u) << "seed=" << seed;
  }
}

TEST(WakeEngine, ColoringKaIsByteIdentical) {
  const PartitionParams params{.arboricity = 2, .epsilon = 1.0};
  const Graph g = gen::forest_union(800, 2, 5);
  const ColoringKaAlgo algo(g.num_vertices(), params, 2);
  const auto skipped = expect_hint_equivalence(g, algo, 0x5eed);
  EXPECT_GT(skipped, 0u);
}

TEST(WakeEngine, ColoringKa2IsByteIdentical) {
  const PartitionParams params{.arboricity = 2, .epsilon = 1.0};
  const Graph g = gen::forest_union(800, 2, 13);
  const ColoringKa2Algo algo(g.num_vertices(), params, 2);
  const auto skipped = expect_hint_equivalence(g, algo, 0x5eed);
  EXPECT_GT(skipped, 0u);
}

TEST(WakeEngine, RingColoring3IsByteIdentical) {
  const Graph g = gen::ring(512);
  const RingColoring3Algo algo(g.num_vertices());
  // Colors 0..2 sleep through the retirement slots, so some vertex
  // parks in every non-degenerate run.
  const auto skipped = expect_hint_equivalence(g, algo, 0x5eed);
  EXPECT_GT(skipped, 0u);
}

TEST(WakeEngine, TrivialHintsNeverPark) {
  // Procedure Partition's hint is necessarily round + 1 (the join
  // decision is data-dependent every round): the hinted path must run
  // with an empty calendar and still be byte-identical.
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  const Graph g = gen::dary_tree(1200, 4);
  const PartitionAlgo algo(params);
  const auto skipped = expect_hint_equivalence(g, algo, 0x5eed);
  EXPECT_EQ(skipped, 0u);
}

TEST(WakeEngine, ProcessWideDefaultIsInheritedAndOverridable) {
  const PartitionParams params{.arboricity = 1, .epsilon = 1.0};
  const Graph g = gen::dary_tree(600, 4);
  const HSetComposition<MixSub> algo(g.num_vertices(), params, MixSub{});

  const auto off = run_local(g, algo, {.sleep_hints = SleepHints::kOff});
  set_engine_sleep_hints(true);
  const auto inherited = run_local(g, algo, {});  // kInherit
  const auto forced_off =
      run_local(g, algo, {.sleep_hints = SleepHints::kOff});
  set_engine_sleep_hints(false);
  const auto back_off = run_local(g, algo, {});  // kInherit, now off

  EXPECT_GT(inherited.metrics.skipped_steps, 0u);
  EXPECT_EQ(forced_off.metrics.skipped_steps, 0u);
  EXPECT_EQ(back_off.metrics.skipped_steps, 0u);
  EXPECT_EQ(inherited.outputs, off.outputs);
  EXPECT_EQ(inherited.metrics.rounds, off.metrics.rounds);
  EXPECT_EQ(forced_off.outputs, off.outputs);
}

TEST(WakeEngine, ToggleIsInertForUnhintedAlgorithms) {
  // LeaderElectionAlgo declares no next_wake: kOn must compile down to
  // the plain engine (calendar never consulted, nothing skipped).
  const Graph g = gen::ring(64);
  const LeaderElectionAlgo algo;
  const auto off = run_local(g, algo, {.sleep_hints = SleepHints::kOff});
  const auto on = run_local(g, algo, {.sleep_hints = SleepHints::kOn});
  EXPECT_EQ(on.outputs, off.outputs);
  EXPECT_EQ(on.metrics.rounds, off.metrics.rounds);
  EXPECT_EQ(on.metrics.active_per_round, off.metrics.active_per_round);
  EXPECT_EQ(on.metrics.skipped_steps, 0u);
}

TEST(WakeCalendar, PopsBucketsAndTracksSleepers) {
  WakeCalendar cal;
  cal.reset(1);
  EXPECT_EQ(cal.sleeping(), 0u);

  cal.schedule(9, 3);
  cal.schedule(2, 3);
  cal.schedule(5, 2);
  cal.schedule(7, 3);
  EXPECT_EQ(cal.sleeping(), 4u);

  std::size_t visited = 0;
  cal.for_each_sleeping([&](Vertex) { ++visited; });
  EXPECT_EQ(visited, 4u);

  EXPECT_TRUE(cal.take(1).empty());
  EXPECT_EQ(cal.take(2), (std::vector<Vertex>{5}));
  EXPECT_EQ(cal.sleeping(), 3u);
  // A bucket pops in no particular order: compare the sets.
  const auto& third = cal.take(3);
  EXPECT_EQ(std::set<Vertex>(third.begin(), third.end()),
            (std::set<Vertex>{2, 7, 9}));
  EXPECT_EQ(third.size(), 3u);
  EXPECT_EQ(cal.sleeping(), 0u);
  EXPECT_TRUE(cal.take(4).empty());
}

TEST(WakeCalendar, CompactionKeepsLongRunsBounded) {
  // A long run with a short wake horizon: every round parks one vertex
  // two rounds out. Compaction must keep this correct indefinitely.
  WakeCalendar cal;
  cal.reset(1);
  for (std::size_t round = 1; round <= 1000; ++round) {
    const auto& woken = cal.take(round);
    if (round > 2) {
      ASSERT_EQ(woken.size(), 1u) << "round " << round;
      EXPECT_EQ(woken[0], static_cast<Vertex>(round - 2));
    }
    cal.schedule(static_cast<Vertex>(round), round + 2);
  }
  EXPECT_EQ(cal.sleeping(), 2u);
}

TEST(WakeCalendar, InterleavedWavesPopEveryVertexOnce) {
  // Several scheduling rounds target the same buckets. Each bucket must
  // pop exactly the vertices scheduled into it, each once, in any
  // order.
  WakeCalendar cal;
  cal.reset(1);
  const std::size_t waves = 5, span = 7, n = 200;
  for (std::size_t w = 0; w < waves; ++w)
    for (Vertex v = static_cast<Vertex>(w); v < n;
         v += static_cast<Vertex>(waves))
      cal.schedule(v, 2 + (v % span));
  EXPECT_EQ(cal.sleeping(), n);

  std::vector<bool> seen(n, false);
  for (std::size_t round = 1; round <= 1 + span; ++round) {
    const auto& woken = cal.take(round);
    for (const Vertex v : woken) {
      EXPECT_EQ(v % span, round - 2) << "vertex in wrong bucket";
      EXPECT_FALSE(seen[v]) << "vertex popped twice";
      seen[v] = true;
    }
  }
  EXPECT_EQ(cal.sleeping(), 0u);
  for (Vertex v = 0; v < n; ++v) EXPECT_TRUE(seen[v]) << "lost " << v;
}

TEST(WakeCalendar, ResetClearsPendingWakes) {
  WakeCalendar cal;
  cal.reset(1);
  cal.schedule(1, 5);
  cal.schedule(2, 9);
  cal.reset(1);
  EXPECT_EQ(cal.sleeping(), 0u);
  for (std::size_t round = 1; round <= 10; ++round)
    EXPECT_TRUE(cal.take(round).empty()) << "round " << round;
}

}  // namespace
}  // namespace valocal
