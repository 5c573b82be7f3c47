#include "algo/coloring_a2.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/mathx.hpp"
#include "util/scratch.hpp"
#include "validate/validate.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

namespace {

/// Partition rounds needed to shrink the active population below
/// n / log n: t with ((2+eps)/2)^t >= log n.
std::size_t phase1_rounds(std::size_t n, double eps) {
  if (n < 4) return 1;
  const double decay = std::log2((2.0 + eps) / 2.0);
  const double loglog =
      std::log2(std::max(2.0, std::log2(static_cast<double>(n))));
  return std::max<std::size_t>(1,
                               static_cast<std::size_t>(
                                   std::ceil(loglog / decay)));
}

/// Upper bound on the total partition rounds: log_{(2+eps)/2} n + 2.
std::size_t total_rounds(std::size_t n, double eps) {
  if (n < 2) return 1;
  const double decay = std::log2((2.0 + eps) / 2.0);
  return static_cast<std::size_t>(
             std::ceil(std::log2(static_cast<double>(n)) / decay)) +
         2;
}

}  // namespace

ColoringA2Algo::ColoringA2Algo(std::size_t num_vertices,
                               PartitionParams params)
    : params_(params), num_vertices_(num_vertices) {
  params_.check();
  ell_ = total_rounds(num_vertices, params_.epsilon);
  t1_ = std::min(phase1_rounds(num_vertices, params_.epsilon), ell_);
  ladder_ = std::make_shared<ArbLinialLadder>(
      std::max<std::uint64_t>(1, num_vertices), params_.threshold());
  steps_ = ladder_->num_steps();
}

std::size_t ColoringA2Algo::palette_bound() const {
  return 2 * static_cast<std::size_t>(
                 steps_ > 0 ? ladder_->final_colors()
                            : std::max<std::size_t>(1, num_vertices_));
}

bool ColoringA2Algo::ladder_round(Vertex v, std::size_t step_idx,
                                  int segment,
                                  const RoundView<State>& view,
                                  State& next) const {
  const auto& self = view.self();
  if (!in_segment(self.hset, segment) || self.hset == 0) return false;

  const std::size_t last = steps_ > 0 ? steps_ - 1 : 0;
  std::uint64_t new_color = self.lad_color;
  if (steps_ > 0) {
    // Parents: same-segment neighbors with larger (hset, ID) — out-degree
    // at most A by the H-partition property.
    auto& parents = thread_scratch<std::uint64_t>();
    for (std::size_t i = 0; i < view.degree(); ++i) {
      const auto& nbr = view.neighbor_state(i);
      if (!in_segment(nbr.hset, segment) || nbr.hset == 0) continue;
      const Vertex u = view.neighbor(i);
      if (nbr.hset > self.hset ||
          (nbr.hset == self.hset && u > v))
        parents.push_back(nbr.lad_color);
    }
    new_color = ladder_->apply_step(step_idx, self.lad_color, parents);
  }
  next.lad_color = new_color;
  if (step_idx == last) {
    next.final_color =
        static_cast<std::int64_t>(2 * new_color + (segment == 2 ? 1 : 0));
    return true;
  }
  return false;
}

bool ColoringA2Algo::step(Vertex v, std::size_t round,
                          const RoundView<State>& view, State& next,
                          Xoshiro256&) const {
  const std::size_t steps = std::max<std::size_t>(1, steps_);
  const auto& self = view.self();

  if (round <= t1_) {
    // Phase-1 partition rounds.
    if (self.hset == 0)
      next.hset = partition_try_join(round, view, params_.threshold());
    return false;
  }
  if (round <= t1_ + steps) {
    return ladder_round(v, round - t1_ - 1, /*segment=*/1, view, next);
  }
  const std::size_t resume_end = t1_ + steps + (ell_ - t1_);
  if (round <= resume_end) {
    // Partition resumes; the H-set index keeps counting partition
    // rounds, not engine rounds.
    if (self.hset == 0)
      next.hset = partition_try_join(round - steps, view,
                                     params_.threshold());
    return false;
  }
  VALOCAL_ENSURE(round <= resume_end + steps,
                 "coloring_a2 schedule exhausted with active vertices");
  return ladder_round(v, round - resume_end - 1, /*segment=*/2, view,
                      next);
}

ColoringResult compute_coloring_a2(const Graph& g,
                                   PartitionParams params) {
  VALOCAL_TRACE_PHASE("a2");
  ColoringA2Algo algo(g.num_vertices(), params);
  auto run = run_local(g, algo);

  ColoringResult result;
  result.color = std::move(run.outputs);
  result.num_colors = count_colors(result.color);
  result.palette_bound = algo.palette_bound();
  result.metrics = std::move(run.metrics);
  return result;
}


VALOCAL_ALGO_SPEC(a2) {
  using namespace registry;
  AlgoSpec s = spec_base("a2", "a2", Problem::kVertexColoring,
                         /*deterministic=*/true,
                         {Param::kArboricity, Param::kEpsilon},
                         {{Measure::kVertexAveraged, "O(loglog n)"},
                          {Measure::kWorstCase, "O(log n)"}},
                         "Thm 7.6");
  s.rows = {{.section = BenchSection::kTable1Adversarial,
             .order = 7,
             .row = "Thm7.6 O(a^2)",
             .algo_label = "coloring_a2"}};
  s.run = [](const Graph& g, const AlgoParams& p) {
    return coloring_outcome(g, "a2",
                            compute_coloring_a2(g, p.partition()));
  };
  return s;
}

}  // namespace valocal
