#include "baseline/be08_arb_color.hpp"

#include <algorithm>
#include <vector>

#include "algo/segmentation.hpp"
#include "util/assertx.hpp"
#include "util/scratch.hpp"
#include "validate/validate.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

Be08ArbColorAlgo::Be08ArbColorAlgo(std::size_t num_vertices,
                                   PartitionParams params)
    : params_(params) {
  params_.check();
  ell_ = partition_round_bound(num_vertices, params_.epsilon);
  ladder_ = std::make_shared<ArbLinialLadder>(
      std::max<std::uint64_t>(1, num_vertices), params_.threshold());
  ladder_steps_ = ladder_->num_steps();
  const std::uint64_t aux_palette =
      ladder_steps_ > 0 ? ladder_->final_colors()
                        : std::max<std::uint64_t>(1, num_vertices);
  kw_ = std::make_shared<KwReduction>(aux_palette, params_.threshold());
  kw_rounds_ = kw_->num_rounds();
  end_ = ell_ + ladder_steps_ + kw_rounds_ +
         ell_ * (params_.threshold() + 1) + 2;
}

bool Be08ArbColorAlgo::step(Vertex v, std::size_t round,
                            const RoundView<State>& view, State& next,
                            Xoshiro256&) const {
  const auto& self = view.self();
  const std::size_t a_bound = params_.threshold();

  if (round <= ell_) {
    if (self.hset == 0)
      next.hset = partition_try_join(round, view, a_bound);
  } else if (round <= ell_ + ladder_steps_) {
    // Global ladder over the (hset, ID) orientation.
    const std::size_t t = round - ell_ - 1;
    auto& parents = thread_scratch<std::uint64_t>();
    for (std::size_t i = 0; i < view.degree(); ++i) {
      const auto& nbr = view.neighbor_state(i);
      const Vertex u = view.neighbor(i);
      if (nbr.hset > self.hset || (nbr.hset == self.hset && u > v))
        parents.push_back(nbr.aux);
    }
    next.aux = ladder_->apply_step(t, self.aux, parents);
  } else if (round <= ell_ + ladder_steps_ + kw_rounds_) {
    // KW within the own H-set only.
    const std::size_t t = round - ell_ - ladder_steps_ - 1;
    auto& nbrs = thread_scratch<std::uint64_t>();
    if (kw_->needs_neighbors(t, self.aux))
      for (std::size_t i = 0; i < view.degree(); ++i) {
        const auto& nbr = view.neighbor_state(i);
        if (nbr.hset == self.hset) nbrs.push_back(nbr.aux);
      }
    next.aux = kw_->advance(t, self.aux, nbrs);
  } else if (self.pick < 0) {
    // Recoloring stage.
    auto& taken = thread_scratch<char>();
    taken.assign(a_bound + 1, 0);
    bool ready = true;
    for (std::size_t i = 0; i < view.degree(); ++i) {
      const auto& nbr = view.neighbor_state(i);
      const bool parent = nbr.hset > self.hset ||
                          (nbr.hset == self.hset && nbr.aux > self.aux);
      if (!parent) continue;
      if (nbr.pick < 0) {
        ready = false;
        break;
      }
      taken[nbr.pick] = 1;
    }
    if (ready) {
      std::int32_t pick = 0;
      while (pick <= static_cast<std::int32_t>(a_bound) && taken[pick])
        ++pick;
      VALOCAL_ENSURE(pick <= static_cast<std::int32_t>(a_bound),
                     "recoloring palette exhausted");
      next.pick = pick;
    }
  }
  // Run to completion: nobody terminates before the schedule ends.
  if (round >= end_) {
    VALOCAL_ENSURE(next.pick >= 0 || self.pick >= 0,
                   "be08 schedule ended before every vertex picked");
    return true;
  }
  return false;
}

ColoringResult compute_be08_arb_color(const Graph& g,
                                      PartitionParams params) {
  Be08ArbColorAlgo algo(g.num_vertices(), params);
  auto run = run_local(g, algo);

  ColoringResult result;
  result.color = std::move(run.outputs);
  result.num_colors = count_colors(result.color);
  result.palette_bound = algo.palette_bound();
  result.metrics = std::move(run.metrics);
  return result;
}


VALOCAL_ALGO_SPEC(be08) {
  using namespace registry;
  AlgoSpec s = spec_base("be08", "be08 (run to completion)",
                         Problem::kVertexColoring, /*deterministic=*/true,
                         {Param::kArboricity, Param::kEpsilon},
                         {{Measure::kVertexAveraged,
                           "= WC (run to completion)"},
                          {Measure::kWorstCase, "O(a log n)"}},
                         "[8] baseline / T1 row 6");
  s.rows = {{.section = BenchSection::kTable1Adversarial,
             .order = 9,
             .row = "baseline [8] O(a)",
             .algo_label = "be08_arb_color (VA=WC)"}};
  s.run = [](const Graph& g, const AlgoParams& p) {
    return coloring_outcome(g, "be08 (run to completion)",
                            compute_be08_arb_color(g, p.partition()));
  };
  return s;
}

}  // namespace valocal
