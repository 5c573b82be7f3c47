// Baseline: classical worst-case (Delta+1)-vertex-coloring — Linial's
// iterated reduction plus Kuhn-Wattenhofer — run by every vertex to
// global completion. No vertex terminates early, so the vertex-averaged
// complexity EQUALS the worst case, O(Delta log Delta + log* n). This is
// the comparator column of Table 1 row 7 and ablation AB3.
#pragma once

#include <memory>

#include "algo/coloring_result.hpp"
#include "algo/deg_plus_one_plan.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"
#include "util/scratch.hpp"

namespace valocal {

class WorstCaseDeltaPlusOneAlgo {
 public:
  struct State {
    std::uint64_t color = 0;
  };
  using Output = int;

  WorstCaseDeltaPlusOneAlgo(std::size_t num_vertices,
                            std::size_t max_degree)
      : plan_(std::make_shared<DegPlusOnePlan>(
            std::max<std::size_t>(1, num_vertices),
            std::max<std::size_t>(1, max_degree))) {}

  void init(Vertex v, const Graph&, State& s) const { s.color = v; }

  bool step(Vertex, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256&) const {
    if (plan_->num_rounds() == 0) return true;  // n == 1 corner case
    const std::size_t t = round - 1;
    auto& nbrs = thread_scratch<std::uint64_t>();
    if (plan_->needs_neighbors(t, view.self().color))
      for (std::size_t i = 0; i < view.degree(); ++i)
        nbrs.push_back(view.neighbor_state(i).color);
    next.color = plan_->advance(t, view.self().color, nbrs);
    return round >= plan_->num_rounds();
  }

  Output output(Vertex, const State& s) const {
    return static_cast<Output>(s.color);
  }

  static constexpr bool uses_rng = false;

  std::size_t palette_bound() const {
    return static_cast<std::size_t>(plan_->palette());
  }

 private:
  std::shared_ptr<const DegPlusOnePlan> plan_;
};

ColoringResult compute_wc_delta_plus1(const Graph& g);

}  // namespace valocal
