#include "algo/defective_coloring.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "algo/deg_plus_one_plan.hpp"
#include "sim/network.hpp"
#include "util/assertx.hpp"
#include "util/scratch.hpp"
#include "validate/validate.hpp"

namespace valocal {

std::size_t arbdefective_class_bound(std::size_t degree_bound,
                                     std::size_t colors) {
  VALOCAL_REQUIRE(colors >= 1, "need at least one bucket");
  return std::max<std::size_t>(1, degree_bound / colors);
}

namespace {

class ArbdefectiveLocalAlgo {
 public:
  struct State {
    std::uint64_t aux = 0;
    std::int32_t bucket = -1;
  };
  using Output = int;

  ArbdefectiveLocalAlgo(std::size_t num_vertices,
                        std::size_t degree_bound, std::size_t colors)
      : degree_bound_(std::max<std::size_t>(1, degree_bound)),
        colors_(colors),
        plan_(std::make_shared<DegPlusOnePlan>(
            std::max<std::size_t>(1, num_vertices), degree_bound_)) {}

  void init(Vertex v, const Graph&, State& s) const { s.aux = v; }

  bool step(Vertex, std::size_t round, const RoundView<State>& view,
            State& next, Xoshiro256&) const {
    const std::size_t plan_rounds = plan_->num_rounds();
    if (round <= plan_rounds) {
      auto& nbrs = thread_scratch<std::uint64_t>();
      if (plan_->needs_neighbors(round - 1, view.self().aux))
        for (std::size_t i = 0; i < view.degree(); ++i)
          nbrs.push_back(view.neighbor_state(i).aux);
      next.aux = plan_->advance(round - 1, view.self().aux, nbrs);
      return false;
    }
    // Descending sweep: slot i retires auxiliary color D - i.
    const std::size_t i = round - plan_rounds - 1;
    const std::size_t slot = degree_bound_ - i;
    if (view.self().aux != slot) return false;
    // Parents (larger aux) have already picked; choose the least-used
    // bucket among them.
    auto& used = thread_scratch<std::uint32_t>();
    used.assign(colors_, 0);
    for (std::size_t j = 0; j < view.degree(); ++j) {
      const auto& nbr = view.neighbor_state(j);
      if (nbr.aux > view.self().aux) {
        VALOCAL_DCHECK(nbr.bucket >= 0, "parent has not picked yet");
        ++used[nbr.bucket];
      }
    }
    std::size_t best = 0;
    for (std::size_t c = 1; c < colors_; ++c)
      if (used[c] < used[best]) best = c;
    next.bucket = static_cast<std::int32_t>(best);
    return true;
  }

  Output output(Vertex, const State& s) const { return s.bucket; }

  static constexpr bool uses_rng = false;

 private:
  std::size_t degree_bound_;
  std::size_t colors_;
  std::shared_ptr<const DegPlusOnePlan> plan_;
};

}  // namespace

ColoringResult compute_arbdefective_coloring(
    const Graph& g, ArbdefectiveColoringParams params) {
  VALOCAL_REQUIRE(params.colors >= 1, "need at least one color");
  const std::size_t degree_bound =
      params.degree_bound != 0 ? params.degree_bound
                               : std::max<std::size_t>(1, g.max_degree());
  VALOCAL_REQUIRE(g.max_degree() <= degree_bound,
                  "degree bound below the actual maximum degree");

  ArbdefectiveLocalAlgo algo(g.num_vertices(), degree_bound,
                             params.colors);
  auto run = run_local(g, algo);

  ColoringResult result;
  result.color = std::move(run.outputs);
  result.num_colors = count_colors(result.color);
  result.palette_bound = params.colors;
  result.metrics = std::move(run.metrics);
  return result;
}

}  // namespace valocal
