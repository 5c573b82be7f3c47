#include "baseline/wc_edge_mm.hpp"

#include <algorithm>

#include "util/assertx.hpp"
#include "util/scratch.hpp"
#include "validate/validate.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

WcEdgeColoringAlgo::WcEdgeColoringAlgo(std::size_t num_edges,
                                       std::size_t max_degree)
    : line_bound_(std::max<std::size_t>(
          1, 2 * std::max<std::size_t>(1, max_degree) - 2)),
      plan_(std::make_shared<DegPlusOnePlan>(
          std::max<std::size_t>(1, num_edges), line_bound_)) {}

void WcEdgeColoringAlgo::init(Vertex v, const Graph& g, State& s) const {
  const auto edges = g.incident_edges(v);
  s.lcolor.assign(edges.size(), 0);
  for (std::size_t i = 0; i < edges.size(); ++i)
    s.lcolor[i] = static_cast<std::int64_t>(edges[i]);
}

bool WcEdgeColoringAlgo::step(Vertex, std::size_t round,
                              const RoundView<State>& view, State& next,
                              Xoshiro256&) const {
  const std::size_t total = plan_->num_rounds();
  if (total == 0) return true;
  const std::size_t t = round - 1;
  for (std::size_t i = 0; i < view.degree(); ++i) {
    const auto& w = view.neighbor_state(i);
    const std::size_t port = view.neighbor_port(i);
    const auto own = static_cast<std::uint64_t>(view.self().lcolor[i]);
    auto& line_nbrs = thread_scratch<std::uint64_t>();
    if (plan_->needs_neighbors(t, own)) {
      for (std::size_t j = 0; j < view.degree(); ++j)
        if (j != i)
          line_nbrs.push_back(
              static_cast<std::uint64_t>(view.self().lcolor[j]));
      for (std::size_t j = 0; j < w.lcolor.size(); ++j)
        if (j != port)
          line_nbrs.push_back(static_cast<std::uint64_t>(w.lcolor[j]));
    }
    next.lcolor[i] =
        static_cast<std::int64_t>(plan_->advance(t, own, line_nbrs));
  }
  return round >= total;  // run to completion: everyone stops together
}

namespace {

EdgeColoringResult assemble(const Graph& g,
                            RunResult<WcEdgeColoringAlgo>&& run,
                            std::size_t palette) {
  EdgeColoringResult result;
  result.color.assign(g.num_edges(), -1);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto edges = g.incident_edges(v);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const auto c = static_cast<int>(run.outputs[v][i]);
      if (result.color[edges[i]] >= 0)
        VALOCAL_ENSURE(result.color[edges[i]] == c,
                       "endpoints disagree on an edge color");
      result.color[edges[i]] = c;
    }
  }
  result.num_colors = count_colors(result.color);
  result.palette_bound = palette;
  result.metrics = std::move(run.metrics);
  return result;
}

}  // namespace

EdgeColoringResult compute_wc_edge_coloring(const Graph& g) {
  WcEdgeColoringAlgo algo(g.num_edges(), g.max_degree());
  auto run = run_local(g, algo);
  return assemble(g, std::move(run), algo.palette_bound());
}

MatchingResult compute_wc_matching(const Graph& g) {
  // Phase 1: the run-to-completion edge coloring (reusing its rounds);
  // phase 2: sweep the color classes centrally but charge the sweep
  // rounds to every vertex — the classical synchronized reduction.
  const WcEdgeColoringAlgo algo(g.num_edges(), g.max_degree());
  auto run = run_local(g, algo);
  EdgeColoringResult ec = assemble(g, std::move(run), algo.palette_bound());

  MatchingResult result;
  result.in_matching.assign(g.num_edges(), false);
  std::vector<char> matched(g.num_vertices(), 0);
  for (std::size_t c = 0; c < ec.palette_bound; ++c) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (ec.color[e] != static_cast<int>(c)) continue;
      if (matched[g.edge_u(e)] || matched[g.edge_v(e)]) continue;
      result.in_matching[e] = true;
      matched[g.edge_u(e)] = matched[g.edge_v(e)] = 1;
    }
  }
  result.metrics = std::move(ec.metrics);
  const auto sweep = static_cast<std::uint32_t>(ec.palette_bound);
  for (auto& r : result.metrics.rounds) r += sweep;
  for (std::size_t i = 0; i < sweep; ++i)
    result.metrics.active_per_round.push_back(g.num_vertices());
  // The sweep edits r(v) after run_local already summarized it —
  // refresh the one-pass rollup so the O(1) accessors stay exact.
  result.metrics.finalize(g);
  return result;
}


VALOCAL_ALGO_SPEC(wc_edge) {
  using namespace registry;
  AlgoSpec s = spec_base("wc_edge", "wc_edge_coloring (run to completion)",
                         Problem::kEdgeColoring, /*deterministic=*/true,
                         {},
                         {{Measure::kVertexAveraged,
                           "= WC (run to completion)"},
                          {Measure::kWorstCase, "O(Delta + log* n)"}},
                         "T2.2 baseline");
  s.rows = {{.section = BenchSection::kTable2Adversarial,
             .order = 4,
             .row = "T2.2 (2D-1)-EC",
             .algo_label = "baseline (run to completion)",
             .check = "T2.2 baseline EC",
             .ratio_override = "1.0x",
             .small_sizes_only = true}};
  s.run = [](const Graph& g, const AlgoParams&) {
    const EdgeColoringResult r = compute_wc_edge_coloring(g);
    SolveOutcome o;
    o.valid = is_proper_edge_coloring(g, r.color);
    o.num_colors = r.num_colors;
    o.palette_bound = r.palette_bound;
    o.labels = to_labels(r.color);
    o.metrics = r.metrics;
    std::ostringstream ss;
    ss << "wc_edge_coloring (run to completion): colors=" << r.num_colors
       << " (palette " << r.palette_bound
       << ") proper=" << yes_no(o.valid);
    o.summary = ss.str();
    return o;
  };
  return s;
}

VALOCAL_ALGO_SPEC(wc_matching) {
  using namespace registry;
  AlgoSpec s = spec_base("wc_matching",
                         "wc_matching (run to completion)",
                         Problem::kMatching, /*deterministic=*/true, {},
                         {{Measure::kVertexAveraged,
                           "= WC (run to completion)"},
                          {Measure::kWorstCase, "O(Delta + log* n)"}},
                         "T2.3 baseline");
  s.rows = {{.section = BenchSection::kTable2Adversarial,
             .order = 5,
             .row = "T2.3 MM",
             .algo_label = "baseline (run to completion)",
             .check = "T2.3 baseline MM",
             .ratio_override = "1.0x",
             .small_sizes_only = true},
            {.section = BenchSection::kCrossPaper,
             .order = 4,
             .row = "MM",
             .algo_label = "wc_matching (run to completion)",
             .check = "XP MM baseline",
             .small_sizes_only = true}};
  s.run = [](const Graph& g, const AlgoParams&) {
    const MatchingResult r = compute_wc_matching(g);
    SolveOutcome o;
    o.valid = is_maximal_matching(g, r.in_matching);
    o.labels = to_labels(r.in_matching);
    o.metrics = r.metrics;
    o.summary =
        std::string("wc_matching maximal=") + yes_no(o.valid);
    return o;
  };
  return s;
}

}  // namespace valocal
