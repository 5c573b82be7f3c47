#include "algo/edge_coloring.hpp"

#include <algorithm>

#include "util/assertx.hpp"
#include "util/scratch.hpp"
#include "validate/validate.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

EdgeColoringAlgo::EdgeColoringAlgo(std::size_t num_vertices,
                                   std::size_t num_edges,
                                   PartitionParams params)
    : params_(params),
      plan_(std::make_shared<DegPlusOnePlan>(
          std::max<std::uint64_t>(1, num_edges),
          std::max<std::size_t>(1, 2 * params.threshold() - 2))),
      schedule_(num_vertices, params.epsilon,
                1 + plan_->num_rounds() + (2 * params.threshold() - 1) +
                    2 * params.threshold()) {
  params_.check();
  VALOCAL_REQUIRE(params_.threshold() <= 120,
                  "edge labels are stored as int8: threshold too large");
}

void EdgeColoringAlgo::init(Vertex v, const Graph& g, State& s) const {
  const std::size_t deg = g.degree(v);
  s.ecolor.assign(deg, -1);
  s.lcolor.assign(deg, -1);
  s.kind.assign(deg, 0);
  s.out_label.assign(deg, -1);
}

bool EdgeColoringAlgo::step(Vertex, std::size_t round,
                            const RoundView<State>& view, State& next,
                            Xoshiro256&) const {
  VALOCAL_ENSURE(round <= schedule_.total_rounds(),
                 "edge_coloring schedule exhausted with active vertices");
  const auto& self = view.self();
  const std::size_t iter = schedule_.iteration(round);
  const std::size_t pos = schedule_.position(round);
  const std::size_t t_line = line_plan_rounds();
  const auto my_iter = static_cast<std::int32_t>(iter);

  if (pos == 0) {
    if (self.hset == 0)
      next.hset = partition_try_join(iter, view, params_.threshold());
    return false;
  }

  // Stage geometry: [flag][line plan][resolution sweep][cross].
  const std::size_t sweep_len = 2 * params_.threshold() - 1;
  const std::size_t cross_begin = 2 + t_line + sweep_len;
  const bool in_cross = pos >= cross_begin;
  const std::size_t rel = in_cross ? pos - cross_begin : 0;
  const std::size_t label = rel / 2;
  const bool assign_phase = in_cross && rel % 2 == 0;
  const bool ingest_phase = in_cross && rel % 2 == 1;

  if (self.hset == 0) {
    // Active vertex: acts as head in assign phases.
    if (assign_phase) {
      // Colors already used at this head (previous head assignments
      // plus the ones made earlier this round).
      auto& head_used = thread_scratch<std::int32_t>();
      for (auto c : self.ecolor)
        if (c >= 0) head_used.push_back(c);
      for (std::size_t i = 0; i < view.degree(); ++i) {
        const auto& nbr = view.neighbor_state(i);
        if (nbr.hset != my_iter) continue;
        const std::size_t port = view.neighbor_port(i);
        if (nbr.kind[port] != 2 ||
            nbr.out_label[port] != static_cast<std::int8_t>(label))
          continue;
        // Smallest color free at both endpoints: at most
        // (deg(u)-1) + (deg(w)-1) colors are forbidden, so the pick
        // stays below 2*Delta - 1.
        auto& forbidden = thread_scratch<char>();
        forbidden.assign(head_used.size() + nbr.ecolor.size() + 2, 0);
        auto mark = [&](std::int32_t c) {
          if (c >= 0 && static_cast<std::size_t>(c) < forbidden.size())
            forbidden[c] = 1;
        };
        for (auto c : head_used) mark(c);
        for (auto c : nbr.ecolor) mark(c);
        std::size_t pick = 0;
        while (forbidden[pick]) ++pick;
        next.ecolor[i] = static_cast<std::int32_t>(pick);
        head_used.push_back(static_cast<std::int32_t>(pick));
      }
    }
    return false;
  }

  if (self.hset != my_iter) return false;  // already-terminated track
  // (terminated vertices never reach step; this guards waiting sets)

  if (pos == 1) {
    // Flag round: classify ports and label the out edges.
    std::int8_t next_label = 0;
    for (std::size_t i = 0; i < view.degree(); ++i) {
      const auto& nbr = view.neighbor_state(i);
      if (nbr.hset == my_iter) {
        next.kind[i] = 1;  // intra-set
        next.lcolor[i] =
            static_cast<std::int64_t>(view.incident_edges()[i]);
      } else if (nbr.hset == 0) {
        next.kind[i] = 2;  // outgoing towards a later joiner
        next.out_label[i] = next_label++;
      } else {
        next.kind[i] = 3;  // colored in an earlier iteration
      }
    }
    VALOCAL_ENSURE(next_label <=
                       static_cast<std::int8_t>(params_.threshold()),
                   "more out-edges than the H-partition permits");
    return false;
  }

  if (pos < 2 + t_line) {
    // Line-graph plan round t = pos - 2 on the intra-set edges.
    const std::size_t t = pos - 2;
    for (std::size_t i = 0; i < view.degree(); ++i) {
      if (self.kind[i] != 1) continue;
      const auto& w = view.neighbor_state(i);
      const std::size_t port = view.neighbor_port(i);
      const auto own = static_cast<std::uint64_t>(self.lcolor[i]);
      auto& line_nbrs = thread_scratch<std::uint64_t>();
      if (plan_->needs_neighbors(t, own)) {
        for (std::size_t j = 0; j < view.degree(); ++j)
          if (j != i && self.kind[j] == 1)
            line_nbrs.push_back(
                static_cast<std::uint64_t>(self.lcolor[j]));
        for (std::size_t j = 0; j < w.kind.size(); ++j)
          if (j != port && w.kind[j] == 1)
            line_nbrs.push_back(static_cast<std::uint64_t>(w.lcolor[j]));
      }
      next.lcolor[i] =
          static_cast<std::int64_t>(plan_->advance(t, own, line_nbrs));
    }
    return false;
  }

  if (pos < cross_begin) {
    // Resolution sweep slot c: the unique intra edge with line-plan
    // color c at this vertex takes its FINAL color — the smallest one
    // free at both endpoints (so intra colors also dodge the cross
    // colors this vertex received as a head in earlier iterations).
    // Slot-c edges form a matching, and both endpoints compute the
    // identical pick from published state.
    const std::size_t c = pos - 2 - t_line;
    for (std::size_t i = 0; i < view.degree(); ++i) {
      if (self.kind[i] != 1 ||
          self.lcolor[i] != static_cast<std::int64_t>(c))
        continue;
      const auto& w = view.neighbor_state(i);
      auto& forbidden = thread_scratch<char>();
      forbidden.assign(self.ecolor.size() + w.ecolor.size() + 2, 0);
      auto mark = [&](std::int32_t col) {
        if (col >= 0 && static_cast<std::size_t>(col) < forbidden.size())
          forbidden[col] = 1;
      };
      for (auto col : self.ecolor) mark(col);
      for (auto col : w.ecolor) mark(col);
      std::size_t pick = 0;
      while (forbidden[pick]) ++pick;
      next.ecolor[i] = static_cast<std::int32_t>(pick);
    }
    return false;
  }

  // Cross stage, tail side: ingest the head's assignment for label j.
  if (ingest_phase) {
    for (std::size_t i = 0; i < view.degree(); ++i) {
      if (self.kind[i] != 2 ||
          self.out_label[i] != static_cast<std::int8_t>(label))
        continue;
      const auto& w = view.neighbor_state(i);
      const std::size_t port = view.neighbor_port(i);
      VALOCAL_ENSURE(w.ecolor[port] >= 0,
                     "head failed to assign a cross edge");
      next.ecolor[i] = w.ecolor[port];
    }
  }
  // Terminate at the end of the block.
  return pos == schedule_.sub_rounds;
}

std::size_t EdgeColoringAlgo::next_wake(Vertex, std::size_t round,
                                        const State& s) const {
  std::size_t wake = round + 1;
  if (s.hset <= 0) {
    const std::size_t block = schedule_.block();
    const std::size_t iter = schedule_.iteration(round);
    const std::size_t pos = schedule_.position(round);
    const std::size_t cross_begin =
        2 + line_plan_rounds() + (2 * params_.threshold() - 1);
    if (pos < cross_begin) {
      // Idle until this iteration's first assign phase.
      wake = (iter - 1) * block + 1 + cross_begin;
    } else if ((pos - cross_begin) % 2 == 0) {
      // Assign phase for label j = (pos - cross_begin) / 2: the next
      // head duty is label j+1's assign phase two rounds on, or the
      // next partition round once the labels are exhausted.
      wake = (pos - cross_begin) / 2 + 1 < params_.threshold()
                 ? round + 2
                 : iter * block + 1;
    }
    // Ingest phases: the next assign phase IS round + 1 — no parking.
  }
  return std::max(wake, round + 1);
}

EdgeColoringResult compute_edge_coloring(const Graph& g,
                                         PartitionParams params) {
  VALOCAL_TRACE_PHASE("edge_coloring");
  EdgeColoringAlgo algo(g.num_vertices(), g.num_edges(), params);
  auto run = run_local(g, algo);

  EdgeColoringResult result;
  result.color.assign(g.num_edges(), -1);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto& ports = run.outputs[v];
    const auto edges = g.incident_edges(v);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (ports[i] < 0) continue;
      if (result.color[edges[i]] >= 0)
        VALOCAL_ENSURE(result.color[edges[i]] == ports[i],
                       "endpoints disagree on an edge color");
      result.color[edges[i]] = ports[i];
    }
  }
  result.num_colors = count_colors(result.color);
  result.palette_bound = algo.palette_bound(g.max_degree());
  result.metrics = std::move(run.metrics);
  return result;
}


VALOCAL_ALGO_SPEC(edge_coloring) {
  using namespace registry;
  AlgoSpec s = spec_base("edge_coloring", "edge coloring",
                         Problem::kEdgeColoring, /*deterministic=*/true,
                         {Param::kArboricity, Param::kEpsilon},
                         {{Measure::kVertexAveraged, "O~(a + log* n)"},
                          {Measure::kWorstCase, "O(a log n)"}},
                         "Cor 8.6 / T2.2");
  s.rows = {{.section = BenchSection::kTable2Adversarial,
             .order = 2,
             .row = "T2.2 (2D-1)-EC",
             .algo_label = "edge_coloring (Cor 8.6)",
             .check = "T2.2 EC",
             .check_aux = "T2.2 palette"},
            {.section = BenchSection::kTable2Families,
             .order = 1,
             .row = "EC"}};
  s.run = [](const Graph& g, const AlgoParams& p) {
    const EdgeColoringResult r = compute_edge_coloring(g, p.partition());
    SolveOutcome o;
    o.valid = is_proper_edge_coloring(g, r.color);
    o.aux_valid = r.num_colors <= r.palette_bound;
    o.num_colors = r.num_colors;
    o.palette_bound = r.palette_bound;
    o.labels = to_labels(r.color);
    o.metrics = r.metrics;
    std::ostringstream ss;
    ss << "edge coloring: colors=" << r.num_colors << " (palette "
       << r.palette_bound << ") proper=" << yes_no(o.valid);
    o.summary = ss.str();
    return o;
  };
  return s;
}

}  // namespace valocal
