#include "algo/coloring_ka2.hpp"

#include <algorithm>
#include <vector>

#include "util/assertx.hpp"
#include "util/mathx.hpp"
#include "util/scratch.hpp"
#include "validate/validate.hpp"
#include "registry/spec_util.hpp"

namespace valocal {

ColoringKa2Algo::ColoringKa2Algo(std::size_t num_vertices,
                                 PartitionParams params, int k)
    : params_(params), num_vertices_(num_vertices) {
  params_.check();
  const int k_max = rho(std::max<std::size_t>(2, num_vertices));
  k_ = std::clamp(k <= 0 ? k_max : k, 2, std::max(2, k_max));
  segments_ = make_segments(num_vertices, params_.epsilon, k_);
  ladder_ = std::make_shared<ArbLinialLadder>(
      std::max<std::uint64_t>(1, num_vertices), params_.threshold());
  steps_ = ladder_->num_steps();

  // Region layout: per segment, a partition region then a ladder region
  // (ladder regions have max(1, S) rounds so degenerate tiny inputs
  // still get a terminating color-assignment round).
  const std::size_t lad = std::max<std::size_t>(1, steps_);
  std::vector<std::size_t> region_lengths;
  region_lengths.reserve(2 * segments_.size());
  for (const Segment& seg : segments_) {
    region_lengths.push_back(seg.partition_rounds);
    region_lengths.push_back(lad);
  }
  timeline_ = SegmentTimeline(region_lengths);

  // Trace phase names, one per region; the store must never reallocate
  // after the c_str() pointers are taken.
  phase_name_store_.reserve(2 * segments_.size());
  phase_names_.reserve(2 * segments_.size());
  for (const Segment& seg : segments_) {
    const std::string base = "seg" + std::to_string(seg.paper_index);
    phase_name_store_.push_back(base + ".partition");
    phase_name_store_.push_back(base + ".ladder");
  }
  for (const auto& name : phase_name_store_)
    phase_names_.push_back(name.c_str());
}

std::size_t ColoringKa2Algo::palette_bound() const {
  const std::size_t per_segment = static_cast<std::size_t>(
      steps_ > 0 ? ladder_->final_colors()
                 : std::max<std::size_t>(1, num_vertices_));
  return static_cast<std::size_t>(k_) * per_segment;
}

bool ColoringKa2Algo::step(Vertex v, std::size_t round,
                           const RoundView<State>& view, State& next,
                           Xoshiro256&) const {
  const auto& self = view.self();
  // Locate the region: 2 regions per segment.
  const std::size_t region = timeline_.locate(round);
  VALOCAL_ENSURE(region < timeline_.num_regions(),
                 "coloring_ka2 schedule exhausted with active vertices");
  const std::size_t seg_idx = region / 2;
  const Segment& seg = segments_[seg_idx];
  const std::size_t rel = round - timeline_.start(region);

  if (region % 2 == 0) {
    // Partition region of this segment.
    if (self.hset == 0) {
      const std::size_t partition_round = seg.first_hset + rel;
      next.hset = partition_try_join(partition_round, view,
                                     params_.threshold());
    }
    return false;
  }

  // Ladder region for segment seg_idx: participants are the vertices
  // whose H-set falls in this segment's range.
  const auto in_seg = [&](std::int32_t h) {
    return h >= static_cast<std::int32_t>(seg.first_hset) &&
           h <= static_cast<std::int32_t>(seg.last_hset);
  };
  if (!in_seg(self.hset)) return false;

  const std::size_t last = std::max<std::size_t>(1, steps_) - 1;
  std::uint64_t new_color = self.lad_color;
  if (steps_ > 0) {
    auto& parents = thread_scratch<std::uint64_t>();
    for (std::size_t i = 0; i < view.degree(); ++i) {
      const auto& nbr = view.neighbor_state(i);
      if (!in_seg(nbr.hset)) continue;
      const Vertex u = view.neighbor(i);
      if (nbr.hset > self.hset || (nbr.hset == self.hset && u > v))
        parents.push_back(nbr.lad_color);
    }
    new_color = ladder_->apply_step(rel, self.lad_color, parents);
  }
  next.lad_color = new_color;
  if (rel == last) {
    const std::uint64_t per_segment =
        steps_ > 0 ? ladder_->final_colors()
                   : std::max<std::uint64_t>(1, num_vertices_);
    next.final_color = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(seg_idx) * per_segment + new_color);
    return true;
  }
  return false;
}

std::size_t ColoringKa2Algo::next_wake(Vertex, std::size_t round,
                                       const State& s) const {
  const std::size_t region = timeline_.locate(round);
  if (region >= timeline_.num_regions()) return round + 1;
  const Segment& seg = segments_[region / 2];
  if (region % 2 == 0) {
    // Partition region: joiners idle until this segment's ladder;
    // unsettled vertices must attempt a join every round (the decision
    // reads each round's fresh neighbor snapshot).
    return s.hset == 0 ? round + 1 : timeline_.start(region + 1);
  }
  // Ladder region: participants run every round (parent colors are
  // data-dependent); everyone else idles until the next region.
  const bool in_seg =
      s.hset >= static_cast<std::int32_t>(seg.first_hset) &&
      s.hset <= static_cast<std::int32_t>(seg.last_hset);
  return in_seg ? round + 1 : timeline_.start(region + 1);
}

ColoringResult compute_coloring_ka2(const Graph& g,
                                    PartitionParams params, int k) {
  VALOCAL_TRACE_PHASE("ka2");
  ColoringKa2Algo algo(g.num_vertices(), params, k);
  auto run = run_local(g, algo);

  ColoringResult result;
  result.color = std::move(run.outputs);
  result.num_colors = count_colors(result.color);
  result.palette_bound = algo.palette_bound();
  result.metrics = std::move(run.metrics);
  return result;
}


VALOCAL_ALGO_SPEC(ka2) {
  using namespace registry;
  AlgoSpec s = spec_base(
      "ka2", "ka2", Problem::kVertexColoring, /*deterministic=*/true,
      {Param::kArboricity, Param::kEpsilon, Param::kK},
      {{Measure::kVertexAveraged, "O(log^(k) n + log* n)"},
       {Measure::kWorstCase, "O(log n)"}},
      "Sec 7.6 / T1.5-T1.6");
  s.rows = {{.section = BenchSection::kTable1Adversarial,
             .order = 4,
             .row = "T1.5 O(ka^2), k=2",
             .algo_label = "coloring_ka2(k=2)",
             .k = 2},
            {.section = BenchSection::kTable1Adversarial,
             .order = 5,
             .row = "T1.5 O(ka^2), k=3",
             .algo_label = "coloring_ka2(k=3)",
             .k = 3},
            {.section = BenchSection::kTable1Adversarial,
             .order = 6,
             .row = "T1.6 O(a^2 log* n)",
             .algo_label = "coloring_ka2(k=rho)",
             .k = 0}};
  s.run = [](const Graph& g, const AlgoParams& p) {
    return coloring_outcome(g, "ka2",
                            compute_coloring_ka2(g, p.partition(), p.k));
  };
  return s;
}

}  // namespace valocal
