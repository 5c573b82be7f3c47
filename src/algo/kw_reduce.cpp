#include "algo/kw_reduce.hpp"

#include <algorithm>

#include "util/assertx.hpp"
#include "util/mathx.hpp"

namespace valocal {

KwReduction::KwReduction(std::uint64_t m0, std::size_t k)
    : m0_(m0), k_(k) {
  VALOCAL_REQUIRE(m0 >= 1, "palette must be nonempty");
  std::uint64_t m = m0;
  const std::uint64_t target = k_ + 1;
  while (m > target) {
    const std::uint64_t g = std::min<std::uint64_t>(m, 2 * target);
    for (std::uint64_t s = target; s < g; ++s)
      rounds_.push_back({m, g, s, s + 1 == g});
    m = ceil_div(m, g) * target;
  }
}

std::uint64_t KwReduction::final_palette() const {
  return std::min<std::uint64_t>(m0_, k_ + 1);
}

std::uint64_t KwReduction::advance(
    std::size_t t, std::uint64_t own,
    std::span<const std::uint64_t> neighbors) const {
  VALOCAL_REQUIRE(t < rounds_.size(), "round index out of range");
  const Round& r = rounds_[t];
  VALOCAL_DCHECK(own < r.palette, "color exceeds the round's palette");

  std::uint64_t color = own;
  if (needs_neighbors(t, own)) {
    const std::uint64_t base = own - own % r.group;
    // Smallest color in [base, base + k] unused by any neighbor. It is
    // at most the neighbor count, so marks beyond that prefix never
    // matter; the mark buffer is per thread and keeps its capacity.
    const std::size_t marks =
        std::min<std::size_t>(k_ + 1, neighbors.size() + 1);
    thread_local std::vector<char> taken;
    taken.assign(marks, 0);
    for (std::uint64_t nc : neighbors)
      if (nc >= base && nc - base < marks) taken[nc - base] = 1;
    std::uint64_t pick = 0;
    while (pick < marks && taken[pick]) ++pick;
    VALOCAL_ENSURE(pick <= k_,
                   "no free color: neighbor count exceeds the degree bound");
    color = base + pick;
  }
  if (r.remap_after)
    color = (color / r.group) * (k_ + 1) + (color % r.group);
  return color;
}

}  // namespace valocal
