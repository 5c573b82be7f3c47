// Kuhn-Wattenhofer style color reduction: a proper m-coloring of a
// graph with maximum degree <= k becomes a proper (k+1)-coloring in
// O(k * log(m / k)) synchronized rounds.
//
// Each phase views the palette [0, m) as blocks of g = min(m, 2(k+1))
// consecutive colors. Within a phase, one round per in-block index
// s = k+1 .. g-1: every vertex whose color has in-block index s
// simultaneously re-picks the smallest free color among its block's
// first k+1 colors (free w.r.t. neighbors' previous-round colors).
// Adjacent vertices recoloring in the same round either sit in
// different blocks (disjoint targets) or would share a color
// (impossible in a proper coloring), so properness is preserved; a free
// color exists because the target has k+1 colors and at most k
// neighbors block it. The phase ends with the pure remap
// c -> (c / g) * (k+1) + (c % g), shrinking the palette to
// ceil(m / g) * (k+1) — roughly half — until it reaches k+1.
//
// This substitutes for the (Delta+1)-coloring reduction of [7]
// (substitution S2 in DESIGN.md): O(k log k) instead of O(k) rounds.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace valocal {

class KwReduction {
 public:
  /// Plan for reducing m0 colors to k+1 on graphs of max degree <= k.
  KwReduction(std::uint64_t m0, std::size_t k);

  std::size_t num_rounds() const { return rounds_.size(); }
  std::uint64_t initial_palette() const { return m0_; }
  std::uint64_t final_palette() const;

  /// Round t (0-based): own color and the neighbors' colors, all in the
  /// palette of round t; returns the color for round t+1.
  std::uint64_t advance(std::size_t t, std::uint64_t own,
                        std::span<const std::uint64_t> neighbors) const;

  /// Whether advance(t, own, ·) reads the neighbors' colors: only a
  /// vertex whose color has in-block index `step` re-picks in round t.
  /// Every other vertex keeps (and maybe remaps) its color, so a caller
  /// may pass an empty list instead of gathering one. An out-of-range t
  /// answers true, so the caller still reaches advance's range check.
  bool needs_neighbors(std::size_t t, std::uint64_t own) const {
    if (t >= rounds_.size()) return true;
    const Round& r = rounds_[t];
    return own % r.group == r.step;
  }

 private:
  struct Round {
    std::uint64_t palette;  // palette size entering this round
    std::uint64_t group;    // block size g
    std::uint64_t step;     // in-block index recolored this round
    bool remap_after;       // apply the phase-end remap after this round
  };

  std::uint64_t m0_;
  std::size_t k_;
  std::vector<Round> rounds_;
};

}  // namespace valocal
