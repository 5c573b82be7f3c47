// A synchronized plan for (D+1)-coloring a (sub)graph of maximum degree
// <= D, starting from unique IDs in [0, num_ids):
//
//   rounds 0 .. L-1 : iterated Linial reduction (ArbLinialLadder with
//                     cover parameter D, escaping ALL neighbors) —
//                     IDs -> O(D^2 log D) colors in O(log* n) rounds;
//   rounds L .. L+K-1 : Kuhn-Wattenhofer reduction to D+1 colors in
//                     O(D log D) rounds.
//
// Worst case O(D log D + log* n) — the library's stand-in for the
// O(D + log* n) algorithm of [7] (substitution S2) and the backbone of
// the (deg+1)-list-coloring stand-in for [13] (substitution S3).
//
// The plan is a pure function of (num_ids, D): every vertex derives the
// identical schedule locally, which is what lets the paper's composed
// algorithms budget exact round counts for per-H-set invocations.
#pragma once

#include <cstdint>
#include <span>

#include "algo/arb_linial.hpp"
#include "algo/kw_reduce.hpp"

namespace valocal {

class DegPlusOnePlan {
 public:
  DegPlusOnePlan(std::uint64_t num_ids, std::size_t degree_bound);

  std::size_t num_rounds() const {
    return ladder_.num_steps() + kw_.num_rounds();
  }

  /// Final palette size: degree_bound + 1.
  std::uint64_t palette() const { return degree_bound_ + 1; }

  /// Round t: own color plus the <= degree_bound neighbor colors in the
  /// subgraph being colored (all in round t's palette).
  std::uint64_t advance(std::size_t t, std::uint64_t own,
                        std::span<const std::uint64_t> neighbors) const;

  /// Whether advance(t, own, ·) needs the neighbor colors. True on every
  /// ladder round, and on a KW round only for the vertices that re-pick
  /// in it (KwReduction::needs_neighbors); elsewhere advance ignores
  /// them, so a step body may skip the gather and pass an empty list.
  /// Always true at t == 0, so the degree-bound check in advance still
  /// sees every vertex's full neighbor list once per plan invocation
  /// (the subgraph being colored cannot change within one).
  bool needs_neighbors(std::size_t t, std::uint64_t own) const {
    const std::size_t steps = ladder_.num_steps();
    return t == 0 || t < steps || kw_.needs_neighbors(t - steps, own);
  }

  std::size_t degree_bound() const { return degree_bound_; }

 private:
  std::size_t degree_bound_;
  ArbLinialLadder ladder_;
  KwReduction kw_;
};

}  // namespace valocal
