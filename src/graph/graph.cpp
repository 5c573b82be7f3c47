#include "graph/graph.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "util/assertx.hpp"
#include "util/thread_pool.hpp"

namespace valocal {
namespace {

/// Fills incident_ (streaming build only), edge arrays (streaming
/// build only), and the reciprocal ports in one O(2m) sweep, given
/// sorted adjacency slices. Invariant it rides on: iterating u
/// ascending and u's slice ascending visits the edges {u, w} with
/// u < w in exactly the order the reverse slots appear in each w's
/// slice — neighbors below w are a sorted prefix of w's (sorted)
/// slice — so one cursor per vertex pairs every forward slot with its
/// reverse slot without per-edge lookup tables or binary searches.
template <class PerEdge>
void sweep_edge_slots(std::size_t n, const std::vector<std::size_t>& offsets,
                      const std::vector<Vertex>& adjacency,
                      std::vector<std::size_t>& cursor,
                      const PerEdge& per_edge) {
  std::copy_n(offsets.begin(), n, cursor.begin());
  for (Vertex u = 0; u < n; ++u)
    for (std::size_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      const Vertex w = adjacency[i];
      if (w < u) continue;
      VALOCAL_DCHECK(w != u, "self-loop survived the build");
      per_edge(u, w, i, cursor[w]++);
    }
}

}  // namespace

void SpanEdgeSource::stream(std::size_t num_threads,
                            const BlockFn& fn) const {
  constexpr std::size_t kBlockPairs = std::size_t{1} << 20;
  const std::size_t total = pairs_.size() / 2;
  ThreadPool pool(num_threads);
  pool.parallel_for_chunks(
      total, kBlockPairs,
      [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
        fn(pairs_.subspan(2 * begin, 2 * (end - begin)));
      });
}

Graph Graph::from_source(std::size_t n, const EdgeBlockSource& src,
                         std::size_t num_threads) {
  VALOCAL_REQUIRE(n <= kMaxVertices,
                  "vertex count exceeds the 32-bit id limit "
                  "(see docs/GRAPHS.md)");
  Graph g;
  g.n_ = n;
  g.offsets_.assign(n + 1, 0);
  if (src.num_pairs() == 0) return g;

  // Pass 1: degree counting into offsets_[v + 1] (duplicates counted,
  // removed after the transpose; self-loops dropped). The source may
  // generate blocks on several threads; each block is consumed under
  // one lock, so plain counters suffice and totals are order-free.
  std::mutex mu;
  src.stream(num_threads, [&](EdgeBlockSource::Block block) {
    VALOCAL_REQUIRE(block.size() % 2 == 0,
                    "edge source yielded a half pair");
    const std::lock_guard<std::mutex> lock(mu);
    for (std::size_t i = 0; i < block.size(); i += 2) {
      const Vertex u = block[i], v = block[i + 1];
      VALOCAL_REQUIRE(u < n && v < n,
                      "edge endpoint out of range (vertex id >= n)");
      if (u == v) continue;
      ++g.offsets_[u + 1];
      ++g.offsets_[v + 1];
    }
  });
  std::partial_sum(g.offsets_.begin(), g.offsets_.end(), g.offsets_.begin());
  const std::size_t slots = g.offsets_[n];

  // Pass 2: scatter each endpoint into its slice of an unsorted
  // buffer. Slot order within a slice is schedule-dependent; the
  // transpose below canonicalizes it. Every cursor is bounded by its
  // slice end and the slot total is checked, so a source that yields
  // a different multiset the second time fails loudly instead of
  // writing past a slice (or past the buffer, for the last vertex).
  std::vector<Vertex> unsorted(slots);
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  std::size_t scattered = 0;
  src.stream(num_threads, [&](EdgeBlockSource::Block block) {
    VALOCAL_REQUIRE(block.size() % 2 == 0,
                    "edge source changed between passes");
    const std::lock_guard<std::mutex> lock(mu);
    for (std::size_t i = 0; i < block.size(); i += 2) {
      const Vertex u = block[i], v = block[i + 1];
      VALOCAL_REQUIRE(u < n && v < n,
                      "edge source changed between passes");
      if (u == v) continue;
      VALOCAL_REQUIRE(cursor[u] < g.offsets_[u + 1] &&
                          cursor[v] < g.offsets_[v + 1],
                      "edge source changed between passes");
      unsorted[cursor[u]++] = v;
      unsorted[cursor[v]++] = u;
      scattered += 2;
    }
  });
  VALOCAL_REQUIRE(scattered == slots, "edge source changed between passes");

  // Transpose: for u ascending, append u to the slice of each of its
  // neighbors. The pair multiset is symmetric (every pair landed in
  // both endpoint slices), so w's transposed slice holds exactly w's
  // neighbors — now ascending, with duplicates adjacent. The unsorted
  // buffer is freed before the side tables are allocated.
  g.adjacency_.resize(slots);
  std::copy_n(g.offsets_.begin(), n, cursor.begin());
  for (Vertex u = 0; u < n; ++u)
    for (std::size_t i = g.offsets_[u]; i < g.offsets_[u + 1]; ++i)
      g.adjacency_[cursor[unsorted[i]]++] = u;
  std::vector<Vertex>().swap(unsorted);

  // One linear sweep drops the adjacent duplicates, compacts the
  // slices to the front and rebuilds offsets. A duplicate pair shrinks
  // both endpoint slices, so the slot count stays even. The adjacency
  // vector keeps its capacity; see docs/GRAPHS.md for the peak.
  std::size_t write = 0, lo = 0, max_degree = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t hi = g.offsets_[v + 1], start = write;
    for (std::size_t i = lo; i < hi; ++i)
      if (write == start || g.adjacency_[write - 1] != g.adjacency_[i])
        g.adjacency_[write++] = g.adjacency_[i];
    lo = hi;
    g.offsets_[v + 1] = write;
    max_degree = std::max(max_degree, write - start);
  }
  VALOCAL_ENSURE(write % 2 == 0, "odd adjacency slot count after dedup");
  const std::size_t m = write / 2;
  VALOCAL_REQUIRE(m <= kMaxEdges,
                  "edge count exceeds the 32-bit edge-id limit "
                  "(see docs/GRAPHS.md)");
  g.adjacency_.resize(write);
  g.max_degree_ = max_degree;

  // Canonical edge ids — lexicographic by (u, v) — plus incident lists
  // and reciprocal ports, in one cursor sweep.
  g.edge_u_.reserve(m);
  g.edge_v_.reserve(m);
  g.incident_.resize(write);
  g.mirror_.resize(write);
  sweep_edge_slots(
      n, g.offsets_, g.adjacency_, cursor,
      [&](Vertex u, Vertex w, std::size_t fwd_slot, std::size_t rev_slot) {
        const EdgeId e = static_cast<EdgeId>(g.edge_u_.size());
        g.edge_u_.push_back(u);
        g.edge_v_.push_back(w);
        g.incident_[fwd_slot] = e;
        g.incident_[rev_slot] = e;
        g.mirror_[fwd_slot] =
            static_cast<std::uint32_t>(rev_slot - g.offsets_[w]);
        g.mirror_[rev_slot] =
            static_cast<std::uint32_t>(fwd_slot - g.offsets_[u]);
      });
  VALOCAL_ENSURE(g.edge_u_.size() == m, "edge sweep missed slots");
  return g;
}

Graph::Graph(std::size_t n, std::vector<std::pair<Vertex, Vertex>> edges)
    : n_(n) {
  VALOCAL_REQUIRE(n <= kMaxVertices,
                  "vertex count exceeds the 32-bit id limit "
                  "(see docs/GRAPHS.md)");
  const std::size_t m = edges.size();
  VALOCAL_REQUIRE(m <= kMaxEdges,
                  "edge count exceeds the 32-bit edge-id limit "
                  "(see docs/GRAPHS.md)");
  edge_u_.reserve(m);
  edge_v_.reserve(m);
  for (auto& [u, v] : edges) {
    VALOCAL_REQUIRE(u < n_ && v < n_, "edge endpoint out of range");
    VALOCAL_REQUIRE(u != v, "self-loops are not allowed");
    if (u > v) std::swap(u, v);
    edge_u_.push_back(u);
    edge_v_.push_back(v);
  }

  offsets_.assign(n_ + 1, 0);
  for (std::size_t e = 0; e < m; ++e) {
    ++offsets_[edge_u_[e] + 1];
    ++offsets_[edge_v_[e] + 1];
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());

  adjacency_.resize(2 * m);
  incident_.resize(2 * m);
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t e = 0; e < m; ++e) {
    const Vertex u = edge_u_[e], v = edge_v_[e];
    adjacency_[cursor[u]] = v;
    incident_[cursor[u]++] = static_cast<EdgeId>(e);
    adjacency_[cursor[v]] = u;
    incident_[cursor[v]++] = static_cast<EdgeId>(e);
  }

  // Sort each adjacency slice (with its parallel incident slice) so
  // neighbors() is ordered and has_edge() can binary-search.
  for (Vertex v = 0; v < n_; ++v) {
    const std::size_t lo = offsets_[v], hi = offsets_[v + 1];
    std::vector<std::pair<Vertex, EdgeId>> slice;
    slice.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i)
      slice.emplace_back(adjacency_[i], incident_[i]);
    std::sort(slice.begin(), slice.end());
    VALOCAL_REQUIRE(
        std::adjacent_find(slice.begin(), slice.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }) == slice.end(),
        "duplicate edges are not allowed");
    for (std::size_t i = lo; i < hi; ++i) {
      adjacency_[i] = slice[i - lo].first;
      incident_[i] = slice[i - lo].second;
    }
    max_degree_ = std::max(max_degree_, hi - lo);
  }

  // Reciprocal ports: for each adjacency slot, the position of the
  // same edge within the other endpoint's slice. The cursor sweep
  // (shared with the streaming build) derives both directions from
  // slice order alone — no per-edge slot tables, no extra passes.
  mirror_.resize(2 * m);
  std::vector<std::size_t> sweep_cursor(n_);
  sweep_edge_slots(
      n_, offsets_, adjacency_, sweep_cursor,
      [&](Vertex u, Vertex w, std::size_t fwd_slot, std::size_t rev_slot) {
        mirror_[fwd_slot] =
            static_cast<std::uint32_t>(rev_slot - offsets_[w]);
        mirror_[rev_slot] =
            static_cast<std::uint32_t>(fwd_slot - offsets_[u]);
      });
}

bool Graph::has_edge(Vertex u, Vertex v) const {
  return find_edge(u, v) != kInvalidEdge;
}

EdgeId Graph::find_edge(Vertex u, Vertex v) const {
  VALOCAL_REQUIRE(u < n_ && v < n_, "vertex out of range");
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto nbrs = neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return kInvalidEdge;
  return incident_edges(u)[static_cast<std::size_t>(it - nbrs.begin())];
}

std::uint64_t GraphBuilder::key(Vertex u, Vertex v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

bool GraphBuilder::add_edge(Vertex u, Vertex v) {
  VALOCAL_REQUIRE(u < n_ && v < n_, "edge endpoint out of range");
  if (u == v) return false;
  if (!seen_.insert(key(u, v)).second) return false;
  edges_.emplace_back(u, v);
  return true;
}

bool GraphBuilder::has_edge(Vertex u, Vertex v) const {
  return seen_.contains(key(u, v));
}

Graph GraphBuilder::build() && {
  return Graph(n_, std::move(edges_));
}

}  // namespace valocal
