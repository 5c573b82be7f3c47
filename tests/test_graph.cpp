#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "util/thread_pool.hpp"

namespace valocal {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(Graph, SingleEdge) {
  Graph g(2, {{0, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_EQ(g.edge_u(0), 0u);
  EXPECT_EQ(g.edge_v(0), 1u);
  EXPECT_EQ(g.other_endpoint(0, 0), 1u);
  EXPECT_EQ(g.other_endpoint(0, 1), 0u);
}

TEST(Graph, EndpointsNormalized) {
  Graph g(3, {{2, 0}, {2, 1}});
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    EXPECT_LT(g.edge_u(e), g.edge_v(e));
}

TEST(Graph, NeighborsSortedAndAligned) {
  Graph g(5, {{0, 3}, {0, 1}, {0, 4}, {0, 2}});
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  const auto inc = g.incident_edges(0);
  for (std::size_t i = 0; i < nbrs.size(); ++i)
    EXPECT_EQ(g.other_endpoint(inc[i], 0), nbrs[i]);
}

TEST(Graph, FindEdge) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.find_edge(1, 2), g.find_edge(2, 1));
  EXPECT_NE(g.find_edge(0, 1), kInvalidEdge);
  EXPECT_EQ(g.find_edge(0, 2), kInvalidEdge);
  EXPECT_EQ(g.find_edge(0, 3), kInvalidEdge);
}

TEST(Graph, MaxDegree) {
  Graph g(5, {{0, 1}, {0, 2}, {0, 3}, {3, 4}});
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(GraphBuilder, DeduplicatesEdges) {
  GraphBuilder b(3);
  EXPECT_TRUE(b.add_edge(0, 1));
  EXPECT_FALSE(b.add_edge(1, 0));  // same edge, reversed
  EXPECT_FALSE(b.add_edge(0, 0));  // self-loop rejected
  EXPECT_TRUE(b.add_edge(1, 2));
  EXPECT_TRUE(b.has_edge(0, 1));
  EXPECT_FALSE(b.has_edge(0, 2));
  Graph g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Graph, DegreeSumIsTwiceEdges) {
  Graph g(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}});
  std::size_t sum = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) sum += g.degree(v);
  EXPECT_EQ(sum, 2 * g.num_edges());
}

TEST(Graph, RejectsVertexCountsBeyond32BitIds) {
  // Regression: generators take std::size_t n but Vertex is uint32, so
  // n > 2^32 - 1 used to truncate silently inside the CSR arrays.
  // Every construction path must refuse up front (the guard fires
  // before any allocation, so the death is cheap).
  const std::size_t too_many = kMaxVertices + 1;
  EXPECT_DEATH((void)GraphBuilder(too_many), "32-bit id limit");
  EXPECT_DEATH((void)Graph(too_many, {}), "32-bit id limit");
  const std::vector<Vertex> no_pairs;
  const SpanEdgeSource empty{std::span<const Vertex>(no_pairs)};
  EXPECT_DEATH((void)Graph::from_source(too_many, empty),
               "32-bit id limit");
}

// --- Streaming CSR build (Graph::from_source) ---

// Interleaved (u, v) pairs of g's edges, the generator-exchange shape.
std::vector<Vertex> interleaved_pairs(const Graph& g) {
  std::vector<Vertex> pairs;
  pairs.reserve(2 * g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    pairs.push_back(g.edge_u(e));
    pairs.push_back(g.edge_v(e));
  }
  return pairs;
}

// The reciprocal-port invariant every algorithm relies on: the mirror
// of position i at v points back at v, at the position that mirrors i,
// over the same edge id.
void expect_ports_consistent(const Graph& g) {
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto inc = g.incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Vertex w = nbrs[i];
      const std::size_t j = g.neighbor_port(v, i);
      ASSERT_LT(j, g.degree(w));
      ASSERT_EQ(g.neighbors(w)[j], v);
      ASSERT_EQ(g.neighbor_port(w, j), i);
      ASSERT_EQ(g.incident_edges(w)[j], inc[i]);
    }
  }
}

// Same adjacency structure (ids may differ: from_source assigns
// canonical lexicographic edge ids, the staged path input order).
void expect_same_structure(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v), nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "neighbors of " << v;
  }
}

// Identical down to edge ids, incident lists and reciprocal ports.
void expect_identical(const Graph& a, const Graph& b) {
  expect_same_structure(a, b);
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    ASSERT_EQ(a.edge_u(e), b.edge_u(e)) << "edge " << e;
    ASSERT_EQ(a.edge_v(e), b.edge_v(e)) << "edge " << e;
  }
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    const auto ia = a.incident_edges(v), ib = b.incident_edges(v);
    ASSERT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin(), ib.end()))
        << "incident edges of " << v;
    for (std::size_t i = 0; i < ia.size(); ++i)
      ASSERT_EQ(a.neighbor_port(v, i), b.neighbor_port(v, i))
          << "port " << i << " of " << v;
  }
}

TEST(GraphFromSource, MatchesStagedBuildOnEveryGeneratorFamily) {
  const std::vector<std::pair<const char*, Graph>> families = [] {
    std::vector<std::pair<const char*, Graph>> out;
    out.emplace_back("ring", gen::ring(64));
    out.emplace_back("path", gen::path(50));
    out.emplace_back("star", gen::star(40));
    out.emplace_back("complete", gen::complete(20));
    out.emplace_back("dary_tree", gen::dary_tree(60, 3));
    out.emplace_back("random_tree", gen::random_tree(80, 7));
    out.emplace_back("grid", gen::grid(8, 9));
    out.emplace_back("torus", gen::torus(5, 6));
    out.emplace_back("hypercube", gen::hypercube(5));
    out.emplace_back("forest_union", gen::forest_union(120, 3, 11));
    out.emplace_back("erdos_renyi", gen::erdos_renyi(150, 6.0, 13));
    out.emplace_back("barabasi_albert", gen::barabasi_albert(90, 3, 17));
    out.emplace_back("caterpillar", gen::caterpillar(12, 4));
    out.emplace_back("star_union", gen::star_union(100, 5));
    out.emplace_back("random_regular", gen::random_regular(64, 4, 19));
    out.emplace_back("random_bipartite",
                     gen::random_bipartite(30, 40, 150, 23));
    return out;
  }();
  for (const auto& [name, g] : families) {
    SCOPED_TRACE(name);
    const std::vector<Vertex> pairs = interleaved_pairs(g);
    const SpanEdgeSource src(pairs);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const Graph streamed =
          Graph::from_source(g.num_vertices(), src, threads);
      expect_same_structure(streamed, g);
      expect_ports_consistent(streamed);
    }
  }
}

TEST(GraphFromSource, DropsSelfLoopsAndDuplicates) {
  // Generator-exchange semantics (unlike the rejecting vector ctor):
  // raw streams carry self-loops and repeats in both orientations.
  const std::vector<Vertex> pairs = {0, 1, 1, 0, 2, 2, 1, 2, 1, 2, 3, 3};
  const Graph g =
      Graph::from_source(4, SpanEdgeSource(pairs));
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(2, 2));
  expect_ports_consistent(g);
}

TEST(GraphFromSource, CanonicalEdgeIdsRegardlessOfPairOrder) {
  const std::vector<Vertex> forward = {0, 1, 0, 2, 1, 2};
  const std::vector<Vertex> shuffled = {2, 1, 2, 0, 1, 0};
  const Graph a = Graph::from_source(3, SpanEdgeSource(forward));
  const Graph b = Graph::from_source(3, SpanEdgeSource(shuffled));
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge_u(e), b.edge_u(e));
    EXPECT_EQ(a.edge_v(e), b.edge_v(e));
  }
  // Lexicographic by (u, v): ids are sorted.
  for (EdgeId e = 1; e < a.num_edges(); ++e) {
    const bool ordered =
        a.edge_u(e - 1) < a.edge_u(e) ||
        (a.edge_u(e - 1) == a.edge_u(e) && a.edge_v(e - 1) < a.edge_v(e));
    EXPECT_TRUE(ordered) << "edge " << e;
  }
}

TEST(GraphFromSource, OutOfRangeEndpointDies) {
  const std::vector<Vertex> pairs = {0, 1, 5, 1};
  EXPECT_DEATH((void)Graph::from_source(3, SpanEdgeSource(pairs)),
               "out of range");
}

// A deliberately inconsistent source: the first stream() yields
// `first`, every later call `second`, violating the "same multiset on
// every call" contract the two-pass build relies on.
class ChangingSource final : public EdgeBlockSource {
 public:
  ChangingSource(std::vector<Vertex> first, std::vector<Vertex> second)
      : first_(std::move(first)), second_(std::move(second)) {}

  std::uint64_t num_pairs() const override { return first_.size() / 2; }
  void stream(std::size_t /*num_threads*/, const BlockFn& fn) const override {
    fn(calls_++ == 0 ? first_ : second_);
  }

 private:
  std::vector<Vertex> first_, second_;
  mutable int calls_ = 0;
};

TEST(GraphFromSource, SourceChangingBetweenPassesDies) {
  // Same slot total, but vertex 0 gains a pair the second time: its
  // cursor would run into vertex 1's slice.
  EXPECT_DEATH((void)Graph::from_source(
                   3, ChangingSource({0, 1, 1, 2}, {0, 1, 0, 2})),
               "edge source changed between passes");
  // Same slot total, but the last vertex gains a pair: its cursor would
  // run past the end of the buffer.
  EXPECT_DEATH((void)Graph::from_source(
                   3, ChangingSource({0, 1, 0, 2}, {0, 2, 1, 2})),
               "edge source changed between passes");
  // Fewer pairs: slots would stay unwritten.
  EXPECT_DEATH((void)Graph::from_source(
                   3, ChangingSource({0, 1, 1, 2}, {0, 1})),
               "edge source changed between passes");
  // A half pair on the second pass only.
  EXPECT_DEATH((void)Graph::from_source(
                   3, ChangingSource({0, 1}, {0, 1, 2})),
               "edge source changed between passes");
}

// Streams interleaved pairs in small blocks across a thread pool, so a
// multi-threaded build really consumes blocks concurrently and in a
// schedule-dependent order (SpanEdgeSource's blocks are 2^20 pairs).
class SmallBlockSource final : public EdgeBlockSource {
 public:
  explicit SmallBlockSource(std::span<const Vertex> pairs) : pairs_(pairs) {}

  std::uint64_t num_pairs() const override { return pairs_.size() / 2; }
  void stream(std::size_t num_threads, const BlockFn& fn) const override {
    ThreadPool pool(num_threads);
    pool.parallel_for_chunks(
        pairs_.size() / 2, 64,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          fn(pairs_.subspan(2 * begin, 2 * (end - begin)));
        });
  }

 private:
  std::span<const Vertex> pairs_;
};

TEST(GraphFromSource, HubMultigraphDedupIsThreadCountIndependent) {
  // Two hubs joined to every other vertex (and to each other), each
  // edge repeated in both orientations, plus a path-like sprinkle and a
  // self-loop at every vertex: the transpose must leave the hubs' long
  // slices sorted with duplicates adjacent, and the dedup sweep must
  // collapse them.
  constexpr Vertex kN = 3000;
  std::vector<Vertex> pairs;
  for (Vertex rep = 0; rep < 3; ++rep)
    for (Vertex v = 0; v < kN; ++v) {
      for (const Vertex hub : {Vertex{0}, Vertex{1}}) {
        if (v == hub) continue;
        pairs.insert(pairs.end(), {hub, v, v, hub});
      }
      if (v + 1 < kN && v % 7 == 0) pairs.insert(pairs.end(), {v + 1, v});
      pairs.insert(pairs.end(), {v, v});
    }
  const SmallBlockSource src(pairs);
  const Graph g1 = Graph::from_source(kN, src, 1);
  EXPECT_EQ(g1.max_degree(), std::size_t{kN - 1});
  EXPECT_EQ(g1.degree(0), std::size_t{kN - 1});
  EXPECT_EQ(g1.degree(1), std::size_t{kN - 1});
  expect_ports_consistent(g1);
  for (const std::size_t threads : {std::size_t{3}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    const Graph g = Graph::from_source(kN, src, threads);
    expect_identical(g, g1);
    EXPECT_EQ(g.max_degree(), g1.max_degree());
    expect_ports_consistent(g);
  }
}

TEST(GraphFromSource, EmptySource) {
  const std::vector<Vertex> no_pairs;
  const Graph g =
      Graph::from_source(5, SpanEdgeSource(std::span<const Vertex>(no_pairs)));
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  const Graph empty = Graph::from_source(0, SpanEdgeSource({}));
  EXPECT_EQ(empty.num_vertices(), 0u);
}

}  // namespace
}  // namespace valocal
