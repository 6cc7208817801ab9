#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "common/random.h"
#include "core/kernels.h"
#include "core/reduction_context.h"
#include "core/two_hop_graph.h"
#include "graph/generators.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::MakeGraph;
using ::fairbc::testing::RandomSmallGraph;

SideMasks AllAlive(const BipartiteGraph& g) {
  SideMasks masks;
  masks.upper_alive.assign(g.NumUpper(), 1);
  masks.lower_alive.assign(g.NumLower(), 1);
  return masks;
}

// Naive O(n^2) reference: count common alive neighbors directly.
UnipartiteGraph NaiveTwoHop(const BipartiteGraph& g, std::uint32_t alpha,
                            const SideMasks& masks, bool per_attr,
                            Side fair_side = Side::kLower) {
  const Side other = Opposite(fair_side);
  const VertexId n = g.NumVertices(fair_side);
  const auto& fair_alive =
      fair_side == Side::kLower ? masks.lower_alive : masks.upper_alive;
  const auto& other_alive =
      fair_side == Side::kLower ? masks.upper_alive : masks.lower_alive;
  std::vector<AttrId> attrs(n);
  for (VertexId v = 0; v < n; ++v) {
    attrs[v] = g.Attr(fair_side, v);
  }
  std::vector<std::pair<VertexId, VertexId>> edges;
  const AttrId au = g.NumAttrs(other);
  for (VertexId a = 0; a < n; ++a) {
    if (!fair_alive[a]) continue;
    for (VertexId b = a + 1; b < n; ++b) {
      if (!fair_alive[b]) continue;
      SizeVector common(au, 0);
      for (VertexId u : g.Neighbors(fair_side, a)) {
        if (!other_alive[u]) continue;
        auto nb = g.Neighbors(fair_side, b);
        if (std::binary_search(nb.begin(), nb.end(), u)) {
          ++common[g.Attr(other, u)];
        }
      }
      bool connect;
      if (per_attr) {
        connect = true;
        for (auto c : common) connect &= (c >= alpha);
      } else {
        std::uint32_t total = 0;
        for (auto c : common) total += c;
        connect = total >= alpha;
      }
      if (connect) edges.emplace_back(a, b);
    }
  }
  return UnipartiteGraph::FromEdges(n, edges, std::move(attrs),
                                    g.NumAttrs(fair_side));
}

// Isomorphic copy of `g` with both sides' ids randomly permuted (attributes
// follow their vertices), so id-order effects in the construction show.
BipartiteGraph PermuteIds(const BipartiteGraph& g, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexId> upper_id(g.NumUpper());
  std::vector<VertexId> lower_id(g.NumLower());
  for (VertexId i = 0; i < g.NumUpper(); ++i) upper_id[i] = i;
  for (VertexId i = 0; i < g.NumLower(); ++i) lower_id[i] = i;
  rng.Shuffle(upper_id);
  rng.Shuffle(lower_id);
  std::vector<AttrId> upper_attrs(g.NumUpper());
  std::vector<AttrId> lower_attrs(g.NumLower());
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < g.NumUpper(); ++u) {
    upper_attrs[upper_id[u]] = g.Attr(Side::kUpper, u);
    for (VertexId v : g.Neighbors(Side::kUpper, u)) {
      edges.emplace_back(upper_id[u], lower_id[v]);
    }
  }
  for (VertexId v = 0; v < g.NumLower(); ++v) {
    lower_attrs[lower_id[v]] = g.Attr(Side::kLower, v);
  }
  return MakeGraph(g.NumUpper(), g.NumLower(), edges, upper_attrs,
                   lower_attrs, g.NumAttrs(Side::kUpper),
                   g.NumAttrs(Side::kLower));
}

TEST(TwoHop, SimpleSharedNeighbors) {
  // v0 and v1 share u0,u1; v2 shares only u1 with them.
  BipartiteGraph g = MakeGraph(2, 3,
                               {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2}},
                               {0, 1}, {0, 1, 0});
  UnipartiteGraph h = Construct2HopGraph(g, Side::kLower, 2, AllAlive(g));
  const auto adj = h.AdjacencyLists();
  EXPECT_EQ(adj[0], (std::vector<VertexId>{1}));
  EXPECT_EQ(adj[1], (std::vector<VertexId>{0}));
  EXPECT_TRUE(adj[2].empty());
  EXPECT_EQ(h.NumEdges(), 1u);
}

TEST(TwoHop, MatchesNaiveOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 10, 0.4);
    SideMasks masks = AllAlive(g);
    // Kill a few vertices to exercise mask handling.
    if (g.NumUpper() > 2) masks.upper_alive[0] = 0;
    if (g.NumLower() > 2) masks.lower_alive[1] = 0;
    for (std::uint32_t alpha : {1u, 2u, 3u}) {
      UnipartiteGraph fast = Construct2HopGraph(g, Side::kLower, alpha, masks);
      UnipartiteGraph slow = NaiveTwoHop(g, alpha, masks, false);
      EXPECT_EQ(fast, slow) << "seed=" << seed << " alpha=" << alpha;
    }
  }
}

TEST(BiTwoHop, MatchesNaiveOnRandomGraphs) {
  for (std::uint64_t seed = 50; seed < 75; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 10, 0.45);
    SideMasks masks = AllAlive(g);
    for (std::uint32_t alpha : {1u, 2u}) {
      UnipartiteGraph fast = BiConstruct2HopGraph(g, Side::kLower, alpha, masks);
      UnipartiteGraph slow = NaiveTwoHop(g, alpha, masks, true);
      EXPECT_EQ(fast, slow) << "seed=" << seed << " alpha=" << alpha;
    }
  }
}

TEST(BiTwoHop, RequiresCommonNeighborsPerClass) {
  // v0,v1 share two class-0 uppers but no class-1 upper.
  BipartiteGraph g = MakeGraph(3, 2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}},
                               {0, 0, 1}, {0, 1});
  UnipartiteGraph h = BiConstruct2HopGraph(g, Side::kLower, 1, AllAlive(g));
  EXPECT_TRUE(h.Neighbors(0).empty());
  EXPECT_TRUE(h.Neighbors(1).empty());
}

TEST(TwoHop, UpperSideConstruction) {
  // Build the 2-hop graph on the upper side (used by BCFCore).
  BipartiteGraph g = MakeGraph(3, 2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 1}},
                               {0, 1, 0}, {0, 1});
  UnipartiteGraph h = Construct2HopGraph(g, Side::kUpper, 2, AllAlive(g));
  // u0,u1 share v0,v1; u2 shares only v1.
  const auto adj = h.AdjacencyLists();
  EXPECT_EQ(adj[0], (std::vector<VertexId>{1}));
  EXPECT_EQ(adj[1], (std::vector<VertexId>{0}));
  EXPECT_TRUE(adj[2].empty());
  EXPECT_EQ(h.num_attrs, g.NumAttrs(Side::kUpper));
}

TEST(TwoHop, MemoryBytesNonZero) {
  BipartiteGraph g = RandomSmallGraph(7, 10, 0.5);
  UnipartiteGraph h = Construct2HopGraph(g, Side::kLower, 1, AllAlive(g));
  EXPECT_GT(h.MemoryBytes(), 0u);
}

TEST(TwoHop, MemoryBytesCoversCsrArraysExactly) {
  BipartiteGraph g = RandomSmallGraph(7, 10, 0.5);
  UnipartiteGraph h = Construct2HopGraph(g, Side::kLower, 1, AllAlive(g));
  // Independently computed from the element counts: n+1 offsets, one
  // attr per vertex, each undirected edge stored twice. Construction is
  // exact-fit, so the report must match with no per-vector bookkeeping
  // approximations or overhead terms.
  const std::size_t n = h.NumVertices();
  EXPECT_EQ(h.MemoryBytes(), (n + 1) * sizeof(EdgeIndex) +
                                 2 * h.NumEdges() * sizeof(VertexId) +
                                 n * sizeof(AttrId));
}

// The sharded parallel construction must produce byte-identical CSR
// output (offsets, neighbors, attrs) at every thread count, on both the
// single-side and bi-side variants.
TEST(TwoHop, ParallelConstructionByteIdentical) {
  std::vector<BipartiteGraph> graphs;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    graphs.push_back(RandomSmallGraph(seed, 12, 0.4));
  }
  graphs.push_back(MakeUniformRandom(300, 300, 2400, 2, 33));
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const BipartiteGraph& g = graphs[i];
    SideMasks masks = AllAlive(g);
    if (g.NumUpper() > 2) masks.upper_alive[0] = 0;
    if (g.NumLower() > 2) masks.lower_alive[1] = 0;
    for (std::uint32_t alpha : {1u, 2u}) {
      const UnipartiteGraph serial =
          Construct2HopGraph(g, Side::kLower, alpha, masks);
      const UnipartiteGraph serial_bi =
          BiConstruct2HopGraph(g, Side::kLower, alpha, masks);
      for (unsigned threads : {2u, 8u}) {
        ReductionContext ctx(threads);
        EXPECT_EQ(serial, Construct2HopGraph(g, Side::kLower, alpha, masks,
                                             &ctx))
            << "graph=" << i << " alpha=" << alpha << " threads=" << threads;
        EXPECT_EQ(serial_bi, BiConstruct2HopGraph(g, Side::kLower, alpha,
                                                  masks, &ctx))
            << "graph=" << i << " alpha=" << alpha << " threads=" << threads;
      }
    }
  }
}

// Every row strictly increasing (sorted, no duplicates, no self loop) and
// every edge stored in both rows.
void ExpectSortedAndSymmetric(const UnipartiteGraph& h,
                              const std::string& where) {
  for (VertexId v = 0; v < h.NumVertices(); ++v) {
    auto row = h.Neighbors(v);
    EXPECT_TRUE(std::adjacent_find(row.begin(), row.end(),
                                   std::greater_equal<VertexId>()) ==
                row.end())
        << where << " row " << v << " not strictly increasing";
    for (VertexId w : row) {
      EXPECT_NE(w, v) << where;
      auto back = h.Neighbors(w);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), v))
          << where << " edge " << v << "-" << w << " stored once";
    }
  }
}

// The half-wedge construction against the naive oracle on both sides and
// both forms: a 3-class uniform graph and a skewed power-law graph, each
// with randomly permuted ids and random dead vertices, at threads
// {1, 2, 8}.
TEST(TwoHop, HalfWedgeMatchesNaiveOnBothSidesPermuted) {
  std::vector<BipartiteGraph> graphs;
  graphs.push_back(PermuteIds(MakeUniformRandom(90, 70, 1200, 3, 21), 1));
  graphs.push_back(PermuteIds(MakePowerLaw(300, 300, 3000, 2.1, 2, 22), 2));
  Rng rng(23);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const BipartiteGraph& g = graphs[i];
    SideMasks masks = AllAlive(g);
    for (auto& alive : masks.upper_alive) alive = rng.NextBool(0.85);
    for (auto& alive : masks.lower_alive) alive = rng.NextBool(0.85);
    for (Side side : {Side::kLower, Side::kUpper}) {
      for (bool per_attr : {false, true}) {
        for (std::uint32_t alpha : {1u, 2u, 3u}) {
          const UnipartiteGraph naive =
              NaiveTwoHop(g, alpha, masks, per_attr, side);
          for (unsigned threads : {1u, 2u, 8u}) {
            ReductionContext ctx(threads);
            const UnipartiteGraph h =
                per_attr ? BiConstruct2HopGraph(g, side, alpha, masks, &ctx)
                         : Construct2HopGraph(g, side, alpha, masks, &ctx);
            const std::string where =
                "graph=" + std::to_string(i) +
                " side=" + std::to_string(static_cast<int>(side)) +
                " per_attr=" + std::to_string(per_attr) +
                " alpha=" + std::to_string(alpha) +
                " threads=" + std::to_string(threads);
            EXPECT_EQ(h, naive) << where;
            ExpectSortedAndSymmetric(h, where);
          }
        }
      }
    }
  }
}

TEST(Intersect, Helpers) {
  std::vector<VertexId> a{1, 3, 5, 7};
  std::vector<VertexId> b{2, 3, 5, 8};
  EXPECT_EQ(IntersectSize(a, b), 2u);
  std::vector<VertexId> out(a.size());
  out.resize(IntersectInto(out.data(), a, b));
  EXPECT_EQ(out, (std::vector<VertexId>{3, 5}));
  EXPECT_EQ(IntersectSize(a, {}), 0u);
  EXPECT_EQ(IntersectInto(out.data(), {}, b), 0u);
}

}  // namespace
}  // namespace fairbc
