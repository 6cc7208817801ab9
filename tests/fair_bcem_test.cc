#include <gtest/gtest.h>

#include <random>

#include "core/bruteforce.h"
#include "core/fair_bcem.h"
#include "core/fair_bcem_pp.h"
#include "core/pipeline.h"
#include "service/query.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::Canonicalize;
using ::fairbc::testing::Collect;
using ::fairbc::testing::MakeGraph;
using ::fairbc::testing::PaperExampleGraph;
using ::fairbc::testing::RandomSmallGraph;

TEST(FairBcem, PlantedFairBicliqueFound) {
  BipartiteGraph g = PaperExampleGraph();
  FairBicliqueParams params{1, 2, 1, 0.0};
  auto results = Collect(EnumerateSSFBC, g, params);
  ASSERT_FALSE(results.empty());
  // The planted biclique {u2,u3} x {v1,v3,v5,v8} must appear.
  Biclique planted;
  planted.upper = {2, 3};
  planted.lower = {1, 3, 5, 8};
  EXPECT_TRUE(std::find(results.begin(), results.end(), planted) !=
              results.end());
  // And it matches the oracle.
  EXPECT_EQ(results, Canonicalize(BruteForceSSFBC(g, params)));
}

TEST(FairBcem, NoFairBicliqueWhenClassMissing) {
  // All lower vertices in class 0: beta >= 1 on class 1 can't be met.
  BipartiteGraph g = MakeGraph(2, 3, {{0, 0}, {0, 1}, {1, 1}, {1, 2}},
                               {0, 1}, {0, 0, 0});
  FairBicliqueParams params{1, 1, 2, 0.0};
  EXPECT_TRUE(Collect(EnumerateSSFBC, g, params).empty());
  EXPECT_TRUE(Collect(EnumerateSSFBCPlusPlus, g, params).empty());
}

TEST(FairBcem, DeltaZeroForcesExactBalance) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 2; ++u) {
    for (VertexId v = 0; v < 5; ++v) edges.emplace_back(u, v);
  }
  // Lower classes: 3 of class 0, 2 of class 1.
  BipartiteGraph g = MakeGraph(2, 5, edges, {0, 1}, {0, 0, 0, 1, 1});
  FairBicliqueParams params{1, 1, 0, 0.0};
  auto results = Collect(EnumerateSSFBC, g, params);
  // Maximal fair subsets pick 2 of the 3 class-0 vertices: C(3,2)=3.
  EXPECT_EQ(results.size(), 3u);
  for (const auto& b : results) {
    EXPECT_EQ(b.lower.size(), 4u);
  }
  EXPECT_EQ(results, Canonicalize(BruteForceSSFBC(g, params)));
}

TEST(FairBcem, AlphaFiltersSmallUpperSides) {
  BipartiteGraph g = MakeGraph(2, 2, {{0, 0}, {0, 1}, {1, 0}}, {0, 1}, {0, 1});
  // alpha=2: only bicliques whose common neighborhood has both uppers.
  FairBicliqueParams params{2, 1, 1, 0.0};
  auto results = Collect(EnumerateSSFBC, g, params);
  EXPECT_EQ(results, Canonicalize(BruteForceSSFBC(g, params)));
  for (const auto& b : results) EXPECT_GE(b.upper.size(), 2u);
}

TEST(FairBcem, SearchOptionAblationsStayCorrect) {
  // Each pruning observation can be disabled independently without
  // changing the output (only the search size).
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 7, 0.5);
    FairBicliqueParams params{1, 1, 1, 0.0};
    auto oracle = Canonicalize(BruteForceSSFBC(g, params));
    for (int off_bit = 0; off_bit < 5; ++off_bit) {
      FairBcemSearchOptions search;
      if (off_bit == 0) search.prune_small_l = false;
      if (off_bit == 1) search.prune_excluded_full = false;
      if (off_bit == 2) search.prune_class_counts = false;
      if (off_bit == 3) search.absorb_full_candidates = false;
      if (off_bit == 4) search.filter_candidates_alpha = false;
      CollectSink sink;
      EnumerateSSFBCWithSearchOptions(g, params, {}, search, sink.AsSink());
      EXPECT_EQ(Canonicalize(sink.results()), oracle)
          << "seed=" << seed << " off_bit=" << off_bit;
    }
  }
}

TEST(FairBcem, NodeBudgetReportsExhaustion) {
  BipartiteGraph g = RandomSmallGraph(3, 14, 0.5);
  FairBicliqueParams params{1, 1, 2, 0.0};
  EnumOptions options;
  options.node_budget = 2;
  CountSink sink;
  EnumStats stats = EnumerateSSFBC(g, params, options, sink.AsSink());
  EXPECT_TRUE(stats.budget_exhausted);
}

TEST(FairBcem, StatsReportRemainingVertices) {
  BipartiteGraph g = RandomSmallGraph(4, 10, 0.4);
  FairBicliqueParams params{2, 2, 1, 0.0};
  CountSink sink;
  EnumStats stats = EnumerateSSFBC(g, params, {}, sink.AsSink());
  EXPECT_LE(stats.remaining_upper, g.NumUpper());
  EXPECT_LE(stats.remaining_lower, g.NumLower());
  EXPECT_EQ(stats.num_results, sink.count());
  EXPECT_FALSE(stats.DebugString().empty());
}

TEST(FairBcemPp, CountsMaximalBicliquesVisited) {
  BipartiteGraph g = RandomSmallGraph(8, 10, 0.4);
  FairBicliqueParams params{1, 1, 1, 0.0};
  CountSink sink;
  EnumStats stats = EnumerateSSFBCPlusPlus(g, params, {}, sink.AsSink());
  EXPECT_GE(stats.maximal_bicliques_visited, 0u);
}

// Two planted 3 x 130 blocks, so FairBCEM++'s blocker masks span three
// words. Block A's lower classes are (44,43,43), block B's (43,43,44);
// each block's surplus vertex sits at its last position (129, the third
// word). With beta = 43 and delta = 0 neither block is fair and their
// maximal fair subsets drop one surplus-class vertex each. Per block:
//   - one upper misses the last position and one misses a surplus-class
//     vertex in the first word: each blocks exactly the subset that
//     avoids its missed vertex, which comes back with the blocker regrown
//     into its upper side;
//   - (A only) one upper misses a class-1 vertex at position 64: as wide
//     as every subset, so the popcount cut keeps it, but it contains none.
// Uppers 11..16 touch ~20 random lower vertices each: narrow blockers the
// popcount cut skips. beta = 43 also keeps FairBCEM's search small (no
// class can lose more than one vertex), so it can serve as the oracle.
struct MultiWordGraph {
  BipartiteGraph g;
  std::vector<VertexId> r_a;
};

MultiWordGraph MakeMultiWordGraph() {
  std::vector<AttrId> lower_attrs;
  // Lower ids for a block with the given class counts, assigned round
  // robin over the classes that still have vertices left.
  auto add_block = [&](std::vector<std::uint32_t> counts) {
    std::vector<VertexId> ids;
    while (counts[0] + counts[1] + counts[2] > 0) {
      for (AttrId a = 0; a < 3; ++a) {
        if (counts[a] == 0) continue;
        --counts[a];
        ids.push_back(static_cast<VertexId>(lower_attrs.size()));
        lower_attrs.push_back(a);
      }
    }
    return ids;
  };
  const std::vector<VertexId> r_a = add_block({44, 43, 43});
  const std::vector<VertexId> r_b = add_block({43, 43, 44});
  std::vector<std::pair<VertexId, VertexId>> edges;
  auto connect = [&](VertexId u, const std::vector<VertexId>& r,
                     std::size_t skip) {
    for (std::size_t i = 0; i < r.size(); ++i) {
      if (i != skip) edges.emplace_back(u, r[i]);
    }
  };
  for (VertexId u : {0u, 1u, 2u}) connect(u, r_a, r_a.size());
  connect(3, r_a, 129);
  connect(4, r_a, 0);
  connect(5, r_a, 64);
  for (VertexId u : {6u, 7u, 8u}) connect(u, r_b, r_b.size());
  connect(9, r_b, 129);
  connect(10, r_b, 2);
  std::mt19937 rng(11);
  std::uniform_int_distribution<VertexId> pick(
      0, static_cast<VertexId>(lower_attrs.size() - 1));
  for (VertexId u = 11; u < 17; ++u) {
    for (int k = 0; k < 20; ++k) edges.emplace_back(u, pick(rng));
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::vector<AttrId> upper_attrs(17);
  for (VertexId u = 0; u < 17; ++u) upper_attrs[u] = u % 2;
  return {MakeGraph(17, static_cast<VertexId>(lower_attrs.size()), edges,
                    upper_attrs, lower_attrs, 2, 3),
          r_a};
}

std::uint64_t Digest(const std::vector<Biclique>& results) {
  std::uint64_t digest = 0;
  for (const Biclique& b : results) digest += BicliqueHash(b);
  return digest;
}

TEST(FairBcemPp, MultiWordMasksMatchFairBcem) {
  const MultiWordGraph mw = MakeMultiWordGraph();
  // Block A's subset without its last vertex has common neighbourhood
  // {0,1,2,3}: it must come out with upper 3 regrown, never with {0,1,2}.
  Biclique regrown;
  regrown.lower.assign(mw.r_a.begin(), mw.r_a.end() - 1);
  regrown.upper = {0, 1, 2};
  const Biclique blocked = regrown;
  regrown.upper = {0, 1, 2, 3};

  for (const FairBicliqueParams& params : {FairBicliqueParams{1, 43, 0, 0.0},
                                           FairBicliqueParams{1, 43, 0, 0.3}}) {
    CollectSink oracle_sink;
    FairBcemRun(mw.g, params, params.alpha, {}, FairBcemSearchOptions{},
                oracle_sink.AsSink());
    const std::vector<Biclique> oracle = Canonicalize(oracle_sink.results());
    ASSERT_EQ(oracle.size(), 88u) << "theta=" << params.theta;
    for (unsigned threads : {1u, 4u}) {
      EnumOptions options;
      options.num_threads = threads;
      CollectSink sink;
      EnumStats stats = FairBcemPpRun(mw.g, params, params.alpha, options,
                                      sink.AsSink());
      const std::vector<Biclique> results = Canonicalize(sink.results());
      EXPECT_EQ(stats.num_results, results.size());
      EXPECT_EQ(results, oracle)
          << "theta=" << params.theta << " threads=" << threads;
      EXPECT_EQ(Digest(results), Digest(oracle));
      EXPECT_TRUE(
          std::binary_search(results.begin(), results.end(), regrown));
      EXPECT_FALSE(
          std::binary_search(results.begin(), results.end(), blocked));
    }
  }
}

TEST(FairBcem, EmptyGraph) {
  BipartiteGraph g;
  FairBicliqueParams params{1, 1, 1, 0.0};
  CountSink sink;
  EnumStats stats = EnumerateSSFBC(g, params, {}, sink.AsSink());
  EXPECT_EQ(stats.num_results, 0u);
}

}  // namespace
}  // namespace fairbc
