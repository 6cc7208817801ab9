#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <random>
#include <set>

#include "fairness/combination.h"
#include "fairness/fair_set.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::MakeGraph;
using Mask = std::span<const std::uint64_t>;

BipartiteGraph AttrOnlyGraph(const std::vector<AttrId>& lower_attrs,
                             AttrId num_attrs = 2) {
  // Graph whose lower side carries the attributes; edges irrelevant here.
  std::vector<AttrId> upper{0};
  return MakeGraph(1, static_cast<VertexId>(lower_attrs.size()), {{0, 0}},
                   upper, lower_attrs, 2, num_attrs);
}

// Runs the enumerator on `ground` and checks each emission's two views
// against each other: the mask has ceil(|ground|/64) words, sets no bit
// past |ground|, and decodes to exactly the subset, which is sorted and
// duplicate-free. Returns the subsets in emission order.
std::vector<std::vector<VertexId>> EnumerateChecked(
    const BipartiteGraph& g, std::span<const VertexId> ground,
    const FairnessSpec& spec) {
  std::vector<std::vector<VertexId>> out;
  const std::size_t words = (ground.size() + 63) / 64;
  std::uint64_t n = EnumerateMaximalFairSubsets(
      g, Side::kLower, ground, spec,
      [&](std::span<const VertexId> s, Mask mask) {
        EXPECT_EQ(mask.size(), words);
        std::vector<VertexId> decoded;
        for (std::size_t i = 0; i < mask.size() * 64; ++i) {
          if (((mask[i / 64] >> (i % 64)) & 1u) == 0) continue;
          EXPECT_LT(i, ground.size());
          if (i < ground.size()) decoded.push_back(ground[i]);
        }
        std::sort(decoded.begin(), decoded.end());
        std::vector<VertexId> subset(s.begin(), s.end());
        EXPECT_EQ(std::adjacent_find(subset.begin(), subset.end(),
                                     std::greater_equal<VertexId>()),
                  subset.end());
        EXPECT_EQ(decoded, subset);
        out.push_back(std::move(subset));
        return true;
      });
  EXPECT_EQ(n, out.size());
  return out;
}

TEST(AttrSizes, CountsPerClass) {
  BipartiteGraph g = AttrOnlyGraph({0, 1, 0, 1, 1});
  std::vector<VertexId> all{0, 1, 2, 3, 4};
  SizeVector sizes = AttrSizes(g, Side::kLower, all);
  EXPECT_EQ(sizes, (SizeVector{2, 3}));
}

TEST(IsFairSet, RespectsSpec) {
  BipartiteGraph g = AttrOnlyGraph({0, 1, 0, 1, 1});
  FairnessSpec spec{2, 1, 0.0};
  std::vector<VertexId> all{0, 1, 2, 3, 4};   // (2,3)
  std::vector<VertexId> some{0, 1, 3, 4};     // (1,3)
  EXPECT_TRUE(IsFairSet(g, Side::kLower, all, spec));
  EXPECT_FALSE(IsFairSet(g, Side::kLower, some, spec));
}

TEST(IsMaximalFairSubset, SizeVectorCharacterization) {
  BipartiteGraph g = AttrOnlyGraph({0, 0, 0, 1, 1});
  FairnessSpec spec{1, 1, 0.0};
  std::vector<VertexId> ground{0, 1, 2, 3, 4};  // counts (3,2) -> t*=(3,2)
  std::vector<VertexId> full{0, 1, 2, 3, 4};
  std::vector<VertexId> partial{0, 1, 3, 4};  // (2,2)
  EXPECT_TRUE(IsMaximalFairSubset(g, Side::kLower, full, ground, spec));
  EXPECT_FALSE(IsMaximalFairSubset(g, Side::kLower, partial, ground, spec));
}

TEST(EnumerateMaximalFairSubsets, CountsMatchBinomials) {
  // counts (3,2), k=1, delta=0 -> t* = (2,2) -> C(3,2)*C(2,2) = 3 subsets.
  BipartiteGraph g = AttrOnlyGraph({0, 0, 0, 1, 1});
  FairnessSpec spec{1, 0, 0.0};
  std::vector<VertexId> ground{0, 1, 2, 3, 4};
  std::set<std::vector<VertexId>> seen;
  std::uint64_t n = EnumerateMaximalFairSubsets(
      g, Side::kLower, ground, spec, [&](std::span<const VertexId> s, Mask) {
        seen.insert(std::vector<VertexId>(s.begin(), s.end()));
        return true;
      });
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(CountMaximalFairSubsetsOf(g, Side::kLower, ground, spec), 3u);
  // Every emitted subset contains both lower-class vertices 3,4 and two
  // of {0,1,2}.
  for (const auto& s : seen) {
    ASSERT_EQ(s.size(), 4u);
    EXPECT_TRUE(std::find(s.begin(), s.end(), 3u) != s.end());
    EXPECT_TRUE(std::find(s.begin(), s.end(), 4u) != s.end());
  }
}

TEST(EnumerateMaximalFairSubsets, EmptyWhenInfeasible) {
  BipartiteGraph g = AttrOnlyGraph({0, 0, 0});  // class 1 empty
  FairnessSpec spec{1, 0, 0.0};
  std::vector<VertexId> ground{0, 1, 2};
  std::uint64_t n = EnumerateMaximalFairSubsets(
      g, Side::kLower, ground, spec,
      [](std::span<const VertexId>, Mask) { return true; });
  EXPECT_EQ(n, 0u);
}

TEST(EnumerateMaximalFairSubsets, SinkCanAbort) {
  // counts (3,2), delta 0 -> t* = (2,2) -> 3 subsets; abort after two.
  BipartiteGraph g = AttrOnlyGraph({0, 0, 0, 1, 1});
  FairnessSpec spec{1, 0, 0.0};
  std::vector<VertexId> ground{0, 1, 2, 3, 4};
  std::uint64_t calls = 0;
  EnumerateMaximalFairSubsets(g, Side::kLower, ground, spec,
                              [&](std::span<const VertexId>, Mask) {
                                ++calls;
                                return calls < 2;
                              });
  EXPECT_EQ(calls, 2u);
}

TEST(EnumerateMaximalFairSubsets, ProportionalMatchesSpec) {
  // counts (6,2), k=1, delta=4, theta=0.4: ratio cap floor(2*1.5)=3,
  // t* = (3, 2) -> C(6,3)*C(2,2) = 20 subsets, each of size 5 with
  // class shares (0.6, 0.4).
  BipartiteGraph g = AttrOnlyGraph({0, 0, 0, 0, 0, 0, 1, 1});
  FairnessSpec spec{1, 4, 0.4};
  std::vector<VertexId> ground{0, 1, 2, 3, 4, 5, 6, 7};
  std::uint64_t n = EnumerateMaximalFairSubsets(
      g, Side::kLower, ground, spec, [&](std::span<const VertexId> s, Mask) {
        EXPECT_EQ(s.size(), 5u);
        return true;
      });
  EXPECT_EQ(n, 20u);
}

TEST(EnumerateMaximalFairSubsets, SubsetOfGroundOnly) {
  BipartiteGraph g = AttrOnlyGraph({0, 1, 0, 1, 0, 1});
  FairnessSpec spec{1, 0, 0.0};
  std::vector<VertexId> ground{2, 3, 4, 5};  // exclude 0,1
  EnumerateMaximalFairSubsets(g, Side::kLower, ground, spec,
                              [&](std::span<const VertexId> s, Mask) {
                                for (VertexId v : s) EXPECT_GE(v, 2u);
                                return true;
                              });
}

TEST(EnumerateMaximalFairSubsets, MaskDecodesToSubsetAcrossWords) {
  // 140 ground vertices (three mask words): two of class 1, two of class
  // 2, the rest class 0, so delta=0 gives t* = (2,2,2) and C(136,2)
  // subsets whose class-0 picks range over every word.
  std::vector<AttrId> attrs(140, 0);
  attrs[30] = attrs[100] = 1;
  attrs[65] = attrs[129] = 2;
  BipartiteGraph g = AttrOnlyGraph(attrs, 3);
  FairnessSpec spec{1, 0, 0.0};
  std::vector<VertexId> ground(attrs.size());
  std::iota(ground.begin(), ground.end(), 0);
  auto sorted_run = EnumerateChecked(g, ground, spec);
  EXPECT_EQ(sorted_run.size(), 136u * 135u / 2u);
  EXPECT_EQ(sorted_run.size(),
            CountMaximalFairSubsetsOf(g, Side::kLower, ground, spec));
  std::set<std::vector<VertexId>> distinct(sorted_run.begin(),
                                           sorted_run.end());
  EXPECT_EQ(distinct.size(), sorted_run.size());

  // An unsorted ground set: positions index the given order, subsets
  // still arrive sorted, and the emitted family is the same.
  std::shuffle(ground.begin(), ground.end(), std::mt19937(7));
  auto shuffled_run = EnumerateChecked(g, ground, spec);
  EXPECT_EQ(std::set<std::vector<VertexId>>(shuffled_run.begin(),
                                            shuffled_run.end()),
            distinct);
}

TEST(EnumerateMaximalFairSubsets, DeltaCountsMatchAcrossThreeClasses) {
  // counts (4,5,7), k=1, delta=1 -> t* = (4,5,5) -> C(7,5) = 21 subsets.
  BipartiteGraph g =
      AttrOnlyGraph({2, 0, 1, 2, 0, 1, 2, 2, 0, 1, 2, 1, 0, 2, 1, 2}, 3);
  FairnessSpec spec{1, 1, 0.0};
  std::vector<VertexId> ground(16);
  std::iota(ground.begin(), ground.end(), 0);
  auto run = EnumerateChecked(g, ground, spec);
  EXPECT_EQ(run.size(), 21u);
  EXPECT_EQ(run.size(),
            CountMaximalFairSubsetsOf(g, Side::kLower, ground, spec));
  EXPECT_EQ(std::set<std::vector<VertexId>>(run.begin(), run.end()).size(),
            run.size());
  for (const auto& s : run) {
    EXPECT_TRUE(IsMaximalFairSubset(g, Side::kLower, s, ground, spec));
  }
}

TEST(EnumerateMaximalFairSubsets, ProportionalSeveralMaximalVectors) {
  // counts (1,3,4), k=1, delta=2, theta=0.2 has three maximal vectors,
  // (1,1,3), (1,2,2) and (1,3,1): 12 + 18 + 4 = 34 subsets.
  BipartiteGraph g = AttrOnlyGraph({2, 1, 0, 2, 1, 2, 1, 2}, 3);
  FairnessSpec spec{1, 2, 0.2};
  std::vector<VertexId> ground{0, 1, 2, 3, 4, 5, 6, 7};
  ASSERT_EQ(MaximalFairVectors(SizeVector{1, 3, 4}, spec).size(), 3u);
  auto run = EnumerateChecked(g, ground, spec);
  EXPECT_EQ(run.size(), 34u);
  EXPECT_EQ(run.size(),
            CountMaximalFairSubsetsOf(g, Side::kLower, ground, spec));
  EXPECT_EQ(std::set<std::vector<VertexId>>(run.begin(), run.end()).size(),
            run.size());
  for (const auto& s : run) {
    EXPECT_TRUE(IsMaximalFairSubset(g, Side::kLower, s, ground, spec));
  }
}

TEST(EnumerateMaximalFairSubsets, AbortStopsAcrossVectors) {
  // Same ground as above: the first maximal vector (1,1,3) yields 12
  // subsets; stopping on the 13th (the second vector's first) must end
  // the whole enumeration, not just the current vector.
  BipartiteGraph g = AttrOnlyGraph({2, 1, 0, 2, 1, 2, 1, 2}, 3);
  FairnessSpec spec{1, 2, 0.2};
  std::vector<VertexId> ground{0, 1, 2, 3, 4, 5, 6, 7};
  std::uint64_t calls = 0;
  std::uint64_t n = EnumerateMaximalFairSubsets(
      g, Side::kLower, ground, spec, [&](std::span<const VertexId>, Mask) {
        ++calls;
        return calls < 13;
      });
  EXPECT_EQ(calls, 13u);
  EXPECT_EQ(n, 13u);
}

}  // namespace
}  // namespace fairbc
