#include "core/fair_bcem_pp.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>

#include "common/timer.h"
#include "core/mbea.h"
#include "fairness/combination.h"
#include "fairness/fair_set.h"

namespace fairbc {

namespace {

// Upper vertices u ∉ L adjacent to part of a substrate biclique's R, each
// as its blocker mask N(u) ∩ R over R's positions. Γ(S) ⊇ L holds for
// every S ⊆ R, so Γ(S) = L exactly when no blocker mask contains S —
// the paper's line-28 check without folding Γ(S) per subset.
class BlockerMasks {
 public:
  /// One pass over N(v) for v ∈ R: O(Σ_{v∈R} deg v + |L|), independent
  /// of |U|. Blockers adjacent to fewer than `min_subset` vertices of R
  /// cannot contain any candidate subset and are dropped.
  BlockerMasks(const BipartiteGraph& g, std::span<const VertexId> upper,
               std::span<const VertexId> lower, std::uint32_t min_subset)
      : words_((lower.size() + 63) / 64) {
    // Per upper vertex: kFree, kInL, or its index into `raw`. Sized to
    // |U| once per thread; every entry is back to kFree (reset through
    // `touched`) before the constructor returns, so it is never observed
    // by a callback and never shared between threads.
    thread_local std::vector<std::uint32_t> slot;
    if (slot.size() < g.NumUpper()) slot.resize(g.NumUpper(), kFree);
    std::vector<VertexId> touched(upper.begin(), upper.end());
    for (VertexId u : upper) slot[u] = kInL;
    std::vector<std::uint64_t> raw;
    for (std::size_t i = 0; i < lower.size(); ++i) {
      const std::uint64_t bit = std::uint64_t{1} << (i & 63);
      for (VertexId u : g.Neighbors(Side::kLower, lower[i])) {
        std::uint32_t s = slot[u];
        if (s == kInL) continue;
        if (s == kFree) {
          s = static_cast<std::uint32_t>(raw.size() / words_);
          slot[u] = s;
          touched.push_back(u);
          raw.resize(raw.size() + words_, 0);
        }
        raw[s * words_ + (i >> 6)] |= bit;
      }
    }
    for (VertexId u : touched) slot[u] = kFree;

    // Keep the blockers that can contain a candidate, widest first, so a
    // scan stops at the first blocker narrower than the subset.
    const std::size_t num_raw = raw.size() / words_;
    std::vector<std::uint32_t> raw_popcount(num_raw, 0);
    std::vector<std::uint32_t> order;
    for (std::size_t b = 0; b < num_raw; ++b) {
      for (std::size_t w = 0; w < words_; ++w) {
        raw_popcount[b] += std::popcount(raw[b * words_ + w]);
      }
      if (raw_popcount[b] >= min_subset) {
        order.push_back(static_cast<std::uint32_t>(b));
      }
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return raw_popcount[x] > raw_popcount[y];
              });
    masks_.reserve(order.size() * words_);
    popcount_.reserve(order.size());
    for (std::uint32_t b : order) {
      masks_.insert(masks_.end(), raw.begin() + b * words_,
                    raw.begin() + (b + 1) * words_);
      popcount_.push_back(raw_popcount[b]);
    }
  }

  /// True iff some blocker is adjacent to every vertex of the subset
  /// `mask` (of `size` vertices), i.e. Γ(subset) ⊋ L.
  bool Blocks(std::span<const std::uint64_t> mask, std::size_t size) const {
    for (std::size_t b = 0; b < popcount_.size() && popcount_[b] >= size;
         ++b) {
      const std::uint64_t* blocker = &masks_[b * words_];
      std::size_t w = 0;
      while (w < words_ && (mask[w] & ~blocker[w]) == 0) ++w;
      if (w == words_) return true;
    }
    return false;
  }

 private:
  static constexpr std::uint32_t kFree =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint32_t kInL = kFree - 1;

  const std::size_t words_;
  std::vector<std::uint64_t> masks_;    ///< words_ per blocker.
  std::vector<std::uint32_t> popcount_;  ///< descending.
};

}  // namespace

EnumStats FairBcemPpRun(const BipartiteGraph& g,
                        const FairBicliqueParams& params,
                        std::uint32_t min_upper, const EnumOptions& options,
                        const BicliqueSink& sink) {
  EnumStats stats;
  if (g.NumUpper() == 0 || g.NumLower() == 0) return stats;
  const FairnessSpec spec = params.LowerSpec();
  const AttrId num_attrs = g.NumAttrs(Side::kLower);

  MbeaConfig config;
  config.min_upper = std::max(min_upper, 1u);
  config.min_lower_per_attr = params.beta;
  config.min_lower_total =
      std::max<std::uint32_t>(1u, params.beta * num_attrs);
  config.ordering = options.ordering;
  config.node_budget = options.node_budget;
  config.time_budget_seconds = options.time_budget_seconds;
  config.num_threads = options.num_threads;
  config.trace = options.trace;
  config.shared_budget = options.shared_budget;
  if (options.topk != nullptr) {
    // Every result's upper side is a substrate biclique's L, and L is
    // bounded only by the whole upper side of the (already reduced) graph.
    options.topk->set_upper_cap(
        static_cast<std::uint32_t>(g.NumVertices(Side::kUpper)));
    config.topk = options.topk;
  }

  // The substrate may deliver maximal bicliques from several workers at
  // once (config.num_threads != 1), so everything the per-biclique
  // post-processing shares is atomic and its scratch is per call (or per
  // thread); `sink` follows the engine-level threading contract
  // (core/enumerate.h).
  Deadline deadline(options.time_budget_seconds);
  std::atomic<bool> aborted{false};
  std::atomic<bool> subset_budget_exhausted{false};
  std::atomic<std::uint64_t> num_results{0};
  std::atomic<std::uint64_t> visited{0};

  auto emit = [&](const Biclique& b) {
    num_results.fetch_add(1, std::memory_order_relaxed);
    if (!sink(b)) aborted.store(true, std::memory_order_relaxed);
    return !aborted.load(std::memory_order_relaxed);
  };

  MaximalBicliqueSink mb_sink = [&](const std::vector<VertexId>& upper,
                                    const std::vector<VertexId>& lower) {
    visited.fetch_add(1, std::memory_order_relaxed);
    Biclique b;
    b.upper = upper;
    SizeVector sizes = AttrSizes(g, Side::kLower, lower);
    if (IsFeasibleVector(sizes, spec)) {
      // A fair closure is its own unique maximal fair subset and its
      // common neighborhood is exactly `upper` (closure property), so
      // (upper, lower) is a single-side fair biclique directly.
      b.lower = lower;
      return emit(b);
    }
    // Paper Alg. 6 lines 25-28: enumerate the maximal fair subsets S of R
    // and keep those whose common neighborhood is exactly L.
    const BlockerMasks blockers(g, upper, lower, config.min_lower_total);
    EnumerateMaximalFairSubsets(
        g, Side::kLower, lower, spec,
        [&](std::span<const VertexId> subset,
            std::span<const std::uint64_t> mask) {
          if (deadline.Expired()) {
            subset_budget_exhausted.store(true, std::memory_order_relaxed);
            return false;
          }
          if (subset.empty() || blockers.Blocks(mask, subset.size())) {
            return true;
          }
          b.lower.assign(subset.begin(), subset.end());
          return emit(b);
        });
    return !aborted.load(std::memory_order_relaxed) &&
           !subset_budget_exhausted.load(std::memory_order_relaxed);
  };

  MbeaStats mb_stats = EnumerateMaximalBicliques(g, config, mb_sink);
  stats.num_results = num_results.load(std::memory_order_relaxed);
  stats.maximal_bicliques_visited = visited.load(std::memory_order_relaxed);
  stats.search_nodes = mb_stats.search_nodes;
  stats.split_subtrees = mb_stats.split_subtrees;
  stats.kernels = mb_stats.kernels;
  stats.peak_struct_bytes =
      std::max(stats.peak_struct_bytes, mb_stats.arena_high_water_bytes);
  stats.budget_exhausted =
      subset_budget_exhausted.load(std::memory_order_relaxed) ||
      mb_stats.budget_exhausted;
  stats.remaining_upper = g.NumUpper();
  stats.remaining_lower = g.NumLower();
  return stats;
}

}  // namespace fairbc
