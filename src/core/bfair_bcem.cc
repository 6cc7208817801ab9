#include "core/bfair_bcem.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "core/fair_bcem_pp.h"
#include "core/kernels.h"
#include "core/search_context.h"
#include "fairness/combination.h"
#include "fairness/fair_set.h"

namespace fairbc {

namespace {

// Common neighborhood (on the lower side) of an upper vertex set, plus
// its per-class size histogram (`counts`, sized to the lower attr
// domain). The running intersection shrinks monotonically, so two
// ping-pong buffers sized to the first neighbor list cover the fold, and
// the last step fuses the class counting into the intersection instead
// of a separate pass over the result. Kernel telemetry goes to `kstats`.
std::vector<VertexId> CommonLowerNeighborhoodWithCounts(
    const BipartiteGraph& g, std::span<const VertexId> upper,
    SizeVector* counts, KernelStats* kstats) {
  FAIRBC_CHECK(!upper.empty());
  counts->assign(g.NumAttrs(Side::kLower), 0);
  const std::span<const AttrId> attrs = g.AttrArray(Side::kLower);
  auto first = g.Neighbors(Side::kUpper, upper[0]);
  std::vector<VertexId> common(first.begin(), first.end());
  if (upper.size() == 1) {
    for (VertexId v : common) ++(*counts)[attrs[v]];
    return common;
  }
  std::vector<VertexId> tmp(common.size());
  for (std::size_t i = 1; i + 1 < upper.size() && !common.empty(); ++i) {
    tmp.resize(IntersectInto(tmp.data(), common,
                             g.Neighbors(Side::kUpper, upper[i]), nullptr,
                             kstats));
    common.swap(tmp);
  }
  if (!common.empty()) {
    tmp.resize(IntersectWithAttrCounts(
        tmp.data(), common, g.Neighbors(Side::kUpper, upper.back()), attrs,
        counts->data(), nullptr, kstats));
    common.swap(tmp);
  }
  return common;
}

}  // namespace

EnumStats BFairBcemRun(const BipartiteGraph& g,
                       const FairBicliqueParams& params,
                       const EnumOptions& options, SsEngine engine,
                       const BicliqueSink& sink) {
  EnumStats stats;
  if (g.NumUpper() == 0 || g.NumLower() == 0) return stats;
  if (options.topk != nullptr) {
    // ss_sink shrinks each SS biclique's upper side to its fair subsets
    // and regrows the lower side to each subset's common neighborhood —
    // the upper side of any derived result stays within the subtree's L,
    // but the lower side is only bounded by the whole (reduced) graph.
    options.topk->set_lower_cap(
        static_cast<std::uint32_t>(g.NumVertices(Side::kLower)));
  }
  const FairnessSpec upper_spec = params.UpperSpec();
  // The bi-side model is the lower-side policy applied once more on the
  // upper side; both policies are shared read-only by every worker.
  const SpecFairnessPolicy lower_policy(params.LowerSpec());

  // Every bi-side fair biclique has at least num_upper_attrs * alpha upper
  // vertices, so the inner single-side search can use the tighter bound.
  const std::uint32_t min_upper = std::max<std::uint32_t>(
      1u, params.alpha * g.NumAttrs(Side::kUpper));

  // The inner engine delivers single-side fair bicliques from several
  // workers at once when options.num_threads != 1; this body keeps all
  // its state per-call or atomic and forwards to `sink` under the
  // engine-level threading contract (core/enumerate.h).
  std::atomic<bool> aborted{false};
  std::atomic<std::uint64_t> emitted{0};
  // The regrow folds' kernel telemetry, folded in once per SS biclique.
  std::mutex regrow_kernels_mu;
  KernelStats regrow_kernels;

  // Paper Alg. 9 body, run per single-side fair biclique (L', R').
  BicliqueSink ss_sink = [&](const Biclique& ss) {
    SizeVector r_sizes = AttrSizes(g, Side::kLower, ss.lower);
    KernelStats kstats;
    EnumerateMaximalFairSubsets(
        g, Side::kUpper, ss.upper, upper_spec,
        [&](std::span<const VertexId> l_sub, std::span<const std::uint64_t>) {
          if (l_sub.empty()) return true;  // bicliques need nonempty sides.
          SizeVector hood_sizes;
          std::vector<VertexId> hood = CommonLowerNeighborhoodWithCounts(
              g, l_sub, &hood_sizes, &kstats);
          // R' ⊆ N∩(l') always holds (l' ⊆ N∩(R')); (l', R') is a bi-side
          // fair biclique iff R' cannot be fairly extended inside N∩(l').
          if (lower_policy.MaximalWithin(r_sizes, hood_sizes)) {
            Biclique b;
            b.upper.assign(l_sub.begin(), l_sub.end());
            b.lower = ss.lower;
            emitted.fetch_add(1, std::memory_order_relaxed);
            if (!sink(b)) {
              aborted.store(true, std::memory_order_relaxed);
              return false;
            }
          }
          return true;
        });
    {
      std::lock_guard<std::mutex> lock(regrow_kernels_mu);
      MergeKernelStats(regrow_kernels, kstats);
    }
    return !aborted.load(std::memory_order_relaxed);
  };

  switch (engine) {
    case SsEngine::kFairBcem:
      stats = FairBcemRun(g, params, min_upper, options,
                          FairBcemSearchOptions{}, ss_sink);
      break;
    case SsEngine::kFairBcemPlusPlus:
      stats = FairBcemPpRun(g, params, min_upper, options, ss_sink);
      break;
    case SsEngine::kNaive:
      stats = FairBcemRun(g, params, min_upper, options, NaiveSearchOptions(),
                          ss_sink);
      break;
  }
  stats.num_results = emitted.load(std::memory_order_relaxed);
  MergeKernelStats(stats.kernels, regrow_kernels);
  return stats;
}

}  // namespace fairbc
