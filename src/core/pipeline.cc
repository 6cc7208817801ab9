#include "core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <span>
#include <utility>

#include "common/timer.h"
#include "core/bfair_bcem.h"
#include "core/cfcore.h"
#include "core/fair_bcem.h"
#include "core/fair_bcem_pp.h"
#include "core/fcore.h"
#include "core/mbea.h"
#include "core/parallel.h"
#include "core/reduction_context.h"
#include "obs/trace.h"

namespace fairbc {

namespace {

PruneResult RunPruning(const BipartiteGraph& g, const FairBicliqueParams& p,
                       PruningLevel level, bool bi_side, unsigned num_threads,
                       TraceRecorder* trace, ReductionPhaseTimes* times) {
  // One ReductionContext serves the whole reduction: it owns the pool
  // (created only when num_threads > 1 — the num_threads == 1 contract is
  // the exact serial front-end), the per-worker construction scratch, and
  // the per-phase construct/color/peel timers.
  ReductionContext ctx(level != PruningLevel::kNone ? num_threads : 1);
  ctx.set_trace(trace);

  PruneResult result;
  switch (level) {
    case PruningLevel::kNone:
      result.masks.upper_alive.assign(g.NumUpper(), 1);
      result.masks.lower_alive.assign(g.NumLower(), 1);
      break;
    case PruningLevel::kCore:
      result.masks = bi_side ? BFCore(g, p.alpha, p.beta, &ctx)
                             : FCore(g, p.alpha, p.beta, &ctx);
      break;
    case PruningLevel::kColorful:
      result = bi_side ? BCFCore(g, p.alpha, p.beta, &ctx)
                       : CFCore(g, p.alpha, p.beta, &ctx);
      break;
  }
  if (times != nullptr) *times = ctx.times();
  return result;
}

// Maps a compact-graph biclique back to parent ids, into a buffer reused
// by every result on this thread: the remap allocates only when a result
// outgrows the largest one before it. Id maps are monotone (compaction
// preserves order), so sortedness is preserved. The returned reference is
// valid until the thread's next ToParent call; every sink copies what it
// keeps, and none runs an enumeration of its own from inside Accept.
const Biclique& ToParent(const IdMaps& maps, std::span<const VertexId> upper,
                         std::span<const VertexId> lower) {
  thread_local Biclique mapped;
  mapped.upper.resize(upper.size());
  mapped.lower.resize(lower.size());
  for (std::size_t i = 0; i < upper.size(); ++i) {
    mapped.upper[i] = maps.upper_to_parent[upper[i]];
  }
  for (std::size_t i = 0; i < lower.size(); ++i) {
    mapped.lower[i] = maps.lower_to_parent[lower[i]];
  }
  return mapped;
}

BicliqueSink RemapSink(const IdMaps& maps, const BicliqueSink& sink) {
  return [&maps, &sink](const Biclique& b) {
    return sink(ToParent(maps, b.upper, b.lower));
  };
}

template <typename EngineFn>
EnumStats RunPipeline(const BipartiteGraph& g, const FairBicliqueParams& params,
                      const EnumOptions& options, bool bi_side,
                      const BicliqueSink& sink, EngineFn&& engine) {
  Timer prune_timer;
  TraceSpan reduce_span(options.trace, "reduce");
  ReductionPhaseTimes phase_times;
  PruneResult pruned =
      RunPruning(g, params, options.pruning, bi_side,
                 ResolveNumThreads(options.num_threads), options.trace,
                 &phase_times);
  IdMaps maps;
  BipartiteGraph sub = InducedSubgraph(g, pruned.masks, &maps);
  reduce_span.End();
  const double prune_seconds = prune_timer.ElapsedSeconds();

  Timer enum_timer;
  TraceSpan enum_span(options.trace, "enumerate");
  // The engines may emit from several workers at once; the caller's sink
  // is plain code, so serialize it before handing it down (threading
  // contract in core/enumerate.h). Remapping itself is pure and runs
  // concurrently in the workers.
  EnumStats stats;
  if (ResolveNumThreads(options.num_threads) > 1) {
    SerializingSink serializer(sink);
    BicliqueSink serialized = serializer.AsSink();
    BicliqueSink remapped = RemapSink(maps, serialized);
    stats = engine(sub, remapped);
  } else {
    BicliqueSink remapped = RemapSink(maps, sink);
    stats = engine(sub, remapped);
  }
  enum_span.End();
  stats.enum_seconds = enum_timer.ElapsedSeconds();
  stats.prune_seconds = prune_seconds;
  stats.prune_construct_seconds = phase_times.construct_seconds;
  stats.prune_color_seconds = phase_times.color_seconds;
  stats.prune_peel_seconds = phase_times.peel_seconds;
  stats.remaining_upper = static_cast<VertexId>(maps.upper_to_parent.size());
  stats.remaining_lower = static_cast<VertexId>(maps.lower_to_parent.size());
  stats.peak_struct_bytes += pruned.peak_struct_bytes;
  return stats;
}

}  // namespace

EnumStats EnumerateSSFBC(const BipartiteGraph& g,
                         const FairBicliqueParams& params,
                         const EnumOptions& options, const BicliqueSink& sink) {
  return RunPipeline(g, params, options, /*bi_side=*/false, sink,
                     [&](const BipartiteGraph& sub, const BicliqueSink& s) {
                       return FairBcemRun(sub, params, params.alpha, options,
                                          FairBcemSearchOptions{}, s);
                     });
}

EnumStats EnumerateSSFBCPlusPlus(const BipartiteGraph& g,
                                 const FairBicliqueParams& params,
                                 const EnumOptions& options,
                                 const BicliqueSink& sink) {
  return RunPipeline(g, params, options, /*bi_side=*/false, sink,
                     [&](const BipartiteGraph& sub, const BicliqueSink& s) {
                       return FairBcemPpRun(sub, params, params.alpha, options,
                                            s);
                     });
}

EnumStats EnumerateSSFBCNaive(const BipartiteGraph& g,
                              const FairBicliqueParams& params,
                              const EnumOptions& options,
                              const BicliqueSink& sink) {
  return RunPipeline(g, params, options, /*bi_side=*/false, sink,
                     [&](const BipartiteGraph& sub, const BicliqueSink& s) {
                       return FairBcemRun(sub, params, params.alpha, options,
                                          NaiveSearchOptions(), s);
                     });
}

EnumStats EnumerateSSFBCWithSearchOptions(const BipartiteGraph& g,
                                          const FairBicliqueParams& params,
                                          const EnumOptions& options,
                                          const FairBcemSearchOptions& search,
                                          const BicliqueSink& sink) {
  return RunPipeline(g, params, options, /*bi_side=*/false, sink,
                     [&](const BipartiteGraph& sub, const BicliqueSink& s) {
                       return FairBcemRun(sub, params, params.alpha, options,
                                          search, s);
                     });
}

EnumStats EnumerateBSFBC(const BipartiteGraph& g,
                         const FairBicliqueParams& params,
                         const EnumOptions& options, const BicliqueSink& sink) {
  return RunPipeline(g, params, options, /*bi_side=*/true, sink,
                     [&](const BipartiteGraph& sub, const BicliqueSink& s) {
                       return BFairBcemRun(sub, params, options,
                                           SsEngine::kFairBcem, s);
                     });
}

EnumStats EnumerateBSFBCPlusPlus(const BipartiteGraph& g,
                                 const FairBicliqueParams& params,
                                 const EnumOptions& options,
                                 const BicliqueSink& sink) {
  return RunPipeline(g, params, options, /*bi_side=*/true, sink,
                     [&](const BipartiteGraph& sub, const BicliqueSink& s) {
                       return BFairBcemRun(sub, params, options,
                                           SsEngine::kFairBcemPlusPlus, s);
                     });
}

EnumStats EnumerateBSFBCNaive(const BipartiteGraph& g,
                              const FairBicliqueParams& params,
                              const EnumOptions& options,
                              const BicliqueSink& sink) {
  return RunPipeline(g, params, options, /*bi_side=*/true, sink,
                     [&](const BipartiteGraph& sub, const BicliqueSink& s) {
                       return BFairBcemRun(sub, params, options,
                                           SsEngine::kNaive, s);
                     });
}

EnumStats EnumerateMaximalBicliquesPruned(const BipartiteGraph& g,
                                          std::uint32_t min_upper,
                                          std::uint32_t min_lower_total,
                                          const EnumOptions& options,
                                          const BicliqueSink& sink) {
  // No reduction and no compaction: the search enumerates `g` itself and
  // enforces |L| >= min_upper and |R| >= min_lower_total through its own
  // size bounds, so results already carry `g`'s ids.
  SerializingSink serializer(sink);
  BicliqueSink serialized = serializer.AsSink();
  const BicliqueSink& target =
      ResolveNumThreads(options.num_threads) > 1 ? serialized : sink;

  MbeaConfig config;
  config.min_upper = min_upper;
  config.min_lower_total = min_lower_total;
  config.min_lower_per_attr = 0;
  config.ordering = options.ordering;
  config.node_budget = options.node_budget;
  config.time_budget_seconds = options.time_budget_seconds;
  config.num_threads = options.num_threads;
  config.trace = options.trace;
  // Direct maximal-biclique emission: subtree shapes bound their results
  // exactly, so the prune bound flows through with no side caps.
  config.topk = options.topk;
  config.shared_budget = options.shared_budget;

  Timer enum_timer;
  TraceSpan enum_span(options.trace, "enumerate");
  EnumStats stats;
  std::atomic<std::uint64_t> num_results{0};
  MbeaStats mb = EnumerateMaximalBicliques(
      g, config,
      [&](const std::vector<VertexId>& upper,
          const std::vector<VertexId>& lower) {
        num_results.fetch_add(1, std::memory_order_relaxed);
        // Per-thread buffer, as in ToParent: no allocation per result once
        // it has grown to the largest result.
        thread_local Biclique b;
        b.upper.assign(upper.begin(), upper.end());
        b.lower.assign(lower.begin(), lower.end());
        return target(b);
      });
  enum_span.End();
  stats.num_results = num_results.load(std::memory_order_relaxed);
  stats.search_nodes = mb.search_nodes;
  stats.maximal_bicliques_visited = mb.emitted;
  stats.budget_exhausted = mb.budget_exhausted;
  stats.kernels = mb.kernels;
  stats.peak_struct_bytes =
      std::max(stats.peak_struct_bytes, mb.arena_high_water_bytes);
  stats.enum_seconds = enum_timer.ElapsedSeconds();
  stats.remaining_upper = g.NumUpper();
  stats.remaining_lower = g.NumLower();
  return stats;
}

EnumStats RunEnumeration(const BipartiteGraph& g, FairModel model,
                         FairAlgo algo, const FairBicliqueParams& params,
                         const EnumOptions& options, const BicliqueSink& sink) {
  if (model == FairModel::kBsfbc) {
    switch (algo) {
      case FairAlgo::kBcem:
        return EnumerateBSFBC(g, params, options, sink);
      case FairAlgo::kNaive:
        return EnumerateBSFBCNaive(g, params, options, sink);
      case FairAlgo::kPlusPlus:
        break;
    }
    return EnumerateBSFBCPlusPlus(g, params, options, sink);
  }
  switch (algo) {
    case FairAlgo::kBcem:
      return EnumerateSSFBC(g, params, options, sink);
    case FairAlgo::kNaive:
      return EnumerateSSFBCNaive(g, params, options, sink);
    case FairAlgo::kPlusPlus:
      break;
  }
  return EnumerateSSFBCPlusPlus(g, params, options, sink);
}

}  // namespace fairbc
