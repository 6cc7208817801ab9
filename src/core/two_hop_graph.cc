#include "core/two_hop_graph.h"

#include <algorithm>
#include <atomic>

#include "common/status.h"
#include "core/parallel.h"
#include "core/reduction_context.h"

namespace fairbc {

namespace {

/// Half-wedge counter-sweep over one contiguous vertex shard
/// `[begin, end)`. The 2-hop condition is symmetric in (v, w), so each
/// unordered pair is counted once, from its higher-id endpoint: for every
/// alive `v` in the shard, count the alive 2-hop paths v–u–w with w < v
/// into `counts` (per opposite-attribute class when `per_attr`). The
/// adjacency lists are sorted, so each inner walk stops at the first
/// w >= v. The satisfying w — v's lower half — are appended sorted to
/// `out`, `deg_low[v]` records their number, and every kept w gets one
/// relaxed atomic increment of `deg_high[w]` (its upper-half degree;
/// other shards count into the same slots). First touches are tracked
/// with one flag byte per vertex (not by rescanning the count slots), and
/// both scratch arrays are returned all-zero.
void SweepShard(const BipartiteGraph& g, Side fair_side, std::uint32_t alpha,
                const std::vector<char>& fair_alive,
                const std::vector<char>& other_alive, bool per_attr,
                VertexId begin, VertexId end,
                std::vector<std::uint32_t>& counts, std::vector<char>& touched_flag,
                std::vector<VertexId>& out, std::vector<std::uint32_t>& deg_low,
                std::vector<std::uint32_t>& deg_high) {
  const Side other = Opposite(fair_side);
  const std::size_t stride = per_attr ? g.NumAttrs(other) : 1;
  // Grows to the most candidates any vertex of the shard touches; an
  // n-sized reserve would be one large malloc/free per shard.
  std::vector<VertexId> touched;

  for (VertexId v = begin; v < end; ++v) {
    if (!fair_alive[v]) continue;
    touched.clear();
    for (VertexId u : g.Neighbors(fair_side, v)) {
      if (!other_alive[u]) continue;
      const std::size_t attr_off = per_attr ? g.Attr(other, u) : 0;
      for (VertexId w : g.Neighbors(other, u)) {
        if (w >= v) break;
        if (!fair_alive[w]) continue;
        if (!touched_flag[w]) {
          touched_flag[w] = 1;
          touched.push_back(w);
        }
        ++counts[static_cast<std::size_t>(w) * stride + attr_off];
      }
    }
    const std::size_t out_begin = out.size();
    for (VertexId w : touched) {
      bool connect;
      if (!per_attr) {
        connect = counts[w] >= alpha;
      } else {
        connect = true;
        for (std::size_t a = 0; a < stride; ++a) {
          if (counts[static_cast<std::size_t>(w) * stride + a] < alpha) {
            connect = false;
            break;
          }
        }
      }
      if (connect) {
        out.push_back(w);
        std::atomic_ref<std::uint32_t>(deg_high[w])
            .fetch_add(1, std::memory_order_relaxed);
      }
      for (std::size_t a = 0; a < stride; ++a) {
        counts[static_cast<std::size_t>(w) * stride + a] = 0;
      }
      touched_flag[w] = 0;
    }
    std::sort(out.begin() + out_begin, out.end());
    deg_low[v] = static_cast<std::uint32_t>(out.size() - out_begin);
  }
}

UnipartiteGraph ConstructImpl(const BipartiteGraph& g, Side fair_side,
                              std::uint32_t alpha, const SideMasks& masks,
                              bool per_attr, ReductionContext* ctx) {
  const Side other = Opposite(fair_side);
  const VertexId n = g.NumVertices(fair_side);
  const auto& fair_alive =
      fair_side == Side::kLower ? masks.lower_alive : masks.upper_alive;
  const auto& other_alive =
      fair_side == Side::kLower ? masks.upper_alive : masks.lower_alive;
  FAIRBC_CHECK(fair_alive.size() == n);

  UnipartiteGraph h;
  h.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  h.attrs.resize(n);
  h.num_attrs = g.NumAttrs(fair_side);
  for (VertexId v = 0; v < n; ++v) h.attrs[v] = g.Attr(fair_side, v);
  if (n == 0) return h;

  const std::size_t stride = per_attr ? g.NumAttrs(other) : 1;
  const std::size_t counts_size = static_cast<std::size_t>(n) * stride;

  // A null context runs the same code path through a local serial
  // context, so the scratch grow-and-zero contract lives in one place.
  ReductionContext serial_ctx;
  if (ctx == nullptr) ctx = &serial_ctx;
  ThreadPool* pool = ctx->pool();

  // Shard plan: contiguous vertex ranges, several shards per worker so
  // stealing can rebalance skewed degree distributions (and the heavier
  // high-id shards of the half-wedge sweep). The shard boundaries do not
  // affect the output — each vertex's neighbor list is a pure function of
  // (g, masks, alpha) — so the serial path is simply the same shards swept
  // in order by worker 0.
  const unsigned workers = pool != nullptr ? pool->num_threads() : 1;
  const VertexId shard_size = std::max<VertexId>(
      64, (n + workers * 8 - 1) / (workers * 8));
  const std::size_t num_shards = (n + shard_size - 1) / shard_size;
  auto for_each_shard = [&](auto&& fn) {
    if (pool != nullptr) {
      pool->ParallelFor(num_shards, [&](std::uint64_t shard, unsigned worker) {
        fn(static_cast<std::size_t>(shard), worker);
      });
    } else {
      for (std::size_t shard = 0; shard < num_shards; ++shard) fn(shard, 0u);
    }
  };
  auto shard_begin = [&](std::size_t shard) {
    return static_cast<VertexId>(shard * shard_size);
  };
  auto shard_end = [&](std::size_t shard) {
    return std::min<VertexId>(n, shard_begin(shard) + shard_size);
  };

  // Sweep: each shard keeps its vertices' lower halves; the upper-half
  // degrees are counted on the fly.
  std::vector<std::uint32_t> deg_low(n, 0);
  std::vector<std::uint32_t> deg_high(n, 0);
  std::vector<std::vector<VertexId>> shard_nbrs(num_shards);
  for_each_shard([&](std::size_t shard, unsigned worker) {
    std::vector<std::uint32_t>& counts = ctx->CountScratch(worker, counts_size);
    std::vector<char>& flags = ctx->FlagScratch(worker, n);
    SweepShard(g, fair_side, alpha, fair_alive, other_alive, per_attr,
               shard_begin(shard), shard_end(shard), counts, flags,
               shard_nbrs[shard], deg_low, deg_high);
  });

  // Row v of the symmetric CSR is its lower half followed by its upper
  // half, so the offsets are the prefix sums of deg_low + deg_high.
  for (VertexId v = 0; v < n; ++v) {
    h.offsets[v + 1] = h.offsets[v] + deg_low[v] + deg_high[v];
  }
  h.neighbors.resize(h.offsets[n]);

  // Place: copy every lower half into its row, and scatter each kept pair
  // (w, v), w < v, into w's upper half. deg_high[w] counts down as w's
  // slots fill (from the front of the upper half), so it ends all-zero
  // and no cursor array is needed.
  for_each_shard([&](std::size_t shard, unsigned) {
    const VertexId* pair = shard_nbrs[shard].data();
    for (VertexId v = shard_begin(shard); v < shard_end(shard); ++v) {
      std::copy(pair, pair + deg_low[v], h.neighbors.begin() + h.offsets[v]);
      for (const VertexId* end = pair + deg_low[v]; pair != end; ++pair) {
        const VertexId w = *pair;
        const std::uint32_t left = std::atomic_ref<std::uint32_t>(deg_high[w])
                                       .fetch_sub(1, std::memory_order_relaxed);
        h.neighbors[h.offsets[w + 1] - left] = v;
      }
    }
  });

  // Sort each upper half: the scatter order depends on how the shards
  // interleave, the sorted row does not. Rows are short.
  for_each_shard([&](std::size_t shard, unsigned) {
    for (VertexId v = shard_begin(shard); v < shard_end(shard); ++v) {
      std::sort(h.neighbors.begin() + h.offsets[v] + deg_low[v],
                h.neighbors.begin() + h.offsets[v + 1]);
    }
  });
  return h;
}

}  // namespace

UnipartiteGraph Construct2HopGraph(const BipartiteGraph& g, Side fair_side,
                                   std::uint32_t alpha, const SideMasks& masks,
                                   ReductionContext* ctx) {
  return ConstructImpl(g, fair_side, alpha, masks, /*per_attr=*/false, ctx);
}

UnipartiteGraph BiConstruct2HopGraph(const BipartiteGraph& g, Side fair_side,
                                     std::uint32_t alpha,
                                     const SideMasks& masks,
                                     ReductionContext* ctx) {
  return ConstructImpl(g, fair_side, alpha, masks, /*per_attr=*/true, ctx);
}

}  // namespace fairbc
