#ifndef FAIRBC_CORE_TWO_HOP_GRAPH_H_
#define FAIRBC_CORE_TWO_HOP_GRAPH_H_

#include <cstdint>

#include "graph/bipartite_graph.h"
#include "graph/unipartite_graph.h"

namespace fairbc {

class ReductionContext;

/// Paper Alg. 3 (Construct2HopGraph): connects two alive vertices of
/// `fair_side` iff they share at least `alpha` alive common neighbors.
/// Runs in O(sum of squared degrees) like the paper's counter sweep.
///
/// Each unordered pair is counted once, from its higher-id endpoint (the
/// half-wedge order of vertex-priority butterfly counting, Wang et al.,
/// VLDB 2019): the sweep yields every vertex's lower half {w < v}, and the
/// upper halves are scattered from those pairs and sorted. With a
/// `ReductionContext` carrying a pool the sweep, the placement and the row
/// sorts shard by vertex range across workers (each worker sweeps with
/// private counter/flag scratch from the context). The output is a pure
/// function of (g, masks, alpha) — byte identical at every thread count,
/// including the serial null-context path.
UnipartiteGraph Construct2HopGraph(const BipartiteGraph& g, Side fair_side,
                                   std::uint32_t alpha, const SideMasks& masks,
                                   ReductionContext* ctx = nullptr);

/// Paper Alg. 8 (BiConstruct2HopGraph): connects two alive vertices iff
/// they share at least `alpha` alive common neighbors *of every opposite-
/// side attribute class* (the bi-side condition of Def. 4(1)). Same
/// sharded parallel scheme and determinism guarantee as above.
UnipartiteGraph BiConstruct2HopGraph(const BipartiteGraph& g, Side fair_side,
                                     std::uint32_t alpha,
                                     const SideMasks& masks,
                                     ReductionContext* ctx = nullptr);

}  // namespace fairbc

#endif  // FAIRBC_CORE_TWO_HOP_GRAPH_H_
