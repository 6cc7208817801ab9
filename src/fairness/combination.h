#ifndef FAIRBC_FAIRNESS_COMBINATION_H_
#define FAIRBC_FAIRNESS_COMBINATION_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/types.h"
#include "fairness/fair_vector.h"
#include "graph/bipartite_graph.h"

namespace fairbc {

/// Callback receiving one maximal fair subset, twice over: `subset` holds
/// its vertices sorted by id, and `mask` holds the same subset as a bit
/// set over the positions of the ground set (bit i of word i/64 is set
/// iff ground[i] is in the subset; ceil(|ground|/64) words). Both views
/// are only valid during the call. Return false to stop the enumeration
/// early.
using SubsetSink = std::function<bool(std::span<const VertexId> subset,
                                      std::span<const std::uint64_t> mask)>;

/// Paper Alg. 7 (`Combination`) and its CombinationPro extension: streams
/// every *maximal fair subset* of `ground` (a vertex set on `side` of `g`)
/// under `spec`; with `spec.theta > 0` this is CombinationPro. Returns the
/// number emitted (which may be cut short by the sink).
///
/// The ground set is first partitioned into per-class position lists; for
/// each maximal fair size vector t the Cartesian product of per-class
/// t_i-subsets is generated (prod_i C(c_i, t_i) outputs) by one plain
/// recursion that sets and clears one mask bit per level. The only
/// per-leaf work is decoding the mask into the sorted subset.
std::uint64_t EnumerateMaximalFairSubsets(const BipartiteGraph& g, Side side,
                                          std::span<const VertexId> ground,
                                          const FairnessSpec& spec,
                                          const SubsetSink& sink);

/// Number of subsets EnumerateMaximalFairSubsets would emit, without
/// materializing them. Saturates at UINT64_MAX.
std::uint64_t CountMaximalFairSubsetsOf(const BipartiteGraph& g, Side side,
                                        std::span<const VertexId> ground,
                                        const FairnessSpec& spec);

}  // namespace fairbc

#endif  // FAIRBC_FAIRNESS_COMBINATION_H_
