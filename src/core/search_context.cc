#include "core/search_context.h"

#include "core/kernels.h"

namespace fairbc {

std::vector<VertexId> SubtreeBatch::ExclusionFor(std::size_t i) const {
  std::vector<VertexId> exclusion;
  exclusion.reserve(q.size() + i);
  exclusion.insert(exclusion.end(), q.begin(), q.end());
  exclusion.insert(exclusion.end(), p.begin(), p.begin() + i);
  return exclusion;
}

void FilterCandidates(const BipartiteGraph& g, Side side,
                      std::span<const VertexId> candidates,
                      std::span<const VertexId> big_l,
                      const BitsetView& big_l_bits,
                      std::uint32_t keep_threshold, IdVec* kept, IdVec* full,
                      KernelStats* stats) {
  for (VertexId v : candidates) {
    std::uint32_t c = big_l_bits.CountHits(g.Neighbors(side, v), stats);
    if (c == big_l.size()) full->push_back(v);
    if (c >= keep_threshold) kept->push_back(v);
  }
}

std::vector<VertexId> AllVertices(const BipartiteGraph& g, Side side) {
  std::vector<VertexId> all(g.NumVertices(side));
  for (VertexId v = 0; v < all.size(); ++v) all[v] = v;
  return all;
}

}  // namespace fairbc
