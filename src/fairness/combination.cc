#include "fairness/combination.h"

#include <algorithm>
#include <bit>

#include "common/status.h"
#include "fairness/fair_set.h"

namespace fairbc {

namespace {

// Walks the Cartesian product of per-class combinations for one maximal
// fair vector at a time. `positions` lists the ground positions grouped
// by class (class a occupies [class_begin[a], class_begin[a+1])), each
// group ascending by vertex id, so the walk emits subsets in the
// lexicographic order of the per-class id combinations, class 0
// outermost.
class SubsetWalker {
 public:
  SubsetWalker(std::span<const VertexId> ground, bool ground_sorted,
               const std::vector<std::uint32_t>& positions,
               const std::vector<std::uint32_t>& class_begin,
               const SubsetSink& sink)
      : ground_(ground),
        ground_sorted_(ground_sorted),
        positions_(positions),
        class_begin_(class_begin),
        num_attrs_(static_cast<AttrId>(class_begin.size() - 1)),
        sink_(sink),
        mask_((ground.size() + 63) / 64, 0) {
    subset_.reserve(ground.size());
  }

  /// Emits every subset of class sizes `t`; false if the sink aborted.
  bool Walk(const SizeVector& t) {
    t_ = &t;
    return Choose(0, class_begin_[0], t[0]);
  }

  std::uint64_t emitted() const { return emitted_; }

 private:
  // Picks `left` more positions of class `a` from positions_[from] on,
  // then moves on to the next class.
  bool Choose(AttrId a, std::uint32_t from, std::uint32_t left) {
    if (left == 0) {
      if (a + 1 == num_attrs_) return Leaf();
      return Choose(a + 1, class_begin_[a + 1], (*t_)[a + 1]);
    }
    const std::uint32_t last = class_begin_[a + 1] - left;
    for (std::uint32_t i = from; i <= last; ++i) {
      const std::uint32_t pos = positions_[i];
      const std::uint64_t bit = std::uint64_t{1} << (pos & 63);
      mask_[pos >> 6] |= bit;
      const bool keep_going = Choose(a, i + 1, left - 1);
      mask_[pos >> 6] &= ~bit;
      if (!keep_going) return false;
    }
    return true;
  }

  bool Leaf() {
    ++emitted_;
    subset_.clear();
    for (std::size_t w = 0; w < mask_.size(); ++w) {
      for (std::uint64_t bits = mask_[w]; bits != 0; bits &= bits - 1) {
        subset_.push_back(ground_[w * 64 + std::countr_zero(bits)]);
      }
    }
    if (!ground_sorted_) std::sort(subset_.begin(), subset_.end());
    return sink_(subset_, mask_);
  }

  const std::span<const VertexId> ground_;
  const bool ground_sorted_;
  const std::vector<std::uint32_t>& positions_;
  const std::vector<std::uint32_t>& class_begin_;
  const AttrId num_attrs_;
  const SubsetSink& sink_;
  const SizeVector* t_ = nullptr;
  std::vector<std::uint64_t> mask_;
  std::vector<VertexId> subset_;
  std::uint64_t emitted_ = 0;
};

}  // namespace

std::uint64_t EnumerateMaximalFairSubsets(const BipartiteGraph& g, Side side,
                                          std::span<const VertexId> ground,
                                          const FairnessSpec& spec,
                                          const SubsetSink& sink) {
  const AttrId num_attrs = g.NumAttrs(side);
  const SizeVector counts = AttrSizes(g, side, ground);
  const std::vector<SizeVector> vectors = MaximalFairVectors(counts, spec);
  if (vectors.empty()) return 0;

  // Counting sort of the ground positions by class; positions stay
  // ascending within a class.
  std::vector<std::uint32_t> class_begin(num_attrs + 1, 0);
  for (AttrId a = 0; a < num_attrs; ++a) {
    class_begin[a + 1] = class_begin[a] + counts[a];
  }
  std::vector<std::uint32_t> positions(ground.size());
  {
    std::vector<std::uint32_t> fill(class_begin.begin(), class_begin.end() - 1);
    for (std::uint32_t i = 0; i < ground.size(); ++i) {
      positions[fill[g.Attr(side, ground[i])]++] = i;
    }
  }
  const bool ground_sorted = std::is_sorted(ground.begin(), ground.end());
  if (!ground_sorted) {
    for (AttrId a = 0; a < num_attrs; ++a) {
      std::sort(positions.begin() + class_begin[a],
                positions.begin() + class_begin[a + 1],
                [&](std::uint32_t x, std::uint32_t y) {
                  return ground[x] < ground[y];
                });
    }
  }

  SubsetWalker walker(ground, ground_sorted, positions, class_begin, sink);
  for (const SizeVector& t : vectors) {
    if (!walker.Walk(t)) break;
  }
  return walker.emitted();
}

std::uint64_t CountMaximalFairSubsetsOf(const BipartiteGraph& g, Side side,
                                        std::span<const VertexId> ground,
                                        const FairnessSpec& spec) {
  SizeVector counts = AttrSizes(g, side, ground);
  return CountMaximalFairSubsets(counts, spec);
}

}  // namespace fairbc
