#include "service/query.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "graph/snapshot.h"

namespace fairbc {

namespace {

// Hashed between the two sides, so that moving an id from one side to
// the other changes the hash.
constexpr std::uint32_t kSideSeparator = 0x5eb1c11eu;
static_assert(sizeof(VertexId) == sizeof(std::uint32_t));

}  // namespace

std::uint64_t BicliqueHash(const Biclique& b) {
  // FNV-1a over the upper ids, a side separator, then the lower ids. The
  // per-biclique hash is order-*dependent* (vertex lists are canonically
  // sorted), the set digest built from it is order-independent.
  std::uint64_t state = kFnvOffsetBasis;
  for (VertexId u : b.upper) state = Fnv1a64Word(state, u);
  state = Fnv1a64Word(state, kSideSeparator);
  for (VertexId v : b.lower) state = Fnv1a64Word(state, v);
  return state;
}

DigestAccumulator::DigestAccumulator() : states_{kFnvOffsetBasis} {}

BicliqueSink DigestAccumulator::Wrap(BicliqueSink inner) {
  return [this, inner = std::move(inner)](const Biclique& b) {
    Add(b);
    return inner(b);
  };
}

void DigestAccumulator::Add(const Biclique& b) {
  const std::size_t num_upper = b.upper.size();
  const std::size_t num_words = num_upper + 1 + b.lower.size();

  // k = the number of leading words this result shares with the previous
  // one: the common prefix of the upper ids, then, if the whole upper side
  // matched and the previous stream has the separator next, the common
  // prefix of the lower ids.
  const std::uint32_t* prev = words_.data();
  const std::uint32_t* prev_end = prev + words_.size();
  std::size_t k = static_cast<std::size_t>(
      std::mismatch(b.upper.begin(), b.upper.end(), prev, prev_end).first -
      b.upper.begin());
  if (k == num_upper && prev + k != prev_end && prev[k] == kSideSeparator) {
    ++k;
    k += static_cast<std::size_t>(
        std::mismatch(b.lower.begin(), b.lower.end(), prev + k, prev_end)
            .first -
        b.lower.begin());
  }

  // Resume from the state after those k words and hash the rest.
  words_.resize(num_words);
  states_.resize(num_words + 1);
  std::uint64_t state = states_[k];
  std::size_t i = k;
  auto hash = [&](std::uint32_t word) {
    words_[i] = word;
    state = Fnv1a64Word(state, word);
    states_[++i] = state;
  };
  for (std::size_t j = i; j < num_upper; ++j) hash(b.upper[j]);
  if (i == num_upper) hash(kSideSeparator);
  for (std::size_t j = i - num_upper - 1; j < b.lower.size(); ++j) {
    hash(b.lower[j]);
  }

  ++count_;
  digest_ += state;
  max_upper_ = std::max(max_upper_, static_cast<std::uint32_t>(num_upper));
  max_lower_ =
      std::max(max_lower_, static_cast<std::uint32_t>(b.lower.size()));
}

void DigestAccumulator::FillSummary(QuerySummary* summary) const {
  summary->count = count_;
  summary->digest = digest_;
  summary->max_upper = max_upper_;
  summary->max_lower = max_lower_;
}

std::string CanonicalCacheKey(const QueryRequest& req,
                              std::uint64_t graph_version) {
  char buf[192];
  // %.17g round-trips every double, so distinct thetas never collide.
  std::snprintf(buf, sizeof(buf), "@%016llx|%s|%s|a=%u|b=%u|d=%u|t=%.17g|%s|%s",
                static_cast<unsigned long long>(graph_version),
                ToString(req.model), ToString(req.algo), req.params.alpha,
                req.params.beta, req.params.delta, req.params.theta,
                ToString(req.options.ordering), ToString(req.options.pruning));
  std::string key = req.graph + buf;
  if (req.top_k > 0) {
    // Top-k results are a different result set than the full enumeration;
    // full-enumeration keys stay byte-identical to previous releases.
    std::snprintf(buf, sizeof(buf), "|k=%u|rank=%s", req.top_k,
                  ToString(req.rank));
    key += buf;
  }
  return key;
}

std::optional<FairModel> ParseFairModel(const std::string& name) {
  if (name == "ssfbc") return FairModel::kSsfbc;
  if (name == "bsfbc") return FairModel::kBsfbc;
  return std::nullopt;
}

std::optional<FairAlgo> ParseFairAlgo(const std::string& name) {
  if (name == "pp") return FairAlgo::kPlusPlus;
  if (name == "bcem") return FairAlgo::kBcem;
  if (name == "naive") return FairAlgo::kNaive;
  return std::nullopt;
}

const char* ToString(FairModel model) {
  return model == FairModel::kBsfbc ? "bsfbc" : "ssfbc";
}

const char* ToString(FairAlgo algo) {
  switch (algo) {
    case FairAlgo::kBcem:
      return "bcem";
    case FairAlgo::kNaive:
      return "naive";
    case FairAlgo::kPlusPlus:
      break;
  }
  return "pp";
}

std::optional<TopKRank> ParseTopKRank(const std::string& name) {
  if (name == "weight") return TopKRank::kWeight;
  if (name == "size") return TopKRank::kSize;
  if (name == "balance") return TopKRank::kBalance;
  return std::nullopt;
}

std::optional<VertexOrdering> ParseVertexOrdering(const std::string& name) {
  if (name == "deg") return VertexOrdering::kDegreeDesc;
  if (name == "id") return VertexOrdering::kId;
  return std::nullopt;
}

std::optional<PruningLevel> ParsePruningLevel(const std::string& name) {
  if (name == "colorful") return PruningLevel::kColorful;
  if (name == "core") return PruningLevel::kCore;
  if (name == "none") return PruningLevel::kNone;
  return std::nullopt;
}

const char* ToString(VertexOrdering ordering) {
  return ordering == VertexOrdering::kId ? "id" : "deg";
}

const char* ToString(TopKRank rank) {
  switch (rank) {
    case TopKRank::kSize:
      return "size";
    case TopKRank::kBalance:
      return "balance";
    case TopKRank::kWeight:
      break;
  }
  return "weight";
}

bool ValidRequestId(const std::string& token) {
  if (token.size() > 128) return false;
  for (char c : token) {
    if (c <= 0x20 || c >= 0x7f || c == '"' || c == '\\') return false;
  }
  return true;
}

Status ValidateQueryRequest(const QueryRequest& request) {
  constexpr std::uint32_t kMaxParam = 1'000'000'000;
  if (request.graph.empty()) {
    return Status::InvalidArgument("query needs graph=NAME");
  }
  for (auto [key, value] : {std::pair<const char*, std::uint32_t>{
                                "alpha", request.params.alpha},
                            {"beta", request.params.beta},
                            {"delta", request.params.delta},
                            {"top_k", request.top_k}}) {
    if (value > kMaxParam) {
      return Status::InvalidArgument(std::string(key) +
                                     " must be in [0, 1000000000]");
    }
  }
  // Negated so that a NaN theta fails too.
  if (!(request.params.theta >= 0.0 && request.params.theta <= 1.0)) {
    return Status::InvalidArgument("theta must be in [0, 1]");
  }
  if (!std::isfinite(request.options.time_budget_seconds) ||
      request.options.time_budget_seconds < 0.0) {
    return Status::InvalidArgument("budget must be a finite number >= 0");
  }
  if (request.options.num_threads > 1024) {
    return Status::InvalidArgument("threads must be in [0, 1024]");
  }
  if (!ValidRequestId(request.request_id)) {
    return Status::InvalidArgument(
        "rid must be at most 128 bytes of printable ASCII with no space, "
        "quote or backslash");
  }
  return Status::OK();
}

const char* ToString(PruningLevel level) {
  switch (level) {
    case PruningLevel::kNone:
      return "none";
    case PruningLevel::kCore:
      return "core";
    case PruningLevel::kColorful:
      break;
  }
  return "colorful";
}

}  // namespace fairbc
