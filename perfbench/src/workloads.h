// Workload definitions of the repository benchmark: the graphs each
// workload serves, how `--seed` turns them into concrete inputs, and the
// request mix the load generator sends.
//
// The seed never changes a graph's structure. Seed 0 is the default and
// serves the graphs exactly as their generators build them (so the
// pinned counts and digests below hold); any other seed relabels the
// vertices of every graph by a seed-derived permutation and reorders
// the request schedule. A relabelled graph is isomorphic to the default
// one, so every query returns the same number of results and costs
// nearly the same, while the ids (and therefore digests, tie-breaks and
// emission order) differ. That keeps the runs of different seeds
// comparable, which the run-to-run spread bound needs.

#ifndef FAIRBC_PERFBENCH_WORKLOADS_H_
#define FAIRBC_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/enumerate.h"
#include "core/pipeline.h"
#include "core/verify.h"
#include "graph/bipartite_graph.h"
#include "service/query.h"

namespace fairbc::perfbench {

enum class Workload { kEnumHeavy, kReduceHeavy, kServiceMix };

std::optional<Workload> ParseWorkload(const std::string& name);
const char* ToString(Workload workload);

/// One graph a workload serves, under its catalog name.
struct WorkloadGraph {
  std::string name;
  BipartiteGraph graph;
};

/// Builds the workload's graphs for `seed` (seed 0 = generator output
/// as is, otherwise a seed-derived vertex relabelling). `scale` shrinks
/// the graphs for the harness self-check; 1.0 is the measured size.
std::vector<WorkloadGraph> MakeGraphs(Workload workload, std::uint64_t seed,
                                      double scale = 1.0);

/// One distinct query of a workload: what determines its result set
/// (and therefore its reference count and digest).
struct Point {
  std::string graph;
  FairModel model = FairModel::kSsfbc;
  FairBicliqueParams params;
  /// Threads each request asks the server to search with.
  unsigned threads = 1;
};

/// How one request presents a point to the server.
enum class Mode {
  kCount,   ///< summary only (count + digest).
  kStream,  ///< stream=1: chunks carry every biclique.
  kTopK,    ///< top_k=kTopK under rank=weight.
};

inline constexpr std::uint32_t kTopK = 10;

/// One request of the schedule.
struct Request {
  std::size_t point = 0;  ///< index into Plan::points.
  FairAlgo algo = FairAlgo::kPlusPlus;
  Mode mode = Mode::kCount;
  bool use_cache = false;
};

/// The request schedule of one workload. Connections take requests
/// round-robin from `schedule`, cycling, until the run's time is up.
struct Plan {
  std::vector<Point> points;
  std::vector<Request> schedule;
  /// Connections (and load-generator threads) driving the schedule.
  unsigned connections = 1;
  /// How many of them speak the line protocol; the rest speak binary.
  unsigned line_connections = 0;
};

Plan MakePlan(Workload workload, std::uint64_t seed, double scale = 1.0);

/// Distinct graph names the plan's points use, in first-use order.
std::vector<std::string> GraphNames(const Plan& plan);

/// Snapshot file of one workload graph inside the work directory.
std::string SnapshotPath(const std::string& dir, const std::string& graph);

/// The line-protocol text of a request (without the trailing newline).
std::string RequestLine(const Plan& plan, const Request& request,
                        const std::string& rid);

/// The same request as a QueryRequest (for the binary kQuery frame and
/// for in-process execution).
QueryRequest ToQueryRequest(const Plan& plan, const Request& request);

/// Reference outcome of one point: every check of the correctness gate
/// compares against these.
struct Reference {
  std::uint64_t count = 0;
  std::uint64_t digest = 0;
  /// Digest of the top kTopK bicliques (rank = weight).
  std::uint64_t topk_count = 0;
  std::uint64_t topk_digest = 0;
};

/// Pinned references for seed 0 at scale 1 (measured once, committed),
/// or nullopt when the workload has none at this point. The counts are
/// invariant under relabelling, so they also check every other seed.
std::optional<Reference> PinnedReference(Workload workload,
                                         std::size_t point_index);

/// Computes a point's reference with RunEnumeration at one thread.
Reference ComputeReference(const BipartiteGraph& g, const Point& point);

}  // namespace fairbc::perfbench

#endif  // FAIRBC_PERFBENCH_WORKLOADS_H_
