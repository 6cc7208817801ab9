#ifndef FAIRBC_TESTS_TEST_UTIL_H_
#define FAIRBC_TESTS_TEST_UTIL_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/enumerate.h"
#include "graph/bipartite_graph.h"
#include "service/query.h"
#include "service/query_executor.h"

namespace fairbc::testing {

/// Builds a small attributed bipartite graph from explicit pieces.
BipartiteGraph MakeGraph(VertexId num_upper, VertexId num_lower,
                         const std::vector<std::pair<VertexId, VertexId>>& edges,
                         const std::vector<AttrId>& upper_attrs,
                         const std::vector<AttrId>& lower_attrs,
                         AttrId num_upper_attrs = 2, AttrId num_lower_attrs = 2);

/// Random small graph for property tests: sides in [2, max_side], edge
/// probability `density`, attributes uniform over 2 classes per side.
BipartiteGraph RandomSmallGraph(std::uint64_t seed, VertexId max_side,
                                double density, AttrId num_attrs = 2);

/// The paper's Fig. 1(a) example graph: squares u1..u5 (upper, attrs
/// a/b), circles v1..v9 (lower, attrs a/b). Our ids are zero-based.
BipartiteGraph PaperExampleGraph();

/// Canonical sorted copy for set comparison.
std::vector<Biclique> Canonicalize(std::vector<Biclique> bicliques);

/// Runs a pipeline entry point and returns canonicalized results.
template <typename Fn>
std::vector<Biclique> Collect(Fn&& fn, const BipartiteGraph& g,
                              const FairBicliqueParams& params,
                              const EnumOptions& options = {}) {
  CollectSink sink;
  fn(g, params, options, sink.AsSink());
  return Canonicalize(sink.results());
}

/// Reassembles a stream's payload into the same order-independent summary
/// the executor computes, so streamed output can be compared byte-for-byte
/// (count/digest/max sizes) against a batch run.
QuerySummary SummarizeChunks(
    const std::vector<QueryExecutor::StreamChunk>& chunks);

// Async chunk/result collector for ExecuteStreaming (which returns after
// admission; chunks and completion arrive from runner threads).
struct StreamRun {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  QueryResult result;
  std::vector<QueryExecutor::StreamChunk> chunks;

  void Start(QueryExecutor& exec, const QueryRequest& req) {
    exec.ExecuteStreaming(
        req,
        [this](const QueryExecutor::StreamChunk& chunk) {
          std::lock_guard<std::mutex> lock(mu);
          chunks.push_back(chunk);
        },
        [this](QueryResult r) {
          std::lock_guard<std::mutex> lock(mu);
          result = std::move(r);
          done = true;
          cv.notify_all();
        });
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return done; });
  }
};

}  // namespace fairbc::testing

#endif  // FAIRBC_TESTS_TEST_UTIL_H_
