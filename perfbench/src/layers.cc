// In-process traced run: times each layer of a query by calling its
// public entry points from here, records a span around every call (the
// benchmark's own spans; the reduction's construct/color/peel phase
// spans come from the ReductionContext it is handed), and derives the
// per-layer figures and the self time of each layer from those spans.

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <thread>

#include "common/timer.h"
#include "core/bfair_bcem.h"
#include "core/cfcore.h"
#include "core/fair_bcem_pp.h"
#include "core/parallel.h"
#include "core/reduction_context.h"
#include "core/result_sink.h"
#include "graph/snapshot.h"
#include "measure.h"
#include "obs/trace.h"
#include "report.h"
#include "service/graph_catalog.h"
#include "service/query_executor.h"
#include "service/response_json.h"
#include "service/wire.h"
#include "stats.h"

namespace fairbc::perfbench {

namespace {

/// Results kept for the sink and serializer replays.
constexpr std::size_t kCaptureMax = 100000;
/// Requests of the mixed schedule replayed through the in-process
/// executor.
constexpr std::size_t kExecutorReplay = 800;

/// Counts every result and keeps the first `cap` of them in parent ids.
/// Locked: the engine entry points may emit from several workers.
class CaptureSink {
 public:
  CaptureSink(const IdMaps& maps, std::size_t cap) : maps_(maps), cap_(cap) {}

  bool Accept(const Biclique& b) {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
    if (captured_.size() < cap_) {
      Biclique mapped;
      for (VertexId u : b.upper) {
        mapped.upper.push_back(maps_.upper_to_parent[u]);
      }
      for (VertexId v : b.lower) {
        mapped.lower.push_back(maps_.lower_to_parent[v]);
      }
      captured_.push_back(std::move(mapped));
    }
    return true;
  }
  std::uint64_t count() const { return count_; }
  std::vector<Biclique>& captured() { return captured_; }

 private:
  const IdMaps& maps_;
  const std::size_t cap_;
  std::mutex mu_;
  std::uint64_t count_ = 0;
  std::vector<Biclique> captured_;
};

/// Nanoseconds per result of `pass` over `results`, repeated until at
/// least 50 ms were timed.
template <typename Pass>
double NsPerResult(const std::vector<Biclique>& results, Pass&& pass) {
  if (results.empty()) return 0.0;
  std::size_t passes = 0;
  Timer timer;
  do {
    pass();
    ++passes;
  } while (timer.ElapsedSeconds() < 0.05);
  return timer.ElapsedSeconds() * 1e9 /
         static_cast<double>(passes * results.size());
}

/// Self time per span name: a span's duration minus that of its direct
/// children (spans of the same thread nested inside it).
std::map<std::string, double> SelfSeconds(
    const std::vector<TraceSpanData>& spans) {
  std::vector<TraceSpanData> sorted = spans;
  std::sort(sorted.begin(), sorted.end(),
            [](const TraceSpanData& a, const TraceSpanData& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;
            });
  std::map<std::string, double> self;
  std::vector<std::size_t> open;  // stack of enclosing spans
  std::vector<double> child_us(sorted.size(), 0.0);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const TraceSpanData& s = sorted[i];
    while (!open.empty()) {
      const TraceSpanData& top = sorted[open.back()];
      if (top.tid == s.tid && s.ts_us + s.dur_us <= top.ts_us + top.dur_us) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty()) child_us[open.back()] += s.dur_us;
    open.push_back(i);
  }
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    self[sorted[i].name] += (sorted[i].dur_us - child_us[i]) * 1e-6;
  }
  return self;
}

/// One measurement of one query: the full pipeline untraced and with the
/// program's own phase spans on, then the same query one layer call at a
/// time under the benchmark's spans.
struct Measurement {
  double untraced_s = 0, traced_s = 0;
  double reduce_s = 0, construct_s = 0, color_s = 0, peel_s = 0,
         compact_s = 0, engine_s = 0;
  /// untraced_s minus reduce_s (which includes compaction) and engine_s.
  double pipeline_overhead_s = 0;
  std::uint64_t count = 0, traced_count = 0, decomposed_count = 0;
  std::uint64_t digest = 0, traced_digest = 0;
  QuerySummary summary;  ///< of the untraced run.
  double survivors = 0, peak_bytes = 0;
  EnumStats engine;
  std::vector<Biclique> captured;
};

Measurement MeasureOnce(const Point& p, const BipartiteGraph& g,
                        TraceRecorder* rec, std::size_t capture_cap) {
  Measurement m;
  const bool bi_side = p.model == FairModel::kBsfbc;
  EnumOptions options;
  options.num_threads = p.threads;

  DigestAccumulator plain;
  Timer untraced;
  m.summary.stats =
      RunEnumeration(g, p.model, FairAlgo::kPlusPlus, p.params, options,
                     plain.Wrap([](const Biclique&) { return true; }));
  m.untraced_s = untraced.ElapsedSeconds();
  plain.FillSummary(&m.summary);

  DigestAccumulator traced;
  TraceRecorder program_spans;
  EnumOptions traced_options = options;
  traced_options.trace = &program_spans;
  Timer traced_timer;
  RunEnumeration(g, p.model, FairAlgo::kPlusPlus, p.params, traced_options,
                 traced.Wrap([](const Biclique&) { return true; }));
  m.traced_s = traced_timer.ElapsedSeconds();
  m.count = plain.count();
  m.digest = plain.digest();
  m.traced_count = traced.count();
  m.traced_digest = traced.digest();

  TraceSpan query_span(rec, "query");
  Timer reduce_timer;
  TraceSpan reduce_span(rec, "reduce");
  PruneResult pruned;
  {
    ReductionContext ctx(ResolveNumThreads(p.threads));
    ctx.set_trace(rec);
    pruned = bi_side ? BCFCore(g, p.params.alpha, p.params.beta, &ctx)
                     : CFCore(g, p.params.alpha, p.params.beta, &ctx);
    m.construct_s = ctx.times().construct_seconds;
    m.color_s = ctx.times().color_seconds;
    m.peel_s = ctx.times().peel_seconds;
  }
  IdMaps maps;
  Timer compact_timer;
  TraceSpan compact_span(rec, "compact");
  const BipartiteGraph sub = InducedSubgraph(g, pruned.masks, &maps);
  compact_span.End();
  m.compact_s = compact_timer.ElapsedSeconds();
  reduce_span.End();
  m.reduce_s = reduce_timer.ElapsedSeconds();

  CaptureSink capture(maps, capture_cap);
  const BicliqueSink sink = [&capture](const Biclique& b) {
    return capture.Accept(b);
  };
  Timer engine_timer;
  TraceSpan engine_span(rec, "engine");
  m.engine = bi_side ? BFairBcemRun(sub, p.params, options,
                                    SsEngine::kFairBcemPlusPlus, sink)
                     : FairBcemPpRun(sub, p.params, p.params.alpha, options,
                                     sink);
  engine_span.End();
  m.engine_s = engine_timer.ElapsedSeconds();
  query_span.End();
  m.pipeline_overhead_s = m.untraced_s - m.reduce_s - m.engine_s;

  m.decomposed_count = capture.count();
  m.survivors = static_cast<double>(sub.NumUpper() + sub.NumLower());
  m.peak_bytes = static_cast<double>(pruned.peak_struct_bytes);
  m.captured = std::move(capture.captured());
  return m;
}

void AddEngineStats(const EnumStats& s, EnumStats* into) {
  into->num_results += s.num_results;
  into->search_nodes += s.search_nodes;
  into->maximal_bicliques_visited += s.maximal_bicliques_visited;
  into->split_subtrees += s.split_subtrees;
  MergeKernelStats(into->kernels, s.kernels);
}

/// Median over repetitions of one timing field.
double MedianOf(const std::vector<Measurement>& reps,
                double Measurement::*field) {
  std::vector<double> v;
  for (const Measurement& m : reps) v.push_back(m.*field);
  return Percentile(v, 50);
}

/// Replays `count` schedule requests through an in-process executor from
/// plan.connections caller threads (each starting where its TCP lane
/// would) and returns the per-request latencies in ms.
std::vector<double> ReplayExecutor(const Plan& plan, QueryExecutor& executor,
                                   std::size_t count) {
  std::vector<std::vector<double>> per_thread(plan.connections);
  std::vector<std::thread> threads;
  const std::size_t m = plan.schedule.size();
  for (unsigned c = 0; c < plan.connections; ++c) {
    threads.emplace_back([&, c] {
      std::size_t pos = c * m / plan.connections;
      for (std::size_t i = c; i < count; i += plan.connections) {
        const Request& r = plan.schedule[pos++ % m];
        const QueryRequest q = ToQueryRequest(plan, r);
        Timer timer;
        if (r.mode == Mode::kStream) {
          std::mutex mu;
          std::condition_variable cv;
          bool done = false;
          executor.ExecuteStreaming(
              q, [](const QueryExecutor::StreamChunk&) {},
              [&](QueryResult) {
                std::lock_guard<std::mutex> lock(mu);
                done = true;
                cv.notify_one();
              });
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done; });
        } else {
          executor.Execute(q);
        }
        per_thread[c].push_back(timer.ElapsedMillis());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> all;
  for (const auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  return all;
}

}  // namespace

int RunLayers(const RunConfig& cfg) {
  const Plan plan = MakePlan(cfg.workload, cfg.seed, cfg.scale);
  const std::vector<std::string> names = GraphNames(plan);
  std::uint64_t attempted = 0, failed = 0;
  Report out;

  // graph: snapshot load (median of three) and size.
  std::map<std::string, BipartiteGraph> graphs;
  std::vector<double> load_s;
  double snapshot_bytes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Timer timer;
    for (const std::string& name : names) {
      Result<BipartiteGraph> g = ReadSnapshot(SnapshotPath(cfg.dir, name));
      if (!g.ok()) {
        std::cerr << "perfbench: " << g.status().ToString() << "\n";
        return 1;
      }
      graphs[name] = std::move(g).value();
    }
    load_s.push_back(timer.ElapsedSeconds());
  }
  for (const std::string& name : names) {
    snapshot_bytes += static_cast<double>(
        std::filesystem::file_size(SnapshotPath(cfg.dir, name)));
  }
  out.Add("graph.load_s", Percentile(load_s, 50));
  out.Add("graph.snapshot_bytes", snapshot_bytes);

  // The queries decomposed layer by layer: every point of enum_heavy
  // and reduce_heavy, every fifth of the mixed grid (16 of 80,
  // spread over all five graphs and both models).
  std::vector<std::size_t> layer_points;
  const std::size_t stride = cfg.workload == Workload::kServiceMix ? 5 : 1;
  for (std::size_t i = 0; i < plan.points.size(); i += stride) {
    layer_points.push_back(i);
  }

  TraceRecorder rec(1 << 16);
  rec.set_label(ToString(cfg.workload));
  Measurement t;  // per-point medians, summed over the layer points
  double vertices = 0, reply_bytes = 0;
  std::vector<Biclique> captured;
  for (std::size_t index : layer_points) {
    const Point& p = plan.points[index];
    const BipartiteGraph& g = graphs.at(p.graph);
    // Up to three repetitions, while they take under half a second, so
    // the cheap queries report medians. The first one is traced and
    // captures results.
    std::vector<Measurement> reps;
    const std::size_t capture_cap = kCaptureMax / layer_points.size();
    Timer point_timer;
    do {
      const bool first = reps.empty();
      reps.push_back(MeasureOnce(p, g, first ? &rec : nullptr,
                                 first ? capture_cap : 0));
    } while (reps.size() < 3 && point_timer.ElapsedSeconds() < 0.5);

    // The runs of one query must agree with each other and, where one is
    // pinned, with the pinned count.
    const std::optional<Reference> pinned =
        cfg.scale == 1.0 ? PinnedReference(cfg.workload, index) : std::nullopt;
    for (const Measurement& m : reps) {
      ++attempted;
      if (m.count != m.traced_count || m.digest != m.traced_digest ||
          m.count != m.decomposed_count || m.count != reps[0].count ||
          m.digest != reps[0].digest || (pinned && pinned->count != m.count)) {
        ++failed;
        std::cerr << "perfbench: layer runs of point " << index
                  << " disagree: " << m.count << " / " << m.traced_count
                  << " / " << m.decomposed_count << "\n";
      }
    }

    for (double Measurement::*field :
         {&Measurement::untraced_s, &Measurement::traced_s,
          &Measurement::reduce_s, &Measurement::construct_s,
          &Measurement::color_s, &Measurement::peel_s,
          &Measurement::compact_s, &Measurement::engine_s,
          &Measurement::pipeline_overhead_s}) {
      t.*field += MedianOf(reps, field);
    }
    const Measurement& first = reps[0];
    t.survivors += first.survivors;
    t.peak_bytes += first.peak_bytes;
    vertices += static_cast<double>(g.NumUpper() + g.NumLower());
    AddEngineStats(first.engine, &t.engine);

    QueryResult result;
    result.summary = first.summary;
    result.seconds = first.untraced_s;
    reply_bytes += static_cast<double>(
        QueryResultJson(ToQueryRequest(plan, {index, FairAlgo::kPlusPlus,
                                              Mode::kCount, false}),
                        result)
            .size());
    for (Biclique& b : reps[0].captured) captured.push_back(std::move(b));
  }

  const double q = static_cast<double>(layer_points.size());
  out.Add("reduce.s", t.reduce_s / q);
  out.Add("reduce.construct_s", t.construct_s / q);
  out.Add("reduce.color_s", t.color_s / q);
  out.Add("reduce.peel_s", t.peel_s / q);
  out.Add("reduce.compact_s", t.compact_s / q);
  out.Add("reduce.survivor_ratio", t.survivors / vertices);
  out.Add("reduce.peak_bytes", t.peak_bytes / q);
  out.Add("engine.s", t.engine_s / q);
  out.Add("engine.search_nodes",
          static_cast<double>(t.engine.search_nodes) / q);
  out.Add("engine.maximal_bicliques",
          static_cast<double>(t.engine.maximal_bicliques_visited) / q);
  out.Add("engine.results", static_cast<double>(t.engine.num_results) / q);
  out.Add("engine.results_per_node",
          t.engine.search_nodes == 0
              ? 0.0
              : static_cast<double>(t.engine.num_results) /
                    static_cast<double>(t.engine.search_nodes));
  out.Add("engine.split_subtrees",
          static_cast<double>(t.engine.split_subtrees) / q);
  out.Add("kernel.calls", static_cast<double>(t.engine.kernels.calls) / q);
  out.Add("kernel.steps", static_cast<double>(t.engine.kernels.steps) / q);
  out.Add("kernel.merge", static_cast<double>(t.engine.kernels.merge) / q);
  out.Add("kernel.gallop", static_cast<double>(t.engine.kernels.gallop) / q);
  out.Add("kernel.bitset", static_cast<double>(t.engine.kernels.bitset) / q);
  out.Add("pipeline.overhead_s", t.pipeline_overhead_s / q);
  out.Add("trace.overhead_ratio", t.traced_s / t.untraced_s);

  // sink: replay the captured results through each stage.
  {
    TraceSpan replay(&rec, "sink_replay");
    out.Add("sink.digest_ns_per_result", NsPerResult(captured, [&] {
              DigestAccumulator acc;
              BicliqueSink s = acc.Wrap([](const Biclique&) { return true; });
              for (const Biclique& b : captured) s(b);
            }));
    out.Add("sink.chunk_ns_per_result", NsPerResult(captured, [&] {
              ChunkSink chunks(64, [](std::vector<Biclique>&&,
                                      const StreamCheckpoint&) {
                return true;
              });
              for (const Biclique& b : captured) chunks.Accept(b);
              chunks.Finish();
            }));
    out.Add("sink.topk_ns_per_result", NsPerResult(captured, [&] {
              TopKSink top(kTopK, TopKRank::kWeight);
              for (const Biclique& b : captured) top.Accept(b);
              top.Finish();
            }));
  }

  // serialize: the streamed chunk renderings of both protocols, and the
  // summary reply.
  {
    TraceSpan serialize(&rec, "serialize");
    const QueryRequest request = ToQueryRequest(
        plan, {layer_points[0], FairAlgo::kPlusPlus, Mode::kStream, false});
    out.Add("serialize.ns_per_result", NsPerResult(captured, [&] {
              QueryExecutor::StreamChunk chunk;
              for (std::size_t at = 0; at < captured.size(); at += 64) {
                const std::size_t end = std::min(captured.size(), at + 64);
                chunk.seq++;
                chunk.bicliques.assign(captured.begin() + at,
                                       captured.begin() + end);
                const std::string json = StreamChunkJson(request, chunk);
                const std::string binary = wire::EncodeChunkPayload(
                    chunk.seq, end, 0, chunk.bicliques);
                if (json.empty() || binary.empty()) std::abort();
              }
            }));
    out.Add("serialize.reply_bytes", reply_bytes / q);
  }

  // executor: the same requests through QueryExecutor in-process.
  {
    TraceSpan span(&rec, "executor");
    GraphCatalog catalog;
    for (const auto& [name, g] : graphs) catalog.AddGraph(name, g);
    QueryExecutor executor(catalog);
    const std::size_t replay = cfg.workload == Workload::kServiceMix
                                   ? kExecutorReplay
                                   : plan.schedule.size();
    const std::vector<double> latency = ReplayExecutor(plan, executor, replay);
    const QueryExecutor::Telemetry tel = executor.telemetry();
    out.Add("executor.latency_p50_ms", Percentile(latency, 50));
    out.Add("executor.executions", static_cast<double>(tel.executions));
    out.Add("executor.coalesced", static_cast<double>(tel.coalesced));
  }

  // Self time per layer, per decomposed query.
  const std::vector<TraceSpanData> spans = rec.Snapshot();
  const std::map<std::string, double> self = SelfSeconds(spans);
  double query_total = 0.0;
  double queries = 0.0;
  for (const TraceSpanData& s : spans) {
    if (std::string(s.name) == "query") {
      query_total += s.dur_us * 1e-6;
      ++queries;
    }
  }
  auto self_of = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  out.Add("trace.coverage",
          query_total > 0 ? 1.0 - self_of("query") / query_total : 1.0);
  for (const char* layer :
       {"query", "reduce", "construct", "color", "peel", "compact", "engine"}) {
    out.Add(std::string("trace.self_") + layer + "_s",
            self_of(layer) / std::max(1.0, queries));
  }
  {
    std::ofstream trace_out(cfg.dir + "/trace_" + ToString(cfg.workload) +
                            ".json");
    trace_out << TraceEventsJson(rec) << "\n";
  }

  out.Add("attempted", static_cast<double>(attempted));
  out.Add("failed", static_cast<double>(failed));
  std::cout << out.Json() << std::endl;
  return 0;
}

}  // namespace fairbc::perfbench
