#include "service/query_executor.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "core/result_sink.h"
#include "core/search_context.h"

namespace fairbc {

QueryExecutor::QueryExecutor(const GraphCatalog& catalog,
                             const QueryExecutorOptions& options)
    : catalog_(catalog),
      owned_metrics_(options.metrics == nullptr
                         ? std::make_unique<MetricsRegistry>()
                         : nullptr),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : owned_metrics_.get()),
      queries_(metrics_->GetCounter("fairbc_queries_total",
                                    "Queries admitted by the executor.")),
      executions_(metrics_->GetCounter("fairbc_query_executions_total",
                                       "Enumerations actually run.")),
      coalesced_(metrics_->GetCounter(
          "fairbc_query_coalesced_total",
          "Queries served by joining an identical in-flight execution.")),
      failures_(metrics_->GetCounter("fairbc_query_failures_total",
                                     "Queries completed with an error.")),
      slow_retained_(metrics_->GetCounter(
          "fairbc_slow_queries_total",
          "Query traces retained by the slow-query threshold.")),
      async_pending_(metrics_->GetGauge(
          "fairbc_inflight_queries",
          "Queries admitted but not yet completed (leaders, unshared runs, "
          "parked subscribers).")),
      query_seconds_(metrics_->GetHistogram(
          "fairbc_query_seconds", "Wall clock of executed queries.")),
      phase_construct_(metrics_->GetHistogram(
          "fairbc_query_phase_seconds", "Per-phase query latency.",
          "phase=\"construct\"")),
      phase_color_(metrics_->GetHistogram("fairbc_query_phase_seconds",
                                          "Per-phase query latency.",
                                          "phase=\"color\"")),
      phase_peel_(metrics_->GetHistogram("fairbc_query_phase_seconds",
                                         "Per-phase query latency.",
                                         "phase=\"peel\"")),
      phase_enumerate_(metrics_->GetHistogram("fairbc_query_phase_seconds",
                                              "Per-phase query latency.",
                                              "phase=\"enumerate\"")),
      kernel_calls_(metrics_->GetCounter(
          "fairbc_kernel_calls_total",
          "Intersection-kernel invocations (core/kernels.h).")),
      kernel_steps_(metrics_->GetCounter("fairbc_kernel_steps_total",
                                         "Intersection-kernel work steps.")),
      kernel_merge_(metrics_->GetCounter("fairbc_kernel_dispatch_total",
                                         "Kernel dispatch decisions.",
                                         "kernel=\"merge\"")),
      kernel_gallop_(metrics_->GetCounter("fairbc_kernel_dispatch_total",
                                          "Kernel dispatch decisions.",
                                          "kernel=\"gallop\"")),
      kernel_bitset_(metrics_->GetCounter("fairbc_kernel_dispatch_total",
                                          "Kernel dispatch decisions.",
                                          "kernel=\"bitset\"")),
      streams_(metrics_->GetCounter("fairbc_stream_queries_total",
                                    "Streaming executions admitted.")),
      stream_chunks_(metrics_->GetCounter(
          "fairbc_stream_chunks_total",
          "Stream chunks delivered (all streams and subscribers).")),
      stream_first_result_(metrics_->GetHistogram(
          "fairbc_stream_first_result_seconds",
          "Streaming admission to first delivered chunk.")),
      cache_(options.cache_capacity, metrics_, options.cache_biclique_bytes),
      stream_chunk_results_(options.stream_chunk_results < 1
                                ? 1
                                : options.stream_chunk_results),
      slow_query_ms_(options.slow_query_ms),
      trace_span_capacity_(options.trace_span_capacity),
      trace_ring_(options.trace_ring_capacity),
      slow_query_log_(options.slow_query_log) {
  const unsigned n = ResolveNumThreads(options.num_threads);
  runners_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    runners_.emplace_back([this] { RunnerLoop(); });
  }
}

QueryExecutor::~QueryExecutor() {
  {
    std::lock_guard<std::mutex> lock(runner_mu_);
    runner_stop_ = true;
  }
  runner_cv_.notify_all();
  for (std::thread& t : runners_) t.join();
}

void QueryExecutor::PostToRunner(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(runner_mu_);
    runner_tasks_.push_back(std::move(task));
  }
  runner_cv_.notify_one();
}

void QueryExecutor::RunnerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(runner_mu_);
      runner_cv_.wait(
          lock, [this] { return runner_stop_ || !runner_tasks_.empty(); });
      // Drain-on-stop: queued executions still carry completions someone
      // may be waiting on, so the pool finishes them before exiting.
      if (runner_tasks_.empty()) return;
      task = std::move(runner_tasks_.front());
      runner_tasks_.pop_front();
    }
    task();
  }
}

std::shared_ptr<TraceRecorder> QueryExecutor::MaybeStartTrace() const {
  if (!tracing_enabled()) return nullptr;
  return std::make_shared<TraceRecorder>(trace_span_capacity_);
}

void QueryExecutor::FinalizeTrace(const QueryRequest& request,
                                  std::shared_ptr<TraceRecorder> trace,
                                  QueryResult* out) {
  if (trace == nullptr) return;
  std::ostringstream label;
  label << request.graph << ' ' << ToString(request.model) << '/'
        << ToString(request.algo) << " alpha=" << request.params.alpha
        << " beta=" << request.params.beta
        << " delta=" << request.params.delta;
  // A client correlation id rides into the retained trace, so a slow
  // streamed query found via `trace` can be matched to the client log.
  if (!request.request_id.empty()) label << " rid=" << request.request_id;
  trace->set_label(label.str());
  trace->set_wall_seconds(out->seconds);
  out->trace = trace;
  if (out->seconds * 1e3 >= slow_query_ms_) {
    trace_ring_.Push(trace);
    slow_retained_->Increment();
    if (slow_query_log_) slow_query_log_(request, *out);
  }
}

void QueryExecutor::RunQuery(const QueryRequest& request,
                             const BipartiteGraph& graph, QueryResult* out,
                             TraceRecorder* trace, const ChunkCallback* emit) {
  std::function<void(const QueryRequest&)> hook;
  {
    std::lock_guard<std::mutex> lock(hook_mu_);
    hook = execute_hook_;
  }
  if (hook) hook(request);
  TraceSpan span(trace, "execute");
  Timer run_timer;
  DigestAccumulator digest;
  EnumOptions options = request.options;
  options.trace = trace;
  // Executor-owned budget when streaming: chunk checkpoints read the node
  // count mid-run, which the engines' internal budget would keep private.
  SearchBudget budget(options);
  if (emit != nullptr) options.shared_budget = &budget;

  // Streamed chunks flow through a bounded ChunkSink. Its guaranteed
  // empty-run flush is skipped here — the end-of-stream marker emitted
  // below carries the totals (and the `final` flag) either way.
  std::uint64_t seq = 0;
  double stream_start_us = -1.0;
  std::optional<ChunkSink> chunker;
  if (emit != nullptr) {
    chunker.emplace(
        stream_chunk_results_,
        [&](std::vector<Biclique>&& bicliques,
            const StreamCheckpoint& checkpoint) {
          if (bicliques.empty()) return true;
          StreamChunk chunk;
          chunk.seq = ++seq;
          chunk.bicliques = std::move(bicliques);
          chunk.results_so_far = checkpoint.results;
          chunk.nodes_so_far = checkpoint.nodes;
          (*emit)(chunk);
          return true;
        },
        &budget);
  }

  // Terminal stage the per-result digest wrapper forwards into: streamed
  // chunks, batch collection, or nothing (summary-only).
  BicliqueSink terminal;
  if (chunker) {
    terminal = chunker->AsSink();
  } else if (request.include_bicliques) {
    terminal = [out](const Biclique& b) {
      out->bicliques.push_back(b);
      return true;
    };
  } else {
    terminal = [](const Biclique&) { return true; };
  }

  // The pipeline entry points serialize sink invocation, so the plain
  // accumulator, vector push_back and chunk buffer are safe at any
  // num_threads.
  if (request.top_k > 0) {
    // Top-k interposes between the engines and the terminal stage: the
    // keeper absorbs the full emission (publishing the k-th best into the
    // engines' prune bound as it fills), then the final ranking replays
    // through digest + terminal so the summary — and any stream — describe
    // exactly the kept set, best first.
    TopKSink topk(request.top_k, request.rank);
    options.topk = topk.prune_bound();
    out->summary.stats =
        RunEnumeration(graph, request.model, request.algo, request.params,
                       options, topk.AsSink());
    topk.Finish();
    std::vector<Biclique> best = topk.Take();
    BicliqueSink wrapped = digest.Wrap(std::move(terminal));
    for (const Biclique& b : best) {
      if (!wrapped(b)) break;
    }
    out->summary.stats.num_results = best.size();
  } else {
    out->summary.stats =
        RunEnumeration(graph, request.model, request.algo, request.params,
                       options, digest.Wrap(std::move(terminal)));
  }
  digest.FillSummary(&out->summary);
  if (chunker) {
    // The "stream" span covers the post-enumeration delivery tail (final
    // chunk flush + end-of-stream marker): mid-run chunk flushes happen
    // inside the enumerate span, and Chrome trace complete events on one
    // thread must nest — a first-flush-to-last span would straddle
    // enumerate's boundary. First-chunk latency lives in the
    // fairbc_stream_first_result_seconds histogram instead.
    if (trace != nullptr) stream_start_us = trace->NowMicros();
    chunker->Finish();
    StreamChunk end;
    end.seq = ++seq;
    end.results_so_far = digest.count();
    end.nodes_so_far = budget.nodes();
    end.final = true;
    (*emit)(end);
    if (trace != nullptr) {
      trace->Record("stream", stream_start_us,
                    trace->NowMicros() - stream_start_us);
    }
  }
  out->effective_threads = ResolveNumThreads(request.options.num_threads);
  span.End();

  const EnumStats& stats = out->summary.stats;
  executions_->Increment();
  query_seconds_->Observe(run_timer.ElapsedSeconds());
  if (stats.prune_construct_seconds > 0) {
    phase_construct_->Observe(stats.prune_construct_seconds);
  }
  if (stats.prune_color_seconds > 0) {
    phase_color_->Observe(stats.prune_color_seconds);
  }
  if (stats.prune_peel_seconds > 0) {
    phase_peel_->Observe(stats.prune_peel_seconds);
  }
  phase_enumerate_->Observe(stats.enum_seconds);
  kernel_calls_->Increment(stats.kernels.calls);
  kernel_steps_->Increment(stats.kernels.steps);
  kernel_merge_->Increment(stats.kernels.merge);
  kernel_gallop_->Increment(stats.kernels.gallop);
  kernel_bitset_->Increment(stats.kernels.bitset);
}

QueryResult QueryExecutor::Execute(const QueryRequest& request) {
  return AwaitAll({request}).front();
}

void QueryExecutor::ExecuteAsync(const QueryRequest& request, Completion done) {
  Admit(request, nullptr, std::move(done));
}

void QueryExecutor::ExecuteStreaming(const QueryRequest& request,
                                     ChunkCallback on_chunk, Completion done) {
  // The chunks are a stream's payload; it never collects bicliques into
  // its result, so it shares (and is cached) like a summary query would.
  QueryRequest stream = request;
  stream.include_bicliques = false;
  Admit(stream, std::move(on_chunk), std::move(done));
}

std::vector<QueryResult> QueryExecutor::ExecuteBatch(
    const std::vector<QueryRequest>& requests) {
  std::vector<QueryRequest> batch = requests;
  // Whole queries are the batch's unit of parallelism; nested per-query
  // pools on top of busy runners would oversubscribe the machine (see the
  // header contract — the result set does not change).
  for (QueryRequest& request : batch) request.options.num_threads = 1;
  return AwaitAll(batch);
}

std::vector<QueryResult> QueryExecutor::AwaitAll(
    const std::vector<QueryRequest>& requests) {
  std::vector<QueryResult> results(requests.size());
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining = requests.size();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ExecuteAsync(requests[i], [&results, &mu, &cv, &remaining,
                               i](QueryResult r) {
      results[i] = std::move(r);
      // Notify while holding mu: the waiter cannot return from wait (and
      // destroy the stack cv) until it reacquires mu, which orders the
      // destruction after this signal completes.
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return remaining == 0; });
  return results;
}

void QueryExecutor::Admit(const QueryRequest& request, ChunkCallback on_chunk,
                          Completion done) {
  Timer timer;
  queries_->Increment();
  const bool streaming = on_chunk != nullptr;
  if (streaming) streams_->Increment();
  std::shared_ptr<const CatalogEntry> entry = catalog_.Get(request.graph);
  if (entry == nullptr) {
    QueryResult out;
    out.status = Status::NotFound("unknown graph: " + request.graph);
    out.seconds = timer.ElapsedSeconds();
    failures_->Increment();
    done(std::move(out));
    return;
  }

  std::shared_ptr<TraceRecorder> trace = MaybeStartTrace();
  TraceSpan root_span(trace.get(), "query");
  TraceSpan admission_span(trace.get(), "admission");

  const std::string key = CanonicalCacheKey(request, entry->version);
  // Budgeted queries never join a flight: the cache key excludes budgets,
  // so an identical-key leader may take arbitrarily longer than this
  // query's own deadline allows. They still take cache hits, and a
  // budgeted summary query still leads (a partial run publishes nothing).
  const bool budgeted = request.options.time_budget_seconds != 0.0 ||
                        request.options.node_budget != 0;
  // Streams and biclique-collecting queries need the result payload, so
  // only a cache entry that retained it serves them.
  const bool summary_only = !streaming && !request.include_bicliques;

  std::optional<QuerySummary> cached;
  ResultCache::Payload payload;
  std::shared_ptr<Flight> flight;
  bool join = false;
  if (request.use_cache) {
    // Admission is atomic: cache lookup and join/lead happen under one
    // lock, and a leader publishes (cache insert + flight retirement)
    // under the same lock — so between a miss here and our flight's
    // insertion no other execution can slip through, and each key has
    // exactly one execution per cache-miss epoch among queries allowed to
    // join. Collecting queries never share a flight: no leader keeps the
    // bicliques they want.
    std::lock_guard<std::mutex> lock(inflight_mu_);
    cached = cache_.Lookup(key, summary_only ? nullptr : &payload);
    if (!summary_only && payload == nullptr) cached.reset();
    if (!cached && !request.include_bicliques) {
      auto it = inflight_.find(key);
      if (it == inflight_.end()) {
        // A stream leads only without a budget: its backlog is shared.
        if (!(streaming && budgeted)) {
          flight = std::make_shared<Flight>(streaming);
          inflight_.emplace(key, flight);
        }
      } else if (!budgeted && (!streaming || it->second->streaming)) {
        // A summary query joins any flight (ignoring its chunks); a
        // stream needs the leader's backlog. Otherwise: run unshared.
        flight = it->second;
        join = true;
      }
    }
  }

  if (cached) {
    // Served from the cache (trace discarded: nothing ran). A stream
    // replays the retained payload inline, chunked exactly like a live
    // run would have been.
    QueryResult out;
    out.summary = *cached;
    out.cache_hit = true;
    out.graph_version = entry->version;
    if (streaming) {
      std::uint64_t seq = 0;
      for (std::size_t i = 0; i < payload->size();) {
        const std::size_t n =
            std::min(stream_chunk_results_, payload->size() - i);
        StreamChunk chunk;
        chunk.seq = ++seq;
        chunk.bicliques.assign(
            payload->begin() + static_cast<std::ptrdiff_t>(i),
            payload->begin() + static_cast<std::ptrdiff_t>(i + n));
        i += n;
        chunk.results_so_far = i;
        Deliver(on_chunk, chunk, timer);
      }
      StreamChunk end;
      end.seq = ++seq;
      end.results_so_far = payload->size();
      end.final = true;
      Deliver(on_chunk, end, timer);
    } else if (payload != nullptr) {
      out.bicliques = *payload;
    }
    out.seconds = timer.ElapsedSeconds();
    done(std::move(out));
    return;
  }

  async_pending_->Increment();
  if (join) {
    // The duplicate costs one subscriber slot, not one parked thread (the
    // trace is discarded: the leader's run is the story). A stream
    // replays the backlog first, under the mutex the leader delivers
    // under, then rides the live chunks.
    Subscriber sub{request, std::move(on_chunk), std::move(done), timer,
                   entry->version};
    std::unique_lock<std::mutex> lock(flight->mu);
    if (streaming) {
      for (const StreamChunk& chunk : flight->backlog) {
        Deliver(sub.on_chunk, chunk, timer);
      }
    }
    if (!flight->done) {
      flight->subscribers.push_back(std::move(sub));
      return;
    }
    // The leader retired between our lookup and now.
    const QueryResult result = flight->result;
    lock.unlock();
    Settle(std::move(sub), result);
    return;
  }

  admission_span.End();
  const double queued_start_us = trace != nullptr ? trace->NowMicros() : 0.0;
  // std::function demands a copyable target, so the move-only root span
  // rides in a shared_ptr (the task is only ever invoked once).
  auto moved_root = std::make_shared<TraceSpan>(std::move(root_span));
  PostToRunner([this, request, on_chunk = std::move(on_chunk),
                done = std::move(done), entry = std::move(entry), key,
                flight = std::move(flight), timer, trace = std::move(trace),
                root_span = std::move(moved_root), queued_start_us]() mutable {
    if (trace != nullptr) {
      trace->Record("queued", queued_start_us,
                    trace->NowMicros() - queued_start_us);
    }
    QueryResult out;
    out.graph_version = entry->version;
    const ChunkCallback emit = [&](const StreamChunk& chunk) {
      if (flight == nullptr) {
        Deliver(on_chunk, chunk, timer);
        return;
      }
      // Deliver under the flight mutex: backlog append, own callback and
      // subscriber fan-out stay atomic against late subscribers.
      std::lock_guard<std::mutex> lock(flight->mu);
      flight->backlog.push_back(chunk);
      Deliver(on_chunk, chunk, timer);
      for (const Subscriber& sub : flight->subscribers) {
        if (sub.on_chunk) Deliver(sub.on_chunk, chunk, sub.timer);
      }
    };
    RunQuery(request, entry->graph, &out, trace.get(),
             on_chunk ? &emit : nullptr);
    TraceSpan publish_span(trace.get(), "publish");
    FinishFlight(key, request, flight, out);
    publish_span.End();
    root_span->End();
    out.seconds = timer.ElapsedSeconds();
    FinalizeTrace(request, std::move(trace), &out);
    async_pending_->Decrement();
    done(std::move(out));
  });
}

void QueryExecutor::FinishFlight(const std::string& key,
                                 const QueryRequest& request,
                                 const std::shared_ptr<Flight>& flight,
                                 const QueryResult& out) {
  // Partial runs (deadline/budget tripped) must not poison the cache —
  // and must not be adopted by subscribers, whose own budgets may differ.
  const bool publish = request.use_cache && !out.summary.stats.budget_exhausted;
  // Collecting runs and streaming leaders attach the result payload so
  // repeats can skip the engines entirely. Only this runner appends to
  // the backlog, so it reads it without the flight mutex.
  ResultCache::Payload payload;
  if (publish && request.include_bicliques) {
    payload = std::make_shared<const std::vector<Biclique>>(out.bicliques);
  } else if (publish && flight != nullptr && flight->streaming) {
    auto rebuilt = std::make_shared<std::vector<Biclique>>();
    rebuilt->reserve(static_cast<std::size_t>(out.summary.count));
    for (const StreamChunk& chunk : flight->backlog) {
      rebuilt->insert(rebuilt->end(), chunk.bicliques.begin(),
                      chunk.bicliques.end());
    }
    payload = std::move(rebuilt);
  }
  {
    // Cache insert and flight retirement are atomic with admission:
    // between them no duplicate can either miss the cache or join a
    // retired flight unnoticed. Lock order is inflight_mu_ -> Flight::mu;
    // no path takes them in reverse.
    std::lock_guard<std::mutex> lock(inflight_mu_);
    if (publish) cache_.Insert(key, out.summary, std::move(payload));
    if (flight != nullptr) inflight_.erase(key);
  }
  if (flight == nullptr) return;
  std::vector<Subscriber> subscribers;
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
    flight->result.status = out.status;
    flight->result.summary = out.summary;
    subscribers = std::move(flight->subscribers);
  }
  for (Subscriber& sub : subscribers) Settle(std::move(sub), out);
}

void QueryExecutor::Settle(Subscriber sub, const QueryResult& result) {
  async_pending_->Decrement();
  if (result.summary.stats.budget_exhausted) {
    // Partial leader run: never adopted. Re-admission usually elects the
    // first subscriber as the new leader and stacks the rest behind it.
    // Only summary subscribers get here: a stream joins only a streaming
    // leader, which carries no budget.
    Admit(sub.request, std::move(sub.on_chunk), std::move(sub.done));
    return;
  }
  QueryResult adopted;
  adopted.status = result.status;
  adopted.summary = result.summary;
  adopted.coalesced = true;
  adopted.graph_version = sub.graph_version;
  adopted.seconds = sub.timer.ElapsedSeconds();
  coalesced_->Increment();
  sub.done(std::move(adopted));
}

void QueryExecutor::Deliver(const ChunkCallback& on_chunk,
                            const StreamChunk& chunk, const Timer& timer) {
  if (chunk.seq == 1) stream_first_result_->Observe(timer.ElapsedSeconds());
  stream_chunks_->Increment();
  on_chunk(chunk);
}

QueryExecutor::Telemetry QueryExecutor::telemetry() const {
  Telemetry t;
  t.cache = cache_.telemetry();
  t.executions = executions_->Value();
  t.coalesced = coalesced_->Value();
  return t;
}

}  // namespace fairbc
