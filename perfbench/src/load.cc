// TCP load generator and correctness gate: drives a running
// fairbc_server closed-loop for the run's window and prints one JSON
// object with the end-to-end figures (and, with --trace, the front-end
// layer counters read off the wire and the registry).

#include "measure.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "bench_util/meta.h"
#include "client.h"
#include "core/verify.h"
#include "graph/snapshot.h"
#include "report.h"
#include "stats.h"

namespace fairbc::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// utime + stime of a process, in seconds (/proc/PID/stat).
double ProcessCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

struct Sample {
  std::size_t request = 0;  ///< schedule index.
  double latency_ms = 0.0;
  double first_byte_ms = 0.0;
  double server_ms = 0.0;
  bool ok = false;
  bool cache_hit = false;
};

/// One connection's share of the run.
struct Lane {
  std::unique_ptr<Connection> conn;
  std::vector<Sample> samples;
  std::uint64_t bytes_in = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t failed = 0;
  std::uint64_t transport_failures = 0;
  Clock::time_point last_done;
  /// Sampled streamed bicliques, per point, for VerifyResultSet.
  std::vector<std::pair<std::size_t, std::vector<Biclique>>> streamed;
};

/// Checks one reply against its point's reference; describes a mismatch
/// in `why`.
bool CheckReply(const Request& request, const Reply& reply,
                const Reference& ref, std::string* why) {
  if (!reply.ok) {
    *why = "error reply: " + reply.error;
    return false;
  }
  std::uint64_t count = ref.count;
  std::uint64_t digest = ref.digest;
  if (request.mode == Mode::kTopK) {
    count = ref.topk_count;
    digest = ref.topk_digest;
  }
  if (reply.count != count || reply.digest != digest) {
    *why = "summary count/digest " + std::to_string(reply.count) + "/" +
           std::to_string(reply.digest) + " != reference " +
           std::to_string(count) + "/" + std::to_string(digest);
    return false;
  }
  if (request.mode == Mode::kStream &&
      (reply.streamed != ref.count || reply.streamed_digest != ref.digest)) {
    *why = "reassembled stream " + std::to_string(reply.streamed) +
           " bicliques does not match the reference";
    return false;
  }
  return true;
}

std::vector<Reference> LoadReferences(const RunConfig& cfg, const Plan& plan,
                                      const std::map<std::string,
                                                     BipartiteGraph>& graphs,
                                      std::uint64_t* failed) {
  std::vector<Reference> refs(plan.points.size());
  std::vector<std::optional<Reference>> pinned(plan.points.size());
  if (cfg.scale == 1.0) {
    for (std::size_t i = 0; i < refs.size(); ++i) {
      pinned[i] = PinnedReference(cfg.workload, i);
    }
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < refs.size();
         i = next.fetch_add(1)) {
      if (cfg.seed == 0 && pinned[i]) {
        refs[i] = *pinned[i];
      } else {
        refs[i] = ComputeReference(graphs.at(plan.points[i].graph),
                                   plan.points[i]);
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  // Counts are invariant under relabelling: every seed checks them
  // against the pinned seed-0 values.
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (pinned[i] && (refs[i].count != pinned[i]->count ||
                      refs[i].topk_count != pinned[i]->topk_count)) {
      std::cerr << "perfbench: reference of point " << i << " counts "
                << refs[i].count << ", pinned " << pinned[i]->count << "\n";
      ++*failed;
    }
  }
  return refs;
}

struct Scrape {
  double executions = 0, hits = 0, misses = 0, payload_hits = 0,
         evictions = 0, reads = 0, writes = 0;
};

bool ScrapeMetrics(Connection& conn, Scrape* s) {
  std::string reply;
  if (!conn.Command("metrics", &reply)) return false;
  const std::string text = MetricsText(reply);
  if (text.empty()) return false;
  s->executions = PromValue(text, "fairbc_query_executions_total");
  s->hits = PromValue(text, "fairbc_cache_hits_total");
  s->misses = PromValue(text, "fairbc_cache_misses_total");
  s->payload_hits = PromValue(text, "fairbc_cache_payload_hits_total");
  s->evictions = PromValue(text, "fairbc_cache_evictions_total");
  s->reads = PromValue(text, "fairbc_reactor_reads_total");
  s->writes = PromValue(text, "fairbc_reactor_writes_total");
  return true;
}

}  // namespace

int RunLoad(const RunConfig& cfg) {
  const Plan plan = MakePlan(cfg.workload, cfg.seed, cfg.scale);
  std::map<std::string, BipartiteGraph> graphs;
  for (const std::string& name : GraphNames(plan)) {
    Result<BipartiteGraph> g = ReadSnapshot(SnapshotPath(cfg.dir, name));
    if (!g.ok()) {
      std::cerr << "perfbench: " << g.status().ToString() << "\n";
      return 1;
    }
    graphs.emplace(name, std::move(g).value());
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::vector<Reference> refs =
      LoadReferences(cfg, plan, graphs, &failed);

  std::vector<Lane> lanes(plan.connections);
  for (unsigned c = 0; c < plan.connections; ++c) {
    const Protocol protocol =
        c < plan.line_connections ? Protocol::kLine : Protocol::kBinary;
    lanes[c].conn = Connection::Open(cfg.port, protocol);
    if (lanes[c].conn == nullptr) {
      std::cerr << "perfbench: cannot connect to port " << cfg.port << "\n";
      return 1;
    }
  }
  const bool uncached = std::none_of(
      plan.schedule.begin(), plan.schedule.end(),
      [](const Request& r) { return r.use_cache; });
  std::atomic<std::uint64_t> next_id{1};
  std::mutex log_mu;
  int logged = 0;
  auto issue = [&](Lane& lane, std::size_t index, bool record) {
    const Request& request = plan.schedule[index];
    Reply reply;
    if (!lane.conn->Query(plan, request, next_id.fetch_add(1), &reply)) {
      ++lane.transport_failures;
      ++lane.failed;
      return false;
    }
    std::string why;
    const bool ok = CheckReply(request, reply, refs[request.point], &why);
    if (!ok) {
      ++lane.failed;
      std::lock_guard<std::mutex> lock(log_mu);
      if (logged++ < 5) {
        std::cerr << "perfbench: request " << index << " ("
                  << RequestLine(plan, request, "") << "): " << why << "\n";
      }
    }
    if (!record) return true;
    lane.samples.push_back({index, reply.last_byte_ms, reply.first_byte_ms,
                            reply.server_seconds * 1e3, ok, reply.cache_hit});
    lane.bytes_in += reply.bytes_in;
    lane.frames_in += reply.frames_in;
    if (!reply.sample.empty()) {
      lane.streamed.emplace_back(request.point, std::move(reply.sample));
    }
    return true;
  };

  // Warm-up (uncached workloads): one pass over the schedule, so the
  // window does not time first-touch page faults. The mixed workload
  // starts cold on purpose: its first pass inserts into the cache while
  // repeats already read it.
  if (uncached) {
    for (std::size_t i = 0; i < plan.schedule.size(); ++i) {
      ++attempted;
      if (!issue(lanes[0], i, /*record=*/false)) {
        std::cerr << "perfbench: connection lost during the warm-up\n";
        return 1;
      }
    }
    failed += lanes[0].failed;
    lanes[0].failed = 0;
  }

  Scrape before, after;
  if (!ScrapeMetrics(*lanes[0].conn, &before)) {
    std::cerr << "perfbench: metrics scrape failed\n";
    return 1;
  }
  const double cpu_before = ProcessCpuSeconds(cfg.server_pid);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  std::vector<std::thread> threads;
  const std::size_t m = plan.schedule.size();
  for (unsigned c = 0; c < plan.connections; ++c) {
    threads.emplace_back([&, c] {
      Lane& lane = lanes[c];
      std::size_t pos = c * m / plan.connections;
      while (Clock::now() < end) {
        if (!issue(lane, pos++ % m, /*record=*/true)) break;
        lane.last_done = Clock::now();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double cpu_after = ProcessCpuSeconds(cfg.server_pid);

  Lane* control = nullptr;
  for (Lane& lane : lanes) {
    if (lane.transport_failures == 0) control = &lane;
  }
  if (control == nullptr || !ScrapeMetrics(*control->conn, &after)) {
    std::cerr << "perfbench: metrics scrape failed after the window\n";
    return 1;
  }

  std::vector<Sample> samples;
  std::uint64_t bytes_in = 0, frames_in = 0;
  Clock::time_point last_done = start;
  for (Lane& lane : lanes) {
    samples.insert(samples.end(), lane.samples.begin(), lane.samples.end());
    bytes_in += lane.bytes_in;
    frames_in += lane.frames_in;
    failed += lane.failed;
    attempted += lane.samples.size() + lane.transport_failures;
    last_done = std::max(last_done, lane.last_done);
  }
  const double n =
      static_cast<double>(std::max<std::size_t>(1, samples.size()));

  // VerifyResultSet over the sampled streamed bicliques (biclique,
  // fairness, maximality, no duplicates within one stream's sample).
  std::size_t verified = 0;
  for (Lane& lane : lanes) {
    for (const auto& [point, sample] : lane.streamed) {
      if (verified >= 400) break;
      const Point& p = plan.points[point];
      const Status st =
          VerifyResultSet(graphs.at(p.graph), sample, p.params, p.model);
      verified += sample.size();
      if (!st.ok()) {
        ++failed;
        std::cerr << "perfbench: streamed biclique fails verification: "
                  << st.ToString() << "\n";
      }
    }
  }

  // Cold means cold: on the uncached workloads every window request must
  // have run the engines and none may have hit the cache.
  const double executions = after.executions - before.executions;
  const double hits = after.hits - before.hits;
  const double lookups = hits + (after.misses - before.misses);
  if (uncached) {
    if (executions != static_cast<double>(samples.size()) || hits != 0) {
      std::cerr << "perfbench: cold check failed: " << executions
                << " executions and " << hits << " cache hits for "
                << samples.size() << " requests\n";
      failed += samples.size();
    }
  }

  const bool streaming = std::any_of(
      plan.schedule.begin(), plan.schedule.end(),
      [](const Request& r) { return r.mode == Mode::kStream; });
  std::vector<double> latency, ttfr, overhead;
  std::size_t streams = 0, topk = 0, bcem = 0, cache_hits = 0;
  for (const Sample& s : samples) {
    const Request& r = plan.schedule[s.request];
    latency.push_back(s.latency_ms);
    if (r.mode == Mode::kStream) ++streams;
    if (r.mode == Mode::kTopK) ++topk;
    if (r.algo == FairAlgo::kBcem) ++bcem;
    if (s.cache_hit) ++cache_hits;
    // Time to first reply byte: over the streamed requests where the
    // workload streams, over every request otherwise (an unstreamed reply
    // arrives whole, so there it equals the latency).
    if (r.mode == Mode::kStream || !streaming) {
      ttfr.push_back(s.first_byte_ms);
    }
    if (r.mode != Mode::kStream && s.ok) {
      overhead.push_back(s.latency_ms - s.server_ms);
    }
  }

  Report out;
  out.Add("attempted", static_cast<double>(attempted));
  out.Add("failed", static_cast<double>(failed));
  out.Add("requests", static_cast<double>(samples.size()));
  out.Add("throughput_qps",
          static_cast<double>(samples.size()) /
              std::max(1e-9, SecondsBetween(start, last_done)));
  out.Add("latency_p50_ms", Percentile(latency, 50));
  out.Add("latency_p99_ms", Percentile(latency, 99));
  out.Add("latency_beyond_p99", static_cast<double>(CountAbove(latency, 99)));
  out.Add("ttfr_p50_ms", Percentile(ttfr, 50));
  out.Add("ttfr_samples", static_cast<double>(ttfr.size()));
  out.Add("cpu_s", (cpu_after - cpu_before) / n);
  out.Add("error_rate",
          static_cast<double>(failed) /
              static_cast<double>(std::max<std::uint64_t>(1, attempted)));
  out.Add("share_stream", static_cast<double>(streams) / n);
  out.Add("share_topk", static_cast<double>(topk) / n);
  out.Add("share_bcem", static_cast<double>(bcem) / n);
  out.Add("share_cache_hit", static_cast<double>(cache_hits) / n);
  out.Add("verified_bicliques", static_cast<double>(verified));
  // Run stamp; the server itself never sees the seed.
  RunMetadata meta = CollectRunMetadata(cfg.seed);
  meta.scale = cfg.scale;
  out.AddJson("meta", RunMetadataJson(meta));
  if (cfg.trace) {
    std::vector<double> rtt;
    for (Lane& lane : lanes) {
      if (lane.conn->protocol() != Protocol::kBinary ||
          lane.transport_failures != 0) {
        continue;
      }
      for (int i = 0; i < 200; ++i) {
        double us = 0.0;
        if (!lane.conn->Ping(&us)) break;
        rtt.push_back(us);
      }
      break;
    }
    out.Add("frontend.overhead_p50_ms", Percentile(overhead, 50));
    out.Add("wire.bytes_out", static_cast<double>(bytes_in) / n);
    out.Add("wire.frames_out", static_cast<double>(frames_in) / n);
    out.Add("wire.ping_rtt_p50_us", Percentile(rtt, 50));
    out.Add("server.reads", (after.reads - before.reads) / n);
    out.Add("server.writes", (after.writes - before.writes) / n);
    out.Add("cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0);
    out.Add("cache.payload_hits", after.payload_hits - before.payload_hits);
    out.Add("cache.evictions", after.evictions - before.evictions);
  }
  std::cout << out.Json() << std::endl;
  return 0;
}

}  // namespace fairbc::perfbench
