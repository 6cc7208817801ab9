#include "service/server.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "graph/generators.h"
#include "graph/snapshot.h"
#include "service/response_json.h"
#include "service/wire.h"

namespace fairbc {

namespace {

std::string Arg(const RequestLine& req, const std::string& key,
                const std::string& default_value) {
  auto it = req.args.find(key);
  return it == req.args.end() ? default_value : it->second;
}

/// Strict number: unparsable or partially numeric text ("3x") is an
/// error naming `key`. Signed values are range-checked by the caller, so
/// "n=-1" reports its real value; an unsigned T refuses a sign, so
/// "alpha=-1" can never wrap through a cast.
template <typename T>
Result<T> ParseNumber(const std::string& key, const std::string& text) {
  T value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument(
        key +
        (std::is_floating_point_v<T> ? " must be a number"
         : std::is_signed_v<T>       ? " must be an integer"
                                     : " must be a non-negative integer") +
        ", got \"" + text + "\"");
  }
  return value;
}

/// Strict numeric argument: absent → default, otherwise ParseNumber.
template <typename T = std::int64_t>
Result<T> NumArg(const RequestLine& req, const std::string& key,
                 std::type_identity_t<T> default_value) {
  auto it = req.args.find(key);
  if (it == req.args.end()) return default_value;
  return ParseNumber<T>(key, it->second);
}

/// Strict-args check for introspection commands: any key outside `known`
/// is an error. Matches the query-arg hardening — a typo like
/// `trace m=8` must not silently act like a bare `trace`.
Status CheckKnownArgs(const RequestLine& req,
                      std::initializer_list<const char*> known) {
  for (const auto& [key, value] : req.args) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      return Status::InvalidArgument(req.command + " does not take \"" + key +
                                     "\"");
    }
  }
  return Status::OK();
}

}  // namespace

RequestLine ParseRequestLine(const std::string& line) {
  RequestLine req;
  std::istringstream tokens(line);
  tokens >> req.command;
  std::string token;
  while (tokens >> token) {
    auto eq = token.find('=');
    if (eq == std::string::npos) {
      req.args[token] = "1";  // bare key = boolean true, like the CLI.
    } else {
      req.args[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  return req;
}

Result<QueryRequest> BuildQueryRequest(const RequestLine& req, bool* stream) {
  QueryRequest query;
  query.graph = Arg(req, "graph", "");
  auto model = ParseFairModel(Arg(req, "model", "ssfbc"));
  if (!model) return Status::InvalidArgument("bad model (ssfbc|bsfbc)");
  query.model = *model;
  auto algo = ParseFairAlgo(Arg(req, "algo", "pp"));
  if (!algo) return Status::InvalidArgument("bad algo (pp|bcem|naive)");
  query.algo = *algo;
  auto ordering = ParseVertexOrdering(Arg(req, "ordering", "deg"));
  if (!ordering) return Status::InvalidArgument("bad ordering (deg|id)");
  query.options.ordering = *ordering;
  auto pruning = ParsePruningLevel(Arg(req, "pruning", "colorful"));
  if (!pruning) {
    return Status::InvalidArgument("bad pruning (colorful|core|none)");
  }
  query.options.pruning = *pruning;
  auto rank = ParseTopKRank(Arg(req, "rank", "weight"));
  if (!rank) return Status::InvalidArgument("bad rank (weight|size|balance)");
  query.rank = *rank;

  for (auto [key, field, default_value] :
       {std::tuple<const char*, std::uint32_t*, std::uint32_t>{
            "alpha", &query.params.alpha, 1},
        {"beta", &query.params.beta, 1},
        {"delta", &query.params.delta, 0},
        {"top_k", &query.top_k, 0},
        {"threads", &query.options.num_threads, 1}}) {
    auto parsed = NumArg<std::uint32_t>(req, key, default_value);
    if (!parsed.ok()) return parsed.status();
    *field = parsed.value();
  }
  for (auto [key, field] : {std::pair<const char*, double*>{
                                "theta", &query.params.theta},
                            {"budget", &query.options.time_budget_seconds}}) {
    auto parsed = NumArg<double>(req, key, 0.0);
    if (!parsed.ok()) return parsed.status();
    *field = parsed.value();
  }
  auto use_cache = NumArg(req, "cache", 1);
  if (!use_cache.ok()) return use_cache.status();
  query.use_cache = use_cache.value() != 0;
  auto streamed = NumArg(req, "stream", 0);
  if (!streamed.ok()) return streamed.status();
  if (stream != nullptr) *stream = streamed.value() != 0;
  query.request_id = Arg(req, "rid", "");

  Status valid = ValidateQueryRequest(query);
  if (!valid.ok()) return valid;
  return query;
}

std::string TagSessionJson(std::uint64_t id, std::string json) {
  if (json.empty() || json.front() != '{') return json;
  return "{\"session\":" + std::to_string(id) + "," + json.substr(1);
}

namespace {

/// A decoded query-running request: one query (a `query` line or a
/// kQuery frame), or a `sweep` grid.
struct QueryJob {
  QueryRequest query;
  bool stream = false;
  /// A sweep's grid points, alphas-outer / betas / deltas-inner; empty
  /// for a query.
  std::vector<QueryRequest> sweep;
};

bool RunsQueries(const RequestLine& req) {
  return req.command == "query" || req.command == "sweep";
}

/// Decodes a kQuery frame payload into a job.
Result<QueryJob> DecodeQueryJob(std::string_view payload) {
  QueryJob job;
  auto query = wire::DecodeQueryPayload(payload, &job.stream);
  if (!query.ok()) return query.status();
  job.query = std::move(query).value();
  return job;
}

/// Decodes a `query` or `sweep` line into a job. A sweep's comma lists
/// replace alpha/beta/delta over the other query keys; each point runs
/// with one thread (the grid is the unit of parallelism, as in
/// QueryExecutor::ExecuteBatch) and must pass ValidateQueryRequest.
Result<QueryJob> DecodeQueryJob(const RequestLine& req) {
  QueryJob job;
  if (req.command == "query") {
    auto query = BuildQueryRequest(req, &job.stream);
    if (!query.ok()) return query.status();
    job.query = std::move(query).value();
    return job;
  }
  RequestLine base = req;
  base.args["alpha"] = base.args["beta"] = base.args["delta"] = "0";
  auto prototype = BuildQueryRequest(base);
  if (!prototype.ok()) return prototype.status();
  std::vector<std::uint32_t> alphas, betas, deltas;
  for (auto [key, fallback, values] :
       {std::tuple<std::string, const char*, std::vector<std::uint32_t>*>{
            "alphas", "1", &alphas},
        {"betas", "1", &betas},
        {"deltas", "0", &deltas}}) {
    std::istringstream ss(Arg(req, key, fallback));
    for (std::string token; std::getline(ss, token, ',');) {
      auto value = ParseNumber<std::uint32_t>(key, token);
      if (!value.ok()) return value.status();
      values->push_back(value.value());
    }
    if (values->empty()) {
      return Status::InvalidArgument(key + " wants a nonempty comma list");
    }
  }
  constexpr std::size_t kMaxSweep = 4096;
  if (alphas.size() * betas.size() * deltas.size() > kMaxSweep) {
    return Status::InvalidArgument("sweep grid too large (max 4096 points)");
  }
  QueryRequest point = std::move(prototype).value();
  point.options.num_threads = 1;
  for (std::uint32_t alpha : alphas) {
    for (std::uint32_t beta : betas) {
      for (std::uint32_t delta : deltas) {
        point.params.alpha = alpha;
        point.params.beta = beta;
        point.params.delta = delta;
        Status valid = ValidateQueryRequest(point);
        if (!valid.ok()) return valid;
        job.sweep.push_back(point);
      }
    }
  }
  return job;
}

/// What AdmitQuery hands its reply callback.
enum class Render {
  kLine,    ///< tagged reply; chunks as tagged {"cmd":"chunk"} JSON lines.
  kBinary,  ///< tagged reply; chunks as kReplyChunk payloads.
  kPoint,   ///< the untagged reply object: one result of a sweep.
};

/// The one admission of every query the server runs: ExecuteAsync, or
/// ExecuteStreaming for a stream. Chunk bodies and the final reply are
/// rendered here, once each, and handed to `reply(body, final)` in
/// stream order, the final reply last. The final reply is rendered
/// under a "serialize" span, which lands in a retained trace as a tail
/// sibling of the root "query" span. `reply` runs on whichever thread
/// completes the query (inline on a cache hit), so it must be cheap and
/// must not call back into the executor. Nothing here refers to a
/// session or connection object: one that closes mid-query only drops
/// the reply.
template <typename Reply>
void AdmitQuery(QueryExecutor& executor, std::uint64_t session,
                const QueryRequest& query, bool stream, Render render,
                Reply reply) {
  auto complete = [session, query, render, reply](QueryResult result) {
    std::string body;
    {
      TraceSpan serialize_span(result.trace.get(), "serialize");
      body = QueryResultJson(query, result);
      if (render != Render::kPoint) {
        body = TagSessionJson(session, std::move(body));
      }
    }
    reply(std::move(body), /*final=*/true);
  };
  if (!stream) {
    executor.ExecuteAsync(query, std::move(complete));
    return;
  }
  executor.ExecuteStreaming(
      query,
      [session, query, render,
       reply](const QueryExecutor::StreamChunk& chunk) {
        // The executor's empty end-of-stream marker is dropped: the
        // kReplyEnd frame / regular reply line is the wire's marker.
        if (chunk.final) return;
        reply(render == Render::kBinary
                  ? wire::EncodeChunkPayload(chunk.seq, chunk.results_so_far,
                                             chunk.nodes_so_far,
                                             chunk.bicliques)
                  : TagSessionJson(session, StreamChunkJson(query, chunk)),
              /*final=*/false);
      },
      std::move(complete));
}

/// Admits a decoded job: a query directly, a sweep as one AdmitQuery per
/// grid point, whose replies are joined in grid order into one tagged
/// reply when the last point completes.
template <typename Reply>
void AdmitJob(QueryExecutor& executor, std::uint64_t session, QueryJob job,
              bool binary, Reply reply) {
  if (job.sweep.empty()) {
    AdmitQuery(executor, session, job.query, job.stream,
               binary ? Render::kBinary : Render::kLine, std::move(reply));
    return;
  }
  struct Sweep {
    explicit Sweep(std::size_t n) : results(n), remaining(n) {}
    std::vector<std::string> results;
    std::atomic<std::size_t> remaining;
  };
  auto sweep = std::make_shared<Sweep>(job.sweep.size());
  for (std::size_t i = 0; i < job.sweep.size(); ++i) {
    auto point_reply = [sweep, i, session, reply](std::string body, bool) {
      // Each point owns its result slot; the acq_rel count hands all of
      // them to the last point to finish.
      sweep->results[i] = std::move(body);
      if (sweep->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) {
        return;
      }
      std::string out = "{\"ok\":true,\"cmd\":\"sweep\",\"queries\":" +
                        std::to_string(sweep->results.size()) +
                        ",\"results\":[";
      for (std::size_t j = 0; j < sweep->results.size(); ++j) {
        if (j > 0) out += ',';
        out += sweep->results[j];
      }
      out += "]}";
      reply(TagSessionJson(session, std::move(out)), /*final=*/true);
    };
    AdmitQuery(executor, session, job.sweep[i], /*stream=*/false,
               Render::kPoint, std::move(point_reply));
  }
}

}  // namespace

ServerSession::ServerSession(GraphCatalog& catalog, QueryExecutor& executor,
                             std::uint64_t id)
    : catalog_(catalog), executor_(executor), id_(id) {}

bool ServerSession::Handle(const std::string& line, std::string* response,
                           bool* stop_server) {
  const RequestLine req = ParseRequestLine(line);
  if (req.command.empty() || req.command[0] == '#') {
    response->clear();
    return true;
  }
  if (req.command == "quit" || req.command == "stop") {
    if (req.command == "stop") *stop_server = true;
    *response =
        TagSessionJson(id_, "{\"ok\":true,\"cmd\":\"" + req.command + "\"}");
    return false;
  }
  if (!RunsQueries(req)) {
    *response = TagSessionJson(id_, Dispatch(req));
    return true;
  }
  auto job = DecodeQueryJob(req);
  if (!job.ok()) {
    *response = TagSessionJson(id_, ErrorJson(job.status()));
    return true;
  }
  // A stream's chunk lines come back ahead of its reply line, one JSON
  // object per line: the framing the reactor writes progressively.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  response->clear();
  AdmitJob(executor_, id_, std::move(job).value(), /*binary=*/false,
           [&](std::string body, bool final) {
             // Notify under mu: the waiter cannot return (destroying mu
             // and cv) before this callback has let go of them.
             std::lock_guard<std::mutex> lock(mu);
             if (!response->empty()) *response += '\n';
             *response += body;
             if (!final) return;
             done = true;
             cv.notify_one();
           });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return true;
}

std::string ServerSession::Dispatch(const RequestLine& req) {
  if (req.command == "ping") return "{\"ok\":true,\"cmd\":\"ping\"}";
  if (req.command == "load") return Load(req);
  if (req.command == "gen") return Gen(req);
  if (req.command == "save") return Save(req);
  if (req.command == "drop") return Drop(req);
  if (req.command == "catalog") return Catalog();
  if (req.command == "cache") return Cache(req);
  if (req.command == "metrics") return Metrics();
  if (req.command == "trace") return Trace(req);
  return ErrorJson("unknown command: " + req.command);
}

std::string ServerSession::Metrics() {
  // The whole exposition rides in one JSON string field: JsonEscape
  // turns the newlines into \n, so the response stays a single line in
  // both protocols. Scrapers unescape (tools/fairbc_metrics_scrape.cc)
  // or use the plain-text --metrics-port listener instead.
  return "{\"ok\":true,\"cmd\":\"metrics\",\"text\":\"" +
         JsonEscape(executor_.metrics()->PrometheusText()) + "\"}";
}

std::string ServerSession::Cache(const RequestLine& req) {
  // `cache` takes no arguments; garbage like `cache n=5` is a typed
  // bad_argument error rather than a silently ignored key.
  Status known = CheckKnownArgs(req, {});
  if (!known.ok()) return TypedErrorJson("bad_argument", known.message());
  return ExecutorTelemetryJson(executor_.telemetry());
}

std::string ServerSession::Trace(const RequestLine& req) {
  // Strict argument validation: `trace n=-1`, `trace n=x` and unknown
  // keys all come back as typed bad_argument errors, matching the query
  // parameter hardening.
  Status known = CheckKnownArgs(req, {"n"});
  if (!known.ok()) return TypedErrorJson("bad_argument", known.message());
  auto n = NumArg(req, "n", 4);
  if (!n.ok()) return TypedErrorJson("bad_argument", n.status().message());
  if (n.value() < 1 || n.value() > 1024) {
    return TypedErrorJson("bad_argument", "n must be in [1, 1024]");
  }
  const auto traces =
      executor_.traces().Snapshot(static_cast<std::size_t>(n.value()));
  std::ostringstream os;
  os << "{\"ok\":true,\"cmd\":\"trace\",\"tracing\":"
     << (executor_.tracing_enabled() ? "true" : "false")
     << ",\"slow_query_ms\":" << JsonDouble(executor_.slow_query_ms())
     << ",\"retained\":" << executor_.traces().pushed() << ",\"traces\":[";
  for (std::size_t i = 0; i < traces.size(); ++i) {
    os << (i > 0 ? "," : "") << TraceEventsJson(*traces[i]);
  }
  os << "]}";
  return os.str();
}

std::string ServerSession::Load(const RequestLine& req) {
  const std::string name = Arg(req, "name", "");
  const std::string path = Arg(req, "path", "");
  if (name.empty() || path.empty()) {
    return ErrorJson("load needs name=NAME path=FILE");
  }
  auto format = ParseCatalogFormat(Arg(req, "format", "snapshot"));
  if (!format) return ErrorJson("bad format (snapshot|mmap|attr|edges)");
  Status st = catalog_.AddFromFile(name, path, *format);
  if (!st.ok()) return ErrorJson(st);
  return EntryReply("load", name);
}

std::string ServerSession::Gen(const RequestLine& req) {
  const std::string name = Arg(req, "name", "");
  if (name.empty()) return ErrorJson("gen needs name=NAME");
  const std::string kind = Arg(req, "kind", "affiliation");
  // Validate everything before casting: the generators FAIRBC_CHECK
  // (abort) on bad parameters, and a resident server must never die
  // on a request line.
  auto nu = NumArg(req, "nu", 1000);
  auto nv = NumArg(req, "nv", 1000);
  auto edges = NumArg(req, "edges", 5000);
  auto attrs = NumArg(req, "attrs", 2);
  auto communities = NumArg(req, "communities", 60);
  auto gamma = NumArg<double>(req, "gamma", 2.2);
  auto seed = NumArg(req, "seed", 42);
  for (const auto* parsed : {&nu, &nv, &edges, &attrs, &communities, &seed}) {
    if (!parsed->ok()) return ErrorJson(parsed->status());
  }
  if (!gamma.ok()) return ErrorJson(gamma.status());
  if (nu.value() < 1 || nu.value() > 20'000'000 || nv.value() < 1 ||
      nv.value() > 20'000'000) {
    return ErrorJson("nu/nv must be in [1, 2e7]");
  }
  if (edges.value() < 0 || edges.value() > 200'000'000) {
    return ErrorJson("edges must be in [0, 2e8]");
  }
  if (attrs.value() < 1 || attrs.value() > 1024) {
    return ErrorJson("attrs must be in [1, 1024]");
  }
  if (communities.value() < 1 || communities.value() > 1'000'000) {
    return ErrorJson("communities must be in [1, 1e6]");
  }
  if (!(gamma.value() > 1.0) || gamma.value() > 10.0) {
    return ErrorJson("gamma must be in (1, 10]");
  }
  BipartiteGraph g;
  if (kind == "uniform") {
    g = MakeUniformRandom(static_cast<VertexId>(nu.value()),
                          static_cast<VertexId>(nv.value()),
                          static_cast<EdgeIndex>(edges.value()),
                          static_cast<AttrId>(attrs.value()),
                          static_cast<std::uint64_t>(seed.value()));
  } else if (kind == "powerlaw") {
    g = MakePowerLaw(static_cast<VertexId>(nu.value()),
                     static_cast<VertexId>(nv.value()),
                     static_cast<EdgeIndex>(edges.value()), gamma.value(),
                     static_cast<AttrId>(attrs.value()),
                     static_cast<std::uint64_t>(seed.value()));
  } else if (kind == "affiliation") {
    AffiliationConfig config;
    config.num_upper = static_cast<VertexId>(nu.value());
    config.num_lower = static_cast<VertexId>(nv.value());
    config.num_communities = static_cast<std::uint32_t>(communities.value());
    config.num_upper_attrs = static_cast<AttrId>(attrs.value());
    config.num_lower_attrs = static_cast<AttrId>(attrs.value());
    config.seed = static_cast<std::uint64_t>(seed.value());
    g = MakeAffiliation(config);
  } else {
    return ErrorJson("bad kind (uniform|powerlaw|affiliation)");
  }
  Status st = catalog_.AddGraph(name, std::move(g), "<gen:" + kind + ">");
  if (!st.ok()) return ErrorJson(st);
  return EntryReply("gen", name);
}

std::string ServerSession::Save(const RequestLine& req) {
  const std::string name = Arg(req, "name", "");
  const std::string path = Arg(req, "path", "");
  if (name.empty() || path.empty()) {
    return ErrorJson("save needs name=NAME path=FILE");
  }
  auto entry = catalog_.Get(name);
  if (entry == nullptr) return ErrorJson("unknown graph: " + name);
  auto compress = NumArg(req, "compress", 0);
  if (!compress.ok()) return ErrorJson(compress.status());
  auto block = NumArg(req, "block", kDefaultSnapshotBlockEdges);
  if (!block.ok()) return ErrorJson(block.status());
  if (block.value() < 1 || block.value() > 1'000'000'000) {
    return ErrorJson("block must be in [1, 1000000000]");
  }
  SnapshotWriteOptions options;
  options.version = compress.value() != 0 ? kSnapshotVersionCompressed
                                          : kSnapshotVersion;
  options.block_edges = static_cast<std::uint32_t>(block.value());
  Status st = WriteSnapshot(entry->graph, path, options);
  if (!st.ok()) return ErrorJson(st);
  Result<SnapshotInfo> info = ProbeSnapshot(path);
  std::ostringstream os;
  os << "{\"ok\":true,\"cmd\":\"save\",\"name\":\"" << JsonEscape(name)
     << "\",\"path\":\"" << JsonEscape(path) << "\",\"version\":\""
     << JsonHex64(entry->version) << "\",\"snapshot_version\":"
     << options.version;
  if (info.ok()) {
    os << ",\"file_bytes\":" << info.value().file_bytes
       << ",\"uncompressed_bytes\":" << info.value().uncompressed_bytes;
  }
  os << "}";
  return os.str();
}

std::string ServerSession::Drop(const RequestLine& req) {
  const std::string name = Arg(req, "name", "");
  if (name.empty()) return ErrorJson("drop needs name=NAME");
  if (!catalog_.Remove(name)) return ErrorJson("unknown graph: " + name);
  return "{\"ok\":true,\"cmd\":\"drop\",\"name\":\"" + JsonEscape(name) +
         "\"}";
}

std::string ServerSession::Catalog() {
  std::ostringstream os;
  os << "{\"ok\":true,\"cmd\":\"catalog\",\"graphs\":[";
  bool first = true;
  for (const auto& entry : catalog_.List()) {
    if (!first) os << ",";
    first = false;
    os << CatalogEntryJson(*entry);
  }
  os << "]}";
  return os.str();
}

std::string ServerSession::EntryReply(const std::string& cmd,
                                      const std::string& name) {
  auto entry = catalog_.Get(name);
  if (entry == nullptr) return ErrorJson("entry vanished: " + name);
  return "{\"ok\":true,\"cmd\":\"" + cmd +
         "\",\"entry\":" + CatalogEntryJson(*entry) + "}";
}

bool ServeStream(std::istream& in, std::ostream& out, ServerSession& session,
                 std::size_t max_request_bytes) {
  bool stop_server = false;
  std::string line;
  while (std::getline(in, line)) {
    std::string response;
    bool keep_going = true;
    if (line.size() > max_request_bytes) {
      response = TagSessionJson(
          session.id(),
          TypedErrorJson("too_large", "request line exceeds " +
                                          std::to_string(max_request_bytes) +
                                          " bytes"));
    } else {
      keep_going = session.Handle(line, &response, &stop_server);
    }
    if (!response.empty()) out << response << "\n" << std::flush;
    if (!keep_going) break;
  }
  return stop_server;
}

// ---------------------------------------------------------------------------
// Reactor: one epoll loop owning a share of the connections.
// ---------------------------------------------------------------------------

/// All Connection state is touched ONLY on the owning reactor's thread;
/// cross-thread inputs (new connections from the accept loop, async query
/// completions from executor runner threads) arrive through the reactor's
/// locked op queue + eventfd wakeup and are applied on the loop thread.
class Reactor {
 public:
  explicit Reactor(TcpServer& server) : server_(server) {}

  ~Reactor() {
    RequestStop();
    Join();
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  Status Start() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return Status::Internal("epoll_create1() failed");
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) return Status::Internal("eventfd() failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = 0;  // 0 is the wake sentinel; session ids start at 1.
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
      return Status::Internal("epoll_ctl(wake) failed");
    }
    thread_ = std::thread([this] { Loop(); });
    return Status::OK();
  }

  /// Hands a freshly accepted (non-blocking, CLOEXEC, NODELAY) socket to
  /// this reactor. Called from the accept thread.
  void Adopt(int fd, std::uint64_t id) {
    PostOp(Op{Op::kAdopt, fd, id, 0, {}});
  }

  /// Delivers one reply body for connection `conn_id`'s response slot
  /// `seq`: a stream chunk, or (`final`) the body that completes the
  /// slot. Called from executor runner threads (or inline from a reactor
  /// thread on a cache hit); the slot's framing was fixed at admission,
  /// only the body travels. The op queue is FIFO, so chunk order, and the
  /// final body after the last chunk, follow the executor's delivery order.
  void PostReply(std::uint64_t conn_id, std::uint64_t seq, std::string body,
                 bool final) {
    PostOp(Op{final ? Op::kComplete : Op::kChunk, -1, conn_id, seq,
              std::move(body)});
  }

  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    Wake();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
    // The loop has exited; reap anything that raced in behind it so no
    // fd outlives the reactor (adopted-but-unprocessed sockets included).
    std::vector<Op> ops;
    {
      std::lock_guard<std::mutex> lock(ops_mu_);
      ops.swap(ops_);
    }
    unsigned reaped = static_cast<unsigned>(conns_.size());
    for (const Op& op : ops) {
      if (op.kind != Op::kAdopt) continue;
      ::close(op.fd);
      ++reaped;
    }
    server_.active_conns_.fetch_sub(reaped, std::memory_order_release);
    server_.conns_gauge_->Add(-static_cast<std::int64_t>(reaped));
    conns_.clear();  // Connection dtor closes the fds.
  }

 private:
  struct Connection {
    Connection(GraphCatalog& catalog, QueryExecutor& executor, int fd_in,
               std::uint64_t id_in)
        : fd(fd_in), id(id_in), session(catalog, executor, id_in) {}
    ~Connection() {
      if (fd >= 0) ::close(fd);
    }

    int fd;
    const std::uint64_t id;
    enum class Proto { kUnknown, kLine, kBinary };
    Proto proto = Proto::kUnknown;
    bool binary() const { return proto == Proto::kBinary; }
    std::string rbuf;
    std::string wbuf;
    bool want_write = false;
    /// Set by quit/stop/EOF/protocol errors: buffered input after the
    /// current request is discarded, no new requests are parsed, and the
    /// connection closes once every pending response has been written.
    bool closing = false;
    ServerSession session;

    /// One response, in request order. Pipelining: a slot is appended
    /// when its request is parsed and flushed only when it is `ready`
    /// AND every older slot has been flushed — async queries that finish
    /// out of order wait their turn in the deque.
    struct Slot {
      std::uint64_t seq = 0;
      bool ready = false;
      /// kReplyEnd marks a streaming query: chunk bodies flush as they
      /// arrive once the slot reaches the front of the deque (progressive
      /// delivery, still in request order); `ready` + `body` then close
      /// the stream with a kReplyEnd frame / the regular reply line.
      wire::Opcode opcode = wire::Opcode::kReply;
      std::uint64_t request_id = 0;
      std::string body;
      /// Encoded-but-unflushed stream chunks, in stream order:
      /// kReplyChunk payloads on binary connections, pre-tagged JSON
      /// lines on line-protocol ones.
      std::deque<std::string> chunks;
    };
    std::deque<Slot> pending;
    std::uint64_t next_seq = 1;
    std::chrono::steady_clock::time_point last_activity;
  };

  struct Op {
    enum Kind { kAdopt, kComplete, kChunk };
    Kind kind;
    int fd;
    std::uint64_t conn_id;
    std::uint64_t seq;
    std::string body;
  };

  void PostOp(Op op) {
    {
      std::lock_guard<std::mutex> lock(ops_mu_);
      ops_.push_back(std::move(op));
    }
    Wake();
  }

  void Wake() {
    if (wake_fd_ < 0) return;
    std::uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
  }

  void Loop() {
    std::vector<epoll_event> events(64);
    for (;;) {
      int timeout = -1;
      if (server_.options_.client_deadline_ms > 0 && !conns_.empty()) {
        timeout = std::clamp(server_.options_.client_deadline_ms / 4, 5, 1000);
      }
      const int n = ::epoll_wait(epoll_fd_, events.data(),
                                 static_cast<int>(events.size()), timeout);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // epoll itself failing is unrecoverable for this loop.
      }
      for (int i = 0; i < n; ++i) {
        if (events[i].data.u64 == 0) {
          std::uint64_t drained = 0;
          while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
          }
          continue;  // the op queue is applied below, once per wakeup.
        }
        // Look the connection up per event: an earlier event in this
        // batch may have closed it (stale entries must be skipped, never
        // dereferenced).
        auto it = conns_.find(events[i].data.u64);
        if (it == conns_.end()) continue;
        Connection* c = it->second.get();
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          CloseConn(c);
          continue;
        }
        if ((events[i].events & EPOLLIN) && !HandleReadable(c)) continue;
        if (events[i].events & EPOLLOUT) Flush(c);
      }
      ApplyOps();
      SweepDeadlines();
      if (stop_.load(std::memory_order_acquire) && conns_.empty() &&
          NoPendingOps()) {
        break;
      }
    }
  }

  bool NoPendingOps() {
    std::lock_guard<std::mutex> lock(ops_mu_);
    return ops_.empty();
  }

  void ApplyOps() {
    std::vector<Op> ops;
    {
      std::lock_guard<std::mutex> lock(ops_mu_);
      ops.swap(ops_);
    }
    for (Op& op : ops) {
      if (op.kind == Op::kAdopt) {
        auto conn = std::make_unique<Connection>(server_.catalog_,
                                                 server_.executor_, op.fd,
                                                 op.conn_id);
        conn->last_activity = std::chrono::steady_clock::now();
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = op.conn_id;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, op.fd, &ev) < 0) {
          server_.active_conns_.fetch_sub(1, std::memory_order_release);
          server_.conns_gauge_->Decrement();
          continue;  // conn dtor closes the fd.
        }
        conns_.emplace(op.conn_id, std::move(conn));
      } else {
        // Completion/chunk for a connection that died mid-query is
        // simply dropped — the executor already accounted for it.
        auto it = conns_.find(op.conn_id);
        if (it == conns_.end()) continue;
        Connection* c = it->second.get();
        for (Connection::Slot& slot : c->pending) {
          if (slot.seq == op.seq) {
            if (op.kind == Op::kChunk) {
              slot.chunks.push_back(std::move(op.body));
            } else {
              slot.body = std::move(op.body);
              slot.ready = true;
            }
            break;
          }
        }
        Flush(c);
      }
    }
  }

  void SweepDeadlines() {
    const int deadline_ms = server_.options_.client_deadline_ms;
    if (deadline_ms <= 0 || conns_.empty()) return;
    const auto now = std::chrono::steady_clock::now();
    std::vector<Connection*> expired;
    for (auto& kv : conns_) {
      Connection* conn = kv.second.get();
      // Only truly idle clients are reaped: a connection with responses
      // still pending or unflushed is waiting on US (or on its own read
      // loop), not dawdling.
      if (!conn->pending.empty() || !conn->wbuf.empty()) continue;
      if (now - conn->last_activity >
          std::chrono::milliseconds(deadline_ms)) {
        expired.push_back(conn);
      }
    }
    for (Connection* c : expired) CloseConn(c);
  }

  void CloseConn(Connection* c) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
    server_.active_conns_.fetch_sub(1, std::memory_order_release);
    server_.conns_gauge_->Decrement();
    conns_.erase(c->id);  // dtor closes the fd.
  }

  /// Drains the socket into rbuf, consuming complete requests as they
  /// appear (so a pipelined burst never accumulates more than one
  /// incomplete request past the size cap). Returns false when the
  /// connection was closed.
  bool HandleReadable(Connection* c) {
    char chunk[16384];
    bool eof = false;
    for (;;) {
      const ssize_t r = ::recv(c->fd, chunk, sizeof(chunk), 0);
      if (r > 0) {
        server_.reads_->Increment();
        c->rbuf.append(chunk, static_cast<std::size_t>(r));
        c->last_activity = std::chrono::steady_clock::now();
        if (!ProcessInput(c)) return false;
        continue;
      }
      if (r == 0) {
        eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(c);
      return false;
    }
    // In-flight queries still owe responses; Flush delivers them, then
    // closes.
    if (eof) c->closing = true;
    return Flush(c);
  }

  /// Parses every complete request in rbuf. Returns false when the
  /// connection was closed.
  bool ProcessInput(Connection* c) {
    const std::size_t max_request = server_.options_.max_request_bytes;
    while (!c->closing) {
      if (c->proto == Connection::Proto::kUnknown) {
        if (c->rbuf.empty()) break;
        // Protocol negotiation: wire::kMagic's low byte is not printable
        // ASCII, so the first byte decides unambiguously.
        c->proto = wire::LooksBinary(static_cast<unsigned char>(c->rbuf[0]))
                       ? Connection::Proto::kBinary
                       : Connection::Proto::kLine;
      }
      if (c->proto == Connection::Proto::kLine) {
        const std::size_t nl = c->rbuf.find('\n');
        // The cap triggers both on a complete-but-huge line and on an
        // unterminated one that already outgrew it (the latter stops a
        // hostile newline-free stream from allocating without bound).
        if (nl > max_request) {  // npos > max, so this covers both.
          if (nl != std::string::npos || c->rbuf.size() > max_request) {
            RespondError(c, 0, wire::ErrorCode::kTooLarge,
                         "request line exceeds " +
                             std::to_string(max_request) + " bytes");
            c->closing = true;
          }
          break;
        }
        std::string line = c->rbuf.substr(0, nl);
        c->rbuf.erase(0, nl + 1);
        while (!line.empty() && line.back() == '\r') line.pop_back();
        HandleCommandText(c, line, 0);
      } else {
        wire::Frame frame;
        std::size_t consumed = 0;
        const wire::DecodeResult decoded =
            wire::DecodeFrame(c->rbuf, max_request, &frame, &consumed);
        if (decoded.status == wire::FrameStatus::kNeedMore) break;
        if (decoded.status == wire::FrameStatus::kBad) {
          // A corrupt length-prefixed stream cannot be resynchronized:
          // one typed error frame, then hang up.
          RespondError(c, 0, decoded.code, decoded.message);
          c->closing = true;
          break;
        }
        c->rbuf.erase(0, consumed);
        HandleFrame(c, frame);
      }
    }
    return Flush(c);
  }

  Connection::Slot& NewSlot(Connection* c, wire::Opcode opcode,
                            std::uint64_t request_id) {
    Connection::Slot slot;
    slot.seq = c->next_seq++;
    slot.opcode = opcode;
    slot.request_id = request_id;
    c->pending.push_back(std::move(slot));
    return c->pending.back();
  }

  /// Queues a response that is complete already.
  void Respond(Connection* c, wire::Opcode opcode, std::uint64_t request_id,
               std::string body) {
    Connection::Slot& slot = NewSlot(c, opcode, request_id);
    slot.body = std::move(body);
    slot.ready = true;
  }

  /// Answers with a typed error in the connection's own protocol: a
  /// kError frame, or the line protocol's {"code":...} JSON (same
  /// category strings on both sides).
  void RespondError(Connection* c, std::uint64_t request_id,
                    wire::ErrorCode code, const std::string& message) {
    // Every typed error funnels through here, so this is the one place
    // the per-code error counters are bumped.
    server_.ErrorCounter(wire::ToString(code))->Increment();
    Respond(c, wire::Opcode::kError, request_id,
            c->binary()
                ? wire::EncodeErrorPayload(code, message)
                : TagSessionJson(c->id, TypedErrorJson(wire::ToString(code),
                                                       message)));
  }

  /// One request line — from the line protocol or a kCommand frame.
  /// Query-running commands go through Admit; everything else is
  /// cheap and dispatches inline through the shared ServerSession.
  void HandleCommandText(Connection* c, const std::string& line,
                         std::uint64_t request_id) {
    const RequestLine req = ParseRequestLine(line);
    if (RunsQueries(req)) {
      Admit(c, request_id, DecodeQueryJob(req));
      return;
    }
    std::string response;
    bool stop_server = false;
    const bool keep_going = c->session.Handle(line, &response, &stop_server);
    if (c->binary() || !response.empty()) {
      // Binary framing answers EVERY request frame (pipelined clients
      // match responses positionally / by id), even where the line
      // protocol stays silent on blanks and comments.
      Respond(c, wire::Opcode::kReply, request_id, std::move(response));
    }
    if (stop_server) server_.RequestStop();
    if (!keep_going) {
      c->closing = true;
    }
  }

  void HandleFrame(Connection* c, wire::Frame& frame) {
    switch (frame.opcode) {
      case wire::Opcode::kPing:
        Respond(c, wire::Opcode::kPong, frame.request_id, "");
        return;
      case wire::Opcode::kCommand:
        HandleCommandText(c, frame.payload, frame.request_id);
        return;
      case wire::Opcode::kQuery:
        Admit(c, frame.request_id, DecodeQueryJob(frame.payload));
        return;
      default: {
        // DecodeFrame admits response opcodes (clients must decode
        // them), but a client sending one AT the server is confused.
        RespondError(c, frame.request_id, wire::ErrorCode::kBadFrame,
                     "response opcode sent to server");
        c->closing = true;
        return;
      }
    }
  }

  /// Every query-running request of this reactor's connections lands
  /// here, decoded: one --max-inflight ticket per job, held until its
  /// final reply is posted. Replies are addressed by (conn id, seq), not
  /// by pointer, so a connection that dies mid-query just drops them.
  void Admit(Connection* c, std::uint64_t request_id, Result<QueryJob> job) {
    if (!job.ok() && c->binary()) {
      RespondError(c, request_id, wire::ErrorCode::kBadRequest,
                   job.status().message());
      return;
    }
    if (!job.ok()) {
      // The line protocol's historical bad-query shape (no "code"
      // field) — old clients parse it, the smoke oracle diffs it.
      Respond(c, wire::Opcode::kReply, request_id,
              TagSessionJson(c->id, ErrorJson(job.status())));
      return;
    }
    const unsigned limit = server_.options_.max_inflight;
    unsigned current = server_.inflight_.fetch_add(1, std::memory_order_acq_rel);
    if (limit != 0 && current >= limit) {
      server_.inflight_.fetch_sub(1, std::memory_order_release);
      RespondError(c, request_id, wire::ErrorCode::kBusy,
                   "server busy: max-inflight=" + std::to_string(limit));
      return;
    }
    server_.inflight_gauge_->Increment();
    Connection::Slot& slot = NewSlot(
        c, job.value().stream ? wire::Opcode::kReplyEnd : wire::Opcode::kReply,
        request_id);
    AdmitJob(
        server_.executor_, c->id, std::move(job).value(), c->binary(),
        [server = &server_, self = this, conn_id = c->id, seq = slot.seq](
            std::string body, bool final) {
          self->PostReply(conn_id, seq, std::move(body), final);
          if (!final) return;
          // The ticket goes only AFTER the final post: Serve()'s drain
          // epilogue waits for inflight_ == 0 and may tear the server
          // down right after, so the post — and every other touch of
          // *server, the gauge included — must already have landed.
          server->inflight_gauge_->Decrement();
          server->inflight_.fetch_sub(1, std::memory_order_release);
        });
  }

  /// Appends one response unit to wbuf in the slot's protocol: a frame,
  /// or a line (the line protocol stays silent on an empty body).
  static void Emit(Connection* c, const Connection::Slot& slot,
                   wire::Opcode opcode, std::string body) {
    if (c->binary()) {
      wire::EncodeFrame(
          wire::Frame{wire::kVersion, opcode, slot.request_id, std::move(body)},
          &c->wbuf);
    } else if (!body.empty()) {
      c->wbuf += body;
      c->wbuf += '\n';
    }
  }

  /// Moves ready-in-order responses into wbuf and writes as much as the
  /// socket accepts; manages EPOLLOUT registration and the
  /// close-after-flush epilogue. Returns false when the connection was
  /// closed.
  bool Flush(Connection* c) {
    while (!c->pending.empty()) {
      Connection::Slot& slot = c->pending.front();
      // Stream chunks flush as soon as their slot reaches the front:
      // progressive delivery without ever reordering responses.
      while (!slot.chunks.empty()) {
        Emit(c, slot, wire::Opcode::kReplyChunk,
             std::move(slot.chunks.front()));
        slot.chunks.pop_front();
      }
      if (!slot.ready) break;  // response (or stream tail) still pending.
      Emit(c, slot, slot.opcode, std::move(slot.body));
      c->pending.pop_front();
    }
    bool wrote = false;
    while (!c->wbuf.empty()) {
      const ssize_t n =
          ::send(c->fd, c->wbuf.data(), c->wbuf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        server_.writes_->Increment();
        wrote = true;
        c->wbuf.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      CloseConn(c);  // peer reset mid-response.
      return false;
    }
    if (wrote && c->wbuf.empty()) server_.flushes_->Increment();
    const bool want_write = !c->wbuf.empty();
    if (want_write != c->want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
      ev.data.u64 = c->id;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
      c->want_write = want_write;
    }
    if (c->closing && c->pending.empty() && c->wbuf.empty()) {
      CloseConn(c);
      return false;
    }
    return true;
  }

  TcpServer& server_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::mutex ops_mu_;
  std::vector<Op> ops_;
  /// Owned connections, keyed by session id. Loop-thread only.
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// TcpServer: listener + accept loop over the reactor pool.
// ---------------------------------------------------------------------------

TcpServer::TcpServer(GraphCatalog& catalog, QueryExecutor& executor,
                     const TcpServerOptions& options)
    : catalog_(catalog),
      executor_(executor),
      options_(options),
      metrics_(executor.metrics()),
      accepts_(metrics_->GetCounter("fairbc_reactor_accepts_total",
                                    "TCP connections accepted.")),
      reads_(metrics_->GetCounter("fairbc_reactor_reads_total",
                                  "Successful socket reads (recv calls).")),
      writes_(metrics_->GetCounter("fairbc_reactor_writes_total",
                                   "Successful socket writes (send calls).")),
      flushes_(metrics_->GetCounter(
          "fairbc_reactor_flushes_total",
          "Flush passes that fully drained a connection's write buffer.")),
      server_full_(metrics_->GetCounter(
          "fairbc_server_full_total",
          "Connections turned away at max-sessions.")),
      sessions_metric_(metrics_->GetCounter("fairbc_sessions_total",
                                            "Sessions (connections) admitted.")),
      conns_gauge_(metrics_->GetGauge("fairbc_connections_active",
                                      "Live TCP connections.")),
      inflight_gauge_(metrics_->GetGauge(
          "fairbc_server_inflight_requests",
          "Query requests admitted by the server, not yet answered.")) {}

Counter* TcpServer::ErrorCounter(const char* code) {
  return metrics_->GetCounter("fairbc_server_errors_total",
                              "Typed request errors, by error code.",
                              std::string("code=\"") + code + "\"");
}

TcpServer::~TcpServer() {
  RequestStop();
  // Executor runner threads may still hold completions that post into a
  // reactor, so the reactor objects must outlive the last ticket.
  while (inflight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  reactors_.clear();  // each dtor stops, joins and reaps its fds.
  if (listener_ >= 0) ::close(listener_);
}

Status TcpServer::Listen() {
  listener_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listener_ < 0) {
    return Status::Internal("socket() failed");
  }
  int reuse = 1;
  ::setsockopt(listener_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  // A deep backlog: connection floods (the 10k-connection bench tier)
  // must queue behind the serial accept loop instead of overflowing the
  // SYN queue into multi-second client-side retransmit stalls. The
  // kernel clamps this to net.core.somaxconn.
  if (::bind(listener_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener_, 4096) < 0) {
    ::close(listener_);
    listener_ = -1;
    return Status::Internal("cannot listen on 127.0.0.1:" +
                            std::to_string(options_.port));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = options_.port;
  }

  unsigned reactors = options_.reactor_threads;
  if (reactors == 0) {
    reactors = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  }
  for (unsigned i = 0; i < reactors; ++i) {
    auto reactor = std::make_unique<Reactor>(*this);
    Status st = reactor->Start();
    if (!st.ok()) {
      reactors_.clear();
      return st;
    }
    reactors_.push_back(std::move(reactor));
  }
  return Status::OK();
}

void TcpServer::RequestStop() {
  stopping_.store(true, std::memory_order_release);
  // shutdown(2) — not close(2) — wakes a blocked accept() without
  // invalidating the fd another thread may be using: race-free shutdown.
  if (listener_ >= 0) ::shutdown(listener_, SHUT_RDWR);
  for (auto& reactor : reactors_) reactor->RequestStop();
}

void TcpServer::Serve() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int client = ::accept4(listener_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (client < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      // A resident server must survive transient accept failures: a
      // client aborting in the backlog (ECONNABORTED), a signal (EINTR)
      // or fd exhaustion while sessions hold sockets (EMFILE/ENFILE —
      // back off briefly so the loop cannot spin at the limit).
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      std::perror("fairbc_server: accept");
      break;  // not a known-transient failure: shut down cleanly.
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(client);
      break;
    }
    accepts_->Increment();
    // Small responses must not sit in Nagle's buffer behind a pipelined
    // request burst.
    int nodelay = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    const unsigned admitted =
        active_conns_.fetch_add(1, std::memory_order_acq_rel);
    conns_gauge_->Increment();
    if (admitted >= options_.max_sessions) {
      active_conns_.fetch_sub(1, std::memory_order_release);
      conns_gauge_->Decrement();
      server_full_->Increment();
      // Turn the client away with a parseable error rather than leaving
      // it queued behind an unbounded backlog. (Best effort on a fresh
      // socket whose send buffer is empty.)
      std::string reply =
          ErrorJson("server full: max-sessions=" +
                    std::to_string(options_.max_sessions)) +
          "\n";
      (void)!::send(client, reply.data(), reply.size(), MSG_NOSIGNAL);
      ::close(client);
      continue;
    }
    const std::uint64_t id =
        next_session_id_.fetch_add(1, std::memory_order_relaxed);
    sessions_started_.fetch_add(1, std::memory_order_relaxed);
    sessions_metric_->Increment();
    reactors_[id % reactors_.size()]->Adopt(client, id);
  }
  // Drain: every reactor keeps serving its live connections until they
  // close, then exits; then wait for stragglers' completions to land.
  for (auto& reactor : reactors_) reactor->RequestStop();
  for (auto& reactor : reactors_) reactor->Join();
  while (inflight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace fairbc
