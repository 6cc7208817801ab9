#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <span>

#include "bench_util/datasets.h"
#include "common/random.h"
#include "common/status.h"
#include "core/result_sink.h"
#include "graph/builder.h"
#include "graph/generators.h"

namespace fairbc::perfbench {

namespace {

// Seeds of the generators. They are part of the workload definition: the
// benchmark's own --seed only relabels (see workloads.h).
constexpr std::uint64_t kEnumGraphSeed = 3;
constexpr std::uint64_t kReduceGraphSeed = 7;

// Stream mixing constant, so relabelling and schedule draws of the same
// seed use unrelated random streams.
constexpr std::uint64_t kRelabelSalt = 0x9e3779b97f4a7c15ull;

VertexId Scaled(VertexId n, double scale) {
  return std::max<VertexId>(16, static_cast<VertexId>(n * scale));
}

std::vector<VertexId> Permutation(VertexId n, Rng& rng) {
  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  rng.Shuffle(perm);
  return perm;
}

/// Isomorphic copy of `g` with both sides' ids permuted by `seed`.
BipartiteGraph Relabel(const BipartiteGraph& g, std::uint64_t seed) {
  Rng rng(seed ^ kRelabelSalt);
  const std::vector<VertexId> pu = Permutation(g.NumUpper(), rng);
  const std::vector<VertexId> pv = Permutation(g.NumLower(), rng);
  BipartiteGraphBuilder builder(g.NumUpper(), g.NumLower());
  for (VertexId u = 0; u < g.NumUpper(); ++u) {
    for (VertexId v : g.Neighbors(Side::kUpper, u)) {
      builder.AddEdge(pu[u], pv[v]);
    }
  }
  for (Side side : {Side::kUpper, Side::kLower}) {
    const std::vector<VertexId>& perm = side == Side::kUpper ? pu : pv;
    std::vector<AttrId> attrs(perm.size());
    for (VertexId x = 0; x < perm.size(); ++x) {
      attrs[perm[x]] = g.Attr(side, x);
    }
    builder.SetAttrs(side, std::move(attrs));
    builder.SetNumAttrs(side, g.NumAttrs(side));
  }
  Result<BipartiteGraph> built = builder.Build();
  FAIRBC_CHECK(built.ok());
  return std::move(built).value();
}

}  // namespace

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "enum_heavy") return Workload::kEnumHeavy;
  if (name == "reduce_heavy") return Workload::kReduceHeavy;
  if (name == "service_mix") return Workload::kServiceMix;
  return std::nullopt;
}

const char* ToString(Workload workload) {
  switch (workload) {
    case Workload::kEnumHeavy:
      return "enum_heavy";
    case Workload::kReduceHeavy:
      return "reduce_heavy";
    case Workload::kServiceMix:
      return "service_mix";
  }
  return "?";
}

std::vector<WorkloadGraph> MakeGraphs(Workload workload, std::uint64_t seed,
                                      double scale) {
  std::vector<WorkloadGraph> graphs;
  switch (workload) {
    case Workload::kEnumHeavy: {
      // `fairbc_cli gen --kind=affiliation --seed=3`: 1000x1000, 6843 edges.
      AffiliationConfig config;
      config.num_upper = Scaled(1000, scale);
      config.num_lower = Scaled(1000, scale);
      config.num_communities = std::max<std::uint32_t>(
          4, static_cast<std::uint32_t>(60 * scale));
      config.seed = kEnumGraphSeed;
      graphs.push_back({"aff3", MakeAffiliation(config)});
      break;
    }
    case Workload::kReduceHeavy:
      // 200000x200000 with 2,099,953 distinct edges at scale 1.
      graphs.push_back(
          {"uni7", MakeUniformRandom(Scaled(200000, scale),
                                     Scaled(200000, scale),
                                     static_cast<EdgeIndex>(2000000 * scale),
                                     /*num_attrs=*/2, kReduceGraphSeed)});
      break;
    case Workload::kServiceMix:
      for (const DatasetSpec& spec : StandardDatasets(scale)) {
        graphs.push_back({spec.name, MakeAffiliation(spec.config)});
      }
      break;
  }
  if (seed != 0) {
    for (WorkloadGraph& wg : graphs) wg.graph = Relabel(wg.graph, seed);
  }
  return graphs;
}

Plan MakePlan(Workload workload, std::uint64_t seed, double scale) {
  Plan plan;
  switch (workload) {
    case Workload::kEnumHeavy: {
      Point p{"aff3", FairModel::kSsfbc, {.alpha = 1, .beta = 1, .delta = 0},
              /*threads=*/1};
      plan.points.push_back(p);
      plan.schedule.push_back({0, FairAlgo::kPlusPlus, Mode::kCount, false});
      // Four clients, each repeating the query: one client leaves the
      // figures at the mercy of whichever core it runs on (per-core speed
      // on a shared host drifts by up to 1.6x for seconds at a time);
      // four concurrent single-thread queries sample every core.
      plan.connections = 4;
      break;
    }
    case Workload::kReduceHeavy: {
      for (FairModel model : {FairModel::kSsfbc, FairModel::kBsfbc}) {
        plan.points.push_back(
            {"uni7", model, {.alpha = 2, .beta = 2, .delta = 1}, 4});
        plan.schedule.push_back({plan.points.size() - 1, FairAlgo::kPlusPlus,
                                 Mode::kCount, false});
      }
      break;
    }
    case Workload::kServiceMix: {
      // Base grid: 2 models x (a, a+1) x (b, b+1) x delta in {1, 2}
      // around each graph's defaults = 16 points per graph, 80 in all.
      for (const DatasetSpec& spec : StandardDatasets(scale)) {
        for (FairModel model : {FairModel::kSsfbc, FairModel::kBsfbc}) {
          const FairBicliqueParams& d = model == FairModel::kSsfbc
                                            ? spec.ss_defaults
                                            : spec.bs_defaults;
          for (std::uint32_t da = 0; da < 2; ++da) {
            for (std::uint32_t db = 0; db < 2; ++db) {
              for (std::uint32_t delta : {1u, 2u}) {
                plan.points.push_back(
                    {spec.name, model,
                     {.alpha = d.alpha + da, .beta = d.beta + db,
                      .delta = delta},
                     1});
              }
            }
          }
        }
      }
      // Four closed-loop connections over one seed-shuffled cycle of 1600
      // requests. Per point: 15 summary queries and 2 top-k queries, both
      // cacheable (the server's default cache holds all 160 keys, so each
      // key misses once per run and repeats read it while other keys are
      // still being inserted), and 1 uncached FairBCEM query (the heavy
      // tail). Per single-side point: 4 uncached streams (the bi-side
      // points return up to 487k bicliques, which would turn the mix into
      // a bulk-transfer test). Shares: 75% summary, 10% top-k, 10% stream,
      // 5% FairBCEM.
      plan.connections = 4;
      plan.line_connections = 2;
      Rng rng(seed);
      for (std::size_t i = 0; i < plan.points.size(); ++i) {
        for (int r = 0; r < 15; ++r) {
          plan.schedule.push_back({i, FairAlgo::kPlusPlus, Mode::kCount, true});
        }
        for (int r = 0; r < 2; ++r) {
          plan.schedule.push_back({i, FairAlgo::kPlusPlus, Mode::kTopK, true});
        }
        if (plan.points[i].model == FairModel::kSsfbc) {
          for (int r = 0; r < 4; ++r) {
            plan.schedule.push_back(
                {i, FairAlgo::kPlusPlus, Mode::kStream, false});
          }
        }
        plan.schedule.push_back({i, FairAlgo::kBcem, Mode::kCount, false});
      }
      rng.Shuffle(plan.schedule);
      break;
    }
  }
  return plan;
}

std::vector<std::string> GraphNames(const Plan& plan) {
  std::vector<std::string> names;
  for (const Point& p : plan.points) {
    if (std::find(names.begin(), names.end(), p.graph) == names.end()) {
      names.push_back(p.graph);
    }
  }
  return names;
}

std::string SnapshotPath(const std::string& dir, const std::string& graph) {
  return dir + "/" + graph + ".fbs";
}

QueryRequest ToQueryRequest(const Plan& plan, const Request& request) {
  const Point& p = plan.points[request.point];
  QueryRequest q;
  q.graph = p.graph;
  q.model = p.model;
  q.algo = request.algo;
  q.params = p.params;
  q.options.num_threads = p.threads;
  q.use_cache = request.use_cache;
  if (request.mode == Mode::kTopK) q.top_k = kTopK;
  return q;
}

std::string RequestLine(const Plan& plan, const Request& request,
                        const std::string& rid) {
  const Point& p = plan.points[request.point];
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "query graph=%s model=%s algo=%s alpha=%u beta=%u delta=%u "
                "threads=%u cache=%d",
                p.graph.c_str(), ToString(p.model), ToString(request.algo),
                p.params.alpha, p.params.beta, p.params.delta, p.threads,
                request.use_cache ? 1 : 0);
  std::string line = buf;
  if (request.mode == Mode::kTopK) {
    line += " top_k=" + std::to_string(kTopK) + " rank=weight";
  }
  if (request.mode == Mode::kStream) line += " stream=1";
  if (!rid.empty()) line += " rid=" + rid;
  return line;
}

Reference ComputeReference(const BipartiteGraph& g, const Point& point) {
  Reference ref;
  TopKKeeper top(kTopK, TopKRank::kWeight);
  EnumOptions options;
  options.num_threads = 1;
  RunEnumeration(g, point.model, FairAlgo::kPlusPlus, point.params, options,
                 [&](const Biclique& b) {
                   ++ref.count;
                   ref.digest += BicliqueHash(b);
                   top.Offer(b);
                   return true;
                 });
  for (const Biclique& b : top.Take()) {
    ++ref.topk_count;
    ref.topk_digest += BicliqueHash(b);
  }
  return ref;
}

// Seed-0 references at scale 1, one row per point in MakePlan order, as
// printed by `fairbc_perfbench references` (RunEnumeration at one
// thread). Columns: count, digest, top-10 count, top-10 digest.
constexpr Reference kEnumHeavyPinned[] = {
  {1819067u, 0x7d3002e30784e1a0ull, 10u, 0x517d2d37ea8cdf0bull},
};
constexpr Reference kReduceHeavyPinned[] = {
  {0u, 0x0000000000000000ull, 0u, 0x0000000000000000ull},
  {0u, 0x0000000000000000ull, 0u, 0x0000000000000000ull},
};
constexpr Reference kServiceMixPinned[] = {
  {525u, 0x71b4c794e7b81d9full, 10u, 0x64845a1e3ee01acbull},
  {292u, 0xd514a38ac05ada56ull, 10u, 0x04a06ddbd23fa48cull},
  {262u, 0x16b7e50e07312976ull, 10u, 0x64845a1e3ee01acbull},
  {100u, 0x174256521aefc42full, 10u, 0x04a06ddbd23fa48cull},
  {461u, 0x7a8ce63cd6a94c92ull, 10u, 0x64845a1e3ee01acbull},
  {261u, 0xdb979fb4b0f08fdeull, 10u, 0x04a06ddbd23fa48cull},
  {200u, 0x579cefde912a0f66ull, 10u, 0x64845a1e3ee01acbull},
  {71u, 0x55d23ea4a68d30b4ull, 10u, 0x04a06ddbd23fa48cull},
  {6603u, 0xc12a9428f331aecfull, 10u, 0x04eee9cce96fd3f5ull},
  {2853u, 0xdbde74e863da5476ull, 10u, 0x85da9581f857512bull},
  {3038u, 0x10ed3312e84967cfull, 10u, 0x04eee9cce96fd3f5ull},
  {901u, 0x63bbc7d9d1c38139ull, 10u, 0x85da9581f857512bull},
  {4579u, 0xa5b6099fc04aa391ull, 10u, 0x04eee9cce96fd3f5ull},
  {2119u, 0xb8ba575f2cb552a9ull, 10u, 0x85da9581f857512bull},
  {1589u, 0x1296fcc6e933f82aull, 10u, 0x04eee9cce96fd3f5ull},
  {524u, 0x3a28a0c82430917cull, 10u, 0x85da9581f857512bull},
  {1616u, 0xc1879e7079692c23ull, 10u, 0xa65f9c647595087cull},
  {1194u, 0x6fed3fb28d3a390bull, 10u, 0x244550b260d61e1eull},
  {705u, 0xc59712b3b8ff5aa2ull, 10u, 0xa65f9c647595087cull},
  {253u, 0x2d4e6b6082d398ceull, 10u, 0x244550b260d61e1eull},
  {1262u, 0xfcdf52791092fd6dull, 10u, 0xa65f9c647595087cull},
  {851u, 0xa9c9273331a01852ull, 10u, 0x244550b260d61e1eull},
  {634u, 0x5d87da2374d0e47eull, 10u, 0xa65f9c647595087cull},
  {221u, 0x73a770c65578f74dull, 10u, 0x244550b260d61e1eull},
  {45858u, 0x7caf1ff79330fb88ull, 10u, 0xf8b6f0f074e06133ull},
  {34102u, 0x24a3e699cb3c0e29ull, 10u, 0xd00a5dc627e54d5aull},
  {29323u, 0x7241143019da9a60ull, 10u, 0xf8b6f0f074e06133ull},
  {14975u, 0x78606cfdeaff401aull, 10u, 0xd00a5dc627e54d5aull},
  {34848u, 0xa738fa78d4101fb0ull, 10u, 0xf8b6f0f074e06133ull},
  {27925u, 0x816794c2d4ce856cull, 10u, 0xd00a5dc627e54d5aull},
  {18794u, 0xdee682c51e4ef6c5ull, 10u, 0xf8b6f0f074e06133ull},
  {9129u, 0x8a1a32fb1cdad955ull, 10u, 0xd00a5dc627e54d5aull},
  {35352u, 0x6e595b2fd245227eull, 10u, 0xb72790d70ce43c09ull},
  {27017u, 0x93caad94e2a9a526ull, 10u, 0x32ea61bfc935b7fdull},
  {35043u, 0xdfa452fb5e6d853dull, 10u, 0xb72790d70ce43c09ull},
  {26700u, 0x3df8f4395668794cull, 10u, 0x32ea61bfc935b7fdull},
  {33574u, 0x1ed2b4d6454e8fbaull, 10u, 0xb72790d70ce43c09ull},
  {26236u, 0xe9dd45b485b6eda7ull, 10u, 0x32ea61bfc935b7fdull},
  {33265u, 0x901daca1d176f279ull, 10u, 0xb72790d70ce43c09ull},
  {25919u, 0x940b8c58f975c1cdull, 10u, 0x32ea61bfc935b7fdull},
  {486832u, 0x343676aa7bc7c2a8ull, 10u, 0x8113ec530066d5b9ull},
  {98793u, 0x0a4b2836b912bc86ull, 10u, 0xcc9f6c291f81c411ull},
  {485399u, 0x1fd5c73fd711b76full, 10u, 0x8113ec530066d5b9ull},
  {98217u, 0x08a4de6f0a4e99c3ull, 10u, 0xcc9f6c291f81c411ull},
  {457141u, 0xd611c6e48ddadb23ull, 10u, 0x8113ec530066d5b9ull},
  {89707u, 0x5fb0fa74bcf54d81ull, 10u, 0xcc9f6c291f81c411ull},
  {456393u, 0xb38078d279c5d6edull, 10u, 0x8113ec530066d5b9ull},
  {89650u, 0xace290884925a694ull, 10u, 0xcc9f6c291f81c411ull},
  {848u, 0x0161b81c721173d8ull, 10u, 0x7dd566ddd3000a96ull},
  {480u, 0xe94bd2f456895ae3ull, 10u, 0xe226d45a40f18b3cull},
  {358u, 0xb6fb3b4494d9ce0eull, 10u, 0x7dd566ddd3000a96ull},
  {140u, 0x270d7b5482e98cf4ull, 10u, 0xe226d45a40f18b3cull},
  {814u, 0xd7ae4fdda0670165ull, 10u, 0x7dd566ddd3000a96ull},
  {466u, 0x5573546578ccdc90ull, 10u, 0xe226d45a40f18b3cull},
  {326u, 0x34cee807f23f83bfull, 10u, 0x7dd566ddd3000a96ull},
  {128u, 0x3abc11c7d43d36c5ull, 10u, 0xe226d45a40f18b3cull},
  {20073u, 0x975ae540ac165264ull, 10u, 0x0d786a78dcd8d0f3ull},
  {9893u, 0x79470669724163ceull, 10u, 0x57a5398912a67618ull},
  {13189u, 0xfef5f4a3fb4cbfeaull, 10u, 0x0d786a78dcd8d0f3ull},
  {5982u, 0xec20e426eb0ecb22ull, 10u, 0x57a5398912a67618ull},
  {15872u, 0xc195dda9f7a0b52eull, 10u, 0x0d786a78dcd8d0f3ull},
  {7552u, 0x5164d95bbd0d0dceull, 10u, 0x57a5398912a67618ull},
  {10019u, 0x41e283f29890ed3aull, 10u, 0x0d786a78dcd8d0f3ull},
  {4217u, 0xe306b0b3ac2b5d78ull, 10u, 0x57a5398912a67618ull},
  {2399u, 0x3cd14c6569b546d8ull, 10u, 0xa9b704ed045ccc7dull},
  {1593u, 0xd358567792a2e654ull, 10u, 0x81b87cd0602da5f4ull},
  {1017u, 0xe53be8b802aa371full, 10u, 0xa9b704ed045ccc7dull},
  {441u, 0xfd98d746a89fee91ull, 10u, 0x81b87cd0602da5f4ull},
  {2228u, 0xb861f02103c97373ull, 10u, 0xa9b704ed045ccc7dull},
  {1524u, 0xf07a6779142b2f11ull, 10u, 0x81b87cd0602da5f4ull},
  {936u, 0xc2a24bd54e2a6d27ull, 10u, 0xa9b704ed045ccc7dull},
  {413u, 0xc9c3859bf000978bull, 10u, 0x81b87cd0602da5f4ull},
  {61633u, 0xa5fce579fd1def19ull, 10u, 0xcee564f51da07663ull},
  {51516u, 0x7892e3b72fe912b5ull, 10u, 0xd3c4e49154446584ull},
  {42458u, 0x76b7cb40b8deb3b4ull, 10u, 0xcee564f51da07663ull},
  {26602u, 0x554a8001c519cdbbull, 10u, 0xd3c4e49154446584ull},
  {49816u, 0x724e8505720ac9e1ull, 10u, 0xcee564f51da07663ull},
  {33299u, 0x0c66de89acdfb969ull, 10u, 0xd3c4e49154446584ull},
  {38600u, 0x35d931a6b94af945ull, 10u, 0xcee564f51da07663ull},
  {24973u, 0x59f574cd6af817bcull, 10u, 0xd3c4e49154446584ull},
};

std::optional<Reference> PinnedReference(Workload workload,
                                         std::size_t point_index) {
  std::span<const Reference> table;
  switch (workload) {
    case Workload::kEnumHeavy:
      table = kEnumHeavyPinned;
      break;
    case Workload::kReduceHeavy:
      table = kReduceHeavyPinned;
      break;
    case Workload::kServiceMix:
      table = kServiceMixPinned;
      break;
  }
  if (point_index >= table.size()) return std::nullopt;
  return table[point_index];
}

}  // namespace fairbc::perfbench
