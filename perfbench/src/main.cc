// fairbc_perfbench: the compiled half of the repository benchmark.
// run.py drives it; each subcommand prints one JSON object on stdout.
//
//   prepare --workload=W --seed=S --dir=D [--scale=X]
//       generates the workload's graphs and writes one snapshot each.
//   load --workload=W --seed=S --dir=D --port=P --server-pid=PID
//        --seconds=T [--trace] [--scale=X]
//       drives the running server over TCP (see load.cc).
//   layers --workload=W --seed=S --dir=D [--scale=X]
//       the in-process traced layer run (see layers.cc).
//   references --workload=W
//       prints the seed-0 references in PinnedReference's table syntax.
//   selftest
//       checks the percentile code against a sorted-vector oracle.

#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <string>

#include "common/flags.h"
#include "common/timer.h"
#include "graph/snapshot.h"
#include "measure.h"
#include "report.h"
#include "stats.h"
#include "workloads.h"

namespace fairbc::perfbench {
namespace {

int Prepare(const RunConfig& cfg) {
  Timer gen_timer;
  const std::vector<WorkloadGraph> graphs =
      MakeGraphs(cfg.workload, cfg.seed, cfg.scale);
  const double gen_s = gen_timer.ElapsedSeconds();
  Timer write_timer;
  double edges = 0;
  std::string names;
  for (const WorkloadGraph& wg : graphs) {
    names += (names.empty() ? "" : ",") + wg.name;
    Status st = WriteSnapshot(wg.graph, SnapshotPath(cfg.dir, wg.name));
    if (!st.ok()) {
      std::cerr << "perfbench: " << st.ToString() << "\n";
      return 1;
    }
    edges += static_cast<double>(wg.graph.NumEdges());
  }
  Report out;
  out.Add("gen_s", gen_s);
  out.Add("write_s", write_timer.ElapsedSeconds());
  out.Add("edges", edges);
  out.AddString("graphs", names);
  std::cout << out.Json() << std::endl;
  return 0;
}

int PrintReferences(Workload workload) {
  const Plan plan = MakePlan(workload, 0);
  const std::vector<WorkloadGraph> graphs = MakeGraphs(workload, 0);
  for (std::size_t i = 0; i < plan.points.size(); ++i) {
    const Point& p = plan.points[i];
    for (const WorkloadGraph& wg : graphs) {
      if (wg.name != p.graph) continue;
      const Reference r = ComputeReference(wg.graph, p);
      std::printf("  {%" PRIu64 "u, 0x%016" PRIx64 "ull, %" PRIu64
                  "u, 0x%016" PRIx64 "ull},\n",
                  r.count, r.digest, r.topk_count, r.topk_digest);
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: fairbc_perfbench <prepare|load|layers|references|"
                 "selftest> [flags]\n";
    return 2;
  }
  const std::string command = argv[1];
  FlagParser flags;
  Status st = flags.Parse(argc - 1, argv + 1);
  if (!st.ok()) {
    std::cerr << "error: " << st.ToString() << "\n";
    return 2;
  }
  if (command == "selftest") {
    const int mismatches = PercentileSelfCheck();
    std::cout << "{\"percentile_mismatches\":" << mismatches << "}"
              << std::endl;
    return mismatches == 0 ? 0 : 1;
  }
  const std::optional<Workload> workload =
      ParseWorkload(flags.GetString("workload", ""));
  if (!workload) {
    std::cerr << "error: --workload must be enum_heavy, reduce_heavy or "
                 "service_mix\n";
    return 2;
  }
  if (command == "references") return PrintReferences(*workload);

  RunConfig cfg;
  cfg.workload = *workload;
  cfg.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 0));
  cfg.scale = flags.GetDouble("scale", 1.0);
  cfg.seconds = flags.GetDouble("seconds", 10.0);
  cfg.trace = flags.GetBool("trace", false);
  cfg.dir = flags.GetString("dir", "");
  cfg.port = static_cast<int>(flags.GetInt("port", 0));
  cfg.server_pid = static_cast<int>(flags.GetInt("server-pid", 0));
  if (cfg.dir.empty() || cfg.scale <= 0 || cfg.scale > 1) {
    std::cerr << "error: --dir is required and --scale must be in (0, 1]\n";
    return 2;
  }
  if (command == "prepare") return Prepare(cfg);
  if (command == "layers") return RunLayers(cfg);
  if (command == "load") {
    if (cfg.port <= 0 || cfg.server_pid <= 0) {
      std::cerr << "error: load needs --port and --server-pid\n";
      return 2;
    }
    return RunLoad(cfg);
  }
  std::cerr << "error: unknown command " << command << "\n";
  return 2;
}

}  // namespace
}  // namespace fairbc::perfbench

int main(int argc, char** argv) { return fairbc::perfbench::Main(argc, argv); }
