// The two measuring subcommands of fairbc_perfbench: the TCP load
// generator (end-to-end figures plus the front-end layer counters) and
// the in-process traced layer run.

#ifndef FAIRBC_PERFBENCH_MEASURE_H_
#define FAIRBC_PERFBENCH_MEASURE_H_

#include <cstdint>
#include <string>

#include "workloads.h"

namespace fairbc::perfbench {

struct RunConfig {
  Workload workload = Workload::kEnumHeavy;
  std::uint64_t seed = 0;
  double scale = 1.0;
  double seconds = 10.0;
  bool trace = false;
  /// Work directory holding the workload's snapshots; the layer run also
  /// writes its Chrome trace here.
  std::string dir;
  /// Load generator only: the server's port and process id.
  int port = 0;
  int server_pid = 0;
};

/// Drives the server for cfg.seconds and prints one JSON object.
int RunLoad(const RunConfig& cfg);

/// Times each layer in-process on the workload's inputs, records spans
/// around every layer call, writes the Chrome trace, prints one JSON
/// object.
int RunLayers(const RunConfig& cfg);

}  // namespace fairbc::perfbench

#endif  // FAIRBC_PERFBENCH_MEASURE_H_
