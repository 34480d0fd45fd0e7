// The traced side of the benchmark: an in-process replica of vqlsrv's
// request path that replays the live run's seeded request streams through
// the same public calls Server::ExecuteQuery / ExecuteStatement make —
// decode, admission, lease, parse, Run, render, encode; or Apply and the
// next Current(); or the ShardedArchive calls — with one span around each.
// Spans stay in memory until the replay ends.

#ifndef VQLBENCH_REPLICA_H_
#define VQLBENCH_REPLICA_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "vqlbench/scene_archive.h"

namespace vqlbench {

struct Span {
  const char* name;  // "<layer>.<call>", or "request" for the root
  uint32_t request;  // shared by every span of one request
  int32_t parent;    // index into the same thread's spans; -1 for a root
  double start_us;
  double dur_us;
};

struct ReplicaConfig {
  const SceneArchive* archive = nullptr;
  Workload workload = Workload::kLookup;
  /// Per client, the timed requests of each segment to replay; a probe
  /// round follows every segment when `probe` is set (see kProbeRounds).
  std::vector<std::vector<size_t>> segments;
  bool probe = false;
  std::string workdir;                // scratch space for archive shards
  double budget_s = 60;               // stop replaying after this long
};

struct ReplicaResult {
  std::vector<std::vector<Span>> spans;  // per replay thread
  std::vector<double> read_ms;           // root time of every timed read
  double request_ms_total = 0;           // summed root time of all requests
  size_t requests = 0;
  /// Per-layer metrics (see the benchmark's README for each definition).
  std::map<std::string, double> metrics;
  std::string error;  // non-empty when the replica itself failed
};

ReplicaResult RunReplica(const ReplicaConfig& config);

/// What recording one span costs, in microseconds (a calibration loop).
double SpanCostUs();

/// Writes spans as Chrome trace_event JSON ("X" events, microseconds).
bool WriteChromeTrace(const std::string& path,
                      const std::vector<std::vector<Span>>& spans);

/// Self time per layer (span name up to the first '.'; "request" roots
/// count as "unattributed"), in milliseconds, over the timed requests (the
/// write probe's requests are left out).
std::map<std::string, double> LayerSelfMs(
    const std::vector<std::vector<Span>>& spans);

}  // namespace vqlbench

#endif  // VQLBENCH_REPLICA_H_
