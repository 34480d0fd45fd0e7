// The untraced side of the benchmark: a vqlsrv child process and the
// closed-loop clients that drive it over the wire protocol.

#ifndef VQLBENCH_LIVE_H_
#define VQLBENCH_LIVE_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "vqlbench/scene_archive.h"

namespace vqlbench {

/// A vqlsrv child process. The child dies with the benchmark (parent-death
/// signal), and Stop() drains it with SIGTERM and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(ServerProcess&& other) noexcept { *this = std::move(other); }
  ServerProcess& operator=(ServerProcess&& other) noexcept;
  ~ServerProcess() { Stop(); }

  /// Starts `binary args...` and waits for its "listening on host:port"
  /// line. The child's stderr goes to `log_path`.
  static vqldb::Result<ServerProcess> Start(const std::string& binary,
                                            const std::vector<std::string>& args,
                                            const std::string& log_path);

  uint16_t port() const { return port_; }
  /// The child's peak resident set (VmHWM) in MiB; 0 when unreadable.
  double PeakRssMb() const;
  /// SIGTERM, wait up to 20 s for the drain, then SIGKILL. Idempotent.
  void Stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

/// One completed request as its client saw it.
struct Outcome {
  bool write = false;
  bool fresh = false;
  bool ok = false;     // transport and server status both OK
  bool wrong = false;  // a fresh read that lacks the client's own write
  double ms = 0;       // client round trip
};

/// A read answer kept for the oracle comparison.
struct Answer {
  std::string query;
  std::string body;
};

struct ClientLog {
  std::vector<Outcome> timed;           // the timed window's requests
  std::vector<Outcome> probe;           // the write probe's requests
  std::vector<Answer> answers;          // sampled timed read answers
  std::vector<size_t> segment_requests; // timed requests per segment
};

struct LoadPlan {
  double seconds = 0;  // the timed window
  /// Cut the window into kProbeRounds segments with a probe round after
  /// each (read-only workloads).
  bool probe = false;
  /// Keep every n-th timed read answer for the oracle (0 = none), at most
  /// `max_samples` per client.
  size_t sample_every = 0;
  size_t max_samples = 0;
};

/// Drives one closed-loop client per stream, concurrently, from this
/// process. `*timed_seconds` receives the window's length without the
/// probe rounds.
std::vector<ClientLog> RunClients(uint16_t port,
                                  std::vector<RequestStream>& streams,
                                  const LoadPlan& plan, double* timed_seconds);

/// Sends `text` as one statement; used to bulk-load a sharded archive.
vqldb::Status SendStatement(uint16_t port, const std::string& text);

/// True when every name in `expect` is a row of the answer table `body`.
bool ContainsAll(const std::string& body, const std::vector<std::string>& expect);

}  // namespace vqlbench

#endif  // VQLBENCH_LIVE_H_
