#include "vqlbench/replica.h"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "src/common/string_util.h"
#include "src/engine/evaluator.h"
#include "src/engine/query.h"
#include "src/engine/query_gate.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"
#include "src/server/snapshot.h"
#include "src/server/wire.h"
#include "src/storage/shard_store.h"
#include "src/storage/text_format.h"
#include "vqlbench/live.h"

namespace vqlbench {
namespace {

using Clock = std::chrono::steady_clock;
using namespace vqldb;

class Tracer {
 public:
  Tracer(bool on, Clock::time_point epoch) : on_(on), epoch_(epoch) {}

  void StartRequest(uint32_t id) { request_ = id; }
  int Begin(const char* name) {
    if (!on_) return -1;
    spans_.push_back(Span{name, request_, open_, NowUs(), 0});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  /// Closes span `i` and returns its duration in microseconds (0 untraced).
  double End(int i) {
    if (i < 0) return 0;
    Span& s = spans_[i];
    s.dur_us = NowUs() - s.start_us;
    open_ = s.parent;
    return s.dur_us;
  }
  void Rename(int i, const char* name) {
    if (i >= 0) spans_[i].name = name;
  }
  std::vector<Span>& spans() { return spans_; }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  }
  const bool on_;
  const Clock::time_point epoch_;
  std::vector<Span> spans_;
  uint32_t request_ = 0;
  int open_ = -1;
};

// Per-thread sums, turned into per-request means at the end.
struct Acc {
  size_t reads = 0, writes = 0, failed = 0;
  double wire_us = 0, admission_ms = 0, response_bytes = 0;
  double warm_acquire_ms = 0;
  size_t warm_acquires = 0;
  double apply_ms = 0, build_ms = 0, clone_ms = 0;
  size_t builds = 0, clones = 0;
  double parse_us = 0, run_ms = 0, render_ms = 0;
  size_t cache_hits = 0, qsqr = 0, magic = 0, fixpoint = 0;
  size_t derived = 0, rounds = 0, probes = 0, constraint_checks = 0;
  double storage_write_ms = 0, scatter_ms = 0;
  size_t targeted = 0, pruned = 0;
  std::vector<double> read_ms;
  double total_ms = 0;
  size_t requests = 0;

  void Add(const Acc& o) {
    reads += o.reads;
    writes += o.writes;
    failed += o.failed;
    wire_us += o.wire_us;
    admission_ms += o.admission_ms;
    response_bytes += o.response_bytes;
    warm_acquire_ms += o.warm_acquire_ms;
    warm_acquires += o.warm_acquires;
    apply_ms += o.apply_ms;
    build_ms += o.build_ms;
    clone_ms += o.clone_ms;
    builds += o.builds;
    clones += o.clones;
    parse_us += o.parse_us;
    run_ms += o.run_ms;
    render_ms += o.render_ms;
    cache_hits += o.cache_hits;
    qsqr += o.qsqr;
    magic += o.magic;
    fixpoint += o.fixpoint;
    derived += o.derived;
    rounds += o.rounds;
    probes += o.probes;
    constraint_checks += o.constraint_checks;
    storage_write_ms += o.storage_write_ms;
    scatter_ms += o.scatter_ms;
    targeted += o.targeted;
    pruned += o.pruned;
    read_ms.insert(read_ms.end(), o.read_ms.begin(), o.read_ms.end());
    total_ms += o.total_ms;
    requests += o.requests;
  }
};

// The replica's copy of the server state, built exactly as vqlsrv builds it.
struct Replica {
  VideoDatabase db;
  std::unique_ptr<server::SnapshotManager> snapshots;
  std::unique_ptr<ShardedArchive> archive;
  std::mutex archive_mu;  // as Server::archive_mu_
  std::unique_ptr<QueryGate> gate;
};

double Ms(double us) { return us / 1000.0; }

server::Response Failure(const Status& st) {
  return server::Response{st.code(), 0, std::string(st.message())};
}

server::Response ExecStatement(Replica& r, Tracer& tr, Acc& acc,
                               const server::Request& req) {
  ++acc.writes;
  if (r.archive != nullptr) {
    // Server::ExecuteStatement's "@tenant:<name>" routing.
    std::string_view text = req.text;
    std::string tenant = "default";
    std::string_view trimmed = Trim(text);
    if (StartsWith(trimmed, "@tenant:")) {
      trimmed.remove_prefix(std::string_view("@tenant:").size());
      size_t end = trimmed.find_first_of(" \t\r\n");
      tenant.assign(trimmed.substr(0, end));
      text = end == std::string_view::npos ? std::string_view() : trimmed.substr(end);
    }
    int s = tr.Begin("storage.write");
    Status st = r.archive->Apply(tenant, std::string(Trim(text)));
    acc.storage_write_ms += Ms(tr.End(s));
    if (!st.ok()) return Failure(st);
    return server::Response{StatusCode::kOk, 0, "ok epoch=0"};
  }
  int s = tr.Begin("snapshot.apply");
  Status st = r.snapshots->Apply(req.text);
  acc.apply_ms += Ms(tr.End(s));
  if (!st.ok()) return Failure(st);
  return server::Response{StatusCode::kOk, 0,
                          "ok epoch=" + std::to_string(r.snapshots->live_epoch())};
}

server::Response ArchiveQuery(Replica& r, Tracer& tr, Acc& acc,
                              const server::Request& req) {
  // As Server::ExecuteQuery: Query and ToString under the archive lock.
  std::unique_lock<std::mutex> lock(r.archive_mu, std::defer_lock);
  int s = tr.Begin("storage.scatter");
  lock.lock();
  auto result = r.archive->Query(req.text, ShardedArchive::QueryOptions{});
  acc.scatter_ms += Ms(tr.End(s));
  const QueryExecInfo& info = r.archive->last_exec_info();
  acc.targeted += info.shards_targeted;
  acc.pruned += info.shards_pruned;
  server::Response response;
  if (!result.ok()) {
    response = Failure(result.status());
  } else {
    s = tr.Begin("engine.render");
    response = server::Response{
        StatusCode::kOk, static_cast<uint8_t>(result->partial ? server::kFlagPartial : 0),
        result->ToString()};
    acc.render_ms += Ms(tr.End(s));
  }
  // Handing the contended lock to the other client can cost milliseconds
  // (the waker is often preempted by the thread it wakes).
  s = tr.Begin("storage.unlock");
  lock.unlock();
  tr.End(s);
  return response;
}

server::Response SessionQuery(Replica& r, Tracer& tr, Acc& acc,
                              const server::Request& req,
                              server::SessionLease* lease) {
  // SnapshotManager::AcquireSession is Current() + Acquire(); the replica
  // makes the two calls itself to tell a rebuild or a clone from a warm
  // lease.
  // The counters share the manager's and the snapshot's locks, so they are
  // read inside the spans: waiting on those locks is snapshot time.
  int s = tr.Begin("snapshot.build");
  uint64_t built_before = r.snapshots->snapshots_built();
  auto snap = r.snapshots->Current();
  double current_us = tr.End(s);
  if (!snap.ok()) return Failure(snap.status());
  bool built = r.snapshots->snapshots_built() != built_before;
  if (!built) tr.Rename(s, "snapshot.acquire");

  s = tr.Begin("snapshot.clone");
  size_t sessions_before = (*snap)->sessions_built();
  auto leased = (*snap)->Acquire();
  double acquire_us = tr.End(s);
  if (!leased.ok()) return Failure(leased.status());
  bool cloned = (*snap)->sessions_built() != sessions_before;
  if (!cloned) tr.Rename(s, "snapshot.acquire");
  *lease = std::move(*leased);
  if (built) {
    acc.build_ms += Ms(current_us);
    ++acc.builds;
  }
  if (cloned) {
    acc.clone_ms += Ms(acquire_us);
    ++acc.clones;
  }
  if (!built && !cloned) {
    acc.warm_acquire_ms += Ms(current_us + acquire_us);
    ++acc.warm_acquires;
  }

  QuerySession* session = lease->session();
  s = tr.Begin("lang.parse");
  auto parse_start = Clock::now();
  auto query = Parser::ParseQuery(req.text);
  uint64_t parse_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - parse_start)
          .count());
  acc.parse_us += tr.End(s);
  if (!query.ok()) return Failure(query.status());

  s = tr.Begin("engine.run");
  auto result = session->Run(*query, parse_us);
  acc.run_ms += Ms(tr.End(s));
  if (!result.ok()) return Failure(result.status());
  const QueryExecInfo& info = session->last_exec_info();
  acc.cache_hits += info.cache_hit ? 1 : 0;
  acc.qsqr += info.strategy == "qsqr" ? 1 : 0;
  acc.magic += info.strategy == "magic" ? 1 : 0;
  acc.fixpoint += info.strategy == "fixpoint" ? 1 : 0;
  if (!info.cache_hit) {
    const EvalStats& stats = session->last_stats();
    acc.derived += stats.derived_facts;
    acc.rounds += stats.iterations;
    acc.probes += stats.join_probes;
    acc.constraint_checks += stats.constraint_checks;
  }

  s = tr.Begin("engine.render");
  std::string body = result->ToString(lease->db());
  acc.render_ms += Ms(tr.End(s));
  return server::Response{
      StatusCode::kOk,
      static_cast<uint8_t>(info.partial ? server::kFlagPartial : 0),
      std::move(body)};
}

// One request through the server's path. Probe requests (the write probe
// of read-only workloads) carry kProbeBit in their id.
constexpr uint32_t kProbeBit = 1u << 23;

bool Execute(Replica& r, Tracer& tr, Acc& acc, const Request& req, uint32_t id) {
  server::Request wire;
  wire.type = req.write ? server::MsgType::kStatement : server::MsgType::kQuery;
  wire.text = req.text;
  const std::string frame = server::EncodeRequest(wire);  // the client's work

  auto start = Clock::now();
  tr.StartRequest(id);
  int root = tr.Begin("request");
  server::Request decoded;
  int s = tr.Begin("server.decode");
  std::string payload;
  size_t consumed = 0;
  bool framed = server::DecodeFrame(frame, 0, &payload, &consumed) ==
                    server::DecodeResult::kOk &&
                server::ParseRequest(payload, &decoded).ok();
  acc.wire_us += tr.End(s);

  server::Response response;
  {
    server::SessionLease lease;
    s = tr.Begin("server.admission");
    auto ticket = r.gate->Acquire();
    acc.admission_ms += Ms(tr.End(s));
    if (!framed) {
      response = server::Response{StatusCode::kInvalidArgument, 0, "bad frame"};
    } else if (!ticket.ok()) {
      response = Failure(ticket.status());
    } else if (decoded.type == server::MsgType::kStatement) {
      response = ExecStatement(r, tr, acc, decoded);
    } else {
      ++acc.reads;
      response = r.archive != nullptr ? ArchiveQuery(r, tr, acc, decoded)
                                      : SessionQuery(r, tr, acc, decoded, &lease);
    }
    // The server returns the lease (and with it, possibly the last
    // reference to an older snapshot), then the gate slot.
    s = tr.Begin("snapshot.release");
    lease = server::SessionLease();
    tr.End(s);
    s = tr.Begin("server.release");
    if (ticket.ok()) ticket->Release();
    tr.End(s);
  }

  s = tr.Begin("server.encode");
  const std::string out = server::EncodeResponse(response);
  acc.wire_us += tr.End(s);
  tr.End(root);
  double ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  acc.total_ms += ms;
  ++acc.requests;
  if (!req.write) {
    acc.response_bytes += static_cast<double>(out.size());
    if ((id & kProbeBit) == 0) acc.read_ms.push_back(ms);
  }
  bool good = response.ok() && (!req.fresh || ContainsAll(response.body, req.expect));
  if (!good) ++acc.failed;
  return good;
}

// engine.edb_bind_ms: Evaluator::Edb() over the final generation's data —
// the bind every evaluation of that generation starts with (summed over
// shards in archive mode). Median of three.
double EdbBindMs(Replica& r, const SceneArchive& archive) {
  auto program = Parser::ParseProgram(archive.rules);
  if (!program.ok()) return 0;
  std::vector<Rule> rules;
  for (const Statement& st : program->statements) rules.push_back(st.rule);
  std::vector<VideoDatabase*> dbs;
  if (r.archive == nullptr) {
    dbs.push_back(&r.db);
  } else {
    for (uint32_t i = 0; i < r.archive->shard_count(); ++i) dbs.push_back(r.archive->shard_db(i));
  }
  std::vector<double> reps;
  for (int rep = 0; rep < 3; ++rep) {
    double ms = 0;
    for (VideoDatabase* db : dbs) {
      auto evaluator = Evaluator::Make(db, rules);
      if (!evaluator.ok()) return 0;
      auto t0 = Clock::now();
      auto edb = evaluator->Edb();
      ms += std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      if (!edb.ok()) return 0;
    }
    reps.push_back(ms);
  }
  std::sort(reps.begin(), reps.end());
  return reps[1];
}

std::map<std::string, double> Counters() {
  std::map<std::string, double> out;
  for (const obs::MetricSample& m : obs::MetricsRegistry::Global().Samples()) {
    if (m.kind == "counter") out[m.name] = m.value;
  }
  return out;
}

Status Setup(const ReplicaConfig& config, Replica* r) {
  const SceneArchive& a = *config.archive;
  const size_t shards = a.config.shards;
  QueryGate::Options gate;
  gate.max_concurrent = 2;  // vqlsrv --max-concurrency=2
  r->gate = std::make_unique<QueryGate>(gate);
  if (shards == 0) {
    // vqlsrv <archive.vql>: load the text, install its rules through the
    // snapshot write session.
    VQLDB_ASSIGN_OR_RETURN(LoadedProgram loaded, TextFormat::Load(a.Text(), &r->db));
    r->snapshots = std::make_unique<server::SnapshotManager>(&r->db, EvalOptions{},
                                                             gate.max_concurrent);
    for (const Rule& rule : loaded.rules) {
      VQLDB_RETURN_NOT_OK(r->snapshots->Apply(rule.ToString()));
    }
    return Status::OK();
  }
  // vqlsrv --archive: open the written archive with the default (fsync)
  // durability, then install the rules.
  VQLDB_RETURN_NOT_OK(WriteShardedArchive(a, config.workdir));
  ShardedArchive::Options options;
  options.shard_count = shards;
  VQLDB_ASSIGN_OR_RETURN(r->archive, ShardedArchive::Open(config.workdir, options));
  return r->archive->Apply("default", a.rules);
}

}  // namespace

ReplicaResult RunReplica(const ReplicaConfig& config) {
  const size_t shards = config.archive->config.shards;
  ReplicaResult out;
  Replica r;
  Status st = Setup(config, &r);
  if (!st.ok()) {
    out.error = "replica setup: " + st.ToString();
    return out;
  }
  const size_t clients = config.segments.size();
  const auto epoch = Clock::now();

  // Warm-up, as in the live run: concurrent cheap reads.
  {
    std::vector<std::thread> warm;
    for (size_t c = 0; c < clients; ++c) {
      warm.emplace_back([&] {
        Tracer off(false, epoch);
        Acc ignored;
        Request read;
        read.text = WarmQuery(*config.archive);
        for (size_t i = 0; i < kWarmReads; ++i) Execute(r, off, ignored, read, 0);
      });
    }
    for (std::thread& t : warm) t.join();
  }

  const auto before = Counters();
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.budget_s));
  std::vector<Acc> accs(clients);
  std::vector<Tracer> tracers;
  for (size_t c = 0; c < clients; ++c) tracers.emplace_back(true, epoch);
  // The live run's schedule: each segment's timed requests, then (on
  // read-only workloads) a probe round, with the clients in step.
  std::vector<RequestStream> streams;
  for (size_t c = 0; c < clients; ++c) {
    streams.emplace_back(*config.archive, config.workload,
                         config.archive->config.seed, static_cast<int>(c));
  }
  std::barrier sync(static_cast<std::ptrdiff_t>(clients));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      uint32_t id = static_cast<uint32_t>(c) << 24;
      for (size_t n : config.segments[c]) {
        for (size_t i = 0; i < n && Clock::now() < deadline; ++i) {
          Execute(r, tracers[c], accs[c], streams[c].Next(), ++id);
        }
        sync.arrive_and_wait();
        if (!config.probe) continue;
        for (size_t i = 0; i < kProbeWritesPerRound; ++i) {
          Execute(r, tracers[c], accs[c], streams[c].NextWrite(), ++id | kProbeBit);
        }
        sync.arrive_and_wait();
        Execute(r, tracers[c], accs[c], streams[c].Next(), ++id | kProbeBit);
        sync.arrive_and_wait();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto after = Counters();

  Acc acc;
  for (const Acc& a : accs) acc.Add(a);
  for (Tracer& t : tracers) out.spans.push_back(std::move(t.spans()));
  out.read_ms = acc.read_ms;
  out.request_ms_total = acc.total_ms;
  out.requests = acc.requests;
  if (acc.failed != 0) {
    out.error = std::to_string(acc.failed) + " replica requests failed";
  }

  auto per = [](double sum, size_t n) { return n == 0 ? 0.0 : sum / static_cast<double>(n); };
  auto delta = [&](const char* name) {
    auto a = after.find(name);
    auto b = before.find(name);
    return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
  };
  const size_t reads = acc.reads;
  std::map<std::string, double>& m = out.metrics;
  m["server.wire_us"] = per(acc.wire_us, acc.requests);
  m["server.response_bytes"] = per(acc.response_bytes, reads);
  m["server.admission_wait_ms"] = per(acc.admission_ms, acc.requests);
  m["snapshot.acquire_ms"] = per(acc.warm_acquire_ms, acc.warm_acquires);
  m["snapshot.apply_ms"] = shards == 0 ? per(acc.apply_ms, acc.writes) : 0;
  m["snapshot.build_ms"] = per(acc.build_ms, acc.builds);
  m["snapshot.clone_ms"] = per(acc.clone_ms, acc.clones);
  m["snapshot.clones_per_write"] = shards == 0 ? per(acc.clones, acc.writes) : 0;
  m["lang.parse_us"] = per(acc.parse_us, reads);
  m["engine.run_ms"] = per(acc.run_ms, reads);
  m["engine.edb_bind_ms"] = EdbBindMs(r, *config.archive);
  // Engine work comes from QuerySession::last_stats() (sharded reads run
  // inside the archive, so these stay 0 there). Every constraint this
  // program checks is a dense-order `before`, evaluated on the intervals'
  // extents; OrderSolver's own checks are added on top.
  m["engine.derived_facts"] = per(acc.derived, reads);
  m["engine.rounds"] = per(acc.rounds, reads);
  m["engine.join_probes"] = per(acc.probes, reads);
  m["engine.derived_facts_per_ms"] =
      acc.run_ms > 0 ? static_cast<double>(acc.derived) / acc.run_ms : 0;
  m["engine.render_ms"] = per(acc.render_ms, reads);
  m["engine.cache_hit_ratio"] = per(acc.cache_hits, reads);
  m["engine.strategy_share.qsqr"] = per(acc.qsqr, reads);
  m["engine.strategy_share.magic"] = per(acc.magic, reads);
  m["engine.strategy_share.fixpoint"] = per(acc.fixpoint, reads);
  m["constraint.order_checks"] =
      per(static_cast<double>(acc.constraint_checks) +
              delta("vqldb_order_entailment_checks_total") +
              delta("vqldb_order_sat_checks_total"),
          reads);
  m["storage.write_ms"] = per(acc.storage_write_ms, shards == 0 ? 0 : acc.writes);
  m["storage.fsyncs_per_write"] =
      shards == 0 ? 0 : per(delta("vqldb_journal_fsyncs_total"), acc.writes);
  m["storage.scatter_ms"] = per(acc.scatter_ms, shards == 0 ? 0 : reads);
  m["storage.shards_targeted"] = per(acc.targeted, shards == 0 ? 0 : reads);
  m["storage.shards_pruned"] = per(acc.pruned, shards == 0 ? 0 : reads);
  if (shards != 0) {
    r.archive.reset();
    std::filesystem::remove_all(config.workdir);
  }
  return out;
}

double SpanCostUs() {
  constexpr int kSpans = 100'000;
  Tracer tracer(true, Clock::now());
  auto start = Clock::now();
  for (int i = 0; i < kSpans; ++i) tracer.End(tracer.Begin("calibration"));
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count() / kSpans;
}

std::map<std::string, double> LayerSelfMs(
    const std::vector<std::vector<Span>>& spans) {
  std::map<std::string, double> self;
  for (const std::vector<Span>& thread : spans) {
    std::vector<double> child_us(thread.size(), 0);
    for (const Span& s : thread) {
      if (s.parent >= 0) child_us[s.parent] += s.dur_us;
    }
    for (size_t i = 0; i < thread.size(); ++i) {
      if (thread[i].request & kProbeBit) continue;
      std::string name = thread[i].name;
      std::string layer = name == "request" ? "unattributed" : name.substr(0, name.find('.'));
      self[layer] += (thread[i].dur_us - child_us[i]) / 1000.0;
    }
  }
  return self;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<std::vector<Span>>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (size_t tid = 0; tid < spans.size(); ++tid) {
    for (size_t i = 0; i < spans[tid].size(); ++i) {
      const Span& s = spans[tid][i];
      std::string name = s.name;
      std::string cat = name == "request" ? "request" : name.substr(0, name.find('.'));
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%u,"
                   "\"span\":%zu,\"parent\":%d}}",
                   first ? "" : ",", s.name, cat.c_str(), tid + 1, s.start_us,
                   s.dur_us, s.request, i, s.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace vqlbench
