// vqlbench: the vqlsrv serving benchmark.
//
//   vqlbench --workload <lookup|derive|ingest|archive> --seed <n>
//            --seconds <s> --trace <0|1> --server <vqlsrv binary>
//            --workdir <dir>
//
// Timed mode (--trace 0) starts vqlsrv as a child process, loads the seeded
// archive, and drives it from two closed-loop clients of this process for
// --seconds; it reports the end-to-end metrics. Traced mode (--trace 1)
// runs a live window of half that length, then replays the same schedule
// through a traced in-process replica of the server path (replica.h) and
// reports the per-layer metrics, each layer's self-time share, and the
// tracing overhead. Both modes check answers. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. See
// vqlbench/README.md.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/engine/query.h"
#include "src/lang/parser.h"
#include "src/server/client.h"
#include "vqlbench/live.h"
#include "vqlbench/replica.h"
#include "vqlbench/scene_archive.h"

namespace vqlbench {
namespace {

using Clock = std::chrono::steady_clock;

struct WorkloadSpec {
  const char* name;
  Workload kind;
  ArchiveConfig config;  // seed set from --seed; shards 0 = single database
};

// seed, facts, entities, episode length, write share, tenants, shards.
const WorkloadSpec kWorkloads[] = {
    {"lookup", Workload::kLookup, {0, 100'000, 2'000, 250, 0.0, 0, 0}},
    {"derive", Workload::kDerive, {0, 7'000, 600, 250, 0.0, 0, 0}},
    {"ingest", Workload::kIngest, {0, 30'000, 2'000, 250, 0.1, 0, 0}},
    {"archive", Workload::kArchive, {0, 30'000, 2'000, 250, 0.2, 8, 4}},
};

constexpr size_t kSetupRepeats = 5;  // setup_s is their median
constexpr size_t kSampleEvery = 5;   // oracle-checked read answers
constexpr size_t kMaxSamples = 40;   // per client

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string Num(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

// A live server with its archive loaded and its snapshot sessions warm.
struct LiveServer {
  ServerProcess process;
  double setup_s = 0;
};

vqldb::Result<LiveServer> StartLive(const WorkloadSpec& spec,
                                    const ArchiveConfig& config,
                                    const std::string& server_bin,
                                    const std::string& dir, SceneArchive* out) {
  auto start = Clock::now();
  *out = GenerateArchive(config);
  const SceneArchive& archive = *out;
  std::vector<std::string> args = {"--io-threads=1", "--workers=2",
                                   "--max-concurrency=2"};
  if (spec.config.shards == 0) {
    std::string path = dir + "/archive.vql";
    std::ofstream(path, std::ios::binary | std::ios::trunc) << archive.Text();
    args.push_back(path);
  } else {
    VQLDB_RETURN_NOT_OK(WriteShardedArchive(archive, dir + "/shards"));
    args.push_back("--archive=" + dir + "/shards");
    args.push_back("--archive-shards=" + std::to_string(spec.config.shards));
  }
  LiveServer live;
  VQLDB_ASSIGN_OR_RETURN(live.process,
                         ServerProcess::Start(server_bin, args, dir + "/vqlsrv.log"));
  if (spec.config.shards != 0) {
    VQLDB_RETURN_NOT_OK(SendStatement(live.process.port(), archive.rules));
  }
  {
    // A fixed number of warm reads per client, concurrently.
    std::vector<std::thread> threads;
    std::vector<vqldb::Status> status(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        vqldb::server::Client::Options o;
        o.port = live.process.port();
        o.io_timeout_ms = 120'000;
        vqldb::server::Client client(o);
        for (size_t i = 0; i < kWarmReads; ++i) {
          auto r = client.Query(WarmQuery(archive));
          if (!r.ok()) {
            status[c] = r.status();
          } else if (!r->ok()) {
            status[c] = vqldb::server::StatusFromResponse(*r);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const vqldb::Status& st : status) VQLDB_RETURN_NOT_OK(st);
  }
  live.setup_s = std::chrono::duration<double>(Clock::now() - start).count();
  return live;
}

// One unfolding step: `rule` (a rule of the goal's predicate) with the
// goal's constants substituted for the head variables they bind, renamed to
// `head`. False when the rule cannot produce the goal's constants or has a
// constructive term.
bool Specialize(const vqldb::Rule& rule, const vqldb::Atom& goal,
                const std::string& head, vqldb::Rule* out) {
  using vqldb::Term;
  if (rule.head.args.size() != goal.args.size()) return false;
  std::map<std::string, Term> bind;
  for (size_t j = 0; j < goal.args.size(); ++j) {
    const Term& g = goal.args[j];
    const Term& h = rule.head.args[j];
    if (g.kind != Term::Kind::kConstant) continue;
    if (h.kind != Term::Kind::kVariable) return false;
    bind.emplace(h.variable, g);
  }
  *out = rule;
  out->name.clear();
  out->head.predicate = head;
  bool ok = true;
  auto subst = [&](Term& t) {
    if (t.kind == Term::Kind::kConcat) ok = false;
    if (t.kind != Term::Kind::kVariable) return;
    auto it = bind.find(t.variable);
    if (it != bind.end()) t = it->second;
  };
  for (Term& t : out->head.args) subst(t);
  for (vqldb::Atom& atom : out->body) {
    for (Term& t : atom.args) subst(t);
  }
  for (vqldb::ConstraintExpr& c : out->constraints) {
    for (vqldb::Operand* o : {&c.lhs, &c.rhs}) {
      if (o->kind != vqldb::Operand::Kind::kTemporal) subst(o->term);
    }
  }
  return ok;
}

// Compares sampled live answers byte for byte with a session forced to
// the fixpoint strategy over the same archive. Materializing every rule of
// this program bottom-up costs 20-70 s per run (seenafter and costar are
// quadratic in entities), so the reference program specializes each
// sampled goal's rules to the goal's constants — one unfolding step, under
// a fresh head predicate — next to the unmodified rules the specialized
// bodies depend on. One fixpoint then answers every sample. Returns the
// number of mismatches.
size_t OracleMismatches(const SceneArchive& archive,
                        const std::vector<ClientLog>& logs, size_t* checked) {
  *checked = 0;
  vqldb::VideoDatabase scratch;
  vqldb::QuerySession all(&scratch);
  auto program = vqldb::Parser::ParseProgram(archive.rules);
  vqldb::Status st = program.ok() ? all.Load(archive.rules) : program.status();
  std::map<std::string, std::vector<vqldb::Rule>> by_head;
  if (st.ok()) {
    for (const vqldb::Statement& s : program->statements) {
      by_head[s.rule.head.predicate].push_back(s.rule);
    }
  }
  std::vector<vqldb::Rule> rules;
  std::set<std::string> added;
  auto add = [&](const vqldb::Rule& r) {
    if (added.insert(r.ToString()).second) rules.push_back(r);
  };
  std::vector<std::pair<vqldb::Query, const Answer*>> checks;
  for (const ClientLog& log : logs) {
    for (const Answer& a : log.answers) {
      auto q = vqldb::Parser::ParseQuery(a.query);
      if (!q.ok()) {
        st = q.status();
        continue;
      }
      auto defs = by_head.find(q->goal.predicate);
      if (defs != by_head.end()) {
        const std::string head = "oracle" + std::to_string(checks.size());
        for (const vqldb::Rule& r : defs->second) {
          vqldb::Rule special;
          if (!Specialize(r, q->goal, head, &special)) continue;
          add(special);
          for (const vqldb::Atom& atom : special.body) {
            for (const vqldb::Rule& dep : all.RelevantRules(atom.predicate)) add(dep);
          }
        }
        q->goal.predicate = head;
      }
      checks.emplace_back(std::move(*q), &a);
    }
  }
  vqldb::VideoDatabase db;
  vqldb::EvalOptions options;
  options.strategy = vqldb::EvalStrategy::kFixpoint;
  vqldb::QuerySession session(&db, options);
  std::string facts;
  for (const std::string& t : archive.tenant_text) facts += t;
  if (st.ok()) st = session.Load(facts);
  for (const vqldb::Rule& r : rules) {
    if (st.ok()) st = session.AddRule(r);
  }
  size_t bad = 0;
  for (const auto& [query, answer] : checks) {
    ++*checked;
    auto r = st.ok() ? session.Run(query) : vqldb::Result<vqldb::QueryResult>(st);
    if (!r.ok() || r->ToString(&db) != answer->body) {
      if (bad++ == 0) {
        std::fprintf(stderr, "oracle mismatch on %s: %s\n", answer->query.c_str(),
                     r.ok() ? "different answer" : r.status().ToString().c_str());
      }
    }
  }
  return bad;
}

// The server's own request-time histogram (vqldb_server_request_ms).
struct ServerTime {
  double sum = 0;
  double count = 0;
};

ServerTime ScrapeServerTime(uint16_t port) {
  ServerTime t;
  auto text = vqldb::server::HttpGet("127.0.0.1", port, "/metrics");
  if (!text.ok()) return t;
  std::istringstream in(*text);
  std::string line;
  while (std::getline(in, line)) {
    size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    std::string name = line.substr(0, sp);
    if (name == "vqldb_server_request_ms_sum") t.sum = std::atof(line.c_str() + sp);
    if (name == "vqldb_server_request_ms_count") t.count = std::atof(line.c_str() + sp);
  }
  return t;
}

int Usage() {
  std::fprintf(stderr,
               "usage: vqlbench --workload <lookup|derive|ingest|archive> "
               "--seed <n> --seconds <s> --trace <0|1> --server <vqlsrv> "
               "--workdir <dir>\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, server_bin, workdir;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(value.c_str());
    else if (flag == "--trace") trace = std::atoi(value.c_str());
    else if (flag == "--server") server_bin = value;
    else if (flag == "--workdir") workdir = value;
    else return Usage();
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload == w.name) spec = &w;
  }
  if (spec == nullptr || seconds <= 0 || (trace != 0 && trace != 1) ||
      server_bin.empty() || workdir.empty()) {
    return Usage();
  }
  const auto run_start = Clock::now();
  const bool traced = trace == 1;
  const bool read_only = spec->config.write_share == 0;
  ArchiveConfig config = spec->config;
  config.seed = seed;

  std::string self = SelfCheck(config);
  if (!self.empty()) {
    std::fprintf(stderr, "generator self-check failed: %s\n", self.c_str());
    return 1;
  }
  const std::string dir = workdir + "/run-" + std::to_string(getpid());
  std::filesystem::create_directories(dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() { std::filesystem::remove_all(dir); }
  } cleanup{dir};

  // ---- set-up, repeated; the last server stays up for the timed window.
  SceneArchive archive;
  std::vector<double> setups;
  LiveServer live;
  const size_t repeats = traced ? 1 : kSetupRepeats;
  for (size_t i = 0; i < repeats; ++i) {
    live.process.Stop();
    auto started = StartLive(*spec, config, server_bin, dir, &archive);
    if (!started.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", started.status().ToString().c_str());
      return 1;
    }
    live = std::move(*started);
    setups.push_back(live.setup_s);
  }
  std::fprintf(stderr, "%s: %zu facts, %zu scenes, %zu tenants, fingerprint %016llx\n",
               spec->name, archive.facts, archive.scenes, archive.tenants.size(),
               static_cast<unsigned long long>(archive.Fingerprint()));

  // ---- the timed window (half the run when the replica follows).
  const double live_s = traced ? seconds / 2 : seconds;
  std::vector<RequestStream> streams;
  for (int c = 0; c < kClients; ++c) streams.emplace_back(archive, spec->kind, seed, c);
  LoadPlan plan;
  plan.seconds = live_s;
  plan.probe = read_only;
  plan.sample_every = read_only ? kSampleEvery : 0;
  plan.max_samples = kMaxSamples;
  const ServerTime server_before = ScrapeServerTime(live.process.port());
  double window_s = 0;
  std::vector<ClientLog> logs = RunClients(live.process.port(), streams, plan, &window_s);
  const ServerTime server_after = ScrapeServerTime(live.process.port());
  const double rss_mb = live.process.PeakRssMb();
  live.process.Stop();

  // ---- outcomes. Reads come from the timed window; on read-only
  // workloads the writes and fresh reads come from the probe.
  std::vector<double> reads, writes, fresh;
  size_t attempted = 0, failed = 0, wrong = 0, completed = 0;
  for (const ClientLog& log : logs) {
    completed += log.timed.size();
    for (const auto* outcomes : {&log.timed, &log.probe}) {
      for (const Outcome& o : *outcomes) {
        ++attempted;
        if (!o.ok) ++failed;
        if (o.wrong) ++wrong;
        if (!o.ok) continue;
        if (o.write) {
          writes.push_back(o.ms);
        } else if (o.fresh) {
          fresh.push_back(o.ms);
        }
        if (!o.write && outcomes == &log.timed) reads.push_back(o.ms);
      }
    }
  }
  size_t checked = 0;
  if (read_only) wrong += OracleMismatches(archive, logs, &checked);
  const double error_rate =
      static_cast<double>(failed + wrong) / static_cast<double>(std::max<size_t>(1, attempted));
  std::fprintf(stderr,
               "%s: %zu requests (%zu timed reads, %zu writes, %zu fresh reads), "
               "%zu failed, %zu wrong, %zu answers checked against the oracle\n",
               spec->name, attempted, reads.size(), writes.size(), fresh.size(),
               failed, wrong, checked);

  std::vector<Metric> metrics;
  size_t replica_failed = 0;
  if (!traced) {
    metrics = {
        {"setup_s", Quantile(setups, 0.5), "s"},
        {"throughput_rps", static_cast<double>(completed) / window_s, "req/s"},
        {"read_p50_ms", Quantile(reads, 0.5), "ms"},
        {"read_p99_ms", Quantile(reads, 0.99), "ms"},
        {"fresh_read_p50_ms", Quantile(fresh, 0.5), "ms"},
        {"rss_peak_mb", rss_mb, "MiB"},
    };
  } else {
    ReplicaConfig rc;
    rc.archive = &archive;
    rc.workload = spec->kind;
    for (const ClientLog& log : logs) rc.segments.push_back(log.segment_requests);
    rc.probe = read_only;
    rc.workdir = dir + "/replica";
    rc.budget_s = seconds;
    ReplicaResult spans = RunReplica(rc);
    if (!spans.error.empty()) {
      std::fprintf(stderr, "replica: %s\n", spans.error.c_str());
      ++replica_failed;
    }
    // Overhead: the traced replica's time per request against the live
    // server's own (untraced) time per request over the same stream.
    const double server_mean =
        (server_after.sum - server_before.sum) /
        std::max(1.0, server_after.count - server_before.count);
    const double traced_mean = spans.request_ms_total / std::max<size_t>(1, spans.requests);
    size_t span_count = 0;
    for (const auto& t : spans.spans) span_count += t.size();
    const double span_cost_ms = SpanCostUs() / 1000.0 * static_cast<double>(span_count) /
                                std::max<size_t>(1, spans.requests);
    std::map<std::string, double> m = spans.metrics;
    m["server.transport_ms"] = Quantile(reads, 0.5) - Quantile(spans.read_ms, 0.5);
    m["trace.overhead_pct"] = server_mean > 0 ? 100.0 * (traced_mean / server_mean - 1) : 0;
    m["error_rate"] = error_rate;
    // Write latencies carry no bound: the archive's journal fsyncs follow
    // the shared host's IO load, and a run has too few writes for a p99.
    m["write_p50_ms"] = Quantile(writes, 0.5);
    m["write_p99_ms"] = Quantile(writes, 0.99);
    std::map<std::string, double> self = LayerSelfMs(spans.spans);
    double total = 0;
    for (const auto& [layer, ms] : self) total += ms;
    std::printf("%s: layer self-time share of %zu traced requests (%.1f ms)\n",
                spec->name, spans.requests, total);
    std::string top;
    for (const char* layer : {"server", "snapshot", "lang", "engine", "storage", "unattributed"}) {
      double share = total > 0 ? self[layer] / total : 0;
      m[std::string("self_share.") + layer] = share;
      std::printf("  %-13s %8.1f ms  %5.1f%%\n", layer, self[layer], 100 * share);
      if (top.empty() || share > m["self_share." + top]) top = layer;
    }
    std::printf("  dominant layer: %s\n  tracing overhead: traced replica %.3f ms vs "
                "untraced server %.3f ms per request (%+.2f%%); recording its "
                "spans costs %.4f ms per request\n",
                top.c_str(), traced_mean, server_mean, m["trace.overhead_pct"],
                span_cost_ms);
    const std::string trace_out = workdir + "/trace-" + spec->name + ".json";
    if (!WriteChromeTrace(trace_out, spans.spans)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("  spans written to %s\n", trace_out.c_str());
    static const char* kUnits[][2] = {
        {"server.transport_ms", "ms"}, {"server.wire_us", "us"},
        {"server.response_bytes", "bytes"}, {"server.admission_wait_ms", "ms"},
        {"snapshot.acquire_ms", "ms"}, {"snapshot.apply_ms", "ms"},
        {"snapshot.build_ms", "ms"}, {"snapshot.clone_ms", "ms"},
        {"snapshot.clones_per_write", "count"}, {"lang.parse_us", "us"},
        {"engine.run_ms", "ms"}, {"engine.edb_bind_ms", "ms"},
        {"engine.derived_facts", "count"}, {"engine.rounds", "count"},
        {"engine.join_probes", "count"}, {"engine.derived_facts_per_ms", "1/ms"},
        {"engine.render_ms", "ms"}, {"engine.cache_hit_ratio", "ratio"},
        {"engine.strategy_share.qsqr", "ratio"},
        {"engine.strategy_share.magic", "ratio"},
        {"engine.strategy_share.fixpoint", "ratio"},
        {"constraint.order_checks", "count"}, {"storage.write_ms", "ms"},
        {"storage.fsyncs_per_write", "count"}, {"storage.scatter_ms", "ms"},
        {"storage.shards_targeted", "count"}, {"storage.shards_pruned", "count"},
        {"self_share.server", "ratio"}, {"self_share.snapshot", "ratio"},
        {"self_share.lang", "ratio"}, {"self_share.engine", "ratio"},
        {"self_share.storage", "ratio"}, {"self_share.unattributed", "ratio"},
        {"trace.overhead_pct", "%"}, {"error_rate", "ratio"},
        {"write_p50_ms", "ms"}, {"write_p99_ms", "ms"},
    };
    for (const auto& [name, unit] : kUnits) metrics.push_back({name, m[name], unit});
  }

  const bool correct = wrong == 0 && replica_failed == 0;
  std::printf("%s (seed %llu, %s):\n", spec->name, static_cast<unsigned long long>(seed),
              traced ? "traced" : "timed");
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed + wrong) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::fprintf(stderr, "%s: run took %.1f s\n", spec->name,
               std::chrono::duration<double>(Clock::now() - run_start).count());
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace vqlbench

int main(int argc, char** argv) { return vqlbench::Main(argc, argv); }
