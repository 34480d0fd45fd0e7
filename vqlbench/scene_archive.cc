#include "vqlbench/scene_archive.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "src/storage/shard_store.h"

namespace vqlbench {
namespace {

constexpr size_t kTopics = 40;
constexpr double kTopicP = 0.3;
constexpr double kInterviewP = 0.5;
// A scene that starts before its predecessor ends breaks the `before`
// chain, so `later` stops there.
constexpr double kOverlapP = 0.01;

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Distinct sample of k indexes in [0, n), in draw order.
std::vector<size_t> Sample(vqldb::Rng& rng, size_t n, size_t k) {
  std::vector<size_t> out;
  while (out.size() < k) {
    size_t x = rng.UniformU64(n);
    if (std::find(out.begin(), out.end(), x) == out.end()) out.push_back(x);
  }
  return out;
}

// Casts are dealt from a shuffled deck of a tenant's entities, so every
// entity appears in the same number of scenes (within one) and per-entity
// query cost does not swing with the seed.
class Deck {
 public:
  Deck(size_t n, vqldb::Rng* rng) : n_(n), rng_(rng) {}

  std::vector<size_t> Deal(size_t k) {
    std::vector<size_t> out, skipped;
    while (out.size() < k) {
      if (cards_.empty()) {
        for (size_t i = 0; i < n_; ++i) cards_.push_back(i);
        rng_->Shuffle(&cards_);
      }
      size_t x = cards_.back();
      cards_.pop_back();
      if (std::find(out.begin(), out.end(), x) == out.end()) {
        out.push_back(x);
      } else {
        skipped.push_back(x);
      }
    }
    cards_.insert(cards_.end(), skipped.begin(), skipped.end());
    return out;
  }

 private:
  const size_t n_;
  vqldb::Rng* rng_;
  std::vector<size_t> cards_;
};

std::string Duration(int64_t lo, int64_t hi) {
  return "(t > " + std::to_string(lo) + " and t < " + std::to_string(hi) + ")";
}

}  // namespace

std::string SceneArchive::Prefix(size_t tenant) const {
  return config.tenants == 0 ? "" : "t" + std::to_string(tenant);
}

size_t SceneArchive::EntitiesPerTenant() const {
  return std::max<size_t>(2 * kAnnotators, config.entities / tenants.size());
}

std::string SceneArchive::Text() const {
  std::string out;
  for (const std::string& t : tenant_text) out += t;
  return out + rules;
}

uint64_t SceneArchive::Fingerprint() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& t : tenants) h = Fnv(h, t);
  for (const std::string& t : tenant_text) h = Fnv(h, t);
  return Fnv(h, rules);
}

SceneArchive GenerateArchive(const ArchiveConfig& config) {
  SceneArchive a;
  a.config = config;
  size_t n_tenants = std::max<size_t>(1, config.tenants);
  if (config.tenants == 0) {
    a.tenants.push_back("default");
  } else {
    // Tenant t belongs to client t % kClients, and each client's tenants
    // route (ShardedArchive's TenantHash) to its own block of shards: a
    // write then waits only behind the other client's all-shard scatter,
    // not behind its tenant-pruned reads.
    const size_t per_client = n_tenants / kClients;
    std::vector<std::vector<std::string>> owned(kClients);
    size_t full = 0;
    for (size_t k = 0; full < static_cast<size_t>(kClients); ++k) {
      std::string name = "tenant" + std::to_string(k);
      size_t client = vqldb::TenantHash(name) % config.shards * kClients / config.shards;
      if (owned[client].size() == per_client) continue;
      owned[client].push_back(name);
      if (owned[client].size() == per_client) ++full;
    }
    for (size_t t = 0; t < n_tenants; ++t) {
      a.tenants.push_back(owned[t % kClients][t / kClients]);
    }
  }
  const size_t per_tenant_entities = a.EntitiesPerTenant();
  const size_t per_tenant_facts = (config.facts + n_tenants - 1) / n_tenants;

  for (size_t t = 0; t < n_tenants; ++t) {
    vqldb::Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + t + 1);
    const std::string p = a.Prefix(t);
    std::string out;
    for (size_t e = 0; e < per_tenant_entities; ++e) {
      out += "object " + p + "e" + std::to_string(e) + " { name: \"" + p + "e" +
             std::to_string(e) + "\" }.\n";
    }
    size_t facts = 0;
    size_t s = 0;
    int64_t clock = 0;
    Deck deck(per_tenant_entities, &rng);
    while (facts < per_tenant_facts) {
      const std::string scene = p + "s" + std::to_string(s);
      const bool first = s % config.episode_len == 0;
      if (first) clock = 0;
      int64_t start = clock;
      if (!first && rng.Bernoulli(kOverlapP)) start -= 3;
      int64_t end = clock + rng.UniformInt(5, 30);
      clock = end;
      std::vector<size_t> cast = deck.Deal(rng.UniformInt(2, 6));
      out += "interval " + scene + " { duration: " + Duration(start, end) +
             ", entities: {";
      for (size_t i = 0; i < cast.size(); ++i) {
        out += (i ? ", " : "") + p + "e" + std::to_string(cast[i]);
      }
      out += "} }.\n";
      ++facts;
      for (size_t e : cast) {
        out += "appears(" + p + "e" + std::to_string(e) + ", " + scene + ").\n";
        ++facts;
      }
      if (!first) {
        out += "follows(" + p + "s" + std::to_string(s - 1) + ", " + scene +
               ").\n";
        ++facts;
      }
      if (rng.Bernoulli(kInterviewP)) {
        out += "interviews(" + p + "e" + std::to_string(cast[0]) + ", " + p +
               "e" + std::to_string(cast[1]) + ", " + scene + ").\n";
        ++facts;
      }
      if (rng.Bernoulli(kTopicP)) {
        out += "tagged(" + scene + ", \"topic" +
               std::to_string(rng.UniformU64(kTopics)) + "\").\n";
        ++facts;
      }
      ++s;
    }
    a.min_tenant_scenes = t == 0 ? s : std::min(a.min_tenant_scenes, s);
    a.scenes += s;
    a.facts += facts;
    a.tenant_text.push_back(std::move(out));
  }
  a.rules =
      "costar(A, B) <- appears(A, S), appears(B, S).\n"
      "later(S1, S2) <- follows(S1, S2), S1.duration before S2.duration.\n"
      "later(S1, S3) <- later(S1, S2), follows(S2, S3), "
      "S2.duration before S3.duration.\n"
      "seenafter(A, B) <- appears(A, S1), later(S1, S2), appears(B, S2).\n";
  return a;
}

vqldb::Status WriteShardedArchive(const SceneArchive& archive,
                                  const std::string& root) {
  std::filesystem::remove_all(root);
  vqldb::ShardedArchive::Options options;
  options.shard_count = archive.config.shards;
  options.durability = vqldb::Journal::Durability::kBatch;
  VQLDB_ASSIGN_OR_RETURN(auto shards, vqldb::ShardedArchive::Open(root, options));
  for (size_t t = 0; t < archive.tenants.size(); ++t) {
    VQLDB_RETURN_NOT_OK(shards->Apply(archive.tenants[t], archive.tenant_text[t]));
  }
  return shards->SnapshotAll();
}

std::string WarmQuery(const SceneArchive& archive) {
  return "?- appears(" + archive.Prefix(0) + "e0, S).";
}

std::string SelfCheck(const ArchiveConfig& config) {
  SceneArchive a = GenerateArchive(config);
  SceneArchive b = GenerateArchive(config);
  if (a.Text() != b.Text() || a.Fingerprint() != b.Fingerprint()) {
    return "generator is not byte-deterministic for seed " +
           std::to_string(config.seed);
  }
  ArchiveConfig other = config;
  other.seed = config.seed + 1;
  if (GenerateArchive(other).Fingerprint() == a.Fingerprint()) {
    return "seeds " + std::to_string(config.seed) + " and " +
           std::to_string(other.seed) + " generate the same archive";
  }
  if (a.facts < config.facts) {
    return "generated " + std::to_string(a.facts) + " facts, wanted " +
           std::to_string(config.facts);
  }
  // The streams must be seeded too: two streams of one seed agree.
  for (Workload w : {Workload::kLookup, Workload::kIngest}) {
    RequestStream x(a, w, config.seed, 0), y(a, w, config.seed, 0);
    for (int i = 0; i < 32; ++i) {
      if (x.Next().text != y.Next().text) return "request stream not seeded";
    }
  }
  return "";
}

// ------------------------------------------------------------------ streams

RequestStream::RequestStream(const SceneArchive& archive, Workload workload,
                             uint64_t seed, int client)
    : archive_(archive),
      workload_(workload),
      client_(client),
      rng_(seed * 0xbf58476d1ce4e5b9ULL + 7919 * (client + 1)),
      entity_decks_(archive.tenants.size()),
      scene_decks_(archive.tenants.size()) {
  if (archive.config.write_share > 0) {
    period_ = static_cast<size_t>(std::lround(1.0 / archive.config.write_share));
  }
}

size_t RequestStream::Draw(std::vector<size_t>* deck, size_t n, size_t stride,
                           size_t limit) {
  if (deck->empty()) {
    for (size_t i = static_cast<size_t>(client_) % kClients; i < n; i += kClients) {
      if (i % stride < limit) deck->push_back(i);
    }
    rng_.Shuffle(deck);
  }
  size_t x = deck->back();
  deck->pop_back();
  return x;
}

std::string RequestStream::Entity(size_t tenant) {
  size_t n = archive_.EntitiesPerTenant() - kAnnotators;
  return archive_.Prefix(tenant) + "e" +
         std::to_string(Draw(&entity_decks_[tenant], n, n, n));
}

std::string RequestStream::EarlyScene(size_t tenant) {
  // The first half of an episode, so a succession query has a long chain
  // ahead of it.
  size_t ep = archive_.config.episode_len;
  return archive_.Prefix(tenant) + "s" +
         std::to_string(Draw(&scene_decks_[tenant], archive_.min_tenant_scenes, ep, ep / 2));
}

size_t RequestStream::Tenant() {
  size_t n = archive_.tenants.size();
  if (n < static_cast<size_t>(kClients)) return 0;
  return rng_.UniformU64(n / kClients) * kClients + static_cast<size_t>(client_);
}

Request RequestStream::Read() {
  Request r;
  size_t tenant = Tenant();
  uint64_t pick = rng_.UniformU64(10);
  switch (workload_) {
    case Workload::kLookup:
    case Workload::kIngest: {
      std::string e = Entity(tenant);
      if (pick < 4) {
        r.text = "?- appears(" + e + ", S).";
      } else if (pick < 7) {
        r.text = "?- interviews(" + e + ", B, S).";
      } else {
        r.text = "?- costar(" + e + ", B).";
      }
      break;
    }
    case Workload::kDerive:
      r.text = pick < 7 ? "?- seenafter(" + Entity(tenant) + ", B)."
                        : "?- later(" + EarlyScene(tenant) + ", S).";
      break;
    case Workload::kArchive:
      // Scatter stays rare: a write waits behind the other client's
      // all-shard scatter, and a mix where that happens to about half the
      // writes puts write_p50_ms between two modes.
      if (pick < 5) {
        r.text = "?- appears(" + Entity(tenant) + ", S).";
      } else if (pick < 9) {
        r.text = "?- costar(" + Entity(tenant) + ", B).";
      } else {
        r.text = "?- tagged(S, \"topic" +
                 std::to_string(rng_.UniformU64(kTopics)) + "\").";
      }
      break;
  }
  return r;
}

Request RequestStream::NextWrite() {
  size_t tenant = Tenant();
  const std::string p = archive_.Prefix(tenant);
  const std::string scene =
      p + "w" + std::to_string(client_) + "x" + std::to_string(writes_++);
  std::vector<size_t> cast = Sample(rng_, kAnnotators, 3);
  for (size_t& e : cast) e += archive_.EntitiesPerTenant() - kAnnotators;
  int64_t start = static_cast<int64_t>(rng_.UniformU64(100'000));
  Request w;
  w.write = true;
  if (workload_ == Workload::kArchive) w.text = "@tenant:" + archive_.tenants[tenant] + "\n";
  w.text += "interval " + scene + " { duration: " + Duration(start, start + 10) +
            ", entities: {";
  Request fresh;
  fresh.fresh = true;
  fresh.text = "?- appears(E, " + scene + ").";
  for (size_t i = 0; i < cast.size(); ++i) {
    std::string e = p + "e" + std::to_string(cast[i]);
    w.text += (i ? ", " : "") + e;
    fresh.expect.push_back(e);
  }
  w.text += "} }.\n";
  for (const std::string& e : fresh.expect) {
    w.text += "appears(" + e + ", " + scene + ").\n";
  }
  pending_fresh_ = std::move(fresh);
  has_pending_fresh_ = true;
  return w;
}

Request RequestStream::Next() {
  if (has_pending_fresh_) {
    has_pending_fresh_ = false;
    ++index_;
    return std::move(pending_fresh_);
  }
  bool write = period_ != 0 && index_ % period_ == 0;
  ++index_;
  return write ? NextWrite() : Read();
}

}  // namespace vqlbench
