#include "workload.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace perfbench {
namespace {

constexpr const char* kTcProgram =
    "tc(X, Y) :- e(X, Y).\n"
    "tc(X, Z) :- tc(X, Y), e(Y, Z).\n";

/// Four unary chains off `base`, six levels deep: 24 single-predicate
/// components, so every cascade is many small tasks.
constexpr const char* kFanoutProgram =
    "a1(X) :- base(X).  b1(X) :- base(X).  c1(X) :- base(X).  d1(X) :- base(X).\n"
    "a2(X) :- a1(X).    b2(X) :- b1(X).    c2(X) :- c1(X).    d2(X) :- d1(X).\n"
    "a3(X) :- a2(X).    b3(X) :- b2(X).    c3(X) :- c2(X).    d3(X) :- d2(X).\n"
    "a4(X) :- a3(X).    b4(X) :- b3(X).    c4(X) :- c3(X).    d4(X) :- d3(X).\n"
    "a5(X) :- a4(X).    b5(X) :- b4(X).    c5(X) :- c4(X).    d5(X) :- d4(X).\n"
    "a6(X) :- a5(X).    b6(X) :- b5(X).    c6(X) :- c5(X).    d6(X) :- d5(X).\n";

constexpr const char* kTenantProgram =
    "d1(X) :- base(X).\n"
    "d2(X) :- d1(X).\n"
    "d3(X) :- d2(X).\n";

/// The rule tenant-mix adds and removes in turn.
constexpr const char* kTenantEvolveRule = "d4(X) :- d3(X).";

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt * 0xBF58476D1CE4E5B9ULL +
                    0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Op Unary(bool is_delete, std::int64_t key) {
  return Op{is_delete, "base", {key}};
}

// --- recursive-churn ------------------------------------------------------

/// Disjoint dense clusters.  Each cluster keeps a fixed ring (so it stays
/// one SCC whatever the churn does; --no-ring drops it, and then deletions
/// can split the SCC) plus random extra edges at density p;
/// a batch rewires one extra edge in each of changes/2 distinct clusters,
/// so the edge count never changes.
class ChurnStream final : public Stream {
 public:
  ChurnStream(std::uint64_t seed, std::size_t clusters, std::size_t nodes,
              double p, std::size_t changes, bool ring)
      : clusters_(clusters), nodes_(nodes), changes_(changes), ring_(ring),
        rng_(Mix(seed, 0xC1)), extra_(clusters) {
    std::bernoulli_distribution coin(p);
    for (std::size_t c = 0; c < clusters_; ++c) {
      for (std::size_t u = 0; u < nodes_; ++u) {
        for (std::size_t v = 0; v < nodes_; ++v) {
          if (u != v && !IsRing(u, v) && coin(rng_)) {
            extra_[c].emplace_back(Id(c, u), Id(c, v));
            present_.insert(Key(Id(c, u), Id(c, v)));
          }
        }
      }
    }
  }

  [[nodiscard]] std::vector<Op> InitialFacts() const override {
    return LiveFacts();
  }

  [[nodiscard]] Request Next() override {
    // Distinct clusters, one rewire (delete + insert) each, so every batch
    // touches the same amount of the store.
    Request req;
    std::vector<std::size_t> picked;
    std::uniform_int_distribution<std::size_t> cluster(0, clusters_ - 1);
    std::uniform_int_distribution<std::size_t> node(0, nodes_ - 1);
    while (picked.size() < std::min(changes_ / 2, clusters_)) {
      const std::size_t c = cluster(rng_);
      if (std::find(picked.begin(), picked.end(), c) == picked.end() &&
          !extra_[c].empty()) {
        picked.push_back(c);
      }
    }
    std::vector<Op> inserts;
    for (const std::size_t c : picked) {
      std::uniform_int_distribution<std::size_t> pick(0, extra_[c].size() - 1);
      const std::size_t i = pick(rng_);
      const auto gone = extra_[c][i];
      for (;;) {
        const std::size_t u = node(rng_);
        const std::size_t v = node(rng_);
        const std::int64_t a = Id(c, u);
        const std::int64_t b = Id(c, v);
        if (u == v || IsRing(u, v) || present_.count(Key(a, b)) != 0) {
          continue;
        }
        extra_[c][i] = {a, b};
        present_.insert(Key(a, b));
        inserts.push_back(Op{false, "e", {a, b}});
        break;
      }
      present_.erase(Key(gone.first, gone.second));
      req.ops.push_back(Op{true, "e", {gone.first, gone.second}});
    }
    req.ops.insert(req.ops.end(), inserts.begin(), inserts.end());
    return req;
  }

  [[nodiscard]] std::vector<Op> LiveFacts() const override {
    std::vector<Op> ops;
    for (std::size_t c = 0; c < clusters_; ++c) {
      for (std::size_t u = 0; ring_ && u < nodes_; ++u) {
        ops.push_back(Op{false, "e", {Id(c, u), Id(c, (u + 1) % nodes_)}});
      }
      for (const auto& edge : extra_[c]) {
        ops.push_back(Op{false, "e", {edge.first, edge.second}});
      }
    }
    return ops;
  }

  [[nodiscard]] std::string ProgramText() const override { return kTcProgram; }
  [[nodiscard]] std::vector<std::string> OraclePredicates() const override {
    return {"e", "tc"};
  }

 private:
  [[nodiscard]] bool IsRing(std::size_t u, std::size_t v) const {
    return ring_ && v == (u + 1) % nodes_;
  }
  [[nodiscard]] std::int64_t Id(std::size_t c, std::size_t u) const {
    return static_cast<std::int64_t>(c * nodes_ + u);
  }
  static std::uint64_t Key(std::int64_t a, std::int64_t b) {
    return (static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint64_t>(b);
  }

  std::size_t clusters_;
  std::size_t nodes_;
  std::size_t changes_;
  bool ring_;
  std::mt19937_64 rng_;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> extra_;
  std::unordered_set<std::uint64_t> present_;
};

// --- unary key churn (pipeline-ingest, tenant-mix) -------------------------

/// A per-stream block of never-reused integer keys: `live` keys stay live,
/// and each submit inserts `half` fresh keys and deletes `half` live keys
/// drawn at random (never one inserted by the same batch).
class KeyChurn {
 public:
  KeyChurn(std::uint64_t seed, std::size_t conn, std::size_t live,
           std::size_t half)
      : half_(half), rng_(Mix(seed, 0x1000 + conn)),
        next_key_(static_cast<std::int64_t>(conn + 1) * 1'000'000'000'000LL +
                  static_cast<std::int64_t>(Mix(seed, conn) % 1'000'000) *
                      1'000'000LL) {
    for (std::size_t i = 0; i < live; ++i) {
      live_.push_back(next_key_++);
    }
    initial_ = live_;
  }

  Request Submit() {
    Request req;
    for (std::size_t k = 0; k < half_; ++k) {
      std::uniform_int_distribution<std::size_t> pick(0, live_.size() - 1);
      const std::size_t i = pick(rng_);
      req.ops.push_back(Unary(true, live_[i]));
      live_[i] = live_.back();
      live_.pop_back();
    }
    for (std::size_t k = 0; k < half_; ++k) {
      req.ops.push_back(Unary(false, next_key_));
      live_.push_back(next_key_++);
    }
    return req;
  }

  [[nodiscard]] std::vector<Op> Facts(bool initial) const {
    std::vector<Op> ops;
    for (const std::int64_t key : initial ? initial_ : live_) {
      ops.push_back(Unary(false, key));
    }
    return ops;
  }

 private:
  std::size_t half_;
  std::mt19937_64 rng_;
  std::int64_t next_key_;
  std::vector<std::int64_t> live_;
  std::vector<std::int64_t> initial_;
};

class IngestStream final : public Stream {
 public:
  IngestStream(std::uint64_t seed, std::size_t conn, std::size_t live)
      : keys_(seed, conn, live, 8) {}

  [[nodiscard]] std::vector<Op> InitialFacts() const override {
    return keys_.Facts(true);
  }
  [[nodiscard]] Request Next() override { return keys_.Submit(); }
  [[nodiscard]] std::vector<Op> LiveFacts() const override {
    return keys_.Facts(false);
  }
  [[nodiscard]] std::string ProgramText() const override {
    return kFanoutProgram;
  }
  [[nodiscard]] std::vector<std::string> OraclePredicates() const override {
    std::vector<std::string> preds = {"base"};
    for (const char chain : {'a', 'b', 'c', 'd'}) {
      for (int level = 1; level <= 6; ++level) {
        preds.push_back(std::string(1, chain) + std::to_string(level));
      }
    }
    return preds;
  }

 private:
  KeyChurn keys_;
};

/// One tenant: 3 of 4 requests are 8-op submits, every 4th a QUERY d3, and
/// every 200th (staggered per tenant) adds or removes kTenantEvolveRule.
class TenantStream final : public Stream {
 public:
  TenantStream(std::uint64_t seed, std::size_t conn, std::size_t live)
      : keys_(seed, conn, live, 4), phase_(conn * 50) {}

  [[nodiscard]] std::vector<Op> InitialFacts() const override {
    return keys_.Facts(true);
  }

  [[nodiscard]] Request Next() override {
    const std::size_t i = index_++;
    if ((i + phase_) % 200 == 199) {
      Request req;
      req.kind = has_rule_ ? ReqKind::kRemoveRule : ReqKind::kAddRules;
      req.text = kTenantEvolveRule;
      has_rule_ = !has_rule_;
      ever_rule_ = true;
      return req;
    }
    if (i % 4 == 3) {
      Request req;
      req.kind = ReqKind::kQuery;
      req.text = "d3";
      return req;
    }
    return keys_.Submit();
  }

  [[nodiscard]] std::vector<Op> LiveFacts() const override {
    return keys_.Facts(false);
  }
  [[nodiscard]] std::string ProgramText() const override {
    std::string text = kTenantProgram;
    if (has_rule_) {
      text += kTenantEvolveRule;
      text += "\n";
    }
    return text;
  }
  [[nodiscard]] std::vector<std::string> OraclePredicates() const override {
    std::vector<std::string> preds = {"base", "d1", "d2", "d3"};
    if (ever_rule_) {
      preds.emplace_back("d4");
    }
    return preds;
  }

 private:
  KeyChurn keys_;
  std::size_t phase_;
  std::size_t index_ = 0;
  bool has_rule_ = false;
  bool ever_rule_ = false;
};

}  // namespace

std::unique_ptr<Stream> WorkloadSpec::MakeStream(std::size_t conn) const {
  if (name == "recursive-churn") {
    return std::make_unique<ChurnStream>(seed, sizes.clusters, 32, 0.15, 8,
                                         !sizes.no_ring);
  }
  if (name == "pipeline-ingest") {
    // Large enough that each epoch's store work keeps the P workers busy.
    // Over small stores a cascade is mostly pool and pipeline hand-offs,
    // whose cost moves with the host (README, "Host noise").
    return std::make_unique<IngestStream>(seed, conn, sizes.smoke ? 64 : 16384);
  }
  return std::make_unique<TenantStream>(seed, conn, sizes.smoke ? 32 : 512);
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "recursive-churn", "pipeline-ingest", "tenant-mix"};
  return names;
}

WorkloadSpec MakeWorkload(const std::string& name, std::uint64_t seed,
                          Sizes sizes) {
  WorkloadSpec spec;
  spec.name = name;
  spec.seed = seed;
  const std::string strategy = sizes.strategy.empty() ? "dred" : sizes.strategy;
  if (name == "recursive-churn") {
    if (sizes.clusters == 0) {
      sizes.clusters = sizes.smoke ? 4 : 32;
    }
    spec.sessions = {SessionSpec{kTcProgram, strategy, 1}};
    spec.conn_session = {0};
    spec.window = 1;
  } else if (name == "pipeline-ingest") {
    spec.sessions = {SessionSpec{kFanoutProgram, strategy, 4}};
    spec.conn_session = {0, 0};
    spec.window = 4;
  } else if (name == "tenant-mix") {
    for (int t = 0; t < 4; ++t) {
      spec.sessions.push_back(SessionSpec{kTenantProgram, strategy, 1});
      spec.conn_session.push_back(static_cast<std::size_t>(t));
    }
    // An open loop has no window; the bound only caps a runaway backlog.
    spec.window = 1024;
    if (sizes.rate_per_conn <= 0.0) {
      sizes.rate_per_conn = sizes.smoke ? 100.0 : 200.0;
    }
    spec.rate_per_conn = sizes.rate_per_conn;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  spec.sizes = sizes;
  return spec;
}

}  // namespace perfbench
