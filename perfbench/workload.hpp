// Workload definitions: programs, seeded request streams and the model each
// stream keeps of the base facts it has left live (the oracle's input).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

enum class ReqKind { kSubmit, kQuery, kAddRules, kRemoveRule };

/// One base-fact change; every value in these workloads is an integer.
struct Op {
  bool is_delete = false;
  std::string predicate;
  std::vector<std::int64_t> values;
};

/// One client request.  `text` is the predicate for kQuery and the clause
/// for the evolve kinds.
struct Request {
  ReqKind kind = ReqKind::kSubmit;
  std::vector<Op> ops;
  std::string text;
};

/// A deterministic request stream for one connection.  Next() advances the
/// stream's model as if the request had been applied; requests of one
/// stream are applied in order (the wire keeps per-connection FIFO).
class Stream {
 public:
  Stream() = default;
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;
  virtual ~Stream() = default;
  /// The base facts this stream bulk-loads at set-up.
  [[nodiscard]] virtual std::vector<Op> InitialFacts() const = 0;
  [[nodiscard]] virtual Request Next() = 0;
  /// The base facts this stream currently keeps live (as inserts).
  [[nodiscard]] virtual std::vector<Op> LiveFacts() const = 0;
  /// The session's program text after every request issued so far.
  [[nodiscard]] virtual std::string ProgramText() const = 0;
  /// Every predicate the session may hold rows for, read back by the
  /// oracle (includes predicates of rules since removed).
  [[nodiscard]] virtual std::vector<std::string> OraclePredicates() const = 0;
};

struct SessionSpec {
  std::string program;
  std::string strategy = "dred";
  std::uint32_t pipeline_depth = 1;
};

/// Size knobs; zero fields take the workload's scored default.
struct Sizes {
  std::size_t clusters = 0;       ///< recursive-churn
  double rate_per_conn = 0.0;     ///< tenant-mix offered rate
  std::string strategy;           ///< override the session strategy
  bool no_ring = false;           ///< recursive-churn without the backbone
  bool smoke = false;
};

struct WorkloadSpec {
  std::string name;
  std::vector<SessionSpec> sessions;
  /// Session each connection drives (connection c opens session
  /// conn_session[c] unless an earlier connection already did).
  std::vector<std::size_t> conn_session;
  /// Requests in flight per connection (closed loop).
  std::size_t window = 1;
  /// > 0: open loop at this many requests per second per connection.
  double rate_per_conn = 0.0;
  std::uint64_t seed = 1;
  Sizes sizes;

  [[nodiscard]] std::size_t Connections() const { return conn_session.size(); }
  /// A fresh stream for connection `conn`; equal seeds give equal streams.
  [[nodiscard]] std::unique_ptr<Stream> MakeStream(std::size_t conn) const;
};

/// Names accepted by --workload.
[[nodiscard]] const std::vector<std::string>& WorkloadNames();

/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] WorkloadSpec MakeWorkload(const std::string& name,
                                        std::uint64_t seed, Sizes sizes);

}  // namespace perfbench
