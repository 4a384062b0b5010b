// The three depths one workload stream is driven at:
//   WireBench     — ServiceClient connections against an in-process
//                   ServiceServer + EngineHost (the scored path);
//   SessionBench  — the same loop in-process through EngineHost::OpenSession
//                   and Session::Submit/Query/Evolve*;
//   ReplayDatabase — one request at a time through
//                   Database::ApplyRequestParallel on EngineHost::Router().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_session.hpp"
#include "runtime/executor.hpp"
#include "workload.hpp"

namespace dsched::service {
class EngineHost;
class Session;
}  // namespace dsched::service
namespace dsched::net {
class ServiceServer;
class ServiceClient;
}  // namespace dsched::net

namespace perfbench {

/// Monotonic seconds.
double NowS();

/// What one phase of a request loop saw, summed over its connections.
/// Latencies are kept only for requests due (open loop) or sent (closed
/// loop) inside the timed window; counts cover warm-up too.
struct LoopStats {
  std::vector<double> submit_ms;
  std::vector<double> query_ms;
  std::vector<double> evolve_ms;
  /// Open loop only: actual send time minus scheduled send time.
  std::vector<double> late_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t phase_requests = 0;  ///< in-window requests completed ok
  std::uint64_t phase_submits = 0;   ///< of which SUBMITs
  double phase_start = 0.0;
  double last_done = 0.0;  ///< completion of the last in-window request
  double cpu_s = 0.0;      ///< process user+sys CPU over the window

  void Merge(const LoopStats& other);
  [[nodiscard]] double UpdatesPerS() const;
};

struct PhaseConfig {
  double warmup_s = 2.0;
  double measure_s = 10.0;
  /// ReplayDatabase only: stop after this many SUBMIT batches (0 = none).
  std::size_t max_updates = 0;
};

/// Wire messages sampled during a phase, re-encoded afterwards to time
/// the codec (net::Encode* / ExtractFrame / Decode*).
struct FrameLog {
  std::vector<dsched::net::SubmitRequest> submits;
  std::vector<dsched::net::QueryRequest> queries;
  std::vector<dsched::net::AddRulesRequest> evolves;
  std::vector<dsched::net::SubmitResultResponse> submit_results;
  std::vector<dsched::net::QueryResultResponse> query_results;
  std::vector<dsched::net::RulesChangedResponse> rules_changed;
};

/// Mean microseconds to encode, frame-extract and decode one logged frame.
[[nodiscard]] double CodecUsPerFrame(const FrameLog& log);

class WireBench {
 public:
  WireBench(WorkloadSpec spec, std::size_t workers);
  ~WireBench();
  WireBench(const WireBench&) = delete;
  WireBench& operator=(const WireBench&) = delete;

  /// Starts the server, connects every client, opens every session and
  /// bulk-loads its base facts with one SUBMIT per stream.  Returns the
  /// elapsed seconds.
  double Setup();
  /// Runs one warm-up + timed phase; streams continue across calls.
  LoopStats Run(const PhaseConfig& config, FrameLog* log = nullptr);
  /// Reads every predicate of every session back over the wire and
  /// compares it with a from-scratch Materialize() of the final program
  /// over the streams' surviving base facts.  `perturb` drops one
  /// read-back row (the self-test's planted fault).  Read-back requests
  /// are added to `counts`.
  bool Check(bool perturb, std::string* why, LoopStats* counts);
  [[nodiscard]] dsched::obs::MetricsRegistry& Metrics();
  /// Stops the server (drains and closes every session); idempotent.
  void Stop();

 private:
  WorkloadSpec spec_;
  std::size_t workers_;
  std::unique_ptr<dsched::service::EngineHost> host_;
  std::unique_ptr<dsched::net::ServiceServer> server_;
  std::vector<std::unique_ptr<dsched::net::ServiceClient>> clients_;
  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<std::uint64_t> session_ids_;
};

class SessionBench {
 public:
  SessionBench(WorkloadSpec spec, std::size_t workers);
  ~SessionBench();
  SessionBench(const SessionBench&) = delete;
  SessionBench& operator=(const SessionBench&) = delete;

  /// Opens every session and bulk-loads it with one Submit per stream.
  void Setup();
  LoopStats Run(const PhaseConfig& config);
  /// Closes every session; their final session.* metrics are published
  /// by the time this returns.
  void Close();
  [[nodiscard]] dsched::obs::MetricsRegistry& Metrics();

 private:
  WorkloadSpec spec_;
  std::size_t workers_;
  std::unique_ptr<dsched::service::EngineHost> host_;
  std::vector<std::shared_ptr<dsched::service::Session>> sessions_;
  std::vector<std::unique_ptr<Stream>> streams_;
};

/// Depth-3 result: one request at a time, straight into the Database.
struct ReplayStats {
  std::vector<double> apply_ms;  ///< per SUBMIT batch
  std::uint64_t updates = 0;
  std::uint64_t evolves = 0;
  double apply_s = 0.0;
  std::uint64_t maint_ops = 0;
  std::uint64_t overdeleted = 0;
  std::uint64_t deleted = 0;
  /// Summed over batches (mem_peak_bytes is the max).
  dsched::runtime::Executor::RunStats run;
  double materialize_s = 0.0;        ///< from scratch on the set-up facts,
                                     ///< all sessions
  double final_materialize_s = 0.0;  ///< from scratch on the final state,
                                     ///< mean per session
  dsched::obs::AccumSnapshot trace{};
  double trace_ns_per_tick = 0.0;
  /// Rows of every session's store after the replay, and the row-weighted
  /// max/mean shard occupancy of its relations.
  std::uint64_t store_rows = 0;
  std::uint64_t store_bytes = 0;  ///< RelationStore::MemoryBytes, summed
  double shard_skew = 0.0;
  std::uint64_t index_rebuilds = 0;      ///< during the replay
  std::uint64_t index_extend_rows = 0;   ///< during the replay
  std::uint64_t publish_rows = 0;        ///< during the replay

  /// Total duration of a traced scope category, in milliseconds.
  [[nodiscard]] double TraceMs(dsched::obs::Category category) const;
  [[nodiscard]] std::uint64_t TraceCount(dsched::obs::Category category) const;
  [[nodiscard]] std::uint64_t TraceValue(dsched::obs::Category category) const;
};

ReplayStats ReplayDatabase(const WorkloadSpec& spec, std::size_t workers,
                           const PhaseConfig& config, bool traced);

}  // namespace perfbench
