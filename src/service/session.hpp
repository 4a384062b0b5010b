// One maintained Datalog program inside an EngineHost.
//
// A session owns everything program-scoped — the parsed+stratified program,
// its RelationStore, its scheduler choice, and a bounded queue of
// pending update batches — and borrows only the host's shared worker pool.
//
// Epoch pipelining (DESIGN.md §12): a session runs up to K = pipeline_depth
// update cascades in flight at once.  K apply threads pop batches from the
// queue (pops are dense: the queue is FIFO, so epoch N is always popped
// before N+1, just possibly by different threads).  An ADMISSION gate lets
// epoch e start only when
//   * epoch e-1 has been admitted (cascades START in dense order),
//   * fewer than K epochs are between admitted and applied, and
//   * no query is waiting (queries see a quiesced pipeline).
// Once admitted, the cascade runs on the shared pool with the session's
// StratumFrontier as its pipeline gate: each component phase of epoch e
// holds until epoch e-1 has finalized every dependency level the phase
// could race with, so overlapping epochs interleave safely along the
// program's level structure instead of serializing whole batches.
// A SEQUENCER then resolves futures strictly in dense epoch order — the
// externally visible contract is unchanged from the K=1 loop: after the
// future for epoch N resolves, Query() reflects every batch up to N.
//
// K=1 degenerates to the classic serialized-per-session apply loop (no
// frontier, no overlap).  Every update cascade, at every K, runs through
// Database::ApplyRequestParallel on the host's TaskRouter.
//
// Lifecycle: bootstrap (Insert base facts, Materialize) → live (Submit /
// Query) → Close (stop accepting, drain the queue, join).  Close is
// idempotent and implied by destruction; every admitted epoch finishes and
// its future resolves before Close returns.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "datalog/database.hpp"
#include "runtime/pipeline.hpp"
#include "service/engine_host.hpp"
#include "service/update_queue.hpp"

namespace dsched::service {

/// Handle to one maintained program.  Bootstrap calls (Insert/Materialize)
/// are single-threaded by contract; Submit/Query/Close may be called from
/// any thread once materialized.
class Session {
 public:
  /// Use EngineHost::OpenSession.
  Session(std::shared_ptr<detail::HostCore> core, std::string_view program_text,
          const SessionOptions& options);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Closes (drains + joins) if still open.
  ~Session();

  // --- bootstrap -------------------------------------------------------
  [[nodiscard]] datalog::Value Sym(std::string_view name) {
    return db_.Sym(name);
  }
  void Insert(std::string_view predicate, datalog::Tuple tuple) {
    db_.Insert(predicate, std::move(tuple));
  }
  /// From-scratch evaluation to fixpoint; required before the first Submit.
  datalog::EvalStats Materialize() { return db_.Materialize(); }

  // --- live updates ----------------------------------------------------
  /// Starts a name-based batch builder bound to this session's program.
  [[nodiscard]] datalog::Database::Update MakeUpdate() {
    return db_.MakeUpdate();
  }

  /// Enqueues a batch for in-order application.  BLOCKS while the session
  /// queue is at its bound (backpressure).  Throws util::LogicError once
  /// the session is closed or closing.
  std::future<UpdateOutcome> Submit(datalog::UpdateRequest request);
  std::future<UpdateOutcome> Submit(const datalog::Database::Update& update) {
    return Submit(update.Request());
  }

  /// Non-blocking Submit: false (and no enqueue) when the queue is full.
  bool TrySubmit(datalog::UpdateRequest request,
                 std::future<UpdateOutcome>* out);

  // --- live rule evolution ---------------------------------------------
  /// Enqueues a rule-set change as an epoch of its own: the job rides the
  /// same FIFO as Submit batches, so "epoch N resolved" still means every
  /// batch AND rule change up to N is visible.  An evolve epoch is
  /// EXCLUSIVE — admission waits until every in-flight epoch has resolved
  /// (the pipeline drains past the evolution fence) and blocks successor
  /// admissions until its own cascade lands, so it composes with
  /// pipeline_depth K > 1 without fencing individual levels.  The future
  /// carries rules_changed/program_version/evolve stats on top of the
  /// usual update result.  A rejected change (parse error, unstratifiable
  /// program, unknown rule) fails ITS future; the program is untouched and
  /// the session stays live.  Blocking/backpressure contract matches
  /// Submit.
  std::future<UpdateOutcome> EvolveAddRules(std::string_view rules_text);
  std::future<UpdateOutcome> EvolveRemoveRule(std::string_view clause_text);

  /// Non-blocking variants: false (and no enqueue) when the queue is full.
  bool TryEvolveAddRules(std::string_view rules_text,
                         std::future<UpdateOutcome>* out);
  bool TryEvolveRemoveRule(std::string_view clause_text,
                           std::future<UpdateOutcome>* out);

  /// Blocks until every batch accepted so far has been applied.
  void Drain();

  /// Stops accepting new batches, applies everything already queued (every
  /// admitted epoch finishes and its future resolves), joins the apply
  /// threads, and publishes final session metrics.  Idempotent.
  void Close();

  // --- queries (any thread; quiesce the pipeline first) ----------------
  [[nodiscard]] std::vector<datalog::Tuple> Query(
      std::string_view predicate) const;
  [[nodiscard]] bool Contains(std::string_view predicate,
                              const datalog::Tuple& tuple) const;

  // --- introspection ---------------------------------------------------
  /// Host-unique numeric id (1-based, in open order).  This is the id the
  /// wire protocol routes by and EngineHost::FindSession looks up.
  [[nodiscard]] std::uint64_t Id() const { return id_; }
  [[nodiscard]] const std::string& Name() const { return name_; }
  [[nodiscard]] const std::string& SchedulerSpec() const { return spec_; }
  /// The maintenance strategy every batch of this session applies with.
  [[nodiscard]] datalog::MaintenanceStrategy Strategy() const {
    return strategy_;
  }
  /// The resolved epoch-pipeline depth K (clamped to [1, 64]).
  [[nodiscard]] std::size_t PipelineDepth() const { return depth_; }
  /// The session's accounted-memory ceiling (0 = none) and its live
  /// account, shared by every in-flight epoch cascade.
  [[nodiscard]] std::uint64_t MemoryBudget() const { return memory_budget_; }
  [[nodiscard]] const runtime::ResourceAccount& Account() const {
    return account_;
  }
  /// Last applied epoch (0 before any batch lands).  Monotone; epoch N
  /// applied implies all earlier epochs applied (dense resolution order).
  [[nodiscard]] std::uint64_t AppliedEpoch() const {
    return applied_epoch_.load(std::memory_order_acquire);
  }
  /// Current program version (1 at open, +1 per applied rule change).
  [[nodiscard]] std::uint64_t ProgramVersion() const {
    return db_.ProgramVersion();
  }
  [[nodiscard]] std::size_t QueueDepth() const { return queue_.Depth(); }
  [[nodiscard]] std::size_t QueueCapacity() const {
    return queue_.Capacity();
  }
  /// The underlying store — tuple access for equality checks.
  [[nodiscard]] const datalog::RelationStore& Store() const {
    return db_.Store();
  }
  [[nodiscard]] const datalog::Database& Db() const { return db_; }

 private:
  void ApplyLoop();
  void ApplyOne(UpdateQueue::Job& job);
  void ApplyEvolve(UpdateQueue::Job& job);
  std::future<UpdateOutcome> SubmitEvolve(UpdateQueue::Kind kind,
                                          std::string_view text);
  bool TrySubmitEvolve(UpdateQueue::Kind kind, std::string_view text,
                       std::future<UpdateOutcome>* out);
  /// Publishes session.<name>.* counters into the host registry.
  void PublishMetrics();

  std::shared_ptr<detail::HostCore> core_;
  std::uint64_t id_;
  std::string name_;
  std::string spec_;
  datalog::MaintenanceStrategy strategy_;
  std::size_t depth_;
  std::uint64_t memory_budget_;
  std::string metrics_prefix_;
  datalog::Database db_;
  UpdateQueue queue_;

  /// One live-resource account for the whole session: all K in-flight
  /// epoch cascades acquire into it, so memory_budget_ bounds their joint
  /// accounted footprint (runtime/executor.hpp).
  runtime::ResourceAccount account_;

  /// The session's epoch frontier: cascades publish per-level finalization
  /// into it and successors gate on it (runtime/pipeline.hpp).  Only
  /// consulted when depth_ > 1.
  runtime::StratumFrontier frontier_;

  /// One mutex guards ALL pipeline state below (admission, sequencing,
  /// query quiescence, totals).  Apply threads hold it only around state
  /// transitions, never while a cascade runs.
  mutable std::mutex pipe_mutex_;
  mutable std::condition_variable pipe_cv_;
  /// Highest epoch whose cascade has been admitted (started).
  std::uint64_t admitted_epoch_ = 0;
  /// Highest epoch whose future has resolved; dense, so in-flight count is
  /// admitted_epoch_ - applied_seq_.
  std::uint64_t applied_seq_ = 0;
  /// Queries blocked waiting for the pipeline to quiesce; > 0 holds off
  /// new admissions so readers are not starved by a busy pipeline.
  mutable std::size_t queries_waiting_ = 0;
  /// True while an evolve epoch's cascade is between admission and
  /// resolution.  Evolve admission drains the pipeline (admitted ==
  /// applied) and this flag keeps successors out until the swap + cone
  /// cascade have landed — the evolution fence.
  bool evolving_ = false;
  std::uint64_t inflight_high_water_ = 0;
  /// Wall time with >= 1 epoch in flight (for the overlap ratio vs the sum
  /// of per-cascade times).
  double busy_seconds_ = 0.0;
  std::chrono::steady_clock::time_point busy_since_{};
  double cascade_seconds_ = 0.0;
  std::uint64_t frontier_stalls_ = 0;
  double frontier_stall_seconds_ = 0.0;
  std::uint64_t mem_acquired_total_ = 0;
  std::uint64_t mem_deferred_total_ = 0;
  std::uint64_t mem_budget_stalls_total_ = 0;
  std::uint64_t mem_forced_total_ = 0;
  std::uint64_t inserted_total_ = 0;
  std::uint64_t deleted_total_ = 0;
  std::uint64_t maint_ops_total_ = 0;
  std::uint64_t maint_probes_total_ = 0;
  std::uint64_t maint_avoided_total_ = 0;
  std::uint64_t evolve_count_ = 0;
  std::uint64_t evolve_cone_preds_total_ = 0;
  std::uint64_t evolve_reused_comps_total_ = 0;
  std::uint64_t program_version_seen_ = 1;

  /// Lock-free mirror of applied_seq_ for AppliedEpoch().
  std::atomic<std::uint64_t> applied_epoch_{0};

  std::once_flag close_once_;
  /// K apply threads; joined by Close() (which the destructor runs) before
  /// any member is destroyed.
  std::vector<std::thread> apply_threads_;
};

}  // namespace dsched::service
