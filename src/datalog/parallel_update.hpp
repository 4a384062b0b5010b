// Parallel incremental maintenance — the paper's system, closed full
// circle: the per-component DRed phases of one update batch are executed
// as REAL task bodies on a worker pool, ordered by any of the library's
// schedulers over the very activation DAG the paper models.
//
// How it maps onto the model:
//  * DAG nodes: one zero-work collector per predicate, one task per rule
//    component (BuildActivationDag, schedule_bridge.hpp);
//  * initially dirty: the base predicates the update touches (their
//    component task, when they have rules);
//  * a component task's body runs RunMaintenancePhase — the actual
//    overdelete / rederive / insert work — and reports whether its
//    relations net-changed, which is what activates downstream collectors;
//  * a collector's body just forwards its predicate's change flag.
// Phase isolation comes from the DAG itself: a phase writes only its
// member relations and net-delta slots, and every reader is a descendant
// the scheduler will not start until the phase completes — the
// "activated ancestors first" rule doing real synchronization work.
#pragma once

#include <optional>
#include <string>

#include "datalog/incremental.hpp"
#include "datalog/maintenance.hpp"
#include "datalog/pipeline_plan.hpp"
#include "datalog/schedule_bridge.hpp"
#include "runtime/executor.hpp"
#include "runtime/pipeline.hpp"
#include "trace/job_trace.hpp"

namespace dsched::datalog {

/// Options for one parallel update — also Database::ParallelOptions.
struct ParallelUpdateOptions {
  /// Scheduler factory spec driving the execution ("hybrid", "levelbased",
  /// "lbl:<k>", "logicblox", "signal"; "oracle" is NOT allowed — it would
  /// need the outcome in advance).
  std::string scheduler_spec = "hybrid";
  /// Required: the router whose shared pool runs the cascade (one channel
  /// per update).  This is how the service layer interleaves many
  /// sessions' cascades on one pool; a standalone caller constructs its
  /// own (one worker = a serial run).  Must outlive the call.
  runtime::TaskRouter* router = nullptr;
  /// How each component phase maintains deletions (maintenance.hpp).
  /// B/F falls back to DRed per component where required.  Empty means
  /// DRed here and the database default through Database.
  std::optional<MaintenanceStrategy> strategy;

  // --- epoch pipelining (runtime/pipeline.hpp, DESIGN.md §12) ----------
  /// When set, this update joins its session's epoch pipeline: the
  /// coordinator holds back each component task until epoch-1 has
  /// finalized every level the task's writes could race with (the fences
  /// of the `plan` argument), and publishes this cascade's own per-level
  /// finalization as the levels drain.  Null = unpipelined.
  runtime::StratumFrontier* frontier = nullptr;
  /// The dense 1-based session epoch of this update; used to gate on
  /// epoch-1's frontier entry.
  std::uint64_t epoch = 0;

  // --- resource accounting (runtime/executor.hpp) ----------------------
  /// Live-resource ceiling for this update's accounted task utilities;
  /// 0 = account but never gate.  Exhaustion defers dispatch at the
  /// coordinator (backpressure), never fails the update.
  std::uint64_t memory_budget = 0;
  /// Account shared across this session's pipelined cascades so one
  /// ceiling covers all in-flight epochs; null = per-update account.
  runtime::ResourceAccount* account = nullptr;
};

/// Result of a parallel update.
struct ParallelUpdateResult {
  /// Per-component stats, same semantics as the serial PropagateUpdate
  /// (components in evaluation order; untouched ones marked unchanged).
  UpdateResult update;
  /// Executor-level stats: tasks run, activations, wall time, scheduler
  /// decision time.
  runtime::Executor::RunStats run;
  /// The activation DAG the update executed over.
  trace::JobTrace trace;
};

/// Applies `request` to the materialized `store` on options.router's
/// workers.  `plan` (levels + fences; Database::Plan() caches one) is
/// required when options.frontier is set and may be null otherwise.
/// Equivalent to the serial PropagateUpdate in final state (the tests
/// verify store equality); faster when independent components dominate.
/// Throws util::InvalidArgument on a malformed request (unknown predicate,
/// wrong arity) before any task runs.
[[nodiscard]] ParallelUpdateResult ApplyParallel(
    const Program& program, const Stratification& strat,
    const PipelinePlan* plan, RelationStore& store,
    const UpdateRequest& request, const ParallelUpdateOptions& options);

}  // namespace dsched::datalog
