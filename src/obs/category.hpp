// The event taxonomy: one category per instrumented hot path.
//
// Categories are a closed enum rather than interned strings so that the
// record path indexes a flat per-thread accumulator array (no hashing, no
// allocation) and the disabled path stays a branch.  Adding a category is
// a two-line change here; docs/OBSERVABILITY.md documents what each one
// measures and how it maps onto the paper's quantities.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dsched::obs {

enum class Category : std::uint8_t {
  // Scheduler decision paths, one per policy so a trace decomposes the
  // paper's "scheduling overhead" by who burned it.  Each scope wraps the
  // policy's PopReady / PopReadyBatch entry point; nested policies (the
  // hybrid's children, LBL's LevelBased fallback) record their own
  // category inside the parent's scope, so the parent's total is the
  // policy's whole decision cost and children attribute its parts.
  kSchedPopLevelBased,
  kSchedPopLookahead,
  kSchedPopLogicBlox,
  kSchedScanLogicBlox,  ///< the O(n^2) active-queue scan, nested in pops
  kSchedPopSignal,
  kSchedPopOracle,
  kSchedPopHybrid,
  kSchedPopMeta,

  // Executor coordinator path (runtime/executor.cpp).
  kExecDispatch,  ///< PopReadyBatch + SubmitBatch loop, per batch round
  kExecDrain,     ///< completion-buffer swap + per-completion bookkeeping
  kExecIdle,      ///< coordinator blocked waiting for a completion

  // Work-stealing pool transitions (runtime/thread_pool.cpp).
  kPoolSteal,  ///< counter: items moved off another worker's deque
  kPoolSleep,  ///< scope: worker asleep with no claimable work

  // Datalog join kernel (datalog/eval.cpp), per rule application.
  kJoinPlan,   ///< RuleJoin construction: ordering, slot + index planning
  kJoinProbe,  ///< the nested-loop join itself
  kJoinEmit,   ///< counter: head tuples emitted by the application

  // Nothing emits kStoreAbsorb now; it stays because perfbench/main.cpp names it.
  kStoreAbsorb,

  // Incremental maintenance strategies (datalog/maintenance.cpp).
  kMaintPhase,            ///< scope: one component's maintenance phase body
  kMaintOverdelete,       ///< counter: tuples overdeleted (DRed step 1)
  kMaintOverdeleteAvoided,///< counter: deletions skipped vs DRed's closure
  kMaintBackwardProbe,    ///< counter: B/F "still derivable?" probes

  // Epoch pipelining (runtime/pipeline.hpp, runtime/executor.cpp).
  kPipelineStall,     ///< scope: coordinator blocked on epoch-1's frontier
  kPipelineFinalize,  ///< counter: frontier level-prefix publications

  // Per-task resource accounting plane (runtime/executor.cpp).
  kMemAcquire,   ///< counter: resource_utility bytes acquired on dispatch
  kMemRelease,   ///< counter: resource_utility bytes released on completion
  kMemDeferred,  ///< counter: dispatches deferred by the memory budget gate

  // Memory-bounded meta-scheduler (sched/meta.cpp).
  kMetaKill,     ///< counter: zeta/2 kill-rule firings (heuristic torn down)

  // Networked frontend (net/server.cpp) — the poll thread's two halves.
  kNetRead,          ///< scope: drain readable sockets + decode/dispatch
  kNetWrite,         ///< scope: flush pending outbufs to writable sockets
  kNetFrameIn,       ///< counter: well-formed frames decoded off the wire
  kNetFrameOut,      ///< counter: response frames queued for send
  kNetBackpressure,  ///< counter: submits parked on a full UpdateQueue
  kNetIdleReap,      ///< counter: connections reaped past the idle deadline

  // Live rule-set evolution (datalog/database.cpp).
  kEvolveRecompile,       ///< scope: copy + parse + cone re-stratify + swap
  kEvolveMaintain,        ///< scope: the affected-cone maintenance cascade
  kEvolveConePred,        ///< counter: predicates in the affected cone
  kEvolveReusedComponent, ///< counter: SCCs reused verbatim across versions

  kCategoryCount
};

inline constexpr std::size_t kNumCategories =
    static_cast<std::size_t>(Category::kCategoryCount);

/// Stable dotted name, e.g. "sched.pop.levelbased" — these are the `name`
/// strings in exported Chrome traces and the keys of category summaries.
[[nodiscard]] const char* CategoryName(Category category);

/// Coarse group ("sched", "exec", "pool", "join") — the Chrome `cat`
/// field, so Perfetto can filter whole subsystems.
[[nodiscard]] const char* CategoryGroup(Category category);

/// True for categories recorded as counters (value deltas), false for
/// duration scopes.
[[nodiscard]] bool IsCounterCategory(Category category);

}  // namespace dsched::obs
