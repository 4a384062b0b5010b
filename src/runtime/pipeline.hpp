// Epoch pipelining: run K update cascades of one session concurrently,
// overlapped along the stratification's dependency levels.
//
// The model (DESIGN.md §12): every cascade is tagged with a dense 1-based
// epoch.  A StratumFrontier records, per epoch, how many dependency LEVELS
// the cascade has finalized — level L is finalized once every activated
// task at levels <= L has completed, which (because a phase writes the
// store directly and its Insert/Erase calls return before the task
// completes) means every store write at those levels is done and visible.
// Epoch e+1's coordinator holds back any task whose
// FENCE exceeds epoch e's finalized level; the fence of a component covers
// both its own writes (write/write against e's same-level tasks) and the
// deepest reader of its member predicates (write/read against e's
// still-running consumers).  Everything else overlaps.
//
// Levels here are NOT the paper's negation strata: component_stratum only
// grows across negative edges, so two components on the same stratum may
// depend on each other.  Pipelining uses the longest-path depth over the
// component condensation instead (datalog/pipeline_plan.hpp), which makes
// "all levels < L finalized" imply "every transitive producer finished".
//
// Threading: Advance/FinalizeAll are called by the owning cascade's
// coordinator thread; FinalizedLevels/WaitFinalizedLevels by the NEXT
// epoch's coordinator.  All waits happen on coordinator threads — never
// inside pool task bodies, so a held cascade cannot starve the shared
// worker pool.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace dsched::runtime {

/// Per-session record of how far each epoch's cascade has finalized.
/// Thread-safe.  Epochs are expected to be dense and 1-based (the session
/// queue's numbering); epoch 0 is the "before any update" sentinel and is
/// always fully finalized.
class StratumFrontier {
 public:
  /// "Every level finalized" sentinel — larger than any real level count.
  static constexpr std::uint32_t kAllLevels = 0xffffffffu;

  /// Raises `epoch`'s finalized-level count to `levels_done` (monotone:
  /// lower values are ignored).  kAllLevels marks the epoch complete and
  /// advances the dense completion watermark.
  void Advance(std::uint64_t epoch, std::uint32_t levels_done);

  /// Marks `epoch` fully finalized — called when its cascade ends, and on
  /// the error path, so a failed epoch can never wedge its successors.
  void FinalizeAll(std::uint64_t epoch) { Advance(epoch, kAllLevels); }

  /// How many levels are EFFECTIVELY finalized through `epoch`: the
  /// minimum of every in-flight epoch's own count up to and including
  /// `epoch` (levels [0, ret) are done in ALL of them).  The min is what
  /// makes a fence check against epoch e-1 transitively cover e-2, e-3,
  /// ... — an epoch trivially drains levels where it has no tasks, which
  /// says nothing about its still-running predecessors.  Epochs at or
  /// below the completion watermark report kAllLevels.
  [[nodiscard]] std::uint32_t FinalizedLevels(std::uint64_t epoch) const;

  /// Blocks until FinalizedLevels(epoch) >= levels_needed; returns the
  /// value that satisfied the wait.
  std::uint32_t WaitFinalizedLevels(std::uint64_t epoch,
                                    std::uint32_t levels_needed);

  /// Dense watermark: every epoch <= this is fully finalized.
  [[nodiscard]] std::uint64_t CompleteThrough() const;

  /// Advance calls that actually moved a frontier (the pipeline.finalize
  /// counter's source).
  [[nodiscard]] std::uint64_t Finalizations() const;

 private:
  /// effective(epoch) under mutex_ — see FinalizedLevels.
  [[nodiscard]] std::uint32_t EffectiveLocked(std::uint64_t epoch) const;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// Epochs above the watermark with partial progress.  Bounded by the
  /// pipeline depth K in practice, so a flat map is the right structure.
  std::map<std::uint64_t, std::uint32_t> levels_;
  std::uint64_t complete_through_ = 0;
  std::uint64_t finalizations_ = 0;
};

/// Per-cascade pipelining context handed to the executor coordinator
/// (Executor::Options::gate).  Null gate = unpipelined cascade (identical
/// behaviour to before pipelining existed).
struct PipelineGate {
  StratumFrontier* frontier = nullptr;
  /// This cascade's epoch; it gates on epoch-1 and publishes for epoch+1.
  std::uint64_t epoch = 0;
  /// Per-DAG-node dependency level (0-based), sized to the trace's nodes.
  const std::vector<std::uint32_t>* node_level = nullptr;
  /// Per-node fence: how many levels epoch-1 must have finalized before
  /// the node may be handed to the pool.  0 = never waits.
  const std::vector<std::uint32_t>* node_fence = nullptr;
  /// Total dependency levels in the plan (finalized counts cap here).
  std::uint32_t num_levels = 0;
};

}  // namespace dsched::runtime
