// Static pipelining plan for a stratified program: dependency levels and
// per-component fences, computed once per (re)stratification and shared by
// every epoch of a session (DESIGN.md §12).
//
// Why not component_stratum?  Strata only grow across NEGATIVE edges, so
// two components on the same stratum may depend on each other — overlapping
// epochs by stratum would let epoch e+1 write a predicate epoch e is still
// deriving from.  The pipeline instead uses the longest-path depth of the
// component condensation ("level"): level(c) = 1 + max level over the
// components c's rule bodies read, 0 for components with no external
// inputs.  "Epoch e finalized all levels < L" then implies every transitive
// producer of a level-L component has finished, and a component phase
// writes its relations directly, so its writes are in the store when its
// task completes.
//
// The fence covers the other race direction too.  A component phase reads
// exactly its member predicates plus its rules' body predicates
// (OldStateView's `relevant` set), so epoch e+1 mutating component c's
// members races only with epoch-e readers of those members — components at
// levels up to last_reader_level.  Hence:
//
//   fence(c) = 1 + max(level(c), max over members m of last_reader(m))
//
// expressed as "levels epoch e must have finalized" — level(c) itself for
// the write/write exclusion against e's own instance of c, the reader term
// for write/read.  A component nobody reads still fences on its own level.
#pragma once

#include <cstdint>
#include <vector>

#include "datalog/ast.hpp"
#include "datalog/stratify.hpp"

namespace dsched::datalog {

/// Per-component levels and fences; indexes parallel Stratification's.
struct PipelinePlan {
  /// Longest-path depth in the component condensation (0-based).
  std::vector<std::uint32_t> component_level;
  /// Finalized-level count epoch e-1 must reach before epoch e may start
  /// this component's phase (see file comment).
  std::vector<std::uint32_t> component_fence;
  /// Deepest component level whose rules read each predicate (>= the
  /// owner's level; equal when nobody reads it).
  std::vector<std::uint32_t> predicate_last_reader;
  /// 1 + the deepest level — the frontier's "all levels" count.
  std::uint32_t num_levels = 0;
};

/// Builds the plan; `strat.component_order` must be topological (it is —
/// Kahn order over the condensation).
[[nodiscard]] PipelinePlan BuildPipelinePlan(const Program& program,
                                             const Stratification& strat);

}  // namespace dsched::datalog
