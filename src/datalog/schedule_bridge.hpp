// Bridge from an incremental update to a scheduling JobTrace — the full
// pipeline the paper describes: Datalog program → computation DAG →
// activation cascade → scheduler input.
//
// DAG shape (mirroring Figure 1's anatomy), built once by BuildActivationDag
// for both the live parallel engine and the recorded-update trace:
//  * one zero-work *collector* node per predicate ("predicate nodes used to
//    collect inputs and outputs");
//  * one *task* node per rule component (the fixpoint evaluation granule);
//  * edges: predicate → every component reading it; component → every
//    member predicate it writes;
//  * initially dirty: for each predicate the update touches, its
//    component's task node, or its own collector when the component owns
//    no rules.
// BuildUpdateTrace fills the nodes from a real serial PropagateUpdate run:
// a task's work is the measured component evaluation time and its
// output-changes bit is whether the component's relations net-changed.
#pragma once

#include <string>
#include <vector>

#include "datalog/incremental.hpp"
#include "datalog/stratify.hpp"
#include "graph/dag.hpp"
#include "trace/job_trace.hpp"

namespace dsched::datalog {

/// The activation DAG of one update, before any per-node TaskInfo.  Node
/// ids: predicate p is collector node p; component task nodes follow.
struct ActivationDag {
  graph::Dag graph;
  /// component id → task node id (kInvalidTask for rule-less components,
  /// whose collector node doubles as the phase-running node).
  std::vector<util::TaskId> component_node;
  /// The nodes the update dirties directly.
  std::vector<util::TaskId> dirty;
};

/// Builds the node layout, edges and initially dirty nodes for `request`.
/// Every predicate id in `request` must be valid for `program`.
[[nodiscard]] ActivationDag BuildActivationDag(const Program& program,
                                               const Stratification& strat,
                                               const UpdateRequest& request);

/// The constructed trace plus the node correspondence.
struct UpdateTrace {
  trace::JobTrace trace;
  /// Node labels parallel to trace node ids (for DOT export / debugging).
  std::vector<std::string> labels;
  /// predicate id → collector node id.
  std::vector<util::TaskId> predicate_node;
  /// component id → task node id (kInvalidTask for rule-less components,
  /// whose collector node doubles as the source).
  std::vector<util::TaskId> component_node;
};

/// Builds the trace for one applied update.  `result` must come from a
/// serial PropagateUpdate of `request` under the same program/strat.
[[nodiscard]] UpdateTrace BuildUpdateTrace(const Program& program,
                                           const Stratification& strat,
                                           const UpdateRequest& request,
                                           const UpdateResult& result,
                                           std::string trace_name = "datalog-update");

}  // namespace dsched::datalog
