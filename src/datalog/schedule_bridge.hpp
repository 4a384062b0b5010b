// Bridge from a recorded incremental update to a scheduling JobTrace —
// the full pipeline the paper describes: Datalog program → computation DAG
// → activation cascade → scheduler input.
//
// DAG shape (mirroring Figure 1's anatomy):
//  * one zero-work *collector* node per predicate ("predicate nodes used to
//    collect inputs and outputs");
//  * one *task* node per rule component (the fixpoint evaluation granule);
//  * edges: predicate → every component reading it; component → every
//    member predicate it writes.
// Activation data comes from a real serial PropagateUpdate run: a task's
// work is the measured component evaluation time, its output-changes bit is
// whether the component's relations net-changed, and the initially dirty
// nodes are the base predicates the update touched.
#pragma once

#include <string>
#include <vector>

#include "datalog/incremental.hpp"
#include "datalog/stratify.hpp"
#include "trace/job_trace.hpp"

namespace dsched::datalog {

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
