#include "datalog/schedule_bridge.hpp"

#include <algorithm>

#include "graph/digraph_builder.hpp"
#include "util/error.hpp"

namespace dsched::datalog {

ActivationDag BuildActivationDag(const Program& program,
                                 const Stratification& strat,
                                 const UpdateRequest& request) {
  const std::size_t num_preds = program.NumPredicates();
  const std::size_t num_comps = strat.NumComponents();
  ActivationDag out;

  // --- Node layout: predicates first, then one task node per component
  // that actually owns rules.
  out.component_node.assign(num_comps, util::kInvalidTask);
  std::size_t next_node = num_preds;
  for (std::uint32_t c = 0; c < num_comps; ++c) {
    if (!strat.component_rules[c].empty()) {
      out.component_node[c] = static_cast<util::TaskId>(next_node++);
    }
  }

  graph::DigraphBuilder builder(next_node);
  for (std::uint32_t c = 0; c < num_comps; ++c) {
    const util::TaskId task = out.component_node[c];
    if (task == util::kInvalidTask) {
      continue;
    }
    // component → member predicates.
    for (const std::uint32_t p : strat.component_members[c]) {
      builder.AddEdge(task, static_cast<util::TaskId>(p));
    }
    // external body predicates → component.
    for (const std::size_t r : strat.component_rules[c]) {
      for (const BodyElement& element : program.rules[r].body) {
        if (const auto* literal = std::get_if<Literal>(&element)) {
          const std::uint32_t p = literal->atom.predicate;
          if (strat.component_of[p] != c) {
            builder.AddEdge(static_cast<util::TaskId>(p), task);
          }
        }
      }
    }
  }
  out.graph = std::move(builder).Build();

  // --- Initially dirty: base predicates the request touches.  A base
  // change to a predicate that also has rules dirties the component's task
  // itself (it must reconcile the change).
  std::vector<bool> pred_touched(num_preds, false);
  for (const auto* side : {&request.insertions, &request.deletions}) {
    for (const auto& change : *side) {
      DSCHED_CHECK_MSG(change.first < num_preds, "unknown predicate id");
      pred_touched[change.first] = true;
    }
  }
  for (std::size_t p = 0; p < num_preds; ++p) {
    if (!pred_touched[p]) {
      continue;
    }
    const util::TaskId task = out.component_node[strat.component_of[p]];
    out.dirty.push_back(task == util::kInvalidTask
                            ? static_cast<util::TaskId>(p)
                            : task);
  }
  return out;
}

UpdateTrace BuildUpdateTrace(const Program& program,
                             const Stratification& strat,
                             const UpdateRequest& request,
                             const UpdateResult& result,
                             std::string trace_name) {
  DSCHED_CHECK_MSG(result.components.size() == strat.NumComponents(),
                   "update result does not match the stratification");
  UpdateTrace out;
  const std::size_t num_preds = program.NumPredicates();
  const std::size_t num_comps = strat.NumComponents();
  ActivationDag dag = BuildActivationDag(program, strat, request);
  const std::size_t num_nodes = dag.graph.NumNodes();
  out.predicate_node.resize(num_preds);
  for (std::size_t p = 0; p < num_preds; ++p) {
    out.predicate_node[p] = static_cast<util::TaskId>(p);
  }
  out.component_node = std::move(dag.component_node);

  // --- Per-node info.
  std::vector<trace::TaskInfo> infos(num_nodes);
  out.labels.resize(num_nodes);

  // Which predicates net-changed, from the per-component stats?  A
  // component's stats aggregate its members, so attribute change to every
  // member when the component changed (collector granularity — the paper's
  // collectors forward any member change).
  std::vector<bool> pred_changed(num_preds, false);
  std::vector<bool> comp_changed(num_comps, false);
  std::vector<const ComponentUpdateStats*> stats_of(num_comps, nullptr);
  for (const ComponentUpdateStats& cs : result.components) {
    DSCHED_CHECK(cs.component < num_comps);
    stats_of[cs.component] = &cs;
    comp_changed[cs.component] = cs.output_changed;
    if (cs.output_changed) {
      for (const std::uint32_t p : strat.component_members[cs.component]) {
        pred_changed[p] = true;
      }
    }
  }

  for (std::size_t p = 0; p < num_preds; ++p) {
    trace::TaskInfo& info = infos[p];
    info.kind = trace::NodeKind::kCollector;
    info.work = 0.0;
    info.span = 0.0;
    info.output_changes = pred_changed[p];
    out.labels[p] = program.predicate_names[p];
  }
  for (std::uint32_t c = 0; c < num_comps; ++c) {
    const util::TaskId task = out.component_node[c];
    if (task == util::kInvalidTask) {
      continue;
    }
    DSCHED_CHECK_MSG(stats_of[c] != nullptr,
                     "missing update stats for a rule component");
    const ComponentUpdateStats& cs = *stats_of[c];
    trace::TaskInfo& info = infos[task];
    info.kind = trace::NodeKind::kTask;
    // Measured evaluation time; floor at a microsecond so untouched
    // components still cost something if a pessimistic scheduler runs them.
    info.work = std::max(cs.seconds, 1e-6);
    info.span = info.work;
    info.output_changes = comp_changed[c];
    std::string label = "eval{";
    for (std::size_t i = 0; i < strat.component_members[c].size(); ++i) {
      if (i > 0) {
        label += ",";
      }
      label += program.predicate_names[strat.component_members[c][i]];
    }
    label += "}";
    out.labels[task] = label;
  }

  out.trace = trace::JobTrace(std::move(trace_name), std::move(dag.graph),
                              std::move(infos), std::move(dag.dirty));
  return out;
}

}  // namespace dsched::datalog
