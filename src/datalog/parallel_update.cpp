#include "datalog/parallel_update.hpp"

#include "sched/factory.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace dsched::datalog {

ParallelUpdateResult ApplyParallel(const Program& program,
                                   const Stratification& strat,
                                   const PipelinePlan* plan,
                                   RelationStore& store,
                                   const UpdateRequest& request,
                                   const ParallelUpdateOptions& options) {
  DSCHED_CHECK_MSG(options.router != nullptr,
                   "a parallel update needs a TaskRouter to run on");
  DSCHED_CHECK_MSG(options.scheduler_spec.find("oracle") == std::string::npos,
                   "the clairvoyant oracle cannot drive a live update — it "
                   "needs the outcome in advance");
  const MaintenanceStrategy strategy =
      options.strategy.value_or(MaintenanceStrategy::kDRed);
  util::WallTimer total_timer;
  const std::size_t num_preds = program.NumPredicates();
  const std::size_t num_comps = strat.NumComponents();

  // --- The activation DAG (schedule_bridge.hpp).  The request is
  // validated first, on this thread, so a malformed batch throws before any
  // task runs.  Change bits are irrelevant: the executor asks the task
  // bodies at runtime — exactly the paper's dynamic model.
  const GroupedBaseChanges base(program, request);
  ActivationDag dag = BuildActivationDag(program, strat, request);
  const std::vector<util::TaskId>& component_node = dag.component_node;
  const std::size_t num_nodes = dag.graph.NumNodes();
  std::vector<trace::TaskInfo> infos(num_nodes);
  for (std::size_t p = 0; p < num_preds; ++p) {
    infos[p].kind = trace::NodeKind::kCollector;
    infos[p].work = 0.0;
    infos[p].span = 0.0;
  }

  // --- Per-task resource utility, the accounting plane's estimate: each
  // phase-running node carries sum over its component's member predicates
  // of arity x estimated delta cardinality x sizeof(Value).  Base-touched
  // members use the exact batch counts; derived members estimate an
  // eighth of their current materialisation (floor 1 row) — the executor
  // acquires this on dispatch and releases it on completion, which is
  // what session memory ceilings and the meta-scheduler's kill rule
  // meter.  Derived-predicate collectors only forward a flag, so they
  // stay at zero.
  const auto estimated_delta = [&](std::uint32_t p) -> std::uint64_t {
    const std::uint64_t touched = static_cast<std::uint64_t>(
        base.insertions[p].size() + base.deletions[p].size());
    return touched != 0 ? touched : 1 + store.Of(p).Size() / 8;
  };
  for (std::uint32_t c = 0; c < num_comps; ++c) {
    std::uint64_t bytes = 0;
    for (const std::uint32_t p : strat.component_members[c]) {
      bytes += static_cast<std::uint64_t>(program.predicate_arities[p]) *
               estimated_delta(p) * sizeof(Value);
    }
    const util::TaskId node =
        component_node[c] != util::kInvalidTask
            ? component_node[c]
            : static_cast<util::TaskId>(strat.component_members[c].front());
    infos[node].resource_utility = bytes;
  }

  ParallelUpdateResult result;
  result.trace = trace::JobTrace("parallel-update", std::move(dag.graph),
                                 std::move(infos), std::move(dag.dirty));

  // --- Shared (but phase-disjoint) update state.
  std::vector<PredicateDelta> net(num_preds);
  std::vector<ComponentUpdateStats> stats(num_comps);
  for (std::uint32_t c = 0; c < num_comps; ++c) {
    stats[c].component = c;
  }
  // Per-predicate net-changed flags (uint8_t: adjacent elements must not
  // share a byte the way vector<bool> bits would).
  std::vector<std::uint8_t> pred_changed(num_preds, 0);

  const auto run_phase = [&](std::uint32_t c) -> bool {
    stats[c] = RunMaintenancePhase(strategy, program, strat, c, store,
                                   base, net);
    bool changed = false;
    for (const std::uint32_t p : strat.component_members[c]) {
      if (!net[p].Empty()) {
        pred_changed[p] = 1;
        changed = true;
      }
    }
    return changed;
  };

  std::vector<std::uint32_t> node_component(num_nodes, 0);
  for (std::uint32_t c = 0; c < num_comps; ++c) {
    if (component_node[c] != util::kInvalidTask) {
      node_component[component_node[c]] = c;
    }
  }

  // --- Epoch-pipeline gate: per-node levels and fences from the plan.
  // Component tasks (and the collectors of rule-less components, which run
  // the phase themselves) carry the component's fence; derived-predicate
  // collectors only forward a flag computed by their own epoch's task, so
  // they never wait.
  runtime::PipelineGate gate;
  std::vector<std::uint32_t> node_level;
  std::vector<std::uint32_t> node_fence;
  const bool gated = options.frontier != nullptr;
  if (gated) {
    DSCHED_CHECK_MSG(plan != nullptr, "a pipelined update needs its plan");
    node_level.assign(num_nodes, 0);
    node_fence.assign(num_nodes, 0);
    for (std::size_t p = 0; p < num_preds; ++p) {
      const std::uint32_t c = strat.component_of[p];
      node_level[p] = plan->component_level[c];
      node_fence[p] = component_node[c] == util::kInvalidTask
                          ? plan->component_fence[c]
                          : 0;
    }
    for (std::uint32_t c = 0; c < num_comps; ++c) {
      if (component_node[c] != util::kInvalidTask) {
        node_level[component_node[c]] = plan->component_level[c];
        node_fence[component_node[c]] = plan->component_fence[c];
      }
    }
    gate.frontier = options.frontier;
    gate.epoch = options.epoch;
    gate.node_level = &node_level;
    gate.node_fence = &node_fence;
    gate.num_levels = plan->num_levels;
  }

  auto scheduler = sched::CreateScheduler(options.scheduler_spec);
  const runtime::Executor::TaskBody task_body(
      [&](util::TaskId t) -> bool {
        if (t >= num_preds) {
          return run_phase(node_component[t]);
        }
        const auto p = static_cast<std::uint32_t>(t);
        const std::uint32_t c = strat.component_of[p];
        if (component_node[c] == util::kInvalidTask) {
          // Rule-less base predicate: the collector runs the phase
          // itself.
          return run_phase(c);
        }
        // Derived predicate collector: forward the owner's verdict.
        return pred_changed[p] != 0;
      });
  result.run = runtime::Executor::Run(
      *options.router, result.trace, *scheduler, task_body,
      {.gate = gated ? &gate : nullptr,
       .memory_budget = options.memory_budget,
       .account = options.account});

  // --- Assemble the sequential-compatible result.
  for (const std::uint32_t c : strat.component_order) {
    result.update.total_inserted += stats[c].tuples_inserted;
    result.update.total_deleted += stats[c].tuples_deleted;
    result.update.total_maint_ops += stats[c].maint_ops;
    result.update.components.push_back(std::move(stats[c]));
  }
  result.update.seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace dsched::datalog
