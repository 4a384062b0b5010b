// Incremental maintenance tests: every update must leave the store exactly
// equal to a from-scratch evaluation of the updated base — insertions,
// deletions (DRed with rederivation), negation in both directions — plus
// the schedule-bridge extraction.
#include <gtest/gtest.h>

#include <algorithm>

#include "datalog/database.hpp"
#include "datalog/eval.hpp"
#include "datalog/maintenance.hpp"
#include "datalog/parser.hpp"
#include "datalog/schedule_bridge.hpp"
#include "datalog/stratify.hpp"
#include "datalog/validate.hpp"
#include "graph/levels.hpp"
#include "sched/factory.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "trace/cascade.hpp"
#include "util/rng.hpp"

namespace dsched::datalog {
namespace {

std::vector<Tuple> Sorted(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Checks that `incremental` equals a from-scratch evaluation where the
/// base facts of `reference_base` are inserted into a fresh store.
void ExpectEqualsFromScratch(
    const Program& program, const Stratification& strat,
    const RelationStore& incremental,
    const std::vector<std::pair<std::uint32_t, Tuple>>& reference_base) {
  RelationStore fresh(program);
  for (const auto& [pred, tuple] : reference_base) {
    fresh.Of(pred).Insert(tuple);
  }
  EvaluateProgram(program, strat, fresh);
  for (std::uint32_t pred = 0; pred < program.NumPredicates(); ++pred) {
    EXPECT_EQ(Sorted(incremental.Of(pred).Tuples()),
              Sorted(fresh.Of(pred).Tuples()))
        << "predicate " << program.predicate_names[pred];
  }
}

TEST(IncrementalTest, InsertionExtendsClosure) {
  Database db(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
  )");
  db.Insert("e", {Value::Int(0), Value::Int(1)});
  db.Insert("e", {Value::Int(1), Value::Int(2)});
  db.Materialize();
  EXPECT_EQ(db.Query("tc").size(), 3u);

  auto update = db.MakeUpdate();
  update.Insert("e", {Value::Int(2), Value::Int(3)});
  const UpdateResult result = db.ApplyRequest(update.Request());
  EXPECT_EQ(db.Query("tc").size(), 6u);
  EXPECT_TRUE(db.Contains("tc", {Value::Int(0), Value::Int(3)}));
  EXPECT_EQ(result.total_inserted, 4u);  // e tuple + 3 tc tuples
  EXPECT_EQ(result.total_deleted, 0u);
}

TEST(IncrementalTest, DeletionShrinksClosure) {
  Database db(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
  )");
  for (int i = 0; i < 4; ++i) {
    db.Insert("e", {Value::Int(i), Value::Int(i + 1)});
  }
  db.Materialize();
  EXPECT_EQ(db.Query("tc").size(), 10u);

  auto update = db.MakeUpdate();
  update.Delete("e", {Value::Int(2), Value::Int(3)});
  const UpdateResult result = db.ApplyRequest(update.Request());
  // Chain splits: {0,1,2} and {3,4}: 3 + 1 pairs remain.
  EXPECT_EQ(db.Query("tc").size(), 4u);
  EXPECT_FALSE(db.Contains("tc", {Value::Int(0), Value::Int(3)}));
  EXPECT_TRUE(db.Contains("tc", {Value::Int(0), Value::Int(2)}));
  EXPECT_GT(result.total_deleted, 0u);
}

TEST(IncrementalTest, DeletionWithRederivation) {
  // Two parallel paths a->b: deleting one edge keeps tc(a, b) derivable.
  Database db(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
  )");
  db.Insert("e", {db.Sym("a"), db.Sym("b")});
  db.Insert("e", {db.Sym("a"), db.Sym("m")});
  db.Insert("e", {db.Sym("m"), db.Sym("b")});
  db.Materialize();

  auto update = db.MakeUpdate();
  update.Delete("e", {db.Sym("a"), db.Sym("b")});
  const UpdateResult result = db.ApplyRequest(update.Request());
  EXPECT_TRUE(db.Contains("tc", {db.Sym("a"), db.Sym("b")}));  // rederived
  bool any_rederived = false;
  for (const auto& c : result.components) {
    any_rederived |= c.tuples_rederived > 0;
  }
  EXPECT_TRUE(any_rederived);
}

TEST(IncrementalTest, InsertionIntoNegatedPredicateDestroys) {
  Database db(R"(
    ok(X) :- cand(X), !bad(X).
  )");
  db.Insert("cand", {Value::Int(1)});
  db.Insert("cand", {Value::Int(2)});
  db.Materialize();
  EXPECT_EQ(db.Query("ok").size(), 2u);

  auto update = db.MakeUpdate();
  update.Insert("bad", {Value::Int(1)});
  db.ApplyRequest(update.Request());
  EXPECT_EQ(db.Query("ok").size(), 1u);
  EXPECT_FALSE(db.Contains("ok", {Value::Int(1)}));
}

TEST(IncrementalTest, DeletionFromNegatedPredicateCreates) {
  Database db(R"(
    ok(X) :- cand(X), !bad(X).
  )");
  db.Insert("cand", {Value::Int(1)});
  db.Insert("bad", {Value::Int(1)});
  db.Materialize();
  EXPECT_TRUE(db.Query("ok").empty());

  auto update = db.MakeUpdate();
  update.Delete("bad", {Value::Int(1)});
  db.ApplyRequest(update.Request());
  EXPECT_TRUE(db.Contains("ok", {Value::Int(1)}));
}

TEST(IncrementalTest, NegationCascadesThroughRecursion) {
  // Deleting an edge disconnects nodes; unreach must grow accordingly.
  Database db(R"(
    reach(X) :- start(X).
    reach(Y) :- reach(X), e(X, Y).
    unreach(X) :- node(X), !reach(X).
  )");
  for (int i = 0; i < 4; ++i) {
    db.Insert("node", {Value::Int(i)});
  }
  db.Insert("start", {Value::Int(0)});
  db.Insert("e", {Value::Int(0), Value::Int(1)});
  db.Insert("e", {Value::Int(1), Value::Int(2)});
  db.Insert("e", {Value::Int(2), Value::Int(3)});
  db.Materialize();
  EXPECT_EQ(db.Query("unreach").size(), 0u);

  auto update = db.MakeUpdate();
  update.Delete("e", {Value::Int(1), Value::Int(2)});
  db.ApplyRequest(update.Request());
  EXPECT_EQ(db.Query("unreach").size(), 2u);  // 2 and 3
  EXPECT_TRUE(db.Contains("unreach", {Value::Int(3)}));
}

TEST(IncrementalTest, NoOpUpdateChangesNothing) {
  Database db(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
  )");
  db.Insert("e", {Value::Int(0), Value::Int(1)});
  db.Materialize();

  auto update = db.MakeUpdate();
  update.Insert("e", {Value::Int(0), Value::Int(1)});   // already present
  update.Delete("e", {Value::Int(7), Value::Int(8)});   // absent
  const UpdateResult result = db.ApplyRequest(update.Request());
  EXPECT_EQ(result.total_inserted, 0u);
  EXPECT_EQ(result.total_deleted, 0u);
  for (const auto& c : result.components) {
    EXPECT_FALSE(c.output_changed);
  }
}

TEST(IncrementalTest, RandomizedEquivalenceWithFromScratch) {
  // The definitive property: random base + random update batches, compared
  // against a fresh evaluation after every batch.
  const char* program_text = R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    hasout(X) :- e(X, _).
    deadend(X) :- n(X), !hasout(X).
    far(X, Z) :- tc(X, Y), tc(Y, Z), X != Z.
  )";
  util::Rng rng(31415);
  for (int trial = 0; trial < 4; ++trial) {
    const Program program = ParseProgram(program_text);
    ValidateProgram(program);
    const Stratification strat = Stratify(program);
    RelationStore store(program);
    const auto e = program.PredicateId("e");
    const auto n_pred = program.PredicateId("n");

    // Base: n(0..9), random edges.
    std::vector<std::pair<std::uint32_t, Tuple>> base;
    for (int i = 0; i < 10; ++i) {
      base.emplace_back(n_pred, Tuple{Value::Int(i)});
    }
    std::set<std::pair<int, int>> edges;
    for (int i = 0; i < 10; ++i) {
      for (int j = 0; j < 10; ++j) {
        if (i != j && rng.NextBool(0.15)) {
          edges.emplace(i, j);
        }
      }
    }
    for (const auto& [i, j] : edges) {
      base.emplace_back(e, Tuple{Value::Int(i), Value::Int(j)});
    }
    for (const auto& [pred, tuple] : base) {
      store.Of(pred).Insert(tuple);
    }
    EvaluateProgram(program, strat, store);

    for (int batch = 0; batch < 5; ++batch) {
      UpdateRequest request;
      // Random deletions of existing edges and insertions of fresh ones.
      for (auto it = edges.begin(); it != edges.end();) {
        if (rng.NextBool(0.2)) {
          request.deletions.emplace_back(
              e, Tuple{Value::Int(it->first), Value::Int(it->second)});
          it = edges.erase(it);
        } else {
          ++it;
        }
      }
      for (int tries = 0; tries < 6; ++tries) {
        const int i = static_cast<int>(rng.NextBelow(10));
        const int j = static_cast<int>(rng.NextBelow(10));
        if (i != j && edges.emplace(i, j).second) {
          request.insertions.emplace_back(e,
                                          Tuple{Value::Int(i), Value::Int(j)});
        }
      }
      (void)PropagateUpdate(program, strat, store,
                            GroupedBaseChanges(program, request));

      std::vector<std::pair<std::uint32_t, Tuple>> current_base;
      for (int i = 0; i < 10; ++i) {
        current_base.emplace_back(n_pred, Tuple{Value::Int(i)});
      }
      for (const auto& [i, j] : edges) {
        current_base.emplace_back(e, Tuple{Value::Int(i), Value::Int(j)});
      }
      ExpectEqualsFromScratch(program, strat, store, current_base);
    }
  }
}

TEST(ScheduleBridgeTest, TraceMirrorsUpdateCascade) {
  Database db(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    pairs(X, Z) :- tc(X, Y), tc(Y, Z).
    quiet(X) :- other(X).
  )");
  db.Insert("e", {Value::Int(0), Value::Int(1)});
  db.Insert("other", {Value::Int(9)});
  db.Materialize();

  auto update = db.MakeUpdate();
  update.Insert("e", {Value::Int(1), Value::Int(2)});
  UpdateRequest request;
  request.insertions.emplace_back(db.GetProgram().PredicateId("e"),
                                  Tuple{Value::Int(1), Value::Int(2)});
  // Apply through the engine path the bridge expects.
  const UpdateResult result = db.ApplyRequest(update.Request());

  const UpdateTrace bridge = BuildUpdateTrace(
      db.GetProgram(), db.GetStratification(), request, result, "t");
  const trace::JobTrace& trace = bridge.trace;
  // Nodes: one per predicate + one per rule component.
  EXPECT_EQ(trace.NumNodes(),
            db.GetProgram().NumPredicates() +
                3u /* tc, pairs, quiet components */);
  // Dirty: the 'e' collector (base predicate, no rules).
  ASSERT_EQ(trace.InitialDirty().size(), 1u);
  EXPECT_EQ(trace.InitialDirty()[0],
            bridge.predicate_node[db.GetProgram().PredicateId("e")]);

  // Cascade: e → tc-task → tc → pairs-task → pairs all activate; the
  // 'quiet' chain must stay inactive.
  const trace::Cascade cascade = trace::ComputeCascade(trace);
  const auto tc_pred = db.GetProgram().PredicateId("tc");
  const auto quiet_pred = db.GetProgram().PredicateId("quiet");
  EXPECT_TRUE(cascade.active[bridge.predicate_node[tc_pred]]);
  EXPECT_FALSE(cascade.active[bridge.predicate_node[quiet_pred]]);
  const auto quiet_comp =
      db.GetStratification().component_of[quiet_pred];
  EXPECT_FALSE(cascade.active[bridge.component_node[quiet_comp]]);

  // And the trace is schedulable end to end.
  auto scheduler = sched::CreateScheduler("hybrid");
  sim::SimConfig config;
  config.processors = 2;
  config.record_schedule = true;
  const sim::SimResult sim_result = Simulate(trace, *scheduler, config);
  EXPECT_TRUE(sim::AuditSchedule(trace, sim_result).valid);
  EXPECT_EQ(sim_result.tasks_executed, cascade.NumActive());
}

TEST(ScheduleBridgeTest, UnchangedComponentDoesNotPropagate) {
  // An update that touches e but yields no tc change (inserting an edge
  // that adds no new closure pair is impossible for tc, so use deletion of
  // an absent tuple... instead: update other, and verify only the quiet
  // chain activates).
  Database db(R"(
    tc(X, Y) :- e(X, Y).
    quiet(X) :- other(X).
  )");
  db.Insert("e", {Value::Int(0), Value::Int(1)});
  db.Insert("other", {Value::Int(1)});
  db.Materialize();

  auto update = db.MakeUpdate();
  update.Insert("other", {Value::Int(2)});
  UpdateRequest request;
  request.insertions.emplace_back(db.GetProgram().PredicateId("other"),
                                  Tuple{Value::Int(2)});
  const UpdateResult result = db.ApplyRequest(update.Request());
  const UpdateTrace bridge = BuildUpdateTrace(
      db.GetProgram(), db.GetStratification(), request, result, "t");
  const trace::Cascade cascade = trace::ComputeCascade(bridge.trace);
  const auto tc_pred = db.GetProgram().PredicateId("tc");
  EXPECT_FALSE(cascade.active[bridge.predicate_node[tc_pred]]);
  const auto quiet_pred = db.GetProgram().PredicateId("quiet");
  EXPECT_TRUE(cascade.active[bridge.predicate_node[quiet_pred]]);
}

}  // namespace
}  // namespace dsched::datalog
