// Tests for the parallel incremental-maintenance engine: the per-component
// DRed phases run as real task bodies on worker threads, ordered by the
// library's schedulers — the final store must be bit-identical to the
// sequential engine and to a from-scratch evaluation, for every scheduler
// and worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "datalog/database.hpp"
#include "datalog/eval.hpp"
#include "datalog/parallel_update.hpp"
#include "datalog/parser.hpp"
#include "datalog/stratify.hpp"
#include "datalog/validate.hpp"
#include "runtime/task_router.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wide_program_fixture.hpp"

namespace dsched::datalog {
namespace {

// The program, fixture, and update generator live in the shared header —
// the stress and service tests drive the same shapes.
using dsched::testing::ExpectStoresEqual;
using dsched::testing::RandomUpdate;
using dsched::testing::Sorted;
using Fixture = dsched::testing::WideFixture;
using runtime::TaskRouter;

TEST(ParallelUpdateTest, MatchesSequentialAcrossSchedulers) {
  TaskRouter router({.workers = 3});
  for (const char* spec : {"hybrid", "levelbased", "lbl:4", "logicblox",
                           "signal"}) {
    util::Rng rng(777);
    Fixture sequential;
    sequential.Base(rng, 10, 0.15);
    util::Rng rng2(777);
    Fixture parallel;
    parallel.Base(rng2, 10, 0.15);

    util::Rng update_rng(4242);
    for (int batch = 0; batch < 4; ++batch) {
      const UpdateRequest request =
          RandomUpdate(sequential.program, update_rng, 10);
      const UpdateResult seq_result =
          PropagateUpdate(sequential.program, sequential.strat,
                          sequential.store,
                          GroupedBaseChanges(sequential.program, request));
      ParallelUpdateOptions options;
      options.scheduler_spec = spec;
      options.router = &router;
      const ParallelUpdateResult par_result =
          ApplyParallel(parallel.program, parallel.strat, nullptr,
                        parallel.store, request, options);
      ExpectStoresEqual(sequential.program, sequential.store, parallel.store,
                        spec);
      EXPECT_EQ(par_result.update.total_inserted, seq_result.total_inserted)
          << spec << " batch " << batch;
      EXPECT_EQ(par_result.update.total_deleted, seq_result.total_deleted)
          << spec << " batch " << batch;
    }
  }
}

TEST(ParallelUpdateTest, MatchesFromScratchAcrossWorkerCounts) {
  for (const std::size_t workers : {1u, 2u, 8u}) {
    TaskRouter router({.workers = workers});
    util::Rng rng(991);
    Fixture parallel;
    parallel.Base(rng, 9, 0.18);

    std::set<std::pair<int, int>> edges;
    const auto e = parallel.program.PredicateId("e");
    for (const Tuple& t : parallel.store.Of(e).Tuples()) {
      edges.emplace(static_cast<int>(t[0].AsInt()),
                    static_cast<int>(t[1].AsInt()));
    }
    std::set<int> marks;
    const auto mark = parallel.program.PredicateId("mark");
    for (const Tuple& t : parallel.store.Of(mark).Tuples()) {
      marks.insert(static_cast<int>(t[0].AsInt()));
    }

    util::Rng update_rng(17);
    for (int batch = 0; batch < 3; ++batch) {
      const UpdateRequest request =
          RandomUpdate(parallel.program, update_rng, 9);
      (void)ApplyParallel(parallel.program, parallel.strat, nullptr,
                          parallel.store, request, {.router = &router});
      // Track the reference base.
      for (const auto& [pred, tuple] : request.insertions) {
        if (pred == e) {
          edges.emplace(static_cast<int>(tuple[0].AsInt()),
                        static_cast<int>(tuple[1].AsInt()));
        } else if (pred == mark) {
          marks.insert(static_cast<int>(tuple[0].AsInt()));
        }
      }
      for (const auto& [pred, tuple] : request.deletions) {
        if (pred == e) {
          edges.erase({static_cast<int>(tuple[0].AsInt()),
                       static_cast<int>(tuple[1].AsInt())});
        } else if (pred == mark) {
          marks.erase(static_cast<int>(tuple[0].AsInt()));
        }
      }
      // From-scratch reference.
      RelationStore fresh(parallel.program);
      for (int i = 0; i < 9; ++i) {
        fresh.Of(parallel.program.PredicateId("n")).Insert({Value::Int(i)});
      }
      for (const auto& [i, j] : edges) {
        fresh.Of(e).Insert({Value::Int(i), Value::Int(j)});
      }
      for (const int m : marks) {
        fresh.Of(mark).Insert({Value::Int(m)});
      }
      EvaluateProgram(parallel.program, parallel.strat, fresh);
      ExpectStoresEqual(parallel.program, parallel.store, fresh,
                        "vs-from-scratch");
    }
  }
}

TEST(ParallelUpdateTest, ExecutesOnlyTouchedComponents) {
  Fixture fixture;
  util::Rng rng(55);
  fixture.Base(rng, 8, 0.2);
  // Touch only `mark`: the tc/revtc chains must stay untouched.
  UpdateRequest request;
  request.insertions.emplace_back(fixture.program.PredicateId("mark"),
                                  Tuple{Value::Int(7)});
  TaskRouter router({.workers = 4});
  const ParallelUpdateResult result =
      ApplyParallel(fixture.program, fixture.strat, nullptr, fixture.store,
                    request, {.router = &router});
  const auto tc_comp =
      fixture.strat.component_of[fixture.program.PredicateId("tc")];
  for (const ComponentUpdateStats& c : result.update.components) {
    if (c.component == tc_comp) {
      EXPECT_FALSE(c.input_changed);
    }
  }
  // Far fewer executor tasks than nodes in the DAG.
  EXPECT_LT(result.run.executed, result.trace.NumNodes());
  EXPECT_GT(result.run.executed, 0u);
}

TEST(ParallelUpdateTest, ReportsExecutorStats) {
  Fixture fixture;
  util::Rng rng(66);
  fixture.Base(rng, 8, 0.2);
  UpdateRequest request;
  request.insertions.emplace_back(fixture.program.PredicateId("e"),
                                  Tuple{Value::Int(0), Value::Int(7)});
  TaskRouter router({.workers = 4});
  const ParallelUpdateResult result =
      ApplyParallel(fixture.program, fixture.strat, nullptr, fixture.store,
                    request, {.router = &router});
  EXPECT_GT(result.run.executed, 0u);
  EXPECT_GT(result.run.wall_seconds, 0.0);
  EXPECT_EQ(result.update.components.size(), fixture.strat.NumComponents());
}

TEST(ParallelUpdateTest, OracleSpecRejected) {
  Fixture fixture;
  util::Rng rng(77);
  fixture.Base(rng, 5, 0.2);
  UpdateRequest request;
  request.insertions.emplace_back(fixture.program.PredicateId("mark"),
                                  Tuple{Value::Int(1)});
  TaskRouter router({.workers = 1});
  EXPECT_THROW((void)ApplyParallel(fixture.program, fixture.strat, nullptr,
                                   fixture.store, request,
                                   {.scheduler_spec = "oracle",
                                    .router = &router}),
               util::LogicError);
  // The router is required: there is no private-pool fallback.
  EXPECT_THROW((void)ApplyParallel(fixture.program, fixture.strat, nullptr,
                                   fixture.store, request, {}),
               util::LogicError);
}

TEST(ParallelUpdateTest, WrongArityRequestThrowsBeforeAnyTaskRuns) {
  Fixture fixture;
  util::Rng rng(88);
  fixture.Base(rng, 5, 0.2);
  const std::vector<Tuple> before =
      Sorted(fixture.store.Of(fixture.program.PredicateId("e")).Tuples());
  TaskRouter router({.workers = 2});
  // A wrong-arity tuple, then an out-of-range predicate id: both are bad
  // input, not a library bug.
  const std::pair<std::uint32_t, Tuple> malformed[] = {
      {fixture.program.PredicateId("e"), Tuple{Value::Int(1)}},
      {static_cast<std::uint32_t>(fixture.program.NumPredicates()),
       Tuple{Value::Int(1), Value::Int(2)}}};
  for (const auto& [pred, tuple] : malformed) {
    for (const bool insert : {true, false}) {
      UpdateRequest request;
      auto& side = insert ? request.insertions : request.deletions;
      side.emplace_back(pred, tuple);
      EXPECT_THROW((void)ApplyParallel(fixture.program, fixture.strat, nullptr,
                                       fixture.store, request,
                                       {.router = &router}),
                   util::InvalidArgument)
          << (insert ? "insert" : "delete") << " on predicate " << pred;
    }
  }
  EXPECT_EQ(Sorted(fixture.store.Of(fixture.program.PredicateId("e")).Tuples()),
            before);
  EXPECT_EQ(router.OpenChannels(), 0u);
}

TEST(ParallelUpdateTest, DatabaseFacade) {
  Database db(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
  )");
  for (int i = 0; i + 1 < 8; ++i) {
    db.Insert("e", {Value::Int(i), Value::Int(i + 1)});
  }
  db.Materialize();
  auto update = db.MakeUpdate();
  update.Insert("e", {Value::Int(7), Value::Int(0)});  // close the cycle? no —
  // e(7,0) creates tc pairs but the DAG of *components* stays acyclic.
  TaskRouter router({.workers = 2});
  const ParallelUpdateResult result =
      db.ApplyRequestParallel(update.Request(), {.router = &router});
  EXPECT_GT(result.update.total_inserted, 0u);
  EXPECT_GT(result.run.executed, 0u);
  EXPECT_TRUE(db.Contains("tc", {Value::Int(0), Value::Int(0)}));
}

}  // namespace
}  // namespace dsched::datalog
