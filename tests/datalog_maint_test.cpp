// Maintenance-strategy tests (datalog/maintenance.hpp): DRed and
// Backward/Forward must produce bit-identical stores on any update
// sequence — serial or parallel, any scheduler.  The concurrency cases
// run under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "datalog/database.hpp"
#include "datalog/maintenance.hpp"
#include "datalog/parallel_update.hpp"
#include "obs/metrics.hpp"
#include "runtime/task_router.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wide_program_fixture.hpp"

namespace dsched::datalog {
namespace {

using dsched::testing::ExpectStoresEqual;
using dsched::testing::RandomUpdate;
using dsched::testing::Sorted;
using dsched::testing::WideFixture;

TEST(MaintStrategyTest, ParseRoundTripsAndRejectsUnknown) {
  EXPECT_EQ(ParseMaintenanceStrategy("dred"), MaintenanceStrategy::kDRed);
  EXPECT_EQ(ParseMaintenanceStrategy("bf"),
            MaintenanceStrategy::kBackwardForward);
  for (const std::string& name : KnownMaintenanceStrategies()) {
    EXPECT_EQ(MaintenanceStrategyName(ParseMaintenanceStrategy(name)), name);
  }
  EXPECT_EQ(KnownMaintenanceStrategies(),
            (std::vector<std::string>{"dred", "bf"}));
  // "counting" is a removed strategy: rejected like any unknown name.
  for (const std::string bad : {"drde", "counting"}) {
    try {
      (void)ParseMaintenanceStrategy(bad);
      FAIL() << "expected ParseError for " << bad;
    } catch (const util::ParseError& e) {
      const std::string what = e.what();
      // The rejection names the input and lists exactly the valid values.
      EXPECT_NE(what.find("'" + bad + "'"), std::string::npos) << what;
      const std::size_t list = what.find("valid values:");
      ASSERT_NE(list, std::string::npos) << what;
      EXPECT_EQ(what.substr(list), "valid values: dred bf");
    }
  }
}

// ---------------------------------------------------------------------------
// Equivalence: B/F lands on the same store as DRed, batch after batch, on
// the wide program (recursion, negation, fan-out — B/F runs everywhere but
// aggregates, which fall back to DRed).

TEST(MaintEquivalenceTest, SerialRandomizedInterleavedInsertDelete) {
  for (const std::uint64_t seed : {11u, 29u, 47u}) {
    WideFixture dred;
    WideFixture bf;
    {
      util::Rng rng(seed);
      dred.Base(rng, 14, 0.12);
    }
    {
      util::Rng rng(seed);
      bf.Base(rng, 14, 0.12);
    }
    util::Rng update_rng(seed * 977 + 1);
    for (int batch = 0; batch < 24; ++batch) {
      const UpdateRequest request =
          RandomUpdate(dred.program, update_rng, 14);
      const GroupedBaseChanges base(dred.program, request);
      (void)PropagateUpdate(dred.program, dred.strat, dred.store, base,
                            MaintenanceStrategy::kDRed);
      (void)PropagateUpdate(bf.program, bf.strat, bf.store, base,
                            MaintenanceStrategy::kBackwardForward);
      ExpectStoresEqual(dred.program, dred.store, bf.store, "bf vs dred");
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at seed " << seed << " batch " << batch;
      }
    }
  }
}

TEST(MaintEquivalenceTest, ParallelAcrossSchedulers) {
  const std::uint64_t seed = 321;
  // Serial DRed is the reference.
  WideFixture reference;
  {
    util::Rng rng(seed);
    reference.Base(rng, 12, 0.15);
  }
  std::vector<UpdateRequest> batches;
  {
    util::Rng rng(seed + 7);
    for (int i = 0; i < 10; ++i) {
      batches.push_back(RandomUpdate(reference.program, rng, 12));
    }
  }
  for (const UpdateRequest& request : batches) {
    const GroupedBaseChanges base(reference.program, request);
    (void)PropagateUpdate(reference.program, reference.strat, reference.store,
                          base, MaintenanceStrategy::kDRed);
  }

  runtime::TaskRouter router({.workers = 4});
  for (const MaintenanceStrategy strategy :
       {MaintenanceStrategy::kDRed, MaintenanceStrategy::kBackwardForward}) {
    for (const char* scheduler : {"hybrid", "levelbased"}) {
      WideFixture fixture;
      {
        util::Rng rng(seed);
        fixture.Base(rng, 12, 0.15);
      }
      for (const UpdateRequest& request : batches) {
        (void)ApplyParallel(fixture.program, fixture.strat, nullptr,
                            fixture.store, request,
                            {.scheduler_spec = scheduler,
                             .router = &router,
                             .strategy = strategy});
      }
      ExpectStoresEqual(
          reference.program, reference.store, fixture.store,
          (std::string(MaintenanceStrategyName(strategy)) + "/" + scheduler)
              .c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Strategy-specific behaviour.

constexpr const char* kRedundantProgram = R"(
  mid(X) :- base1(X).
  mid(X) :- base2(X).
  out(X) :- mid(X).
)";

TEST(MaintBackwardForwardTest, RedundantSupportDeletionAvoidsOverdeletion) {
  Database dred(kRedundantProgram);
  Database bf(kRedundantProgram);
  bf.SetDefaultStrategy(MaintenanceStrategy::kBackwardForward);
  for (Database* db : {&dred, &bf}) {
    for (std::int64_t i = 0; i < 32; ++i) {
      db->Insert("base1", {Value::Int(i)});
      db->Insert("base2", {Value::Int(i)});
    }
    db->Materialize();
  }
  // Deleting base1 leaves every mid/out tuple supported by base2: DRed
  // overdeletes and rederives mid; B/F proves each suspect alive.
  auto make_update = [](Database& db) {
    Database::Update update = db.MakeUpdate();
    for (std::int64_t i = 0; i < 32; ++i) {
      update.Delete("base1", {Value::Int(i)});
    }
    return update;
  };
  const UpdateResult dred_result =
      dred.ApplyRequest(make_update(dred).Request());
  const UpdateResult bf_result = bf.ApplyRequest(make_update(bf).Request());

  EXPECT_EQ(Sorted(dred.Query("mid")), Sorted(bf.Query("mid")));
  EXPECT_EQ(Sorted(dred.Query("out")), Sorted(bf.Query("out")));
  EXPECT_EQ(bf.Query("mid").size(), 32u);

  std::size_t avoided = 0;
  std::size_t probes = 0;
  for (const ComponentUpdateStats& c : bf_result.components) {
    avoided += c.maint_avoided;
    probes += c.maint_backward_probes;
  }
  EXPECT_EQ(avoided, 32u);  // every mid tuple kept its other support
  EXPECT_GT(probes, 0u);
  // DRed erased and rederived mid; B/F only probed it.
  EXPECT_GT(dred_result.total_maint_ops, 2 * bf_result.total_maint_ops);
}

constexpr const char* kCycleProgram = R"(
  tc(X, Y) :- e(X, Y).
  tc(X, Z) :- tc(X, Y), e(Y, Z).
)";

TEST(MaintBackwardForwardTest, CyclicDerivationsResolvedByProbes) {
  // A cycle plus a chord: deleting the chord must not kill tuples whose
  // remaining derivations are cyclic-but-grounded, and B/F must prove the
  // genuinely dead ones dead through the in-stack protocol.
  Database dred(kCycleProgram);
  Database bf(kCycleProgram);
  bf.SetDefaultStrategy(MaintenanceStrategy::kBackwardForward);
  for (Database* db : {&dred, &bf}) {
    for (const auto& [a, b] : std::vector<std::pair<int, int>>{
             {0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {1, 4}}) {
      db->Insert("e", {Value::Int(a), Value::Int(b)});
    }
    db->Materialize();
  }
  auto make_update = [](Database& db) {
    Database::Update update = db.MakeUpdate();
    update.Delete("e", {Value::Int(2), Value::Int(0)});  // break the cycle
    update.Delete("e", {Value::Int(0), Value::Int(3)});
    return update;
  };
  const UpdateResult dred_result =
      dred.ApplyRequest(make_update(dred).Request());
  const UpdateResult bf_result = bf.ApplyRequest(make_update(bf).Request());
  EXPECT_EQ(Sorted(dred.Query("tc")), Sorted(bf.Query("tc")));
  EXPECT_EQ(dred_result.total_deleted, bf_result.total_deleted);
  std::size_t probes = 0;
  for (const ComponentUpdateStats& c : bf_result.components) {
    probes += c.maint_backward_probes;
  }
  EXPECT_GT(probes, 0u);
}

// ---------------------------------------------------------------------------
// Complexity regression, counters only (no timing): a one-tuple delete must
// cost work proportional to the fan-out of what it touches, not to the size
// of the relations involved.  Derivability checks (DRed's rederive, B/F's
// backward probes) plan with the head bound, so they key on the head or
// test membership instead of scanning a relation.

std::uint64_t BindingsExplored(const UpdateResult& result) {
  std::uint64_t total = 0;
  for (const ComponentUpdateStats& c : result.components) {
    total += c.eval.bindings_explored;
  }
  return total;
}

std::uint64_t IndexExtendRows(const Database& db) {
  obs::MetricsRegistry registry;
  db.Store().ExportMetrics(registry, "store.");
  return registry.Value("store.index_extend_rows");
}

TEST(MaintComplexityTest, OneTupleDeleteFromWideBaseScansNothing) {
  constexpr std::int64_t kBase = 10000;
  for (const MaintenanceStrategy strategy :
       {MaintenanceStrategy::kDRed, MaintenanceStrategy::kBackwardForward}) {
    SCOPED_TRACE(MaintenanceStrategyName(strategy));
    Database db("a(X) :- base(X).");
    db.SetDefaultStrategy(strategy);
    for (std::int64_t i = 0; i < kBase; ++i) {
      db.Insert("base", {Value::Int(i)});
    }
    db.Materialize();
    const std::uint64_t extend_before = IndexExtendRows(db);
    Database::Update update = db.MakeUpdate();
    update.Delete("base", {Value::Int(4242)});
    const UpdateResult result = db.ApplyRequest(update.Request());
    EXPECT_FALSE(db.Contains("a", {Value::Int(4242)}));
    EXPECT_EQ(db.Query("a").size(), static_cast<std::size_t>(kBase - 1));
    // The only binding is the deleted row itself (overdelete / suspect
    // seeding); the check on a(4242) is one membership probe of base.
    EXPECT_LE(BindingsExplored(result), 2u);
    // ... which needs no index over base, so the erase rebuilds none.
    EXPECT_LT(IndexExtendRows(db) - extend_before, 16u);
  }
}

TEST(MaintComplexityTest, OneEdgeDeleteInClosureCostsOneCluster) {
  // tc over disjoint clusters of kNodes nodes, each a ring plus a chord
  // (every in- and out-degree is 2), so one cluster's closure has
  // kNodes² tuples.  Deleting one edge keeps every cluster strongly
  // connected: the touched cluster's tuples are overdeleted and rederived
  // (DRed) or suspected and proven alive (B/F).  That work is bounded by
  // the cluster, and must not grow with the number of clusters.
  constexpr std::int64_t kNodes = 8;
  constexpr std::uint64_t kDegree = 2;
  for (const MaintenanceStrategy strategy :
       {MaintenanceStrategy::kDRed, MaintenanceStrategy::kBackwardForward}) {
    SCOPED_TRACE(MaintenanceStrategyName(strategy));
    std::vector<std::uint64_t> bindings;
    for (const std::int64_t clusters : {16, 64}) {
      Database db(kCycleProgram);
      db.SetDefaultStrategy(strategy);
      for (std::int64_t c = 0; c < clusters; ++c) {
        for (std::int64_t i = 0; i < kNodes; ++i) {
          const std::int64_t from = c * kNodes + i;
          for (const std::int64_t step : {1, 3}) {
            db.Insert("e", {Value::Int(from),
                            Value::Int(c * kNodes + (i + step) % kNodes)});
          }
        }
      }
      db.Materialize();
      Database::Update update = db.MakeUpdate();
      update.Delete("e", {Value::Int(0), Value::Int(1)});
      const UpdateResult result = db.ApplyRequest(update.Request());
      EXPECT_EQ(db.Query("tc").size(),
                static_cast<std::size_t>(clusters * kNodes * kNodes));
      bindings.push_back(BindingsExplored(result));
      // A small constant number of fan-out probes per tuple of the
      // touched cluster.
      EXPECT_LE(bindings.back(), 8 * kNodes * kNodes * kDegree)
          << clusters << " clusters";
    }
    EXPECT_LE(bindings[1], bindings[0] + bindings[0] / 4)
        << "work grew with untouched clusters: " << bindings[0] << " -> "
        << bindings[1];
  }
}

// ---------------------------------------------------------------------------
// Rule-set evolution vs rebuild: a random interleaving of rule additions,
// rule removals, and base updates must leave every strategy's store equal
// to a from-scratch Database over the final rule set + base facts — the
// evolution acceptance bar, swept per strategy.

TEST(MaintEvolveTest, RandomizedEvolveMatchesRebuildAcrossStrategies) {
  const char* kBaseProgram = R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    side(X) :- tag(X).
  )";
  const std::vector<std::string> kPool = {
      "side2(X) :- side(X).",
      "out(X) :- tc(X, _), tag(X).",
      "sym(Y, X) :- tc(X, Y).",
      "hub(X) :- e(X, X).",
      "side(X) :- hub(X).",
  };
  constexpr int kNodes = 10;

  for (const MaintenanceStrategy strategy :
       {MaintenanceStrategy::kDRed, MaintenanceStrategy::kBackwardForward}) {
    for (const std::uint64_t seed : {5u, 19u, 83u}) {
      util::Rng rng(seed * 131 + static_cast<std::uint64_t>(strategy));
      Database db(kBaseProgram);
      db.SetDefaultStrategy(strategy);

      // Base facts tracked alongside the database so the rebuild reference
      // can be constructed at any point.
      std::vector<std::vector<bool>> e_fact(
          kNodes, std::vector<bool>(kNodes, false));
      std::vector<bool> tag_fact(kNodes, false);
      for (std::size_t a = 0; a < kNodes; ++a) {
        for (std::size_t b = 0; b < kNodes; ++b) {
          if (rng.NextBool(0.2)) {
            e_fact[a][b] = true;
            db.Insert("e", {Value::Int(static_cast<std::int64_t>(a)),
                            Value::Int(static_cast<std::int64_t>(b))});
          }
        }
        if (rng.NextBool(0.3)) {
          tag_fact[a] = true;
          db.Insert("tag", {Value::Int(static_cast<std::int64_t>(a))});
        }
      }
      db.Materialize();

      std::vector<std::string> active;  // pool rules currently in force
      std::uint64_t last_version = db.ProgramVersion();

      const auto rebuild_and_compare = [&](int step) {
        std::string text = kBaseProgram;
        for (const std::string& rule : active) {
          text += "\n" + rule;
        }
        Database fresh(text);
        for (std::size_t a = 0; a < kNodes; ++a) {
          for (std::size_t b = 0; b < kNodes; ++b) {
            if (e_fact[a][b]) {
              fresh.Insert("e", {Value::Int(static_cast<std::int64_t>(a)),
                                 Value::Int(static_cast<std::int64_t>(b))});
            }
          }
          if (tag_fact[a]) {
            fresh.Insert("tag", {Value::Int(static_cast<std::int64_t>(a))});
          }
        }
        fresh.Materialize();
        // Compare every predicate the EVOLVED database ever knew; ones the
        // rebuild never heard of (rule removed again) must be empty.
        const auto snap = db.Snapshot();
        for (const std::string& name : snap->program.predicate_names) {
          std::vector<Tuple> fresh_rows;
          try {
            fresh_rows = fresh.Query(name);
          } catch (const util::InvalidArgument&) {
          }
          EXPECT_EQ(Sorted(db.Query(name)), Sorted(fresh_rows))
              << MaintenanceStrategyName(strategy) << " seed " << seed
              << " step " << step << " predicate " << name;
        }
      };

      for (int step = 0; step < 16; ++step) {
        const std::uint64_t action = rng.NextBelow(4);
        if (action == 0 && active.size() < kPool.size()) {
          // Add the next pool rule not yet active (order preserves the
          // hub-before-side dependency being introduced both ways).
          std::vector<std::string> unused;
          for (const std::string& rule : kPool) {
            if (std::find(active.begin(), active.end(), rule) ==
                active.end()) {
              unused.push_back(rule);
            }
          }
          const std::string& rule =
              unused[rng.NextBelow(unused.size())];
          const Database::EvolveResult result = db.EvolveAddRules(rule);
          EXPECT_GT(result.program_version, last_version);
          last_version = result.program_version;
          active.push_back(rule);
          rebuild_and_compare(step);
        } else if (action == 1 && !active.empty()) {
          const std::size_t victim = rng.NextBelow(active.size());
          const Database::EvolveResult result =
              db.EvolveRemoveRule(active[victim]);
          EXPECT_GT(result.program_version, last_version);
          last_version = result.program_version;
          active.erase(active.begin() +
                       static_cast<std::ptrdiff_t>(victim));
          rebuild_and_compare(step);
        } else {
          // A base update through the strategy under test.
          Database::Update update = db.MakeUpdate();
          // Distinct cells per batch: one tuple in both the insert and the
          // delete list of a single request is outside the contract.
          std::vector<std::size_t> flipped;
          for (int flips = 0; flips < 4; ++flips) {
            const std::size_t a = rng.NextBelow(kNodes);
            const std::size_t b = rng.NextBelow(kNodes);
            if (std::find(flipped.begin(), flipped.end(), a * kNodes + b) !=
                flipped.end()) {
              continue;
            }
            flipped.push_back(a * kNodes + b);
            const Tuple row{Value::Int(static_cast<std::int64_t>(a)),
                            Value::Int(static_cast<std::int64_t>(b))};
            if (e_fact[a][b]) {
              update.Delete("e", row);
            } else {
              update.Insert("e", row);
            }
            e_fact[a][b] = !e_fact[a][b];
          }
          const std::size_t t = rng.NextBelow(kNodes);
          const Tuple trow{Value::Int(static_cast<std::int64_t>(t))};
          if (tag_fact[t]) {
            update.Delete("tag", trow);
          } else {
            update.Insert("tag", trow);
          }
          tag_fact[t] = !tag_fact[t];
          (void)db.ApplyRequest(update.Request());
        }
        if (::testing::Test::HasFailure()) {
          FAIL() << "diverged: strategy "
                 << MaintenanceStrategyName(strategy) << " seed " << seed
                 << " step " << step;
        }
      }
      rebuild_and_compare(99);
    }
  }
}

}  // namespace
}  // namespace dsched::datalog
