// Evaluation tests: golden programs, semi-naive ≡ naive, builtins,
// negation, the derivability checks (IsDerivable / ForEachDerivation),
// and the Database facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "datalog/database.hpp"
#include "datalog/eval.hpp"
#include "datalog/parser.hpp"
#include "datalog/stratify.hpp"
#include "datalog/validate.hpp"
#include "util/rng.hpp"

namespace dsched::datalog {
namespace {

/// Sorted copy for set comparison.
std::vector<Tuple> Sorted(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// All tuples of every predicate, as one comparable snapshot.
std::vector<std::vector<Tuple>> Snapshot(const Program& p,
                                         const RelationStore& store) {
  std::vector<std::vector<Tuple>> out;
  for (std::uint32_t pred = 0; pred < p.NumPredicates(); ++pred) {
    out.push_back(Sorted(store.Of(pred).Tuples()));
  }
  return out;
}

TEST(EvalTest, TransitiveClosureOnChain) {
  Database db(R"(
    tc(X, Y) :- edge(X, Y).
    tc(X, Z) :- tc(X, Y), edge(Y, Z).
  )");
  const int n = 10;
  for (int i = 0; i + 1 < n; ++i) {
    db.Insert("edge", {Value::Int(i), Value::Int(i + 1)});
  }
  db.Materialize();
  EXPECT_EQ(db.Query("tc").size(), static_cast<std::size_t>(n * (n - 1) / 2));
  EXPECT_TRUE(db.Contains("tc", {Value::Int(0), Value::Int(9)}));
  EXPECT_FALSE(db.Contains("tc", {Value::Int(5), Value::Int(2)}));
}

TEST(EvalTest, FactsInProgramText) {
  Database db(R"(
    edge(a, b).
    edge(b, c).
    tc(X, Y) :- edge(X, Y).
    tc(X, Z) :- tc(X, Y), edge(Y, Z).
  )");
  db.Materialize();
  EXPECT_EQ(db.Query("tc").size(), 3u);
  EXPECT_TRUE(db.Contains("tc", {db.Sym("a"), db.Sym("c")}));
}

TEST(EvalTest, SameGeneration) {
  // Classic same-generation: sg(X, Y) if X and Y are equally deep cousins.
  Database db(R"(
    sg(X, Y) :- person(X), person(Y), X = Y.
    sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP).
  )");
  // Tree: r -> a, b;  a -> c;  b -> d.
  for (const char* who : {"r", "a", "b", "c", "d"}) {
    db.Insert("person", {db.Sym(who)});
  }
  db.Insert("parent", {db.Sym("a"), db.Sym("r")});
  db.Insert("parent", {db.Sym("b"), db.Sym("r")});
  db.Insert("parent", {db.Sym("c"), db.Sym("a")});
  db.Insert("parent", {db.Sym("d"), db.Sym("b")});
  db.Materialize();
  EXPECT_TRUE(db.Contains("sg", {db.Sym("a"), db.Sym("b")}));
  EXPECT_TRUE(db.Contains("sg", {db.Sym("c"), db.Sym("d")}));
  EXPECT_FALSE(db.Contains("sg", {db.Sym("a"), db.Sym("d")}));
}

TEST(EvalTest, NegationUnreachable) {
  Database db(R"(
    reach(X) :- start(X).
    reach(Y) :- reach(X), edge(X, Y).
    unreach(X) :- node(X), !reach(X).
  )");
  for (int i = 0; i < 6; ++i) {
    db.Insert("node", {Value::Int(i)});
  }
  db.Insert("start", {Value::Int(0)});
  db.Insert("edge", {Value::Int(0), Value::Int(1)});
  db.Insert("edge", {Value::Int(1), Value::Int(2)});
  db.Insert("edge", {Value::Int(4), Value::Int(5)});
  db.Materialize();
  EXPECT_EQ(db.Query("reach").size(), 3u);  // 0, 1, 2
  EXPECT_EQ(db.Query("unreach").size(), 3u);  // 3, 4, 5
  EXPECT_TRUE(db.Contains("unreach", {Value::Int(4)}));
}

TEST(EvalTest, ComparisonBuiltins) {
  Database db(R"(
    big(X) :- amount(X, V), V >= 100.
    tiny(X) :- amount(X, V), V < 10, V != 5.
  )");
  db.Insert("amount", {db.Sym("a"), Value::Int(250)});
  db.Insert("amount", {db.Sym("b"), Value::Int(50)});
  db.Insert("amount", {db.Sym("c"), Value::Int(5)});
  db.Insert("amount", {db.Sym("d"), Value::Int(3)});
  db.Materialize();
  EXPECT_EQ(db.Query("big").size(), 1u);
  EXPECT_EQ(db.Query("tiny").size(), 1u);
  EXPECT_TRUE(db.Contains("tiny", {db.Sym("d")}));
}

TEST(EvalTest, RepeatedVariablesInLiteral) {
  Database db("loop(X) :- edge(X, X).");
  db.Insert("edge", {Value::Int(1), Value::Int(2)});
  db.Insert("edge", {Value::Int(3), Value::Int(3)});
  db.Materialize();
  EXPECT_EQ(db.Query("loop").size(), 1u);
  EXPECT_TRUE(db.Contains("loop", {Value::Int(3)}));
}

TEST(EvalTest, MutualRecursionEvenOdd) {
  Database db(R"(
    even(X) :- zero(X).
    even(Y) :- odd(X), succ(X, Y).
    odd(Y) :- even(X), succ(X, Y).
  )");
  db.Insert("zero", {Value::Int(0)});
  for (int i = 0; i < 10; ++i) {
    db.Insert("succ", {Value::Int(i), Value::Int(i + 1)});
  }
  db.Materialize();
  EXPECT_EQ(db.Query("even").size(), 6u);  // 0, 2, 4, 6, 8, 10
  EXPECT_EQ(db.Query("odd").size(), 5u);
  EXPECT_TRUE(db.Contains("even", {Value::Int(10)}));
  EXPECT_TRUE(db.Contains("odd", {Value::Int(7)}));
}

TEST(EvalTest, SemiNaiveMatchesNaiveOnRandomPrograms) {
  // Random edge relations through a fixed rule mix, checked at several
  // densities: the two evaluators must produce identical stores.
  util::Rng rng(2718);
  const char* program_text = R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    sym(X, Y) :- e(X, Y).
    sym(Y, X) :- sym(X, Y).
    deadend(X) :- n(X), !hasout(X).
    hasout(X) :- e(X, _).
    self(X) :- tc(X, X).
  )";
  for (int trial = 0; trial < 5; ++trial) {
    const Program program = ParseProgram(program_text);
    ValidateProgram(program);
    const Stratification strat = Stratify(program);
    RelationStore semi(program);
    RelationStore naive(program);
    const int n = 12;
    for (int i = 0; i < n; ++i) {
      semi.Of(program.PredicateId("n")).Insert({Value::Int(i)});
      naive.Of(program.PredicateId("n")).Insert({Value::Int(i)});
    }
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i != j && rng.NextBool(0.12)) {
          semi.Of(program.PredicateId("e"))
              .Insert({Value::Int(i), Value::Int(j)});
          naive.Of(program.PredicateId("e"))
              .Insert({Value::Int(i), Value::Int(j)});
        }
      }
    }
    EvaluateProgram(program, strat, semi);
    EvaluateProgramNaive(program, strat, naive);
    EXPECT_EQ(Snapshot(program, semi), Snapshot(program, naive))
        << "trial " << trial;
  }
}

TEST(EvalTest, StatsArePopulated) {
  const Program program = ParseProgram(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
  )");
  const Stratification strat = Stratify(program);
  RelationStore store(program);
  for (int i = 0; i < 20; ++i) {
    store.Of(program.PredicateId("e")).Insert({Value::Int(i), Value::Int(i + 1)});
  }
  const EvalStats stats = EvaluateProgram(program, strat, store);
  EXPECT_GT(stats.rule_applications, 0u);
  EXPECT_GT(stats.tuples_inserted, 0u);
  EXPECT_GT(stats.rounds, 5u);  // chain depth forces many rounds
  EXPECT_EQ(stats.tuples_inserted, store.Of(program.PredicateId("tc")).Size());
}

// --- Derivability checks: IsDerivable / ForEachDerivation ------------------

/// Ground positive bodies of one derivation, as ForEachDerivation reports.
using GroundBody = std::vector<std::pair<std::uint32_t, Tuple>>;

Tuple Ints(std::initializer_list<std::int64_t> values) {
  Tuple t;
  for (const std::int64_t v : values) {
    t.push_back(Value::Int(v));
  }
  return t;
}

/// Every derivation of `head` by `rule`, enumerated to the end.
std::vector<GroundBody> AllDerivations(const Program& program,
                                       const RelationStore& store,
                                       const Rule& rule, const Tuple& head,
                                       EvalStats& stats) {
  std::vector<GroundBody> out;
  const bool stopped = ForEachDerivation(
      program, store, rule, head, stats, [&out](const GroundBody& body) {
        out.push_back(body);
        return false;
      });
  EXPECT_FALSE(stopped);
  std::sort(out.begin(), out.end());
  return out;
}

/// Brute force on unrestricted ApplyRule: a copy of `rule` whose head lists
/// every rule variable enumerates each complete body binding once; each is
/// mapped back to the original head and its ground positive body.
std::map<Tuple, std::vector<GroundBody>> BruteForceDerivations(
    const Program& program, const RelationStore& store, const Rule& rule) {
  Rule all = rule;
  all.head.args.clear();
  for (std::uint32_t v = 0; v < rule.variable_names.size(); ++v) {
    all.head.args.push_back(Term::Var(v));
  }
  const auto ground = [](const Atom& atom, const Tuple& binding) {
    Tuple t;
    for (const Term& term : atom.args) {
      t.push_back(term.IsVar() ? binding[term.var] : term.constant);
    }
    return t;
  };
  std::map<Tuple, std::vector<GroundBody>> out;
  EvalStats stats;
  ApplyRule(program, store, all, DeltaRestriction{}, stats,
            [&](const Tuple& binding) {
              GroundBody body;
              for (const BodyElement& element : rule.body) {
                const auto* literal = std::get_if<Literal>(&element);
                if (literal != nullptr && !literal->negated) {
                  body.emplace_back(literal->atom.predicate,
                                    ground(literal->atom, binding));
                }
              }
              out[ground(rule.head, binding)].push_back(std::move(body));
            });
  for (auto& [head, bodies] : out) {
    std::sort(bodies.begin(), bodies.end());
  }
  return out;
}

TEST(DerivabilityTest, HeadConstantsBindAndClash) {
  const Program program = ParseProgram("p(1, Y) :- q(Y, Z), r(Z).");
  RelationStore store(program);
  store.Of(program.PredicateId("q")).Insert(Ints({5, 6}));
  store.Of(program.PredicateId("q")).Insert(Ints({7, 8}));
  store.Of(program.PredicateId("r")).Insert(Ints({6}));
  const Rule& rule = program.rules[0];
  EvalStats stats;
  EXPECT_TRUE(IsDerivable(program, store, rule, Ints({1, 5}), stats));
  EXPECT_FALSE(IsDerivable(program, store, rule, Ints({1, 7}), stats));
  EXPECT_FALSE(IsDerivable(program, store, rule, Ints({1, 9}), stats));

  // A clash with the head constant fails before any join work.
  EvalStats clash;
  EXPECT_FALSE(IsDerivable(program, store, rule, Ints({2, 5}), clash));
  EXPECT_TRUE(AllDerivations(program, store, rule, Ints({2, 5}), clash)
                  .empty());
  EXPECT_EQ(clash.bindings_explored, 0u);
  EXPECT_EQ(clash.rule_applications, 0u);

  const std::vector<GroundBody> expected = {
      {{program.PredicateId("q"), Ints({5, 6})},
       {program.PredicateId("r"), Ints({6})}}};
  EXPECT_EQ(AllDerivations(program, store, rule, Ints({1, 5}), stats),
            expected);
}

TEST(DerivabilityTest, RepeatedHeadVariableMustAgree) {
  const Program program = ParseProgram("p(X, X) :- q(X, Y).");
  RelationStore store(program);
  store.Of(program.PredicateId("q")).Insert(Ints({1, 2}));
  store.Of(program.PredicateId("q")).Insert(Ints({1, 3}));
  const Rule& rule = program.rules[0];
  EvalStats stats;
  EXPECT_TRUE(IsDerivable(program, store, rule, Ints({1, 1}), stats));
  EXPECT_FALSE(IsDerivable(program, store, rule, Ints({2, 2}), stats));
  // Two different values for X: no derivation, whichever value a lookup
  // would have tried (q(1, _) exists, q(2, _) does not).
  EvalStats clash;
  EXPECT_FALSE(IsDerivable(program, store, rule, Ints({1, 2}), clash));
  EXPECT_FALSE(IsDerivable(program, store, rule, Ints({2, 1}), clash));
  EXPECT_EQ(clash.bindings_explored, 0u);
  EXPECT_EQ(AllDerivations(program, store, rule, Ints({1, 1}), stats).size(),
            2u);
  EXPECT_TRUE(
      AllDerivations(program, store, rule, Ints({1, 2}), stats).empty());
}

TEST(DerivabilityTest, HoistedComparisonsAndNegatedFilters) {
  const Program program = ParseProgram(R"(
    p(X) :- q(X, Y), Y > 3, !s(Y).
    nz(X) :- q(X, Y), X != 0.
  )");
  RelationStore store(program);
  for (const auto& [x, y] : std::vector<std::pair<int, int>>{
           {0, 9}, {1, 2}, {1, 5}, {1, 9}, {2, 5}}) {
    store.Of(program.PredicateId("q")).Insert(Ints({x, y}));
  }
  store.Of(program.PredicateId("s")).Insert(Ints({5}));
  const Rule& p = program.rules[0];
  EvalStats stats;
  EXPECT_TRUE(IsDerivable(program, store, p, Ints({1}), stats));
  EXPECT_FALSE(IsDerivable(program, store, p, Ints({2}), stats));  // !s(5)
  const std::vector<GroundBody> only_nine = {
      {{program.PredicateId("q"), Ints({1, 9})}}};
  EXPECT_EQ(AllDerivations(program, store, p, Ints({1}), stats), only_nine);

  // A comparison over head variables only is a pre-filter: the rejected
  // check explores no binding at all.
  const Rule& nz = program.rules[1];
  EvalStats rejected;
  EXPECT_FALSE(IsDerivable(program, store, nz, Ints({0}), rejected));
  EXPECT_EQ(rejected.bindings_explored, 0u);
  EXPECT_EQ(rejected.index_probes, 0u);
  EXPECT_TRUE(IsDerivable(program, store, nz, Ints({1}), stats));
}

TEST(DerivabilityTest, FullyBoundBodyIsMembershipOnly) {
  // Every body literal is bound by the head: zero join levels, each check
  // is one hash-membership probe per literal and no index is consulted.
  const Program program = ParseProgram(R"(
    a(X) :- base(X).
    sym(X, Y) :- e(X, Y), e(Y, X).
  )");
  RelationStore store(program);
  for (int i = 0; i < 100; ++i) {
    store.Of(program.PredicateId("base")).Insert(Ints({i}));
  }
  store.Of(program.PredicateId("e")).Insert(Ints({1, 2}));
  store.Of(program.PredicateId("e")).Insert(Ints({2, 1}));
  store.Of(program.PredicateId("e")).Insert(Ints({2, 3}));
  const Rule& a = program.rules[0];
  const Rule& sym = program.rules[1];
  EvalStats stats;
  EXPECT_TRUE(IsDerivable(program, store, a, Ints({42}), stats));
  EXPECT_FALSE(IsDerivable(program, store, a, Ints({100}), stats));
  EXPECT_TRUE(IsDerivable(program, store, sym, Ints({2, 1}), stats));
  EXPECT_FALSE(IsDerivable(program, store, sym, Ints({2, 3}), stats));
  const std::vector<GroundBody> expected = {
      {{program.PredicateId("e"), Ints({1, 2})},
       {program.PredicateId("e"), Ints({2, 1})}}};
  EXPECT_EQ(AllDerivations(program, store, sym, Ints({1, 2}), stats),
            expected);
  EXPECT_EQ(stats.bindings_explored, 0u);
  EXPECT_EQ(stats.index_probes, 0u);
  EXPECT_EQ(stats.rule_applications, 5u);
  EXPECT_EQ(stats.tuples_derived, 3u);
}

TEST(DerivabilityTest, NullaryLiteralsAreMembershipProbes) {
  // A zero-arity literal is fully bound in every plan, bottom-up included.
  Database db(R"(
    ready() :- on(), job(X).
    run(X) :- job(X), ready().
  )");
  db.Insert("job", {Value::Int(7)});
  db.Materialize();
  EXPECT_TRUE(db.Query("ready").empty());
  EXPECT_TRUE(db.Query("run").empty());

  Database on(R"(
    on().
    ready() :- on(), job(X).
    run(X) :- job(X), ready().
  )");
  on.Insert("job", {Value::Int(7)});
  on.Insert("job", {Value::Int(8)});
  on.Materialize();
  EXPECT_EQ(on.Query("ready").size(), 1u);
  EXPECT_TRUE(on.Contains("run", {Value::Int(7)}));

  // Deleting one job overdeletes ready(); its rederive check probes on()
  // by membership and finds the other job.
  Database::Update update = on.MakeUpdate();
  update.Delete("job", {Value::Int(7)});
  on.ApplyRequest(update.Request());
  EXPECT_EQ(on.Query("ready").size(), 1u);
  EXPECT_EQ(Sorted(on.Query("run")), std::vector<Tuple>{{Value::Int(8)}});
}

TEST(DerivabilityTest, MatchesBruteForceOnRandomRules) {
  // Random safe rules (constants, repeated variables, negation,
  // comparisons, repeated head variables) over a random small store: for
  // every candidate head tuple, IsDerivable and ForEachDerivation must
  // agree with the derivations unrestricted ApplyRule enumerates.
  util::Rng rng(1729);
  const char* kVars[] = {"X", "Y", "Z", "W"};
  const auto pick_term = [&](std::vector<std::string>& used) {
    if (rng.NextBool(0.15)) {
      return std::to_string(rng.NextBelow(3));
    }
    std::string v = kVars[rng.NextBelow(4)];
    used.push_back(v);
    return v;
  };
  int checked_heads = 0;
  int derivable_heads = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<std::string> used;
    std::string body;
    const int positives = 1 + static_cast<int>(rng.NextBelow(3));
    for (int i = 0; i < positives; ++i) {
      const bool unary = rng.NextBool(0.3);
      body += (i == 0 ? "" : ", ");
      body += unary ? "g(" + pick_term(used) + ")"
                    : std::string(rng.NextBool() ? "e(" : "f(") +
                          pick_term(used) + ", " + pick_term(used) + ")";
    }
    if (used.empty()) {
      used.push_back("X");
      body += ", g(X)";
    }
    const auto bound_var = [&] { return used[rng.NextBelow(used.size())]; };
    if (rng.NextBool(0.4)) {
      body += ", !e(" + bound_var() + ", " + bound_var() + ")";
    }
    if (rng.NextBool(0.4)) {
      const char* ops[] = {"<", "<=", "!=", "="};
      body += ", " + bound_var() + " " + ops[rng.NextBelow(4)] + " " +
              (rng.NextBool() ? bound_var() : std::to_string(rng.NextBelow(4)));
    }
    const auto head_term = [&] {
      return rng.NextBool(0.2) ? std::to_string(rng.NextBelow(3))
                               : bound_var();
    };
    const std::string text =
        "h(" + head_term() + ", " + head_term() + ") :- " + body + ".";
    SCOPED_TRACE(text);
    const Program program = ParseProgram(text);
    ValidateProgram(program);
    RelationStore store(program);
    for (const char* name : {"e", "f", "g"}) {
      std::uint32_t pred = 0;
      try {
        pred = program.PredicateId(name);
      } catch (const util::InvalidArgument&) {
        continue;  // not mentioned by this rule
      }
      const std::size_t arity = program.predicate_arities[pred];
      for (int x = 0; x < 4; ++x) {
        for (int y = 0; y < (arity == 2 ? 4 : 1); ++y) {
          if (rng.NextBool(0.45)) {
            store.Of(pred).Insert(arity == 2 ? Ints({x, y}) : Ints({x}));
          }
        }
      }
    }
    const Rule& rule = program.rules[0];
    const auto truth = BruteForceDerivations(program, store, rule);
    for (int x = 0; x < 5; ++x) {
      for (int y = 0; y < 5; ++y) {
        const Tuple head = Ints({x, y});
        const auto it = truth.find(head);
        const bool derivable = it != truth.end();
        EvalStats stats;
        EXPECT_EQ(IsDerivable(program, store, rule, head, stats), derivable)
            << "head " << x << "," << y;
        EXPECT_EQ(AllDerivations(program, store, rule, head, stats),
                  derivable ? it->second : std::vector<GroundBody>{})
            << "head " << x << "," << y;
        // Stopping at the first derivation reports exactly derivability.
        EXPECT_EQ(ForEachDerivation(program, store, rule, head, stats,
                                    [](const GroundBody&) { return true; }),
                  derivable);
        ++checked_heads;
        derivable_heads += derivable ? 1 : 0;
      }
    }
  }
  // The generator must exercise both verdicts.
  EXPECT_GT(derivable_heads, 50);
  EXPECT_GT(checked_heads - derivable_heads, 50);
}

TEST(DatabaseTest, InsertAfterMaterializeRejected) {
  Database db("p(X) :- q(X).");
  db.Insert("q", {Value::Int(1)});
  db.Materialize();
  EXPECT_THROW(db.Insert("q", {Value::Int(2)}), util::LogicError);
}

TEST(DatabaseTest, ArityMismatchOnInsert) {
  Database db("p(X) :- q(X).");
  EXPECT_THROW(db.Insert("q", {Value::Int(1), Value::Int(2)}),
               util::InvalidArgument);
}

TEST(DatabaseTest, UnknownPredicateThrows) {
  Database db("p(X) :- q(X).");
  EXPECT_THROW(db.Insert("zzz", {Value::Int(1)}), util::InvalidArgument);
  EXPECT_THROW(db.Query("zzz"), util::InvalidArgument);
}

}  // namespace
}  // namespace dsched::datalog
