// Micro-benchmarks of the Datalog substrate: materialization and
// incremental maintenance throughput.
#include <benchmark/benchmark.h>

#include "datalog/database.hpp"
#include "util/rng.hpp"

namespace {

using dsched::datalog::Database;
using dsched::datalog::Tuple;
using dsched::datalog::Value;

constexpr const char* kTransitiveClosure = R"(
  tc(X, Y) :- edge(X, Y).
  tc(X, Z) :- tc(X, Y), edge(Y, Z).
)";

void BM_MaterializeChainTC(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Database db(kTransitiveClosure);
    for (int i = 0; i + 1 < n; ++i) {
      db.Insert("edge", {Value::Int(i), Value::Int(i + 1)});
    }
    const auto stats = db.Materialize();
    benchmark::DoNotOptimize(stats.tuples_inserted);
  }
  state.SetItemsProcessed(state.iterations() * n * (n - 1) / 2);
}
BENCHMARK(BM_MaterializeChainTC)->Arg(50)->Arg(150)->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_MaterializeRandomTC(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  dsched::util::Rng rng(5);
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j && rng.NextBool(2.0 / n)) {
        edges.emplace_back(i, j);
      }
    }
  }
  for (auto _ : state) {
    Database db(kTransitiveClosure);
    for (const auto& [i, j] : edges) {
      db.Insert("edge", {Value::Int(i), Value::Int(j)});
    }
    const auto stats = db.Materialize();
    benchmark::DoNotOptimize(stats.tuples_inserted);
  }
}
BENCHMARK(BM_MaterializeRandomTC)->Arg(100)->Arg(300)
    ->Unit(benchmark::kMillisecond);

void BM_IncrementalInsertOneEdge(benchmark::State& state) {
  // Cost of maintaining a chain TC when one edge is appended at the end —
  // the incremental win the whole paper is about (contrast with
  // BM_MaterializeChainTC at the same size).
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Database db(kTransitiveClosure);
    for (int i = 0; i + 2 < n; ++i) {
      db.Insert("edge", {Value::Int(i), Value::Int(i + 1)});
    }
    db.Materialize();
    auto update = db.MakeUpdate();
    update.Insert("edge", {Value::Int(n - 2), Value::Int(n - 1)});
    state.ResumeTiming();
    const auto result = db.ApplyRequest(update.Request());
    benchmark::DoNotOptimize(result.total_inserted);
  }
}
BENCHMARK(BM_IncrementalInsertOneEdge)->Arg(150)->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_IncrementalDeleteWithRederive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Database db(kTransitiveClosure);
    for (int i = 0; i + 1 < n; ++i) {
      db.Insert("edge", {Value::Int(i), Value::Int(i + 1)});
      // Parallel redundant edges keep everything rederivable.
      db.Insert("edge", {Value::Int(i), Value::Int(i + 1)});
    }
    db.Insert("edge", {Value::Int(0), Value::Int(n / 2)});
    db.Materialize();
    auto update = db.MakeUpdate();
    update.Delete("edge", {Value::Int(n / 2 - 1), Value::Int(n / 2)});
    state.ResumeTiming();
    const auto result = db.ApplyRequest(update.Request());
    benchmark::DoNotOptimize(result.total_deleted);
  }
}
BENCHMARK(BM_IncrementalDeleteWithRederive)->Arg(100)->Arg(250)
    ->Unit(benchmark::kMillisecond);

}  // namespace
