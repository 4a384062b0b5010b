// Focused tests for the storage layer details the incremental engine leans
// on: copy semantics, append-only index extension, predicate extension, and
// the snapshot-free OldStateView.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "datalog/incremental.hpp"
#include "datalog/parser.hpp"
#include "datalog/relation.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace dsched::datalog {
namespace {

Tuple T2(int a, int b) { return {Value::Int(a), Value::Int(b)}; }

TEST(RelationStoreCopyTest, CopyIsDeepAndCacheFresh) {
  const Program p = ParseProgram("e(a, b).");
  RelationStore store(p);
  const auto e = p.PredicateId("e");
  store.Of(e).Insert(T2(1, 2));
  // Warm the index cache.
  EXPECT_EQ(store.Lookup(e, {0}, {Value::Int(1)}).size(), 1u);

  RelationStore copy = store;
  copy.Of(e).Insert(T2(3, 4));
  EXPECT_EQ(copy.Of(e).Size(), 2u);
  EXPECT_EQ(store.Of(e).Size(), 1u);  // deep copy: original untouched
  // The copy's cache starts fresh and still answers correctly.
  EXPECT_EQ(copy.Lookup(e, {0}, {Value::Int(3)}).size(), 1u);
  EXPECT_EQ(store.Lookup(e, {0}, {Value::Int(3)}).size(), 0u);
}

TEST(RelationStoreCopyTest, AssignmentResetsCache) {
  const Program p = ParseProgram("e(a, b).");
  RelationStore a(p);
  RelationStore b(p);
  const auto e = p.PredicateId("e");
  a.Of(e).Insert(T2(1, 2));
  EXPECT_EQ(b.Lookup(e, {0}, {Value::Int(1)}).size(), 0u);  // warm b's cache
  b = a;
  EXPECT_EQ(b.Lookup(e, {0}, {Value::Int(1)}).size(), 1u);
}

TEST(RelationStoreTest, MetricsExportIsPrefixIsolated) {
  // Single-tenant regression for the service layer: two stores exporting
  // into ONE registry must not clobber each other.  The prefix parameter
  // (default "store.") is how sessions isolate — the host exports each
  // session's store under "session.<name>.store.".
  const Program p = ParseProgram("e(a, b).");
  RelationStore one(p);
  RelationStore two(p);
  const auto e = p.PredicateId("e");
  one.Of(e).Insert(T2(1, 2));
  two.Of(e).Insert(T2(1, 2));
  two.Of(e).Insert(T2(3, 4));
  obs::MetricsRegistry registry;
  one.ExportMetrics(registry, "session.a.store.");
  two.ExportMetrics(registry, "session.b.store.");
  EXPECT_EQ(registry.Value("session.a.store.rows"), 1u);
  EXPECT_EQ(registry.Value("session.b.store.rows"), 2u);
  // Re-export after divergence keeps the other prefix untouched.
  one.Of(e).Insert(T2(5, 6));
  one.ExportMetrics(registry, "session.a.store.");
  EXPECT_EQ(registry.Value("session.a.store.rows"), 2u);
  EXPECT_EQ(registry.Value("session.b.store.rows"), 2u);
}

TEST(RelationStoreTest, AppendOnlyIndexExtension) {
  const Program p = ParseProgram("e(a, b).");
  RelationStore store(p);
  const auto e = p.PredicateId("e");
  store.Of(e).Insert(T2(1, 10));
  EXPECT_EQ(store.Lookup(e, {0}, {Value::Int(1)}).size(), 1u);
  // Pure appends: the cached index must pick up new rows without losing the
  // old ones.
  store.Of(e).Insert(T2(1, 11));
  store.Of(e).Insert(T2(2, 20));
  EXPECT_EQ(store.Lookup(e, {0}, {Value::Int(1)}).size(), 2u);
  EXPECT_EQ(store.Lookup(e, {0}, {Value::Int(2)}).size(), 1u);
  // An erase invalidates row ids; the rebuilt index must be exact.
  store.Of(e).Erase(T2(1, 10));
  const auto rows = store.Lookup(e, {0}, {Value::Int(1)});
  ASSERT_EQ(rows.size(), 1u);
  const RowView survivor = store.RowAt(e, rows[0]);
  EXPECT_EQ(Tuple(survivor.begin(), survivor.end()), T2(1, 11));
}

TEST(RelationStoreTest, EraseEpochAdvancesOnlyOnErase) {
  Relation r(2);
  const auto epoch0 = r.EraseEpoch();
  r.Insert(T2(1, 2));
  EXPECT_EQ(r.EraseEpoch(), epoch0);
  r.Erase(T2(1, 2));
  EXPECT_GT(r.EraseEpoch(), epoch0);
}

TEST(RelationStoreTest, EnsurePredicatesExtends) {
  Program p = ParseProgram("e(a, b).");
  RelationStore store(p);
  EXPECT_EQ(store.NumRelations(), 1u);
  ExtendProgram(p, "f(X, Y, Z) :- e(X, Y), e(Y, Z).");
  store.EnsurePredicates(p);
  EXPECT_EQ(store.NumRelations(), 2u);
  EXPECT_EQ(store.Of(p.PredicateId("f")).Arity(), 3u);
  // Idempotent.
  store.EnsurePredicates(p);
  EXPECT_EQ(store.NumRelations(), 2u);
}

TEST(RelationEraseTest, SwapRemovalMovesOnlyTheLastRow) {
  // Row ids are dense, so the swap-removal contract can be observed through
  // Row() and ForEachRow() directly.
  const auto rows_in_order = [](const Relation& r) {
    std::vector<Tuple> rows;
    std::uint32_t expected_id = 0;
    r.ForEachRow([&](std::uint32_t id, RowView row) {
      EXPECT_EQ(id, expected_id++);
      rows.emplace_back(row.begin(), row.end());
    });
    return rows;
  };
  Relation r(2);
  r.Insert(T2(1, 1));
  r.Insert(T2(2, 2));
  r.Insert(T2(3, 3));
  r.Insert(T2(4, 4));
  // Iteration is insertion order.
  EXPECT_EQ(rows_in_order(r),
            (std::vector<Tuple>{T2(1, 1), T2(2, 2), T2(3, 3), T2(4, 4)}));
  // Erasing a middle row compacts by moving the LAST row into its slot;
  // every other row id is stable.
  ASSERT_TRUE(r.Erase(T2(2, 2)));
  EXPECT_EQ(r.Size(), 3u);
  const RowView row0 = r.Row(0);
  const RowView row1 = r.Row(1);
  EXPECT_EQ(Tuple(row0.begin(), row0.end()), T2(1, 1));
  EXPECT_EQ(Tuple(row1.begin(), row1.end()), T2(4, 4));  // moved from id 3
  // Membership survives the move for every remaining tuple.
  EXPECT_TRUE(r.Contains(T2(1, 1)));
  EXPECT_TRUE(r.Contains(T2(3, 3)));
  EXPECT_TRUE(r.Contains(T2(4, 4)));
  EXPECT_FALSE(r.Contains(T2(2, 2)));
  EXPECT_EQ(rows_in_order(r),
            (std::vector<Tuple>{T2(1, 1), T2(4, 4), T2(3, 3)}));
}

TEST(RelationEraseTest, EraseLastRowIsPureTruncation) {
  Relation r(2);
  r.Insert(T2(1, 1));
  r.Insert(T2(2, 2));
  ASSERT_TRUE(r.Erase(T2(2, 2)));
  const RowView row0 = r.Row(0);
  EXPECT_EQ(Tuple(row0.begin(), row0.end()), T2(1, 1));
  EXPECT_TRUE(r.Contains(T2(1, 1)));
}

TEST(RelationEraseTest, InterleavedInsertEraseMatchesReferenceSet) {
  // Deterministic mixed workload against a reference model: exercises
  // backward-shift deletion and slot repointing under collision pressure
  // (keys dense in [0, 64) force probe chains at small table sizes).
  Relation r(2);
  std::vector<Tuple> model;
  std::uint64_t rng = 0x1234567887654321ULL;
  const auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int step = 0; step < 4000; ++step) {
    const int a = static_cast<int>(next() % 64);
    const int b = static_cast<int>(next() % 8);
    const Tuple t = T2(a, b);
    const auto it = std::find(model.begin(), model.end(), t);
    if (next() % 3 != 0) {
      EXPECT_EQ(r.Insert(t), it == model.end());
      if (it == model.end()) {
        model.push_back(t);
      }
    } else {
      EXPECT_EQ(r.Erase(t), it != model.end());
      if (it != model.end()) {
        model.erase(it);
      }
    }
  }
  ASSERT_EQ(r.Size(), model.size());
  std::vector<Tuple> got = r.Tuples();
  std::sort(got.begin(), got.end());
  std::sort(model.begin(), model.end());
  EXPECT_EQ(got, model);
}

TEST(RelationEraseTest, EraseEpochGatesIndexRebuild) {
  // The EraseEpoch contract: pure appends keep the epoch (the cached index
  // may extend in place), any erase advances it (row ids shifted, caches
  // must rebuild).  Interleave the two and check the index stays exact, and
  // that the cache counters say which path each refresh took.
  const Program p = ParseProgram("e(a, b).");
  RelationStore store(p);
  const auto e = p.PredicateId("e");
  const auto counter = [&store](const char* name) {
    obs::MetricsRegistry registry;
    store.ExportMetrics(registry);
    return registry.Value(std::string("store.") + name);
  };
  const auto epoch0 = store.Of(e).EraseEpoch();
  for (int i = 0; i < 16; ++i) {
    store.Of(e).Insert(T2(i % 4, i));
  }
  EXPECT_EQ(store.Of(e).EraseEpoch(), epoch0);
  EXPECT_EQ(store.Lookup(e, {0}, {Value::Int(1)}).size(), 4u);

  // Pure appends extend the index by exactly the appended rows.
  const auto rebuilds0 = counter("index_rebuilds");
  const auto extended0 = counter("index_extend_rows");
  for (int i = 16; i < 20; ++i) {
    store.Of(e).Insert(T2(i % 4, i));
  }
  EXPECT_EQ(store.Lookup(e, {0}, {Value::Int(1)}).size(), 5u);
  EXPECT_EQ(counter("index_rebuilds"), rebuilds0);
  EXPECT_EQ(counter("index_extend_rows"), extended0 + 4);

  store.Of(e).Erase(T2(1, 5));
  const auto epoch1 = store.Of(e).EraseEpoch();
  EXPECT_GT(epoch1, epoch0);
  EXPECT_EQ(store.Lookup(e, {0}, {Value::Int(1)}).size(), 4u);
  // One erase, one rebuild.
  EXPECT_EQ(counter("index_rebuilds"), rebuilds0 + 1);

  // Appends after the rebuild extend without another epoch bump, and row
  // ids handed back by the index must address the right arena rows.
  const auto extended1 = counter("index_extend_rows");
  store.Of(e).Insert(T2(1, 99));
  EXPECT_EQ(store.Of(e).EraseEpoch(), epoch1);
  const auto rows = store.Lookup(e, {0}, {Value::Int(1)});
  EXPECT_EQ(rows.size(), 5u);
  EXPECT_EQ(counter("index_rebuilds"), rebuilds0 + 1);
  EXPECT_EQ(counter("index_extend_rows"), extended1 + 1);
  for (const auto id : rows) {
    EXPECT_EQ(store.RowAt(e, id)[0], Value::Int(1));
  }
}

TEST(TupleHashTest, MixesAllWordsAcrossBucketRanges) {
  // Structured keys (sequential ints, grid pairs) must spread over both the
  // low and the high hash bits — the byte-extracted bucket histograms stay
  // near uniform.  A multiplicative word mixer passes easily; an xor/shift
  // identity-style hash concentrates sequential keys and fails.
  const auto check_spread = [](const std::vector<std::uint64_t>& hashes) {
    for (const int shift : {0, 56}) {
      std::vector<int> buckets(256, 0);
      for (const std::uint64_t h : hashes) {
        ++buckets[(h >> shift) & 0xff];
      }
      const double expected =
          static_cast<double>(hashes.size()) / 256.0;
      for (const int count : buckets) {
        EXPECT_LT(count, expected * 4.0)
            << "bucket overload at shift " << shift;
      }
    }
  };
  std::vector<std::uint64_t> seq;
  std::vector<std::uint64_t> grid;
  for (int i = 0; i < 4096; ++i) {
    seq.push_back(TupleHash{}(Tuple{Value::Int(i)}));
    grid.push_back(TupleHash{}(T2(i % 64, i / 64)));
  }
  check_spread(seq);
  check_spread(grid);

  // No 64-bit collisions on these small structured sets.
  for (auto* hs : {&seq, &grid}) {
    std::sort(hs->begin(), hs->end());
    EXPECT_EQ(std::adjacent_find(hs->begin(), hs->end()), hs->end());
  }

  // Arity participates: a tuple must not collide with its prefix.
  EXPECT_NE(TupleHash{}(Tuple{Value::Int(7)}),
            TupleHash{}(T2(7, 0)));
}

class OldStateViewTest : public testing::Test {
 protected:
  OldStateViewTest() : program_(ParseProgram("e(a, b). d(a, b).")) {
    store_ = RelationStore(program_);
    e_ = program_.PredicateId("e");
    net_.resize(program_.NumPredicates());
  }

  Program program_;
  RelationStore store_;
  std::uint32_t e_ = 0;
  std::vector<PredicateDelta> net_;
};

TEST_F(OldStateViewTest, ReflectsNetInsertionsAsAbsent) {
  store_.Of(e_).Insert(T2(1, 2));  // pre-existing
  store_.Of(e_).Insert(T2(3, 4));  // inserted by this update
  net_[e_].inserted.push_back(T2(3, 4));
  const OldStateView view(store_, net_, {e_});
  EXPECT_TRUE(view.ContainsTuple(e_, T2(1, 2)));
  EXPECT_FALSE(view.ContainsTuple(e_, T2(3, 4)));  // not in the old state
}

TEST_F(OldStateViewTest, ReflectsNetDeletionsAsPresent) {
  store_.Of(e_).Insert(T2(1, 2));
  net_[e_].deleted.push_back(T2(9, 9));  // deleted earlier in this update
  const OldStateView view(store_, net_, {e_});
  EXPECT_TRUE(view.ContainsTuple(e_, T2(9, 9)));
  EXPECT_FALSE(view.ContainsTuple(e_, T2(7, 7)));
}

TEST_F(OldStateViewTest, LookupMergesLiveAndExtras) {
  store_.Of(e_).Insert(T2(1, 2));
  store_.Of(e_).Insert(T2(1, 3));  // live, but inserted by the update
  net_[e_].inserted.push_back(T2(1, 3));
  net_[e_].deleted.push_back(T2(1, 4));  // old-only
  const OldStateView view(store_, net_, {e_});
  const auto ids = view.Lookup(e_, {0}, {Value::Int(1)});
  // Old state for key 1: (1,2) live + (1,4) extra; (1,3) filtered out.
  ASSERT_EQ(ids.size(), 2u);
  std::vector<Tuple> rows;
  for (const auto id : ids) {
    const RowView row = view.RowAt(e_, id);
    rows.emplace_back(row.begin(), row.end());
  }
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows[0], T2(1, 2));
  EXPECT_EQ(rows[1], T2(1, 4));
}

TEST_F(OldStateViewTest, AddDeletedExtraGrowsTheView) {
  store_.Of(e_).Insert(T2(1, 2));
  OldStateView view(store_, net_, {e_});
  // Simulate a phase erasing (1,2): live loses it, the view keeps it.
  view.AddDeletedExtra(e_, T2(1, 2));
  store_.Of(e_).Erase(T2(1, 2));
  EXPECT_TRUE(view.ContainsTuple(e_, T2(1, 2)));
  const auto ids = view.Lookup(e_, {0}, {Value::Int(1)});
  ASSERT_EQ(ids.size(), 1u);
  const RowView row = view.RowAt(e_, ids[0]);
  EXPECT_EQ(Tuple(row.begin(), row.end()), T2(1, 2));
}

TEST_F(OldStateViewTest, IrrelevantPredicatesAreNotSnapshotted) {
  const auto d = program_.PredicateId("d");
  store_.Of(d).Insert(T2(5, 5));
  net_[d].inserted.push_back(T2(5, 5));
  // View built WITHOUT d in the relevant set: d's delta is ignored (the
  // phase would never read it), so the live tuple shows through.
  const OldStateView view(store_, net_, {e_});
  EXPECT_TRUE(view.ContainsTuple(d, T2(5, 5)));
}

}  // namespace
}  // namespace dsched::datalog
