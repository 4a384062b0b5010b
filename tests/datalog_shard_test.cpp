// Tests for the hash-sharded Relation (relation.hpp): shard layout, per-shard
// erase epochs, and the index cache's per-shard freshness.  A relation has a
// single writer at a time, so every test here writes from one thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "datalog/parser.hpp"
#include "datalog/relation.hpp"
#include "obs/metrics.hpp"

namespace dsched::datalog {
namespace {

Tuple T2(std::int64_t a, std::int64_t b) {
  return {Value::Int(a), Value::Int(b)};
}

// Multiplicative scatter so tuples spread across shards and slots.
std::int64_t Scatter(std::uint64_t i) {
  return static_cast<std::int64_t>((i * 0x9e3779b97f4a7c15ULL) &
                                   0x7fffffffULL);
}

std::vector<Tuple> Sorted(const Relation& r) {
  std::vector<Tuple> tuples = r.Tuples();
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

TEST(ShardTest, InterleavedInsertsAndErasesMatchTheSingleShardStore) {
  // The same interleaved direct inserts and erases — duplicates, misses and
  // re-inserts of erased keys included — must leave a relation of any shard
  // count with the P = 1 contents, and every call must report the same
  // took-effect bit.
  constexpr std::uint64_t kOps = 12000;
  const auto key = [](std::uint64_t k) {
    return T2(Scatter(k), static_cast<std::int64_t>(k % 4));
  };
  const auto run = [&key](Relation& r) {
    std::vector<bool> outcomes;
    for (std::uint64_t i = 0; i < kOps; ++i) {
      outcomes.push_back(r.Insert(key(i)));
      if (i % 3 == 0) {
        outcomes.push_back(r.Erase(key(i / 2)));
      }
      if (i % 5 == 0) {
        outcomes.push_back(r.Insert(key(i / 3)));
      }
    }
    return outcomes;
  };

  Relation reference(2, 1);
  const std::vector<bool> expected = run(reference);
  ASSERT_GT(reference.Size(), 0u);
  for (const std::size_t shards : {std::size_t{4}, std::size_t{16}}) {
    Relation sharded(2, shards);
    EXPECT_EQ(run(sharded), expected) << shards << " shards";
    EXPECT_EQ(sharded.Size(), reference.Size()) << shards << " shards";
    EXPECT_EQ(Sorted(sharded), Sorted(reference)) << shards << " shards";
  }
}

TEST(ShardTest, SingleShardDegeneratesToDenseRowIds) {
  // shards=1 must behave exactly like the pre-shard store: row ids are
  // dense insertion indices and iteration is insertion order.
  Relation r(2, 1);
  EXPECT_EQ(r.NumShards(), 1u);
  EXPECT_EQ(r.ShardBits(), 0u);
  for (std::int64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(r.Insert(T2(i, i * 2)));
  }
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(r.EncodeRowId(0, i), i);
    const RowView row = r.Row(i);
    EXPECT_EQ(row[0].AsInt(), static_cast<std::int64_t>(i));
  }
  std::uint32_t next = 0;
  r.ForEachRow([&next](std::uint32_t id, RowView) { EXPECT_EQ(id, next++); });
  EXPECT_EQ(next, 100u);
}

TEST(ShardTest, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(Relation(2, 3).NumShards(), 4u);
  EXPECT_EQ(Relation(2, 5).NumShards(), 8u);
  EXPECT_EQ(Relation(2, 16).NumShards(), 16u);
}

TEST(ShardTest, EraseInOneShardLeavesOtherShardsStable) {
  // The per-shard EraseEpoch contract: erasing only bumps the owning
  // shard's epoch, and every other shard's row ids keep resolving to the
  // same tuples (this is what lets cached indexes skip unchanged shards).
  Relation r(2, 4);
  std::vector<Tuple> tuples;
  for (std::uint64_t i = 0; i < 512; ++i) {
    tuples.push_back(T2(Scatter(i), static_cast<std::int64_t>(i)));
    r.Insert(tuples.back());
  }
  std::vector<std::uint64_t> epoch_before(r.NumShards());
  for (std::size_t s = 0; s < r.NumShards(); ++s) {
    epoch_before[s] = r.ShardEraseEpoch(s);
  }
  // Snapshot every row id -> tuple mapping.
  std::vector<std::pair<std::uint32_t, Tuple>> before;
  r.ForEachRow([&before](std::uint32_t id, RowView row) {
    before.emplace_back(id, Tuple(row.begin(), row.end()));
  });

  const Tuple victim = tuples[137];
  const std::size_t victim_shard = r.ShardOfTuple(RowView(victim));
  ASSERT_TRUE(r.Erase(victim));

  for (std::size_t s = 0; s < r.NumShards(); ++s) {
    if (s == victim_shard) {
      EXPECT_EQ(r.ShardEraseEpoch(s), epoch_before[s] + 1);
    } else {
      EXPECT_EQ(r.ShardEraseEpoch(s), epoch_before[s]);
    }
  }
  // Rows outside the victim's shard are untouched, id for id.
  for (const auto& [id, tuple] : before) {
    if ((id & (r.NumShards() - 1)) == victim_shard) {
      continue;
    }
    const RowView row = r.Row(id);
    EXPECT_EQ(Tuple(row.begin(), row.end()), tuple);
  }
}

TEST(ShardTest, SingleShardAppendKeepsIndexSkippingShards) {
  // Store-level view of the same contract: after an append that touches
  // one shard, re-preparing a cached index only rescans the changed shard
  // and counts a skip for each untouched one.
  const Program program = ParseProgram("p(X, Y) :- q(X, Y).");
  RelationStore store(program, 4);
  const std::uint32_t q = program.PredicateId("q");
  for (std::uint64_t i = 0; i < 256; ++i) {
    store.Of(q).Insert(T2(Scatter(i), static_cast<std::int64_t>(i)));
  }
  const std::vector<std::size_t> columns{0};
  (void)store.Prepare(q, columns);  // build

  obs::MetricsRegistry base_metrics;
  store.ExportMetrics(base_metrics);
  const std::uint64_t skips_before =
      base_metrics.Value("store.index_shard_skips");

  const Tuple extra = T2(Scatter(9999), 9999);
  ASSERT_TRUE(store.Of(q).Insert(extra));
  const auto prepared = store.Prepare(q, columns);  // extend, skip 3 shards

  obs::MetricsRegistry metrics;
  store.ExportMetrics(metrics);
  EXPECT_EQ(metrics.Value("store.index_shard_skips"),
            skips_before + store.Of(q).NumShards() - 1);

  const Tuple key{extra[0]};
  const auto rows = RelationStore::LookupPrepared(prepared, key);
  bool found = false;
  for (const std::uint32_t id : rows) {
    const RowView row = RelationStore::RowIn(prepared, id);
    found = found || Tuple(row.begin(), row.end()) == extra;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace dsched::datalog
