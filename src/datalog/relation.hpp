// Tuple storage: relations, the per-program relation store, and cached
// column indexes for joins.
//
// Layout: a Relation keeps its rows in one flat arena of tagged words
// (`arity` Values per row, contiguous) with an open-addressing (linear-probe,
// backward-shift-delete) hash table over row ids for O(1) membership.  No
// per-tuple heap allocation, no re-hashing of std::vector keys — a membership
// probe touches the slot array and the candidate's arena words only.
//
// Row ids are dense: id i is the i-th arena row.  Bit 31 is reserved
// (kExtraBit) for overlay views (OldStateView) that need to hand out ids for
// rows not present in the relation.
//
// Concurrency: a relation has one writer at a time, the maintenance phase
// of the component that owns it; the activation DAG's precedence (and the
// epoch pipeline's fences) keep every other phase that touches it out until
// that phase finished.  Insert/Erase are therefore plain single-owner
// mutations.  The row count and version stamps are atomics only so index
// readers on other threads see torn-free values.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "datalog/ast.hpp"
#include "datalog/value.hpp"

namespace dsched::obs {
class MetricsRegistry;
}  // namespace dsched::obs

namespace dsched::datalog {

/// A set of tuples of fixed arity with O(1) membership.  Iteration order is
/// insertion order, modulo swap-removal on erase.
class Relation {
 public:
  /// Reserved id bit for overlay views: row ids produced by a Relation are
  /// always < 2^31, so views layered on top (OldStateView) can tag ids of
  /// rows that live outside the relation.
  static constexpr std::uint32_t kExtraBit = 0x80000000u;

  explicit Relation(std::size_t arity = 0) : arity_(arity) {}

  Relation(const Relation& other) { *this = other; }
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept { *this = std::move(other); }
  Relation& operator=(Relation&& other) noexcept;
  ~Relation() = default;

  [[nodiscard]] std::size_t Arity() const { return arity_; }
  [[nodiscard]] std::size_t Size() const {
    return num_rows_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool Empty() const { return Size() == 0; }

  /// The store is one partition; kept for callers that still report skew.
  [[nodiscard]] std::size_t NumShards() const { return 1; }
  [[nodiscard]] std::size_t ShardSize(std::size_t /*shard*/) const {
    return Size();
  }

  /// The row at id `row` as a view into the arena.  Valid until the next
  /// Insert (arena growth may move it) or Erase (swap-removal may overwrite
  /// it).
  [[nodiscard]] RowView Row(std::uint32_t row) const {
    return {arena_.data() + std::size_t{row} * arity_, arity_};
  }

  /// Calls fn(row_id, row_view) for every row, in id order.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    const std::uint32_t n = num_rows_.load(std::memory_order_relaxed);
    for (std::uint32_t row = 0; row < n; ++row) {
      fn(row, Row(row));
    }
  }

  /// Materialized copy of all rows (tests, Query), in id order.
  [[nodiscard]] std::vector<Tuple> Tuples() const;

  /// True iff the tuple is present.
  [[nodiscard]] bool Contains(RowView tuple) const;
  [[nodiscard]] bool Contains(const Tuple& tuple) const {
    return Contains(RowView(tuple));
  }

  /// Inserts; returns true iff the tuple was new.  Bumps the version.
  bool Insert(RowView tuple);
  bool Insert(const Tuple& tuple) { return Insert(RowView(tuple)); }

  /// Removes; returns true iff the tuple was present.  Bumps the version
  /// and the erase epoch.  The last row is swapped into the erased slot.
  bool Erase(RowView tuple);
  bool Erase(const Tuple& tuple) { return Erase(RowView(tuple)); }

  /// Pre-sizes the arena and hash table for `rows` rows.
  void Reserve(std::size_t rows);

  /// Monotone change counter: bumped by every insert and erase that took
  /// effect.  Cached indexes compare it for staleness.
  [[nodiscard]] std::uint64_t Version() const {
    return version_.load(std::memory_order_relaxed);
  }

  /// Counts erasures only.  While it is unchanged, row ids are stable and
  /// inserts strictly append — the condition under which cached indexes
  /// extend incrementally instead of rebuilding.
  [[nodiscard]] std::uint64_t EraseEpoch() const {
    return erase_epoch_.load(std::memory_order_relaxed);
  }

  /// Approximate resident bytes.
  [[nodiscard]] std::size_t MemoryBytes() const;

 private:
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  /// Slot whose entry matches `tuple` (hash `hash`), or kNoSlot.
  [[nodiscard]] std::size_t FindSlot(RowView tuple, std::uint64_t hash) const;

  /// Rebuilds the slot table at `capacity` (a power of two).
  void Rehash(std::size_t capacity);

  std::size_t arity_ = 0;
  std::vector<Value> arena_;            ///< num_rows × arity words
  std::vector<std::uint64_t> hashes_;   ///< per-row full hash
  /// Hash-tagged slots: high 32 bits = hash tag, low 32 = row id + 1; 0 =
  /// empty.  A probe rejects mismatched entries on the tag alone — without
  /// touching the per-row hash array or the arena.
  std::vector<std::uint64_t> slots_;
  std::atomic<std::uint32_t> num_rows_{0};
  std::atomic<std::uint64_t> version_{0};
  std::atomic<std::uint64_t> erase_epoch_{0};
};

/// One Relation per predicate of a program, plus a cache of column indexes
/// used by the join machinery.  Copyable: the incremental engine snapshots
/// the store to evaluate overdeletions against the pre-update state (the
/// copy starts with a fresh, empty cache).
///
/// Thread compatibility: the parallel update engine runs component phases
/// concurrently.  Distinct phases never write the same Relation (the
/// dependency DAG's precedence guarantees it), but they do share the index
/// cache.  The cache keeps one atomic entry list per predicate: the
/// read-mostly path walks the list and checks the entry's version stamp with
/// an acquire load — no lock of any kind — and only a rebuild/extension takes
/// the predicate's refresh mutex.  A span returned by Lookup stays valid
/// after Prepare returns because an entry is only refreshed when its
/// relation's version moved, and a relation is never written while another
/// phase may be reading it.
class RelationStore {
 public:
  RelationStore() = default;
  /// Creates empty relations matching the program's predicate arities.
  explicit RelationStore(const Program& program);

  // Copies and moves transfer the relations and start with a fresh, empty
  // cache (the cache is a pure optimisation; nobody may be concurrently
  // reading either side of a copy/move).
  RelationStore(const RelationStore& other) : relations_(other.relations_) {
    ResetCaches();
  }
  RelationStore& operator=(const RelationStore& other) {
    if (this != &other) {
      relations_ = other.relations_;
      ResetCaches();
    }
    return *this;
  }
  RelationStore(RelationStore&& other) noexcept
      : relations_(std::move(other.relations_)) {
    ResetCaches();
  }
  RelationStore& operator=(RelationStore&& other) noexcept {
    if (this != &other) {
      relations_ = std::move(other.relations_);
      ResetCaches();
    }
    return *this;
  }

  /// Appends empty relations for predicates the program gained since this
  /// store was created (incremental rule changes may introduce new
  /// predicates).  Existing relations are untouched.
  void EnsurePredicates(const Program& program);

  [[nodiscard]] Relation& Of(std::uint32_t predicate);
  [[nodiscard]] const Relation& Of(std::uint32_t predicate) const;
  [[nodiscard]] std::size_t NumRelations() const { return relations_.size(); }

  /// Total tuples across all relations.
  [[nodiscard]] std::size_t TotalTuples() const;

  /// Row indices of `predicate` whose values at `columns` equal `key`
  /// (parallel vectors).  Backed by an open-addressing hash index cached
  /// per (predicate, column set), extended incrementally on pure appends
  /// and rebuilt after erasures.
  [[nodiscard]] std::span<const std::uint32_t> Lookup(
      std::uint32_t predicate, const std::vector<std::size_t>& columns,
      const Tuple& key) const;

  /// Number of distinct keys the cached index for (predicate, columns)
  /// holds, or 0 when no up-to-date index exists.  The join planner divides
  /// relation size by this fan-out to estimate lookup cardinality; 0 tells
  /// it to fall back to an independence assumption rather than build an
  /// index it might never use.
  [[nodiscard]] std::size_t IndexDistinct(
      std::uint32_t predicate, const std::vector<std::size_t>& columns) const;

  // --- Uniform join-source interface (shared with OldStateView so the
  // join machinery can be instantiated over either).
  [[nodiscard]] RowView RowAt(std::uint32_t predicate,
                              std::uint32_t row) const {
    return Of(predicate).Row(row);
  }
  [[nodiscard]] bool ContainsTuple(std::uint32_t predicate,
                                   RowView tuple) const {
    return Of(predicate).Contains(tuple);
  }
  [[nodiscard]] std::size_t RelationSize(std::uint32_t predicate) const {
    return Of(predicate).Size();
  }

  [[nodiscard]] std::size_t MemoryBytes() const;

  /// Publishes store counters as `<prefix>*` gauges/counters (see
  /// docs/OBSERVABILITY.md, "store.*").
  void ExportMetrics(obs::MetricsRegistry& registry,
                     const std::string& prefix = "store.") const;

 private:
  /// One cached column index: hash-tagged slots (high 32 = tag, low 32 =
  /// group id + 1, 0 = empty) over `groups`.  A group stores no key tuple —
  /// its key IS the indexed columns of its first row, read straight from
  /// the relation's arena — so neither building nor probing ever
  /// materializes or re-hashes a heap key.  A refresh publishes the new
  /// version stamp with a release store so the lock-free fast path can
  /// trust everything it reads after its acquire load.
  struct CachedIndex {
    struct Group {
      std::uint64_t hash = 0;
      /// Representative row (== rows.front()), denormalized so a probe's
      /// key comparison reads the arena directly instead of chasing the
      /// rows vector's heap buffer first.
      std::uint32_t rep = 0;
      std::vector<std::uint32_t> rows;  ///< row ids
    };
    std::vector<std::uint64_t> slots;
    std::vector<Group> groups;
    /// Relation version the index reflects; ~0 = never refreshed (never
    /// fresh: versions start at 0 and only count up).  Written with release
    /// after a refresh, read with acquire by the lock-free fast path.
    std::atomic<std::uint64_t> seen_version{~std::uint64_t{0}};
    /// Erase epoch / row watermark the index reflects.  Only touched under
    /// the refresh mutex.
    std::uint64_t seen_epoch = ~std::uint64_t{0};
    std::uint32_t rows_indexed = 0;
  };

  /// One intrusive cache entry per (predicate, column-bitmask); entries are
  /// fully constructed, then pushed at the head (release) under the refresh
  /// mutex and never removed, so a lock-free walk (acquire on head, plain
  /// next) is safe and a PreparedIndex pointer stays valid for the store's
  /// lifetime.
  struct CacheEntry {
    std::uint64_t mask = 0;
    CachedIndex index;
    CacheEntry* next = nullptr;
  };

  /// Per-predicate cache: lock-free entry list + refresh mutex.
  struct PredicateCache {
    std::atomic<CacheEntry*> head{nullptr};
    std::mutex refresh_mutex;
    ~PredicateCache() {
      CacheEntry* e = head.load(std::memory_order_relaxed);
      while (e != nullptr) {
        CacheEntry* next = e->next;
        delete e;
        e = next;
      }
    }
  };

 public:
  /// A resolved (predicate, column set) index, probe-able without locks.
  /// Obtain per rule application via Prepare(); valid while the underlying
  /// relation is unchanged — the same contract as a Lookup() span, which is
  /// what join levels already rely on.  `columns` must outlive the handle
  /// (the join plan owns it).
  struct PreparedIndex {
    const CachedIndex* cached = nullptr;
    const Relation* relation = nullptr;
    const std::vector<std::size_t>* columns = nullptr;
  };

  /// Brings the (predicate, columns) index up to date and hands back a
  /// lock-free probe handle.  When the index is already fresh this takes no
  /// lock at all: an acquire walk of the entry list plus one acquire stamp
  /// load.  The per-probe hot path then costs one hash and one
  /// open-addressing scan.
  [[nodiscard]] PreparedIndex Prepare(
      std::uint32_t predicate, const std::vector<std::size_t>& columns) const;

  /// Rows matching `key` in a prepared index.
  [[nodiscard]] static std::span<const std::uint32_t> LookupPrepared(
      const PreparedIndex& prepared, const Tuple& key) {
    const CachedIndex::Group* group =
        FindGroup(*prepared.cached, *prepared.relation, *prepared.columns,
                  key, HashValues(key));
    return group == nullptr ? std::span<const std::uint32_t>()
                            : std::span<const std::uint32_t>(group->rows);
  }

  /// The row behind an id produced by LookupPrepared on the same handle.
  [[nodiscard]] static RowView RowIn(const PreparedIndex& prepared,
                                     std::uint32_t row) {
    return prepared.relation->Row(row);
  }

 private:
  /// Entry for `mask` in `cache`, or nullptr.  Lock-free.
  [[nodiscard]] static CacheEntry* FindEntry(const PredicateCache& cache,
                                             std::uint64_t mask);

  /// True iff `cached` reflects the current version of `relation` (the
  /// acquire load pairs with RefreshIndex's release store).
  [[nodiscard]] static bool IsFresh(const CachedIndex& cached,
                                    const Relation& relation);

  /// Brings an entry up to date with its relation; caller holds the
  /// predicate's refresh mutex.
  void RefreshIndex(CachedIndex& cached, const Relation& relation,
                    const std::vector<std::size_t>& columns) const;

  /// Group whose key equals `key` (hash `hash`), or nullptr.
  static const CachedIndex::Group* FindGroup(
      const CachedIndex& cached, const Relation& relation,
      const std::vector<std::size_t>& columns, RowView key,
      std::uint64_t hash);

  /// Recreates one empty cache per relation (caches are not copyable).
  void ResetCaches();

  std::vector<Relation> relations_;
  mutable std::vector<std::unique_ptr<PredicateCache>> caches_;
  // Cache-path counters (relaxed; monotone).
  mutable std::atomic<std::uint64_t> prepare_fast_{0};
  mutable std::atomic<std::uint64_t> prepare_locked_{0};
  mutable std::atomic<std::uint64_t> index_rebuilds_{0};
  mutable std::atomic<std::uint64_t> index_extend_rows_{0};
};

}  // namespace dsched::datalog
