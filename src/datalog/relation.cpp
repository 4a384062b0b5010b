#include "datalog/relation.hpp"

#include <algorithm>
#include <array>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace dsched::datalog {

namespace {

/// Open-addressing tables grow past 7/8 full (power-of-two capacities keep
/// the probe mask a single AND).
constexpr std::size_t kMinSlots = 16;

[[nodiscard]] bool NeedsGrow(std::size_t entries, std::size_t capacity) {
  return (entries + 1) * 8 > capacity * 7;
}

[[nodiscard]] std::size_t SlotCapacityFor(std::size_t entries) {
  std::size_t capacity = kMinSlots;
  while (NeedsGrow(entries, capacity)) {
    capacity *= 2;
  }
  return capacity;
}

/// Slot word layout shared by the membership table and cached indexes:
/// high 32 bits carry a hash tag, low 32 bits the payload id + 1 (0 =
/// empty slot).  The tag filters mismatches from the slot word alone —
/// no per-entry memory is touched until the tag agrees.
constexpr std::uint64_t kTagMask = 0xffffffff00000000ULL;
constexpr std::uint64_t kIdMask = 0x00000000ffffffffULL;

[[nodiscard]] std::uint64_t SlotWord(std::uint64_t hash, std::uint32_t id) {
  return (hash & kTagMask) | (std::uint64_t{id} + 1);
}

/// Hash of `row` restricted to `columns`, equal by construction to
/// HashValues over the gathered key tuple (lookups hash flat keys).
[[nodiscard]] std::uint64_t HashRowColumns(
    RowView row, const std::vector<std::size_t>& columns) {
  std::array<Value, 32> scratch;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    scratch[i] = row[columns[i]];
  }
  return HashValues({scratch.data(), columns.size()});
}

[[nodiscard]] bool RowColumnsEqual(RowView row,
                                   const std::vector<std::size_t>& columns,
                                   RowView key) {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (!(row[columns[i]] == key[i])) {
      return false;
    }
  }
  return true;
}

/// Row-to-row variant: both sides are full rows; compare the indexed
/// columns in place.
[[nodiscard]] bool RowColumnsSame(RowView a, RowView b,
                                  const std::vector<std::size_t>& columns) {
  for (const std::size_t c : columns) {
    if (!(a[c] == b[c])) {
      return false;
    }
  }
  return true;
}

}  // namespace

// --- Relation: copies -------------------------------------------------------

Relation& Relation::operator=(const Relation& other) {
  if (this != &other) {
    arity_ = other.arity_;
    arena_ = other.arena_;
    hashes_ = other.hashes_;
    slots_ = other.slots_;
    num_rows_.store(other.num_rows_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    version_.store(other.version_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    erase_epoch_.store(other.erase_epoch_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  }
  return *this;
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this != &other) {
    arity_ = other.arity_;
    arena_ = std::move(other.arena_);
    hashes_ = std::move(other.hashes_);
    slots_ = std::move(other.slots_);
    // The moved-from relation is left empty, with fresh counters.
    num_rows_.store(other.num_rows_.exchange(0, std::memory_order_relaxed),
                    std::memory_order_relaxed);
    version_.store(other.version_.exchange(0, std::memory_order_relaxed),
                   std::memory_order_relaxed);
    erase_epoch_.store(
        other.erase_epoch_.exchange(0, std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  return *this;
}

// --- Relation: reads --------------------------------------------------------

std::vector<Tuple> Relation::Tuples() const {
  std::vector<Tuple> out;
  out.reserve(Size());
  ForEachRow([&out](std::uint32_t, RowView row) {
    out.emplace_back(row.begin(), row.end());
  });
  return out;
}

std::size_t Relation::FindSlot(RowView tuple, std::uint64_t hash) const {
  if (slots_.empty()) {
    return kNoSlot;
  }
  const std::size_t mask = slots_.size() - 1;
  const std::uint64_t tag = hash & kTagMask;
  std::size_t slot = hash & mask;
  while (slots_[slot] != 0) {
    if ((slots_[slot] & kTagMask) == tag) {
      const auto row = static_cast<std::uint32_t>((slots_[slot] & kIdMask) - 1);
      if (std::equal(tuple.begin(), tuple.end(),
                     arena_.data() + std::size_t{row} * arity_)) {
        return slot;
      }
    }
    slot = (slot + 1) & mask;
  }
  return kNoSlot;
}

bool Relation::Contains(RowView tuple) const {
  if (tuple.size() != arity_ || Empty()) {
    return false;
  }
  return FindSlot(tuple, HashValues(tuple)) != kNoSlot;
}

// --- Relation: single-owner mutation ---------------------------------------

void Relation::Rehash(std::size_t capacity) {
  slots_.assign(capacity, 0);
  const std::size_t mask = capacity - 1;
  const std::uint32_t rows = num_rows_.load(std::memory_order_relaxed);
  for (std::uint32_t row = 0; row < rows; ++row) {
    std::size_t slot = hashes_[row] & mask;
    while (slots_[slot] != 0) {
      slot = (slot + 1) & mask;
    }
    slots_[slot] = SlotWord(hashes_[row], row);
  }
}

bool Relation::Insert(RowView tuple) {
  DSCHED_CHECK_MSG(tuple.size() == arity_, "tuple arity mismatch");
  const std::uint64_t hash = HashValues(tuple);
  if (slots_.empty()) {
    slots_.assign(kMinSlots, 0);
  }
  if (FindSlot(tuple, hash) != kNoSlot) {
    return false;
  }
  const std::uint32_t rows = num_rows_.load(std::memory_order_relaxed);
  DSCHED_CHECK_MSG(rows < kExtraBit, "relation row capacity exceeded");
  if (NeedsGrow(rows, slots_.size())) {
    Rehash(slots_.size() * 2);
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = hash & mask;
  while (slots_[slot] != 0) {
    slot = (slot + 1) & mask;
  }
  slots_[slot] = SlotWord(hash, rows);
  arena_.insert(arena_.end(), tuple.begin(), tuple.end());
  hashes_.push_back(hash);
  num_rows_.store(rows + 1, std::memory_order_relaxed);
  version_.store(version_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  return true;
}

bool Relation::Erase(RowView tuple) {
  if (tuple.size() != arity_ || Empty()) {
    return false;
  }
  const std::size_t slot = FindSlot(tuple, HashValues(tuple));
  if (slot == kNoSlot) {
    return false;
  }
  const auto row = static_cast<std::uint32_t>((slots_[slot] & kIdMask) - 1);

  // Backward-shift deletion: pull displaced entries toward their ideal
  // slots so every remaining entry stays reachable without tombstones.
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = slot;
  std::size_t scan = slot;
  while (true) {
    scan = (scan + 1) & mask;
    if (slots_[scan] == 0) {
      break;
    }
    const std::size_t ideal = hashes_[(slots_[scan] & kIdMask) - 1] & mask;
    const bool movable = (scan > hole) ? (ideal <= hole || ideal > scan)
                                       : (ideal <= hole && ideal > scan);
    if (movable) {
      slots_[hole] = slots_[scan];
      hole = scan;
    }
  }
  slots_[hole] = 0;

  // Swap-removal in the arena; the moved row keeps its hash, its table
  // entry is repointed at its new id.
  const std::uint32_t last = num_rows_.load(std::memory_order_relaxed) - 1;
  if (row != last) {
    std::copy_n(arena_.data() + std::size_t{last} * arity_, arity_,
                arena_.data() + std::size_t{row} * arity_);
    hashes_[row] = hashes_[last];
    std::size_t s = hashes_[last] & mask;
    while ((slots_[s] & kIdMask) != std::uint64_t{last} + 1) {
      s = (s + 1) & mask;
    }
    slots_[s] = SlotWord(hashes_[last], row);
  }
  arena_.resize(std::size_t{last} * arity_);
  hashes_.pop_back();
  num_rows_.store(last, std::memory_order_relaxed);
  version_.store(version_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  erase_epoch_.store(erase_epoch_.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  return true;
}

void Relation::Reserve(std::size_t rows) {
  // Keep amortized growth: a reserve that barely exceeds the current
  // capacity must not pin the vector to exact-size reallocations.
  if (rows * arity_ > arena_.capacity()) {
    arena_.reserve(std::max(rows * arity_, arena_.capacity() * 2));
  }
  if (rows > hashes_.capacity()) {
    hashes_.reserve(std::max(rows, hashes_.capacity() * 2));
  }
  const std::size_t capacity = SlotCapacityFor(rows);
  if (capacity > slots_.size()) {
    Rehash(capacity);
  }
}

std::size_t Relation::MemoryBytes() const {
  return arena_.capacity() * sizeof(Value) +
         hashes_.capacity() * sizeof(std::uint64_t) +
         slots_.capacity() * sizeof(std::uint64_t);
}

// --- RelationStore ----------------------------------------------------------

RelationStore::RelationStore(const Program& program) {
  EnsurePredicates(program);
}

void RelationStore::EnsurePredicates(const Program& program) {
  DSCHED_CHECK_MSG(program.NumPredicates() >= relations_.size(),
                   "program lost predicates");
  for (std::size_t p = relations_.size(); p < program.NumPredicates(); ++p) {
    DSCHED_CHECK_MSG(program.predicate_arities[p] <= 32,
                     "predicate arity above 32 is unsupported");
    relations_.emplace_back(program.predicate_arities[p]);
    caches_.push_back(std::make_unique<PredicateCache>());
  }
}

void RelationStore::ResetCaches() {
  caches_.clear();
  caches_.reserve(relations_.size());
  for (std::size_t p = 0; p < relations_.size(); ++p) {
    caches_.push_back(std::make_unique<PredicateCache>());
  }
}

Relation& RelationStore::Of(std::uint32_t predicate) {
  DSCHED_CHECK_MSG(predicate < relations_.size(), "unknown predicate id");
  return relations_[predicate];
}

const Relation& RelationStore::Of(std::uint32_t predicate) const {
  DSCHED_CHECK_MSG(predicate < relations_.size(), "unknown predicate id");
  return relations_[predicate];
}

std::size_t RelationStore::TotalTuples() const {
  std::size_t total = 0;
  for (const Relation& r : relations_) {
    total += r.Size();
  }
  return total;
}

RelationStore::CacheEntry* RelationStore::FindEntry(
    const PredicateCache& cache, std::uint64_t mask) {
  CacheEntry* entry = cache.head.load(std::memory_order_acquire);
  while (entry != nullptr && entry->mask != mask) {
    entry = entry->next;
  }
  return entry;
}

bool RelationStore::IsFresh(const CachedIndex& cached,
                            const Relation& relation) {
  return cached.seen_version.load(std::memory_order_acquire) ==
         relation.Version();
}

void RelationStore::RefreshIndex(
    CachedIndex& cached, const Relation& relation,
    const std::vector<std::size_t>& columns) const {
  const auto size = static_cast<std::uint32_t>(relation.Size());
  if (cached.seen_epoch != relation.EraseEpoch() ||
      cached.rows_indexed > size) {
    // An erasure invalidated row ids: full rebuild.
    cached.slots.clear();
    cached.groups.clear();
    cached.seen_epoch = relation.EraseEpoch();
    cached.rows_indexed = 0;
    index_rebuilds_.fetch_add(1, std::memory_order_relaxed);
  }

  const auto rehash = [&cached](std::size_t capacity) {
    cached.slots.assign(capacity, 0);
    const std::size_t mask = capacity - 1;
    for (std::uint32_t g = 0; g < cached.groups.size(); ++g) {
      std::size_t slot = cached.groups[g].hash & mask;
      while (cached.slots[slot] != 0) {
        slot = (slot + 1) & mask;
      }
      cached.slots[slot] = SlotWord(cached.groups[g].hash, g);
    }
  };

  const auto add_row = [&](std::uint32_t id) {
    const RowView row_view = relation.Row(id);
    const std::uint64_t hash = HashRowColumns(row_view, columns);
    if (cached.slots.empty()) {
      cached.slots.assign(kMinSlots, 0);
    }
    const std::uint64_t tag = hash & kTagMask;
    std::size_t mask = cached.slots.size() - 1;
    std::size_t slot = hash & mask;
    while (cached.slots[slot] != 0) {
      if ((cached.slots[slot] & kTagMask) == tag) {
        CachedIndex::Group& group =
            cached.groups[(cached.slots[slot] & kIdMask) - 1];
        if (group.hash == hash &&
            RowColumnsSame(row_view, relation.Row(group.rep), columns)) {
          // Same key as the group's representative row: append.
          group.rows.push_back(id);
          return;
        }
      }
      slot = (slot + 1) & mask;
    }
    if (NeedsGrow(cached.groups.size(), cached.slots.size())) {
      rehash(cached.slots.size() * 2);
      mask = cached.slots.size() - 1;
      slot = hash & mask;
      while (cached.slots[slot] != 0) {
        slot = (slot + 1) & mask;
      }
    }
    CachedIndex::Group group;
    group.hash = hash;
    group.rep = id;
    group.rows.push_back(id);
    cached.groups.push_back(std::move(group));
    cached.slots[slot] =
        SlotWord(hash, static_cast<std::uint32_t>(cached.groups.size() - 1));
  };

  // Append-only fast path: index just the new rows.  This is the
  // semi-naive hot path — fixpoint rounds insert small deltas between
  // lookups, and an O(Δ) extension beats an O(|R|) rebuild per round.
  for (std::uint32_t id = cached.rows_indexed; id < size; ++id) {
    add_row(id);
  }
  index_extend_rows_.fetch_add(size - cached.rows_indexed,
                               std::memory_order_relaxed);
  cached.rows_indexed = size;

  // Publish the new stamp last: a lock-free reader that sees it fresh
  // (acquire) is guaranteed to see every structure write above.
  cached.seen_version.store(relation.Version(), std::memory_order_release);
}

const RelationStore::CachedIndex::Group* RelationStore::FindGroup(
    const CachedIndex& cached, const Relation& relation,
    const std::vector<std::size_t>& columns, RowView key,
    std::uint64_t hash) {
  if (cached.slots.empty()) {
    return nullptr;
  }
  const std::size_t mask = cached.slots.size() - 1;
  const std::uint64_t tag = hash & kTagMask;
  std::size_t slot = hash & mask;
  while (cached.slots[slot] != 0) {
    if ((cached.slots[slot] & kTagMask) == tag) {
      const CachedIndex::Group& group =
          cached.groups[(cached.slots[slot] & kIdMask) - 1];
      if (RowColumnsEqual(relation.Row(group.rep), columns, key)) {
        return &group;
      }
    }
    slot = (slot + 1) & mask;
  }
  return nullptr;
}

RelationStore::PreparedIndex RelationStore::Prepare(
    std::uint32_t predicate, const std::vector<std::size_t>& columns) const {
  const Relation& relation = Of(predicate);
  std::uint64_t mask = 0;
  for (const std::size_t c : columns) {
    DSCHED_CHECK_MSG(c < relation.Arity(), "index column out of range");
    mask |= (std::uint64_t{1} << c);
  }
  PredicateCache& cache = *caches_[predicate];
  // Read-mostly fast path: a fresh entry needs no lock at all — an acquire
  // walk of the entry list plus one acquire stamp load.
  // The handle stays valid after return — see the class comment.
  if (CacheEntry* entry = FindEntry(cache, mask);
      entry != nullptr && IsFresh(entry->index, relation)) {
    prepare_fast_.fetch_add(1, std::memory_order_relaxed);
    return {&entry->index, &relation, &columns};
  }
  // Stale or missing: take the refresh mutex and recheck (another phase
  // may have refreshed the entry while we waited).
  const std::lock_guard<std::mutex> lock(cache.refresh_mutex);
  CacheEntry* entry = FindEntry(cache, mask);
  if (entry == nullptr) {
    entry = new CacheEntry;
    entry->mask = mask;
    entry->next = cache.head.load(std::memory_order_relaxed);
    cache.head.store(entry, std::memory_order_release);
  }
  if (!IsFresh(entry->index, relation)) {
    RefreshIndex(entry->index, relation, columns);
  }
  prepare_locked_.fetch_add(1, std::memory_order_relaxed);
  return {&entry->index, &relation, &columns};
}

std::span<const std::uint32_t> RelationStore::Lookup(
    std::uint32_t predicate, const std::vector<std::size_t>& columns,
    const Tuple& key) const {
  return LookupPrepared(Prepare(predicate, columns), key);
}

std::size_t RelationStore::IndexDistinct(
    std::uint32_t predicate, const std::vector<std::size_t>& columns) const {
  const Relation& relation = Of(predicate);
  std::uint64_t mask = 0;
  for (const std::size_t c : columns) {
    mask |= (std::uint64_t{1} << c);
  }
  const CacheEntry* entry = FindEntry(*caches_[predicate], mask);
  if (entry == nullptr || !IsFresh(entry->index, relation)) {
    return 0;
  }
  return entry->index.groups.size();
}

std::size_t RelationStore::MemoryBytes() const {
  std::size_t bytes = 0;
  for (const Relation& r : relations_) {
    bytes += r.MemoryBytes();
  }
  for (const auto& cache : caches_) {
    const std::lock_guard<std::mutex> lock(cache->refresh_mutex);
    for (const CacheEntry* entry =
             cache->head.load(std::memory_order_acquire);
         entry != nullptr; entry = entry->next) {
      const CachedIndex& index = entry->index;
      bytes += index.slots.capacity() * sizeof(std::uint64_t) +
               index.groups.capacity() * sizeof(CachedIndex::Group);
      for (const CachedIndex::Group& group : index.groups) {
        bytes += group.rows.capacity() * sizeof(std::uint32_t);
      }
    }
  }
  return bytes;
}

void RelationStore::ExportMetrics(obs::MetricsRegistry& registry,
                                  const std::string& prefix) const {
  registry.Set(prefix + "prepare_fast",
               prepare_fast_.load(std::memory_order_relaxed));
  registry.Set(prefix + "prepare_locked",
               prepare_locked_.load(std::memory_order_relaxed));
  registry.Set(prefix + "index_rebuilds",
               index_rebuilds_.load(std::memory_order_relaxed));
  registry.Set(prefix + "index_extend_rows",
               index_extend_rows_.load(std::memory_order_relaxed));
  registry.Set(prefix + "rows", TotalTuples());
}

}  // namespace dsched::datalog
