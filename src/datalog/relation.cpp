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

[[nodiscard]] std::size_t RoundUpPowerOfTwo(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p *= 2;
  }
  return p;
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

// --- Relation: construction & copies ---------------------------------------

Relation::Relation(std::size_t arity, std::size_t shards) : arity_(arity) {
  InitShards(shards);
}

void Relation::InitShards(std::size_t shards) {
  num_shards_ = RoundUpPowerOfTwo(std::max<std::size_t>(shards, 1));
  shard_bits_ = 0;
  while ((std::size_t{1} << shard_bits_) < num_shards_) {
    ++shard_bits_;
  }
  shard_mask_ = num_shards_ - 1;
  shards_ = std::make_unique<Shard[]>(num_shards_);
}

void Relation::CopyFrom(const Relation& other) {
  arity_ = other.arity_;
  InitShards(other.num_shards_);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    Shard& dst = shards_[s];
    const Shard& src = other.shards_[s];
    dst.arena = src.arena;
    dst.hashes = src.hashes;
    dst.slots = src.slots;
    dst.num_rows.store(src.num_rows.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    dst.version.store(src.version.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    dst.erase_epoch.store(src.erase_epoch.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  }
}

Relation::Relation(const Relation& other) { CopyFrom(other); }

Relation& Relation::operator=(const Relation& other) {
  if (this != &other) {
    CopyFrom(other);
  }
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : arity_(other.arity_),
      num_shards_(other.num_shards_),
      shard_bits_(other.shard_bits_),
      shard_mask_(other.shard_mask_),
      shards_(std::move(other.shards_)) {
  other.InitShards(1);
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this != &other) {
    arity_ = other.arity_;
    num_shards_ = other.num_shards_;
    shard_bits_ = other.shard_bits_;
    shard_mask_ = other.shard_mask_;
    shards_ = std::move(other.shards_);
    other.InitShards(1);
  }
  return *this;
}

// --- Relation: reads --------------------------------------------------------

std::size_t Relation::Size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    total += shards_[s].num_rows.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Relation::Version() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    total += shards_[s].version.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Relation::EraseEpoch() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    total += shards_[s].erase_epoch.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<Tuple> Relation::Tuples() const {
  std::vector<Tuple> out;
  out.reserve(Size());
  ForEachRow([&out](std::uint32_t, RowView row) {
    out.emplace_back(row.begin(), row.end());
  });
  return out;
}

std::size_t Relation::FindSlotLocal(const Shard& shard, RowView tuple,
                                    std::uint64_t hash) const {
  if (shard.slots.empty()) {
    return kNoSlot;
  }
  const std::size_t mask = shard.slots.size() - 1;
  const std::uint64_t tag = hash & kTagMask;
  std::size_t slot = hash & mask;
  while (shard.slots[slot] != 0) {
    if ((shard.slots[slot] & kTagMask) == tag) {
      const auto local =
          static_cast<std::uint32_t>((shard.slots[slot] & kIdMask) - 1);
      if (std::equal(tuple.begin(), tuple.end(),
                     shard.arena.data() + std::size_t{local} * arity_)) {
        return slot;
      }
    }
    slot = (slot + 1) & mask;
  }
  return kNoSlot;
}

bool Relation::Contains(RowView tuple) const {
  if (tuple.size() != arity_) {
    return false;
  }
  const std::uint64_t hash = HashValues(tuple);
  const Shard& shard = shards_[ShardOfHash(hash)];
  if (shard.num_rows.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  return FindSlotLocal(shard, tuple, hash) != kNoSlot;
}

// --- Relation: single-owner mutation ---------------------------------------

void Relation::RehashShard(Shard& shard, std::size_t capacity) {
  shard.slots.assign(capacity, 0);
  const std::size_t mask = capacity - 1;
  const std::uint32_t rows = shard.num_rows.load(std::memory_order_relaxed);
  for (std::uint32_t local = 0; local < rows; ++local) {
    std::size_t slot = shard.hashes[local] & mask;
    while (shard.slots[slot] != 0) {
      slot = (slot + 1) & mask;
    }
    shard.slots[slot] = SlotWord(shard.hashes[local], local);
  }
}

bool Relation::InsertLocal(Shard& shard, RowView tuple, std::uint64_t hash) {
  if (shard.slots.empty()) {
    shard.slots.assign(kMinSlots, 0);
  }
  if (FindSlotLocal(shard, tuple, hash) != kNoSlot) {
    return false;
  }
  const std::uint32_t rows = shard.num_rows.load(std::memory_order_relaxed);
  DSCHED_CHECK_MSG(rows < (kExtraBit >> shard_bits_),
                   "relation shard row capacity exceeded");
  if (NeedsGrow(rows, shard.slots.size())) {
    RehashShard(shard, shard.slots.size() * 2);
  }
  const std::size_t mask = shard.slots.size() - 1;
  std::size_t slot = hash & mask;
  while (shard.slots[slot] != 0) {
    slot = (slot + 1) & mask;
  }
  shard.slots[slot] = SlotWord(hash, rows);
  shard.arena.insert(shard.arena.end(), tuple.begin(), tuple.end());
  shard.hashes.push_back(hash);
  shard.num_rows.store(rows + 1, std::memory_order_relaxed);
  shard.version.store(shard.version.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  return true;
}

bool Relation::EraseLocal(Shard& shard, RowView tuple, std::uint64_t hash) {
  const std::uint32_t rows = shard.num_rows.load(std::memory_order_relaxed);
  if (rows == 0) {
    return false;
  }
  const std::size_t slot = FindSlotLocal(shard, tuple, hash);
  if (slot == kNoSlot) {
    return false;
  }
  const auto local =
      static_cast<std::uint32_t>((shard.slots[slot] & kIdMask) - 1);

  // Backward-shift deletion: pull displaced entries toward their ideal
  // slots so every remaining entry stays reachable without tombstones.
  const std::size_t mask = shard.slots.size() - 1;
  std::size_t hole = slot;
  std::size_t scan = slot;
  while (true) {
    scan = (scan + 1) & mask;
    if (shard.slots[scan] == 0) {
      break;
    }
    const std::size_t ideal =
        shard.hashes[(shard.slots[scan] & kIdMask) - 1] & mask;
    const bool movable = (scan > hole) ? (ideal <= hole || ideal > scan)
                                       : (ideal <= hole && ideal > scan);
    if (movable) {
      shard.slots[hole] = shard.slots[scan];
      hole = scan;
    }
  }
  shard.slots[hole] = 0;

  // Swap-removal in the arena; the moved row keeps its hash, its table
  // entry is repointed at its new local id.
  const std::uint32_t last = rows - 1;
  if (local != last) {
    std::copy_n(shard.arena.data() + std::size_t{last} * arity_, arity_,
                shard.arena.data() + std::size_t{local} * arity_);
    shard.hashes[local] = shard.hashes[last];
    std::size_t s = shard.hashes[last] & mask;
    while ((shard.slots[s] & kIdMask) != std::uint64_t{last} + 1) {
      s = (s + 1) & mask;
    }
    shard.slots[s] = SlotWord(shard.hashes[last], local);
  }
  shard.arena.resize(std::size_t{last} * arity_);
  shard.hashes.pop_back();
  shard.num_rows.store(last, std::memory_order_relaxed);
  shard.version.store(shard.version.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  shard.erase_epoch.store(
      shard.erase_epoch.load(std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  return true;
}

bool Relation::Insert(RowView tuple) {
  DSCHED_CHECK_MSG(tuple.size() == arity_, "tuple arity mismatch");
  const std::uint64_t hash = HashValues(tuple);
  return InsertLocal(shards_[ShardOfHash(hash)], tuple, hash);
}

bool Relation::Erase(RowView tuple) {
  if (tuple.size() != arity_) {
    return false;
  }
  const std::uint64_t hash = HashValues(tuple);
  return EraseLocal(shards_[ShardOfHash(hash)], tuple, hash);
}

void Relation::Reserve(std::size_t rows) {
  const std::size_t per_shard = (rows + num_shards_ - 1) / num_shards_;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    // Keep amortized growth: a reserve that barely exceeds the current
    // capacity must not pin the vector to exact-size reallocations.
    if (per_shard * arity_ > shard.arena.capacity()) {
      shard.arena.reserve(
          std::max(per_shard * arity_, shard.arena.capacity() * 2));
    }
    if (per_shard > shard.hashes.capacity()) {
      shard.hashes.reserve(std::max(per_shard, shard.hashes.capacity() * 2));
    }
    const std::size_t capacity = SlotCapacityFor(per_shard);
    if (capacity > shard.slots.size()) {
      RehashShard(shard, capacity);
    }
  }
}

std::size_t Relation::MemoryBytes() const {
  std::size_t bytes = 0;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    const Shard& shard = shards_[s];
    bytes += shard.arena.capacity() * sizeof(Value) +
             shard.hashes.capacity() * sizeof(std::uint64_t) +
             shard.slots.capacity() * sizeof(std::uint64_t);
  }
  return bytes;
}

// --- RelationStore ----------------------------------------------------------

RelationStore::RelationStore(const Program& program, std::size_t shards)
    : default_shards_(shards) {
  relations_.reserve(program.NumPredicates());
  for (std::size_t p = 0; p < program.NumPredicates(); ++p) {
    DSCHED_CHECK_MSG(program.predicate_arities[p] <= 32,
                     "predicate arity above 32 is unsupported");
    relations_.emplace_back(program.predicate_arities[p], default_shards_);
  }
  ResetCaches();
}

void RelationStore::EnsurePredicates(const Program& program) {
  DSCHED_CHECK_MSG(program.NumPredicates() >= relations_.size(),
                   "program lost predicates");
  for (std::size_t p = relations_.size(); p < program.NumPredicates(); ++p) {
    DSCHED_CHECK_MSG(program.predicate_arities[p] <= 32,
                     "predicate arity above 32 is unsupported");
    relations_.emplace_back(program.predicate_arities[p], default_shards_);
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
  // Pairs with the release store at the end of RefreshIndex's init branch:
  // a reader that observes the published shard count also observes the
  // subs vector and the seen_version array it guards, so the stamp probe
  // below never touches an entry that is still being initialized.
  if (cached.ready_shards.load(std::memory_order_acquire) !=
      relation.NumShards()) {
    return false;
  }
  for (std::size_t s = 0; s < relation.NumShards(); ++s) {
    if (cached.seen_version[s].load(std::memory_order_acquire) !=
        relation.ShardVersion(s)) {
      return false;
    }
  }
  return true;
}

void RelationStore::RefreshIndex(
    CachedIndex& cached, const Relation& relation,
    const std::vector<std::size_t>& columns) const {
  const std::size_t num_shards = relation.NumShards();
  if (cached.subs.size() != num_shards) {
    cached.subs.assign(num_shards, CachedIndex::Sub{});
    cached.seen_version =
        std::make_unique<std::atomic<std::uint64_t>[]>(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      cached.seen_version[s].store(~std::uint64_t{0},
                                   std::memory_order_relaxed);
    }
    cached.seen_epoch.assign(num_shards, ~std::uint64_t{0});
    cached.rows_indexed.assign(num_shards, 0);
    cached.total_groups = 0;
    cached.ready_shards.store(num_shards, std::memory_order_release);
  }

  bool rebuild = false;
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (cached.seen_epoch[s] != relation.ShardEraseEpoch(s) ||
        cached.rows_indexed[s] > relation.ShardSize(s)) {
      // An erasure somewhere invalidated row ids: full rebuild.
      rebuild = true;
      break;
    }
  }
  if (rebuild) {
    for (CachedIndex::Sub& sub : cached.subs) {
      sub.slots.clear();
      sub.groups.clear();
    }
    for (std::size_t s = 0; s < num_shards; ++s) {
      cached.seen_epoch[s] = relation.ShardEraseEpoch(s);
      cached.rows_indexed[s] = 0;
    }
    cached.total_groups = 0;
    index_rebuilds_.fetch_add(1, std::memory_order_relaxed);
  }

  const auto rehash_sub = [](CachedIndex::Sub& sub, std::size_t capacity) {
    sub.slots.assign(capacity, 0);
    const std::size_t mask = capacity - 1;
    for (std::uint32_t g = 0; g < sub.groups.size(); ++g) {
      std::size_t slot = sub.groups[g].hash & mask;
      while (sub.slots[slot] != 0) {
        slot = (slot + 1) & mask;
      }
      sub.slots[slot] = SlotWord(sub.groups[g].hash, g);
    }
  };

  const auto add_row = [&](RowView row_view, std::uint32_t id,
                           std::uint64_t hash) {
    CachedIndex::Sub& sub =
        cached.subs[static_cast<std::size_t>(hash >> 24) & (num_shards - 1)];
    if (sub.slots.empty()) {
      sub.slots.assign(kMinSlots, 0);
    }
    const std::uint64_t tag = hash & kTagMask;
    std::size_t mask = sub.slots.size() - 1;
    std::size_t slot = hash & mask;
    while (sub.slots[slot] != 0) {
      if ((sub.slots[slot] & kTagMask) == tag) {
        CachedIndex::Group& group =
            sub.groups[(sub.slots[slot] & kIdMask) - 1];
        if (group.hash == hash &&
            RowColumnsSame(row_view, relation.Row(group.rep), columns)) {
          // Same key as the group's representative row: append.
          group.rows.push_back(id);
          return;
        }
      }
      slot = (slot + 1) & mask;
    }
    if (NeedsGrow(sub.groups.size(), sub.slots.size())) {
      rehash_sub(sub, sub.slots.size() * 2);
      mask = sub.slots.size() - 1;
      slot = hash & mask;
      while (sub.slots[slot] != 0) {
        slot = (slot + 1) & mask;
      }
    }
    CachedIndex::Group group;
    group.hash = hash;
    group.rep = id;
    group.rows.push_back(id);
    sub.groups.push_back(std::move(group));
    sub.slots[slot] =
        SlotWord(hash, static_cast<std::uint32_t>(sub.groups.size() - 1));
    ++cached.total_groups;
  };

  // Append-only fast path: index just the new rows of the shards the delta
  // touched.  This is the semi-naive hot path — fixpoint rounds insert
  // small deltas between lookups, and an O(Δ) extension that skips
  // untouched shards beats an O(|R|) rebuild per round.
  std::uint64_t extended = 0;
  std::uint64_t skipped = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::uint32_t size = relation.ShardSize(s);
    if (cached.rows_indexed[s] == size) {
      if (!rebuild && size > 0) {
        ++skipped;
      }
      continue;
    }
    for (std::uint32_t local = cached.rows_indexed[s]; local < size;
         ++local) {
      const RowView row = relation.ShardRow(s, local);
      add_row(row, relation.EncodeRowId(s, local),
              HashRowColumns(row, columns));
    }
    extended += size - cached.rows_indexed[s];
    cached.rows_indexed[s] = size;
  }
  index_extend_rows_.fetch_add(extended, std::memory_order_relaxed);
  index_shard_skips_.fetch_add(skipped, std::memory_order_relaxed);

  // Publish the new stamps last: a lock-free reader that sees them fresh
  // (acquire) is guaranteed to see every structure write above.
  for (std::size_t s = 0; s < num_shards; ++s) {
    cached.seen_version[s].store(relation.ShardVersion(s),
                                 std::memory_order_release);
  }
}

const RelationStore::CachedIndex::Group* RelationStore::FindGroup(
    const CachedIndex& cached, const Relation& relation,
    const std::vector<std::size_t>& columns, RowView key,
    std::uint64_t hash) {
  if (cached.subs.empty()) {
    return nullptr;
  }
  const CachedIndex::Sub& sub =
      cached.subs[static_cast<std::size_t>(hash >> 24) &
                  (cached.subs.size() - 1)];
  if (sub.slots.empty()) {
    return nullptr;
  }
  const std::size_t mask = sub.slots.size() - 1;
  const std::uint64_t tag = hash & kTagMask;
  std::size_t slot = hash & mask;
  while (sub.slots[slot] != 0) {
    if ((sub.slots[slot] & kTagMask) == tag) {
      const CachedIndex::Group& group =
          sub.groups[(sub.slots[slot] & kIdMask) - 1];
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
  // walk of the entry list plus one acquire stamp load per relation shard.
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
  return entry->index.total_groups;
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
      for (const CachedIndex::Sub& sub : entry->index.subs) {
        bytes += sub.slots.capacity() * sizeof(std::uint64_t) +
                 sub.groups.capacity() * sizeof(CachedIndex::Group);
        for (const CachedIndex::Group& group : sub.groups) {
          bytes += group.rows.capacity() * sizeof(std::uint32_t);
        }
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
  registry.Set(prefix + "index_shard_skips",
               index_shard_skips_.load(std::memory_order_relaxed));
  std::uint64_t rows = 0;
  std::uint64_t max_shard_rows = 0;
  std::size_t shards = 0;
  for (const Relation& r : relations_) {
    shards = std::max(shards, r.NumShards());
    for (std::size_t s = 0; s < r.NumShards(); ++s) {
      rows += r.ShardSize(s);
      max_shard_rows = std::max<std::uint64_t>(max_shard_rows, r.ShardSize(s));
    }
  }
  registry.Set(prefix + "shards", shards);
  registry.Set(prefix + "rows", rows);
  registry.Set(prefix + "shard_rows_max", max_shard_rows);
}

}  // namespace dsched::datalog
