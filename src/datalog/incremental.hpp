// Incremental maintenance of a materialized Datalog program: insertions via
// semi-naive continuation, deletions via DRed (delete-and-rederive,
// Gupta-Mumick-Subrahmanian), with stratified negation handled in both
// directions (insertions into a negated predicate destroy derivations;
// deletions from one create them).
//
// This is the computation whose task graph the paper schedules: an update
// touches base predicates, the change cascades component by component down
// the dependency DAG, and a component whose inputs changed may or may not
// change its own output.  ComponentUpdateStats records exactly that —
// schedule_bridge.hpp turns a recorded update into a JobTrace.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <string>
#include <vector>

#include "datalog/eval.hpp"
#include "datalog/relation.hpp"
#include "datalog/stratify.hpp"

namespace dsched::datalog {

/// A hash set of tuples (the phases' per-predicate bookkeeping).
using TupleSet = std::unordered_set<Tuple, TupleHash, TupleEq>;

/// A batch of base-fact changes.
struct UpdateRequest {
  /// (predicate, tuple) pairs to add.  Already-present tuples are no-ops.
  std::vector<std::pair<std::uint32_t, Tuple>> insertions;
  /// (predicate, tuple) pairs to remove.  Absent tuples are no-ops.  A
  /// tuple still derivable by some rule is rederived, per DRed semantics.
  std::vector<std::pair<std::uint32_t, Tuple>> deletions;

  [[nodiscard]] bool Empty() const {
    return insertions.empty() && deletions.empty();
  }
};

/// What happened to one component during an update.
struct ComponentUpdateStats {
  std::uint32_t component = 0;
  /// Did any input (body predicate delta or base change to a member) touch
  /// this component?  — "activated" in the paper's model.
  bool input_changed = false;
  /// Did the component's own relations net-change? — "output changed".
  bool output_changed = false;
  std::size_t tuples_overdeleted = 0;
  std::size_t tuples_rederived = 0;
  std::size_t tuples_inserted = 0;  ///< net new tuples of member predicates
  std::size_t tuples_deleted = 0;   ///< net removed tuples
  // Maintenance-strategy effort (see maintenance.hpp).  maint_ops is the
  // uniform tuple-level operation count the strategies are compared on:
  // store mutations + derivability checks + backward probes of the
  // deletion pipeline.  Insertion-side work (the semi-naive continuation)
  // is excluded everywhere, so the metric compares what each strategy
  // does about deletions, the axis they actually differ on.
  std::size_t maint_ops = 0;
  std::size_t maint_backward_probes = 0;  ///< B/F: aliveness probes
  std::size_t maint_avoided = 0;  ///< deletions DRed would do, skipped here
  double seconds = 0.0;           ///< wall time spent on this component
  EvalStats eval;
};

/// Result of one update cascade.
struct UpdateResult {
  std::vector<ComponentUpdateStats> components;  ///< in evaluation order
  std::size_t total_inserted = 0;
  std::size_t total_deleted = 0;
  std::size_t total_maint_ops = 0;  ///< summed ComponentUpdateStats::maint_ops
  double seconds = 0.0;

  [[nodiscard]] std::string ToString(const Program& program,
                                     const Stratification& strat) const;
};

/// Net change to one predicate, finalized when its component's phase ends.
struct PredicateDelta {
  std::vector<Tuple> inserted;
  std::vector<Tuple> deleted;

  [[nodiscard]] bool Empty() const { return inserted.empty() && deleted.empty(); }
};

/// Base changes grouped per predicate (index = predicate id).
struct GroupedBaseChanges {
  std::vector<std::vector<Tuple>> insertions;
  std::vector<std::vector<Tuple>> deletions;

  GroupedBaseChanges() = default;
  /// Throws util::InvalidArgument on an unknown predicate id or when a
  /// tuple's arity does not match its predicate's.
  GroupedBaseChanges(const Program& program, const UpdateRequest& request);
};

/// Read-only view of the PRE-update contents of the store, expressed as the
/// live store minus this update's insertions plus its deletions — so DRed's
/// overdeletion can join against the old state without snapshotting the
/// database (the deltas are small; the database is not).
///
/// Row-id space per predicate: ids without Relation::kExtraBit are live rows
/// (ids straight from the live store's indexes, so its caches are reused —
/// a live Relation never produces an id with bit 31 set), and ids with the
/// bit set address the "deleted extras" — tuples removed from the live store
/// that the old state still contains.  Member-phase deletions are appended
/// via AddDeletedExtra as the phase erases them.
///
/// Implements the same read interface as RelationStore (ContainsTuple /
/// RowAt / Lookup), which is what the join machinery is instantiated over.
class OldStateView {
 public:
  /// Snapshots the deltas of exactly `relevant` predicates (the phase's
  /// rule-body predicates and members).  Restricting the read set is what
  /// keeps the parallel engine race-free: net entries of incomparable
  /// components may be mid-write, but they are never relevant here.
  OldStateView(const RelationStore& live,
               const std::vector<PredicateDelta>& net,
               const std::vector<std::uint32_t>& relevant);

  /// Registers a tuple the current phase just erased from the live store.
  void AddDeletedExtra(std::uint32_t predicate, const Tuple& tuple);

  [[nodiscard]] bool ContainsTuple(std::uint32_t predicate,
                                   RowView tuple) const;
  [[nodiscard]] RowView RowAt(std::uint32_t predicate,
                              std::uint32_t row) const;
  [[nodiscard]] std::vector<std::uint32_t> Lookup(
      std::uint32_t predicate, const std::vector<std::size_t>& columns,
      const Tuple& key) const;

  /// Prepared-probe interface mirroring RelationStore's: a handle resolved
  /// once per rule application, probed per binding without re-resolving the
  /// live store's cache entry.  Unlike the live store's span-returning
  /// probe, results materialize a vector (live ids are filtered against the
  /// update's insertions and extras are appended) — acceptable because
  /// DRed's overdeletion runs over small deltas.
  struct PreparedIndex {
    std::uint32_t predicate = 0;
    const std::vector<std::size_t>* columns = nullptr;
    RelationStore::PreparedIndex live;
  };
  [[nodiscard]] PreparedIndex Prepare(
      std::uint32_t predicate, const std::vector<std::size_t>& columns) const;
  [[nodiscard]] std::vector<std::uint32_t> LookupPrepared(
      const PreparedIndex& prepared, const Tuple& key) const;
  [[nodiscard]] RowView RowIn(const PreparedIndex& prepared,
                              std::uint32_t row) const {
    return RowAt(prepared.predicate, row);
  }

  // Join-planner statistics (uniform join-source interface).  Sizes count
  // the old state; fan-outs are approximated by the live store's indexes
  // (the deltas are small, so live fan-out is the right estimate).
  [[nodiscard]] std::size_t RelationSize(std::uint32_t predicate) const;
  [[nodiscard]] std::size_t IndexDistinct(
      std::uint32_t predicate, const std::vector<std::size_t>& columns) const;

 private:
  const RelationStore& live_;
  std::vector<TupleSet> inserted_;      ///< live-only tuples (not in old state)
  std::vector<std::vector<Tuple>> extras_;  ///< old-only tuples, id-addressable
  std::vector<TupleSet> extras_set_;
};

/// ApplyRule against the old state (defined alongside the join machinery in
/// eval.cpp; the template there is instantiated for both sources).
void ApplyRuleOldState(const Program& program, const OldStateView& old_state,
                       const Rule& rule, const DeltaRestriction& restriction,
                       EvalStats& stats,
                       const std::function<void(const Tuple&)>& emit);

/// True iff `component`'s inputs are touched by the given base changes or
/// lower-predicate net deltas — the "activated" test of the paper's model.
[[nodiscard]] bool ComponentInputTouched(const Program& program,
                                         const Stratification& strat,
                                         std::uint32_t component,
                                         const GroupedBaseChanges& base,
                                         const std::vector<PredicateDelta>& net);

/// Runs one component's full DRed phase: overdeletion against the old state
/// (an OldStateView built from `store` and `net`), rederivation,
/// negation-driven insertions, and the semi-naive insertion continuation —
/// then finalizes the member entries of `net`.
///
/// Thread compatibility (used by the parallel engine): writes only the
/// member relations of `component` in `store`, the member entries of
/// `net`, and the returned stats; reads lower predicates' relations and
/// `net` entries, which the caller must have finalized (the dependency
/// DAG's precedence).
ComponentUpdateStats RunComponentPhase(const Program& program,
                                       const Stratification& strat,
                                       std::uint32_t component,
                                       RelationStore& store,
                                       const GroupedBaseChanges& base,
                                       std::vector<PredicateDelta>& net);

/// The base-insertion step every maintenance phase shares: inserts the
/// base insertions of `component`'s member predicates into `store` and
/// records each fresh tuple in `phase_inserted` and in `member_seed`, the
/// semi-naive continuation's seed.
void InsertBaseTuples(const Stratification& strat, std::uint32_t component,
                      RelationStore& store, const GroupedBaseChanges& base,
                      std::vector<TupleSet>& phase_inserted,
                      DeltaMap& member_seed);

}  // namespace dsched::datalog
