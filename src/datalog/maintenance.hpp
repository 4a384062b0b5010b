// Pluggable incremental-maintenance strategies.
//
// DRed (incremental.hpp) is pessimistic on deletions: it overdeletes every
// tuple that MIGHT have lost support, then rederives the survivors.  On
// deletion-heavy updates with redundant derivations that is the hot path's
// dominant cost.  This module adds the classic alternative and lets the
// caller pick per update:
//
//  * kBackwardForward — B/F (Motik et al.).  The backward phase walks the
//    suspect set and answers "is this tuple still derivable?" by probing
//    derivations directly (ForEachDerivation), recursing only into suspect
//    supports; nothing is erased until a tuple is PROVEN dead, so the
//    overdeletion explosion never happens.  Works for recursive
//    components; aggregates fall back to DRed's recompute-and-diff.
//
// Both strategies produce bit-identical final stores (the tests verify
// DRed ≡ B/F tuple-for-tuple) and share the store, the join
// kernel, and the scheduler-driven cascade unchanged — only the
// per-component phase body differs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "datalog/incremental.hpp"
#include "datalog/relation.hpp"
#include "datalog/stratify.hpp"

namespace dsched::datalog {

/// How one update's deletion pipeline is maintained.  The numeric values
/// are stable identifiers (tests derive per-strategy seeds from them).
enum class MaintenanceStrategy : std::uint8_t {
  kDRed = 0,            ///< delete-and-rederive (the default)
  kBackwardForward = 2  ///< backward aliveness probes, forward insertions
};

/// Canonical spec string for a strategy ("dred", "bf").
[[nodiscard]] const char* MaintenanceStrategyName(MaintenanceStrategy s);

/// All accepted spec strings, in enum order.
[[nodiscard]] const std::vector<std::string>& KnownMaintenanceStrategies();

/// Parses a spec string; throws util::ParseError naming the valid values
/// when `name` is not one of KnownMaintenanceStrategies().
[[nodiscard]] MaintenanceStrategy ParseMaintenanceStrategy(
    const std::string& name);

/// Runs one component's maintenance phase under `strategy`.  Drop-in for
/// RunComponentPhase (same contract, same thread-compatibility: writes
/// only member relations, member net entries, and the returned stats).
/// Components a strategy cannot handle are delegated to DRed, so any
/// component is safe to pass.
ComponentUpdateStats RunMaintenancePhase(
    MaintenanceStrategy strategy, const Program& program,
    const Stratification& strat, std::uint32_t component, RelationStore& store,
    const GroupedBaseChanges& base, std::vector<PredicateDelta>& net);

/// The serial maintenance cascade, shared by base-fact updates and rule
/// changes: runs RunMaintenancePhase for every component that is touched
/// (per ComponentInputTouched) or force-listed, in evaluation order.  This
/// is the reference the parallel and pipelined engines are tested
/// against: afterwards the store equals a from-scratch evaluation over
/// (base ∪ insertions ∖ deletions).
///
/// `force_touched`, when given, is indexed by component id — rule changes
/// use it to run the owning component even without input deltas.
/// `only_components` (when non-null) restricts the cascade to the listed
/// components — the rest are recorded untouched without even probing their
/// inputs.  Rule evolution passes the affected cone here: deltas cannot
/// escape it (the cone is downstream-closed), so skipping the input probe
/// outside is sound and is what makes maintenance affected-predicate-only.
UpdateResult PropagateUpdate(
    const Program& program, const Stratification& strat, RelationStore& store,
    const GroupedBaseChanges& base,
    MaintenanceStrategy strategy = MaintenanceStrategy::kDRed,
    const std::vector<bool>* force_touched = nullptr,
    const std::vector<bool>* only_components = nullptr);

}  // namespace dsched::datalog
