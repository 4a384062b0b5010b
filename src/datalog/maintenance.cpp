#include "datalog/maintenance.hpp"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace dsched::datalog {

const char* MaintenanceStrategyName(MaintenanceStrategy s) {
  switch (s) {
    case MaintenanceStrategy::kDRed:
      return "dred";
    case MaintenanceStrategy::kBackwardForward:
      return "bf";
  }
  return "dred";
}

const std::vector<std::string>& KnownMaintenanceStrategies() {
  static const std::vector<std::string> kNames = {"dred", "bf"};
  return kNames;
}

MaintenanceStrategy ParseMaintenanceStrategy(const std::string& name) {
  if (name == "dred") {
    return MaintenanceStrategy::kDRed;
  }
  if (name == "bf") {
    return MaintenanceStrategy::kBackwardForward;
  }
  std::ostringstream oss;
  oss << "unknown maintenance strategy '" << name << "'; valid values:";
  for (const std::string& known : KnownMaintenanceStrategies()) {
    oss << " " << known;
  }
  throw util::ParseError(oss.str());
}

namespace {

// ------------------------------------------------------------ Backward/Forward

/// Aliveness verdicts during the backward phase.  Absence from the mark
/// map means "not yet probed".
enum class Mark : std::uint8_t { kInStack, kAlive, kDead };

/// The backward-phase DFS.  A suspect tuple is alive iff some rule
/// instance derives it whose member supports are all alive; non-suspect
/// supports are alive by construction — the suspect set is closed under
/// consumption before any probe runs, so a tuple outside it has no
/// derivation touching anything that might die — and lower supports are
/// read from the live store, which already holds the new state.  The
/// in-stack check prunes cyclic proof attempts: a tuple with any
/// derivation has a repeat-free one (a repeated tuple on a proof path
/// can be spliced out), so exploring only repeat-free paths from the root
/// is complete.
///
/// Memoization protocol: kAlive memos are always sound (the proof found
/// is self-contained).  kDead is recorded only when every derivation
/// failed CLEANLY (no in-stack ancestor involved) — an unclean failure
/// only proves the tuple unprovable on the CURRENT path, so the mark is
/// reverted to unknown and the tuple is re-probed as its own root, where
/// the repeat-free argument makes the verdict final.
struct BackwardProber {
  const Program& program;
  const RelationStore& store;
  const std::vector<bool>& is_member;
  const std::unordered_map<std::uint32_t, std::vector<std::size_t>>&
      rules_by_head;
  std::vector<TupleSet>& suspects;
  std::vector<std::unordered_map<Tuple, Mark, TupleHash, TupleEq>>& marks;
  std::vector<std::pair<std::uint32_t, Tuple>>& deaths;
  ComponentUpdateStats& stats;

  bool CheckAlive(std::uint32_t pred, const Tuple& t, bool& clean) {
    auto& pred_marks = marks[pred];
    const auto it = pred_marks.find(t);
    if (it != pred_marks.end()) {
      if (it->second == Mark::kAlive) {
        return true;
      }
      if (it->second == Mark::kDead) {
        return false;
      }
      clean = false;  // in-stack ancestor: this path is cyclic
      return false;
    }
    pred_marks.emplace(t, Mark::kInStack);
    ++stats.maint_backward_probes;
    OBS_COUNTER(Category::kMaintBackwardProbe, 1);

    bool alive = false;
    bool all_clean = true;
    const auto rules_it = rules_by_head.find(pred);
    if (rules_it != rules_by_head.end()) {
      for (const std::size_t r : rules_it->second) {
        const Rule& rule = program.rules[r];
        const bool found = ForEachDerivation(
            program, store, rule, t, stats.eval,
            [this, &all_clean](
                const std::vector<std::pair<std::uint32_t, Tuple>>& body)
                -> bool {
              for (const auto& [bp, bt] : body) {
                if (!is_member[bp] || !suspects[bp].contains(bt)) {
                  continue;  // lower or untouched: alive by construction
                }
                bool sub_clean = true;
                if (!CheckAlive(bp, bt, sub_clean)) {
                  if (!sub_clean) {
                    all_clean = false;
                  }
                  return false;  // this derivation fails; keep enumerating
                }
              }
              return true;  // every support alive: live derivation, stop
            });
        if (found) {
          alive = true;
          break;
        }
      }
    }
    if (alive) {
      marks[pred][t] = Mark::kAlive;
      return true;
    }
    if (all_clean) {
      marks[pred][t] = Mark::kDead;
      deaths.emplace_back(pred, t);
      return false;
    }
    marks[pred].erase(t);  // unprovable here, maybe provable as a root
    clean = false;
    return false;
  }
};

/// The Backward/Forward phase of one rule-owning, non-aggregate
/// component.  B: seed the suspect set (tuples that lost an old-state
/// derivation), close it under live-store consumption (marking only),
/// prove each suspect alive or dead via backward probes, and only then
/// erase the proven-dead rows — DRed's overdelete/rederive round-trip
/// never happens.  F: DRed's insertion pipeline verbatim
/// (negation-driven inserts, base inserts, semi-naive continuation),
/// which is identical across strategies.
ComponentUpdateStats RunBackwardForwardPhase(const Program& program,
                                             const Stratification& strat,
                                             std::uint32_t component,
                                             RelationStore& store,
                                             const GroupedBaseChanges& base,
                                             std::vector<PredicateDelta>& net) {
  util::WallTimer comp_timer;
  ComponentUpdateStats comp_stats;
  comp_stats.component = component;
  comp_stats.input_changed = true;
  const auto& members = strat.component_members[component];
  const auto& rule_ids = strat.component_rules[component];

  std::vector<bool> is_member(program.NumPredicates(), false);
  for (const std::uint32_t p : members) {
    is_member[p] = true;
  }
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> rules_by_head;
  for (const std::size_t r : rule_ids) {
    rules_by_head[program.rules[r].head.predicate].push_back(r);
  }

  // Old state for the seed joins.  The backward phase defers every erase,
  // so member relations stay physically old until the suspect set is
  // fully resolved — no extras ever accrue.
  std::vector<std::uint32_t> relevant(members.begin(), members.end());
  for (const std::size_t r : rule_ids) {
    for (const BodyElement& element : program.rules[r].body) {
      if (const auto* literal = std::get_if<Literal>(&element)) {
        if (!is_member[literal->atom.predicate]) {
          relevant.push_back(literal->atom.predicate);
        }
      }
    }
  }
  const OldStateView old_state(store, net, relevant);

  // --- B.1: seed the suspect set with every member tuple that lost an
  // old-state derivation (same seeds DRed overdeletes from) plus the base
  // deletions.
  std::vector<TupleSet> suspects(program.NumPredicates());
  std::vector<std::pair<std::uint32_t, Tuple>> worklist;
  const auto add_suspect = [&](std::uint32_t pred, const Tuple& t) {
    if (!store.Of(pred).Contains(t)) {
      return;  // only present tuples can die
    }
    if (suspects[pred].insert(t).second) {
      worklist.emplace_back(pred, t);
    }
  };
  for (const std::uint32_t p : members) {
    for (const Tuple& t : base.deletions[p]) {
      add_suspect(p, t);
    }
  }
  std::vector<Tuple> buffer;
  const std::function<void(const Tuple&)> collect =
      [&buffer](const Tuple& t) { buffer.push_back(t); };
  for (const std::size_t r : rule_ids) {
    const Rule& rule = program.rules[r];
    for (std::size_t i = 0; i < rule.body.size(); ++i) {
      const auto* literal = std::get_if<Literal>(&rule.body[i]);
      if (literal == nullptr || is_member[literal->atom.predicate]) {
        continue;  // internal support is handled by the B.2 closure
      }
      const std::uint32_t lower = literal->atom.predicate;
      const std::vector<Tuple>& rows =
          literal->negated ? net[lower].inserted : net[lower].deleted;
      if (rows.empty()) {
        continue;
      }
      DeltaRestriction restriction;
      restriction.body_index = i;
      restriction.rows = rows;
      ApplyRuleOldState(program, old_state, rule, restriction, comp_stats.eval,
                        collect);
      for (const Tuple& t : buffer) {
        add_suspect(rule.head.predicate, t);
      }
      buffer.clear();
    }
  }

  // --- B.2: close the suspect set under consumption.  Any tuple with a
  // live-store derivation through a suspect might lose it, so it is
  // suspect too — transitively.  This is DRed's overdeletion closure
  // reduced to MARKING: nothing is deleted and nothing is rederived.
  // The closure is what makes the prober's "non-suspect support is
  // alive" shortcut sound: cyclically-supported clusters (a recursive
  // component's hallmark) all land in the suspect set together instead
  // of vouching for each other from outside it.
  std::size_t wi = 0;
  while (wi < worklist.size()) {
    const auto [sp, st] = worklist[wi++];  // copy: the list grows below
    const std::span<const Tuple> suspect_row(&st, 1);
    for (const std::size_t r : rule_ids) {
      const Rule& rule = program.rules[r];
      for (std::size_t i = 0; i < rule.body.size(); ++i) {
        const auto* literal = std::get_if<Literal>(&rule.body[i]);
        // Member literals are never negated (stratification).
        if (literal == nullptr || literal->atom.predicate != sp ||
            literal->negated) {
          continue;
        }
        DeltaRestriction restriction;
        restriction.body_index = i;
        restriction.rows = suspect_row;
        // Live store: the aliveness probes run over it, so its instance
        // graph is the one whose consumers are at risk.  Erases are all
        // deferred, so every at-risk instance is still visible here.
        ApplyRule(program, store, rule, restriction, comp_stats.eval,
                  collect);
        for (const Tuple& h : buffer) {
          add_suspect(rule.head.predicate, h);
        }
        buffer.clear();
      }
    }
  }

  // --- B.3: probe every suspect.  Verdicts are final: an alive proof
  // grounds out in non-suspect (hence untouched) or lower supports, and a
  // dead verdict means every repeat-free path failed.
  std::vector<std::unordered_map<Tuple, Mark, TupleHash, TupleEq>> marks(
      program.NumPredicates());
  std::vector<std::pair<std::uint32_t, Tuple>> deaths;
  BackwardProber prober{program,  store, is_member, rules_by_head,
                        suspects, marks, deaths,    comp_stats};
  for (const auto& [p, t] : worklist) {
    if (marks[p].contains(t)) {
      continue;  // settled while proving another suspect
    }
    bool clean = true;
    if (!prober.CheckAlive(p, t, clean) && !clean) {
      // Unclean failure AT THE ROOT is final: live tuples have
      // repeat-free derivations, and the root's probe explored exactly
      // the repeat-free paths.
      marks[p][t] = Mark::kDead;
      deaths.emplace_back(p, t);
    }
  }

  // --- B.4: erase the proven dead.  This is the ONLY store mutation of
  // the backward phase.
  std::vector<TupleSet> phase_deleted(program.NumPredicates());
  for (const auto& [p, t] : deaths) {
    if (phase_deleted[p].insert(t).second) {
      store.Of(p).Erase(t);
    }
  }
  std::size_t alive_suspects = 0;
  for (const std::uint32_t p : members) {
    for (const auto& [t, mark] : marks[p]) {
      if (mark == Mark::kAlive) {
        ++alive_suspects;
      }
    }
  }
  comp_stats.maint_avoided = alive_suspects;  // DRed's overdelete+rederive set
  OBS_COUNTER(Category::kMaintOverdeleteAvoided, comp_stats.maint_avoided);

  // --- F: DRed's insertion pipeline, verbatim (incremental.cpp steps
  // 3-5).  Deletions from negated lower predicates create derivations;
  // base inserts and lower insertions seed the semi-naive continuation.
  std::vector<TupleSet> phase_inserted(program.NumPredicates());
  DeltaMap member_seed;
  for (const std::size_t r : rule_ids) {
    const Rule& rule = program.rules[r];
    for (std::size_t i = 0; i < rule.body.size(); ++i) {
      const auto* literal = std::get_if<Literal>(&rule.body[i]);
      if (literal == nullptr || !literal->negated) {
        continue;
      }
      const std::uint32_t lower = literal->atom.predicate;
      if (net[lower].deleted.empty()) {
        continue;
      }
      DeltaRestriction restriction;
      restriction.body_index = i;
      restriction.rows = net[lower].deleted;
      ApplyRule(program, store, rule, restriction, comp_stats.eval, collect);
      for (const Tuple& t : buffer) {
        if (store.Of(rule.head.predicate).Insert(t)) {
          phase_inserted[rule.head.predicate].insert(t);
          member_seed[rule.head.predicate].push_back(t);
        }
      }
      buffer.clear();
    }
  }
  InsertBaseTuples(strat, component, store, base, phase_inserted,
                   member_seed);
  DeltaMap seed = member_seed;
  for (const std::size_t r : rule_ids) {
    for (const BodyElement& element : program.rules[r].body) {
      if (const auto* literal = std::get_if<Literal>(&element)) {
        const std::uint32_t lower = literal->atom.predicate;
        if (!is_member[lower] && !literal->negated &&
            !net[lower].inserted.empty() && !seed.contains(lower)) {
          seed[lower] = net[lower].inserted;
        }
      }
    }
  }
  DeltaMap derived;
  comp_stats.eval.Merge(
      EvaluateComponent(program, strat, component, store, &seed, &derived));
  for (auto& [pred, rows] : derived) {
    for (Tuple& t : rows) {
      phase_inserted[pred].insert(std::move(t));
    }
  }

  // --- Finalize net, with insert/delete cancellation, like DRed.
  for (const std::uint32_t p : members) {
    for (const Tuple& t : phase_inserted[p]) {
      if (!phase_deleted[p].contains(t)) {
        net[p].inserted.push_back(t);
      }
    }
    for (const Tuple& t : phase_deleted[p]) {
      if (!phase_inserted[p].contains(t)) {
        net[p].deleted.push_back(t);
      }
    }
    comp_stats.tuples_inserted += net[p].inserted.size();
    comp_stats.tuples_deleted += net[p].deleted.size();
  }
  comp_stats.output_changed =
      comp_stats.tuples_inserted > 0 || comp_stats.tuples_deleted > 0;
  // B/F's deletion-pipeline effort: one probe per aliveness question, one
  // erase per proven-dead tuple.
  comp_stats.maint_ops = comp_stats.maint_backward_probes + deaths.size();
  comp_stats.seconds = comp_timer.ElapsedSeconds();
  return comp_stats;
}

}  // namespace

ComponentUpdateStats RunMaintenancePhase(
    MaintenanceStrategy strategy, const Program& program,
    const Stratification& strat, std::uint32_t component, RelationStore& store,
    const GroupedBaseChanges& base, std::vector<PredicateDelta>& net) {
  OBS_SCOPE(Category::kMaintPhase);
  const auto& rule_ids = strat.component_rules[component];
  switch (strategy) {
    case MaintenanceStrategy::kDRed:
      break;
    case MaintenanceStrategy::kBackwardForward:
      if (!rule_ids.empty() && !program.rules[rule_ids.front()].IsAggregate()) {
        return RunBackwardForwardPhase(program, strat, component, store, base,
                                       net);
      }
      break;  // aggregate / rule-less: DRed (recompute-diff / base path)
  }
  ComponentUpdateStats comp_stats =
      RunComponentPhase(program, strat, component, store, base, net);
  OBS_COUNTER(Category::kMaintOverdelete, comp_stats.tuples_overdeleted);
  return comp_stats;
}

UpdateResult PropagateUpdate(const Program& program,
                             const Stratification& strat, RelationStore& store,
                             const GroupedBaseChanges& base,
                             MaintenanceStrategy strategy,
                             const std::vector<bool>* force_touched,
                             const std::vector<bool>* only_components) {
  util::WallTimer total_timer;
  UpdateResult result;
  std::vector<PredicateDelta> net(program.NumPredicates());

  for (const std::uint32_t component : strat.component_order) {
    const bool allowed =
        only_components == nullptr || (*only_components)[component];
    const bool forced =
        force_touched != nullptr && (*force_touched)[component];
    if (!allowed || (!forced &&
        !ComponentInputTouched(program, strat, component, base, net))) {
      ComponentUpdateStats untouched;
      untouched.component = component;
      result.components.push_back(untouched);
      continue;
    }
    ComponentUpdateStats comp_stats = RunMaintenancePhase(
        strategy, program, strat, component, store, base, net);
    result.total_inserted += comp_stats.tuples_inserted;
    result.total_deleted += comp_stats.tuples_deleted;
    result.total_maint_ops += comp_stats.maint_ops;
    result.components.push_back(std::move(comp_stats));
  }

  result.seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace dsched::datalog
