#include "datalog/incremental.hpp"

#include <sstream>
#include <string>
#include <unordered_set>

#include "util/error.hpp"
#include "util/timer.hpp"

namespace dsched::datalog {

OldStateView::OldStateView(const RelationStore& live,
                           const std::vector<PredicateDelta>& net,
                           const std::vector<std::uint32_t>& relevant)
    : live_(live),
      inserted_(net.size()),
      extras_(net.size()),
      extras_set_(net.size()) {
  for (const std::uint32_t p : relevant) {
    for (const Tuple& t : net[p].inserted) {
      inserted_[p].insert(t);
    }
    for (const Tuple& t : net[p].deleted) {
      if (extras_set_[p].insert(t).second) {
        extras_[p].push_back(t);
      }
    }
  }
}

void OldStateView::AddDeletedExtra(std::uint32_t predicate,
                                   const Tuple& tuple) {
  if (extras_set_[predicate].insert(tuple).second) {
    extras_[predicate].push_back(tuple);
  }
}

bool OldStateView::ContainsTuple(std::uint32_t predicate,
                                 RowView tuple) const {
  if (live_.Of(predicate).Contains(tuple)) {
    return inserted_[predicate].empty() ||
           !inserted_[predicate].contains(tuple);
  }
  return extras_set_[predicate].contains(tuple);
}

RowView OldStateView::RowAt(std::uint32_t predicate,
                            std::uint32_t row) const {
  if ((row & Relation::kExtraBit) != 0) {
    return extras_[predicate][row & ~Relation::kExtraBit];
  }
  return live_.Of(predicate).Row(row);
}

OldStateView::PreparedIndex OldStateView::Prepare(
    std::uint32_t predicate, const std::vector<std::size_t>& columns) const {
  return {predicate, &columns, live_.Prepare(predicate, columns)};
}

std::vector<std::uint32_t> OldStateView::LookupPrepared(
    const PreparedIndex& prepared, const Tuple& key) const {
  const std::uint32_t predicate = prepared.predicate;
  const std::vector<std::size_t>& columns = *prepared.columns;
  std::vector<std::uint32_t> out;
  const TupleSet& inserted = inserted_[predicate];
  const auto live_ids = RelationStore::LookupPrepared(prepared.live, key);
  out.reserve(live_ids.size());
  for (const std::uint32_t id : live_ids) {
    if (inserted.empty() || !inserted.contains(live_.RowAt(predicate, id))) {
      out.push_back(id);
    }
  }
  const auto& extras = extras_[predicate];
  for (std::size_t i = 0; i < extras.size(); ++i) {
    bool match = true;
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (!(extras[i][columns[c]] == key[c])) {
        match = false;
        break;
      }
    }
    if (match) {
      out.push_back(Relation::kExtraBit | static_cast<std::uint32_t>(i));
    }
  }
  return out;
}

std::vector<std::uint32_t> OldStateView::Lookup(
    std::uint32_t predicate, const std::vector<std::size_t>& columns,
    const Tuple& key) const {
  return LookupPrepared(Prepare(predicate, columns), key);
}

std::size_t OldStateView::RelationSize(std::uint32_t predicate) const {
  return live_.Of(predicate).Size() + extras_[predicate].size();
}

std::size_t OldStateView::IndexDistinct(
    std::uint32_t predicate, const std::vector<std::size_t>& columns) const {
  return live_.IndexDistinct(predicate, columns);
}

std::string UpdateResult::ToString(const Program& program,
                                   const Stratification& strat) const {
  std::ostringstream oss;
  oss << "update: +" << total_inserted << " -" << total_deleted << " in "
      << seconds << "s\n";
  for (const ComponentUpdateStats& c : components) {
    if (!c.input_changed) {
      continue;
    }
    oss << "  component " << c.component << " {";
    for (std::size_t i = 0; i < strat.component_members[c.component].size();
         ++i) {
      if (i > 0) {
        oss << ", ";
      }
      oss << program.predicate_names[strat.component_members[c.component][i]];
    }
    oss << "}: " << (c.output_changed ? "changed" : "unchanged")
        << " +" << c.tuples_inserted << " -" << c.tuples_deleted
        << " (overdeleted " << c.tuples_overdeleted << ", rederived "
        << c.tuples_rederived << ")\n";
  }
  return oss.str();
}

GroupedBaseChanges::GroupedBaseChanges(const Program& program,
                                       const UpdateRequest& request)
    : insertions(program.NumPredicates()), deletions(program.NumPredicates()) {
  // Validated here, on the caller's thread, so a malformed batch fails the
  // update before any task runs instead of tripping a store invariant on a
  // pool worker.
  const auto check = [&program](std::uint32_t pred, const Tuple& tuple) {
    if (pred >= program.NumPredicates()) {
      throw util::InvalidArgument(
          "unknown predicate id " + std::to_string(pred) + " (the program has " +
          std::to_string(program.NumPredicates()) + " predicates)");
    }
    if (tuple.size() != program.predicate_arities[pred]) {
      throw util::InvalidArgument(
          "arity mismatch: '" + program.predicate_names[pred] + "' takes " +
          std::to_string(program.predicate_arities[pred]) + " values, got " +
          std::to_string(tuple.size()));
    }
  };
  for (const auto& [pred, tuple] : request.insertions) {
    check(pred, tuple);
    insertions[pred].push_back(tuple);
  }
  for (const auto& [pred, tuple] : request.deletions) {
    check(pred, tuple);
    deletions[pred].push_back(tuple);
  }
}

void InsertBaseTuples(const Stratification& strat, std::uint32_t component,
                      RelationStore& store, const GroupedBaseChanges& base,
                      std::vector<TupleSet>& phase_inserted,
                      DeltaMap& member_seed) {
  for (const std::uint32_t p : strat.component_members[component]) {
    for (const Tuple& t : base.insertions[p]) {
      if (store.Of(p).Insert(t)) {
        phase_inserted[p].insert(t);
        member_seed[p].push_back(t);
      }
    }
  }
}

bool ComponentInputTouched(const Program& program, const Stratification& strat,
                           std::uint32_t component,
                           const GroupedBaseChanges& base,
                           const std::vector<PredicateDelta>& net) {
  for (const std::uint32_t p : strat.component_members[component]) {
    if (!base.insertions[p].empty() || !base.deletions[p].empty()) {
      return true;
    }
  }
  for (const std::size_t r : strat.component_rules[component]) {
    for (const BodyElement& element : program.rules[r].body) {
      if (const auto* literal = std::get_if<Literal>(&element)) {
        const std::uint32_t p = literal->atom.predicate;
        if (strat.component_of[p] != component && !net[p].Empty()) {
          return true;
        }
      }
    }
  }
  return false;
}

ComponentUpdateStats RunComponentPhase(const Program& program,
                                       const Stratification& strat,
                                       std::uint32_t component,
                                       RelationStore& store,
                                       const GroupedBaseChanges& base,
                                       std::vector<PredicateDelta>& net) {
  util::WallTimer comp_timer;
  ComponentUpdateStats comp_stats;
  comp_stats.component = component;
  comp_stats.input_changed = true;  // caller gates on ComponentInputTouched
  const auto& members = strat.component_members[component];
  const auto& rule_ids = strat.component_rules[component];

  std::vector<bool> is_member(program.NumPredicates(), false);
  for (const std::uint32_t p : members) {
    is_member[p] = true;
  }

  // ---------------------------------------------------------------- 0.
  // Aggregate components are maintained by recompute-and-diff: the body
  // lives strictly below (stratification), so re-folding against the new
  // state and diffing against the stored relation is exact — and cheap,
  // since it touches only this predicate's groups.
  if (!rule_ids.empty() && program.rules[rule_ids.front()].IsAggregate()) {
    DSCHED_CHECK_MSG(members.size() == 1,
                     "aggregate components are singletons by stratification");
    const std::uint32_t p = members.front();
    TupleSet fresh;
    for (const std::size_t r : rule_ids) {
      for (Tuple& t : EvaluateAggregateRule(program, store, program.rules[r],
                                            comp_stats.eval)) {
        fresh.insert(std::move(t));
      }
    }
    Relation& relation = store.Of(p);
    std::vector<Tuple> stale;
    relation.ForEachRow([&fresh, &stale](std::uint32_t, RowView row) {
      if (!fresh.contains(row)) {
        stale.emplace_back(row.begin(), row.end());
      }
    });
    for (const Tuple& t : stale) {
      relation.Erase(t);
      net[p].deleted.push_back(t);
    }
    for (const Tuple& t : fresh) {
      if (relation.Insert(t)) {
        net[p].inserted.push_back(t);
      }
    }
    comp_stats.tuples_inserted = net[p].inserted.size();
    comp_stats.tuples_deleted = net[p].deleted.size();
    comp_stats.output_changed =
        comp_stats.tuples_inserted > 0 || comp_stats.tuples_deleted > 0;
    comp_stats.seconds = comp_timer.ElapsedSeconds();
    return comp_stats;
  }

  // Per-member bookkeeping of what this phase actually adds/removes.
  // (Indexed by predicate; only member slots are touched.)
  std::vector<TupleSet> phase_deleted(program.NumPredicates());
  std::vector<TupleSet> phase_inserted(program.NumPredicates());

  // The pre-update state this phase's overdeletion joins against: the live
  // store corrected by the finalized deltas of exactly the predicates this
  // phase may read, growing member extras as the phase erases tuples.  No
  // database snapshot is taken.
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
  OldStateView old_state(store, net, relevant);

  // ---------------------------------------------------------------- 1.
  // OVERDELETE.  Seed D with (a) base deletions of member predicates and
  // (b) heads of rules fired with a deleted positive input or an inserted
  // negated input, all joined against the OLD state.
  DeltaMap overdelete;  // per member predicate, this round's delta
  const auto queue_overdeleted = [&](std::uint32_t pred, const Tuple& t) {
    if (phase_deleted[pred].insert(t).second) {
      overdelete[pred].push_back(t);
      old_state.AddDeletedExtra(pred, t);
      store.Of(pred).Erase(t);
      ++comp_stats.tuples_overdeleted;
    }
  };
  for (const std::uint32_t p : members) {
    for (const Tuple& t : base.deletions[p]) {
      if (old_state.ContainsTuple(p, t)) {
        queue_overdeleted(p, t);
      }
    }
  }
  std::vector<Tuple> buffer;
  const std::function<void(const Tuple&)> collect =
      [&buffer](const Tuple& t) { buffer.push_back(t); };
  for (const std::size_t r : rule_ids) {
    const Rule& rule = program.rules[r];
    for (std::size_t i = 0; i < rule.body.size(); ++i) {
      const auto* literal = std::get_if<Literal>(&rule.body[i]);
      if (literal == nullptr) {
        continue;
      }
      const std::uint32_t p = literal->atom.predicate;
      if (is_member[p]) {
        continue;  // internal support flows through the rounds below
      }
      const std::vector<Tuple>& rows =
          literal->negated ? net[p].inserted : net[p].deleted;
      if (rows.empty()) {
        continue;
      }
      DeltaRestriction restriction;
      restriction.body_index = i;
      restriction.rows = rows;
      ApplyRuleOldState(program, old_state, rule, restriction,
                        comp_stats.eval, collect);
      for (const Tuple& t : buffer) {
        queue_overdeleted(rule.head.predicate, t);
      }
      buffer.clear();
    }
  }
  // Internal overdeletion rounds (member tuples supporting member tuples).
  while (true) {
    DeltaMap current = std::move(overdelete);
    overdelete.clear();
    bool any = false;
    for (const auto& [pred, rows] : current) {
      if (!rows.empty()) {
        any = true;
      }
    }
    if (!any) {
      break;
    }
    for (const std::size_t r : rule_ids) {
      const Rule& rule = program.rules[r];
      for (std::size_t i = 0; i < rule.body.size(); ++i) {
        const auto* literal = std::get_if<Literal>(&rule.body[i]);
        if (literal == nullptr || literal->negated ||
            !is_member[literal->atom.predicate]) {
          continue;
        }
        const auto it = current.find(literal->atom.predicate);
        if (it == current.end() || it->second.empty()) {
          continue;
        }
        DeltaRestriction restriction;
        restriction.body_index = i;
        restriction.rows = it->second;
        ApplyRuleOldState(program, old_state, rule, restriction,
                          comp_stats.eval, collect);
        for (const Tuple& t : buffer) {
          queue_overdeleted(rule.head.predicate, t);
        }
        buffer.clear();
      }
    }
  }

  // ---------------------------------------------------------------- 2.
  // REDERIVE: an overdeleted tuple still derivable in the NEW state comes
  // back (and later propagates through the insertion rounds).
  DeltaMap member_seed;
  for (const std::uint32_t p : members) {
    for (const Tuple& t : phase_deleted[p]) {
      bool derivable = false;
      for (const std::size_t r : rule_ids) {
        const Rule& rule = program.rules[r];
        if (rule.head.predicate != p) {
          continue;
        }
        if (IsDerivable(program, store, rule, t, comp_stats.eval)) {
          derivable = true;
          break;
        }
      }
      if (derivable) {
        store.Of(p).Insert(t);
        phase_inserted[p].insert(t);
        member_seed[p].push_back(t);
        ++comp_stats.tuples_rederived;
      }
    }
  }

  // ---------------------------------------------------------------- 3.
  // Negation-driven insertions: a deletion from a negated lower predicate
  // can create brand-new derivations in the NEW state.
  for (const std::size_t r : rule_ids) {
    const Rule& rule = program.rules[r];
    for (std::size_t i = 0; i < rule.body.size(); ++i) {
      const auto* literal = std::get_if<Literal>(&rule.body[i]);
      if (literal == nullptr || !literal->negated) {
        continue;
      }
      const std::uint32_t p = literal->atom.predicate;
      if (net[p].deleted.empty()) {
        continue;
      }
      DeltaRestriction restriction;
      restriction.body_index = i;
      restriction.rows = net[p].deleted;
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

  // ---------------------------------------------------------------- 4.
  // Insertions: base inserts into members + lower net insertions, then the
  // semi-naive continuation.
  InsertBaseTuples(strat, component, store, base, phase_inserted,
                   member_seed);
  DeltaMap seed = member_seed;
  for (const std::size_t r : rule_ids) {
    for (const BodyElement& element : program.rules[r].body) {
      if (const auto* literal = std::get_if<Literal>(&element)) {
        const std::uint32_t p = literal->atom.predicate;
        if (!is_member[p] && !literal->negated && !net[p].inserted.empty() &&
            !seed.contains(p)) {
          seed[p] = net[p].inserted;
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

  // ---------------------------------------------------------------- 5.
  // Finalize the member entries of `net` for downstream components.
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
  // DRed's deletion-pipeline effort: one erase per overdeleted tuple, at
  // least one derivability check each, one re-insert per rederived tuple.
  // Rule-less components are pure base-change application — every
  // strategy does that identical work, so it reports no maintenance ops.
  if (!rule_ids.empty()) {
    comp_stats.maint_ops =
        2 * comp_stats.tuples_overdeleted + comp_stats.tuples_rederived;
  }
  comp_stats.seconds = comp_timer.ElapsedSeconds();
  return comp_stats;
}

}  // namespace dsched::datalog
