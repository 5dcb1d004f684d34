#include "layout/evaluator.h"

#include <algorithm>
#include <bit>
#include <map>
#include <tuple>

#include "analysis/invariant_auditor.h"
#include "common/logging.h"
#include "obs/journal.h"
#include "obs/metrics.h"

namespace dblayout {

namespace {

/// Exact intern key of one access: every field of ObjectAccess, with
/// `blocks` compared by bit pattern so values one ulp apart stay distinct.
using AccessKey = std::tuple<int, uint64_t, bool, bool, bool>;

AccessKey KeyOf(const ObjectAccess& a) {
  return {a.object_id, std::bit_cast<uint64_t>(a.blocks), a.is_write, a.random,
          a.read_modify_write};
}

/// Appends `id` to `list` unless it is already the last entry. Ids are
/// visited in increasing order, so this dedups the whole list.
void AppendOnce(std::vector<int32_t>* list, int32_t id) {
  if (list->empty() || list->back() != id) list->push_back(id);
}

/// Marks `id` overridden in `epoch`, recording it once per epoch.
void Touch(LayoutEvaluator::Overrides* o, int32_t id, int64_t epoch) {
  int64_t& stamp = o->stamp[static_cast<size_t>(id)];
  if (stamp == epoch) return;
  stamp = epoch;
  o->ids.push_back(id);
}

/// Puts the bound costs back over the previous epoch's overrides.
void Undo(LayoutEvaluator::Overrides* o, const std::vector<double>& bound) {
  for (int32_t id : o->ids) {
    o->cost[static_cast<size_t>(id)] = bound[static_cast<size_t>(id)];
  }
  o->ids.clear();
}

}  // namespace

LayoutEvaluator::LayoutEvaluator(const WorkloadProfile& profile,
                                 const CostModel& cost_model)
    : profile_(profile), cost_model_(cost_model) {
  // Intern every sub-plan's access list as a shape and every statement's
  // shape sequence as a term, ids in first-appearance order.
  size_t num_objects = profile.num_objects;
  std::map<std::vector<AccessKey>, int32_t> shape_ids;
  std::map<std::vector<int32_t>, int32_t> term_ids;
  std::vector<AccessKey> key;
  std::vector<int32_t> sequence;
  term_begin_.push_back(0);
  statements_.reserve(profile.statements.size());
  for (const StatementProfile& s : profile.statements) {
    sequence.clear();
    for (const SubplanAccess& sp : s.subplans) {
      key.clear();
      for (const ObjectAccess& a : sp.accesses) {
        key.push_back(KeyOf(a));
        num_objects = std::max(num_objects, static_cast<size_t>(a.object_id) + 1);
      }
      const auto shape = shape_ids.try_emplace(
          key, static_cast<int32_t>(shapes_.size()));
      if (shape.second) shapes_.push_back(&sp);
      sequence.push_back(shape.first->second);
      ++num_subplans_;
    }
    const auto term = term_ids.try_emplace(
        sequence, static_cast<int32_t>(term_begin_.size() - 1));
    if (term.second) {
      term_shapes_.insert(term_shapes_.end(), sequence.begin(), sequence.end());
      term_begin_.push_back(static_cast<int32_t>(term_shapes_.size()));
    }
    statements_.push_back(WeightedTerm{s.weight, term.first->second});
  }

  // Inverted index. An object accessed twice in one shape (a self-join)
  // still invalidates it once; a shape occurring twice in one term still
  // re-sums it once.
  object_shapes_.resize(num_objects);
  for (size_t id = 0; id < shapes_.size(); ++id) {
    for (const ObjectAccess& a : shapes_[id]->accesses) {
      AppendOnce(&object_shapes_[static_cast<size_t>(a.object_id)],
                 static_cast<int32_t>(id));
    }
  }
  shape_terms_.resize(shapes_.size());
  for (size_t t = 0; t + 1 < term_begin_.size(); ++t) {
    for (int32_t k = term_begin_[t]; k < term_begin_[t + 1]; ++k) {
      const size_t id = static_cast<size_t>(term_shapes_[static_cast<size_t>(k)]);
      AppendOnce(&shape_terms_[id], static_cast<int32_t>(t));
    }
  }
}

double LayoutEvaluator::TermCost(int32_t term,
                                 const std::vector<double>& shape_costs) const {
  double cost = 0;
  for (int32_t k = term_begin_[static_cast<size_t>(term)];
       k < term_begin_[static_cast<size_t>(term) + 1]; ++k) {
    cost += shape_costs[static_cast<size_t>(term_shapes_[static_cast<size_t>(k)])];
  }
  return cost;
}

double LayoutEvaluator::SumTotal(const std::vector<double>& term_costs) const {
  // Exact association order of CostModel::WorkloadCost: each statement
  // contributes weight * (its term's cost), in profile order. With identical
  // per-term values (TermCost mirrors StatementCost), the result is
  // bit-identical to a full recomputation — the invariant the greedy
  // search's determinism rests on.
  double total = 0;
  for (const WeightedTerm& st : statements_) {
    total += st.weight * term_costs[static_cast<size_t>(st.term)];
  }
  return total;
}

double LayoutEvaluator::Bind(const Layout& layout) {
  DBLAYOUT_CHECK(layout.num_objects() >=
                 static_cast<int>(object_shapes_.size()));
  layout_ = layout;
  shape_cost_.resize(shapes_.size());
  for (size_t id = 0; id < shapes_.size(); ++id) {
    shape_cost_[id] = cost_model_.SubplanCost(*shapes_[id], layout_);
  }
  term_cost_.resize(term_begin_.size() - 1);
  for (size_t t = 0; t < term_cost_.size(); ++t) {
    term_cost_[t] = TermCost(static_cast<int32_t>(t), shape_cost_);
  }
  total_ = SumTotal(term_cost_);
  bound_ = true;
  staging_ = MakeScratch();
  staged_valid_ = false;
  ++full_evals_;
  cost_model_.NoteExternalWorkloadEvaluation();
  DBLAYOUT_OBS_COUNT("evaluator/full_evals", 1);
  if (journal_ != nullptr) {
    journal_->Append("bind",
                     {{"cost", obs::JsonDouble(total_)},
                      {"subplans", obs::JsonInt(num_subplans_)}});
  }
  AuditParity();
  return total_;
}

LayoutEvaluator::Scratch LayoutEvaluator::MakeScratch() const {
  DBLAYOUT_DCHECK(bound_);
  Scratch s;
  s.layout = layout_;
  s.shapes.cost = shape_cost_;
  s.shapes.stamp.assign(shape_cost_.size(), 0);
  s.terms.cost = term_cost_;
  s.terms.stamp.assign(term_cost_.size(), 0);
  s.epoch = 0;
  return s;
}

template <typename ApplyFn>
double LayoutEvaluator::ScoreCore(const std::vector<int>& objects,
                                  const ApplyFn& apply, Scratch* scratch,
                                  bool restore) const {
  DBLAYOUT_DCHECK(bound_);
  Scratch& s = *scratch;
  // The previous score's overrides stay in place until now, so the staging
  // path can Commit them.
  Undo(&s.shapes, shape_cost_);
  Undo(&s.terms, term_cost_);
  ++s.epoch;
  const int m = layout_.num_disks();

  // Back up the rows about to change, then apply the candidate rows.
  s.saved_rows.resize(objects.size() * static_cast<size_t>(m));
  for (size_t k = 0; k < objects.size(); ++k) {
    for (int j = 0; j < m; ++j) {
      s.saved_rows[k * static_cast<size_t>(m) + static_cast<size_t>(j)] =
          s.layout.x(objects[k], j);
    }
  }
  apply(s.layout);

  // Affected shapes: the union of the moved objects' inverted-index
  // entries; affected terms: the union of those shapes' terms. Both are
  // deduped by epoch stamp.
  for (int obj : objects) {
    if (static_cast<size_t>(obj) >= object_shapes_.size()) continue;
    for (int32_t id : object_shapes_[static_cast<size_t>(obj)]) {
      Touch(&s.shapes, id, s.epoch);
    }
  }
  for (int32_t id : s.shapes.ids) {
    s.shapes.cost[static_cast<size_t>(id)] =
        cost_model_.SubplanCost(*shapes_[static_cast<size_t>(id)], s.layout);
    for (int32_t t : shape_terms_[static_cast<size_t>(id)]) {
      Touch(&s.terms, t, s.epoch);
    }
  }
  for (int32_t t : s.terms.ids) {
    s.terms.cost[static_cast<size_t>(t)] = TermCost(t, s.shapes.cost);
  }

  if (restore) RestoreScratchRows(objects, &s);

  delta_evals_.fetch_add(1, std::memory_order_relaxed);
  cost_model_.NoteExternalWorkloadEvaluation();
  DBLAYOUT_OBS_COUNT("evaluator/delta_evals", 1);
  DBLAYOUT_OBS_COUNT("evaluator/subplans_recosted",
                     static_cast<int64_t>(s.shapes.ids.size()));
  // The fold comes last: with no call after it, the compiler keeps its
  // accumulator in a register instead of spilling it around the calls above.
  return SumTotal(s.terms.cost);
}

void LayoutEvaluator::RestoreScratchRows(const std::vector<int>& objects,
                                         Scratch* scratch) const {
  const int m = layout_.num_disks();
  for (size_t k = 0; k < objects.size(); ++k) {
    for (int j = 0; j < m; ++j) {
      scratch->layout.set_x(
          objects[k], j,
          scratch->saved_rows[k * static_cast<size_t>(m) + static_cast<size_t>(j)]);
    }
  }
}

double LayoutEvaluator::ScoreProportionalMove(const std::vector<int>& objects,
                                              const std::vector<int>& disks,
                                              Scratch* scratch) const {
  return ScoreCore(
      objects,
      [&](Layout& l) {
        for (int i : objects) l.AssignProportional(i, disks, cost_model_.fleet());
      },
      scratch, /*restore=*/true);
}

double LayoutEvaluator::ScoreRowsFromMove(const std::vector<int>& objects,
                                          const Layout& rows,
                                          Scratch* scratch) const {
  return ScoreCore(
      objects,
      [&](Layout& l) {
        for (int i : objects) {
          for (int j = 0; j < l.num_disks(); ++j) l.set_x(i, j, rows.x(i, j));
        }
      },
      scratch, /*restore=*/true);
}

template <typename ApplyFn>
double LayoutEvaluator::DeltaCore(const std::vector<int>& objects,
                                  const ApplyFn& apply) {
  staged_valid_ = false;
  const double total = ScoreCore(objects, apply, &staging_, /*restore=*/false);

  // Capture the candidate rows and total while the staging scratch still
  // holds the applied rows, then put the scratch back in sync with the bound
  // layout. Its shape and term overrides stay valid for Commit: only
  // DeltaCore scores into staging_.
  const int m = layout_.num_disks();
  staged_objects_ = objects;
  staged_rows_.resize(objects.size() * static_cast<size_t>(m));
  for (size_t k = 0; k < objects.size(); ++k) {
    for (int j = 0; j < m; ++j) {
      staged_rows_[k * static_cast<size_t>(m) + static_cast<size_t>(j)] =
          staging_.layout.x(objects[k], j);
    }
  }
  staged_total_ = total;
  staged_valid_ = true;
  RestoreScratchRows(objects, &staging_);
  return total;
}

double LayoutEvaluator::DeltaForMove(int object,
                                     const std::vector<double>& new_fractions) {
  DBLAYOUT_CHECK(static_cast<int>(new_fractions.size()) == layout_.num_disks());
  const std::vector<int> objects = {object};
  return DeltaCore(objects, [&](Layout& l) {
    for (int j = 0; j < l.num_disks(); ++j) {
      l.set_x(object, j, new_fractions[static_cast<size_t>(j)]);
    }
  });
}

double LayoutEvaluator::DeltaForProportionalMove(const std::vector<int>& objects,
                                                 const std::vector<int>& disks) {
  return DeltaCore(objects, [&](Layout& l) {
    for (int i : objects) l.AssignProportional(i, disks, cost_model_.fleet());
  });
}

double LayoutEvaluator::DeltaForRowsFromMove(const std::vector<int>& objects,
                                             const Layout& rows) {
  return DeltaCore(objects, [&](Layout& l) {
    for (int i : objects) {
      for (int j = 0; j < l.num_disks(); ++j) l.set_x(i, j, rows.x(i, j));
    }
  });
}

void LayoutEvaluator::Commit() {
  DBLAYOUT_CHECK(staged_valid_);
  const int m = layout_.num_disks();
  for (size_t k = 0; k < staged_objects_.size(); ++k) {
    for (int j = 0; j < m; ++j) {
      const double v =
          staged_rows_[k * static_cast<size_t>(m) + static_cast<size_t>(j)];
      layout_.set_x(staged_objects_[k], j, v);
      staging_.layout.set_x(staged_objects_[k], j, v);
    }
  }
  for (int32_t id : staging_.shapes.ids) {
    shape_cost_[static_cast<size_t>(id)] =
        staging_.shapes.cost[static_cast<size_t>(id)];
  }
  for (int32_t t : staging_.terms.ids) {
    term_cost_[static_cast<size_t>(t)] =
        staging_.terms.cost[static_cast<size_t>(t)];
  }
  total_ = staged_total_;
  staged_valid_ = false;
  DBLAYOUT_OBS_COUNT("evaluator/commits", 1);
  // Full-recompute parity: the delta-maintained caches and total must match
  // a from-scratch §5 evaluation of the new layout.
  AuditParity();
}

void LayoutEvaluator::Revert() { staged_valid_ = false; }

void LayoutEvaluator::AuditParity() const {
#if DBLAYOUT_DCHECK_IS_ON()
  std::vector<InvariantAuditor::WeightedSubplanSpan> spans;
  spans.reserve(profile_.statements.size());
  for (const StatementProfile& s : profile_.statements) {
    spans.push_back(InvariantAuditor::WeightedSubplanSpan{
        s.weight, s.subplans.data(), s.subplans.size()});
  }
  DBLAYOUT_DCHECK_OK(InvariantAuditor().AuditWorkloadTotal(
      spans, layout_, cost_model_.fleet(), total_));
#endif
}

}  // namespace dblayout
