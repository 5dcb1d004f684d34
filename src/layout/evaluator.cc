#include "layout/evaluator.h"

#include <algorithm>
#include <utility>

#include "analysis/invariant_auditor.h"
#include "common/logging.h"
#include "obs/journal.h"
#include "obs/metrics.h"

// Delta scoring is bit-identical to the §5 oracle only while every
// floating-point operation is rounded as written: reassociation
// (-ffast-math, -fassociative-math) or contraction into fused multiply-adds
// breaks delta/oracle bit identity. -ffast-math announces itself through
// __FAST_MATH__ and is refused here. Contraction is pinned off by the root
// CMakeLists (-ffp-contract=off for GCC and Clang), so FMA-capable targets
// (a -march flag, or AArch64) round exactly as baseline x86-64 does.
// -fassociative-math alone and -ffp-contract have no macro; for a build
// that overrides them, the EvaluatorTest bit-identity tests are the fence.
#ifdef __FAST_MATH__
#error "reassociating floating-point math breaks delta/oracle bit identity"
#endif

namespace dblayout {

namespace {

/// Appends `id` to `list` unless it is already the last entry. Ids are
/// visited in increasing order, so this dedups the whole list.
void AppendOnce(std::vector<int32_t>* list, int32_t id) {
  if (list->empty() || list->back() != id) list->push_back(id);
}

constexpr size_t kLanes = LayoutEvaluator::kLanes;

/// Marks `id` overridden in `lane` at `epoch` (unique to that lane's
/// score), recording its slot once.
void Touch(LayoutEvaluator::Overrides* o, int32_t id, size_t lane,
           int64_t epoch) {
  int64_t& stamp = o->stamp[static_cast<size_t>(id)];
  if (stamp == epoch) return;
  stamp = epoch;
  o->slots.push_back(static_cast<size_t>(id) * kLanes + lane);
}

/// Puts the bound costs back over the previous score's overrides.
void Undo(LayoutEvaluator::Overrides* o, const std::vector<double>& bound) {
  for (size_t slot : o->slots) o->cost[slot] = bound[slot / kLanes];
  o->slots.clear();
}

/// Makes the overrides of a one-move score (all in lane 0) the bound costs:
/// each goes into `bound` and across every lane of `o`.
void Adopt(LayoutEvaluator::Overrides* o, std::vector<double>* bound) {
  for (size_t slot : o->slots) {
    DBLAYOUT_DCHECK(slot % kLanes == 0);
    const double cost = o->cost[slot];
    (*bound)[slot / kLanes] = cost;
    std::fill_n(o->cost.begin() + static_cast<std::ptrdiff_t>(slot), kLanes, cost);
  }
  o->slots.clear();
}

/// Every bound cost repeated once per lane.
std::vector<double> Interleave(const std::vector<double>& bound) {
  std::vector<double> lanes;
  lanes.reserve(bound.size() * kLanes);
  for (double cost : bound) lanes.insert(lanes.end(), kLanes, cost);
  return lanes;
}

/// The statement fold of kLanes candidates in one pass: lane L sums
/// weight * term_costs[term * kLanes + L] from 0 in statement order —
/// WorkloadCost's exact association order — and never reads another lane.
/// The pack expansion gives every accumulator a constant index, so the
/// chains stay in registers; an indexed `for` over the lanes kept them in
/// memory, paying a store and a reload on every add.
template <typename Statements, size_t... L>
void FoldLanes(const Statements& statements, const double* term_costs,
               double* totals, std::index_sequence<L...>) {
  double acc[] = {(static_cast<void>(L), 0.0)...};
  for (const auto& st : statements) {
    const double* cost = term_costs + static_cast<size_t>(st.term) * kLanes;
    ((acc[L] += st.weight * cost[L]), ...);
  }
  ((totals[L] = acc[L]), ...);
}

}  // namespace

LayoutEvaluator::LayoutEvaluator(const WorkloadProfile& profile,
                                 const CostModel& cost_model)
    : profile_(profile), cost_model_(cost_model) {
  // Intern every sub-plan's access list as a shape and every statement's
  // shape sequence as a term (AccessKeys: ids in first-appearance order).
  size_t num_objects = profile.num_objects;
  AccessKeys keys;
  std::vector<int32_t> sequence;
  term_begin_.push_back(0);
  statements_.reserve(profile.statements.size());
  for (const StatementProfile& s : profile.statements) {
    sequence.clear();
    for (const SubplanAccess& sp : s.subplans) {
      const int32_t shape = keys.Shape(sp);
      if (shape == static_cast<int32_t>(shapes_.size())) {
        shapes_.push_back(&sp);
        for (const ObjectAccess& a : sp.accesses) {
          num_objects = std::max(num_objects, static_cast<size_t>(a.object_id) + 1);
        }
      }
      sequence.push_back(shape);
      ++num_subplans_;
    }
    const int32_t term = keys.Term(sequence);
    if (term == num_terms()) {
      term_shapes_.insert(term_shapes_.end(), sequence.begin(), sequence.end());
      term_begin_.push_back(static_cast<int32_t>(term_shapes_.size()));
    }
    statements_.push_back(WeightedTerm{s.weight, term});
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

double LayoutEvaluator::TermCost(int32_t term, const double* shape_costs,
                                 size_t stride) const {
  double cost = 0;
  for (int32_t k = term_begin_[static_cast<size_t>(term)];
       k < term_begin_[static_cast<size_t>(term) + 1]; ++k) {
    cost += shape_costs[static_cast<size_t>(term_shapes_[static_cast<size_t>(k)]) *
                        stride];
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
    term_cost_[t] = TermCost(static_cast<int32_t>(t), shape_cost_.data(), 1);
  }
  total_ = SumTotal(term_cost_);
  bound_ = true;
  staging_ = MakeScratch();
  ++full_evals_;
  cost_model_.NoteExternalWorkloadEvaluation(1);
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
  s.shapes.cost = Interleave(shape_cost_);
  s.shapes.stamp.assign(shape_cost_.size(), 0);
  s.terms.cost = Interleave(term_cost_);
  s.terms.stamp.assign(term_cost_.size(), 0);
  s.epoch = 0;
  return s;
}

void LayoutEvaluator::ApplyMove(const Move& move, Layout* layout) const {
  for (int i : *move.objects) {
    if (move.rows == nullptr) {
      layout->AssignProportional(i, *move.disks, cost_model_.fleet());
    } else {
      for (int j = 0; j < layout->num_disks(); ++j) {
        layout->set_x(i, j, move.rows->x(i, j));
      }
    }
  }
}

int64_t LayoutEvaluator::ScoreLanes(const Move* moves, size_t count,
                                    Scratch* scratch, double* totals) const {
  DBLAYOUT_DCHECK(bound_);
  DBLAYOUT_DCHECK(count >= 1 && count <= kLanes);
  Scratch& s = *scratch;
  // The previous score's overrides stay in place until now, so Apply can
  // adopt them.
  Undo(&s.shapes, shape_cost_);
  Undo(&s.terms, term_cost_);
  const int m = layout_.num_disks();

  for (size_t lane = 0; lane < count; ++lane) {
    const std::vector<int>& objects = *moves[lane].objects;
    ++s.epoch;
    const size_t first_shape = s.shapes.slots.size();
    const size_t first_term = s.terms.slots.size();
    ApplyMove(moves[lane], &s.layout);
    // Affected shapes: the union of the moved objects' inverted-index
    // entries; affected terms: the union of those shapes' terms. Both are
    // deduped by the lane's epoch stamp and written to the lane's column.
    for (int obj : objects) {
      if (static_cast<size_t>(obj) >= object_shapes_.size()) continue;
      for (int32_t id : object_shapes_[static_cast<size_t>(obj)]) {
        Touch(&s.shapes, id, lane, s.epoch);
      }
    }
    for (size_t k = first_shape; k < s.shapes.slots.size(); ++k) {
      const size_t slot = s.shapes.slots[k];
      s.shapes.cost[slot] =
          cost_model_.SubplanCost(*shapes_[slot / kLanes], s.layout);
      for (int32_t t : shape_terms_[slot / kLanes]) {
        Touch(&s.terms, t, lane, s.epoch);
      }
    }
    for (size_t k = first_term; k < s.terms.slots.size(); ++k) {
      const size_t slot = s.terms.slots[k];
      s.terms.cost[slot] = TermCost(static_cast<int32_t>(slot / kLanes),
                                    s.shapes.cost.data() + lane, kLanes);
    }
    // The scratch layout mirrors the bound one between scores.
    for (int i : objects) {
      for (int j = 0; j < m; ++j) s.layout.set_x(i, j, layout_.x(i, j));
    }
  }

  // Lanes past `count` fold the bound costs; their totals are dropped.
  double lane_totals[kLanes];
  FoldLanes(statements_, s.terms.cost.data(), lane_totals,
            std::make_index_sequence<kLanes>());
  std::copy_n(lane_totals, count, totals);
  return static_cast<int64_t>(s.shapes.slots.size());
}

void LayoutEvaluator::ScoreBatch(std::span<const Move> moves, Scratch* scratch,
                                 std::span<double> totals) const {
  DBLAYOUT_CHECK(totals.size() >= moves.size());
  if (moves.empty()) return;
  int64_t recosted = 0;
  for (size_t begin = 0; begin < moves.size(); begin += kLanes) {
    const size_t count = std::min(kLanes, moves.size() - begin);
    recosted += ScoreLanes(moves.data() + begin, count, scratch,
                           totals.data() + begin);
  }
  // One shared-counter update per batch, not per candidate.
  const auto n = static_cast<int64_t>(moves.size());
  delta_evals_.fetch_add(n, std::memory_order_relaxed);
  cost_model_.NoteExternalWorkloadEvaluation(n);
  DBLAYOUT_OBS_COUNT("evaluator/delta_evals", n);
  DBLAYOUT_OBS_COUNT("evaluator/subplans_recosted", recosted);
}

double LayoutEvaluator::Apply(const Move& move) {
  double total = 0;
  ScoreBatch({&move, 1}, &staging_, {&total, 1});
  // The kernel put staging_'s rows back; ApplyMove writes the candidate's
  // with the kernel's own arithmetic, so they are the rows it scored.
  ApplyMove(move, &layout_);
  ApplyMove(move, &staging_.layout);
  // The lane's re-costed entries become the bound costs, in every lane of
  // staging_ too, so staging_ stays a scratch of the new binding.
  Adopt(&staging_.shapes, &shape_cost_);
  Adopt(&staging_.terms, &term_cost_);
  total_ = total;
  DBLAYOUT_OBS_COUNT("evaluator/commits", 1);
  // Full-recompute parity: the delta-maintained caches and total must match
  // a from-scratch §5 evaluation of the new layout.
  AuditParity();
  return total_;
}

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
