// Incremental workload evaluation engine.
//
// The §5 cost decomposes as
//
//   WorkloadCost(L) = sum_Q w_Q * sum_{P in Q} max_j (Transfer_Pj + Seek_Pj)
//
// — a weighted sum over sub-plans of a per-sub-plan term that depends only
// on the sub-plan's access list and the layout rows of the objects it
// touches. Real workloads repeat those lists heavily (APB-800: 2,398
// sub-plans, 40 distinct access lists, 126 distinct per-statement
// sequences), so the evaluator interns them once, at construction:
//
//   shape — one distinct access list, keyed exactly by its ordered
//           (object, bit pattern of blocks, write, random, read-modify-write)
//           tuples; it caches one SubplanCost.
//   term  — one distinct per-statement sequence of shape ids; it caches the
//           left-to-right sum of its shapes' costs (StatementCost).
//
// A statement is then (weight, term), and the inverted index is
// object -> shapes plus shape -> terms. Moving one object (or one
// co-location group) re-costs only the shapes in its index entry, re-sums
// only the terms those shapes occur in, and folds
// total += w_Q * term_cost over the statements in workload order. Every
// floating-point operation sees the same operands in the same order as
// CostModel::WorkloadCost (SubplanCost is a pure function of the access
// list, a term sums left to right from 0 exactly as StatementCost does, and
// the fold visits statements in profile order), so a delta-scored total is
// bit-identical to a full recomputation of the candidate — which is what
// makes the greedy search's results independent of whether the delta path,
// the full path, or parallel scoring produced them. CostModel stays the
// thin ground-truth oracle: the evaluator calls it once per shape and is
// DCHECK-audited against a from-scratch recomputation
// (InvariantAuditor::AuditWorkloadTotal) after every committed move.
//
// Thread model: Score* methods are const, touch shared state only read-only,
// and confine all mutation to a caller-provided Scratch — one Scratch per
// worker makes concurrent scoring of disjoint candidates race-free. The
// staged Delta*/Commit/Revert mutation API is single-threaded.

#ifndef DBLAYOUT_LAYOUT_EVALUATOR_H_
#define DBLAYOUT_LAYOUT_EVALUATOR_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "layout/cost_model.h"
#include "storage/layout.h"
#include "workload/analyzer.h"

namespace dblayout::obs {
class EventJournal;
}  // namespace dblayout::obs

namespace dblayout {

class LayoutEvaluator {
 public:
  /// Binds to one (profile, cost model) pair. Both must outlive the
  /// evaluator; the profile's statement/sub-plan structure must not change.
  LayoutEvaluator(const WorkloadProfile& profile, const CostModel& cost_model);

  /// Candidate costs for one intern table (shapes or terms): a copy of the
  /// bound costs with the last score's re-costed entries written over it,
  /// so the statement fold reads one array without a per-entry branch. The
  /// next score on the same Scratch puts the bound costs back first.
  struct Overrides {
    std::vector<double> cost;
    std::vector<int64_t> stamp;  ///< epoch that last overrode each id
    std::vector<int32_t> ids;    ///< ids overridden this epoch, first-touch order
  };

  /// Per-worker scoring state: a private copy of the bound layout plus
  /// shape and term cost overrides. Valid until the next Bind/Commit;
  /// create fresh Scratches (MakeScratch) after either.
  struct Scratch {
    Layout layout;
    Overrides shapes;
    Overrides terms;
    int64_t epoch = 0;
    std::vector<double> saved_rows;  ///< row backup while scoring
  };

  /// Full recomputation: copies `layout`, re-costs every shape through the
  /// oracle, re-sums every term, and caches the results. Counts one (full)
  /// workload evaluation. Returns the total, bit-identical to
  /// CostModel::WorkloadCost(profile, layout).
  double Bind(const Layout& layout);

  /// Cached total cost of the currently bound layout, ms. No evaluation is
  /// performed (and none is counted).
  double TotalCost() const { return total_; }

  /// The currently bound layout.
  const Layout& layout() const { return layout_; }

  /// Test/fault-injection access to the bound layout. Mutating it stales the
  /// cached shape and term costs; callers must Bind() again before scoring
  /// (the greedy search uses this only for
  /// SearchOptions::post_move_hook_for_test, whose corruption is meant to be
  /// caught by the row audit).
  Layout& mutable_layout_for_test() { return layout_; }

  Scratch MakeScratch() const;

  // -- Thread-safe candidate scoring -----------------------------------------
  // Pure w.r.t. the evaluator: the candidate is "the bound layout with every
  // object of `objects` re-assigned", applied inside `scratch` and undone
  // before returning. Each call counts one (delta) workload evaluation.

  /// Candidate rows: every object of `objects` assigned proportionally
  /// across `disks` (Layout::AssignProportional arithmetic, bit-identical).
  double ScoreProportionalMove(const std::vector<int>& objects,
                               const std::vector<int>& disks,
                               Scratch* scratch) const;

  /// Candidate rows: every object of `objects` takes its row from `rows`
  /// (used by migration toward a target layout).
  double ScoreRowsFromMove(const std::vector<int>& objects, const Layout& rows,
                           Scratch* scratch) const;

  // -- Staged mutation (single-threaded) --------------------------------------

  /// Stages "assign `new_fractions` (a full row, one entry per disk) to
  /// `object`" and returns the candidate total. Commit() adopts it;
  /// Revert() (or staging another move) drops it.
  double DeltaForMove(int object, const std::vector<double>& new_fractions);

  /// Stages a whole-group proportional re-assignment (the greedy search's
  /// accepted move).
  double DeltaForProportionalMove(const std::vector<int>& objects,
                                  const std::vector<int>& disks);

  /// Stages "every object of `objects` takes its row from `rows`" (the
  /// migration step's accepted move).
  double DeltaForRowsFromMove(const std::vector<int>& objects, const Layout& rows);

  /// Adopts the staged move: writes the new rows into the bound layout,
  /// installs the re-costed shape and term cache entries, and updates
  /// TotalCost() to the staged total. Debug builds then audit the new total against a
  /// from-scratch recomputation (InvariantAuditor::AuditWorkloadTotal).
  void Commit();

  /// Drops the staged move; the bound layout and caches are untouched.
  void Revert();

  /// Evaluation accounting: delta scorings (Score*/Delta*) vs full
  /// recomputations (Bind). Both are also recorded in the bound CostModel's
  /// WorkloadEvaluations() so layouts_evaluated stays uniform.
  int64_t delta_evaluations() const {
    return delta_evals_.load(std::memory_order_relaxed);
  }
  int64_t full_evaluations() const { return full_evals_; }

  /// Sub-plans across all statements (the flat count, repeats included).
  int num_subplans() const { return num_subplans_; }

  /// Distinct access lists (shapes): the SubplanCost calls one Bind makes.
  int num_shapes() const { return static_cast<int>(shapes_.size()); }

  /// Distinct per-statement shape sequences (terms).
  int num_terms() const { return static_cast<int>(term_begin_.size()) - 1; }

  /// Observe-only decision journal (not owned; may be null). When set, every
  /// Bind() — a full §5 recomputation — appends one "bind" event carrying
  /// the recomputed total and the sub-plan count. Bind is always called from
  /// sequential sections, so the event order is deterministic.
  void set_journal(obs::EventJournal* journal) { journal_ = journal; }

 private:
  /// One statement: its weight and its interned term.
  struct WeightedTerm {
    double weight = 1.0;
    int32_t term = 0;
  };

  /// Applies rows via `apply`, re-costs the affected shapes and re-sums the
  /// affected terms into `scratch`, and returns the candidate total folded
  /// in WorkloadCost order. When `restore` is true, the scratch layout is
  /// put back before returning; the staging path passes false so it can
  /// capture the applied rows first.
  template <typename ApplyFn>
  double ScoreCore(const std::vector<int>& objects, const ApplyFn& apply,
                   Scratch* scratch, bool restore) const;

  /// Puts `scratch`'s rows for `objects` back from its saved_rows backup.
  void RestoreScratchRows(const std::vector<int>& objects, Scratch* scratch) const;

  /// Shared staging path: score without restore, capture the rows and total
  /// into the staged_* fields, re-sync the staging scratch. The re-costed
  /// shapes and terms stay in staging_'s overrides until Commit reads them.
  template <typename ApplyFn>
  double DeltaCore(const std::vector<int>& objects, const ApplyFn& apply);

  /// Cost of `term`: its shapes' costs summed left to right from 0, exactly
  /// as CostModel::StatementCost sums.
  double TermCost(int32_t term, const std::vector<double>& shape_costs) const;

  /// Total over `term_costs`, folded over the statements in WorkloadCost's
  /// exact association order.
  double SumTotal(const std::vector<double>& term_costs) const;

  /// Debug-build parity audit of total_ against a from-scratch §5
  /// recomputation.
  void AuditParity() const;

  const WorkloadProfile& profile_;
  const CostModel& cost_model_;

  // Intern tables, fixed at construction.
  std::vector<const SubplanAccess*> shapes_;  ///< representative per shape
  std::vector<int32_t> term_begin_;   ///< term t spans [begin[t], begin[t+1])
  std::vector<int32_t> term_shapes_;  ///< shape ids of every term, in order
  std::vector<WeightedTerm> statements_;            ///< in profile order
  std::vector<std::vector<int32_t>> object_shapes_;  ///< object -> shapes
  std::vector<std::vector<int32_t>> shape_terms_;    ///< shape -> terms
  int num_subplans_ = 0;

  Layout layout_;                   ///< currently bound layout
  std::vector<double> shape_cost_;  ///< cached SubplanCost per shape
  std::vector<double> term_cost_;   ///< cached StatementCost per term
  double total_ = 0;
  bool bound_ = false;              ///< Bind() has been called

  // Staged move (Delta* -> Commit/Revert).
  mutable Scratch staging_;
  bool staged_valid_ = false;
  std::vector<int> staged_objects_;
  std::vector<double> staged_rows_;  ///< |objects| x m, row-major
  double staged_total_ = 0;

  mutable std::atomic<int64_t> delta_evals_{0};
  int64_t full_evals_ = 0;
  obs::EventJournal* journal_ = nullptr;  ///< not owned; see set_journal
};

}  // namespace dblayout

#endif  // DBLAYOUT_LAYOUT_EVALUATOR_H_
