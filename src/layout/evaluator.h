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
// sequences), so the evaluator interns them once, at construction, on the
// exact access key (AccessKeys, workload/analyzer.h):
//
//   shape — one distinct access list; it caches one SubplanCost.
//   term  — one distinct per-statement sequence of shape ids; it caches the
//           left-to-right sum of its shapes' costs (StatementCost).
//
// A statement is then (weight, term), and the inverted index is
// object -> shapes plus shape -> terms.
//
// Every candidate is scored by one kernel, kLanes candidates at a time in
// one Scratch. Lane by lane, a candidate applies its rows, re-costs only
// the shapes in its objects' index entries into its own column of a
// lane-interleaved shape table (cost[shape * kLanes + lane]), re-sums only
// the terms those shapes occur in into its column of the term table, and
// puts its rows back. One pass over the statements then runs kLanes
// independent chains total[lane] += w_Q * cost[term * kLanes + lane], so the
// add latency of the ordered fold is paid once per batch instead of once per
// candidate. Each lane performs exactly the operations of
// CostModel::WorkloadCost on its candidate, in the same order: SubplanCost
// is a pure function of the access list and the lane's rows, a term sums
// its shapes left to right from 0 exactly as StatementCost does, and the
// lane's chain visits the statements in profile order. Lanes share no
// arithmetic — a lane never reads another lane's column, and a lane with no
// candidate folds the bound costs and is dropped — so a total does not
// depend on its lane position, on its batch neighbours, or on the batch
// size, and is bit-identical to a full recomputation of the candidate. That
// is what makes the greedy search's results independent of the thread
// count and of which call scored a candidate. Apply scores the move it
// takes as a one-lane batch through the same kernel; only Bind sums one
// column with SumTotal. CostModel stays the thin ground-truth oracle: the evaluator
// calls it once per shape and is DCHECK-audited against a from-scratch
// recomputation (InvariantAuditor::AuditWorkloadTotal) after every Bind and
// Apply.
//
// Thread model: ScoreBatch is const, touches shared state only read-only,
// and confines all mutation to a caller-provided Scratch — one Scratch per
// worker makes concurrent scoring of disjoint batches race-free. Bind and
// Apply mutate the evaluator and are single-threaded.

#ifndef DBLAYOUT_LAYOUT_EVALUATOR_H_
#define DBLAYOUT_LAYOUT_EVALUATOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
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
  /// Candidates scored per pass of the kernel: the number of independent
  /// fold chains over the statements. Chosen with bench_eval: 4, 8 and 16
  /// lanes priced an APB-800 candidate within noise of each other; 8 keeps
  /// its accumulators in registers on the baseline ISA and pads less than
  /// 16 on partial batches and one-lane calls.
  static constexpr size_t kLanes = 8;

  /// Binds to one (profile, cost model) pair. Both must outlive the
  /// evaluator; the profile's statement/sub-plan structure must not change.
  LayoutEvaluator(const WorkloadProfile& profile, const CostModel& cost_model);

  /// Candidate costs for one intern table (shapes or terms), lane-interleaved:
  /// cost[id * kLanes + lane] holds id's cost in `lane` of the last score,
  /// and the bound cost wherever that lane did not override it, so the
  /// statement fold reads one array without a per-entry branch. The next
  /// score on the same Scratch puts the bound costs back first.
  struct Overrides {
    std::vector<double> cost;
    std::vector<int64_t> stamp;  ///< lane epoch that last overrode each id
    std::vector<size_t> slots;   ///< id * kLanes + lane overridden, lane by lane
  };

  /// Per-worker scoring state: a private copy of the bound layout plus
  /// shape and term cost overrides. Valid until the next Bind/Apply;
  /// create fresh Scratches (MakeScratch) after either.
  struct Scratch {
    Layout layout;
    Overrides shapes;
    Overrides terms;
    int64_t epoch = 0;  ///< advances once per scored lane
  };

  /// One candidate: the bound layout with every object of `objects`
  /// re-assigned — to its row in `rows` when that is set (migration toward
  /// a target layout), else proportionally across `disks`
  /// (Layout::AssignProportional arithmetic, bit-identical). The pointees
  /// must outlive the call that scores the move.
  struct Move {
    const std::vector<int>* objects = nullptr;
    const std::vector<int>* disks = nullptr;
    const Layout* rows = nullptr;
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
  // Pure w.r.t. the evaluator: each move is applied inside `scratch` and
  // undone before returning.

  /// Scores every move of `moves`, kLanes per kernel pass, into the same
  /// index of `totals` (which must be at least as long). Each total is
  /// bit-identical to CostModel::WorkloadCost of the materialized candidate,
  /// whatever the batch holds. Counts moves.size() (delta) workload
  /// evaluations, recorded once per call.
  void ScoreBatch(std::span<const Move> moves, Scratch* scratch,
                  std::span<double> totals) const;

  // -- Mutation (single-threaded) ---------------------------------------------

  /// Takes `move`: scores it as a one-move batch, writes its rows into the
  /// bound layout, adopts its re-costed shape and term entries as the bound
  /// costs, and returns the new TotalCost(), bit-identical to the score.
  /// Counts one (delta) workload evaluation. Debug builds then audit the
  /// total against a from-scratch recomputation
  /// (InvariantAuditor::AuditWorkloadTotal).
  double Apply(const Move& move);

  /// Evaluation accounting: delta scorings (ScoreBatch/Apply) vs full
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

  /// The kernel: scores moves[0, count) (1 <= count <= kLanes) into
  /// totals[0, count) and returns the shapes re-costed. The lanes' shape and
  /// term overrides stay in `scratch` until its next score, so Apply can
  /// adopt lane 0's.
  int64_t ScoreLanes(const Move* moves, size_t count, Scratch* scratch,
                     double* totals) const;

  /// Writes `move`'s candidate rows into `layout`.
  void ApplyMove(const Move& move, Layout* layout) const;

  /// Cost of `term`: its shapes' costs summed left to right from 0, exactly
  /// as CostModel::StatementCost sums. Shape s's cost is
  /// shape_costs[s * stride].
  double TermCost(int32_t term, const double* shape_costs, size_t stride) const;

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

  Scratch staging_;  ///< Apply's scoring state, kept in step with layout_

  mutable std::atomic<int64_t> delta_evals_{0};
  int64_t full_evals_ = 0;
  obs::EventJournal* journal_ = nullptr;  ///< not owned; see set_journal
};

}  // namespace dblayout

#endif  // DBLAYOUT_LAYOUT_EVALUATOR_H_
