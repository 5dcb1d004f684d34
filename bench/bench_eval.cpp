// Evaluation-engine bench: full recomputation vs incremental delta costing
// vs deterministic parallel candidate scoring (LayoutEvaluator +
// ThreadPool), on the TPCH-22 workload, the Table 2 query subset and
// APB-800 (whose 2,398 sub-plans intern to a few dozen distinct shapes).
//
// The workload of one greedy iteration is scored three ways over the same
// candidate set (every object widened by one drive from full striping):
//   full      — CostModel::WorkloadCost on a materialized candidate layout
//   delta     — LayoutEvaluator::ScoreBatch over all candidates, 1 thread
//   parallel  — the search's scoring step: batches of
//               LayoutEvaluator::kLanes fanned out over the shared pool
// Delta totals must be bit-identical to the full recomputation (that is the
// evaluator's contract), so the speedup column is a pure wall-clock story.
// Every timing is one pass over the candidate set, repeated after a warm-up
// (bench_util.h TimeRepeated) and reported as the median, with the delta
// row's interquartile range beside it.
// A final case runs the whole TS-GREEDY search with 1 and 8 scoring threads
// and checks the results are identical. The bench exits 1 if any delta or
// parallel total differs from the full one in its bit pattern (a NaN
// included), or if the two searches differ.

#include <bit>
#include <cstdint>

#include "bench/bench_util.h"
#include "benchdata/apb.h"
#include "benchdata/tpch.h"
#include "common/thread_pool.h"
#include "layout/evaluator.h"
#include "layout/search.h"

using namespace dblayout;
using namespace dblayout::bench;

namespace {

/// One widen-by-one candidate: `object` re-assigned proportionally across
/// `disks` (its current drives plus one extra).
struct Candidate {
  int object = 0;
  std::vector<int> disks;
};

std::vector<Candidate> WidenByOneCandidates(const Layout& layout, int m) {
  std::vector<Candidate> cands;
  for (int i = 0; i < layout.num_objects(); ++i) {
    const std::vector<int> current = layout.DisksOf(i);
    for (int j = 0; j < m; ++j) {
      if (layout.x(i, j) > 0) continue;
      std::vector<int> wider = current;
      wider.push_back(j);
      std::sort(wider.begin(), wider.end());
      cands.push_back(Candidate{i, std::move(wider)});
    }
  }
  // Full striping leaves nothing to widen; narrow every object to make a
  // non-trivial starting point instead (first half of the drives).
  if (cands.empty()) {
    std::vector<int> half;
    for (int j = 0; j < (m + 1) / 2; ++j) half.push_back(j);
    for (int i = 0; i < layout.num_objects(); ++i) {
      for (int j = (m + 1) / 2; j < m; ++j) {
        std::vector<int> wider = half;
        wider.push_back(j);
        std::sort(wider.begin(), wider.end());
        cands.push_back(Candidate{i, std::move(wider)});
      }
    }
  }
  return cands;
}

struct CaseResult {
  size_t candidates = 0;
  int subplans = 0;
  int shapes = 0;  // distinct access lists the evaluator costs per Bind
  RepeatedTiming full;
  RepeatedTiming delta;
  RepeatedTiming par[2];  // 2 and 8 threads
  int64_t mismatches = 0;  // delta/parallel totals whose bits differ from full
};

/// Totals of `got` whose bit pattern differs from `want`'s.
int64_t BitMismatches(const std::vector<double>& want,
                      const std::vector<double>& got) {
  int64_t mismatches = 0;
  for (size_t k = 0; k < want.size(); ++k) {
    if (std::bit_cast<uint64_t>(want[k]) != std::bit_cast<uint64_t>(got[k])) {
      ++mismatches;
    }
  }
  return mismatches;
}

CaseResult RunCase(const Database& db, const DiskFleet& fleet,
                   const WorkloadProfile& profile) {
  const int m = fleet.num_disks();
  const int n = static_cast<int>(db.Objects().size());
  CaseResult r;

  // Starting point: every object narrowed to the first half of the drives,
  // so every candidate set is non-empty and the iteration is realistic.
  Layout start(n, m);
  std::vector<int> half;
  for (int j = 0; j < (m + 1) / 2; ++j) half.push_back(j);
  for (int i = 0; i < n; ++i) start.AssignProportional(i, half, fleet);

  const std::vector<Candidate> cands = WidenByOneCandidates(start, m);
  r.candidates = cands.size();

  const CostModel cm(fleet);
  LayoutEvaluator evaluator(profile, cm);
  evaluator.Bind(start);
  r.subplans = evaluator.num_subplans();
  r.shapes = evaluator.num_shapes();

  std::vector<double> full_costs(cands.size(), 0.0);
  std::vector<double> delta_costs(cands.size(), 0.0);
  std::vector<std::vector<int>> objects;
  objects.reserve(cands.size());
  for (const Candidate& c : cands) objects.push_back({c.object});
  std::vector<LayoutEvaluator::Move> moves;
  for (size_t k = 0; k < cands.size(); ++k) {
    moves.push_back({&objects[k], &cands[k].disks, nullptr});
  }

  // Full recomputation: materialize each candidate, evaluate from scratch.
  r.full = TimeRepeated([&] {
    for (size_t k = 0; k < cands.size(); ++k) {
      Layout candidate = start;
      candidate.AssignProportional(cands[k].object, cands[k].disks, fleet);
      full_costs[k] = cm.WorkloadCost(profile, candidate);
    }
  });

  // Delta costing, single-threaded.
  LayoutEvaluator::Scratch scratch = evaluator.MakeScratch();
  r.delta = TimeRepeated(
      [&] { evaluator.ScoreBatch(moves, &scratch, delta_costs); });
  r.mismatches += BitMismatches(full_costs, delta_costs);

  // Parallel delta scoring across the shared pool, one batch of kLanes
  // candidates per index, as the search scores.
  static constexpr size_t kBatch = LayoutEvaluator::kLanes;
  const size_t batches = (cands.size() + kBatch - 1) / kBatch;
  const int thread_counts[2] = {2, 8};
  for (int t = 0; t < 2; ++t) {
    const int threads = thread_counts[t];
    std::fill(delta_costs.begin(), delta_costs.end(), 0.0);
    std::vector<LayoutEvaluator::Scratch> scratches(
        static_cast<size_t>(ThreadPool::SharedParallelism(threads)));
    r.par[t] = TimeRepeated([&] {
      for (auto& s : scratches) s = evaluator.MakeScratch();
      ThreadPool::SharedParallelFor(
          static_cast<int64_t>(batches), threads,
          [&moves, &delta_costs, &evaluator, &scratches](int64_t b, int worker) {
            const size_t begin = static_cast<size_t>(b) * kBatch;
            const size_t count = std::min(kBatch, moves.size() - begin);
            evaluator.ScoreBatch(std::span(moves).subspan(begin, count),
                                 &scratches[static_cast<size_t>(worker)],
                                 std::span(delta_costs).subspan(begin, count));
          });
    });
    r.mismatches += BitMismatches(full_costs, delta_costs);
  }
  return r;
}

}  // namespace

int main() {
  Database db = benchdata::MakeTpchDatabase(1.0);
  DiskFleet fleet = DiskFleet::Heterogeneous(8, 0.3, 42);

  Workload tpch22 = Unwrap(benchdata::MakeTpch22Workload(db), "tpch-22");
  WorkloadProfile profile22 = Unwrap(AnalyzeWorkload(db, tpch22), "analyze");

  // Table 2's query subset (3, 9, 10, 12, 18, 21) as its own workload.
  WorkloadProfile table2;
  table2.num_objects = profile22.num_objects;
  for (int q : {3, 9, 10, 12, 18, 21}) {
    const StatementProfile& s = profile22.statements[static_cast<size_t>(q - 1)];
    StatementProfile copy;
    copy.sql = s.sql;
    copy.weight = s.weight;
    copy.plan = ClonePlan(*s.plan);
    copy.subplans = s.subplans;
    table2.statements.push_back(std::move(copy));
  }

  // APB-800 over its own schema, on the same drives.
  Database apb = benchdata::MakeApbDatabase();
  Workload apb800 = Unwrap(benchdata::MakeApb800Workload(apb), "apb-800");
  WorkloadProfile profile_apb = Unwrap(AnalyzeWorkload(apb, apb800), "analyze");

  BenchJson json("eval");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"workload", "cands", "subplans", "shapes", "full(ms)",
                  "delta(ms)", "delta(ns/cand)", "delta IQR(ns/cand)", "runs",
                  "par2(ms)", "par8(ms)", "delta speedup", "par8 speedup",
                  "bit mismatches"});

  struct Case {
    const char* name;
    const Database* db;
    const WorkloadProfile* profile;
  };
  bool parity = true;
  for (const Case& c : {Case{"TPCH-22", &db, &profile22},
                        Case{"Table2", &db, &table2},
                        Case{"APB-800", &apb, &profile_apb}}) {
    const CaseResult r = RunCase(*c.db, fleet, *c.profile);
    parity = parity && r.mismatches == 0;
    // Medians throughout; the delta row also carries its interquartile range.
    const double delta_speedup =
        r.delta.median_s > 0 ? r.full.median_s / r.delta.median_s : 0;
    const double par8_speedup =
        r.par[1].median_s > 0 ? r.full.median_s / r.par[1].median_s : 0;
    const double ns_per_cand = 1e9 / static_cast<double>(r.candidates);
    const double delta_ns = ns_per_cand * r.delta.median_s;
    const double delta_q1_ns = ns_per_cand * r.delta.q1_s;
    const double delta_q3_ns = ns_per_cand * r.delta.q3_s;
    rows.push_back({c.name, StrFormat("%zu", r.candidates),
                    StrFormat("%d", r.subplans), StrFormat("%d", r.shapes),
                    StrFormat("%.2f", 1e3 * r.full.median_s),
                    StrFormat("%.3f", 1e3 * r.delta.median_s),
                    StrFormat("%.0f", delta_ns),
                    StrFormat("%.0f-%.0f", delta_q1_ns, delta_q3_ns),
                    StrFormat("%d", r.delta.runs),
                    StrFormat("%.3f", 1e3 * r.par[0].median_s),
                    StrFormat("%.3f", 1e3 * r.par[1].median_s),
                    StrFormat("%.1fx", delta_speedup),
                    StrFormat("%.1fx", par8_speedup),
                    StrFormat("%lld", static_cast<long long>(r.mismatches))});
    json.Add(c.name,
             {{"candidates", StrFormat("%zu", r.candidates)},
              {"subplans", StrFormat("%d", r.subplans)},
              {"shapes", StrFormat("%d", r.shapes)},
              {"full_s", StrFormat("%.6f", r.full.median_s)},
              {"delta_s", StrFormat("%.6f", r.delta.median_s)},
              {"delta_runs", StrFormat("%d", r.delta.runs)},
              {"delta_ns_per_cand", StrFormat("%.1f", delta_ns)},
              {"delta_ns_per_cand_q1", StrFormat("%.1f", delta_q1_ns)},
              {"delta_ns_per_cand_q3", StrFormat("%.1f", delta_q3_ns)},
              {"par2_s", StrFormat("%.6f", r.par[0].median_s)},
              {"par8_s", StrFormat("%.6f", r.par[1].median_s)},
              {"delta_speedup", StrFormat("%.2f", delta_speedup)},
              {"par8_speedup", StrFormat("%.2f", par8_speedup)},
              {"mismatches",
               StrFormat("%lld", static_cast<long long>(r.mismatches))}});
  }
  PrintTable(
      "Per-iteration candidate scoring: full recomputation vs delta costing "
      "vs parallel (8 drives)",
      rows);
  if (!parity) {
    std::fprintf(stderr,
                 "FAIL: delta totals differ from full recomputation in their "
                 "bits\n");
    json.Write();
    return 1;
  }

  // Whole-search determinism: the same recommendation, bit for bit, with 1
  // and 8 scoring threads.
  {
    SearchOptions opts;
    Workload wl = Unwrap(benchdata::MakeTpch22Workload(db), "tpch-22");
    WorkloadProfile profile = Unwrap(AnalyzeWorkload(db, wl), "analyze");
    ResolvedConstraints constraints;
    opts.num_threads = 1;
    SearchResult one = Unwrap(
        TsGreedySearch(db, fleet, opts).Run(profile, constraints), "search t1");
    opts.num_threads = 8;
    SearchResult eight = Unwrap(
        TsGreedySearch(db, fleet, opts).Run(profile, constraints), "search t8");
    bool identical = one.cost == eight.cost &&
                     one.telemetry.cost_trajectory ==
                         eight.telemetry.cost_trajectory;
    for (int i = 0; identical && i < one.layout.num_objects(); ++i) {
      for (int j = 0; j < one.layout.num_disks(); ++j) {
        if (one.layout.x(i, j) != eight.layout.x(i, j)) identical = false;
      }
    }
    std::printf("\nsearch determinism (1 vs 8 threads): %s (cost %.3f ms, "
                "%d iterations, %lld evals = %lld full + %lld delta)\n",
                identical ? "IDENTICAL" : "MISMATCH", one.cost,
                one.greedy_iterations,
                static_cast<long long>(one.layouts_evaluated),
                static_cast<long long>(one.telemetry.full_evals),
                static_cast<long long>(one.telemetry.delta_evals));
    json.Add("search_determinism",
             {{"identical", identical ? "true" : "false"},
              {"cost_ms", StrFormat("%.6f", one.cost)},
              {"layouts_evaluated",
               StrFormat("%lld", static_cast<long long>(one.layouts_evaluated))}},
             &one.telemetry);
    if (!identical) {
      std::fprintf(stderr, "FAIL: parallel search result differs\n");
      json.Write();
      return 1;
    }
  }

  // One advised end-to-end run so the record set carries a per-phase
  // wall-clock breakdown (partition/search/evaluate) for dblayout_report
  // --compare to gate on.
  {
    LayoutAdvisor advisor(db, fleet);
    Recommendation rec =
        Unwrap(advisor.RecommendFromProfile(profile22), "advised");
    std::printf("\nadvised phases: partition %.2f ms, search %.2f ms, "
                "evaluate %.2f ms\n",
                rec.phases.partition_ms, rec.phases.search_ms,
                rec.phases.evaluate_ms);
    json.Add("advised_tpch22",
             {{"estimated_cost_ms", StrFormat("%.3f", rec.estimated_cost_ms)},
              {"full_striping_cost_ms",
               StrFormat("%.3f", rec.full_striping_cost_ms)}},
             &rec.telemetry, &rec.phases);
  }
  json.Write();
  return 0;
}
