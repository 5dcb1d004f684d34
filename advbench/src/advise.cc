// Advise workloads (apb800-m32, sales45-m32): a closed loop of end-to-end
// advises, SQL text -> Recommendation, timed from outside the advisor.
//
// Untraced run: one warm-up advise fixes the reference answer, then advises
// repeat until the time bound. Every advise is checked outside its timed
// region; the simulator comparison and the thread-count identity check run
// once, after the loop.
//
// Traced run: alternating untraced and telemetry-on advises give the
// telemetry overhead; then one advise is decomposed into the layer entry
// points it is made of (parse, analyze, search, reference costs), each
// wrapped in a benchmark span, plus standalone probes of the layers the
// search calls internally (compress, access graph, partition, initial
// layout, one oracle costing, materialize, simulate).

#include <optional>

#include "bench.h"
#include "common/strutil.h"
#include "gauge.h"
#include "graph/partition.h"
#include "layout/advisor.h"
#include "layout/evaluator.h"
#include "spans.h"
#include "storage/block_map.h"
#include "workloads.h"

namespace advbench {

using namespace dblayout;

namespace {

constexpr double kCostTolerance = 1e-9;  ///< relative, for cost checks
constexpr int kSetupsPerAdvise = 3;      ///< set-up repetitions per advise

struct Advised {
  double ms = 0;
  Result<Recommendation> rec = Status::Internal("not run");
};

/// One timed end-to-end advise: parse the script, then Recommend.
Advised AdviseOnce(const LayoutAdvisor& advisor, const std::string& script) {
  Advised out;
  const double t0 = NowMs();
  Result<Workload> workload = Workload::FromScript("advbench", script);
  out.rec = workload.ok() ? advisor.Recommend(*workload)
                          : Result<Recommendation>(workload.status());
  out.ms = NowMs() - t0;
  return out;
}

/// Output checks of the advise workloads, against a reference analysis of
/// the same script made once, outside any timed region.
class AdviseChecker {
 public:
  AdviseChecker(const AdviseInput& in, const WorkloadProfile& profile,
                std::string inject_fault)
      : in_(in),
        profile_(profile),
        inject_fault_(std::move(inject_fault)),
        cost_model_(in.fleet),
        sizes_(in.db.ObjectSizes()),
        striping_(Layout::FullStriping(static_cast<int>(sizes_.size()), in.fleet)),
        striping_cost_(cost_model_.WorkloadCost(profile, striping_)) {}

  const Layout& striping() const { return striping_; }

  /// Empty when `advised` passes every check; fixes the reference answer
  /// on the first passing call.
  std::string Check(const Advised& advised) {
    if (!advised.rec.ok()) {
      return "advise failed: " + advised.rec.status().ToString();
    }
    Recommendation rec = *advised.rec;
    if (inject_fault_ == "layout") rec.layout.set_x(0, 0, rec.layout.x(0, 0) + 0.5);
    if (inject_fault_ == "cost") rec.estimated_cost_ms *= 1.0 + 1e-6;
    if (Status st = rec.layout.Validate(sizes_, in_.fleet); !st.ok()) {
      return "invalid layout: " + st.ToString();
    }
    const double oracle = cost_model_.WorkloadCost(profile_, rec.layout);
    if (RelDiff(oracle, rec.estimated_cost_ms) > kCostTolerance) {
      return StrFormat("estimated cost %.17g differs from the oracle's %.17g",
                       rec.estimated_cost_ms, oracle);
    }
    if (rec.estimated_cost_ms > striping_cost_ * (1 + kCostTolerance)) {
      return StrFormat("estimated cost %.17g above full striping's %.17g",
                       rec.estimated_cost_ms, striping_cost_);
    }
    if (!reference_.has_value()) {
      reference_ = std::move(rec);
    } else if (!rec.layout.ApproxEquals(reference_->layout, 0) ||
               rec.estimated_cost_ms != reference_->estimated_cost_ms) {
      return "recommendation differs from the run's first advise";
    }
    return "";
  }

  /// The first passing recommendation (null until one passed).
  const Recommendation* reference() const {
    return reference_.has_value() ? &*reference_ : nullptr;
  }

 private:
  const AdviseInput& in_;
  const WorkloadProfile& profile_;
  std::string inject_fault_;
  CostModel cost_model_;
  std::vector<int64_t> sizes_;
  Layout striping_;
  double striping_cost_;
  std::optional<Recommendation> reference_;
};

/// The closed loop of timed advises. Every advise is followed, outside its
/// timed region, by its output check and kSetupsPerAdvise repeated set-ups;
/// the gauge then rescales the advise's and the set-ups' times.
void RunTimed(const Options& opts, const AdviseInput& in,
              const AdvisorOptions& advisor_options,
              const WorkloadProfile& profile, AdviseChecker& checker,
              Outcome& out) {
  const LayoutAdvisor advisor(in.db, in.fleet, advisor_options);
  out.Op(checker.Check(AdviseOnce(advisor, in.script)));  // warm-up
  SpeedGauge gauge;
  std::vector<double> times, wall, setup_ms, setup_wall;
  const size_t min_ops = opts.tiny ? 1 : 3;
  const double start = NowMs();
  while (NowMs() - start < opts.seconds * 1000 || times.size() < min_ops) {
    Advised a = AdviseOnce(advisor, in.script);
    out.Op(checker.Check(a));
    const size_t first_setup = setup_wall.size();
    for (int i = 0; i < kSetupsPerAdvise; ++i) {
      const double t0 = NowMs();
      const bool made =
          MakeAdviseInput(opts.workload, opts.seed, opts.gen_seed, opts.tiny).ok();
      setup_wall.push_back(NowMs() - t0);
      if (!made) out.Op("repeated set-up failed");
    }
    const double speed = gauge.Next();
    wall.push_back(a.ms);
    times.push_back(a.ms * speed);
    for (size_t i = first_setup; i < setup_wall.size(); ++i) {
      setup_ms.push_back(setup_wall[i] * speed);
    }
  }
  const Recommendation* ref = checker.reference();
  if (ref == nullptr) return;  // every advise failed; failures say why

  // Bit-identical answers at any thread count (checked once per run).
  if (advisor_options.search.num_threads > 1) {
    AdvisorOptions single = advisor_options;
    single.search.num_threads = 1;
    const Advised a = AdviseOnce(LayoutAdvisor(in.db, in.fleet, single), in.script);
    std::string error = checker.Check(a);
    if (error.empty() && a.rec->layouts_evaluated != ref->layouts_evaluated) {
      error = "1-thread search took a different path";
    }
    out.Op(error.empty() ? "" : "1-thread advise: " + error);
  }

  const Result<double> sim_rec =
      SimulateMs(in.db, in.fleet, profile, ref->layout);
  const Result<double> sim_fs =
      SimulateMs(in.db, in.fleet, profile, checker.striping());
  out.Op(sim_rec.ok() && sim_fs.ok() ? "" : "simulation failed");
  const double sim_ratio =
      sim_rec.ok() && sim_fs.ok() && *sim_fs > 0 ? *sim_rec / *sim_fs : 0;

  const double p50 = Median(times);
  const double est_ratio = ref->estimated_cost_ms / ref->full_striping_cost_ms;
  out.values["advise_p50_ms"] = p50;
  // The whole script is one window: the advise is the call that closes it.
  out.values["window_p50_ms"] = p50;
  // A run holds too few advises for a p99 with ten samples beyond it, so the
  // tail metric is the highest percentile that has ten beyond it.
  const double tail_q = std::max(0.5, 1 - 10.0 / static_cast<double>(times.size()));
  out.values["window_p99_ms"] = Quantile(times, tail_q);
  out.values["stmts_per_s"] =
      in.statements * static_cast<double>(times.size()) / (Sum(times) / 1000);
  out.values["est_cost_ratio"] = est_ratio;
  out.values["sim_cost_ratio"] = sim_ratio;
  out.values["setup_s"] = Median(setup_ms) / 1000;
  out.notes.push_back(StrFormat(
      "advises timed: %zu (p50 %.1f ms, p%.0f %.1f, max %.1f at the "
      "reference speed)",
      times.size(), p50, 100 * tail_q, Quantile(times, tail_q),
      Quantile(times, 1)));
  out.notes.push_back(StrFormat(
      "wall clock: advise p50 %.1f ms, set-up p50 %.2f ms; gauge kernel p50 "
      "%.2f ms (reference %.0f ms)",
      Median(wall), Median(setup_wall), Median(gauge.kernel_ms()),
      kReferenceKernelMs));
  out.notes.push_back(StrFormat(
      "est_gain_pct %.2f, sim_gain_pct %.2f (improvement over full striping)",
      100 * (1 - est_ratio), 100 * (1 - sim_ratio)));
  out.notes.push_back(StrFormat(
      "search: %d greedy iterations, %lld layouts evaluated; phases (ms) "
      "analyze %.1f partition %.1f search %.1f evaluate %.1f",
      ref->greedy_iterations, static_cast<long long>(ref->layouts_evaluated),
      ref->phases.analyze_ms, ref->phases.partition_ms, ref->phases.search_ms,
      ref->phases.evaluate_ms));
}

void RunTraced(const Options& opts, const AdviseInput& in,
               const AdvisorOptions& advisor_options, AdviseChecker& checker,
               Outcome& out) {
  using obs::ScopedSpan;
  obs::Tracer& tracer = obs::Tracer::Global();
  const LayoutAdvisor advisor(in.db, in.fleet, advisor_options);

  // Telemetry overhead: alternate untraced and traced advises.
  std::vector<double> plain, traced;
  const double start = NowMs();
  while (NowMs() - start < opts.seconds * 500 || plain.size() < 2) {
    SetTracing(false);
    Advised a = AdviseOnce(advisor, in.script);
    plain.push_back(a.ms);
    out.Op(checker.Check(a));
    tracer.Clear();
    SetTracing(true);
    Advised b = AdviseOnce(advisor, in.script);
    SetTracing(false);
    traced.push_back(b.ms);
    out.Op(checker.Check(b));
  }

  // One advise decomposed into its layer calls.
  tracer.Clear();
  SetTracing(true);
  Result<Workload> workload = Status::Internal("not parsed");
  Result<WorkloadProfile> profile = Status::Internal("not analyzed");
  CounterSnapshot before_analyze, after_analyze, after_search;
  Result<ResolvedConstraints> resolved = Status::Internal("not resolved");
  Result<SearchResult> sr = Status::Internal("not searched");
  const TsGreedySearch search(in.db, in.fleet, advisor_options.search);
  const CostModel cost_model(in.fleet);
  double striping_cost = 0;
  {
    ScopedSpan advise("advise");
    {
      ScopedSpan span("sql.parse");
      workload = Workload::FromScript("advbench", in.script);
    }
    // AnalyzeWorkload's own workload/analyze and workload/plan_statement
    // spans nest under this one and give the optimizer's share.
    before_analyze = SnapshotCounters();
    if (workload.ok()) {
      ScopedSpan span("workload.analyze");
      profile = AnalyzeWorkload(in.db, *workload, advisor_options.optimizer);
    }
    after_analyze = SnapshotCounters();
    if (profile.ok()) {
      ScopedSpan span("layout.search");
      resolved = ResolveConstraints(advisor_options.constraints, in.db, in.fleet);
      if (resolved.ok()) sr = search.Run(*profile, *resolved);
    }
    after_search = SnapshotCounters();
    if (sr.ok()) {
      ScopedSpan span("layout.reference_eval");
      LayoutEvaluator reference_eval(*profile, cost_model);
      striping_cost = reference_eval.Bind(checker.striping());
      for (const StatementProfile& s : profile->statements) {
        cost_model.StatementCost(s, sr->layout);
        cost_model.StatementCost(s, checker.striping());
      }
    }
  }
  const Recommendation* ref = checker.reference();
  std::string error;
  if (!workload.ok()) error = "parse: " + workload.status().ToString();
  else if (!profile.ok()) error = "analyze: " + profile.status().ToString();
  else if (!sr.ok()) error = "search: " + sr.status().ToString();
  else if (ref == nullptr) error = "no passing advise to compare with";
  else if (!sr->layout.ApproxEquals(ref->layout, 0) ||
           sr->cost != ref->estimated_cost_ms ||
           striping_cost != ref->full_striping_cost_ms) {
    error = "decomposed advise differs from LayoutAdvisor::Recommend";
  }
  out.Op(error.empty() ? "" : "decomposed advise: " + error);
  if (!error.empty()) {
    SetTracing(false);
    return;
  }
  const SearchTelemetry& t = sr->telemetry;
  const int64_t recosted =
      CounterDelta(after_analyze, after_search, "evaluator/subplans_recosted");

  // Standalone probes of the layers the search calls internally.
  {
    ScopedSpan span("workload.compress");
    CompressProfile(*profile);
  }
  WeightedGraph graph;
  {
    ScopedSpan span("workload.access_graph");
    graph = BuildAccessGraph(*profile);
  }
  const CounterSnapshot before_partition = SnapshotCounters();
  {
    ScopedSpan span("graph.partition");
    PartitionOptions partition_options;
    partition_options.num_partitions = in.fleet.num_disks();
    MaxCutPartition(graph, partition_options);
  }
  const CounterSnapshot after_partition = SnapshotCounters();
  const int64_t kl_passes =
      CounterDelta(before_partition, after_partition, "graph/kl_passes");
  const int64_t kl_moves =
      CounterDelta(before_partition, after_partition, "graph/kl_moves");
  {
    ScopedSpan span("layout.initial_layout");
    if (!search.InitialLayout(*profile, *resolved).ok()) {
      error = "initial layout failed";
    }
  }
  {
    ScopedSpan span("layout.oracle_cost");
    cost_model.WorkloadCost(*profile, sr->layout);
  }
  {
    ScopedSpan span("storage.materialize");
    if (!BlockMap::Materialize(sr->layout, in.db.ObjectSizes(), in.fleet).ok()) {
      error = "materialize failed";
    }
  }
  const CounterSnapshot before_sim = SnapshotCounters();
  {
    ScopedSpan span("engine.simulate");
    if (!SimulateMs(in.db, in.fleet, *profile, sr->layout).ok() ||
        !SimulateMs(in.db, in.fleet, *profile, checker.striping()).ok()) {
      error = "simulation failed";
    }
  }
  const int64_t disk_streams =
      CounterDelta(before_sim, SnapshotCounters(), "io/disk_streams");
  SetTracing(false);
  out.Op(error.empty() ? "" : "layer probe: " + error);
  if (!WriteTrace(opts.trace_out)) out.Op("cannot write " + opts.trace_out);

  const SpanTable spans = SummarizeSpans(tracer.Events());
  auto total = [&spans](const char* name) { return TotalMs(spans, name); };
  const ProfileAccessStats stats = ComputeProfileStats(*profile);
  const int64_t considered = t.widen_considered + t.jump_considered +
                             t.narrow_considered + t.migrate_considered;
  const int64_t accepted = t.widen_accepted + t.jump_accepted +
                           t.narrow_accepted + t.migrate_accepted;
  auto& v = out.values;
  v["sql.parse_ms"] = total("sql.parse");
  v["sql.statements"] = static_cast<double>(workload->size());
  v["optimizer.plan_ms"] = total("workload/plan_statement");
  v["optimizer.plans"] = static_cast<double>(
      CounterDelta(before_analyze, after_analyze, "workload/statements_planned"));
  v["workload.analyze_ms"] = SelfMs(spans, "workload/analyze");
  v["workload.subplans"] = static_cast<double>(stats.subplans);
  v["workload.distinct_signatures"] = static_cast<double>(stats.distinct_signatures);
  v["workload.compress_ms"] = total("workload.compress");
  v["workload.access_graph_ms"] = total("workload.access_graph");
  v["workload.analysis_share_pct"] =
      100 * (total("sql.parse") + total("workload.analyze")) / total("advise");
  v["graph.partition_ms"] = total("graph.partition");
  v["graph.kl_passes"] = static_cast<double>(kl_passes);
  v["graph.kl_moves"] = static_cast<double>(kl_moves);
  v["layout.initial_layout_ms"] = total("layout.initial_layout");
  v["layout.search_ms"] = total("layout.search");
  v["layout.search_share_pct"] = 100 * total("layout.search") / total("advise");
  v["layout.reference_eval_ms"] = total("layout.reference_eval");
  v["layout.oracle_cost_ms"] = total("layout.oracle_cost");
  v["layout.greedy_iterations"] = sr->greedy_iterations;
  v["layout.layouts_evaluated"] = static_cast<double>(sr->layouts_evaluated);
  v["layout.full_evals"] = static_cast<double>(t.full_evals);
  v["layout.delta_evals"] = static_cast<double>(t.delta_evals);
  v["layout.subplans_recosted"] = static_cast<double>(recosted);
  v["layout.recost_per_eval"] =
      t.delta_evals > 0 ? static_cast<double>(recosted) / t.delta_evals : 0;
  v["layout.eval_us"] = sr->layouts_evaluated > 0
                            ? 1000 * total("layout.search") / sr->layouts_evaluated
                            : 0;
  v["layout.moves_considered"] = static_cast<double>(considered);
  v["layout.moves_accepted"] = static_cast<double>(accepted);
  v["layout.accept_ratio"] =
      considered > 0 ? static_cast<double>(accepted) / considered : 0;
  v["layout.capacity_rejected"] = static_cast<double>(t.capacity_rejected);
  v["layout.movement_rejected"] = static_cast<double>(t.movement_rejected);
  v["layout.migrate_considered"] = static_cast<double>(t.migrate_considered);
  v["storage.materialize_ms"] = total("storage.materialize");
  v["engine.simulate_ms"] = total("engine.simulate");
  v["io.disk_streams"] = static_cast<double>(disk_streams);
  v["obs.overhead_pct"] = 100 * (Median(traced) / Median(plain) - 1);
  out.notes.push_back(StrFormat(
      "overhead pairs: %zu (untraced p50 %.1f ms, traced p50 %.1f ms)",
      plain.size(), Median(plain), Median(traced)));
}

}  // namespace

Outcome RunAdvise(const Options& opts) {
  Outcome out;
  const Result<AdviseInput> made =
      MakeAdviseInput(opts.workload, opts.seed, opts.gen_seed, opts.tiny);
  if (!made.ok()) {
    out.Op("setup: " + made.status().ToString());
    return out;
  }
  const AdviseInput& in = *made;
  out.threads = in.threads;

  AdvisorOptions advisor_options;
  advisor_options.search.num_threads = in.threads;
  // Reference analysis for the output checks (outside every timed region).
  Result<Workload> workload = Workload::FromScript("advbench", in.script);
  Result<WorkloadProfile> profile =
      workload.ok() ? AnalyzeWorkload(in.db, *workload, advisor_options.optimizer)
                    : Result<WorkloadProfile>(workload.status());
  if (!profile.ok()) {
    out.Op("reference analysis: " + profile.status().ToString());
    return out;
  }
  AdviseChecker checker(in, *profile, opts.inject_fault);
  out.notes.push_back(StrFormat("%d statements, %d drives, %d objects",
                                in.statements, in.fleet.num_disks(),
                                static_cast<int>(in.db.Objects().size())));
  if (opts.trace) {
    RunTraced(opts, in, advisor_options, checker, out);
    return out;
  }
  RunTimed(opts, in, advisor_options, *profile, checker, out);
  return out;
}

}  // namespace advbench
