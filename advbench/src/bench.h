// Shared types of the advisor benchmark: run options, the outcome a
// workload reports (ops, failures, named metrics), and timing helpers.

#ifndef ADVBENCH_BENCH_H_
#define ADVBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/execution_sim.h"
#include "workload/analyzer.h"

namespace advbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke-test size: a few statements, a few drives.
  bool tiny = false;
  /// Benchmark-generator seed override (negative = the workload's default).
  int64_t gen_seed = -1;
  /// Test hook: corrupt every checked output ("layout" or "cost") so the
  /// smoke test can prove that the checks count it as a failed op.
  std::string inject_fault;
  /// Where the traced run writes its spans (Chrome trace JSON); empty = none.
  std::string trace_out;
};

/// A metric's name and unit. Every workload reports every metric of the
/// list its mode selects, so the two lists are the benchmark's schema.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (untraced run).
inline constexpr MetricSpec kEndToEnd[] = {
    {"advise_p50_ms", "ms"}, {"window_p50_ms", "ms"},
    {"window_p99_ms", "ms"}, {"stmts_per_s", "1/s"},
    {"est_cost_ratio", "ratio"}, {"sim_cost_ratio", "ratio"},
    {"setup_s", "s"},        {"peak_rss_mb", "MB"},
};

/// Per-layer metrics (traced run), named by module.
inline constexpr MetricSpec kPerLayer[] = {
    {"sql.parse_ms", "ms"},
    {"sql.statements", "count"},
    {"optimizer.plan_ms", "ms"},
    {"optimizer.plans", "count"},
    {"workload.analyze_ms", "ms"},
    {"workload.subplans", "count"},
    {"workload.distinct_signatures", "count"},
    {"workload.compress_ms", "ms"},
    {"workload.access_graph_ms", "ms"},
    {"workload.analysis_share_pct", "%"},
    {"graph.partition_ms", "ms"},
    {"graph.kl_passes", "count"},
    {"graph.kl_moves", "count"},
    {"layout.initial_layout_ms", "ms"},
    {"layout.search_ms", "ms"},
    {"layout.search_share_pct", "%"},
    {"layout.reference_eval_ms", "ms"},
    {"layout.oracle_cost_ms", "ms"},
    {"layout.greedy_iterations", "count"},
    {"layout.layouts_evaluated", "count"},
    {"layout.full_evals", "count"},
    {"layout.delta_evals", "count"},
    {"layout.subplans_recosted", "count"},
    {"layout.recost_per_eval", "ratio"},
    {"layout.eval_us", "us"},
    {"layout.moves_considered", "count"},
    {"layout.moves_accepted", "count"},
    {"layout.accept_ratio", "ratio"},
    {"layout.capacity_rejected", "count"},
    {"layout.movement_rejected", "count"},
    {"layout.migrate_considered", "count"},
    {"storage.materialize_ms", "ms"},
    {"engine.simulate_ms", "ms"},
    {"io.disk_streams", "count"},
    {"service.ingest_us", "us"},
    {"service.windows", "count"},
    {"service.advises", "count"},
    {"service.advise_window_ms", "ms"},
    {"service.promotions", "count"},
    {"service.rollbacks", "count"},
    {"service.degraded_sessions", "count"},
    {"service.unplannable", "count"},
    {"obs.overhead_pct", "%"},
};

/// What one workload run reports. An op fails when the call returns an
/// error or its output check fails; every failure is also described in
/// `failures`.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  int threads = 1;
  std::vector<std::string> failures;
  /// Metric values by name; names absent here report 0.
  std::map<std::string, double> values;
  std::vector<std::string> notes;  ///< human-readable context lines

  /// Counts one op; `error` empty means it passed.
  void Op(const std::string& error) {
    ++attempted;
    if (!error.empty()) {
      ++failed;
      if (failures.size() < 20) failures.push_back(error);
    }
  }
};

/// Steady-clock milliseconds.
inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank q-quantile (q in [0,1]); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Median (mean of the two middle values for an even count).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Relative difference |a - b| / max(|a|, |b|), 0 when both are 0.
inline double RelDiff(double a, double b) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return scale == 0 ? 0 : std::fabs(a - b) / scale;
}

/// Weighted simulated I/O time (ms) of `profile` under `layout`, by the
/// execution simulator with default options (cold cache per statement).
inline dblayout::Result<double> SimulateMs(const dblayout::Database& db,
                                           const dblayout::DiskFleet& fleet,
                                           const dblayout::WorkloadProfile& profile,
                                           const dblayout::Layout& layout) {
  dblayout::ExecutionSimulator sim(db, fleet);
  std::vector<dblayout::WeightedPlan> plans;
  for (const dblayout::StatementProfile& s : profile.statements) {
    plans.push_back(dblayout::WeightedPlan{s.plan.get(), s.weight});
  }
  return sim.ExecutePlans(plans, layout);
}

/// Peak resident set size of this process, MB.
double PeakRssMb();

Outcome RunAdvise(const Options& options);
Outcome RunServe(const Options& options);

}  // namespace advbench

#endif  // ADVBENCH_BENCH_H_
