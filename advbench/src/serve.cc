// Service workload (serve-tpch-m8): a seeded multi-tenant TPC-H stream
// replayed through Supervisor::OnStatement in a closed loop from one
// thread, with the default ServiceConfig.
//
// Untraced run: the stream is replayed from a fresh supervisor until the
// time bound (each replay completes). Every OnStatement is one op; each
// replay's FlushAll plus its final-layout checks is one more. A call closed
// a window when its session's windows_closed() grew, and ran an advise when
// advises() grew. After the loop, each session's final active layout is
// compared with full striping on that session's statements, by the cost
// model and by the execution simulator.
//
// Traced run: alternating untraced and telemetry-on replays give the
// telemetry overhead. The benchmark cannot wrap the calls a session makes
// inside OnStatement, so the in-service layer times come from the program's
// own spans (workload/analyze, search/run, ...) nested under the benchmark's
// service.on_statement spans; parse, compression, one oracle costing,
// materialize and simulate are standalone probes over the replayed stream.

#include <optional>

#include "bench.h"
#include "common/strutil.h"
#include "gauge.h"
#include "layout/cost_model.h"
#include "service/supervisor.h"
#include "spans.h"
#include "sql/parser.h"
#include "storage/block_map.h"
#include "workloads.h"

namespace advbench {

using namespace dblayout;

namespace {

constexpr int kSetupsPerReplay = 10;  ///< set-up repetitions per replay
/// A replay takes seconds, and the host's speed moves within that, so a
/// timed replay reads the gauge every this many statements.
constexpr size_t kStatementsPerGauge = 1000;

struct Replayed {
  std::vector<double> ingest_ms;  ///< calls that closed no window
  std::vector<double> window_ms;  ///< calls that closed a window
  std::vector<double> advise_ms;  ///< window-closing calls that advised
  double total_ms = 0;            ///< every OnStatement plus FlushAll
  /// With a gauge: the speed factor of each window_ms entry, and total_ms
  /// rescaled to the reference speed.
  std::vector<double> window_speed;
  double scaled_total_ms = 0;
  std::map<int, Layout> active;   ///< final active layout per session
  int64_t windows = 0, advises = 0, promotions = 0, rollbacks = 0, degraded = 0;
};

/// Replays the whole stream through a fresh supervisor. With `gauge`, the
/// gauge is read every kStatementsPerGauge statements and after FlushAll,
/// outside the timed calls, and each call is given the speed factor of the
/// interval it ran in.
Replayed Replay(const ServeInput& in, Outcome& out, SpeedGauge* gauge = nullptr) {
  Replayed r;
  double unscaled_ms = 0;
  auto read_gauge = [&] {
    const double speed = gauge != nullptr ? gauge->Next() : 1.0;
    r.window_speed.resize(r.window_ms.size(), speed);
    r.scaled_total_ms += unscaled_ms * speed;
    unscaled_ms = 0;
  };
  Supervisor supervisor(in.db, in.fleet, ServiceConfig{}, nullptr);
  for (size_t i = 0; i < in.stream.size(); ++i) {
    const StreamEvent& ev = in.stream[i];
    const Session* s = supervisor.FindSession(ev.session);
    const int windows = s != nullptr ? s->windows_closed() : 0;
    const int advises = s != nullptr ? s->advises() : 0;
    const double t0 = NowMs();
    Status st;
    {
      obs::ScopedSpan span("service.on_statement");
      st = supervisor.OnStatement(ev.session, ev.sql);
    }
    const double ms = NowMs() - t0;
    r.total_ms += ms;
    unscaled_ms += ms;
    out.Op(st.ok() ? "" : "OnStatement: " + st.ToString());
    s = supervisor.FindSession(ev.session);
    if (s != nullptr && s->windows_closed() != windows) {
      r.window_ms.push_back(ms);
      if (s->advises() != advises) r.advise_ms.push_back(ms);
    } else {
      r.ingest_ms.push_back(ms);
    }
    if ((i + 1) % kStatementsPerGauge == 0) read_gauge();
  }
  const double t0 = NowMs();
  Status flushed;
  {
    obs::ScopedSpan span("service.flush");
    flushed = supervisor.FlushAll();
  }
  r.total_ms += NowMs() - t0;
  unscaled_ms += NowMs() - t0;
  read_gauge();
  for (const auto& [id, session] : supervisor.sessions()) {
    r.active.emplace(id, session->active_layout());
    r.windows += session->windows_closed();
    r.advises += session->advises();
    r.promotions += session->promotions();
    r.rollbacks += session->rollbacks();
    r.degraded += session->mode() == SessionMode::kDegraded ? 1 : 0;
  }
  if (!flushed.ok()) out.Op("FlushAll: " + flushed.ToString());
  return r;
}

/// Each session's statements, analyzed (leniently, as the service does).
std::map<int, WorkloadProfile> SessionProfiles(const ServeInput& in) {
  std::map<int, Workload> workloads;
  for (const StreamEvent& ev : in.stream) {
    // Unparsable statements are skipped, as the service skips them.
    (void)workloads[ev.session].Add(ev.sql);
  }
  std::map<int, WorkloadProfile> profiles;
  for (const auto& [id, workload] : workloads) {
    profiles.emplace(id, AnalyzeWorkloadLenient(in.db, workload, nullptr));
  }
  return profiles;
}

/// Checks of one replay's end state; `reference` holds the first replay's
/// final layouts, which every later replay must reproduce exactly.
std::string CheckFinal(const ServeInput& in, const Replayed& r,
                       const std::string& inject_fault,
                       std::optional<std::map<int, Layout>>& reference) {
  if (r.active.empty()) return "no sessions after the replay";
  const std::vector<int64_t> sizes = in.db.ObjectSizes();
  for (const auto& [id, active] : r.active) {
    Layout layout = active;
    if (inject_fault == "layout") layout.set_x(0, 0, layout.x(0, 0) + 0.5);
    if (Status st = layout.Validate(sizes, in.fleet); !st.ok()) {
      return StrFormat("session %d: invalid active layout: %s", id,
                       st.ToString().c_str());
    }
    if (reference.has_value()) {
      const auto it = reference->find(id);
      if (it == reference->end() || !it->second.ApproxEquals(layout, 0)) {
        return StrFormat("session %d: final layout differs between replays", id);
      }
    }
  }
  if (!reference.has_value()) reference = r.active;
  return "";
}

/// Cost-model and simulator totals of the final layouts against full
/// striping, over every session's statements.
struct Quality {
  double est_active = 0, est_striping = 0;
  double sim_active = 0, sim_striping = 0;
  bool sim_ok = true;
};

Quality Compare(const ServeInput& in, const std::map<int, WorkloadProfile>& profiles,
                const std::map<int, Layout>& active) {
  Quality q;
  const CostModel cost_model(in.fleet);
  const Layout striping =
      Layout::FullStriping(static_cast<int>(in.db.Objects().size()), in.fleet);
  for (const auto& [id, profile] : profiles) {
    const auto it = active.find(id);
    if (it == active.end()) continue;
    q.est_active += cost_model.WorkloadCost(profile, it->second);
    q.est_striping += cost_model.WorkloadCost(profile, striping);
    const Result<double> sa = SimulateMs(in.db, in.fleet, profile, it->second);
    const Result<double> ss = SimulateMs(in.db, in.fleet, profile, striping);
    q.sim_ok = q.sim_ok && sa.ok() && ss.ok();
    if (sa.ok() && ss.ok()) {
      q.sim_active += *sa;
      q.sim_striping += *ss;
    }
  }
  return q;
}

/// The closed loop of timed replays. Every replay is followed, outside its
/// timed region, by its final-layout checks and kSetupsPerReplay repeated
/// set-ups, which one more gauge reading rescales.
void RunTimed(const Options& opts, const ServeInput& in, Outcome& out) {
  std::vector<double> window, wall_window, ingest, advise, setup_ms, setup_wall;
  double total_ms = 0, wall_total_ms = 0;
  int64_t statements = 0;
  int replays = 0;
  std::optional<std::map<int, Layout>> reference;
  Replayed last;
  SpeedGauge gauge;
  const double start = NowMs();
  while (NowMs() - start < opts.seconds * 1000 || replays < 1) {
    last = Replay(in, out, &gauge);
    out.Op(CheckFinal(in, last, opts.inject_fault, reference));
    const size_t first_setup = setup_wall.size();
    for (int i = 0; i < kSetupsPerReplay; ++i) {
      const double t0 = NowMs();
      const bool made = MakeServeInput(opts.seed, opts.tiny).ok();
      setup_wall.push_back(NowMs() - t0);
      if (!made) out.Op("repeated set-up failed");
    }
    const double speed = gauge.Next();
    for (size_t i = first_setup; i < setup_wall.size(); ++i) {
      setup_ms.push_back(setup_wall[i] * speed);
    }
    ++replays;
    statements += static_cast<int64_t>(in.stream.size());
    total_ms += last.scaled_total_ms;
    wall_total_ms += last.total_ms;
    for (size_t i = 0; i < last.window_ms.size(); ++i) {
      window.push_back(last.window_ms[i] * last.window_speed[i]);
    }
    wall_window.insert(wall_window.end(), last.window_ms.begin(),
                       last.window_ms.end());
    ingest.insert(ingest.end(), last.ingest_ms.begin(), last.ingest_ms.end());
    advise.insert(advise.end(), last.advise_ms.begin(), last.advise_ms.end());
  }
  if (!reference.has_value()) return;  // failures say why

  const Quality q = Compare(in, SessionProfiles(in), *reference);
  out.Op(q.sim_ok ? "" : "simulation failed");
  const double est_ratio = q.est_striping > 0 ? q.est_active / q.est_striping : 0;
  const double sim_ratio = q.sim_striping > 0 ? q.sim_active / q.sim_striping : 0;
  // Every window close is the service's advisor decision (drift check,
  // re-advise when drifted, guardrail), so its median is both the advise
  // and the window latency here. The re-advising closes alone are too few
  // and too unlike one another to give a steady median; the traced run
  // reports them as service.advise_window_ms.
  out.values["advise_p50_ms"] = Median(window);
  out.values["window_p50_ms"] = Median(window);
  out.values["window_p99_ms"] = Quantile(window, 0.99);
  out.values["stmts_per_s"] = static_cast<double>(statements) / (total_ms / 1000);
  out.values["est_cost_ratio"] = est_ratio;
  out.values["sim_cost_ratio"] = sim_ratio;
  out.values["setup_s"] = Median(setup_ms) / 1000;
  out.notes.push_back(StrFormat(
      "replays %d x %zu statements; windows %zu, re-advising windows %zu",
      replays, in.stream.size(), window.size(), advise.size()));
  out.notes.push_back(StrFormat(
      "wall clock: window p50 %.3f ms, p99 %.3f ms, re-advising window p50 "
      "%.2f ms, ingest p50 %.4f ms, %.1f statements/s, set-up p50 %.2f ms; "
      "gauge kernel p50 %.2f ms (reference %.0f ms)",
      Median(wall_window), Quantile(wall_window, 0.99), Median(advise),
      Median(ingest), static_cast<double>(statements) / (wall_total_ms / 1000),
      Median(setup_wall), Median(gauge.kernel_ms()), kReferenceKernelMs));
  out.notes.push_back(StrFormat(
      "per replay: %lld windows, %lld advises, %lld promotions, %lld "
      "rollbacks, %lld degraded sessions",
      static_cast<long long>(last.windows), static_cast<long long>(last.advises),
      static_cast<long long>(last.promotions),
      static_cast<long long>(last.rollbacks),
      static_cast<long long>(last.degraded)));
  out.notes.push_back(StrFormat(
      "est_gain_pct %.2f, sim_gain_pct %.2f (final active layouts over full "
      "striping)",
      100 * (1 - est_ratio), 100 * (1 - sim_ratio)));
}

void RunTraced(const Options& opts, const ServeInput& in, Outcome& out) {
  using obs::ScopedSpan;
  obs::Tracer& tracer = obs::Tracer::Global();
  std::optional<std::map<int, Layout>> reference;
  const std::map<int, WorkloadProfile> profiles = SessionProfiles(in);

  // Alternate untraced and traced replays; the layer numbers come from the
  // last traced one, which leaves tracing on for the probes below.
  std::vector<double> plain_ms, traced_ms;
  Replayed traced;
  CounterSnapshot before, after_replay;
  const double start = NowMs();
  while (NowMs() - start < opts.seconds * 500 || plain_ms.size() < 2) {
    SetTracing(false);
    const Replayed plain = Replay(in, out);
    plain_ms.push_back(plain.total_ms);
    out.Op(CheckFinal(in, plain, opts.inject_fault, reference));
    tracer.Clear();
    SetTracing(true);
    before = SnapshotCounters();
    traced = Replay(in, out);
    after_replay = SnapshotCounters();
    traced_ms.push_back(traced.total_ms);
    out.Op(CheckFinal(in, traced, opts.inject_fault, reference));
  }

  // Standalone probes over the replayed stream and its final layouts.
  {
    ScopedSpan span("sql.parse");
    for (const StreamEvent& ev : in.stream) (void)ParseSql(ev.sql);
  }
  {
    ScopedSpan span("workload.compress");
    for (const auto& [id, profile] : profiles) CompressProfile(profile);
  }
  int64_t distinct_signatures = 0;
  for (const auto& [id, profile] : profiles) {
    distinct_signatures += ComputeProfileStats(profile).distinct_signatures;
  }
  const CostModel cost_model(in.fleet);
  {
    ScopedSpan span("layout.oracle_cost");
    for (const auto& [id, profile] : profiles) {
      cost_model.WorkloadCost(profile, traced.active.at(id));
    }
  }
  std::string error;
  {
    ScopedSpan span("storage.materialize");
    for (const auto& [id, layout] : traced.active) {
      if (!BlockMap::Materialize(layout, in.db.ObjectSizes(), in.fleet).ok()) {
        error = "materialize failed";
      }
    }
  }
  const CounterSnapshot before_sim = SnapshotCounters();
  {
    ScopedSpan span("engine.simulate");
    for (const auto& [id, profile] : profiles) {
      if (!SimulateMs(in.db, in.fleet, profile, traced.active.at(id)).ok()) {
        error = "simulation failed";
      }
    }
  }
  const int64_t disk_streams =
      CounterDelta(before_sim, SnapshotCounters(), "io/disk_streams");
  SetTracing(false);
  out.Op(error.empty() ? "" : "layer probe: " + error);
  if (!WriteTrace(opts.trace_out)) out.Op("cannot write " + opts.trace_out);

  const SpanTable spans = SummarizeSpans(tracer.Events());
  auto total = [&spans](const char* name) { return TotalMs(spans, name); };
  // Counter growth over the traced replay only (not the probes).
  auto replay_count = [&](const char* name) {
    return static_cast<double>(CounterDelta(before, after_replay, name));
  };
  auto replay_sum = [&](std::initializer_list<const char*> names) {
    double s = 0;
    for (const char* n : names) s += replay_count(n);
    return s;
  };
  const double considered = replay_sum(
      {"search/moves_considered/widen", "search/moves_considered/jump",
       "search/moves_considered/narrow", "search/moves_considered/migrate"});
  const double accepted = replay_sum(
      {"search/moves_accepted/widen", "search/moves_accepted/jump",
       "search/moves_accepted/narrow", "search/moves_accepted/migrate"});
  const double full = replay_count("evaluator/full_evals");
  const double delta = replay_count("evaluator/delta_evals");
  const double recosted = replay_count("evaluator/subplans_recosted");
  const double serving = total("service.on_statement") + total("service.flush");
  auto& v = out.values;
  v["sql.parse_ms"] = total("sql.parse");
  v["sql.statements"] = static_cast<double>(in.stream.size());
  v["optimizer.plan_ms"] = total("workload/plan_statement");
  v["optimizer.plans"] = replay_count("workload/statements_planned");
  v["workload.analyze_ms"] = SelfMs(spans, "workload/analyze");
  v["workload.subplans"] = replay_count("workload/subplans");
  v["workload.distinct_signatures"] = static_cast<double>(distinct_signatures);
  v["workload.compress_ms"] = total("workload.compress");
  v["workload.access_graph_ms"] = total("workload/build_access_graph");
  v["workload.analysis_share_pct"] = 100 * total("workload/analyze") / serving;
  v["graph.partition_ms"] = total("graph/max_cut_partition");
  v["graph.kl_passes"] = replay_count("graph/kl_passes");
  v["graph.kl_moves"] = replay_count("graph/kl_moves");
  v["layout.initial_layout_ms"] = total("search/initial_layout");
  v["layout.search_ms"] = total("search/run");
  v["layout.search_share_pct"] = 100 * total("search/run") / serving;
  v["layout.reference_eval_ms"] = SelfMs(spans, "advisor/readvise");
  v["layout.oracle_cost_ms"] = total("layout.oracle_cost");
  v["layout.greedy_iterations"] = accepted;
  v["layout.layouts_evaluated"] = full + delta;
  v["layout.full_evals"] = full;
  v["layout.delta_evals"] = delta;
  v["layout.subplans_recosted"] = recosted;
  v["layout.recost_per_eval"] = delta > 0 ? recosted / delta : 0;
  v["layout.eval_us"] =
      full + delta > 0 ? 1000 * total("search/run") / (full + delta) : 0;
  v["layout.moves_considered"] = considered;
  v["layout.moves_accepted"] = accepted;
  v["layout.accept_ratio"] = considered > 0 ? accepted / considered : 0;
  v["layout.capacity_rejected"] =
      replay_count("search/candidates_capacity_rejected");
  v["layout.movement_rejected"] =
      replay_count("search/candidates_movement_rejected");
  v["layout.migrate_considered"] = replay_count("search/moves_considered/migrate");
  v["storage.materialize_ms"] = total("storage.materialize");
  v["engine.simulate_ms"] = total("engine.simulate");
  v["io.disk_streams"] = static_cast<double>(disk_streams);
  v["service.ingest_us"] = 1000 * Median(traced.ingest_ms);
  v["service.windows"] = static_cast<double>(traced.windows);
  v["service.advises"] = static_cast<double>(traced.advises);
  v["service.advise_window_ms"] = Median(traced.advise_ms);
  v["service.promotions"] = static_cast<double>(traced.promotions);
  v["service.rollbacks"] = static_cast<double>(traced.rollbacks);
  v["service.degraded_sessions"] = static_cast<double>(traced.degraded);
  v["service.unplannable"] = replay_count("workload/statements_unplannable");
  v["obs.overhead_pct"] = 100 * (Median(traced_ms) / Median(plain_ms) - 1);
  out.notes.push_back(StrFormat(
      "overhead pairs: %zu (untraced replay p50 %.1f ms, traced p50 %.1f ms)",
      plain_ms.size(), Median(plain_ms), Median(traced_ms)));
}

}  // namespace

Outcome RunServe(const Options& opts) {
  Outcome out;
  const Result<ServeInput> made = MakeServeInput(opts.seed, opts.tiny);
  if (!made.ok()) {
    out.Op("setup: " + made.status().ToString());
    return out;
  }
  const ServeInput& in = *made;
  out.threads = ServiceConfig{}.num_threads;
  out.notes.push_back(StrFormat("%zu statements, %d drives", in.stream.size(),
                                in.fleet.num_disks()));
  if (opts.trace) {
    RunTraced(opts, in, out);
    return out;
  }
  RunTimed(opts, in, out);
  return out;
}

}  // namespace advbench
