#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "lint/lint.h"
#include "service/checkpoint.h"
#include "service/config.h"
#include "service/guardrail.h"
#include "service/service_lint.h"
#include "service/session.h"
#include "service/shutdown.h"
#include "service/supervisor.h"
#include "workload/analyzer.h"
#include "workload/workload.h"

namespace dblayout {
namespace {

Column IntKey(const std::string& name, int64_t distinct) {
  Column c;
  c.name = name;
  c.type = ColumnType::kInt;
  c.distinct_count = distinct;
  c.min_value = 1;
  c.max_value = static_cast<double>(distinct);
  return c;
}

/// Two co-accessed large tables and one independent table (the search-test
/// micro instance): segregating big_a from big_b beats full striping on the
/// join workload, and a later big_a-scan-only phase regresses under the
/// segregated layout — exactly the lifecycle the guardrails manage.
Database MicroDb() {
  Database db("micro");
  for (const char* name : {"big_a", "big_b", "solo"}) {
    Table t;
    t.name = name;
    t.row_count = 300'000;
    t.columns = {IntKey(std::string(name) + "_k", 300'000)};
    Column pay;
    pay.name = std::string(name) + "_p";
    pay.type = ColumnType::kChar;
    pay.declared_length = 120;
    t.columns.push_back(pay);
    t.clustered_key = {t.columns[0].name};
    EXPECT_TRUE(db.AddTable(t).ok());
  }
  return db;
}

constexpr char kJoinAB[] =
    "SELECT COUNT(*) FROM big_a, big_b WHERE big_a_k = big_b_k";
constexpr char kScanA[] = "SELECT COUNT(*) FROM big_a";
constexpr char kScanSolo[] = "SELECT COUNT(*) FROM solo";

ServiceConfig MicroConfig() {
  ServiceConfig config;
  config.window_size = 2;
  config.max_move_fraction = 1.0;
  config.seed = 7;
  return config;
}

// --- Guardrail state machine ------------------------------------------------

WindowSignal Signal(double active, double candidate = -1, double last_good = -1) {
  WindowSignal s;
  s.active_cost_ms = active;
  s.candidate_cost_ms = candidate;
  s.last_good_cost_ms = last_good;
  return s;
}

TEST(GuardrailTest, PromotionRequiresConsecutiveQualifyingWindows) {
  ServiceConfig config;
  config.promote_threshold_pct = 5.0;
  config.promote_windows = 2;
  Guardrail g(config);

  // Window 1: candidate 20% cheaper — qualifies, but K=2 means observe.
  EXPECT_EQ(g.OnWindow(Signal(100, 80)), GuardrailAction::kNone);
  EXPECT_EQ(g.stage(), GuardrailStage::kObserving);
  EXPECT_EQ(g.streak(), 1);
  EXPECT_DOUBLE_EQ(g.last_benefit_pct(), 20.0);

  // Window 2: still qualifying — the streak completes and promotion fires.
  EXPECT_EQ(g.OnWindow(Signal(100, 80)), GuardrailAction::kPromote);
  EXPECT_EQ(g.stage(), GuardrailStage::kPromoted);
  EXPECT_EQ(g.streak(), 0);
}

TEST(GuardrailTest, StreakResetsOnNonQualifyingWindow) {
  ServiceConfig config;
  config.promote_threshold_pct = 5.0;
  config.promote_windows = 2;
  Guardrail g(config);

  EXPECT_EQ(g.OnWindow(Signal(100, 80)), GuardrailAction::kNone);
  EXPECT_EQ(g.streak(), 1);
  // Benefit below threshold: streak resets, promotion needs two fresh wins.
  EXPECT_EQ(g.OnWindow(Signal(100, 97)), GuardrailAction::kNone);
  EXPECT_EQ(g.streak(), 0);
  EXPECT_EQ(g.OnWindow(Signal(100, 80)), GuardrailAction::kNone);
  EXPECT_EQ(g.OnWindow(Signal(100, 80)), GuardrailAction::kPromote);
}

TEST(GuardrailTest, ObserveOnlyNeverPromotes) {
  ServiceConfig config;
  config.promote_threshold_pct = 5.0;
  config.promote_windows = 1;
  config.observe_only = true;
  Guardrail g(config);

  EXPECT_EQ(g.OnWindow(Signal(100, 50)), GuardrailAction::kWouldPromote);
  // The stage must not advance: observe-only is a permanent staging area.
  EXPECT_NE(g.stage(), GuardrailStage::kPromoted);
}

TEST(GuardrailTest, RollbackOnRealizedRegression) {
  ServiceConfig config;
  config.rollback_tolerance_pct = 2.0;
  Guardrail g(config);
  g.RestoreState(GuardrailStage::kPromoted, 0);

  // 1% over last-good: inside tolerance, keep the promoted layout.
  EXPECT_EQ(g.OnWindow(Signal(101, -1, 100)), GuardrailAction::kNone);
  EXPECT_EQ(g.stage(), GuardrailStage::kPromoted);

  // 10% over last-good: realized regression, roll back.
  EXPECT_EQ(g.OnWindow(Signal(110, -1, 100)), GuardrailAction::kRollback);
  EXPECT_EQ(g.stage(), GuardrailStage::kIdle);
}

TEST(GuardrailTest, RollbackOutranksPromotion) {
  ServiceConfig config;
  config.promote_threshold_pct = 5.0;
  config.promote_windows = 1;
  config.rollback_tolerance_pct = 2.0;
  Guardrail g(config);
  g.RestoreState(GuardrailStage::kPromoted, 0);

  // A qualifying next candidate AND a realized regression in the same
  // window: restoring safety wins.
  EXPECT_EQ(g.OnWindow(Signal(110, 50, 100)), GuardrailAction::kRollback);
  EXPECT_EQ(g.stage(), GuardrailStage::kIdle);
}

// --- Session lifecycle ------------------------------------------------------

TEST(SessionTest, PromotesThenRollsBackOnPhasedStream) {
  const Database db = MicroDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  Session session(1, db, fleet, MicroConfig(), nullptr);

  const Layout striped =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  ASSERT_TRUE(session.active_layout().ApproxEquals(striped));

  // Phase A: join-heavy. Window 0 advises (fresh session: full drift) and
  // starts observing; window 1 completes the K=2 streak and promotes.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(session.Ingest(kJoinAB).ok());
  EXPECT_EQ(session.promotions(), 1);
  EXPECT_EQ(session.stage(), GuardrailStage::kPromoted);
  EXPECT_FALSE(session.active_layout().ApproxEquals(striped));
  ASSERT_TRUE(session.last_good_layout().has_value());
  EXPECT_TRUE(session.last_good_layout()->ApproxEquals(striped));

  // Phase C: big_a scans only — realized cost regresses under the
  // segregated layout, and the session restores last-good (striping).
  int scans = 0;
  while (session.rollbacks() == 0 && scans < 20) {
    ASSERT_TRUE(session.Ingest(kScanA).ok());
    ++scans;
  }
  EXPECT_EQ(session.rollbacks(), 1);
  EXPECT_EQ(session.stage(), GuardrailStage::kIdle);
  EXPECT_TRUE(session.active_layout().ApproxEquals(striped));
  EXPECT_FALSE(session.last_good_layout().has_value());
}

TEST(SessionTest, ObserveOnlyJournalsButNeverMovesData) {
  const Database db = MicroDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  ServiceConfig config = MicroConfig();
  config.observe_only = true;
  Session session(1, db, fleet, config, nullptr);

  const Layout striped =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(session.Ingest(kJoinAB).ok());
  EXPECT_EQ(session.promotions(), 0);
  EXPECT_TRUE(session.active_layout().ApproxEquals(striped));
  // The candidate is still tracked — observe-only withholds the apply, not
  // the analysis.
  EXPECT_TRUE(session.candidate_layout().has_value());
}

TEST(SessionTest, RetrySucceedsAfterTransientFaults) {
  const Database db = MicroDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  ServiceConfig config = MicroConfig();
  config.retry.max_retries = 3;
  int calls = 0;
  config.advise_fault_hook_for_test = [&calls](int, int, int attempt) {
    ++calls;
    return attempt <= 2 ? Status::Internal("transient advise fault")
                        : Status::OK();
  };
  Session session(1, db, fleet, config, nullptr);

  ASSERT_TRUE(session.Ingest(kJoinAB).ok());
  ASSERT_TRUE(session.Ingest(kJoinAB).ok());
  EXPECT_EQ(calls, 3);  // two failures, then success
  EXPECT_EQ(session.advises(), 1);
  EXPECT_EQ(session.mode(), SessionMode::kActive);
  EXPECT_TRUE(session.candidate_layout().has_value());
}

TEST(SessionTest, RetryExhaustionDegradesInsteadOfFailing) {
  const Database db = MicroDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  ServiceConfig config = MicroConfig();
  config.retry.max_retries = 1;
  config.advise_fault_hook_for_test = [](int, int, int) {
    return Status::Internal("advise always fails");
  };
  Session session(1, db, fleet, config, nullptr);

  ASSERT_TRUE(session.Ingest(kJoinAB).ok());
  ASSERT_TRUE(session.Ingest(kJoinAB).ok());
  EXPECT_EQ(session.mode(), SessionMode::kDegraded);
  EXPECT_NE(session.degraded_reason().find("advise-retries-exhausted"),
            std::string::npos);
  // The stream keeps flowing: degradation sheds advising, not ingestion.
  ASSERT_TRUE(session.Ingest(kJoinAB).ok());
  ASSERT_TRUE(session.Ingest(kJoinAB).ok());
  EXPECT_EQ(session.advises(), 0);
  EXPECT_EQ(session.statements_ingested(), 4);
}

TEST(SessionTest, ProfileBudgetDegrades) {
  const Database db = MicroDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  ServiceConfig config = MicroConfig();
  config.max_profile_statements = 1;
  Session session(1, db, fleet, config, nullptr);

  // Two distinct access keys cannot compress below two statements.
  ASSERT_TRUE(session.Ingest(kScanA).ok());
  ASSERT_TRUE(session.Ingest(kScanSolo).ok());
  EXPECT_EQ(session.mode(), SessionMode::kDegraded);
  EXPECT_EQ(session.degraded_reason(), "profile-budget");
}

TEST(SessionTest, UnparsableStatementsAreSkippedNotFatal) {
  const Database db = MicroDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  Session session(1, db, fleet, MicroConfig(), nullptr);

  ASSERT_TRUE(session.Ingest("THIS IS NOT SQL AT ALL").ok());
  ASSERT_TRUE(session.Ingest(kJoinAB).ok());
  EXPECT_EQ(session.windows_closed(), 1);
  EXPECT_EQ(session.mode(), SessionMode::kActive);
}

/// A seeded stream over MicroDb: scans and joins with range predicates drawn
/// from a few constants (so access keys repeat across windows) and random
/// weights (so summed weights exercise the fold's addition order).
std::vector<std::pair<std::string, double>> GeneratedStream(uint64_t seed,
                                                            int count) {
  const char* templates[] = {
      "SELECT COUNT(*) FROM big_a WHERE big_a_k < ",
      "SELECT COUNT(*) FROM big_a, big_b WHERE big_a_k = big_b_k AND big_b_k < ",
      "SELECT COUNT(*) FROM solo WHERE solo_k < ",
  };
  const int constants[] = {1000, 40000, 250000};
  Rng rng(seed);
  std::vector<std::pair<std::string, double>> stream;
  for (int i = 0; i < count; ++i) {
    std::string sql = templates[rng.UniformInt(0, 2)];
    sql += std::to_string(constants[rng.UniformInt(0, 2)]);
    stream.emplace_back(std::move(sql), rng.UniformDouble(0.25, 4.0));
  }
  return stream;
}

std::string SerializeSession(const Session& session) {
  ServiceSnapshot snapshot;
  snapshot.sessions.push_back(session.Snapshot());
  return SerializeCheckpoint(snapshot);
}

void ExpectSameSubplans(const StatementProfile& a, const StatementProfile& b) {
  ASSERT_EQ(a.subplans.size(), b.subplans.size()) << a.sql;
  for (size_t i = 0; i < a.subplans.size(); ++i) {
    const auto& x = a.subplans[i].accesses;
    const auto& y = b.subplans[i].accesses;
    ASSERT_EQ(x.size(), y.size()) << a.sql;
    for (size_t j = 0; j < x.size(); ++j) {
      EXPECT_EQ(x[j].object_id, y[j].object_id);
      EXPECT_EQ(std::bit_cast<uint64_t>(x[j].blocks),
                std::bit_cast<uint64_t>(y[j].blocks));
      EXPECT_EQ(x[j].is_write, y[j].is_write);
      EXPECT_EQ(x[j].random, y[j].random);
      EXPECT_EQ(x[j].read_modify_write, y[j].read_modify_write);
    }
  }
}

TEST(SessionTest, WindowFoldEqualsOneCompressAndRestoresByteIdentically) {
  const Database db = MicroDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  ServiceConfig config = MicroConfig();
  config.window_size = 4;
  const auto stream = GeneratedStream(17, 48);
  const size_t cut = 28;  // seven windows, then a checkpoint

  Session session(1, db, fleet, config, nullptr);
  Workload all("all");
  for (size_t i = 0; i < cut; ++i) {
    ASSERT_TRUE(session.Ingest(stream[i].first, stream[i].second).ok());
    ASSERT_TRUE(all.Add(stream[i].first, stream[i].second).ok());
  }
  ASSERT_EQ(session.mode(), SessionMode::kActive);
  ASSERT_EQ(session.windows_closed(), 7);

  // The window-by-window fold is one CompressProfile over every statement:
  // same statements, order, bit-equal weights and (re-analyzed) sub-plans.
  auto analyzed = AnalyzeWorkload(db, all);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const WorkloadProfile compressed = CompressProfile(analyzed.value());
  const SessionSnapshot snapshot = session.Snapshot();
  ASSERT_EQ(snapshot.profile.size(), compressed.statements.size());
  ASSERT_LT(compressed.statements.size(), cut);
  Workload representatives("representatives");
  for (size_t i = 0; i < compressed.statements.size(); ++i) {
    const StatementProfile& want = compressed.statements[i];
    const StatementSnapshot& got = snapshot.profile[i];
    EXPECT_EQ(got.sql, want.sql);
    EXPECT_EQ(std::bit_cast<uint64_t>(got.weight),
              std::bit_cast<uint64_t>(want.weight));
    EXPECT_EQ(got.stream, want.stream);
    ASSERT_TRUE(representatives.Add(got.sql, got.weight, got.stream).ok());
  }
  auto reanalyzed = AnalyzeWorkload(db, representatives);
  ASSERT_TRUE(reanalyzed.ok());
  for (size_t i = 0; i < compressed.statements.size(); ++i) {
    ExpectSameSubplans(reanalyzed->statements[i], compressed.statements[i]);
  }

  // With two statements pending, snapshot -> restore -> snapshot serializes
  // byte-identically, and both sessions stay byte-identical through the
  // rest of the stream.
  for (size_t i = cut; i < cut + 2; ++i) {
    ASSERT_TRUE(session.Ingest(stream[i].first, stream[i].second).ok());
  }
  const std::string before = SerializeSession(session);
  auto parsed = ParseCheckpoint(before);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto restored =
      Session::Restore(parsed->sessions[0], db, fleet, config, nullptr);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(SerializeSession(restored.value()), before);
  for (size_t i = cut + 2; i < stream.size(); ++i) {
    ASSERT_TRUE(session.Ingest(stream[i].first, stream[i].second).ok());
    ASSERT_TRUE(restored->Ingest(stream[i].first, stream[i].second).ok());
  }
  EXPECT_EQ(SerializeSession(restored.value()), SerializeSession(session));
}

// --- Supervisor -------------------------------------------------------------

TEST(SupervisorTest, DegradedSessionNeverBlocksOthers) {
  const Database db = MicroDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  ServiceConfig config = MicroConfig();
  config.retry.max_retries = 0;
  // Session 1's advises always fail; session 2's always succeed.
  config.advise_fault_hook_for_test = [](int session_id, int, int) {
    return session_id == 1 ? Status::Internal("tenant 1 advise fault")
                           : Status::OK();
  };
  Supervisor supervisor(db, fleet, config, nullptr);

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(supervisor.OnStatement(1, kJoinAB).ok());
    ASSERT_TRUE(supervisor.OnStatement(2, kJoinAB).ok());
  }
  ASSERT_NE(supervisor.FindSession(1), nullptr);
  ASSERT_NE(supervisor.FindSession(2), nullptr);
  EXPECT_EQ(supervisor.FindSession(1)->mode(), SessionMode::kDegraded);
  EXPECT_EQ(supervisor.FindSession(2)->mode(), SessionMode::kActive);
  EXPECT_EQ(supervisor.FindSession(2)->promotions(), 1);
  EXPECT_EQ(supervisor.statements_consumed(), 8);
}

TEST(SupervisorTest, FlushProcessesPartialWindows) {
  const Database db = MicroDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  ServiceConfig config = MicroConfig();
  config.window_size = 100;  // nothing closes on its own
  Supervisor supervisor(db, fleet, config, nullptr);

  ASSERT_TRUE(supervisor.OnStatement(1, kJoinAB).ok());
  ASSERT_TRUE(supervisor.OnStatement(1, kJoinAB).ok());
  EXPECT_EQ(supervisor.FindSession(1)->windows_closed(), 0);
  ASSERT_TRUE(supervisor.FlushAll().ok());
  EXPECT_EQ(supervisor.FindSession(1)->windows_closed(), 1);
  EXPECT_EQ(supervisor.FindSession(1)->advises(), 1);
}

// --- service-config-sane lint rule ------------------------------------------

std::vector<Diagnostic> RunServiceLint(const ServiceConfig& config,
                                       const Database& db) {
  LintRunner runner;
  runner.AddRule(MakeServiceConfigRule(config));
  LintInput input;
  input.db = &db;
  auto report = runner.Run(input);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  std::vector<Diagnostic> findings;
  for (const Diagnostic& d : report->diagnostics) {
    if (d.rule_id == "service-config-sane") findings.push_back(d);
  }
  return findings;
}

TEST(ServiceLintTest, SaneConfigIsClean) {
  const Database db = MicroDb();
  ServiceConfig config;
  config.max_move_fraction = 1.0;
  EXPECT_TRUE(RunServiceLint(config, db).empty());
}

TEST(ServiceLintTest, NonPositiveDriftThresholdWarns) {
  const Database db = MicroDb();
  ServiceConfig config;
  config.max_move_fraction = 1.0;
  config.drift_threshold = 0;
  const auto findings = RunServiceLint(config, db);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, LintSeverity::kWarning);
  EXPECT_NE(findings[0].message.find("drift threshold"), std::string::npos);
}

TEST(ServiceLintTest, ZeroPromotionWindowsWarns) {
  const Database db = MicroDb();
  ServiceConfig config;
  config.max_move_fraction = 1.0;
  config.promote_windows = 0;
  const auto findings = RunServiceLint(config, db);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, LintSeverity::kWarning);
  EXPECT_NE(findings[0].message.find("staging gate"), std::string::npos);
}

TEST(ServiceLintTest, MovementBudgetBelowLargestObjectErrors) {
  const Database db = MicroDb();
  ServiceConfig config;
  config.max_move_fraction = 0.01;
  const auto findings = RunServiceLint(config, db);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, LintSeverity::kError);
  EXPECT_NE(findings[0].message.find("movement budget"), std::string::npos);
}

// --- Shutdown flag ----------------------------------------------------------

TEST(ShutdownTest, RequestShutdownSetsAndResetClears) {
  ResetShutdownForTest();
  EXPECT_FALSE(ShutdownRequested());
  RequestShutdown();
  EXPECT_TRUE(ShutdownRequested());
  EXPECT_TRUE(ShutdownFlag()->load());
  ResetShutdownForTest();
  EXPECT_FALSE(ShutdownRequested());
}

TEST(ShutdownTest, CancelFlagStopsInFlightAdvise) {
  ResetShutdownForTest();
  const Database db = MicroDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  ServiceConfig config = MicroConfig();
  config.cancel_requested = ShutdownFlag();
  RequestShutdown();
  // With the flag already up, the advise returns its best-so-far immediately
  // (flagged timed_out internally) instead of hanging the shutdown.
  Session session(1, db, fleet, config, nullptr);
  ASSERT_TRUE(session.Ingest(kJoinAB).ok());
  ASSERT_TRUE(session.Ingest(kJoinAB).ok());
  EXPECT_EQ(session.windows_closed(), 1);
  ResetShutdownForTest();
}

}  // namespace
}  // namespace dblayout
