// LayoutEvaluator + ThreadPool + parallel-search tests: delta-costing
// parity against the CostModel oracle for ScoreBatch and Apply, the
// exactness of the shape and term intern keys, the empty-placement edge
// case, evaluation accounting, pool correctness, and thread-count
// determinism of the whole search.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "layout/evaluator.h"
#include "layout/search.h"
#include "obs/journal.h"
#include "resilience/degraded.h"
#include "workload/analyzer.h"

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

/// Two co-accessed large tables and one independent table (the same micro
/// instance the search tests use).
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

WorkloadProfile MicroProfile(const Database& db) {
  Workload wl("micro");
  EXPECT_TRUE(
      wl.Add("SELECT COUNT(*) FROM big_a, big_b WHERE big_a_k = big_b_k", 5).ok());
  EXPECT_TRUE(wl.Add("SELECT COUNT(*) FROM solo").ok());
  EXPECT_TRUE(wl.Add("SELECT COUNT(*) FROM big_a, solo WHERE big_a_k = solo_k", 2).ok());
  auto profile = AnalyzeWorkload(db, wl);
  EXPECT_TRUE(profile.ok()) << profile.status().ToString();
  return std::move(profile).value();
}

ResolvedConstraints NoConstraints(const Database& db) {
  ResolvedConstraints rc;
  rc.required_avail.assign(db.Objects().size(), std::nullopt);
  return rc;
}

/// A uniformly random non-empty drive subset.
std::vector<int> RandomDiskSet(int m, Rng* rng) {
  std::vector<int> disks(static_cast<size_t>(m));
  std::iota(disks.begin(), disks.end(), 0);
  rng->Shuffle(&disks);
  disks.resize(static_cast<size_t>(rng->UniformInt(1, m)));
  std::sort(disks.begin(), disks.end());
  return disks;
}

/// `evaluator`'s score of `move` alone, as a one-move batch.
double ScoreOne(const LayoutEvaluator& evaluator, const LayoutEvaluator::Move& move,
                LayoutEvaluator::Scratch* scratch) {
  double total = 0;
  evaluator.ScoreBatch({&move, 1}, scratch, {&total, 1});
  return total;
}

TEST(EvaluatorTest, BindMatchesWorkloadCost) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 11);
  WorkloadProfile profile = MicroProfile(db);
  const CostModel cm(fleet);
  LayoutEvaluator evaluator(profile, cm);

  Rng rng(123);
  for (int trial = 0; trial < 5; ++trial) {
    Layout layout = RandomLayout(db, fleet, &rng).value();
    const double bound = evaluator.Bind(layout);
    EXPECT_EQ(bound, cm.WorkloadCost(profile, layout)) << "trial " << trial;
    EXPECT_EQ(bound, evaluator.TotalCost());
  }
}

TEST(EvaluatorTest, DeltaAccumulatedCostMatchesFreshRecomputation) {
  // Property test: after any random sequence of applied moves, the
  // delta-maintained total equals a from-scratch CostModel::WorkloadCost of
  // the same layout. The evaluator's contract is bit-identity; the assert
  // uses the layout-tolerance bound the satellite requires, plus exact
  // equality, so a future drift fails loudly.
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 17);
  WorkloadProfile profile = MicroProfile(db);
  const CostModel cm(fleet);
  const int n = static_cast<int>(db.Objects().size());
  const int m = fleet.num_disks();

  Rng rng(99);
  for (int instance = 0; instance < 3; ++instance) {
    LayoutEvaluator evaluator(profile, cm);
    Layout start = RandomLayout(db, fleet, &rng).value();
    evaluator.Bind(start);
    for (int move = 0; move < 40; ++move) {
      const std::vector<int> objects = {static_cast<int>(rng.UniformInt(0, n - 1))};
      const std::vector<int> disks = RandomDiskSet(m, &rng);
      evaluator.Apply({&objects, &disks, nullptr});
      const double fresh = cm.WorkloadCost(profile, evaluator.layout());
      ASSERT_NEAR(evaluator.TotalCost(), fresh,
                  kLayoutFractionTolerance * std::max(1.0, fresh))
          << "instance " << instance << " move " << move;
      ASSERT_EQ(evaluator.TotalCost(), fresh)
          << "delta total drifted from the oracle (instance " << instance
          << ", move " << move << ")";
    }
  }
}

TEST(EvaluatorTest, ScoreIsPureAndMatchesMaterializedCandidate) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 23);
  WorkloadProfile profile = MicroProfile(db);
  const CostModel cm(fleet);
  LayoutEvaluator evaluator(profile, cm);

  Rng rng(7);
  Layout start = RandomLayout(db, fleet, &rng).value();
  const double bound = evaluator.Bind(start);
  LayoutEvaluator::Scratch scratch = evaluator.MakeScratch();

  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<int> objects = {static_cast<int>(
        rng.UniformInt(0, static_cast<int64_t>(db.Objects().size()) - 1))};
    const std::vector<int> disks = RandomDiskSet(fleet.num_disks(), &rng);
    const double scored = ScoreOne(evaluator, {&objects, &disks, nullptr}, &scratch);

    Layout candidate = start;
    candidate.AssignProportional(objects[0], disks, fleet);
    EXPECT_EQ(scored, cm.WorkloadCost(profile, candidate)) << "trial " << trial;
    // Scoring must not disturb the bound state.
    EXPECT_EQ(evaluator.TotalCost(), bound);
  }
}

TEST(EvaluatorTest, EmptyPlacementCostsZeroInBothPaths) {
  // Regression for the SubplanCost edge case: a sub-plan whose objects have
  // no placement anywhere (all fractions <= 0) must cost exactly 0 — the
  // min-blocks +inf sentinel may never leak into the seek term — and the
  // evaluator must agree with the oracle on that layout.
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(3);
  WorkloadProfile profile = MicroProfile(db);
  const CostModel cm(fleet);

  const Layout zero(static_cast<int>(db.Objects().size()), fleet.num_disks());
  const double oracle = cm.WorkloadCost(profile, zero);
  EXPECT_EQ(oracle, 0.0);
  EXPECT_TRUE(std::isfinite(oracle));

  LayoutEvaluator evaluator(profile, cm);
  EXPECT_EQ(evaluator.Bind(zero), 0.0);

  // Moving one object out of the void re-costs only its sub-plans; the
  // others remain 0 and the total stays finite and oracle-identical.
  const std::vector<int> objects = {0};
  const std::vector<int> disks = {0, 1};
  evaluator.Apply({&objects, &disks, nullptr});
  EXPECT_EQ(evaluator.TotalCost(), cm.WorkloadCost(profile, evaluator.layout()));
}

TEST(EvaluatorTest, AccountingCountsEveryEvaluationOnce) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(3);
  WorkloadProfile profile = MicroProfile(db);
  const CostModel cm(fleet);
  LayoutEvaluator evaluator(profile, cm);

  const int64_t before = cm.WorkloadEvaluations();
  evaluator.Bind(Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet));
  LayoutEvaluator::Scratch scratch = evaluator.MakeScratch();
  // Object 0 onto drive 0 is scored; object 1 onto drive 1 is applied.
  const std::vector<int> zero = {0};
  const std::vector<int> one = {1};
  ScoreOne(evaluator, {&zero, &zero, nullptr}, &scratch);
  evaluator.Apply({&one, &one, nullptr});

  EXPECT_EQ(evaluator.full_evaluations(), 1);
  EXPECT_EQ(evaluator.delta_evaluations(), 2);  // one ScoreBatch + one Apply
  // Every evaluator evaluation is also recorded in the shared cost model, so
  // layouts_evaluated stays uniform across full and delta paths.
  EXPECT_EQ(cm.WorkloadEvaluations() - before,
            evaluator.full_evaluations() + evaluator.delta_evaluations());
}

/// One access of a hand-built sub-plan.
ObjectAccess Access(int object, double blocks, bool is_write = false,
                    bool read_modify_write = false) {
  ObjectAccess a;
  a.object_id = object;
  a.blocks = blocks;
  a.is_write = is_write;
  a.read_modify_write = read_modify_write;
  return a;
}

StatementProfile Statement(double weight, std::vector<SubplanAccess> subplans) {
  StatementProfile s;
  s.weight = weight;
  s.subplans = std::move(subplans);
  return s;
}

/// Hand-built profile over 4 objects for the evaluator's intern keys: exact
/// repeats that must share a shape or term, and near-duplicates that must
/// not.
WorkloadProfile InternProfile() {
  const SubplanAccess join = {{Access(0, 1000.3), Access(1, 417.9)}};
  const SubplanAccess join_ulp = {
      {Access(0, std::nextafter(1000.3, 2000.0)), Access(1, 417.9)}};
  const SubplanAccess join_write = {{Access(0, 1000.3, true), Access(1, 417.9)}};
  const SubplanAccess join_rmw = {
      {Access(0, 1000.3, false, true), Access(1, 417.9)}};
  const SubplanAccess join_swapped = {{Access(1, 417.9), Access(0, 1000.3)}};
  const SubplanAccess self_join = {{Access(2, 301.7), Access(2, 301.7)}};
  const SubplanAccess scan = {{Access(3, 803.1)}};
  WorkloadProfile p;
  p.num_objects = 4;
  p.statements.push_back(Statement(2, {join, scan, self_join}));
  p.statements.push_back(Statement(1, {join, scan, self_join}));  // duplicate
  p.statements.push_back(Statement(3, {self_join, scan, join}));  // permuted
  p.statements.push_back(Statement(1, {join, join}));  // repeated sub-plan
  p.statements.push_back(Statement(1.5, {join_ulp}));
  p.statements.push_back(Statement(1, {join_write}));
  p.statements.push_back(Statement(0.5, {join_rmw}));
  p.statements.push_back(Statement(1, {join_swapped, scan}));
  p.statements.push_back(Statement(2, {join_ulp, join, join_ulp}));
  p.statements.push_back(Statement(1, {}));  // no sub-plans
  return p;
}

/// Every object of a 4 x m layout assigned proportionally over a random
/// drive subset.
Layout RandomRows(const DiskFleet& fleet, Rng* rng) {
  Layout layout(4, fleet.num_disks());
  for (int i = 0; i < 4; ++i) {
    layout.AssignProportional(i, RandomDiskSet(fleet.num_disks(), rng), fleet);
  }
  return layout;
}

TEST(EvaluatorTest, InternTablesMergeOnlyExactRepeats) {
  const WorkloadProfile profile = InternProfile();
  DiskFleet fleet = DiskFleet::Uniform(3);
  const CostModel cm(fleet);
  LayoutEvaluator evaluator(profile, cm);
  EXPECT_EQ(evaluator.num_subplans(), 19);
  // join, join_ulp, join_write, join_rmw, join_swapped, self_join, scan.
  EXPECT_EQ(evaluator.num_shapes(), 7);
  // The duplicate statement shares a term; its permutation does not, nor
  // does any other sequence (the empty one included).
  EXPECT_EQ(evaluator.num_terms(), 9);
}

/// Random move sequences over `profile`: every ScoreBatch and Apply total
/// must equal CostModel::WorkloadCost of the materialized candidate bit for
/// bit, and Apply must leave exactly the candidate's rows bound.
void ExpectRandomMovesMatchOracle(const WorkloadProfile& profile,
                                  uint64_t seed) {
  DiskFleet fleet = DiskFleet::Heterogeneous(5, 0.4, 31);
  const CostModel cm(fleet);
  const int m = fleet.num_disks();

  Rng rng(seed);
  for (int instance = 0; instance < 4; ++instance) {
    LayoutEvaluator evaluator(profile, cm);
    const Layout start = RandomRows(fleet, &rng);
    ASSERT_EQ(evaluator.Bind(start), cm.WorkloadCost(profile, start));
    LayoutEvaluator::Scratch scratch = evaluator.MakeScratch();
    for (int move = 0; move < 60; ++move) {
      SCOPED_TRACE(testing::Message()
                   << "instance " << instance << " move " << move);
      // One or two objects, as a greedy step moves a co-location group.
      std::vector<int> objects = {static_cast<int>(rng.UniformInt(0, 3))};
      if (rng.Bernoulli(0.3)) {
        const int other = static_cast<int>(rng.UniformInt(0, 3));
        if (other != objects[0]) objects.push_back(other);
      }
      const std::vector<int> disks = RandomDiskSet(m, &rng);
      Layout proportional = evaluator.layout();
      for (int i : objects) proportional.AssignProportional(i, disks, fleet);
      const Layout rows = RandomRows(fleet, &rng);
      Layout from_rows = evaluator.layout();
      for (int i : objects) {
        for (int j = 0; j < m; ++j) from_rows.set_x(i, j, rows.x(i, j));
      }
      const double want_proportional = cm.WorkloadCost(profile, proportional);
      const double want_rows = cm.WorkloadCost(profile, from_rows);

      const LayoutEvaluator::Move by_proportion{&objects, &disks, nullptr};
      const LayoutEvaluator::Move by_rows{&objects, nullptr, &rows};
      ASSERT_EQ(ScoreOne(evaluator, by_proportion, &scratch), want_proportional);
      ASSERT_EQ(ScoreOne(evaluator, by_rows, &scratch), want_rows);
      const std::vector<int> first = {objects[0]};
      Layout one_row = evaluator.layout();
      for (int j = 0; j < m; ++j) {
        one_row.set_x(objects[0], j, rows.x(objects[0], j));
      }
      ASSERT_EQ(ScoreOne(evaluator, {&first, nullptr, &rows}, &scratch),
                cm.WorkloadCost(profile, one_row));
      if (rng.Bernoulli(0.2)) continue;  // scored only
      const bool proportional_move = rng.Bernoulli(0.5);
      const double applied =
          evaluator.Apply(proportional_move ? by_proportion : by_rows);
      ASSERT_EQ(applied, proportional_move ? want_proportional : want_rows);
      ASSERT_TRUE(evaluator.layout().ApproxEquals(
          proportional_move ? proportional : from_rows, 0.0));
      ASSERT_EQ(evaluator.TotalCost(), applied);
      ASSERT_EQ(applied, cm.WorkloadCost(profile, evaluator.layout()));
      scratch = evaluator.MakeScratch();
    }
  }
}

TEST(EvaluatorTest, InternedScoringIsBitIdenticalToTheOracle) {
  // The whole intern profile exercises shared shapes and terms in the
  // statement fold. A near-duplicate wrongly merged with its twin (or a
  // permuted sequence merged into one term) would cost with the twin's
  // operands and drift in the last bits — but in the whole profile such
  // drift can round away in the total, so each statement is also checked
  // alone, where a term's bits are the total's.
  const WorkloadProfile profile = InternProfile();
  ExpectRandomMovesMatchOracle(profile, 2024);
  for (size_t i = 0; i < profile.statements.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "statement " << i << " alone");
    WorkloadProfile alone;
    alone.num_objects = profile.num_objects;
    alone.statements.push_back(
        Statement(profile.statements[i].weight, profile.statements[i].subplans));
    ExpectRandomMovesMatchOracle(alone, 100 + i);
  }
}

/// One candidate of a scoring batch over the 4 objects of a RandomRows
/// layout: proportional across `disks`, or rows taken from `rows`.
struct BatchCandidate {
  std::vector<int> objects;
  std::vector<int> disks;
  Layout rows;
  bool proportional = true;

  LayoutEvaluator::Move move() const {
    return proportional ? LayoutEvaluator::Move{&objects, &disks, nullptr}
                        : LayoutEvaluator::Move{&objects, nullptr, &rows};
  }

  /// `base` with the move applied.
  Layout Materialize(const Layout& base, const DiskFleet& fleet) const {
    Layout candidate = base;
    for (int i : objects) {
      if (proportional) {
        candidate.AssignProportional(i, disks, fleet);
      } else {
        for (int j = 0; j < base.num_disks(); ++j) {
          candidate.set_x(i, j, rows.x(i, j));
        }
      }
    }
    return candidate;
  }
};

/// One or two random objects; proportional or rows-from with equal odds.
BatchCandidate RandomCandidate(const DiskFleet& fleet, Rng* rng) {
  BatchCandidate c;
  c.objects = {static_cast<int>(rng->UniformInt(0, 3))};
  if (rng->Bernoulli(0.3)) {
    const int other = static_cast<int>(rng->UniformInt(0, 3));
    if (other != c.objects[0]) c.objects.push_back(other);
  }
  c.proportional = rng->Bernoulli(0.5);
  c.disks = RandomDiskSet(fleet.num_disks(), rng);
  c.rows = RandomRows(fleet, rng);
  return c;
}

/// Scores `batch` in one ScoreBatch call.
std::vector<double> ScoreAll(const LayoutEvaluator& evaluator,
                             const std::vector<BatchCandidate>& batch,
                             LayoutEvaluator::Scratch* scratch) {
  std::vector<LayoutEvaluator::Move> moves;
  for (const BatchCandidate& c : batch) moves.push_back(c.move());
  std::vector<double> totals(batch.size(), -1.0);
  evaluator.ScoreBatch(moves, scratch, totals);
  return totals;
}

/// Random batches of every size around the lane count: each lane's total
/// must equal CostModel::WorkloadCost of its materialized candidate, and
/// Apply of one of them must land on the batch's score and the oracle's.
void ExpectBatchesMatchOracle(const WorkloadProfile& profile, uint64_t seed) {
  constexpr size_t kLanes = LayoutEvaluator::kLanes;
  DiskFleet fleet = DiskFleet::Heterogeneous(5, 0.4, 31);
  const CostModel cm(fleet);
  Rng rng(seed);
  for (int instance = 0; instance < 3; ++instance) {
    LayoutEvaluator evaluator(profile, cm);
    evaluator.Bind(RandomRows(fleet, &rng));
    for (size_t size : {size_t{1}, kLanes - 1, kLanes, kLanes + 1,
                        2 * kLanes + 1}) {
      SCOPED_TRACE(testing::Message()
                   << "instance " << instance << " batch of " << size);
      std::vector<BatchCandidate> batch;
      for (size_t k = 0; k < size; ++k) {
        batch.push_back(RandomCandidate(fleet, &rng));
      }
      LayoutEvaluator::Scratch scratch = evaluator.MakeScratch();
      const std::vector<double> totals = ScoreAll(evaluator, batch, &scratch);
      for (size_t k = 0; k < size; ++k) {
        EXPECT_EQ(totals[k], cm.WorkloadCost(profile, batch[k].Materialize(
                                                          evaluator.layout(), fleet)))
            << "lane " << k % kLanes << " of candidate " << k;
      }
      // Apply is a one-lane batch through the same kernel.
      const BatchCandidate& taken = batch[size / 2];
      const Layout candidate = taken.Materialize(evaluator.layout(), fleet);
      const double applied = evaluator.Apply(taken.move());
      ASSERT_EQ(applied, totals[size / 2]);
      EXPECT_EQ(applied, cm.WorkloadCost(profile, candidate));
      EXPECT_TRUE(evaluator.layout().ApproxEquals(candidate, 0.0));
      ASSERT_EQ(evaluator.TotalCost(), applied);
    }
  }
}

TEST(EvaluatorTest, BatchedScoringIsBitIdenticalPerLane) {
  // Every lane of the statement fold must perform exactly the oracle's
  // operations on its own candidate. Checked over the whole profile and
  // over each statement alone, where a term's bits are the total's.
  const WorkloadProfile profile = InternProfile();
  ExpectBatchesMatchOracle(profile, 77);
  for (size_t i = 0; i < profile.statements.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "statement " << i << " alone");
    WorkloadProfile alone;
    alone.num_objects = profile.num_objects;
    alone.statements.push_back(
        Statement(profile.statements[i].weight, profile.statements[i].subplans));
    ExpectBatchesMatchOracle(alone, 300 + i);
  }

  // A candidate's total depends neither on its lane nor on its neighbours:
  // alone, first, last, and beside a move of every object (which re-costs
  // every shape) or a move of no object (which re-costs none).
  constexpr size_t kLanes = LayoutEvaluator::kLanes;
  DiskFleet fleet = DiskFleet::Heterogeneous(5, 0.4, 31);
  const CostModel cm(fleet);
  LayoutEvaluator evaluator(profile, cm);
  Rng rng(5);
  evaluator.Bind(RandomRows(fleet, &rng));
  LayoutEvaluator::Scratch scratch = evaluator.MakeScratch();
  BatchCandidate every = RandomCandidate(fleet, &rng);
  every.objects = {0, 1, 2, 3};
  BatchCandidate none = RandomCandidate(fleet, &rng);
  none.objects.clear();
  EXPECT_EQ(ScoreAll(evaluator, {none}, &scratch)[0], evaluator.TotalCost());
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const BatchCandidate c = RandomCandidate(fleet, &rng);
    const double alone = ScoreAll(evaluator, {c}, &scratch)[0];
    EXPECT_EQ(alone,
              cm.WorkloadCost(profile, c.Materialize(evaluator.layout(), fleet)));
    std::vector<BatchCandidate> fillers;
    for (size_t k = 0; k + 1 < kLanes; ++k) {
      fillers.push_back(RandomCandidate(fleet, &rng));
    }
    std::vector<BatchCandidate> first = {c};
    first.insert(first.end(), fillers.begin(), fillers.end());
    EXPECT_EQ(ScoreAll(evaluator, first, &scratch)[0], alone);
    std::vector<BatchCandidate> last = fillers;
    last.push_back(c);
    EXPECT_EQ(ScoreAll(evaluator, last, &scratch)[kLanes - 1], alone);
    EXPECT_EQ(ScoreAll(evaluator, {every, c}, &scratch)[1], alone);
    EXPECT_EQ(ScoreAll(evaluator, {c, every}, &scratch)[0], alone);
    EXPECT_EQ(ScoreAll(evaluator, {none, c, none}, &scratch)[1], alone);
    EXPECT_EQ(ScoreAll(evaluator, {every, none, c}, &scratch)[2], alone);
  }
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr int64_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, 4, [&](int64_t i, int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 4);
    hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SequentialFallbackAndEdgeCases) {
  ThreadPool pool(2);
  int count = 0;
  // parallelism 1 runs inline in the caller (worker id 0).
  pool.ParallelFor(5, 1, [&](int64_t, int worker) {
    EXPECT_EQ(worker, 0);
    ++count;
  });
  EXPECT_EQ(count, 5);
  // n = 0 is a no-op; n = 1 never pays for a helper wake-up.
  pool.ParallelFor(0, 8, [&](int64_t, int) { FAIL() << "n=0 must not call fn"; });
  count = 0;
  pool.ParallelFor(1, 8, [&](int64_t, int worker) {
    EXPECT_EQ(worker, 0);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPoolTest, BatchesAreSerializedAcrossCallers) {
  // Two consecutive batches on the same pool must not interleave state: run
  // a batch, then reuse the same accumulator in a second batch.
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(1000, 5, [&](int64_t i, int) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1000 * 999 / 2);
  pool.ParallelFor(1000, 5, [&](int64_t i, int) {
    sum.fetch_sub(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 0);
}

TEST(ThreadPoolTest, SharedPoolIsUsableConcurrently) {
  ThreadPool& pool = ThreadPool::Shared();
  EXPECT_GE(pool.num_workers(), 1);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(256, 8, [&](int64_t, int) {
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 256);
}

TEST(ThreadPoolTest, SharedParallelForVisitsEveryIndexAtAnyThreadCount) {
  for (int threads : {0, 1, 4}) {
    std::vector<std::atomic<int>> hits(100);
    for (auto& h : hits) h.store(0);
    ThreadPool::SharedParallelFor(
        100, threads, [&hits, threads](int64_t i, int worker) {
          EXPECT_LT(worker, ThreadPool::SharedParallelism(threads));
          hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
        });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << threads << " threads";
  }
  EXPECT_EQ(ThreadPool::SharedParallelism(0), 1);
  EXPECT_EQ(ThreadPool::SharedParallelism(1), 1);
  EXPECT_EQ(ThreadPool::SharedParallelism(1000),
            ThreadPool::Shared().num_workers() + 1);
}

#ifdef __linux__
/// The process's thread count, from the "Threads:" line of /proc/self/status.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(ThreadPoolDeathTest, OneThreadSearchNeverStartsTheSharedPool) {
  // "threadsafe" re-executes the test binary for the child, so the child
  // starts with one thread and no shared pool; a one-thread Run must leave
  // it that way (exit code = the child's final thread count).
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        Database db = MicroDb();
        DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 42);
        SearchOptions opts;
        opts.num_threads = 1;
        const bool ok = TsGreedySearch(db, fleet, opts)
                            .Run(MicroProfile(db), NoConstraints(db))
                            .ok();
        std::exit(ok ? ProcessThreads() : 100);
      },
      ::testing::ExitedWithCode(1), "");
}
#endif  // __linux__

/// Runs the full search at a given thread count, on top of `opts`.
SearchResult RunAtThreads(const Database& db, const DiskFleet& fleet,
                          const WorkloadProfile& profile,
                          const ResolvedConstraints& rc, int threads,
                          SearchOptions opts = {}) {
  opts.num_threads = threads;
  auto result = TsGreedySearch(db, fleet, opts).Run(profile, rc);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Layout, cost, trajectory, and telemetry of two runs are bit-identical.
void ExpectSameRun(const SearchResult& base, const SearchResult& other,
                   int threads) {
  SCOPED_TRACE(testing::Message() << threads << " threads");
  EXPECT_EQ(base.cost, other.cost);
  EXPECT_EQ(base.greedy_iterations, other.greedy_iterations);
  EXPECT_EQ(base.layouts_evaluated, other.layouts_evaluated);
  EXPECT_EQ(base.timed_out, other.timed_out);
  const SearchTelemetry& a = base.telemetry;
  const SearchTelemetry& b = other.telemetry;
  EXPECT_EQ(a.cost_trajectory, b.cost_trajectory);
  EXPECT_EQ(a.widen_considered, b.widen_considered);
  EXPECT_EQ(a.widen_accepted, b.widen_accepted);
  EXPECT_EQ(a.jump_considered, b.jump_considered);
  EXPECT_EQ(a.jump_accepted, b.jump_accepted);
  EXPECT_EQ(a.narrow_considered, b.narrow_considered);
  EXPECT_EQ(a.narrow_accepted, b.narrow_accepted);
  EXPECT_EQ(a.capacity_rejected, b.capacity_rejected);
  EXPECT_EQ(a.movement_rejected, b.movement_rejected);
  EXPECT_EQ(a.full_evals, b.full_evals);
  EXPECT_EQ(a.delta_evals, b.delta_evals);
  EXPECT_EQ(a.used_full_striping_fallback, b.used_full_striping_fallback);
  EXPECT_EQ(a.timed_out, b.timed_out);
  ASSERT_EQ(base.layout.num_objects(), other.layout.num_objects());
  for (int i = 0; i < base.layout.num_objects(); ++i) {
    for (int j = 0; j < base.layout.num_disks(); ++j) {
      ASSERT_EQ(base.layout.x(i, j), other.layout.x(i, j))
          << "object " << i << " disk " << j;
    }
  }
}

TEST(ParallelSearchTest, ThreadCountDoesNotChangeTheResult) {
  // The tentpole invariant: candidate scoring fan-out must be invisible in
  // the output — layouts, costs, trajectories, and telemetry counters are
  // bit-identical for 1, 2, and 8 scoring threads.
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 42);
  WorkloadProfile profile = MicroProfile(db);
  ResolvedConstraints rc = NoConstraints(db);

  const SearchResult base = RunAtThreads(db, fleet, profile, rc, 1);
  for (int threads : {2, 8}) {
    ExpectSameRun(base, RunAtThreads(db, fleet, profile, rc, threads),
                  threads);
  }
}

TEST(ParallelSearchTest, CancelAfterFirstIterationIsThreadCountInvariant) {
  // The cancel flag is raised after the first accepted iteration; the search
  // stops at the next check with the same best-so-far at any thread count.
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 42);
  WorkloadProfile profile = MicroProfile(db);
  ResolvedConstraints rc = NoConstraints(db);
  auto run = [&](int threads) {
    std::atomic<bool> cancel{false};
    SearchOptions opts;
    opts.cancel_requested = &cancel;
    opts.progress_hook = [&cancel](const SearchProgress&) {
      cancel.store(true);
    };
    return RunAtThreads(db, fleet, profile, rc, threads, opts);
  };
  const SearchResult base = run(1);
  EXPECT_TRUE(base.timed_out);
  EXPECT_EQ(base.greedy_iterations, 1);
  ExpectSameRun(base, run(4), 4);
}

TEST(ParallelSearchTest, ZeroBudgetIsThreadCountInvariant) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 42);
  WorkloadProfile profile = MicroProfile(db);
  ResolvedConstraints rc = NoConstraints(db);
  SearchOptions opts;
  opts.time_budget_ms = 0.0;  // expires immediately, deterministically
  const SearchResult base = RunAtThreads(db, fleet, profile, rc, 1, opts);
  EXPECT_TRUE(base.timed_out);
  ExpectSameRun(base, RunAtThreads(db, fleet, profile, rc, 4, opts), 4);
}

/// `n` tables t0..t{n-1} of growing size, each joined to its successor
/// and scanned alone: enough objects and co-accessed pairs that greedy and
/// migration iterations enumerate more than one scoring batch.
Database ChainDb(int n) {
  Database db("chain");
  for (int t = 0; t < n; ++t) {
    Table table;
    table.name = "t" + std::to_string(t);
    table.row_count = 100'000 + 40'000 * t;
    table.columns = {IntKey(table.name + "_k", table.row_count)};
    Column pay;
    pay.name = table.name + "_p";
    pay.type = ColumnType::kChar;
    pay.declared_length = 80 + 10 * t;
    table.columns.push_back(pay);
    table.clustered_key = {table.columns[0].name};
    EXPECT_TRUE(db.AddTable(table).ok());
  }
  return db;
}

WorkloadProfile ChainProfile(const Database& db, int n) {
  Workload wl("chain");
  for (int t = 0; t < n; ++t) {
    const std::string a = "t" + std::to_string(t);
    EXPECT_TRUE(wl.Add("SELECT COUNT(*) FROM " + a, 1 + t % 3).ok());
    if (t + 1 < n) {
      const std::string b = "t" + std::to_string(t + 1);
      EXPECT_TRUE(wl.Add("SELECT COUNT(*) FROM " + a + ", " + b + " WHERE " +
                             a + "_k = " + b + "_k",
                         2 + t % 2)
                      .ok());
    }
  }
  auto profile = AnalyzeWorkload(db, wl);
  EXPECT_TRUE(profile.ok()) << profile.status().ToString();
  return std::move(profile).value();
}

/// Every "iter_end" candidate count of `journal`, by search phase.
std::map<std::string, std::vector<int64_t>> CandidateCounts(
    const std::string& journal) {
  std::map<std::string, std::vector<int64_t>> counts;
  std::istringstream lines(journal);
  std::string line;
  std::string phase;
  auto field = [&line](const std::string& key) {
    const size_t at = line.find("\"" + key + "\":");
    return at == std::string::npos ? std::string()
                                   : line.substr(at + key.size() + 3);
  };
  while (std::getline(lines, line)) {
    if (line.rfind("{\"ev\":\"search_start\"", 0) == 0) {
      const std::string rest = field("phase");
      phase = rest.substr(1, rest.find('"', 1) - 1);
    } else if (line.rfind("{\"ev\":\"iter_end\"", 0) == 0) {
      counts[phase].push_back(std::stoll(field("candidates")));
    }
  }
  return counts;
}

TEST(ParallelSearchTest, BatchBoundaryIsThreadCountInvariant) {
  // Candidates are scored in fixed batches of LayoutEvaluator::kLanes; an
  // iteration whose candidate count is not a multiple of that ends in a
  // partial batch. Neither the cut nor the thread count that scores the
  // batches may show in the result or in the default-mode journal, in the
  // greedy phase or in the movement-budget migration.
  constexpr int kTables = 10;
  Database db = ChainDb(kTables);
  DiskFleet fleet = DiskFleet::Heterogeneous(5, 0.3, 42);
  WorkloadProfile profile = ChainProfile(db, kTables);
  const Layout current = Layout::FullStriping(kTables, fleet);
  ResolvedConstraints rc = NoConstraints(db);
  rc.current_layout = &current;
  rc.max_movement_blocks = 0.5 * static_cast<double>(db.TotalBlocks());

  auto run = [&](int threads, obs::EventJournal* journal) {
    SearchOptions opts;
    opts.journal = journal;
    return RunAtThreads(db, fleet, profile, rc, threads, opts);
  };
  obs::EventJournal one_journal;
  const SearchResult one = run(1, &one_journal);
  EXPECT_TRUE(one.telemetry.used_incremental_migration);
  EXPECT_GT(one.telemetry.migrate_accepted, 0);

  // Both phases must have scored an iteration of more than one batch that
  // ends in a partial batch.
  const auto counts = CandidateCounts(one_journal.Serialize());
  for (const char* phase : {"greedy", "migrate"}) {
    SCOPED_TRACE(phase);
    ASSERT_TRUE(counts.count(phase));
    const std::vector<int64_t>& phase_counts = counts.at(phase);
    EXPECT_TRUE(std::any_of(
        phase_counts.begin(), phase_counts.end(), [](int64_t c) {
          const auto lanes = static_cast<int64_t>(LayoutEvaluator::kLanes);
          return c > lanes && c % lanes != 0;
        }));
  }

  obs::EventJournal four_journal;
  const SearchResult four = run(4, &four_journal);
  ExpectSameRun(one, four, 4);
  EXPECT_EQ(one.telemetry.migrate_considered, four.telemetry.migrate_considered);
  EXPECT_EQ(one.telemetry.migrate_accepted, four.telemetry.migrate_accepted);
  EXPECT_EQ(one_journal.Serialize(), four_journal.Serialize());
}

TEST(ParallelSearchTest, EvaluationAccountingIsConsistent) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 42);
  WorkloadProfile profile = MicroProfile(db);
  const SearchResult r = RunAtThreads(db, fleet, profile, NoConstraints(db), 2);
  EXPECT_GT(r.layouts_evaluated, 0);
  EXPECT_GT(r.telemetry.delta_evals, 0);
  EXPECT_GT(r.telemetry.full_evals, 0);
  EXPECT_EQ(r.layouts_evaluated,
            r.telemetry.full_evals + r.telemetry.delta_evals);
}

TEST(ParallelSearchTest, ExhaustiveMatchesGreedyCostOnMicroInstance) {
  // The delta-costed exhaustive enumeration must report the same optimum
  // (and stay within the search tests' quality bound) as before the
  // evaluator rethreading.
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Uniform(3);
  WorkloadProfile profile = MicroProfile(db);
  ResolvedConstraints rc = NoConstraints(db);
  auto exhaustive = ExhaustiveSearch(db, fleet, profile, rc);
  ASSERT_TRUE(exhaustive.ok()) << exhaustive.status().ToString();
  const CostModel cm(fleet);
  EXPECT_EQ(exhaustive->cost, cm.WorkloadCost(profile, exhaustive->layout));
  EXPECT_EQ(exhaustive->layouts_evaluated,
            exhaustive->telemetry.full_evals + exhaustive->telemetry.delta_evals);
}

TEST(ParallelSearchTest, ResilienceReportIsThreadCountInvariant) {
  Database db = MicroDb();
  DiskFleet fleet = DiskFleet::Heterogeneous(4, 0.3, 5);
  WorkloadProfile profile = MicroProfile(db);
  const Layout layout =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);

  ResilienceOptions one;
  one.num_threads = 1;
  ResilienceOptions four;
  four.num_threads = 4;
  auto a = EvaluateResilience(db, fleet, profile, layout, one);
  auto b = EvaluateResilience(db, fleet, profile, layout, four);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->healthy_cost_ms, b->healthy_cost_ms);
  EXPECT_EQ(a->worst_degraded_cost_ms, b->worst_degraded_cost_ms);
  EXPECT_EQ(a->mean_degraded_cost_ms, b->mean_degraded_cost_ms);
  EXPECT_EQ(a->worst_drive, b->worst_drive);
  ASSERT_EQ(a->scenarios.size(), b->scenarios.size());
  for (size_t s = 0; s < a->scenarios.size(); ++s) {
    EXPECT_EQ(a->scenarios[s].degraded_cost_ms, b->scenarios[s].degraded_cost_ms);
  }
}

}  // namespace
}  // namespace dblayout
