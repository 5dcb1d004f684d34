// Tests for workload compression (CompressProfile): cost-model and
// access-graph invariance to within its signature rounding, the merge that
// rounding causes, weight accumulation, and its interaction with
// concurrency streams.

#include <gtest/gtest.h>

#include "benchdata/apb.h"
#include "benchdata/tpch.h"
#include "layout/cost_model.h"
#include "layout/search.h"
#include "workload/analyzer.h"

namespace dblayout {
namespace {

using benchdata::MakeApb800Workload;
using benchdata::MakeApbDatabase;
using benchdata::MakeTpchDatabase;
using benchdata::MakeWkCtrl2;

TEST(CompressionTest, IdenticalStatementsCollapseAndWeightsSum) {
  Database db = MakeTpchDatabase(0.2);
  Workload wl("w");
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM lineitem", 2).ok());
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM lineitem", 3).ok());
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM orders", 1).ok());
  auto profile = AnalyzeWorkload(db, wl);
  ASSERT_TRUE(profile.ok());
  WorkloadProfile small = CompressProfile(profile.value());
  ASSERT_EQ(small.statements.size(), 2u);
  EXPECT_DOUBLE_EQ(small.statements[0].weight, 5);
  EXPECT_DOUBLE_EQ(small.statements[1].weight, 1);
}

TEST(CompressionTest, DifferentAccessSignaturesStaySeparate) {
  Database db = MakeTpchDatabase(0.2);
  Workload wl("w");
  // Same table, different block counts (selective vs full).
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM orders").ok());
  ASSERT_TRUE(
      wl.Add("SELECT COUNT(*) FROM orders WHERE o_orderkey < 1000").ok());
  auto profile = AnalyzeWorkload(db, wl);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(CompressProfile(profile.value()).statements.size(), 2u);
}

TEST(CompressionTest, CostModelExactlyInvariant) {
  Database db = MakeApbDatabase();
  DiskFleet fleet = DiskFleet::Uniform(8);
  auto wl = MakeApb800Workload(db, 7, 300);
  ASSERT_TRUE(wl.ok());
  auto profile = AnalyzeWorkload(db, wl.value());
  ASSERT_TRUE(profile.ok());
  WorkloadProfile small = CompressProfile(profile.value());
  EXPECT_LT(small.statements.size(), profile->statements.size());

  const CostModel cm(fleet);
  const int n = static_cast<int>(db.Objects().size());
  Layout striped = Layout::FullStriping(n, fleet);
  EXPECT_NEAR(cm.WorkloadCost(profile.value(), striped),
              cm.WorkloadCost(small, striped),
              1e-6 * cm.WorkloadCost(small, striped));
  // A second, non-trivial layout.
  Layout other = striped;
  other.AssignEqual(db.ObjectIdOfTable("sales_history").value(), {0, 1, 2});
  EXPECT_NEAR(cm.WorkloadCost(profile.value(), other), cm.WorkloadCost(small, other),
              1e-6 * cm.WorkloadCost(small, other));
}

TEST(CompressionTest, BlockCountsUnderSignatureRoundingMerge) {
  // AccessSignature prints block counts to 3 decimals, so two statements
  // whose counts differ by less than 5e-4 merge: the first one's accesses
  // stand in for both, and the compressed cost moves off the exact cost.
  auto statement = [](double blocks) {
    ObjectAccess fact;
    fact.object_id = 0;
    fact.blocks = blocks;
    ObjectAccess dim;
    dim.object_id = 1;
    dim.blocks = 250;
    StatementProfile s;
    s.subplans.push_back(SubplanAccess{{fact, dim}});
    return s;
  };
  WorkloadProfile profile;
  profile.num_objects = 2;
  profile.statements.push_back(statement(1000.0));
  profile.statements.push_back(statement(1000.0002));
  EXPECT_EQ(AccessSignature(profile.statements[0]),
            AccessSignature(profile.statements[1]));

  const WorkloadProfile small = CompressProfile(profile);
  ASSERT_EQ(small.statements.size(), 1u);
  EXPECT_EQ(small.statements[0].weight, 2);
  EXPECT_EQ(small.statements[0].subplans[0].accesses[0].blocks, 1000.0);

  const DiskFleet fleet = DiskFleet::Uniform(2);
  Layout layout(2, fleet.num_disks());
  layout.AssignProportional(0, {0, 1}, fleet);
  layout.AssignProportional(1, {1}, fleet);
  const CostModel cm(fleet);
  const double exact = cm.WorkloadCost(profile, layout);
  const double compressed = cm.WorkloadCost(small, layout);
  EXPECT_NE(compressed, exact);
  EXPECT_NEAR(compressed, exact, 1e-6 * exact);
}

TEST(CompressionTest, AccessGraphExactlyInvariant) {
  Database db = MakeTpchDatabase(0.2);
  auto wl = MakeWkCtrl2(db);
  ASSERT_TRUE(wl.ok());
  auto profile = AnalyzeWorkload(db, wl.value());
  ASSERT_TRUE(profile.ok());
  WorkloadProfile small = CompressProfile(profile.value());
  WeightedGraph a = BuildAccessGraph(profile.value());
  WeightedGraph b = BuildAccessGraph(small);
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (size_t u = 0; u < a.num_nodes(); ++u) {
    EXPECT_NEAR(a.node_weight(u), b.node_weight(u), 1e-9);
    for (size_t v = u + 1; v < a.num_nodes(); ++v) {
      EXPECT_NEAR(a.EdgeWeight(u, v), b.EdgeWeight(u, v), 1e-9);
    }
  }
}

TEST(CompressionTest, SearchFindsSameCostLayout) {
  Database db = MakeApbDatabase();
  DiskFleet fleet = DiskFleet::Uniform(8);
  auto wl = MakeApb800Workload(db, 7, 200);
  ASSERT_TRUE(wl.ok());
  auto profile = AnalyzeWorkload(db, wl.value());
  ASSERT_TRUE(profile.ok());
  WorkloadProfile small = CompressProfile(profile.value());
  ResolvedConstraints rc;
  rc.required_avail.assign(db.Objects().size(), std::nullopt);
  auto full = TsGreedySearch(db, fleet).Run(profile.value(), rc);
  auto fast = TsGreedySearch(db, fleet).Run(small, rc);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_NEAR(full->cost, fast->cost, 1e-6 * full->cost);
}

TEST(CompressionTest, StreamTaggedStatementsNotCompressed) {
  Database db = MakeTpchDatabase(0.2);
  Workload wl("w");
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM lineitem", 1, /*stream=*/1).ok());
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM lineitem", 1, /*stream=*/1).ok());
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM lineitem").ok());
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM lineitem").ok());
  auto profile = AnalyzeWorkload(db, wl);
  ASSERT_TRUE(profile.ok());
  WorkloadProfile small = CompressProfile(profile.value());
  // Two stream-tagged statements kept, two serial ones collapsed.
  ASSERT_EQ(small.statements.size(), 3u);
  int tagged = 0;
  for (const auto& s : small.statements) tagged += s.stream > 0 ? 1 : 0;
  EXPECT_EQ(tagged, 2);
}

TEST(CompressionTest, EmptyProfile) {
  WorkloadProfile empty;
  empty.num_objects = 4;
  WorkloadProfile out = CompressProfile(empty);
  EXPECT_TRUE(out.statements.empty());
  EXPECT_EQ(out.num_objects, 4u);
}

}  // namespace
}  // namespace dblayout
