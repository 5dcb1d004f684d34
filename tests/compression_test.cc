// Tests for workload compression (CompressProfile) and the exact access key
// it merges on (AccessKeys): cost-model and access-graph invariance, weight
// accumulation, key identity, and the interaction with concurrency streams.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

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

/// One statement of a single sub-plan: object 0 (`blocks`) with object 1.
StatementProfile FactDimStatement(double blocks) {
  ObjectAccess fact;
  fact.object_id = 0;
  fact.blocks = blocks;
  ObjectAccess dim;
  dim.object_id = 1;
  dim.blocks = 250;
  StatementProfile s;
  s.subplans.push_back(SubplanAccess{{fact, dim}});
  return s;
}

TEST(CompressionTest, NearlyEqualBlockCountsStaySeparate) {
  // The key compares block counts exactly, so counts 2e-4 apart do not
  // merge and the compressed cost is the exact cost.
  WorkloadProfile profile;
  profile.num_objects = 2;
  profile.statements.push_back(FactDimStatement(1000.0));
  profile.statements.push_back(FactDimStatement(1000.0002));

  const WorkloadProfile small = CompressProfile(profile);
  ASSERT_EQ(small.statements.size(), 2u);
  EXPECT_EQ(small.statements[0].subplans[0].accesses[0].blocks, 1000.0);
  EXPECT_EQ(small.statements[1].subplans[0].accesses[0].blocks, 1000.0002);

  const DiskFleet fleet = DiskFleet::Uniform(2);
  Layout layout(2, fleet.num_disks());
  layout.AssignProportional(0, {0, 1}, fleet);
  layout.AssignProportional(1, {1}, fleet);
  const CostModel cm(fleet);
  EXPECT_EQ(cm.WorkloadCost(small, layout), cm.WorkloadCost(profile, layout));
}

TEST(AccessKeysTest, IdsFollowFirstAppearance) {
  AccessKeys keys;
  const StatementProfile a = FactDimStatement(10);
  const StatementProfile b = FactDimStatement(20);
  EXPECT_EQ(keys.Shape(b.subplans[0]), 0);
  EXPECT_EQ(keys.Shape(a.subplans[0]), 1);
  EXPECT_EQ(keys.Shape(b.subplans[0]), 0);
  EXPECT_EQ(keys.num_shapes(), 2);

  EXPECT_EQ(keys.Term(a), 0);  // shapes {1}
  EXPECT_EQ(keys.Term(std::vector<int32_t>{0, 0}), 1);
  EXPECT_EQ(keys.Term(b), 2);  // shapes {0}
  EXPECT_EQ(keys.Term(a), 0);
  EXPECT_EQ(keys.num_terms(), 3);
  EXPECT_EQ(keys.num_shapes(), 2);
}

TEST(AccessKeysTest, BlocksOneUlpApartAreDistinctShapes) {
  AccessKeys keys;
  const double blocks = 1000.0;
  const StatementProfile a = FactDimStatement(blocks);
  const StatementProfile b =
      FactDimStatement(std::nextafter(blocks, std::numeric_limits<double>::max()));
  EXPECT_EQ(keys.Shape(a.subplans[0]), 0);
  EXPECT_EQ(keys.Shape(b.subplans[0]), 1);
}

TEST(AccessKeysTest, EachAccessFlagSeparatesShapes) {
  AccessKeys keys;
  const SubplanAccess plain = FactDimStatement(100).subplans[0];
  EXPECT_EQ(keys.Shape(plain), 0);
  SubplanAccess write = plain;
  write.accesses[0].is_write = true;
  SubplanAccess random = plain;
  random.accesses[0].random = true;
  SubplanAccess rmw = plain;
  rmw.accesses[0].read_modify_write = true;
  SubplanAccess other_object = plain;
  other_object.accesses[1].object_id = 2;
  EXPECT_EQ(keys.Shape(write), 1);
  EXPECT_EQ(keys.Shape(random), 2);
  EXPECT_EQ(keys.Shape(rmw), 3);
  EXPECT_EQ(keys.Shape(other_object), 4);
  EXPECT_EQ(keys.Shape(plain), 0);
}

TEST(AccessKeysTest, SameShapesInAnotherOrderAreADistinctTerm) {
  AccessKeys keys;
  StatementProfile ab = FactDimStatement(10);
  ab.subplans.push_back(FactDimStatement(20).subplans[0]);
  StatementProfile ba;
  ba.subplans = {ab.subplans[1], ab.subplans[0]};
  EXPECT_EQ(keys.Term(ab), 0);
  EXPECT_EQ(keys.Term(ba), 1);
  EXPECT_EQ(keys.num_shapes(), 2);
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
