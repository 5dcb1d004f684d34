#include <gtest/gtest.h>

#include "layout/advisor.h"
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

Database AdvisorDb() {
  Database db("advisordb");
  for (const char* name : {"orders_t", "lines_t", "cust_t"}) {
    Table t;
    t.name = name;
    t.row_count = std::string(name) == "cust_t" ? 20'000 : 800'000;
    t.columns = {IntKey(std::string(name) + "_k",
                        std::string(name) == "cust_t" ? 20'000 : 800'000)};
    Column pay;
    pay.name = std::string(name) + "_p";
    pay.type = ColumnType::kChar;
    pay.declared_length = 100;
    t.columns.push_back(pay);
    t.clustered_key = {t.columns[0].name};
    EXPECT_TRUE(db.AddTable(t).ok());
  }
  return db;
}

Workload JoinHeavyWorkload() {
  Workload wl("advisor-wl");
  EXPECT_TRUE(
      wl.Add("SELECT COUNT(*) FROM orders_t, lines_t WHERE orders_t_k = lines_t_k", 4)
          .ok());
  EXPECT_TRUE(wl.Add("SELECT COUNT(*) FROM cust_t").ok());
  return wl;
}

TEST(AdvisorTest, RecommendationBeatsFullStriping) {
  Database db = AdvisorDb();
  DiskFleet fleet = DiskFleet::Uniform(6);
  LayoutAdvisor advisor(db, fleet);
  auto rec = advisor.Recommend(JoinHeavyWorkload());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_LE(rec->estimated_cost_ms, rec->full_striping_cost_ms);
  EXPECT_GT(rec->ImprovementVsFullStripingPct(), 10.0);
  EXPECT_EQ(rec->per_statement.size(), 2u);
  EXPECT_TRUE(rec->layout.Validate(db.ObjectSizes(), fleet).ok());
}

TEST(AdvisorTest, EmptyWorkloadRejected) {
  Database db = AdvisorDb();
  DiskFleet fleet = DiskFleet::Uniform(4);
  LayoutAdvisor advisor(db, fleet);
  EXPECT_EQ(advisor.Recommend(Workload("empty")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AdvisorTest, ProfileDatabaseMismatchRejected) {
  Database db = AdvisorDb();
  DiskFleet fleet = DiskFleet::Uniform(4);
  LayoutAdvisor advisor(db, fleet);
  WorkloadProfile profile;
  profile.num_objects = 99;
  profile.statements.emplace_back();
  EXPECT_EQ(advisor.RecommendFromProfile(profile).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AdvisorTest, ConstraintsPlumbedThrough) {
  Database db = AdvisorDb();
  DiskFleet fleet = DiskFleet::Uniform(6);
  AdvisorOptions opt;
  opt.constraints.co_located = {{"orders_t", "lines_t"}};
  LayoutAdvisor advisor(db, fleet, opt);
  auto rec = advisor.Recommend(JoinHeavyWorkload());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  const int a = db.ObjectIdOfTable("orders_t").value();
  const int b = db.ObjectIdOfTable("lines_t").value();
  EXPECT_EQ(rec->layout.DisksOf(a), rec->layout.DisksOf(b));
}

TEST(AdvisorTest, BadConstraintNameSurfaces) {
  Database db = AdvisorDb();
  DiskFleet fleet = DiskFleet::Uniform(4);
  AdvisorOptions opt;
  opt.constraints.co_located = {{"orders_t", "phantom"}};
  LayoutAdvisor advisor(db, fleet, opt);
  EXPECT_EQ(advisor.Recommend(JoinHeavyWorkload()).status().code(),
            StatusCode::kNotFound);
}

TEST(AdvisorTest, CurrentLayoutImprovementReported) {
  Database db = AdvisorDb();
  DiskFleet fleet = DiskFleet::Uniform(6);
  // A deliberately bad current layout: everything on one drive.
  Layout current(3, 6);
  for (int i = 0; i < 3; ++i) current.AssignEqual(i, {0});
  AdvisorOptions opt;
  opt.constraints.current_layout = &current;
  LayoutAdvisor advisor(db, fleet, opt);
  auto rec = advisor.Recommend(JoinHeavyWorkload());
  ASSERT_TRUE(rec.ok());
  // More than a 50% improvement over the single-drive layout.
  EXPECT_LT(rec->estimated_cost_ms, 0.5 * rec->current_cost_ms);
}

TEST(AdvisorTest, ReportMentionsKeyFacts) {
  Database db = AdvisorDb();
  DiskFleet fleet = DiskFleet::Uniform(6);
  LayoutAdvisor advisor(db, fleet);
  auto rec = advisor.Recommend(JoinHeavyWorkload());
  ASSERT_TRUE(rec.ok());
  const std::string report = advisor.Report(rec.value());
  EXPECT_NE(report.find("Recommended layout"), std::string::npos);
  EXPECT_NE(report.find("Filegroups"), std::string::npos);
  EXPECT_NE(report.find("orders_t"), std::string::npos);
  EXPECT_NE(report.find("improvement"), std::string::npos);
}

TEST(AdvisorTest, SingleDiskDegenerateCase) {
  Database db = AdvisorDb();
  DiskFleet fleet = DiskFleet::Uniform(1, 60.0);
  LayoutAdvisor advisor(db, fleet);
  auto rec = advisor.Recommend(JoinHeavyWorkload());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  // Only one drive: the recommendation must equal full striping.
  EXPECT_TRUE(rec->layout.ApproxEquals(rec->full_striping));
  EXPECT_NEAR(rec->ImprovementVsFullStripingPct(), 0.0, 1e-9);
}

TEST(AdvisorTest, StatementImpactMathConsistent) {
  Database db = AdvisorDb();
  DiskFleet fleet = DiskFleet::Uniform(6);
  LayoutAdvisor advisor(db, fleet);
  auto rec = advisor.Recommend(JoinHeavyWorkload());
  ASSERT_TRUE(rec.ok());
  double weighted_rec = 0, weighted_fs = 0;
  for (const auto& s : rec->per_statement) {
    weighted_rec += s.weight * s.cost_recommended_ms;
    weighted_fs += s.weight * s.cost_full_striping_ms;
  }
  EXPECT_NEAR(weighted_rec, rec->estimated_cost_ms, 1e-6);
  EXPECT_NEAR(weighted_fs, rec->full_striping_cost_ms, 1e-6);
}

}  // namespace
}  // namespace dblayout
