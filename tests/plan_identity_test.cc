// Plan-identity fence: every plan the optimizer produces for the benchmark
// workload families is rendered at full precision (every PlanNode field,
// doubles as %.17g) and folded into one FNV-1a-64 digest per family. The
// pinned digests were recorded from the optimizer that still costed each
// join candidate on a cloned plan tree, so any change to join order,
// physical operator choice, cardinality or block estimate — down to the
// last bit — fails here. The TPC-H 22 seed-1 rendering is also checked in
// as a readable golden so a failure shows a diff, not just a digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "benchdata/apb.h"
#include "benchdata/sales.h"
#include "benchdata/tpch.h"
#include "common/strutil.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"
#include "wide_join_schema.h"

namespace dblayout {
namespace {

void RenderNode(const PlanNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += StrFormat("%s obj=%d name=%s blocks=%.17g rows=%.17g w=%d rnd=%d rmw=%d",
                    PlanOpName(node.op), node.object_id, node.object_name.c_str(),
                    node.blocks_accessed, node.out_rows, node.is_write ? 1 : 0,
                    node.random_access ? 1 : 0, node.read_modify_write ? 1 : 0);
  *out += " detail=" + node.detail + " order=";
  for (size_t i = 0; i < node.sort_order.size(); ++i) {
    if (i > 0) *out += ',';
    *out += node.sort_order[i];
  }
  *out += '\n';
  for (const auto& child : node.children) RenderNode(*child, depth + 1, out);
}

/// Full-precision rendering of one plan (or of the planning error).
std::string RenderPlan(const Database& db, const OptimizerOptions& options,
                       const SqlStatement& stmt) {
  auto plan = Optimizer(db, options).Plan(stmt);
  if (!plan.ok()) return "error: " + plan.status().ToString() + "\n";
  std::string out;
  RenderNode(*plan.value(), 0, &out);
  return out;
}

std::string RenderWorkload(const Database& db, const Workload& wl,
                           const OptimizerOptions& options = {}) {
  std::string out;
  for (size_t i = 0; i < wl.size(); ++i) {
    out += StrFormat("# statement %zu\n", i);
    out += RenderPlan(db, options, wl.statement(i).parsed);
  }
  return out;
}

std::string RenderSql(const Database& db, const std::vector<std::string>& sqls,
                      const OptimizerOptions& options = {}) {
  std::string out;
  for (const std::string& sql : sqls) {
    auto stmt = ParseSql(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    if (!stmt.ok()) continue;
    out += "# " + sql + "\n";
    out += RenderPlan(db, options, stmt.value());
  }
  return out;
}

std::string Fnv1a64Hex(const std::string& s) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return StrFormat("%016llx", static_cast<unsigned long long>(h));
}

Database TpchDb(bool indexed, int copies = 1) {
  Database db = benchdata::MakeTpchDatabase(1.0, copies);
  if (indexed) {
    EXPECT_TRUE(benchdata::AddTpchSecondaryIndexes(&db).ok());
  }
  return db;
}

std::string RenderTpch22(bool indexed, uint64_t seed,
                         const OptimizerOptions& options = {}) {
  const Database db = TpchDb(indexed);
  auto wl = benchdata::MakeTpch22Workload(db, seed);
  EXPECT_TRUE(wl.ok()) << wl.status().ToString();
  return wl.ok() ? RenderWorkload(db, wl.value(), options) : "";
}

TEST(PlanIdentityTest, Tpch22) {
  std::string all;
  for (uint64_t seed = 1; seed <= 3; ++seed) all += RenderTpch22(false, seed);
  EXPECT_EQ(Fnv1a64Hex(all), "6707a525fbfe40c1");
}

// No TPC-H 22 predicate is selective enough for the secondary indexes to
// win an access path or a nested-loops inner, so this digest equals the
// unindexed one; it still fences the index-aware costing.
TEST(PlanIdentityTest, Tpch22WithSecondaryIndexes) {
  std::string all;
  for (uint64_t seed = 1; seed <= 3; ++seed) all += RenderTpch22(true, seed);
  EXPECT_EQ(Fnv1a64Hex(all), "6707a525fbfe40c1");
}

TEST(PlanIdentityTest, TpchQgenTwoCopies) {
  const Database db = TpchDb(true, 2);
  auto wl = benchdata::MakeTpchQgenWorkload(db, 200, 2, 5);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  EXPECT_EQ(Fnv1a64Hex(RenderWorkload(db, wl.value())), "7507a3ecb01ebeb8");
}

TEST(PlanIdentityTest, Sales45Seeds) {
  const Database db = benchdata::MakeSalesDatabase();
  std::string all;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    auto wl = benchdata::MakeSales45Workload(db, seed);
    ASSERT_TRUE(wl.ok()) << wl.status().ToString();
    all += RenderWorkload(db, wl.value());
  }
  EXPECT_EQ(Fnv1a64Hex(all), "804d27f2498225f6");
}

TEST(PlanIdentityTest, Apb800) {
  const Database db = benchdata::MakeApbDatabase();
  auto wl = benchdata::MakeApb800Workload(db, 7);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  EXPECT_EQ(Fnv1a64Hex(RenderWorkload(db, wl.value())), "ce7a7321820c194b");
}

TEST(PlanIdentityTest, Tpch22ForcedGreedy) {
  OptimizerOptions greedy;
  greedy.dp_join_table_limit = 1;
  const std::string all =
      RenderTpch22(false, 1, greedy) + RenderTpch22(true, 1, greedy);
  EXPECT_EQ(Fnv1a64Hex(all), "46f4655fd41504eb");
}

TEST(PlanIdentityTest, WideJoins) {
  using namespace testing_schema;
  const Database db = MakeChainDatabase(70);
  const std::vector<std::string> sqls = {
      ChainJoinSql(12), ChainJoinSql(13), ChainJoinSql(70),
      kSharedBindNameSql, kCrossJoinInDpSql,
      // Point-filtered outers make index nested loops win, over a clustered
      // inner (c1) and over a heap with a secondary index (c5).
      "SELECT COUNT(*) FROM c0, c1 WHERE c0.nk = c1.k AND c0.k = 5",
      "SELECT COUNT(*) FROM c4, c5, c6 WHERE c4.nk = c5.k AND c5.nk = c6.k "
      "AND c4.k = 9",
      "SELECT c1.k, COUNT(*) FROM c0, c1, c2 WHERE c0.nk = c1.k AND "
      "c1.nk = c2.k GROUP BY c1.k ORDER BY c1.k"};
  EXPECT_EQ(Fnv1a64Hex(RenderSql(db, sqls)), "7ca40733874cd4fd");
}

TEST(PlanIdentityTest, Tpch22Seed1MatchesGoldenFile) {
  const std::string got = RenderTpch22(false, 1);
  const std::string path =
      std::string(DBLAYOUT_TESTDATA_DIR) + "/plans_tpch22_seed1.txt";
  if (std::getenv("DBLAYOUT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    out << got;
    ASSERT_TRUE(out) << "cannot regenerate " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str()) << "TPC-H 22 seed-1 plans drifted from " << path;
}

}  // namespace
}  // namespace dblayout
