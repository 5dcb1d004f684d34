#include "workloads.h"

#include <numeric>

#include "benchdata/apb.h"
#include "benchdata/sales.h"
#include "benchdata/tpch.h"
#include "common/rng.h"
#include "common/strutil.h"

namespace advbench {

using namespace dblayout;

namespace {

/// Renders `workload` as a script in the order given by `order`, with
/// `-- weight:` directives where a statement is weighted.
std::string RenderScript(const Workload& workload,
                         const std::vector<size_t>& order) {
  std::string script;
  for (size_t i : order) {
    const WorkloadStatement& s = workload.statement(i);
    if (s.weight != 1.0) script += StrFormat("-- weight: %.17g\n", s.weight);
    script += s.sql;
    script += ";\n";
  }
  return script;
}

}  // namespace

Result<AdviseInput> MakeAdviseInput(const std::string& workload, uint64_t seed,
                                    int64_t gen_seed, bool tiny) {
  AdviseInput in;
  Workload generated;
  const int drives = tiny ? 8 : 32;
  if (workload == "apb800-m32") {
    in.db = benchdata::MakeApbDatabase();
    DBLAYOUT_ASSIGN_OR_RETURN(
        generated,
        benchdata::MakeApb800Workload(
            in.db, gen_seed < 0 ? 7 : static_cast<uint64_t>(gen_seed),
            tiny ? 40 : 800));
    in.threads = 2;
  } else if (workload == "sales45-m32") {
    in.db = benchdata::MakeSalesDatabase();
    DBLAYOUT_ASSIGN_OR_RETURN(
        generated,
        benchdata::MakeSales45Workload(
            in.db, gen_seed < 0 ? 11 : static_cast<uint64_t>(gen_seed)));
    in.threads = 1;
  } else {
    return Status::InvalidArgument("unknown advise workload '" + workload + "'");
  }
  in.fleet = DiskFleet::Heterogeneous(drives, 0.3, 42, /*capacity_gb=*/12.0);

  std::vector<size_t> order(generated.size());
  std::iota(order.begin(), order.end(), size_t{0});
  Rng rng(seed);
  rng.Shuffle(&order);
  if (tiny && order.size() > 12) order.resize(12);
  in.script = RenderScript(generated, order);
  in.statements = static_cast<int>(order.size());
  return in;
}

Result<ServeInput> MakeServeInput(uint64_t seed, bool tiny) {
  // Tenants issue in turn. Each alternates between lineitem-join templates
  // and lineitem-free templates every `phase_length` of its own statements,
  // odd tenants starting in the lineitem-free phase; every tenth statement
  // of a tenant is a lineitem write. Each tenant deals its templates from a
  // shuffled deck per phase kind, so every seed issues each template equally
  // often and the seed draws only their order and parameters: the work a
  // replay does then varies little from seed to seed.
  static const std::vector<int> kJoin = {3, 5, 7, 8, 9, 10, 12, 21};
  static const std::vector<int> kFree = {2, 11, 13, 16, 22};
  const int tenants = tiny ? 2 : 8;
  const int total = tiny ? 240 : 8000;
  const int phase_length = tiny ? 40 : 125;
  constexpr int kWriteEvery = 10;

  ServeInput in;
  in.db = benchdata::MakeTpchDatabase(1.0);
  in.fleet = DiskFleet::Heterogeneous(8, 0.3, 42);
  Rng rng(seed);
  struct Decks {
    std::vector<int> join, free;
  };
  std::vector<Decks> decks(static_cast<size_t>(tenants));
  auto deal = [&rng](std::vector<int>& deck, const std::vector<int>& templates) {
    if (deck.empty()) {
      deck = templates;
      rng.Shuffle(&deck);
    }
    const int q = deck.back();
    deck.pop_back();
    return q;
  };
  in.stream.reserve(static_cast<size_t>(total));
  for (int k = 0; k < total; ++k) {
    const int tenant = k % tenants;
    const int n = k / tenants;  // the tenant's statements so far
    const bool join_phase = (n / phase_length + tenant) % 2 == 0;
    Decks& d = decks[static_cast<size_t>(tenant)];
    std::string sql;
    if (n % kWriteEvery == kWriteEvery - 1) {
      sql = StrFormat(
          "UPDATE lineitem SET l_comment = 'revised' WHERE l_orderkey < %d",
          static_cast<int>(rng.UniformInt(1000, 600000)));
    } else if (join_phase) {
      sql = benchdata::TpchQueryText(deal(d.join, kJoin), &rng);
    } else {
      sql = benchdata::TpchQueryText(deal(d.free, kFree), &rng);
    }
    in.stream.push_back(StreamEvent{tenant + 1, std::move(sql)});
  }
  return in;
}

}  // namespace advbench
