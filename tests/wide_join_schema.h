// Chain-join schema shared by the wide-join optimizer tests and the
// plan-identity digests: tables c0..c{n-1}, where c<i>.nk references
// c<i+1>.k. Row counts, clustering and secondary indexes vary with i so the
// join enumeration meets merge, hash and index nested-loops alternatives.

#ifndef DBLAYOUT_TESTS_WIDE_JOIN_SCHEMA_H_
#define DBLAYOUT_TESTS_WIDE_JOIN_SCHEMA_H_

#include <cstdint>
#include <string>

#include "catalog/catalog.h"

namespace dblayout::testing_schema {

inline int64_t ChainTableRows(int i) { return 2'000 + (i * 7 % 11) * 9'000; }

inline Column ChainColumn(const std::string& name, int64_t distinct, double hi) {
  Column c;
  c.name = name;
  c.type = ColumnType::kInt;
  c.distinct_count = distinct;
  c.min_value = 1;
  c.max_value = hi;
  return c;
}

/// `n` chain tables. Two of every three are clustered on `k`; every fourth
/// carries a secondary index on `k`.
inline Database MakeChainDatabase(int n) {
  Database db("chaindb");
  for (int i = 0; i < n; ++i) {
    const int64_t rows = ChainTableRows(i);
    const int64_t next_rows = ChainTableRows(i + 1);
    Table t;
    t.name = "c" + std::to_string(i);
    t.row_count = rows;
    t.columns = {ChainColumn("k", rows, static_cast<double>(rows)),
                 ChainColumn("nk", next_rows, static_cast<double>(next_rows)),
                 ChainColumn("v", 100, 100)};
    if (i % 3 != 2) t.clustered_key = {"k"};
    (void)db.AddTable(t);
    if (i % 4 == 1) {
      (void)db.AddIndex(Index{"ix_" + t.name + "_k", t.name, {"k"}, false});
    }
  }
  return db;
}

/// SELECT COUNT(*) over c0..c{n-1} joined along the chain, with a selective
/// filter on c0 so small outers make index nested loops eligible.
inline std::string ChainJoinSql(int n) {
  std::string from, where = "c0.v < 3";
  for (int i = 0; i < n; ++i) {
    if (i > 0) from += ", ";
    from += "c" + std::to_string(i);
    if (i + 1 < n) {
      where += " AND c" + std::to_string(i) + ".nk = c" + std::to_string(i + 1) + ".k";
    }
  }
  return "SELECT COUNT(*) FROM " + from + " WHERE " + where;
}

/// c1 named twice without aliases: both instances bind as "c1", so their
/// qualified sort keys compare equal and the predicates resolve to the first.
inline const char* kSharedBindNameSql =
    "SELECT COUNT(*) FROM c0, c1, c2, c1 WHERE c0.nk = c1.k AND c1.nk = c2.k "
    "AND c0.v < 3";

/// A DP-sized query with a cross join: c5 has no join predicate.
inline const char* kCrossJoinInDpSql =
    "SELECT COUNT(*) FROM c0, c1, c2, c3, c5 WHERE c0.nk = c1.k AND "
    "c1.nk = c2.k AND c2.nk = c3.k AND c5.v = 7";

}  // namespace dblayout::testing_schema

#endif  // DBLAYOUT_TESTS_WIDE_JOIN_SCHEMA_H_
