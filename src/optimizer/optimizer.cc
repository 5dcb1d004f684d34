#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/logging.h"
#include "common/strutil.h"
#include "optimizer/selectivity.h"

namespace dblayout {

namespace {

/// A table bound into the FROM clause.
struct BoundTable {
  const Table* table = nullptr;
  std::string bind_name;  ///< alias if present, else table name
  int object_id = -1;     ///< base object (heap / clustered index)
};

/// Qualified column name used for order tracking: "<bind_name>.<column>".
std::string QualName(const std::string& bind, const std::string& col) {
  return bind + "." + col;
}

/// One node of a plan subtree that performs I/O (object id >= 0 and a
/// positive block count), as the merge-join co-scan surcharge reads it.
struct LeafIo {
  int object_id;
  double blocks;
};

/// What join enumeration needs to know about a (sub)plan without holding
/// the tree: exactly the quantities ImplCost and join selection read from it.
struct PlanSummary {
  double rows = 0;
  double cost = 0;             ///< ImplCost of the subtree, bit for bit
  int lead_key = -1;           ///< interned sort_order[0]; -1 if unordered
  std::vector<LeafIo> leaves;  ///< I/O nodes in pre-order
  std::vector<bool> tables;    ///< bound tables covered
};

enum class JoinAlg { kMerge, kIndexNestedLoops, kHash };

/// One endpoint of an equi-join predicate: its qualified column and the
/// access structures an index nested-loops inner on that column could seek.
struct JoinKey {
  int key = -1;                  ///< interned "<bind_name>.<column>"
  bool clustered = false;        ///< column leads the table's clustered key
  const Index* index = nullptr;  ///< non-clustered index led by the column
  int index_object_id = -1;
};

/// Cardinality and merge keys of joining a left input with one bound table.
/// The keys come from the first connecting equi-join predicate; without one
/// `inner` is null and only a hash join applies.
struct JoinEstimate {
  double rows = 0;
  int left_key = -1;               ///< left endpoint's interned key
  const JoinKey* inner = nullptr;  ///< right endpoint (the right table's column)
};

/// Block counts of an index nested-loops inner: a clustered seek reads
/// `lookup_blocks`; a RID lookup reads `lookup_blocks` after an index seek
/// of `seek_blocks`.
struct NljInner {
  double lookup_blocks = 0;
  double seek_blocks = 0;
};

/// The physical join chosen for (left input, right table) and its ImplCost.
struct JoinChoice {
  JoinAlg alg = JoinAlg::kHash;
  JoinEstimate est;
  double cost = 0;
};

/// Flattens [NOT] EXISTS and IN-subquery predicates into the outer query:
/// the subquery's tables and conjuncts join the outer FROM list (an IN
/// subquery additionally contributes the equi-join between the tested
/// column and the subquery's selected column). For layout purposes the
/// semi/anti-join distinction only changes cardinalities, not which objects
/// are co-accessed, so output-row semantics follow the plain join.
void FlattenSubqueries(SelectStatement* sel) {
  std::vector<Predicate> flat;
  for (Predicate& p : sel->where) {
    if (p.kind != Predicate::Kind::kExists &&
        p.kind != Predicate::Kind::kInSubquery) {
      flat.push_back(std::move(p));
      continue;
    }
    if (p.subquery == nullptr) continue;  // defensive
    SelectStatement sub = *p.subquery;
    FlattenSubqueries(&sub);
    if (p.kind == Predicate::Kind::kInSubquery && !sub.items.empty()) {
      Predicate join;
      join.kind = Predicate::Kind::kJoin;
      join.lhs = p.lhs;
      join.op = CompareOp::kEq;
      join.rhs_column = sub.items[0].column;
      flat.push_back(std::move(join));
    }
    for (TableRef& tr : sub.from) {
      tr.semi_join = true;
      sel->from.push_back(std::move(tr));
    }
    for (Predicate& w : sub.where) flat.push_back(std::move(w));
  }
  sel->where = std::move(flat);
}

class SelectPlanner {
 public:
  SelectPlanner(const Database& db, const OptimizerOptions& options,
                const SelectStatement& sel)
      : db_(db), options_(options), sel_(sel) {
    FlattenSubqueries(&sel_);
  }

  Result<std::unique_ptr<PlanNode>> Run();

 private:
  Status Bind();
  /// Resolves a column reference to (bound-table index, column). Unqualified
  /// names search all bound tables; ambiguity resolves to the first match.
  Result<std::pair<size_t, const Column*>> Resolve(const ColumnRef& ref) const;

  Result<std::unique_ptr<PlanNode>> BuildAccessPath(size_t t);
  Result<std::unique_ptr<PlanNode>> BuildJoinTree();
  std::unique_ptr<PlanNode> BuildJoinTreeDp(
      std::vector<std::unique_ptr<PlanNode>> access);
  std::unique_ptr<PlanNode> BuildJoinTreeGreedy(
      std::vector<std::unique_ptr<PlanNode>> access);

  /// Physical cost of a plan subtree in sequential-block-equivalents:
  /// leaf I/O (random blocks weighted by the random-I/O penalty) plus
  /// per-operator CPU/blocking surcharges, like a System-R cost function.
  /// Costs base access paths; join enumeration folds the same terms on
  /// PlanSummary values instead (ChooseJoin), and DCHECK builds audit every
  /// materialized join against it.
  double ImplCost(const PlanNode& node) const;
  std::unique_ptr<PlanNode> AddAggregation(std::unique_ptr<PlanNode> input);
  std::unique_ptr<PlanNode> AddOrderByAndTop(std::unique_ptr<PlanNode> input);

  int InternKey(const std::string& key);
  JoinKey MakeJoinKey(size_t t, const std::string& column);
  PlanSummary Summarize(const PlanNode& access, size_t t);

  /// Estimates joining `left` with bound table `t` over every predicate
  /// connecting them; appends the predicate text to `detail` when non-null.
  JoinEstimate EstimateJoin(const PlanSummary& left, size_t t, std::string* detail);
  NljInner NljInnerBlocks(const JoinEstimate& est, double left_rows, size_t t) const;
  /// Costs merge, index nested-loops and hash join of `left` with table `t`
  /// on summaries, in that order, keeping the first strictly cheapest.
  JoinChoice ChooseJoin(const PlanSummary& left, size_t t);
  /// Summary of the plan `choice` builds from `left` and table `t`.
  PlanSummary JoinSummary(const PlanSummary& left, size_t t,
                          const JoinChoice& choice) const;
  /// Materializes `choice` over the `left` plan (summarized by
  /// `left_summary`) and table `t`'s access path `right`.
  std::unique_ptr<PlanNode> BuildJoin(std::unique_ptr<PlanNode> left,
                                      const PlanSummary& left_summary, size_t t,
                                      std::unique_ptr<PlanNode> right,
                                      const JoinChoice& choice);

  const Database& db_;
  const OptimizerOptions& options_;
  SelectStatement sel_;

  std::vector<BoundTable> bound_;
  std::vector<std::vector<const Predicate*>> local_preds_;  // per bound table
  std::vector<double> local_sel_;                            // per bound table
  // Join predicates with both endpoints resolved.
  struct JoinPred {
    const Predicate* pred;
    size_t lhs_table, rhs_table;
    double sel;            ///< JoinSelectivity for equi-joins, else the range default
    JoinKey lhs_key, rhs_key;  ///< set for equi-joins only
  };
  std::vector<JoinPred> join_preds_;

  // Sort keys interned by their qualified-name string, so two unaliased
  // instances of one table (same bind name) share keys, as string equality
  // on sort_order does.
  std::map<std::string, int> key_ids_;
  std::vector<std::string> keys_;
  std::vector<PlanSummary> base_;    ///< per bound table: its access path
  std::vector<double> pred_sels_;    ///< EstimateJoin scratch
};

Status SelectPlanner::Bind() {
  if (sel_.from.empty()) return Status::InvalidArgument("SELECT with empty FROM");
  for (const auto& ref : sel_.from) {
    const Table* t = db_.FindTable(ref.table);
    if (t == nullptr) {
      return Status::NotFound(StrFormat("unknown table '%s'", ref.table.c_str()));
    }
    auto id = db_.ObjectIdOfTable(ref.table);
    DBLAYOUT_CHECK(id.ok());
    bound_.push_back(BoundTable{t, ref.BindName(), id.value()});
  }
  local_preds_.assign(bound_.size(), {});
  local_sel_.assign(bound_.size(), 1.0);

  for (const auto& p : sel_.where) {
    if (p.kind == Predicate::Kind::kJoin) {
      auto lhs = Resolve(p.lhs);
      if (!lhs.ok()) return lhs.status();
      auto rhs = Resolve(p.rhs_column);
      if (!rhs.ok()) return rhs.status();
      if (lhs.value().first == rhs.value().first) {
        // Same-table column comparison: treat as a cheap local filter.
        local_preds_[lhs.value().first].push_back(&p);
        local_sel_[lhs.value().first] *= kDefaultRangeSelectivity;
      } else {
        JoinPred jp{&p, lhs.value().first, rhs.value().first,
                     kDefaultRangeSelectivity, JoinKey{}, JoinKey{}};
        if (p.op == CompareOp::kEq) {
          jp.sel = JoinSelectivity(lhs.value().second->distinct_count,
                                   rhs.value().second->distinct_count);
          jp.lhs_key = MakeJoinKey(jp.lhs_table, p.lhs.column);
          jp.rhs_key = MakeJoinKey(jp.rhs_table, p.rhs_column.column);
        }
        join_preds_.push_back(jp);
      }
    } else {
      auto lhs = Resolve(p.lhs);
      if (!lhs.ok()) return lhs.status();
      local_preds_[lhs.value().first].push_back(&p);
      local_sel_[lhs.value().first] *= PredicateSelectivity(p, lhs.value().second);
    }
  }
  for (double& s : local_sel_) s = std::max(s, kMinSelectivity);
  return Status::OK();
}

Result<std::pair<size_t, const Column*>> SelectPlanner::Resolve(
    const ColumnRef& ref) const {
  if (!ref.qualifier.empty()) {
    for (size_t t = 0; t < bound_.size(); ++t) {
      if (ToLower(bound_[t].bind_name) == ToLower(ref.qualifier) ||
          ToLower(bound_[t].table->name) == ToLower(ref.qualifier)) {
        const Column* col = bound_[t].table->FindColumn(ref.column);
        if (col == nullptr) {
          return Status::NotFound(StrFormat("column '%s' not in table '%s'",
                                            ref.column.c_str(),
                                            bound_[t].table->name.c_str()));
        }
        return std::make_pair(t, col);
      }
    }
    return Status::NotFound(
        StrFormat("unknown table or alias '%s'", ref.qualifier.c_str()));
  }
  for (size_t t = 0; t < bound_.size(); ++t) {
    const Column* col = bound_[t].table->FindColumn(ref.column);
    if (col != nullptr) return std::make_pair(t, col);
  }
  return Status::NotFound(StrFormat("unresolved column '%s'", ref.column.c_str()));
}

Result<std::unique_ptr<PlanNode>> SelectPlanner::BuildAccessPath(size_t t) {
  const BoundTable& bt = bound_[t];
  const Table& table = *bt.table;
  const double data_blocks = static_cast<double>(table.DataBlocks());
  const double out_rows =
      std::max(1.0, static_cast<double>(table.row_count) * local_sel_[t]);

  // Candidate: full scan.
  double best_cost = data_blocks;
  enum class Path { kScan, kClusteredSeek, kNcSeek } best_path = Path::kScan;
  const Predicate* best_pred = nullptr;
  const Index* best_index = nullptr;
  double best_pred_sel = 1.0;

  for (const Predicate* p : local_preds_[t]) {
    // Only sargable shapes drive a seek.
    const bool sargable = p->kind == Predicate::Kind::kBetween ||
                          p->kind == Predicate::Kind::kIn ||
                          (p->kind == Predicate::Kind::kCompareLiteral &&
                           p->op != CompareOp::kNe) ||
                          p->kind == Predicate::Kind::kLike;
    if (!sargable) continue;
    const Column* col = table.FindColumn(p->lhs.column);
    if (col == nullptr) continue;
    const double psel = std::max(PredicateSelectivity(*p, col), kMinSelectivity);

    if (!table.clustered_key.empty() && table.clustered_key[0] == p->lhs.column) {
      const double cost = std::max(1.0, psel * data_blocks);
      if (cost < best_cost) {
        best_cost = cost;
        best_path = Path::kClusteredSeek;
        best_pred = p;
        best_pred_sel = psel;
      }
    }
    if (const Index* ix = db_.IndexOnColumn(table.name, p->lhs.column)) {
      const double index_blocks = static_cast<double>(db_.IndexBlocks(*ix));
      const double lookups = YaoBlocks(static_cast<double>(table.row_count) * psel,
                                       data_blocks,
                                       static_cast<double>(table.row_count));
      const double cost = std::max(1.0, psel * index_blocks) +
                          options_.random_io_penalty * lookups;
      if (cost < best_cost) {
        best_cost = cost;
        best_path = Path::kNcSeek;
        best_pred = p;
        best_index = ix;
        best_pred_sel = psel;
      }
    }
  }

  std::string filter_detail;
  for (const Predicate* p : local_preds_[t]) {
    if (!filter_detail.empty()) filter_detail += " AND ";
    filter_detail += p->lhs.ToString();
  }

  switch (best_path) {
    case Path::kScan: {
      auto node = std::make_unique<PlanNode>(PlanOp::kTableScan);
      node->object_id = bt.object_id;
      node->object_name = table.name;
      node->blocks_accessed = data_blocks;
      node->out_rows = out_rows;
      node->detail = filter_detail;
      if (!table.clustered_key.empty()) {
        for (const auto& k : table.clustered_key) {
          node->sort_order.push_back(QualName(bt.bind_name, k));
        }
      }
      return node;
    }
    case Path::kClusteredSeek: {
      auto node = std::make_unique<PlanNode>(PlanOp::kClusteredSeek);
      node->object_id = bt.object_id;
      node->object_name = table.name;
      node->blocks_accessed = std::max(1.0, best_pred_sel * data_blocks);
      node->out_rows = out_rows;
      node->detail = "seek " + best_pred->lhs.ToString();
      for (const auto& k : table.clustered_key) {
        node->sort_order.push_back(QualName(bt.bind_name, k));
      }
      return node;
    }
    case Path::kNcSeek: {
      auto seek = std::make_unique<PlanNode>(PlanOp::kIndexSeek);
      auto ix_id = db_.ObjectIdOfIndex(table.name, best_index->name);
      DBLAYOUT_CHECK(ix_id.ok());
      seek->object_id = ix_id.value();
      seek->object_name = table.name + "." + best_index->name;
      seek->blocks_accessed =
          std::max(1.0, best_pred_sel * static_cast<double>(db_.IndexBlocks(*best_index)));
      seek->out_rows =
          std::max(1.0, static_cast<double>(table.row_count) * best_pred_sel);
      seek->detail = "seek " + best_pred->lhs.ToString();

      auto lookup = std::make_unique<PlanNode>(PlanOp::kRidLookup);
      lookup->object_id = bt.object_id;
      lookup->object_name = table.name;
      lookup->blocks_accessed =
          YaoBlocks(seek->out_rows, data_blocks, static_cast<double>(table.row_count));
      lookup->random_access = true;
      lookup->out_rows = out_rows;
      lookup->detail = filter_detail;
      for (const auto& k : best_index->key_columns) {
        lookup->sort_order.push_back(QualName(bt.bind_name, k));
      }
      lookup->AddChild(std::move(seek));
      return lookup;
    }
  }
  return Status::Internal("unreachable access path");
}

int SelectPlanner::InternKey(const std::string& key) {
  auto [it, inserted] = key_ids_.emplace(key, static_cast<int>(keys_.size()));
  if (inserted) keys_.push_back(key);
  return it->second;
}

JoinKey SelectPlanner::MakeJoinKey(size_t t, const std::string& column) {
  const std::string key = QualName(bound_[t].bind_name, column);
  const Table& table = *bound_[t].table;
  const std::string col_name = key.substr(key.find('.') + 1);
  JoinKey jk;
  jk.key = InternKey(key);
  jk.clustered = !table.clustered_key.empty() && table.clustered_key[0] == col_name;
  jk.index = db_.IndexOnColumn(table.name, col_name);
  if (jk.index != nullptr) {
    auto ix_id = db_.ObjectIdOfIndex(table.name, jk.index->name);
    DBLAYOUT_CHECK(ix_id.ok());
    jk.index_object_id = ix_id.value();
  }
  return jk;
}

namespace {
/// Appends the I/O nodes of a subtree in pre-order.
void CollectLeaves(const PlanNode& node, std::vector<LeafIo>* leaves) {
  if (node.object_id >= 0 && node.blocks_accessed > 0) {
    leaves->push_back(LeafIo{node.object_id, node.blocks_accessed});
  }
  for (const auto& child : node.children) CollectLeaves(*child, leaves);
}

/// ImplCost's merge-join term on leaf lists: for each object both sides
/// access, in ascending object id, add its left then right block totals
/// (each summed in pre-order, as LeafObjects accumulates them).
double CoScanSurcharge(const std::vector<LeafIo>& left,
                       const std::vector<LeafIo>& right) {
  double c = 0;
  for (int prev = -1;;) {
    int obj = std::numeric_limits<int>::max();
    for (const LeafIo& r : right) {
      if (r.object_id > prev && r.object_id < obj) obj = r.object_id;
    }
    if (obj == std::numeric_limits<int>::max()) break;
    prev = obj;
    double left_blocks = 0;
    bool shared = false;
    for (const LeafIo& l : left) {
      if (l.object_id != obj) continue;
      left_blocks += l.blocks;
      shared = true;
    }
    if (!shared) continue;
    double right_blocks = 0;
    for (const LeafIo& r : right) {
      if (r.object_id == obj) right_blocks += r.blocks;
    }
    c += left_blocks + right_blocks;
  }
  return c;
}
}  // namespace

PlanSummary SelectPlanner::Summarize(const PlanNode& access, size_t t) {
  PlanSummary s;
  s.rows = access.out_rows;
  s.cost = ImplCost(access);
  if (!access.sort_order.empty()) s.lead_key = InternKey(access.sort_order[0]);
  CollectLeaves(access, &s.leaves);
  s.tables.assign(bound_.size(), false);
  s.tables[t] = true;
  return s;
}

JoinEstimate SelectPlanner::EstimateJoin(const PlanSummary& left, size_t t,
                                         std::string* detail) {
  // Estimate output cardinality. Multiple join predicates between the same
  // pair of inputs are usually correlated (e.g. composite foreign keys), so
  // independence would wildly underestimate; apply exponential backoff
  // (s1 * s2^1/2 * s3^1/4 ...) over the predicate selectivities, most
  // selective first.
  JoinEstimate est;
  pred_sels_.clear();
  for (const JoinPred& jp : join_preds_) {
    const bool connects_lr = left.tables[jp.lhs_table] && jp.rhs_table == t;
    const bool connects_rl = left.tables[jp.rhs_table] && jp.lhs_table == t;
    if (!connects_lr && !connects_rl) continue;
    pred_sels_.push_back(jp.sel);
    if (jp.pred->op == CompareOp::kEq && est.inner == nullptr) {
      est.left_key = connects_lr ? jp.lhs_key.key : jp.rhs_key.key;
      est.inner = connects_lr ? &jp.rhs_key : &jp.lhs_key;
    }
    if (detail == nullptr) continue;
    if (!detail->empty()) *detail += " AND ";
    *detail += jp.pred->lhs.ToString() + CompareOpName(jp.pred->op) +
               jp.pred->rhs_column.ToString();
  }
  std::sort(pred_sels_.begin(), pred_sels_.end());
  double sel = 1.0;
  double exponent = 1.0;
  for (double s : pred_sels_) {
    sel *= std::pow(s, exponent);
    exponent /= 2;
  }
  est.rows = std::max(1.0, left.rows * base_[t].rows * sel);
  // Semi-join semantics: a table flattened out of an EXISTS / IN subquery
  // can only filter the outer side, never multiply it.
  if (sel_.from[t].semi_join) {
    est.rows = std::min(est.rows, std::max(1.0, left.rows));
  }
  return est;
}

NljInner SelectPlanner::NljInnerBlocks(const JoinEstimate& est, double left_rows,
                                       size_t t) const {
  const Table& table = *bound_[t].table;
  const double data_blocks = static_cast<double>(table.DataBlocks());
  const double table_rows = static_cast<double>(table.row_count);
  NljInner inner;
  if (est.inner->clustered) {
    inner.lookup_blocks =
        YaoBlocks(std::max(est.rows, left_rows), data_blocks, table_rows);
  } else {
    inner.seek_blocks = YaoBlocks(
        left_rows, static_cast<double>(db_.IndexBlocks(*est.inner->index)), table_rows);
    inner.lookup_blocks = YaoBlocks(est.rows, data_blocks, table_rows);
  }
  return inner;
}

JoinChoice SelectPlanner::ChooseJoin(const PlanSummary& left, size_t t) {
  // Each alternative's cost is folded in ImplCost's order over the tree
  // BuildJoin would materialize: the join node's own term, then each child
  // left to right, so the comparison (and the plan) is bit-identical to
  // costing the built candidates.
  const PlanSummary& right = base_[t];
  JoinChoice best;
  best.est = EstimateJoin(left, t, nullptr);
  const JoinEstimate& est = best.est;
  bool have = false;
  auto consider = [&](JoinAlg alg, double cost) {
    if (!have || cost < best.cost) {
      best.alg = alg;
      best.cost = cost;
      have = true;
    }
  };
  auto sorted_cost = [&](const PlanSummary& input, int key) {
    if (input.lead_key == key) return input.cost;
    double c = options_.sort_cost_per_row * input.rows;
    c += input.cost;
    return c;
  };

  // Merge join: directly when both inputs already arrive ordered on the
  // join keys; otherwise as a sort-merge join with explicit (blocking) Sort
  // operators under the merge. The sort-based variant rarely beats hash
  // join under default cost knobs — exactly as in real optimizers — but it
  // is a genuine alternative the cost comparison may pick.
  if (est.inner != nullptr) {
    double c = CoScanSurcharge(left.leaves, right.leaves);
    c += sorted_cost(left, est.left_key);
    c += sorted_cost(right, est.inner->key);
    consider(JoinAlg::kMerge, c);
  }

  // Index nested loops when the inner (right) is a single base table with a
  // usable index on the join column and the outer is small.
  if (est.inner != nullptr && left.rows <= options_.nlj_outer_rows_threshold &&
      (est.inner->clustered || est.inner->index != nullptr)) {
    const NljInner inner = NljInnerBlocks(est, left.rows, t);
    double inner_cost = inner.lookup_blocks * options_.random_io_penalty;
    if (!est.inner->clustered) inner_cost += inner.seek_blocks * options_.random_io_penalty;
    double c = options_.nlj_cost_per_outer_row * left.rows;
    c += left.cost;
    c += inner_cost;
    consider(JoinAlg::kIndexNestedLoops, c);
  }

  // Hash join: build on the smaller input (first child = build).
  {
    const bool left_builds = left.rows <= right.rows;
    const PlanSummary& build = left_builds ? left : right;
    const PlanSummary& probe = left_builds ? right : left;
    double c = options_.hash_build_cost_per_row * build.rows +
               options_.hash_probe_cost_per_row * probe.rows;
    c += build.cost;
    c += probe.cost;
    consider(JoinAlg::kHash, c);
  }
  return best;
}

PlanSummary SelectPlanner::JoinSummary(const PlanSummary& left, size_t t,
                                       const JoinChoice& choice) const {
  const PlanSummary& right = base_[t];
  PlanSummary s;
  s.rows = choice.est.rows;
  s.cost = choice.cost;
  s.tables = left.tables;
  s.tables[t] = true;
  auto append = [&s](const PlanSummary& input) {
    s.leaves.insert(s.leaves.end(), input.leaves.begin(), input.leaves.end());
  };
  switch (choice.alg) {
    case JoinAlg::kMerge:
      s.lead_key = choice.est.left_key;
      append(left);
      append(right);
      break;
    case JoinAlg::kIndexNestedLoops: {
      s.lead_key = left.lead_key;
      append(left);
      const NljInner inner = NljInnerBlocks(choice.est, left.rows, t);
      if (inner.lookup_blocks > 0) {
        s.leaves.push_back(LeafIo{bound_[t].object_id, inner.lookup_blocks});
      }
      if (!choice.est.inner->clustered && inner.seek_blocks > 0) {
        s.leaves.push_back(LeafIo{choice.est.inner->index_object_id, inner.seek_blocks});
      }
      break;
    }
    case JoinAlg::kHash:
      append(left.rows <= right.rows ? left : right);
      append(left.rows <= right.rows ? right : left);
      break;
  }
  return s;
}

std::unique_ptr<PlanNode> SelectPlanner::BuildJoin(std::unique_ptr<PlanNode> left,
                                                   const PlanSummary& left_summary,
                                                   size_t t,
                                                   std::unique_ptr<PlanNode> right,
                                                   const JoinChoice& choice) {
  std::string detail;
  const JoinEstimate est = EstimateJoin(left_summary, t, &detail);
  auto node = std::make_unique<PlanNode>();
  node->out_rows = est.rows;
  node->detail = detail;
  switch (choice.alg) {
    case JoinAlg::kMerge: {
      auto sorted_input = [](std::unique_ptr<PlanNode> input,
                             const std::string& key) -> std::unique_ptr<PlanNode> {
        if (!input->sort_order.empty() && input->sort_order[0] == key) return input;
        auto sort = std::make_unique<PlanNode>(PlanOp::kSort);
        sort->out_rows = input->out_rows;
        sort->detail = "sort on " + key;
        sort->sort_order = {key};
        sort->AddChild(std::move(input));
        return sort;
      };
      node->op = PlanOp::kMergeJoin;
      node->AddChild(sorted_input(std::move(left), keys_[est.left_key]));
      node->AddChild(sorted_input(std::move(right), keys_[est.inner->key]));
      node->sort_order = node->children[0]->sort_order;
      break;
    }
    case JoinAlg::kIndexNestedLoops: {
      // The inner seeks the right table per outer row; its standalone
      // access path is not part of the plan.
      const BoundTable& bt = bound_[t];
      const Table& table = *bt.table;
      const NljInner blocks = NljInnerBlocks(est, left_summary.rows, t);
      const std::string seek_detail = "seek " + keys_[est.inner->key] + " = outer";
      std::unique_ptr<PlanNode> inner;
      if (est.inner->clustered) {
        inner = std::make_unique<PlanNode>(PlanOp::kClusteredSeek);
        inner->detail = seek_detail;
      } else {
        auto seek = std::make_unique<PlanNode>(PlanOp::kIndexSeek);
        seek->object_id = est.inner->index_object_id;
        seek->object_name = table.name + "." + est.inner->index->name;
        seek->blocks_accessed = blocks.seek_blocks;
        seek->random_access = true;
        seek->detail = seek_detail;
        inner = std::make_unique<PlanNode>(PlanOp::kRidLookup);
        inner->AddChild(std::move(seek));
      }
      inner->object_id = bt.object_id;
      inner->object_name = table.name;
      inner->blocks_accessed = blocks.lookup_blocks;
      inner->random_access = true;
      inner->out_rows = est.rows;
      node->op = PlanOp::kNestedLoopsJoin;
      node->sort_order = left->sort_order;
      node->AddChild(std::move(left));
      node->AddChild(std::move(inner));
      break;
    }
    case JoinAlg::kHash: {
      node->op = PlanOp::kHashJoin;
      const bool left_builds = left_summary.rows <= base_[t].rows;
      node->AddChild(left_builds ? std::move(left) : std::move(right));
      node->AddChild(left_builds ? std::move(right) : std::move(left));
      break;
    }
  }
  // Audit: the summary arithmetic must reproduce costing the built tree.
  DBLAYOUT_DCHECK_EQ(ImplCost(*node), choice.cost);
  DBLAYOUT_DCHECK_EQ(node->out_rows, choice.est.rows);
  return node;
}

namespace {
/// Collects the leaf objects (and their block counts) of a subtree.
void LeafObjects(const PlanNode& node, std::map<int, double>* blocks) {
  if (node.object_id >= 0 && node.blocks_accessed > 0) {
    (*blocks)[node.object_id] += node.blocks_accessed;
  }
  for (const auto& child : node.children) LeafObjects(*child, blocks);
}
}  // namespace

double SelectPlanner::ImplCost(const PlanNode& node) const {
  double c = node.blocks_accessed *
             (node.random_access ? options_.random_io_penalty : 1.0);
  switch (node.op) {
    case PlanOp::kSort:
      if (!node.children.empty()) {
        c += options_.sort_cost_per_row * node.children[0]->out_rows;
      }
      break;
    case PlanOp::kMergeJoin:
      // Pipelined joins whose two inputs scan the *same* object interleave
      // two cursors over one table and thrash the disk head; surcharge the
      // overlapping volume so the planner prefers alternatives that cut the
      // pipeline (e.g. hash semi-joins), as production optimizers do.
      if (node.children.size() == 2) {
        std::map<int, double> left_leaves, right_leaves;
        LeafObjects(*node.children[0], &left_leaves);
        LeafObjects(*node.children[1], &right_leaves);
        for (const auto& [obj, blocks] : left_leaves) {
          auto it = right_leaves.find(obj);
          if (it != right_leaves.end()) {
            c += blocks + it->second;
          }
        }
      }
      break;
    case PlanOp::kHashJoin:
      if (node.children.size() == 2) {
        c += options_.hash_build_cost_per_row * node.children[0]->out_rows +
             options_.hash_probe_cost_per_row * node.children[1]->out_rows;
      }
      break;
    case PlanOp::kHashAggregate:
      if (!node.children.empty()) {
        c += options_.hash_build_cost_per_row * node.children[0]->out_rows;
      }
      break;
    case PlanOp::kNestedLoopsJoin:
      if (!node.children.empty()) {
        c += options_.nlj_cost_per_outer_row * node.children[0]->out_rows;
      }
      break;
    default:
      break;
  }
  for (const auto& child : node.children) c += ImplCost(*child);
  return c;
}

Result<std::unique_ptr<PlanNode>> SelectPlanner::BuildJoinTree() {
  std::vector<std::unique_ptr<PlanNode>> access;
  for (size_t t = 0; t < bound_.size(); ++t) {
    DBLAYOUT_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> plan, BuildAccessPath(t));
    base_.push_back(Summarize(*plan, t));
    access.push_back(std::move(plan));
  }
  if (access.size() == 1) return std::move(access[0]);
  if (static_cast<int>(access.size()) <= options_.dp_join_table_limit) {
    return BuildJoinTreeDp(std::move(access));
  }
  return BuildJoinTreeGreedy(std::move(access));
}

std::unique_ptr<PlanNode> SelectPlanner::BuildJoinTreeDp(
    std::vector<std::unique_ptr<PlanNode>> access) {
  // System-R-style left-deep dynamic programming over table subsets, scored
  // by ImplCost on summaries. Cross joins are admitted only when a subset has
  // no connected extension. Each subset keeps its best summary and the last
  // table joined; the winning tree is built once, along those back-pointers.
  const size_t n = access.size();
  struct State {
    PlanSummary summary;
    size_t last = 0;  ///< table joined last (the right input)
    JoinChoice choice;
    bool valid = false;
  };
  std::vector<State> best(size_t{1} << n);
  std::vector<size_t> neighbors(n, 0);  // per table: mask of joinable tables
  for (const JoinPred& jp : join_preds_) {
    neighbors[jp.lhs_table] |= size_t{1} << jp.rhs_table;
    neighbors[jp.rhs_table] |= size_t{1} << jp.lhs_table;
  }
  for (size_t t = 0; t < n; ++t) {
    State& s = best[size_t{1} << t];
    s.summary = base_[t];
    s.valid = true;
  }

  for (size_t mask = 1; mask < best.size(); ++mask) {
    if (__builtin_popcountll(mask) < 2) continue;
    State& s = best[mask];
    // First pass: connected extensions only; second pass admits cross joins
    // if the subset would otherwise be unreachable.
    for (const bool allow_cross : {false, true}) {
      if (allow_cross && s.valid) break;
      for (size_t t = 0; t < n; ++t) {
        if (!((mask >> t) & 1)) continue;
        const size_t rest = mask & ~(size_t{1} << t);
        if (!best[rest].valid) continue;
        if ((neighbors[t] & rest) == 0 && !allow_cross) continue;
        JoinChoice choice = ChooseJoin(best[rest].summary, t);
        if (!s.valid || choice.cost < s.choice.cost) {
          s.last = t;
          s.choice = choice;
          s.valid = true;
        }
      }
    }
    DBLAYOUT_CHECK(s.valid);
    s.summary = JoinSummary(best[mask & ~(size_t{1} << s.last)].summary, s.last,
                            s.choice);
  }

  // Replay the winning join order bottom-up: n-1 joins, each built once.
  std::vector<size_t> order;
  size_t mask = best.size() - 1;
  while (__builtin_popcountll(mask) > 1) {
    order.push_back(best[mask].last);
    mask &= ~(size_t{1} << best[mask].last);
  }
  std::unique_ptr<PlanNode> plan =
      std::move(access[static_cast<size_t>(__builtin_ctzll(mask))]);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const size_t t = *it;
    plan = BuildJoin(std::move(plan), best[mask].summary, t, std::move(access[t]),
                     best[mask | (size_t{1} << t)].choice);
    mask |= size_t{1} << t;
  }
  return plan;
}

std::unique_ptr<PlanNode> SelectPlanner::BuildJoinTreeGreedy(
    std::vector<std::unique_ptr<PlanNode>> access) {
  // Greedy left-deep enumeration: start from the smallest input; repeatedly
  // add the connected table minimizing the estimated result size. Tables
  // with no join edge are cross-joined last.
  size_t start = 0;
  for (size_t i = 1; i < access.size(); ++i) {
    if (base_[i].rows < base_[start].rows) start = i;
  }
  std::unique_ptr<PlanNode> plan = std::move(access[start]);
  PlanSummary current = base_[start];

  for (size_t step = 1; step < access.size(); ++step) {
    // Find the best next input.
    double best_rows = std::numeric_limits<double>::infinity();
    size_t best_i = access.size();
    bool best_connected = false;
    for (size_t i = 0; i < access.size(); ++i) {
      if (current.tables[i]) continue;
      bool connected = false;
      double sel = 1.0;
      for (const JoinPred& jp : join_preds_) {
        const bool connects = (current.tables[jp.lhs_table] && jp.rhs_table == i) ||
                              (current.tables[jp.rhs_table] && jp.lhs_table == i);
        if (!connects) continue;
        connected = true;
        sel *= jp.sel;
      }
      const double est = current.rows * base_[i].rows * sel;
      // Prefer connected joins over cross products regardless of size.
      if ((connected && !best_connected) ||
          (connected == best_connected && est < best_rows)) {
        best_rows = est;
        best_i = i;
        best_connected = connected;
      }
    }
    DBLAYOUT_CHECK(best_i < access.size());
    const JoinChoice choice = ChooseJoin(current, best_i);
    plan = BuildJoin(std::move(plan), current, best_i, std::move(access[best_i]), choice);
    current = JoinSummary(current, best_i, choice);
  }
  return plan;
}

std::unique_ptr<PlanNode> SelectPlanner::AddAggregation(
    std::unique_ptr<PlanNode> input) {
  const bool has_agg = std::any_of(sel_.items.begin(), sel_.items.end(),
                                   [](const SelectItem& i) { return i.agg != AggFunc::kNone; });
  if (sel_.group_by.empty()) {
    if (!has_agg) return input;
    auto node = std::make_unique<PlanNode>(PlanOp::kStreamAggregate);
    node->out_rows = 1;
    node->detail = "scalar aggregate";
    node->AddChild(std::move(input));
    return node;
  }
  // Estimate group count as the product of group-column distinct counts,
  // capped by input rows.
  double groups = 1;
  for (const auto& g : sel_.group_by) {
    auto r = Resolve(g);
    groups *= r.ok() ? static_cast<double>(std::max<int64_t>(1, r.value().second->distinct_count))
                     : 100.0;
  }
  groups = std::max(1.0, std::min(groups, input->out_rows));

  // Stream aggregate if the input already arrives ordered on the first
  // group column; otherwise hash aggregate (blocking).
  bool ordered = false;
  if (!input->sort_order.empty()) {
    auto r = Resolve(sel_.group_by[0]);
    if (r.ok()) {
      const std::string qual =
          QualName(bound_[r.value().first].bind_name, sel_.group_by[0].column);
      ordered = input->sort_order[0] == qual;
    }
  }
  auto node = std::make_unique<PlanNode>(
      ordered ? PlanOp::kStreamAggregate : PlanOp::kHashAggregate);
  node->out_rows = groups;
  node->detail = StrFormat("group by %zu cols", sel_.group_by.size());
  if (ordered) node->sort_order = input->sort_order;
  node->AddChild(std::move(input));
  return node;
}

std::unique_ptr<PlanNode> SelectPlanner::AddOrderByAndTop(
    std::unique_ptr<PlanNode> input) {
  if (!sel_.order_by.empty()) {
    // Skip the sort when the input is already ordered on the first key.
    bool ordered = false;
    if (!input->sort_order.empty()) {
      auto r = Resolve(sel_.order_by[0].column);
      if (r.ok()) {
        ordered = input->sort_order[0] ==
                  QualName(bound_[r.value().first].bind_name,
                           sel_.order_by[0].column.column);
      }
    }
    if (!ordered) {
      auto sort = std::make_unique<PlanNode>(PlanOp::kSort);
      sort->out_rows = input->out_rows;
      sort->detail = StrFormat("order by %zu cols", sel_.order_by.size());
      sort->AddChild(std::move(input));
      input = std::move(sort);
    }
  }
  if (sel_.top >= 0) {
    auto top = std::make_unique<PlanNode>(PlanOp::kTop);
    top->out_rows = std::min(static_cast<double>(sel_.top), input->out_rows);
    top->detail = StrFormat("top %lld", static_cast<long long>(sel_.top));
    top->AddChild(std::move(input));
    input = std::move(top);
  }
  return input;
}

Result<std::unique_ptr<PlanNode>> SelectPlanner::Run() {
  DBLAYOUT_RETURN_NOT_OK(Bind());
  DBLAYOUT_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> plan, BuildJoinTree());
  plan = AddAggregation(std::move(plan));
  plan = AddOrderByAndTop(std::move(plan));
  return plan;
}

/// Plans UPDATE/DELETE: an access path evaluating the WHERE clause feeds a
/// write operator over the base object (plus maintained indexes).
Result<std::unique_ptr<PlanNode>> PlanModify(const Database& db,
                                             const OptimizerOptions& options,
                                             const std::string& table_name,
                                             const std::vector<Predicate>& where,
                                             PlanOp write_op,
                                             const std::vector<std::string>& set_columns) {
  const Table* table = db.FindTable(table_name);
  if (table == nullptr) {
    return Status::NotFound(StrFormat("unknown table '%s'", table_name.c_str()));
  }
  // Reuse the SELECT machinery for the read side: SELECT * FROM t WHERE ...
  SelectStatement read;
  SelectItem star;
  star.star = true;
  read.items.push_back(star);
  read.from.push_back(TableRef{table_name, ""});
  read.where = where;
  SelectPlanner planner(db, options, read);
  DBLAYOUT_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> read_plan, planner.Run());
  const double affected = read_plan->out_rows;

  auto id = db.ObjectIdOfTable(table_name);
  DBLAYOUT_CHECK(id.ok());
  auto node = std::make_unique<PlanNode>(write_op);
  node->object_id = id.value();
  node->object_name = table_name;
  node->is_write = true;
  node->out_rows = affected;
  const double data_blocks = static_cast<double>(table->DataBlocks());
  // In-place DML is a read-modify-write pass: each qualifying block is read
  // and written back without an intervening seek, so fold the read side's
  // base-table I/O into one RMW access. The access pattern follows the read
  // path: sequential for a scan or clustered range, scattered for
  // RID lookups (whose index-seek child keeps its own read).
  if ((read_plan->op == PlanOp::kClusteredSeek ||
       read_plan->op == PlanOp::kTableScan ||
       read_plan->op == PlanOp::kRidLookup) &&
      read_plan->object_id == id.value()) {
    node->read_modify_write = true;
    node->blocks_accessed = read_plan->blocks_accessed;
    node->random_access = read_plan->op == PlanOp::kRidLookup;
    read_plan->blocks_accessed = 0;
    read_plan->detail += read_plan->detail.empty() ? "folded into RMW"
                                                   : "; folded into RMW";
  } else {
    node->blocks_accessed = YaoBlocks(affected, data_blocks,
                                      static_cast<double>(table->row_count));
    node->random_access = affected < static_cast<double>(table->row_count);
  }
  node->AddChild(std::move(read_plan));

  // Maintained non-clustered indexes are co-written in the same pipeline.
  for (const Index* ix : db.IndexesOf(table_name)) {
    const bool maintained =
        write_op == PlanOp::kDelete ||
        std::any_of(ix->key_columns.begin(), ix->key_columns.end(),
                    [&](const std::string& k) {
                      return std::find(set_columns.begin(), set_columns.end(), k) !=
                             set_columns.end();
                    });
    if (!maintained) continue;
    auto ix_id = db.ObjectIdOfIndex(table_name, ix->name);
    DBLAYOUT_CHECK(ix_id.ok());
    auto w = std::make_unique<PlanNode>(write_op);
    w->object_id = ix_id.value();
    w->object_name = table_name + "." + ix->name;
    w->is_write = true;
    w->random_access = true;
    w->out_rows = affected;
    w->blocks_accessed = YaoBlocks(affected, static_cast<double>(db.IndexBlocks(*ix)),
                                   static_cast<double>(table->row_count));
    w->detail = "index maintenance";
    node->AddChild(std::move(w));
  }
  return node;
}

}  // namespace

Result<std::unique_ptr<PlanNode>> Optimizer::Plan(const SqlStatement& stmt) const {
  switch (stmt.kind) {
    case SqlStatement::Kind::kSelect: {
      SelectPlanner planner(db_, options_, stmt.select);
      return planner.Run();
    }
    case SqlStatement::Kind::kInsert: {
      const Table* table = db_.FindTable(stmt.insert.table);
      if (table == nullptr) {
        return Status::NotFound(
            StrFormat("unknown table '%s'", stmt.insert.table.c_str()));
      }
      auto id = db_.ObjectIdOfTable(stmt.insert.table);
      DBLAYOUT_CHECK(id.ok());
      auto node = std::make_unique<PlanNode>(PlanOp::kInsert);
      node->object_id = id.value();
      node->object_name = stmt.insert.table;
      node->is_write = true;
      node->out_rows = static_cast<double>(stmt.insert.num_rows);
      node->blocks_accessed = std::max(
          1.0, static_cast<double>(stmt.insert.num_rows) / table->RowsPerBlock());
      node->random_access = !table->clustered_key.empty();
      for (const Index* ix : db_.IndexesOf(stmt.insert.table)) {
        auto ix_id = db_.ObjectIdOfIndex(stmt.insert.table, ix->name);
        DBLAYOUT_CHECK(ix_id.ok());
        auto w = std::make_unique<PlanNode>(PlanOp::kInsert);
        w->object_id = ix_id.value();
        w->object_name = stmt.insert.table + "." + ix->name;
        w->is_write = true;
        w->random_access = true;
        w->out_rows = static_cast<double>(stmt.insert.num_rows);
        w->blocks_accessed = std::max(
            1.0, std::min(static_cast<double>(stmt.insert.num_rows),
                          static_cast<double>(db_.IndexBlocks(*ix))));
        w->detail = "index maintenance";
        node->AddChild(std::move(w));
      }
      return node;
    }
    case SqlStatement::Kind::kUpdate:
      return PlanModify(db_, options_, stmt.update.table, stmt.update.where,
                        PlanOp::kUpdate, stmt.update.set_columns);
    case SqlStatement::Kind::kDelete:
      return PlanModify(db_, options_, stmt.del.table, stmt.del.where,
                        PlanOp::kDelete, {});
  }
  return Status::Internal("unknown statement kind");
}

}  // namespace dblayout
