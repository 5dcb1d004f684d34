// The Analyze Workload component (Section 4): obtains the execution plan of
// every statement in "no-execute" mode (via the optimizer), decomposes each
// plan into non-blocking sub-plans, and derives
//   (a) the per-statement access profile the cost model consumes, and
//   (b) the access graph (Fig. 6) the search's partitioning step consumes.

#ifndef DBLAYOUT_WORKLOAD_ANALYZER_H_
#define DBLAYOUT_WORKLOAD_ANALYZER_H_

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "graph/weighted_graph.h"
#include "optimizer/optimizer.h"
#include "workload/workload.h"

namespace dblayout {

/// The analyzed form of one workload statement.
struct StatementProfile {
  std::string sql;
  double weight = 1.0;
  int stream = 0;  ///< concurrency stream tag (see WorkloadStatement)
  std::unique_ptr<PlanNode> plan;  ///< null for synthesized merged statements
  std::vector<SubplanAccess> subplans;
};

/// The analyzed workload: everything the cost model and search need. The
/// original SQL is never executed, and (as in the paper) the produced plans
/// do not depend on the current layout.
struct WorkloadProfile {
  std::vector<StatementProfile> statements;
  size_t num_objects = 0;

  /// Total blocks accessed of object `obj` across the workload (weighted).
  double NodeBlocks(int obj) const;
};

/// Analyzes `workload` against `db`. Fails if any statement does not bind.
Result<WorkloadProfile> AnalyzeWorkload(const Database& db, const Workload& workload,
                                        const OptimizerOptions& options = {});

/// One workload statement the optimizer could not plan (usually a
/// trace/schema mismatch: the statement references objects the schema does
/// not define). Produced by AnalyzeWorkloadLenient.
struct StatementAnalysisError {
  size_t statement_index = 0;  ///< index into workload.statements()
  std::string sql;
  Status status;
};

/// Like AnalyzeWorkload, but statements that fail to plan are collected into
/// `errors` (when non-null) instead of failing the whole analysis. The
/// returned profile contains only the plannable statements. Used by the lint
/// subsystem, which reports mismatched statements as diagnostics.
WorkloadProfile AnalyzeWorkloadLenient(const Database& db, const Workload& workload,
                                       std::vector<StatementAnalysisError>* errors,
                                       const OptimizerOptions& options = {});

/// Per-object flag: true if the profile's statements access object id `i`
/// in any sub-plan. Objects never referenced by the workload get no say in
/// the layout search and are flagged by lint.
std::vector<bool> ReferencedObjects(const WorkloadProfile& profile);

/// Concurrency extension (the paper's §9 "ongoing work"): models concurrent
/// execution of statements tagged with different positive stream ids by
/// zipping their pipelines round-robin. Pipelines active in the same round
/// are merged into one synthesized non-blocking pipeline, so their objects
/// become co-accessed for the cost model and the access graph alike.
/// Statements with stream <= 0 pass through unchanged. The synthesized
/// merged statements carry weight 1 and a null plan (trace semantics: a
/// stream already encodes repetition).
WorkloadProfile MergeConcurrentStreams(const WorkloadProfile& profile);

/// The exact access key: when two sub-plans, or two statements, are the same
/// access pattern to the §5 cost model and the access graph. A shape is a
/// distinct sub-plan access list, keyed on its ordered (object id, bit
/// pattern of blocks, write, random, read-modify-write) tuples, so block
/// counts one ulp apart stay distinct; a term is a distinct statement, the
/// ordered sequence of its sub-plans' shape ids. Ids count up from 0 in order
/// of first appearance (a new one gets the previous count). The table stores
/// no pointer into any profile.
class AccessKeys {
 public:
  /// Shape id of `subplan`'s access list.
  int32_t Shape(const SubplanAccess& subplan);
  /// Term id of the shape-id sequence `shapes`.
  int32_t Term(const std::vector<int32_t>& shapes);
  /// Term id of `statement`: the shapes of its sub-plans, in order.
  int32_t Term(const StatementProfile& statement);

  int32_t num_shapes() const { return static_cast<int32_t>(shape_ids_.size()); }
  int32_t num_terms() const { return static_cast<int32_t>(term_ids_.size()); }

 private:
  using Access = std::tuple<int, uint64_t, bool, bool, bool>;
  std::map<std::vector<Access>, int32_t> shape_ids_;
  std::map<std::vector<int32_t>, int32_t> term_ids_;
  std::vector<Access> accesses_;  ///< reused key buffers
  std::vector<int32_t> shapes_;
};

/// CompressProfile one statement at a time; the service folds each window
/// into its accumulated profile with it.
class ProfileFold {
 public:
  /// Folds `statement` into `profile`, which must hold exactly the
  /// statements this fold has produced.
  void Add(const StatementProfile& statement, WorkloadProfile* profile);

 private:
  AccessKeys keys_;
  std::vector<size_t> representative_;  ///< term -> index in the profile
};

/// Workload compression: statements with the same term (AccessKeys) collapse
/// into one statement, the first of them, without its plan and carrying the
/// summed weight (e.g. the hundreds of repeated drill-down queries of
/// APB-800). The cost model and access graph see exactly the same accesses;
/// only w1 * c + w2 * c becomes (w1 + w2) * c, which can differ in the last
/// bits, so a search over the compressed profile may take a different path
/// when two candidates' costs are that close. Statements with positive
/// stream tags are kept individual, plan included (they matter individually
/// for concurrency merging).
WorkloadProfile CompressProfile(const WorkloadProfile& profile);

/// Cache-ability summary of an analyzed workload: how far CompressProfile
/// could shrink it. distinct_signatures counts the distinct terms
/// (AccessKeys) among compressible (stream <= 0) statements, plus the
/// stream-tagged statements that are kept individual.
struct ProfileAccessStats {
  int64_t statements = 0;
  int64_t subplans = 0;
  int64_t distinct_signatures = 0;
};
ProfileAccessStats ComputeProfileStats(const WorkloadProfile& profile);

/// Builds the access graph of Fig. 6 from an analyzed workload: node weights
/// are weighted blocks accessed; an edge (u,v) accumulates, over every
/// sub-plan co-accessing u and v, the sum of the blocks of u and v accessed
/// in that sub-plan (times statement weight).
WeightedGraph BuildAccessGraph(const WorkloadProfile& profile);

/// Renders the access graph with object names for debugging/EXPLAIN output.
std::string AccessGraphToString(const WeightedGraph& g, const Database& db);

}  // namespace dblayout

#endif  // DBLAYOUT_WORKLOAD_ANALYZER_H_
