// The Analyze Workload component (Section 4): obtains the execution plan of
// every statement in "no-execute" mode (via the optimizer), decomposes each
// plan into non-blocking sub-plans, and derives
//   (a) the per-statement access profile the cost model consumes, and
//   (b) the access graph (Fig. 6) the search's partitioning step consumes.

#ifndef DBLAYOUT_WORKLOAD_ANALYZER_H_
#define DBLAYOUT_WORKLOAD_ANALYZER_H_

#include <memory>
#include <string>
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

/// Workload compression: statements whose sub-plan access signatures are
/// equal (same pipelines over the same objects with the same access kinds
/// and block counts equal to 3 decimals — e.g. the hundreds of
/// near-identical drill-down queries of APB-800) are collapsed into one
/// statement, the first of them, carrying the summed weight. This is an
/// approximation, not an exact invariance:
///   - statements whose block counts differ by less than 5e-4 (and so round
///     to the same signature) merge, and the representative's block counts
///     stand in for all of them;
///   - w1 * c + w2 * c is replaced by (w1 + w2) * c, which can differ in
///     the last bits even for exact duplicates.
/// So the cost model and access graph agree with the uncompressed workload
/// only to within that rounding (under 5e-4 blocks per access, plus
/// last-bit error), and a search over the compressed profile may take a
/// different path when two candidates' costs are that close.
/// LayoutEvaluator exploits exact repetition without this loss. Synthesized
/// statements carry a null plan. Statements with positive stream tags are
/// left uncompressed (they matter individually for concurrency merging).
WorkloadProfile CompressProfile(const WorkloadProfile& profile);

/// Stable text encoding of a statement's sub-plan access structure: the
/// object ids, block counts (printed to 3 decimals, so counts less than
/// 5e-4 apart can share a signature), and access kinds of every pipeline.
/// Statements with equal signatures are what CompressProfile collapses;
/// they are indistinguishable to the cost model and access graph only up
/// to that rounding. The encoding is part of the checkpoint contract and
/// must not change.
std::string AccessSignature(const StatementProfile& statement);

/// Cache-ability summary of an analyzed workload: how far CompressProfile
/// could shrink it. distinct_signatures counts unique AccessSignature values
/// among compressible (stream <= 0) statements, plus the stream-tagged
/// statements that are kept individual.
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
