// Seeded input generation for the advisor benchmark. Every workload is built
// from a seed and handed to the advisor as SQL text only: the advise
// workloads as one workload script, the service workload as a stream of
// (tenant, statement) events.

#ifndef ADVBENCH_WORKLOADS_H_
#define ADVBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "storage/disk.h"

namespace advbench {

/// Input of an advise workload (apb800-m32, sales45-m32).
struct AdviseInput {
  dblayout::Database db;
  dblayout::DiskFleet fleet;
  std::string script;  ///< the generated workload as a SQL script
  int statements = 0;
  int threads = 1;     ///< SearchOptions::num_threads for this workload
};

/// Builds the database, the fleet and the workload script of `workload`.
/// The benchmark generator uses `gen_seed` (APB-800 default 7, SALES-45
/// default 11, when negative); `seed` permutes the statement order of the
/// script, which the paper's set-of-statements model leaves the answer
/// invariant to. `tiny` shrinks the instance for smoke tests.
dblayout::Result<AdviseInput> MakeAdviseInput(const std::string& workload,
                                              uint64_t seed, int64_t gen_seed,
                                              bool tiny);

/// One statement of the service stream.
struct StreamEvent {
  int session = 0;
  std::string sql;
};

/// Input of the service workload (serve-tpch-m8).
struct ServeInput {
  dblayout::Database db;
  dblayout::DiskFleet fleet;
  std::vector<StreamEvent> stream;
};

/// TPC-H (scale 1) on an 8-drive fleet and a phased multi-tenant stream
/// drawn from `seed` (see NOTES.md for its shape).
dblayout::Result<ServeInput> MakeServeInput(uint64_t seed, bool tiny);

}  // namespace advbench

#endif  // ADVBENCH_WORKLOADS_H_
