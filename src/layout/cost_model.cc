#include "layout/cost_model.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "analysis/invariant_auditor.h"
#include "common/logging.h"
#include "obs/metrics.h"

// Delta scoring is bit-identical to the §5 oracle only while every
// floating-point operation is rounded as written: reassociation
// (-ffast-math, -fassociative-math) or contraction into fused multiply-adds
// breaks delta/oracle bit identity. -ffast-math announces itself through
// __FAST_MATH__ and is refused here. Contraction is pinned off by the root
// CMakeLists (-ffp-contract=off for GCC and Clang), so FMA-capable targets
// (a -march flag, or AArch64) round exactly as baseline x86-64 does.
// -fassociative-math alone and -ffp-contract have no macro; for a build
// that overrides them, the EvaluatorTest bit-identity tests are the fence.
#ifdef __FAST_MATH__
#error "reassociating floating-point math breaks delta/oracle bit identity"
#endif

namespace dblayout {

double CostModel::SubplanCost(const SubplanAccess& subplan, const Layout& layout) const {
  double max_cost = 0;
  double max_transfer = 0, max_seek = 0;  ///< breakdown at the max disk
  for (int j = 0; j < fleet_.num_disks(); ++j) {
    const DiskDrive& d = fleet_.disk(j);
    double transfer = 0;
    double min_blocks_on_disk = std::numeric_limits<double>::infinity();
    int k = 0;
    for (const ObjectAccess& a : subplan.accesses) {
      const double frac = layout.x(a.object_id, j);
      if (frac <= 0) continue;
      const double blocks_on_disk = frac * a.blocks;
      const double ms_per_block =
          a.read_modify_write ? d.ReadMsPerBlock() + d.WriteMsPerBlock()
          : a.is_write        ? d.WriteMsPerBlock()
                              : d.ReadMsPerBlock();
      transfer += blocks_on_disk * ms_per_block;
      min_blocks_on_disk = std::min(min_blocks_on_disk, blocks_on_disk);
      ++k;
    }
    // Empty placement on this disk: every access of the sub-plan has
    // frac <= 0 here, so there is no transfer and min_blocks_on_disk is
    // still the +inf sentinel. Skip before the seek term so the sentinel can
    // never reach an arithmetic path (k > 1 alone also guards it, but only
    // implicitly — the explicit contract is "no placement, zero cost", and
    // the InvariantAuditor recomputation skips such disks identically).
    if (k == 0) continue;
    double seek = 0;
    if (k > 1) {
      DBLAYOUT_DCHECK(std::isfinite(min_blocks_on_disk));
      seek = static_cast<double>(k) * d.seek_ms * min_blocks_on_disk;
    }
    // Per-disk times are sums of non-negative terms; anything else means a
    // corrupted layout fraction or drive parameter reached the hot path.
    DBLAYOUT_DCHECK(std::isfinite(transfer) && transfer >= 0);
    DBLAYOUT_DCHECK(std::isfinite(seek) && seek >= 0);
    if (transfer + seek > max_cost) {
      max_cost = transfer + seek;
      max_transfer = transfer;
      max_seek = seek;
    }
  }
  // Per-sub-plan breakdown of the binding (max) disk: whether the Section 5
  // seek term or the transfer term dominates the sub-plan's response time.
  DBLAYOUT_OBS_COUNT("cost_model/subplan_evals", 1);
  if (max_cost > 0) {
    if (max_seek >= max_transfer) {
      DBLAYOUT_OBS_COUNT("cost_model/subplan_seek_bound", 1);
    } else {
      DBLAYOUT_OBS_COUNT("cost_model/subplan_transfer_bound", 1);
    }
    DBLAYOUT_OBS_OBSERVE("cost_model/subplan_cost_ms", max_cost);
  }
  // Debug-build audit: independent recomputation must agree that the
  // sub-plan costs the max over disks (guards future incremental or
  // vectorized rewrites of this function).
  DBLAYOUT_DCHECK_OK(
      InvariantAuditor().AuditSubplanCost(subplan, layout, fleet_, max_cost));
  return max_cost;
}

double CostModel::StatementCost(const StatementProfile& statement,
                                const Layout& layout) const {
  double cost = 0;
  for (const SubplanAccess& sp : statement.subplans) {
    cost += SubplanCost(sp, layout);
  }
  return cost;
}

double CostModel::WorkloadCost(const WorkloadProfile& profile,
                               const Layout& layout) const {
  workload_evals_.fetch_add(1, std::memory_order_relaxed);
  const bool timed = obs::Enabled();
  // dblayout-check(determinism-taint): telemetry-only timing, gated on obs::Enabled(); the measured duration feeds histograms, never the cost value
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  double total = 0;
  for (const StatementProfile& s : profile.statements) {
    total += s.weight * StatementCost(s, layout);
  }
  DBLAYOUT_DCHECK(std::isfinite(total) && total >= 0);
  if (timed) {
    const double us = std::chrono::duration<double, std::micro>(
                          // dblayout-check(determinism-taint): closes the telemetry-only span opened above
                          std::chrono::steady_clock::now() - start)
                          .count();
    DBLAYOUT_OBS_OBSERVE("cost_model/workload_cost_us", us);
    DBLAYOUT_OBS_COUNT("cost_model/workload_evals", 1);
  }
  return total;
}

void CostModel::NoteExternalWorkloadEvaluation(int64_t count) const {
  workload_evals_.fetch_add(count, std::memory_order_relaxed);
  DBLAYOUT_OBS_COUNT("cost_model/workload_evals", count);
}

}  // namespace dblayout
