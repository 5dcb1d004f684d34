// A small shared worker pool for deterministic fan-out of pure work items.
//
// The pool exists for one pattern: a caller holds an indexed batch of
// independent, side-effect-free tasks (candidate-move scorings, failure
// scenarios), wants them executed on several cores, and must get results
// that are byte-identical to running the same batch sequentially. So
// ParallelFor hands out *indices*, not partitions: workers self-schedule
// from an atomic cursor, every invocation writes only to its own index's
// slot, and the caller aggregates sequentially afterwards. Which thread ran
// which index can vary run to run; what was computed cannot.
//
// The calling thread always participates as worker 0, so ParallelFor(n, 1,
// fn) never touches the pool threads at all and a parallelism of p uses at
// most p - 1 pool workers. Batches are serialized: concurrent ParallelFor
// calls from different threads queue behind an internal run mutex rather
// than interleaving (the library's callers fan out one search or one
// resilience sweep at a time; nesting is a bug, not a use case).
//
// Locking discipline: all batch coordination state is guarded by `mu_` and
// annotated DBLAYOUT_GUARDED_BY so both dblayout_check's lock-discipline
// rule and Clang's -Wthread-safety verify every access.

#ifndef DBLAYOUT_COMMON_THREAD_POOL_H_
#define DBLAYOUT_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace dblayout {

class ThreadPool {
 public:
  /// A pool with `num_workers` background threads (>= 0; 0 makes every
  /// ParallelFor run inline on the caller).
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// The process-wide pool, sized to the hardware (hardware_concurrency - 1
  /// background workers, at least 1), created on first use. Reach it through
  /// SharedParallelFor, which never creates it for a single thread.
  static ThreadPool& Shared();

  /// The worker count SharedParallelFor(n, num_threads, fn) uses, for
  /// sizing per-worker state: 1 when num_threads <= 1 (without creating the
  /// shared pool), else min(num_threads, Shared().num_workers() + 1).
  static int SharedParallelism(int num_threads);

  /// Runs fn(index, worker) for every index in [0, n) on
  /// SharedParallelism(num_threads) workers: inline on the caller as worker 0
  /// when that is 1, else through Shared().ParallelFor. This is the one entry
  /// for callers configured with a thread count.
  static void SharedParallelFor(
      int64_t n, int num_threads,
      const std::function<void(int64_t index, int worker)>& fn);

  /// Runs fn(index, worker) for every index in [0, n). `worker` is in
  /// [0, min(parallelism, num_workers() + 1, n)) and is stable for the
  /// duration of one invocation on one thread, so callers may give each
  /// worker its own scratch state. The caller's thread is always worker 0.
  /// Blocks until every index has been processed. fn must not throw and must
  /// not call back into ParallelFor.
  void ParallelFor(int64_t n, int parallelism,
                   const std::function<void(int64_t index, int worker)>& fn);

 private:
  /// One ParallelFor invocation's shared state. `next` is the self-scheduling
  /// cursor; `joined`/`finished` (guarded by the pool's mu_) track pool
  /// workers so the caller can wait for the last helper to leave `fn` before
  /// returning. (The fields cannot carry DBLAYOUT_GUARDED_BY themselves:
  /// the guarding mutex lives in the enclosing pool, not in the batch.)
  struct Batch {
    int64_t n = 0;
    const std::function<void(int64_t, int)>* fn = nullptr;
    int helpers = 0;  ///< max pool workers that may join
    std::atomic<int64_t> next{0};
    int joined = 0;    ///< pool workers that claimed a worker id (mu_)
    int finished = 0;  ///< pool workers done draining (mu_)
  };

  void WorkerLoop();

  Mutex run_mu_;  ///< serializes ParallelFor invocations
  Mutex mu_;
  CondVar work_cv_;  ///< workers wait for a batch or shutdown
  CondVar done_cv_;  ///< the batch caller waits for helpers to finish
  Batch* batch_ DBLAYOUT_GUARDED_BY(mu_) = nullptr;
  bool shutdown_ DBLAYOUT_GUARDED_BY(mu_) = false;
  // dblayout-check(unannotated-mutex-field): written only in the constructor and joined in the destructor, strictly before/after any worker runs; never touched concurrently
  std::vector<std::thread> workers_;
};

}  // namespace dblayout

#endif  // DBLAYOUT_COMMON_THREAD_POOL_H_
