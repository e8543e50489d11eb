#ifndef DRLSTREAM_COMMON_THREAD_POOL_H_
#define DRLSTREAM_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace drlstream {

/// A small reusable pool of worker threads for data-parallel loops in the
/// training hot path (e.g. the per-transition target computation of
/// DdpgAgent::TrainStep).
///
/// Determinism contract: ParallelFor(n, fn) invokes fn(i, worker) exactly
/// once for every i in [0, n). Workers race only for *which* index they run
/// next; as long as fn(i, ...) writes exclusively to slot i of its output
/// (no shared accumulators, no shared RNG), the results are bit-identical
/// for every thread count, including 1. All code in this repository that
/// uses the pool follows this slot-per-index discipline.
///
/// `worker` names the thread running the call, in [0, num_threads()); the
/// caller of ParallelFor is worker 0. No two calls running at the same time
/// share a worker index, so fn may keep one scratch per worker instead of
/// one per index (scratch contents must not carry into the results).
///
/// ParallelFor is not reentrant: fn must not call ParallelFor on the same
/// pool.
class ThreadPool {
 public:
  /// Creates `num_threads - 1` background workers; the caller of
  /// ParallelFor acts as the remaining thread. num_threads < 1 is clamped
  /// to 1 (purely serial, no background threads).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(i, worker) for every i in [0, n), distributing indices across
  /// the pool. Blocks until all n invocations completed. fn must not throw.
  void ParallelFor(int n, const std::function<void(int, int)>& fn);

 private:
  /// One ParallelFor invocation. Each job owns its counters so a worker
  /// that wakes late (holding a stale job) can never touch a newer job's
  /// state: its `next` is already exhausted, so it no-ops.
  struct Job {
    const std::function<void(int, int)>* fn = nullptr;
    int n = 0;
    std::atomic<int> next{0};
    std::atomic<int> remaining{0};
    /// Post timestamp (steady-clock µs) captured only when the obs metrics
    /// registry is enabled; 0 means "don't record wait times".
    int64_t post_time_us = 0;
  };

  /// Background worker `worker` (in [1, num_threads())).
  void WorkerLoop(int worker);
  /// Pulls indices from `job` until it is exhausted, as `worker`.
  void RunJob(Job* job, int worker);

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable job_ready_;
  std::condition_variable job_done_;
  std::shared_ptr<Job> job_;  // null = no job
  uint64_t job_generation_ = 0;
  bool shutdown_ = false;
};

/// Process-wide pool shared by the agents. Defaults to
/// min(hardware_concurrency, 8) threads; override with
/// SetGlobalThreadCount (e.g. from the --threads flag, see
/// ApplyProcessFlags in common/flags.h).
ThreadPool* GlobalThreadPool();

/// Replaces the global pool with one of `num_threads` threads (clamped to
/// >= 1). Not thread-safe against concurrent GlobalThreadPool() use; call
/// it from startup code or between training steps.
void SetGlobalThreadCount(int num_threads);

int GlobalThreadCount();

}  // namespace drlstream

#endif  // DRLSTREAM_COMMON_THREAD_POOL_H_
