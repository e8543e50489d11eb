#ifndef DRLSTREAM_COMMON_THREAD_POOL_H_
#define DRLSTREAM_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
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
///
/// A ParallelFor call allocates nothing: fn is passed by reference and the
/// pool reuses one job record, so a training step that calls it stays off
/// the heap.
class ThreadPool {
 public:
  /// A non-owning reference to a callable fn(i, worker): the closure's
  /// address and a function that calls it. Unlike std::function, which
  /// moves a closure larger than its inline buffer to the heap, it never
  /// copies the closure; it must not outlive it, which a ParallelFor
  /// argument never does.
  class IndexFn {
   public:
    template <typename F>
    IndexFn(const F& fn)  // implicit, as std::function's is
        : closure_(&fn), call_([](const void* closure, int i, int worker) {
            (*static_cast<const F*>(closure))(i, worker);
          }) {}

    void operator()(int i, int worker) const { call_(closure_, i, worker); }

   private:
    const void* closure_;
    void (*call_)(const void* closure, int i, int worker);
  };

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
  void ParallelFor(int n, IndexFn fn);

 private:
  /// The one ParallelFor invocation in flight. Its fields are written
  /// under mutex_ before the job is posted and read by the workers that
  /// take it; ParallelFor returns, and may rewrite them for the next call,
  /// only once it has withdrawn the job (a worker that wakes later skips
  /// it) and every worker that took it has left RunJob (job_holders_ == 0).
  struct Job {
    const IndexFn* fn = nullptr;
    int n = 0;
    std::atomic<int> next{0};
    /// Post timestamp (steady-clock µs) captured only when the obs metrics
    /// registry is enabled; 0 means "don't record wait times".
    int64_t post_time_us = 0;
  };

  /// Background worker `worker` (in [1, num_threads())).
  void WorkerLoop(int worker);
  /// Pulls indices from job_ until it is exhausted, as `worker`.
  void RunJob(int worker);

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable job_ready_;
  std::condition_variable job_done_;
  Job job_;
  bool job_posted_ = false;  // job_ is open for workers to take
  int job_holders_ = 0;      // workers that took job_ and are still in it
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
