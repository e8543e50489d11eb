#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "obs/metrics.h"

namespace drlstream {

namespace {

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

obs::Counter* PoolJobs() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Get().counter("threadpool.jobs");
  return counter;
}

obs::Gauge* PoolQueueDepth() {
  static obs::Gauge* const gauge =
      obs::MetricsRegistry::Get().gauge("threadpool.queue_depth");
  return gauge;
}

obs::Histogram* PoolTaskWaitUs() {
  static obs::Histogram* const histogram =
      obs::MetricsRegistry::Get().histogram("threadpool.task_wait_us");
  return histogram;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (int worker = 1; worker < num_threads_; ++worker) {
    workers_.emplace_back([this, worker] { WorkerLoop(worker); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  job_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop(int worker) {
  uint64_t last_generation = 0;
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      job_ready_.wait(lock, [&] {
        return shutdown_ ||
               (job_ != nullptr && job_generation_ != last_generation);
      });
      if (shutdown_) return;
      last_generation = job_generation_;
      job = job_;
    }
    if (job->post_time_us != 0) {
      // Time from job post to this worker picking up its first index.
      PoolTaskWaitUs()->Record(
          static_cast<double>(SteadyNowUs() - job->post_time_us));
    }
    RunJob(job.get(), worker);
  }
}

void ThreadPool::RunJob(Job* job, int worker) {
  int done = 0;
  int i;
  while ((i = job->next.fetch_add(1, std::memory_order_relaxed)) < job->n) {
    (*job->fn)(i, worker);
    ++done;
  }
  if (done > 0 &&
      job->remaining.fetch_sub(done, std::memory_order_acq_rel) == done) {
    // This thread finished the last index; wake the caller.
    std::lock_guard<std::mutex> lock(mutex_);
    job_done_.notify_all();
  }
}

void ThreadPool::ParallelFor(int n,
                             const std::function<void(int, int)>& fn) {
  if (n <= 0) return;
  const bool metrics = obs::MetricsEnabled();
  if (metrics) PoolJobs()->Add(1);
  if (num_threads_ == 1 || n == 1) {
    for (int i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  job->remaining.store(n, std::memory_order_relaxed);
  if (metrics) {
    job->post_time_us = SteadyNowUs();
    PoolQueueDepth()->Set(static_cast<double>(n));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    ++job_generation_;
  }
  job_ready_.notify_all();
  RunJob(job.get(), 0);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    job_done_.wait(lock, [&] {
      return job->remaining.load(std::memory_order_acquire) <= 0;
    });
    job_.reset();
  }
  if (metrics) PoolQueueDepth()->Set(0.0);
}

namespace {

std::unique_ptr<ThreadPool>& GlobalPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

int DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw), 1, 8);
}

}  // namespace

ThreadPool* GlobalThreadPool() {
  std::unique_ptr<ThreadPool>& slot = GlobalPoolSlot();
  if (!slot) slot = std::make_unique<ThreadPool>(DefaultThreadCount());
  return slot.get();
}

void SetGlobalThreadCount(int num_threads) {
  GlobalPoolSlot() = std::make_unique<ThreadPool>(std::max(1, num_threads));
}

int GlobalThreadCount() { return GlobalThreadPool()->num_threads(); }

}  // namespace drlstream
