#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace drlstream {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    for (int n : {0, 1, 2, 7, 64, 1000}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      pool.ParallelFor(n, [&](int i, int) { hits[i].fetch_add(1); });
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i
                                     << " threads=" << threads;
      }
    }
  }
}

TEST(ThreadPoolTest, SlotPerIndexResultsAreDeterministic) {
  // The determinism contract: when fn(i) writes only to slot i, results
  // are identical regardless of thread count or scheduling.
  auto compute = [](ThreadPool* pool, int n) {
    std::vector<double> out(n);
    pool->ParallelFor(n, [&](int i, int) {
      double acc = 0.0;
      for (int j = 0; j <= i; ++j) acc += 1.0 / (1.0 + j);
      out[i] = acc;
    });
    return out;
  };
  ThreadPool serial(1);
  const std::vector<double> want = compute(&serial, 257);
  for (int threads : {2, 3, 4}) {
    ThreadPool pool(threads);
    for (int repeat = 0; repeat < 3; ++repeat) {
      const std::vector<double> got = compute(&pool, 257);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << "i=" << i << " threads=" << threads;
      }
    }
  }
}

// Callers keep one scratch per worker index, so an index must stay in
// [0, num_threads()), belong to the calling thread when it is 0, and never
// be held by two calls running at the same time.
TEST(ThreadPoolTest, WorkerIndicesAreInRangeAndNeverShared) {
  for (int threads : {1, 2, 3, 4}) {
    ThreadPool pool(threads);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::atomic<int>> running(threads);
    for (auto& r : running) r.store(0);
    std::atomic<int> out_of_range{0}, shared{0}, caller_mismatch{0};
    for (int job = 0; job < 20; ++job) {
      pool.ParallelFor(500, [&](int i, int worker) {
        if (worker < 0 || worker >= threads) {
          out_of_range.fetch_add(1);
          return;
        }
        if ((worker == 0) != (std::this_thread::get_id() == caller)) {
          caller_mismatch.fetch_add(1);
        }
        if (running[worker].fetch_add(1) != 0) shared.fetch_add(1);
        // Some work, so that calls overlap in time.
        volatile double acc = 0.0;
        for (int j = 0; j < 200 + i % 7; ++j) acc = acc + 1.0 / (1.0 + j);
        running[worker].fetch_sub(1);
      });
    }
    EXPECT_EQ(out_of_range.load(), 0) << "threads=" << threads;
    EXPECT_EQ(shared.load(), 0) << "threads=" << threads;
    EXPECT_EQ(caller_mismatch.load(), 0) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, PoolIsReusableAcrossManyJobs) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int job = 0; job < 200; ++job) {
    pool.ParallelFor(job % 17, [&](int i, int) { total.fetch_add(i + 1); });
  }
  long want = 0;
  for (int job = 0; job < 200; ++job) {
    const int n = job % 17;
    want += static_cast<long>(n) * (n + 1) / 2;
  }
  EXPECT_EQ(total.load(), want);
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int> out(5, 0);
  pool.ParallelFor(5, [&](int i, int) { out[i] = i; });
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], i);
}

TEST(ThreadPoolTest, GlobalPoolRespondsToSetThreadCount) {
  const int original = GlobalThreadCount();
  SetGlobalThreadCount(3);
  EXPECT_EQ(GlobalThreadCount(), 3);
  EXPECT_EQ(GlobalThreadPool()->num_threads(), 3);
  std::vector<int> out(10, -1);
  GlobalThreadPool()->ParallelFor(10, [&](int i, int) { out[i] = 2 * i; });
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], 2 * i);
  SetGlobalThreadCount(original);
}

}  // namespace
}  // namespace drlstream
