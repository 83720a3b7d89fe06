#include "runner/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runner/parallel_for.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/progress.hpp"

namespace nvmenc {
namespace {

TEST(ThreadPool, ResolvesAutoToAtLeastOneWorker) {
  ThreadPool pool{0};
  EXPECT_GE(pool.size(), 1u);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ThreadPool, SubmitReturnsResultsThroughFutures) {
  ThreadPool pool{4};
  std::vector<std::future<usize>> futures;
  for (usize i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (usize i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPool, ResultsIndependentOfWorkerCount) {
  // The same task set produces the same per-index results on pools of
  // 1, 2 and 8 workers: scheduling affects order, never values.
  auto run_with = [](usize workers) {
    ThreadPool pool{workers};
    std::vector<u64> out(64, 0);
    parallel_for(pool, out.size(), [&](usize i) {
      out[i] = benchmark_seed(42, i);
    });
    return out;
  };
  const std::vector<u64> serial = run_with(1);
  EXPECT_EQ(run_with(2), serial);
  EXPECT_EQ(run_with(8), serial);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool{2};
  std::future<int> bad = pool.submit(
      []() -> int { throw std::runtime_error("boom"); });
  std::future<int> good = pool.submit([] { return 7; });
  EXPECT_THROW((void)bad.get(), std::runtime_error);
  EXPECT_EQ(good.get(), 7);  // one failing task does not poison the pool
}

TEST(ThreadPool, DoubleShutdownIsSafe) {
  ThreadPool pool{2};
  std::future<int> f = pool.submit([] { return 1; });
  pool.shutdown();
  pool.shutdown();  // idempotent
  EXPECT_EQ(f.get(), 1);
  EXPECT_THROW((void)pool.submit([] { return 2; }), std::runtime_error);
}

TEST(ThreadPool, ShutdownRunsTasksQueuedBehindBusyWorkers) {
  // shutdown() is the pool's one stop: called while every worker is busy
  // and tasks wait in the queue, it still runs each of them before the
  // workers join.
  ThreadPool pool{2};
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<usize> started{0};
  std::vector<std::future<usize>> futures;
  for (usize i = 0; i < 2; ++i) {
    futures.push_back(pool.submit([gate, &started, i] {
      ++started;
      gate.wait();
      return i;
    }));
  }
  for (usize i = 2; i < 6; ++i) {
    futures.push_back(pool.submit([i] { return i; }));
  }
  while (started.load() < 2) std::this_thread::yield();
  std::thread stopper{[&pool] { pool.shutdown(); }};
  release.set_value();
  stopper.join();
  for (usize i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), i);
  }
  EXPECT_THROW((void)pool.submit([] { return usize{0}; }),
               std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<usize> done{0};
  {
    ThreadPool pool{2};
    for (usize i = 0; i < 32; ++i) {
      (void)pool.submit([&done] { ++done; });
    }
  }  // destructor == shutdown: every queued task ran
  EXPECT_EQ(done.load(), 32u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool{4};
  std::vector<std::atomic<u32>> hits(257);
  parallel_for(pool, hits.size(), [&](usize i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1u);
}

TEST(ParallelFor, RethrowsAfterAllIndicesRan) {
  ThreadPool pool{4};
  std::atomic<usize> ran{0};
  EXPECT_THROW(parallel_for(pool, 16,
                            [&](usize i) {
                              ++ran;
                              if (i == 5) throw std::logic_error("cell 5");
                            }),
               std::logic_error);
  EXPECT_EQ(ran.load(), 16u);  // no index skipped, no detached work
}

TEST(ParallelFor, ZeroCountIsANoop) {
  ThreadPool pool{2};
  parallel_for(pool, 0, [](usize) { FAIL() << "body must not run"; });
}

TEST(ProgressReporter, CountsAndPrintsUnderConcurrency) {
  std::ostringstream out;
  ProgressReporter progress{&out, 20};
  ThreadPool pool{4};
  parallel_for(pool, 20, [&](usize i) {
    progress.job_done("job" + std::to_string(i), "ok");
  });
  EXPECT_EQ(progress.completed(), 20u);
  const std::string text = out.str();
  for (usize i = 0; i < 20; ++i) {
    EXPECT_NE(text.find("job" + std::to_string(i) + ": ok"),
              std::string::npos);
  }
  EXPECT_NE(text.find("[20/20,"), std::string::npos);  // last counter line
}

TEST(ProgressReporter, NullSinkOnlyCounts) {
  ProgressReporter progress{nullptr, 2};
  progress.announce("ignored");
  progress.job_done("a", "done");
  EXPECT_EQ(progress.completed(), 1u);
  EXPECT_GE(progress.elapsed_seconds(), 0.0);
}

TEST(BenchmarkSeed, DeterministicDecorrelatedChildren) {
  // Stable across calls, independent of evaluation order, distinct per
  // index, and never the parent seed itself.
  const u64 first = benchmark_seed(42, 0);
  std::vector<u64> seeds;
  for (usize b = 0; b < 12; ++b) seeds.push_back(benchmark_seed(42, b));
  EXPECT_EQ(seeds[0], first);
  for (usize a = 0; a < seeds.size(); ++a) {
    EXPECT_NE(seeds[a], 42u);
    for (usize b = a + 1; b < seeds.size(); ++b) {
      EXPECT_NE(seeds[a], seeds[b]);
    }
  }
  EXPECT_NE(benchmark_seed(43, 0), seeds[0]);  // keyed by parent seed
}

}  // namespace
}  // namespace nvmenc
