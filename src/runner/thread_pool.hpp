// Fixed-size worker pool for the embarrassingly parallel parts of the
// evaluation (trace collection, per-cell scheme replay, sweep points).
//
// Tasks are submitted as callables and their results returned through
// std::future, so an exception thrown inside a worker surfaces in the
// caller at `get()` instead of terminating the process. The pool never
// grows: the scheme x benchmark matrix is CPU-bound, so one thread per
// hardware context is the right amount of concurrency and anything more
// only thrashes the LLC the simulation itself is modelling.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace nvmenc {

class ThreadPool {
 public:
  /// `threads == 0` means one worker per hardware context.
  explicit ThreadPool(usize threads = 0);

  /// Joins the workers; pending tasks are finished first (shutdown()).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedules `fn` and returns a future for its result. If `fn` throws,
  /// the exception is captured and rethrown from `future::get()`.
  /// Throws std::runtime_error if the pool has been shut down.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
  }

  /// Graceful stop: every task already in the queue still runs, then the
  /// workers join. Idempotent: calling it again (or destroying the pool
  /// after it) is a no-op. Stopping early is not the pool's job: a
  /// matrix stops through ExperimentConfig::cancel, which the runner polls
  /// before each cell and each cell polls once per write-back.
  void shutdown();

  [[nodiscard]] usize size() const noexcept { return workers_.size(); }

  /// The worker count a default-constructed pool would use.
  [[nodiscard]] static usize default_thread_count() noexcept;

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace nvmenc
