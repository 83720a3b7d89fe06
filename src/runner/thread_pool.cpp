#include "runner/thread_pool.hpp"

#include <stdexcept>

namespace nvmenc {

usize ThreadPool::default_thread_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<usize>(hw);
}

ThreadPool::ThreadPool(usize threads) {
  if (threads == 0) threads = default_thread_count();
  workers_.reserve(threads);
  for (usize i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::enqueue(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (stopping_) {
      throw std::runtime_error("ThreadPool: submit after shutdown");
    }
    queue_.push_back(std::move(job));
  }
  work_available_.notify_one();
}

void ThreadPool::shutdown() {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (stopping_) return;
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();  // packaged_task: exceptions land in the caller's future
  }
}

}  // namespace nvmenc
