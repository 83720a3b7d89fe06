// Job-batch helpers on top of ThreadPool.
//
// `parallel_for(pool, n, body)` runs body(0) .. body(n-1) on the pool and
// blocks until every index has finished. All indices run even if one of
// them throws; the first exception (in index order) is then rethrown in
// the caller, so a failing cell cannot leave detached work behind.
//
// Do NOT call parallel_for from inside a pool task: the inner call would
// block a worker waiting for jobs that need that same worker, deadlocking
// a fixed-size pool. Structure nested parallelism as flat batches instead
// (the experiment runner fans the benchmark x scheme cells out as one
// batch for exactly this reason).
//
// Drivers whose batch may run on one worker hold `pool_for(workers)`:
// no pool then, and `parallel_for(pool.get(), n, body)` runs the indices
// inline on the caller, in order — one loop for every worker count.
#pragma once

#include <exception>
#include <memory>
#include <vector>

#include "runner/thread_pool.hpp"

namespace nvmenc {

template <typename F>
void parallel_for(ThreadPool& pool, usize count, F&& body) {
  std::vector<std::future<void>> pending;
  pending.reserve(count);
  for (usize i = 0; i < count; ++i) {
    pending.push_back(pool.submit([&body, i] { body(i); }));
  }
  std::exception_ptr first_error;
  for (std::future<void>& f : pending) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

/// A pool of `workers` threads, or none when one worker suffices.
[[nodiscard]] inline std::unique_ptr<ThreadPool> pool_for(usize workers) {
  return workers > 1 ? std::make_unique<ThreadPool>(workers) : nullptr;
}

/// parallel_for on `pool`, or inline in index order when `pool` is null.
template <typename F>
void parallel_for(ThreadPool* pool, usize count, F&& body) {
  if (pool == nullptr) {
    for (usize i = 0; i < count; ++i) body(i);
    return;
  }
  parallel_for(*pool, count, body);
}

}  // namespace nvmenc
