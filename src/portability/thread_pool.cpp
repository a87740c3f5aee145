#include "portability/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace mali::pk {

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool([] {
    // MALI_NUM_THREADS overrides the hardware concurrency — used by the
    // scatter bench and the sanitizer CI to exercise real parallelism even
    // on small containers (mirrors OMP_NUM_THREADS / KOKKOS_NUM_THREADS).
    if (const char* env = std::getenv("MALI_NUM_THREADS")) {
      const long n = std::strtol(env, nullptr, 10);
      if (n > 0) return static_cast<std::size_t>(n);
    }
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }());
  return pool;
}

ThreadPool::ThreadPool(std::size_t n_workers) {
  workers_.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_task_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.back());
      queue_.pop_back();
    }
    std::exception_ptr err;
    try {
      task.fn(task.begin, task.end);
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (err && !first_error_) first_error_ = err;
      if (--pending_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_tasks(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(n);
  std::mutex err_mu;
  std::exception_ptr first_error;
  for (std::size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      try {
        fn(t);
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& th : threads) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_range(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t n_chunks = std::min(n, std::max<std::size_t>(1, workers_.size()));
  if (n_chunks == 1) {
    // One chunk: run it here, with no queue, wake-up or wait.
    fn(begin, end);
    return;
  }
  const std::size_t chunk = (n + n_chunks - 1) / n_chunks;

  {
    std::lock_guard<std::mutex> lk(mu_);
    first_error_ = nullptr;
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const std::size_t b = begin + c * chunk;
      const std::size_t e = std::min(end, b + chunk);
      if (b >= e) break;
      queue_.push_back(Task{fn, b, e});
      ++pending_;
    }
  }
  cv_task_.notify_all();

  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [this] { return pending_ == 0; });
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace mali::pk
