#pragma once
// A small blocking thread pool used by the pk "Threads" backend.
//
// The pool is created once (lazily) and reused; parallel_for dispatches
// contiguous index chunks to workers and waits for completion.  A pool of
// one worker runs every loop inline on the calling thread.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mali::pk {

class ThreadPool {
 public:
  /// Global pool sized to the hardware concurrency (at least 1 worker).
  static ThreadPool& instance();

  explicit ThreadPool(std::size_t n_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Runs fn(chunk_begin, chunk_end) across workers covering [begin, end);
  /// blocks until all chunks complete.  Exceptions from workers are rethrown.
  /// A range that makes a single chunk (one worker, or one index) runs on
  /// the calling thread.
  void parallel_range(std::size_t begin, std::size_t end,
                      const std::function<void(std::size_t, std::size_t)>& fn);

  /// Runs fn(task_id) for task_id in [0, n) with GUARANTEED concurrency:
  /// each task gets its own dedicated thread (not a pool worker), so task
  /// bodies may block on each other (barriers, message waits).  This is the
  /// entry point for the in-process MPI surrogate in src/dist/ — pool
  /// workers cannot host rank bodies because n ranks > n workers (or a rank
  /// nesting a parallel_range) would deadlock the shared queue.  Blocks
  /// until every task returns; the first exception is rethrown after all
  /// threads join.  Static (no pool state involved) but kept here so all
  /// thread-spawn policy lives in one place.
  static void parallel_tasks(std::size_t n,
                             const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  struct Task {
    std::function<void(std::size_t, std::size_t)> fn;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  std::vector<std::thread> workers_;
  std::vector<Task> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  std::size_t pending_ = 0;
  std::exception_ptr first_error_;
  bool stop_ = false;
};

}  // namespace mali::pk
