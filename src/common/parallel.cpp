#include "common/parallel.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <thread>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace sgl::parallel {

namespace {

using common::Mutex;
using common::MutexLock;

thread_local bool tls_in_worker = false;

/// Lazily grown worker pool behind detail::run_on_pool. Workers idle on a
/// condition variable between parallel regions; the pool lives for the
/// process lifetime and joins everything on static destruction. All
/// shared state is SGL_GUARDED_BY(mutex_) and checked by the clang
/// `-Wthread-safety` CI legs (DESIGN.md §7).
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  void run(Index slots, const std::function<void(Index)>& job)
      SGL_EXCLUDES(mutex_) {
    // Per-region completion state. `remaining`/`error` are shared with
    // the workers executing this region's tasks, so they get their own
    // capability; `mutex` is always acquired after the pool's `mutex_`
    // is released (never nested inside it).
    struct Sync {
      Mutex mutex;
      std::condition_variable_any done;
      Index remaining SGL_GUARDED_BY(mutex) = 0;
      std::exception_ptr error SGL_GUARDED_BY(mutex);
    };

    if (slots <= 1 || tls_in_worker) {
      for (Index s = 0; s < slots; ++s) job(s);
      return;
    }

    ensure_workers(slots - 1);
    Sync sync;
    {
      // Locked for the analysis' benefit only: the workers that will
      // observe `remaining` are enqueued below, after this write.
      const MutexLock lock(sync.mutex);
      sync.remaining = slots - 1;
    }
    const auto record_error = [&sync] {
      const MutexLock lock(sync.mutex);
      if (!sync.error) sync.error = std::current_exception();
    };

    {
      const MutexLock lock(mutex_);
      for (Index s = 1; s < slots; ++s) {
        queue_.push_back({&sync, [&sync, &job, &record_error, s] {
          try {
            job(s);
          } catch (...) {
            record_error();
          }
          // Notify under the lock: once the caller observes remaining == 0
          // it may destroy `sync`, so the worker must not touch it after
          // releasing the mutex.
          const MutexLock lock(sync.mutex);
          --sync.remaining;
          sync.done.notify_one();
        }});
      }
    }
    wake_.notify_all();

    try {
      job(0);
    } catch (...) {
      record_error();
    }

    // Take back this region's tasks that no worker has started and run
    // them here, so the region never waits on a worker that may itself be
    // blocked — e.g. every worker waiting for something this very caller
    // is computing. parallel_for_slots' chunks are drained by now, so the
    // taken-back slots return at once; chunking and slot ids are
    // unchanged, so results are too.
    for (;;) {
      std::function<void()> task;
      {
        const MutexLock lock(mutex_);
        const auto it =
            std::find_if(queue_.begin(), queue_.end(),
                         [&sync](const Task& t) { return t.region == &sync; });
        if (it == queue_.end()) break;
        task = std::move(it->run);
        queue_.erase(it);
      }
      task();
    }

    const MutexLock lock(sync.mutex);
    while (sync.remaining != 0) sync.done.wait(sync.mutex);
    if (sync.error) std::rethrow_exception(sync.error);
  }

  ~ThreadPool() SGL_EXCLUDES(mutex_) {
    // Swap the worker handles out under the lock, then join without it:
    // joining while holding mutex_ would deadlock against workers that
    // need it to observe stop_.
    std::vector<std::thread> workers;
    {
      const MutexLock lock(mutex_);
      stop_ = true;
      workers.swap(workers_);
    }
    wake_.notify_all();
    for (std::thread& t : workers) t.join();
  }

 private:
  ThreadPool() = default;

  void ensure_workers(Index count) SGL_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    const auto target =
        std::min<std::size_t>(static_cast<std::size_t>(count), kMaxThreads - 1);
    while (workers_.size() < target)
      workers_.emplace_back([this] { worker_loop(); });
  }

  void worker_loop() SGL_EXCLUDES(mutex_) {
    tls_in_worker = true;
    for (;;) {
      std::function<void()> task;
      {
        const MutexLock lock(mutex_);
        while (!stop_ && queue_.empty()) wake_.wait(mutex_);
        if (queue_.empty()) return;  // stop_ and drained
        task = std::move(queue_.front().run);
        queue_.pop_front();
      }
      task();
    }
  }

  /// One queued slot task, tagged with its region so the region's
  /// caller can take it back.
  struct Task {
    const void* region = nullptr;
    std::function<void()> run;
  };

  Mutex mutex_;
  std::condition_variable_any wake_;
  std::deque<Task> queue_ SGL_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_ SGL_GUARDED_BY(mutex_);
  bool stop_ SGL_GUARDED_BY(mutex_) = false;
};

}  // namespace

Index default_num_threads() {
  static const Index cached = [] {
    if (const char* env = std::getenv("SGL_NUM_THREADS")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && v >= 1)
        return static_cast<Index>(std::min<long>(v, kMaxThreads));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) return Index{1};
    return std::min(static_cast<Index>(hw), kMaxThreads);
  }();
  return cached;
}

Index resolve_num_threads(Index requested) {
  if (requested <= 0) return default_num_threads();
  return std::min(requested, kMaxThreads);
}

namespace detail {

void run_on_pool(Index slots, const std::function<void(Index)>& job) {
  ThreadPool::instance().run(slots, job);
}

}  // namespace detail

}  // namespace sgl::parallel
