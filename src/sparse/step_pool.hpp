#pragma once
/// \file step_pool.hpp
/// \brief The fork-join pool of the set-up stages: nested dissection runs
/// the halves of its top splits on it, and the numeric LU its elimination
/// subtrees and the heavy work of its top steps (docs/DETERMINISM.md,
/// Set-up threads).

#include <pthread.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>

namespace sptrsv {

/// The fork-join pool one set-up call owns. A parallel run calls task(t)
/// once for every t in [0, n), on the caller and on every worker that joins
/// while the run is open, and returns when all n calls have returned. Tasks
/// are claimed from one counter, so which thread runs which task differs
/// from run to run; callers keep their results independent of that by
/// giving each task of a run memory no other task of it touches. If tasks
/// throw, the run still finishes and then rethrows the first exception on
/// the caller.
///
/// The workers, one per CPU of the constructing thread's affinity mask
/// beyond its own, start at the first parallel run and are joined by the
/// destructor, so none outlives the call, whether it returns or throws.
/// Between runs a worker spins for 200 us, then sleeps until the next run
/// opens. A run closes when the caller runs out of tasks; it then waits only
/// for the workers that joined it, never for one still waking up.
///
/// Workers are bare pthreads: std::thread frees its start state on the new
/// thread, and a thread's first malloc gives it a glibc malloc arena of its
/// own. So a pool whose tasks never allocate (the numeric LU's) creates no
/// arena, while one whose tasks do (nested dissection's) creates one per
/// worker, which glibc keeps for the next thread that allocates.
class StepPool {
 public:
  StepPool();
  StepPool(const StepPool&) = delete;
  StepPool& operator=(const StepPool&) = delete;
  ~StepPool();

  /// Threads a run may use, the caller included: one per CPU in the
  /// constructing thread's affinity mask (1 if it cannot be read).
  int threads() const { return threads_; }

  /// Calls task(t) for every t in [0, n): on the pool, or in ascending t on
  /// the caller if `threads` is 1.
  template <class Task>
  void run(int threads, std::int64_t n, const Task& task) {
    if (threads == 1) {
      for (std::int64_t t = 0; t < n; ++t) task(t);
      return;
    }
    run_erased(n, [](const void* f, std::int64_t t) { (*static_cast<const Task*>(f))(t); },
               &task);
  }

 private:
  void run_erased(std::int64_t n, void (*call)(const void*, std::int64_t), const void* task);
  void start_workers();
  static void* worker_main(void* pool);
  void work();
  void drain();

  const int threads_;
  // The current run, written by the caller before it opens the run.
  std::int64_t ntasks_ = 0;
  void (*call_)(const void*, std::int64_t) = nullptr;
  const void* task_ = nullptr;
  alignas(64) std::atomic<std::int64_t> next_{0};
  alignas(64) std::atomic<std::uint64_t> epoch_{0};  ///< odd while a run is open
  alignas(64) std::atomic<int> joined_{0};           ///< workers inside the open run
  std::atomic<int> sleepers_{0};
  std::mutex mu_;
  std::uint64_t wakes_ = 0;  ///< guarded by mu_; bumped to wake the sleepers
  std::exception_ptr error_;  ///< guarded by mu_; the run's first exception
  std::atomic<bool> stop_{false};  ///< set under mu_
  std::condition_variable wake_;
  std::unique_ptr<pthread_t[]> workers_;
  int started_ = 0;
};

}  // namespace sptrsv
