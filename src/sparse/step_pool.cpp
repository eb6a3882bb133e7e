#include "sparse/step_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <span>
#include <utility>

namespace sptrsv {

namespace {

/// How long an idle worker spins for the next run before it sleeps. A run
/// that opens while a worker sleeps wakes it, but starts without it. Picked
/// with the numeric LU's kParallelFlops (supernodal_lu.cpp): 50 us and
/// 1000 us read within noise of 200 us.
constexpr std::chrono::microseconds kSpinBeforeSleep{200};

/// CPUs in the calling thread's affinity mask; 1 if it cannot be read.
int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

StepPool::StepPool() : threads_(affinity_cpus()) {}

StepPool::~StepPool() {
  {
    const std::lock_guard lock(mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  wake_.notify_all();
  for (const pthread_t& t : std::span(workers_.get(), started_)) pthread_join(t, nullptr);
}

void StepPool::run_erased(std::int64_t n, void (*call)(const void*, std::int64_t),
                          const void* task) {
  if (workers_ == nullptr) start_workers();
  ntasks_ = n;
  call_ = call;
  task_ = task;
  next_.store(0, std::memory_order_relaxed);
  const std::uint64_t open = epoch_.load(std::memory_order_relaxed) + 1;
  epoch_.store(open);  // odd: open
  if (sleepers_.load() > 0) {
    {
      const std::lock_guard lock(mu_);
      ++wakes_;
    }
    wake_.notify_all();
  }
  drain();
  epoch_.store(open + 1);  // even: closed, so no worker joins from here on
  for (unsigned spins = 1; joined_.load(std::memory_order_acquire) > 0; ++spins) {
    if (spins % 1024 == 0) {
      sched_yield();  // a worker that joined may have lost its CPU
    } else {
      cpu_relax();
    }
  }
  std::exception_ptr error;
  {
    const std::lock_guard lock(mu_);
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void StepPool::start_workers() {
  workers_ = std::make_unique<pthread_t[]>(static_cast<size_t>(threads_ - 1));
  while (started_ < threads_ - 1 &&
         pthread_create(&workers_[started_], nullptr, &StepPool::worker_main, this) == 0) {
    ++started_;  // on failure, run with the workers that did start
  }
}

void* StepPool::worker_main(void* pool) {
  static_cast<StepPool*>(pool)->work();
  return nullptr;
}

void StepPool::work() {
  using Clock = std::chrono::steady_clock;
  std::uint64_t seen = 0;
  auto sleep_at = Clock::now() + kSpinBeforeSleep;
  for (unsigned spins = 1; !stop_.load(std::memory_order_relaxed); ++spins) {
    const std::uint64_t e = epoch_.load(std::memory_order_acquire);
    if (e != seen && e % 2 == 1) {
      // Join the open run unless it closed in between: the caller closes
      // before it reads joined_, so either it sees this worker or this
      // worker sees the run closed.
      joined_.fetch_add(1);
      if (epoch_.load() == e) drain();
      joined_.fetch_sub(1, std::memory_order_release);
      seen = e;
      sleep_at = Clock::now() + kSpinBeforeSleep;
    } else if (spins % 64 != 0 || Clock::now() < sleep_at) {
      cpu_relax();
    } else {
      // The caller opens a run before it reads sleepers_, so either it
      // wakes this worker or this worker sees the run open and stays up.
      std::unique_lock lock(mu_);
      const std::uint64_t wakes = wakes_;
      sleepers_.fetch_add(1);
      if (epoch_.load() == e) {
        wake_.wait(lock, [&] { return stop_.load() || wakes_ != wakes; });
      }
      sleepers_.fetch_sub(1);
      sleep_at = Clock::now() + kSpinBeforeSleep;
    }
  }
}

void StepPool::drain() {
  for (std::int64_t t = next_.fetch_add(1, std::memory_order_relaxed); t < ntasks_;
       t = next_.fetch_add(1, std::memory_order_relaxed)) {
    try {
      call_(task_, t);
    } catch (...) {
      const std::lock_guard lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
  }
}

}  // namespace sptrsv
