#pragma once
/// \file cpu_mask.hpp
/// \brief Runs test code on a thread limited to some of the test's CPUs.
/// The set-up stages size their pool from the calling thread's affinity
/// mask (src/sparse/step_pool.hpp), so this is how a test picks their
/// thread count.

#include <sched.h>

#include <exception>
#include <thread>

namespace sptrsv::test {

/// CPUs in the calling thread's affinity mask; 1 if it cannot be read.
inline int affinity_cpu_count() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return 1;
  return CPU_COUNT(&mask);
}

/// Runs f() on a new thread whose affinity mask holds the first `cpus`
/// CPUs of the calling thread's mask, joins it and rethrows what f threw.
/// Returns false, without running f, if that mask could not be set.
template <class F>
bool on_first_cpus(int cpus, const F& f) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return false;
  cpu_set_t some;
  CPU_ZERO(&some);
  for (int c = 0, taken = 0; c < CPU_SETSIZE && taken < cpus; ++c) {
    if (CPU_ISSET(c, &mask)) {
      CPU_SET(c, &some);
      ++taken;
    }
  }
  bool ran = false;
  std::exception_ptr error;
  std::thread t([&] {
    if (sched_setaffinity(0, sizeof some, &some) != 0) return;
    ran = true;
    try {
      f();
    } catch (...) {
      error = std::current_exception();
    }
  });
  t.join();
  if (error) std::rethrow_exception(error);
  return ran;
}

}  // namespace sptrsv::test
