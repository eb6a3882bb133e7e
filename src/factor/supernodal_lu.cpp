#include "factor/supernodal_lu.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <span>
#include <string>

#include "ordering/etree.hpp"
#include "symbolic/colcounts.hpp"

namespace sptrsv {

std::vector<Real> SupernodalLU::reconstruct_dense() const {
  const Idx N = n();
  std::vector<Real> l(static_cast<size_t>(N) * N, 0.0);
  std::vector<Real> u(static_cast<size_t>(N) * N, 0.0);
  const auto& part = sym.part;
  for (Idx k = 0; k < num_supernodes(); ++k) {
    const Idx w = part.width(k);
    const Idx base = part.first_col(k);
    const auto& d = diag[static_cast<size_t>(k)];
    for (Idx j = 0; j < w; ++j) {
      for (Idx i = 0; i < w; ++i) {
        const Real v = d[static_cast<size_t>(j) * w + i];
        if (i > j) {
          l[static_cast<size_t>(base + j) * N + (base + i)] = v;
        } else {
          u[static_cast<size_t>(base + j) * N + (base + i)] = v;
        }
      }
      l[static_cast<size_t>(base + j) * N + (base + j)] = 1.0;  // unit diagonal
    }
    const Idx r = sym.panel_rows[static_cast<size_t>(k)];
    const auto& lb = sym.below[static_cast<size_t>(k)];
    for (size_t bi = 0; bi < lb.size(); ++bi) {
      const Idx ib = part.first_col(lb[bi]);
      const Idx wi = part.width(lb[bi]);
      const Idx off = sym.below_offset[static_cast<size_t>(k)][bi];
      for (Idx j = 0; j < w; ++j) {
        for (Idx i = 0; i < wi; ++i) {
          l[static_cast<size_t>(base + j) * N + (ib + i)] =
              lpanel[static_cast<size_t>(k)][static_cast<size_t>(j) * r + off + i];
          u[static_cast<size_t>(ib + i) * N + (base + j)] =
              upanel[static_cast<size_t>(k)][(static_cast<size_t>(off) + i) * w + j];
        }
      }
    }
  }
  // Dense product L * U.
  std::vector<Real> prod(static_cast<size_t>(N) * N, 0.0);
  gemm_plus(N, N, N, l, u, prod);
  return prod;
}

double SupernodalLU::solve_flops(Idx nrhs) const {
  double fl = 0;
  for (Idx k = 0; k < num_supernodes(); ++k) {
    const double w = sym.part.width(k);
    const double r = sym.panel_rows[static_cast<size_t>(k)];
    // Both solves: diagonal inverse apply (w*w GEMM) + panel GEMM (r*w).
    fl += 2.0 * nrhs * (2.0 * w * w + 2.0 * w * r);
  }
  return fl;
}

namespace {

/// Allocates the factor storage for `sym` and scatters `a`'s values into
/// the diagonal blocks and L/U panels (no numeric work yet). Throws
/// std::invalid_argument naming the row and column of the first NaN or
/// infinite value of `a`.
SupernodalLU init_supernodal_storage(const CsrMatrix& a, SymbolicStructure sym) {
  const Idx nsup = sym.num_supernodes();
  const auto& part = sym.part;

  SupernodalLU f;
  f.diag.resize(static_cast<size_t>(nsup));
  f.diag_linv.resize(static_cast<size_t>(nsup));
  f.diag_uinv.resize(static_cast<size_t>(nsup));
  f.lpanel.resize(static_cast<size_t>(nsup));
  f.upanel.resize(static_cast<size_t>(nsup));
  for (Idx k = 0; k < nsup; ++k) {
    const size_t w = static_cast<size_t>(part.width(k));
    const size_t r = static_cast<size_t>(sym.panel_rows[static_cast<size_t>(k)]);
    f.diag[static_cast<size_t>(k)].assign(w * w, 0.0);
    f.lpanel[static_cast<size_t>(k)].assign(r * w, 0.0);
    f.upanel[static_cast<size_t>(k)].assign(w * r, 0.0);
  }

  // Scatter A's values into the block storage. Entry (i,j):
  //   sn(i) == sn(j): diagonal block of that supernode.
  //   sn(i) >  sn(j): L block (row block sn(i)) in column supernode sn(j).
  //   sn(i) <  sn(j): U block (column block sn(j)) in row supernode sn(i).
  for (Idx i = 0; i < a.rows(); ++i) {
    const Idx ki = part.col_to_sn[static_cast<size_t>(i)];
    const auto cs = a.row_cols(i);
    const auto vs = a.row_vals(i);
    for (size_t t = 0; t < cs.size(); ++t) {
      const Idx j = cs[t];
      const Real v = vs[t];
      if (!std::isfinite(v)) {
        throw std::invalid_argument("init_supernodal_storage: non-finite value at row " +
                                    std::to_string(i) + ", column " + std::to_string(j));
      }
      const Idx kj = part.col_to_sn[static_cast<size_t>(j)];
      if (ki == kj) {
        const Idx w = part.width(ki);
        f.diag[static_cast<size_t>(ki)][static_cast<size_t>(j - part.first_col(kj)) * w +
                                        (i - part.first_col(ki))] = v;
      } else if (ki > kj) {
        const Idx pos = sym.find_block(kj, ki);
        assert(pos != kNoIdx);
        const Idx r = sym.panel_rows[static_cast<size_t>(kj)];
        const Idx off = sym.below_offset[static_cast<size_t>(kj)][static_cast<size_t>(pos)];
        f.lpanel[static_cast<size_t>(kj)][static_cast<size_t>(j - part.first_col(kj)) * r +
                                          off + (i - part.first_col(ki))] = v;
      } else {
        const Idx pos = sym.find_block(ki, kj);
        assert(pos != kNoIdx);
        const Idx w = part.width(ki);
        const Idx off = sym.below_offset[static_cast<size_t>(ki)][static_cast<size_t>(pos)];
        f.upanel[static_cast<size_t>(ki)][(static_cast<size_t>(off) + (j - part.first_col(kj))) * w +
                                          (i - part.first_col(ki))] = v;
      }
    }
  }
  f.sym = std::move(sym);
  return f;
}

// Both constants were picked by timing analyze_and_factor on the repo
// benchmark's 256^2 9-point grid and its 3000-vertex dense-LU input (4-vCPU
// VM, GCC 12, medians of 4 rounds). Serial: 0.50 s and 1.55 s. At 1e5
// flops and 200 us: 0.31 s and 0.38 s. Raising the threshold to 1e6 read
// 0.38 s on the grid; 50 us and 1000 us spins read within noise of 200 us.

/// A step of factor_supernodal (or its pass of diagonal inverses) runs on
/// the pool once its flops reach this; lighter work runs on the calling
/// thread alone, where a fork-join costs more than it saves.
constexpr double kParallelFlops = 1e5;

/// How long an idle worker spins for the next run before it sleeps. A run
/// that opens while a worker sleeps wakes it, but starts without it.
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

/// The fork-join pool one factor_supernodal call owns. A parallel run
/// calls task(t) once for every t in [0, n), on the caller and on every
/// worker that joins while the run is open, and returns when all n calls
/// have returned. Tasks are claimed from one counter, so which thread runs
/// which task differs from run to run; the caller keeps the results
/// independent of that by giving each task of a run memory no other task
/// of it touches.
///
/// The workers, one per CPU of the caller's affinity mask beyond its own,
/// start at the first parallel run and are joined by the destructor, so none
/// outlives the call, whether it returns or throws. Between runs a worker
/// spins for kSpinBeforeSleep, then sleeps until the next run opens. A run
/// closes when the caller runs out of tasks; it then waits only for the
/// workers that joined it, never for one still waking up. Workers neither
/// allocate nor throw (a thread's first malloc creates a glibc arena),
/// which is why they are bare pthreads: std::thread frees its start state
/// on the new thread.
class StepPool {
 public:
  StepPool() : threads_(affinity_cpus()) {}
  StepPool(const StepPool&) = delete;
  StepPool& operator=(const StepPool&) = delete;

  ~StepPool() {
    {
      const std::lock_guard lock(mu_);
      stop_.store(true, std::memory_order_relaxed);
    }
    wake_.notify_all();
    for (const pthread_t& t : std::span(workers_.get(), started_)) pthread_join(t, nullptr);
  }

  /// Threads worth using on `flops` of work: every one the pool may run,
  /// the caller included, or the caller alone if the work is too light.
  int threads_for(double flops) const { return flops >= kParallelFlops ? threads_ : 1; }

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
  void run_erased(std::int64_t n, void (*call)(const void*, std::int64_t), const void* task) {
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
  }

  void start_workers() {
    workers_ = std::make_unique<pthread_t[]>(static_cast<size_t>(threads_ - 1));
    while (started_ < threads_ - 1 &&
           pthread_create(&workers_[started_], nullptr, &StepPool::worker_main, this) == 0) {
      ++started_;  // on failure, run with the workers that did start
    }
  }

  static void* worker_main(void* pool) {
    static_cast<StepPool*>(pool)->work();
    return nullptr;
  }

  void work() {
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

  void drain() {
    for (std::int64_t t = next_.fetch_add(1, std::memory_order_relaxed); t < ntasks_;
         t = next_.fetch_add(1, std::memory_order_relaxed)) {
      call_(task_, t);
    }
  }

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
  std::atomic<bool> stop_{false};  ///< set under mu_
  std::condition_variable wake_;
  std::unique_ptr<pthread_t[]> workers_;
  int started_ = 0;
};

/// (I, J) -= L(I,K) * U(K,J) for I = below[K][bi] and J = below[K][bj]:
/// the Schur update step K makes to diag[I] (I == J), to rows I of L panel
/// J (I > J) or to columns J of U panel I (I < J). No two pairs (bi, bj)
/// of a step write the same element.
void schur_update(SupernodalLU& f, Idx k, size_t bi, size_t bj) {
  const SymbolicStructure& sym = f.sym;
  const Idx w = sym.part.width(k);
  const Idx r = sym.panel_rows[static_cast<size_t>(k)];
  const auto& blist = sym.below[static_cast<size_t>(k)];
  const auto& boff = sym.below_offset[static_cast<size_t>(k)];
  const Idx I = blist[bi];
  const Idx J = blist[bj];
  const Idx wi = sym.part.width(I);
  const Idx wj = sym.part.width(J);
  const std::span<const Real> lik(
      f.lpanel[static_cast<size_t>(k)].data() + boff[bi],
      static_cast<size_t>(r) * w - boff[bi]);  // wi x w, ld r
  const std::span<const Real> ukj(
      f.upanel[static_cast<size_t>(k)].data() + static_cast<size_t>(boff[bj]) * w,
      static_cast<size_t>(w) * wj);  // w x wj, ld w
  if (I == J) {
    gemm_minus_ld(wi, w, wj, lik, r, ukj, w, f.diag[static_cast<size_t>(I)], wi);
  } else if (I > J) {
    const Idx pos = sym.find_block(J, I);
    assert(pos != kNoIdx);
    const Idx rj = sym.panel_rows[static_cast<size_t>(J)];
    const Idx off = sym.below_offset[static_cast<size_t>(J)][static_cast<size_t>(pos)];
    gemm_minus_ld(wi, w, wj, lik, r, ukj, w,
                  std::span<Real>(f.lpanel[static_cast<size_t>(J)]).subspan(off), rj);
  } else {  // I < J: U panel of I
    const Idx pos = sym.find_block(I, J);
    assert(pos != kNoIdx);
    const Idx off = sym.below_offset[static_cast<size_t>(I)][static_cast<size_t>(pos)];
    gemm_minus_ld(wi, w, wj, lik, r, ukj, w,
                  std::span<Real>(f.upanel[static_cast<size_t>(I)])
                      .subspan(static_cast<size_t>(off) * wi),
                  wi);
  }
}

}  // namespace

SupernodalLU factor_supernodal(const CsrMatrix& a, SymbolicStructure sym0) {
  SupernodalLU f = init_supernodal_storage(a, std::move(sym0));
  const SymbolicStructure& sym = f.sym;
  const auto& part = sym.part;
  const Idx nsup = sym.num_supernodes();

  // Storage for the inverted diagonal blocks, allocated here, before any
  // worker starts: workers never allocate, and the pool's own allocations
  // land after every factor array.
  double inverse_flops = 0;
  for (Idx k = 0; k < nsup; ++k) {
    const size_t w = static_cast<size_t>(part.width(k));
    f.diag_linv[static_cast<size_t>(k)].assign(w * w, 0.0);
    f.diag_uinv[static_cast<size_t>(k)].assign(w * w, 0.0);
    inverse_flops += 2.0 / 3.0 * static_cast<double>(w * w * w);
  }

  StepPool pool;

  // Right-looking factorization over the block structure. Steps run in
  // order; within step K the diagonal LU runs here, then the panel TRSMs in
  // row chunks of L and column chunks of U, then the Schur updates one
  // (I, J) pair per task. Every element keeps its update order, so the bits
  // do not depend on the number of threads.
  for (Idx k = 0; k < nsup; ++k) {
    const Idx w = part.width(k);
    auto& d = f.diag[static_cast<size_t>(k)];
    if (!lu_unpivoted_inplace(w, d)) {
      throw std::runtime_error(
          "factor_supernodal: zero or non-finite pivot in supernode " +
          std::to_string(k));
    }
    const Idx r = sym.panel_rows[static_cast<size_t>(k)];
    if (r == 0) continue;
    const int threads = pool.threads_for(2.0 * r * w * (w + r));
    const Idx lrows = ((r + threads - 1) / threads + 7) & ~Idx{7};  // whole 8-row tiles
    const Idx ucols = (r + threads - 1) / threads;
    const int lchunks = static_cast<int>((r + lrows - 1) / lrows);
    const int uchunks = static_cast<int>((r + ucols - 1) / ucols);
    const std::span<Real> lp(f.lpanel[static_cast<size_t>(k)]);
    const std::span<Real> up(f.upanel[static_cast<size_t>(k)]);
    pool.run(threads, lchunks + uchunks, [&](std::int64_t t) {
      if (t < lchunks) {
        const Idx i0 = static_cast<Idx>(t) * lrows;
        trsm_right_upper_ld(std::min(lrows, r - i0), w, d, lp.subspan(i0), r);
      } else {
        const Idx j0 = static_cast<Idx>(t - lchunks) * ucols;
        trsm_left_unit_lower(w, std::min(ucols, r - j0), d,
                             up.subspan(static_cast<size_t>(j0) * w));
      }
    });
    const auto nb = static_cast<std::int64_t>(sym.below[static_cast<size_t>(k)].size());
    pool.run(threads, nb * nb, [&](std::int64_t t) {
      schur_update(f, k, static_cast<size_t>(t / nb), static_cast<size_t>(t % nb));
    });
  }

  // Inverted diagonal blocks: diag[K] is final once step K's LU is done.
  pool.run(pool.threads_for(inverse_flops), 2 * std::int64_t{nsup}, [&](std::int64_t t) {
    const size_t k = static_cast<size_t>(t / 2);
    const Idx w = part.width(static_cast<Idx>(k));
    if (t % 2 == 0) {
      invert_unit_lower(w, f.diag[k], f.diag_linv[k]);
    } else {
      invert_upper(w, f.diag[k], f.diag_uinv[k]);
    }
  });
  return f;
}

FactoredSystem analyze_and_factor(const CsrMatrix& a, const AnalyzeOptions& opt) {
  const bool symmetric = a.has_symmetric_pattern();
  const CsrMatrix symmetrized = symmetric ? CsrMatrix() : a.symmetrized_pattern();
  const CsrMatrix& sym_a = symmetric ? a : symmetrized;
  if (!sym_a.has_full_diagonal()) {
    throw std::invalid_argument("analyze_and_factor: matrix needs a full diagonal");
  }
  NdOrdering nd = nested_dissection(sym_a, opt.nd);
  const CsrMatrix pa = sym_a.permuted_symmetric(nd.perm);

  const std::vector<Idx> parent = elimination_tree(pa);
  const std::vector<Nnz> counts = cholesky_col_counts(pa, parent);

  SupernodeOptions sn_opt = opt.supernode;
  sn_opt.forced_breaks.clear();  // the layout requires exactly these breaks
  for (Idx id = 0; id < nd.tree.num_nodes(); ++id) {
    sn_opt.forced_breaks.push_back(nd.tree.node(id).col_begin);
    sn_opt.forced_breaks.push_back(nd.tree.node(id).col_end);
  }
  SupernodePartition part = find_supernodes(parent, counts, sn_opt);
  SymbolicStructure sym = block_symbolic(pa, std::move(part));

  FactoredSystem out{factor_supernodal(pa, std::move(sym)), std::move(nd.perm),
                     std::move(nd.tree)};
  return out;
}

FactoredSystem analyze_and_factor(const CsrMatrix& a, int nd_levels,
                                  Idx max_supernode_width) {
  AnalyzeOptions opt;
  opt.nd.levels = nd_levels;
  opt.supernode.max_width = max_supernode_width;
  return analyze_and_factor(a, opt);
}

}  // namespace sptrsv
