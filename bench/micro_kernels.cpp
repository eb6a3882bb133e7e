/// \file micro_kernels.cpp
/// \brief google-benchmark microbenchmarks of the kernels the factorization
/// and the solve spend their time in: dense block GEMM/TRSM/LU, the solves'
/// GEMV on cold panels, tree construction, and a SpMV bandwidth probe.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <span>

#include <unistd.h>

#include "bench/bench_util.hpp"
#include "comm/trees.hpp"
#include "factor/dense.hpp"
#include "sparse/generators.hpp"

namespace sptrsv {
namespace {

std::vector<Real> random_matrix(Idx m, Idx n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> uni(-1.0, 1.0);
  std::vector<Real> a(static_cast<size_t>(m) * n);
  for (auto& v : a) v = uni(rng);
  return a;
}

void BM_GemmPanelUpdate(benchmark::State& state) {
  // lsum(I) += L(I,K) * y(K): the L-solve's inner kernel. Arg0 = supernode
  // width, Arg1 = nrhs.
  const Idx w = static_cast<Idx>(state.range(0));
  const Idx nrhs = static_cast<Idx>(state.range(1));
  const Idx rows = 4 * w;  // typical panel height
  const auto panel = random_matrix(rows, w, 1);
  const auto y = random_matrix(w, nrhs, 2);
  std::vector<Real> lsum(static_cast<size_t>(rows) * nrhs, 0.0);
  for (auto _ : state) {
    gemm_plus_ld(rows, w, nrhs, panel, rows, y, w, lsum, rows);
    benchmark::DoNotOptimize(lsum.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * rows * w * nrhs);
}
BENCHMARK(BM_GemmPanelUpdate)
    ->Args({8, 1})
    ->Args({32, 1})
    ->Args({96, 1})
    ->Args({32, 50})
    ->Args({96, 50});

void BM_GemvColdPanels(benchmark::State& state) {
  // The same update as the solves pay it: nrhs = 1, with each L(I,K) block
  // streaming cold from a factor far larger than the caches. Iterations
  // cycle over panels filling twice the last-level cache (64 MiB if the
  // size is unknown), so no panel is still cached when its turn comes
  // again. Arg0 = supernode width; panel height 4 * width, ld = height.
  const Idx w = static_cast<Idx>(state.range(0));
  const Idx rows = 4 * w;
  const auto panel_words = static_cast<size_t>(rows) * static_cast<size_t>(w);
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const size_t working_set = llc > 0 ? 2 * static_cast<size_t>(llc) : size_t{64} << 20;
  const size_t npanels = std::max<size_t>(2, working_set / (panel_words * sizeof(Real)));
  std::vector<Real> panels(panel_words * npanels);
  for (size_t i = 0; i < panels.size(); ++i) panels[i] = 1.0 + 0.125 * (i % 7);
  const auto y = random_matrix(w, 1, 2);
  std::vector<Real> lsum(static_cast<size_t>(rows), 0.0);
  size_t next = 0;
  for (auto _ : state) {
    const std::span<const Real> panel(panels.data() + next * panel_words, panel_words);
    gemm_plus_ld(rows, w, 1, panel, rows, y, w, lsum, rows);
    benchmark::DoNotOptimize(lsum.data());
    benchmark::ClobberMemory();
    if (++next == npanels) next = 0;
  }
  state.SetItemsProcessed(state.iterations() * 2 * rows * w);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(panel_words * sizeof(Real)));
}
BENCHMARK(BM_GemvColdPanels)->Arg(8)->Arg(32)->Arg(96);

void BM_DiagApply(benchmark::State& state) {
  // y(K) = inv(L_KK) * rhs: the diagonal kernel.
  const Idx w = static_cast<Idx>(state.range(0));
  const auto inv = random_matrix(w, w, 3);
  const auto rhs = random_matrix(w, 1, 4);
  std::vector<Real> y(static_cast<size_t>(w), 0.0);
  for (auto _ : state) {
    std::fill(y.begin(), y.end(), 0.0);
    gemm_plus(w, w, 1, inv, rhs, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * w * w);
}
BENCHMARK(BM_DiagApply)->Arg(8)->Arg(32)->Arg(96);

void BM_DenseLuFactor(benchmark::State& state) {
  const Idx w = static_cast<Idx>(state.range(0));
  auto base = random_matrix(w, w, 5);
  for (Idx i = 0; i < w; ++i) base[static_cast<size_t>(i) * w + i] += w;
  for (auto _ : state) {
    auto a = base;
    benchmark::DoNotOptimize(lu_unpivoted_inplace(w, a));
  }
}
BENCHMARK(BM_DenseLuFactor)->Arg(8)->Arg(32)->Arg(96);

void BM_InvertTriangular(benchmark::State& state) {
  const Idx w = static_cast<Idx>(state.range(0));
  auto lu = random_matrix(w, w, 6);
  for (Idx i = 0; i < w; ++i) lu[static_cast<size_t>(i) * w + i] += w;
  lu_unpivoted_inplace(w, lu);
  std::vector<Real> out(static_cast<size_t>(w) * w);
  for (auto _ : state) {
    invert_unit_lower(w, lu, out);
    invert_upper(w, lu, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_InvertTriangular)->Arg(8)->Arg(32)->Arg(96);

void BM_TrsmRightUpper(benchmark::State& state) {
  const Idx w = static_cast<Idx>(state.range(0));
  const Idx rows = 4 * w;
  auto lu = random_matrix(w, w, 7);
  for (Idx i = 0; i < w; ++i) lu[static_cast<size_t>(i) * w + i] += w;
  lu_unpivoted_inplace(w, lu);
  const auto base = random_matrix(rows, w, 8);
  for (auto _ : state) {
    auto b = base;
    trsm_right_upper(rows, w, lu, b);
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_TrsmRightUpper)->Arg(8)->Arg(32)->Arg(96);

void BM_TrsmLeftUnitLower(benchmark::State& state) {
  // U(K,:) = inv(L_KK) * A(K,:): the factor's U-panel solve, 4w RHS columns.
  const Idx w = static_cast<Idx>(state.range(0));
  const Idx cols = 4 * w;
  auto lu = random_matrix(w, w, 9);
  for (Idx i = 0; i < w; ++i) lu[static_cast<size_t>(i) * w + i] += w;
  lu_unpivoted_inplace(w, lu);
  const auto base = random_matrix(w, cols, 10);
  for (auto _ : state) {
    auto b = base;
    trsm_left_unit_lower(w, cols, lu, b);
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TrsmLeftUnitLower)->Arg(8)->Arg(32)->Arg(96);

void BM_SchurUpdate(benchmark::State& state) {
  // (I,J) -= L(I,K) * U(K,J): the factor's Schur update of a w x w block at
  // row offset w of a 4w-row panel, with a third of U's columns all zero
  // (as in a padded U panel). Items count the full 2*w^3 flops.
  const Idx w = static_cast<Idx>(state.range(0));
  const Idx rows = 4 * w;
  const auto l = random_matrix(rows, w, 11);
  auto u = random_matrix(w, w, 12);
  for (Idx j = 2; j < w; j += 3) {
    std::fill_n(u.begin() + static_cast<std::ptrdiff_t>(j) * w, w, 0.0);
  }
  std::vector<Real> panel(static_cast<size_t>(rows) * w, 0.0);
  const auto off = static_cast<size_t>(w);  // block rows [w, 2w) of the panels
  const std::span<const Real> lik = std::span<const Real>(l).subspan(off);
  const std::span<Real> target = std::span<Real>(panel).subspan(off);
  for (auto _ : state) {
    gemm_minus_ld(w, w, w, lik, rows, u, w, target, rows);
    benchmark::DoNotOptimize(panel.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * w * w * w);
}
BENCHMARK(BM_SchurUpdate)->Arg(1)->Arg(16)->Arg(96);

void BM_BinaryTreeBuild(benchmark::State& state) {
  // Tree construction happens once per supernode during setup.
  const int n = static_cast<int>(state.range(0));
  std::vector<int> members(static_cast<size_t>(n));
  std::iota(members.begin(), members.end(), 0);
  for (auto _ : state) {
    auto t = CommTree::build(TreeKind::kBinary, members, 0);
    benchmark::DoNotOptimize(&t);
  }
}
BENCHMARK(BM_BinaryTreeBuild)->Arg(4)->Arg(32)->Arg(256);

void BM_SpmvReference(benchmark::State& state) {
  // Residual-check kernel; also a rough memory-bandwidth probe.
  const Idx side = static_cast<Idx>(state.range(0));
  const CsrMatrix a = make_grid2d(side, side, Stencil2d::kNinePoint);
  std::vector<Real> x(static_cast<size_t>(a.rows()), 1.0);
  std::vector<Real> y(static_cast<size_t>(a.rows()));
  for (auto _ : state) {
    a.matvec(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * 2);
}
BENCHMARK(BM_SpmvReference)->Arg(64)->Arg(192);

// Console output plus one sptrsv-bench/1 JSON per benchmark when
// SPTRSV_BENCH_JSON is set (bench_util.hpp).
class ReportingConsole : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      std::string stem = run.benchmark_name();
      for (char& c : stem) {
        if (c == '/' || c == ':') c = '_';
      }
      bench::bench_report(stem, {{"real_time_ns", run.GetAdjustedRealTime()},
                                 {"cpu_time_ns", run.GetAdjustedCPUTime()}});
    }
  }
};

}  // namespace
}  // namespace sptrsv

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  sptrsv::ReportingConsole reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
