/// \file micro_kernels.cpp
/// \brief google-benchmark microbenchmarks of the kernels the factorization
/// and the solve spend their time in: dense block GEMM/TRSM/LU, the solves'
/// GEMV on cold panels, the whole numeric LU on all host cores, the solve
/// plans' construction, and a SpMV bandwidth probe.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>
#include <span>

#include <unistd.h>

#include "bench/bench_util.hpp"
#include "dist/solve_plan.hpp"
#include "factor/dense.hpp"
#include "factor/supernodal_lu.hpp"
#include "ordering/nested_dissection.hpp"
#include "sparse/generators.hpp"
#include "sparse/graph.hpp"
#include "sparse/paper_matrices.hpp"

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

void BM_FactorSupernodal(benchmark::State& state) {
  // The numeric LU of a kSmall Table-1 stand-in, as analyze_and_factor runs
  // it (3 ND levels), on the pool of one thread per CPU of the affinity
  // mask. Real time is the wall clock and CPU time sums every thread of
  // the process, so their ratio is the number of cores kept busy. Arg0 =
  // PaperMatrix.
  const auto pm = static_cast<PaperMatrix>(state.range(0));
  const CsrMatrix a = make_paper_matrix(pm, MatrixScale::kSmall);
  const FactoredSystem fs = analyze_and_factor(a, 3);
  const CsrMatrix pa = (a.has_symmetric_pattern() ? a : a.symmetrized_pattern())
                           .permuted_symmetric(fs.perm);
  for (auto _ : state) {
    state.PauseTiming();
    SymbolicStructure sym = fs.lu.sym;
    state.ResumeTiming();
    const SupernodalLU lu = factor_supernodal(pa, std::move(sym));
    benchmark::DoNotOptimize(lu.diag.data());
  }
  state.SetLabel(paper_matrix_name(pm));
}
BENCHMARK(BM_FactorSupernodal)
    ->Arg(static_cast<int>(PaperMatrix::kGa19As19H42))
    ->Arg(static_cast<int>(PaperMatrix::kS2D9pt2048))
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_NestedDissection(benchmark::State& state) {
  // The ordering analyze_and_factor runs on a kSmall Table-1 stand-in (3
  // ND levels), whose top splits fork on the pool of one thread per CPU of
  // the affinity mask. Real and CPU time as in BM_FactorSupernodal. Arg0 =
  // PaperMatrix.
  const auto pm = static_cast<PaperMatrix>(state.range(0));
  const CsrMatrix a = make_paper_matrix(pm, MatrixScale::kSmall);
  const Graph g =
      Graph::from_matrix(a.has_symmetric_pattern() ? a : a.symmetrized_pattern());
  NdOptions opt;
  opt.levels = 3;
  for (auto _ : state) {
    const NdOrdering nd = nested_dissection(g, opt);
    benchmark::DoNotOptimize(nd.perm.data());
  }
  state.SetLabel(paper_matrix_name(pm));
}
BENCHMARK(BM_NestedDissection)
    ->Arg(static_cast<int>(PaperMatrix::kGa19As19H42))
    ->Arg(static_cast<int>(PaperMatrix::kS2D9pt2048))
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_PlanBuild(benchmark::State& state) {
  // The plans one 4x4x8 solve call of a kSmall s2D9pt2048 factor (3 ND
  // levels) builds before it starts: the proposed algorithm's grid plan of
  // every leaf, with its rank roles (Arg0 = 0) or without them as gpusim
  // builds it (1), or the baseline's node plan of every tree node (2).
  static const FactoredSystem fs = analyze_and_factor(
      make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kSmall), 3);
  const Grid2dShape shape{4, 4};
  const auto mode = state.range(0);
  for (auto _ : state) {
    if (mode == 2) {
      for (Idx node = 0; node < fs.tree.num_nodes(); ++node) {
        const Solve2dPlan p =
            make_node_plan(fs.lu, fs.tree, node, shape, TreeKind::kBinary);
        benchmark::DoNotOptimize(p.num_rows());
      }
    } else {
      for (Idx leaf = 0; leaf < fs.tree.num_leaves(); ++leaf) {
        const Solve2dPlan p =
            make_grid_plan(fs.lu, fs.tree, leaf, shape, TreeKind::kBinary, mode == 0);
        benchmark::DoNotOptimize(p.num_rows());
      }
    }
  }
  state.SetLabel(mode == 0 ? "grid" : mode == 1 ? "grid, no roles" : "node");
}
BENCHMARK(BM_PlanBuild)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

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
