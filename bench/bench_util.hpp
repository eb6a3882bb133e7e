#pragma once
/// \file bench_util.hpp
/// \brief Shared helpers for the figure/table reproduction benches.
///
/// Every bench regenerates one table or figure of the paper: it sweeps the
/// paper's parameters, runs the modeled solve, and prints the same series
/// the paper plots (see DESIGN.md §4 and EXPERIMENTS.md). Benches default
/// to a reduced sweep that finishes in seconds-to-minutes on one machine;
/// set SPTRSV_BENCH_FULL=1 for the paper's full parameter grid.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/sptrsv3d.hpp"
#include "factor/sptrsv_seq.hpp"
#include "gpusim/gpu_sptrsv.hpp"
#include "sparse/paper_matrices.hpp"
#include "trace/trace.hpp"

namespace sptrsv::bench {

inline bool full_sweep() {
  const char* v = std::getenv("SPTRSV_BENCH_FULL");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Matrix scale used by benches (paper matrices are far larger; the scaled
/// instances keep the regime, see DESIGN.md §3). SPTRSV_BENCH_SMALL=1
/// switches to the small instances for quick smoke runs.
inline MatrixScale bench_scale() {
  const char* v = std::getenv("SPTRSV_BENCH_SMALL");
  const bool small = v != nullptr && v[0] != '\0' && v[0] != '0';
  return small ? MatrixScale::kSmall : MatrixScale::kMedium;
}

/// SPTRSV_BENCH_TRACE=<dir> dumps one Perfetto trace JSON per sweep point
/// into <dir> (docs/OBSERVABILITY.md). Empty string: tracing off.
inline std::string bench_trace_dir() {
  const char* v = std::getenv("SPTRSV_BENCH_TRACE");
  return (v != nullptr) ? std::string(v) : std::string();
}

/// SPTRSV_BENCH_JSON=<dir> writes one machine-readable report per sweep
/// point into <dir> as NNN_<stem>.json (schema "sptrsv-bench/1"): the
/// bench's headline numbers plus, for modeled solves, the metric-registry
/// totals. bench_compare diffs two such directories. Empty string: off.
inline std::string bench_json_dir() {
  const char* v = std::getenv("SPTRSV_BENCH_JSON");
  return (v != nullptr) ? std::string(v) : std::string();
}

inline bool bench_json_enabled() { return !bench_json_dir().empty(); }

/// Run options of every bench solve. The scheduler makes two runs of a
/// bench print byte-identical tables (docs/DETERMINISM.md).
inline RunOptions bench_run_options() {
  RunOptions opts;
  opts.trace = !bench_trace_dir().empty();
  // Metrics ride along with JSON reporting; they live outside the clean
  // ledger, so the printed tables are bitwise unchanged.
  opts.metrics = bench_json_enabled();
  return opts;
}

/// Prints the banner benches lead with.
inline void print_mode_banner() {
  const std::string tdir = bench_trace_dir();
  if (!tdir.empty()) {
    std::printf("# tracing: one Perfetto JSON per sweep point under %s/\n",
                tdir.c_str());
  }
  if (bench_json_enabled()) {
    std::printf("# reports: one sptrsv-bench/1 JSON per sweep point under %s/\n",
                bench_json_dir().c_str());
  }
}

/// Writes `trace` as Perfetto JSON into the SPTRSV_BENCH_TRACE directory as
/// NNN_<stem>.json (NNN = per-process sweep-point counter). No-op when the
/// env var is unset or `trace` is null.
inline void maybe_dump_trace(const Trace* trace, const std::string& stem) {
  const std::string dir = bench_trace_dir();
  if (dir.empty() || trace == nullptr) return;
  static int counter = 0;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  char prefix[16];
  std::snprintf(prefix, sizeof(prefix), "%03d_", counter++);
  const std::string path = dir + "/" + prefix + stem + ".json";
  if (!trace->write_chrome_json_file(path)) {
    std::fprintf(stderr, "warning: failed to write trace %s\n", path.c_str());
  }
}

/// Writes one sweep-point report into the SPTRSV_BENCH_JSON directory as
/// NNN_<stem>.json. `values` are the point's headline numbers, flat and
/// name-sorted; all are compared lower-is-better by bench_compare, so emit
/// times/counts, not speedup ratios. Deterministic byte-for-byte for equal
/// inputs (%.17g doubles, sorted keys). No-op when the env var is unset.
inline void bench_report(const std::string& stem,
                         const std::map<std::string, double>& values) {
  const std::string dir = bench_json_dir();
  if (dir.empty()) return;
  static int counter = 0;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  char prefix[16];
  std::snprintf(prefix, sizeof(prefix), "%03d_", counter++);
  const std::string path = dir + "/" + prefix + stem + ".json";
  std::string doc = "{\"schema\":\"sptrsv-bench/1\",\"point\":\"" + stem +
                    "\",\"values\":{";
  bool first = true;
  for (const auto& [k, v] : values) {
    char num[40];
    std::snprintf(num, sizeof(num), "%.17g", v);
    doc += (first ? "" : ",");
    doc += "\"" + k + "\":" + num;
    first = false;
  }
  doc += "}}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr ||
      std::fwrite(doc.data(), 1, doc.size(), f) != doc.size() ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "warning: failed to write report %s\n", path.c_str());
    if (f != nullptr) std::fclose(f);
  }
}

/// Flattens a MetricsReport into per-name totals (sum over ranks), prefixed
/// "metric." so bench headline numbers and registry counters don't collide.
inline std::map<std::string, double> metric_totals(const MetricsReport& rep) {
  std::map<std::string, double> out;
  for (const auto& rank : rep.ranks) {
    for (const auto& [name, v] : rank.values) out["metric." + name] += v;
  }
  return out;
}

/// Adds per-rank metric rows (`metric.<name>.rank<N>`) next to the totals:
/// bench_compare's generic key loop then diffs each rank's series under
/// --tol, so a regression confined to one rank can't hide inside an
/// unchanged sum (e.g. a load-balance shift that leaves total messages
/// equal but doubles one rank's wait time).
inline void add_metric_rank_rows(const MetricsReport& rep,
                                 std::map<std::string, double>* out) {
  for (std::size_t r = 0; r < rep.ranks.size(); ++r) {
    const std::string suffix = ".rank" + std::to_string(r);
    for (const auto& [name, v] : rep.ranks[r].values) {
      (*out)["metric." + name + suffix] += v;
    }
  }
}

/// Sweep-point report for the GPU discrete-event model: phase timings plus
/// the per-GPU metric totals when GpuSolveConfig::metrics was on.
inline void bench_report_gpu(const std::string& stem, const GpuSolveTimes& t) {
  if (!bench_json_enabled()) return;
  std::map<std::string, double> values;
  if (t.metrics != nullptr) {
    values = metric_totals(*t.metrics);
    add_metric_rank_rows(*t.metrics, &values);
  }
  values["total"] = t.total;
  values["l_solve"] = t.l_solve;
  values["u_solve"] = t.u_solve;
  values["z_comm"] = t.z_comm;
  bench_report(stem, values);
}

/// Factorizes a paper matrix once and caches it across sweep points.
class SystemCache {
 public:
  const FactoredSystem& get(PaperMatrix which, int nd_levels, MatrixScale scale) {
    const std::string key =
        paper_matrix_name(which) + "/" + std::to_string(nd_levels) + "/" +
        std::to_string(static_cast<int>(scale));
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      const CsrMatrix a = make_paper_matrix(which, scale);
      it = cache_
               .emplace(key, std::make_unique<FactoredSystem>(
                                 analyze_and_factor(a, nd_levels)))
               .first;
    }
    return *it->second;
  }

 private:
  std::map<std::string, std::unique_ptr<FactoredSystem>> cache_;
};

/// Deterministic RHS for benches.
inline std::vector<Real> bench_rhs(Idx n, Idx nrhs) {
  std::vector<Real> b(static_cast<size_t>(n) * nrhs);
  for (size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 + 0.001 * static_cast<Real>(i % 977);
  }
  return b;
}

/// Runs the CPU 3D solve on the runtime (one fiber per rank) and returns
/// the outcome. Its trace and report are named `stem`; an empty stem
/// names them by algorithm and shape (`new_2x2x4`, `base_2x2x4`).
inline DistSolveOutcome run_cpu(const FactoredSystem& fs, const Grid3dShape& shape,
                                Algorithm3d alg, const MachineModel& machine,
                                Idx nrhs = 1, TreeKind tree = TreeKind::kBinary,
                                bool sparse_zreduce = true, std::string stem = {}) {
  SolveConfig cfg;
  cfg.shape = shape;
  cfg.algorithm = alg;
  cfg.tree = tree;
  cfg.nrhs = nrhs;
  cfg.sparse_zreduce = sparse_zreduce;
  cfg.run = bench_run_options();
  const auto b = bench_rhs(fs.lu.n(), nrhs);
  DistSolveOutcome out = solve_system_3d(fs, b, cfg, machine);
  if (stem.empty()) {
    stem = std::string(alg == Algorithm3d::kProposed ? "new" : "base") + "_" +
           std::to_string(shape.px) + "x" + std::to_string(shape.py) + "x" +
           std::to_string(shape.pz);
  }
  maybe_dump_trace(out.run_stats.trace.get(), stem);
  if (bench_json_enabled() && out.run_stats.metrics != nullptr) {
    std::map<std::string, double> values = metric_totals(*out.run_stats.metrics);
    add_metric_rank_rows(*out.run_stats.metrics, &values);
    values["makespan"] = out.makespan;
    values["fault_makespan"] = out.run_stats.fault_makespan();
    bench_report(stem, values);
  }
  return out;
}

/// Picks (px, py) as square as possible with px*py = p2d (paper Fig 4:
/// "the 2D grid (Px, Py) is set as square as possible").
inline std::pair<int, int> square_grid(int p2d) {
  int px = 1;
  for (int d = 1; d * d <= p2d; ++d) {
    if (p2d % d == 0) px = d;
  }
  return {px, p2d / px};
}

/// Simple aligned table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}
  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }
  void print() const {
    std::vector<size_t> w(header_.size(), 0);
    auto widen = [&](const std::vector<std::string>& r) {
      for (size_t i = 0; i < r.size() && i < w.size(); ++i) {
        w[i] = std::max(w[i], r[i].size());
      }
    };
    widen(header_);
    for (const auto& r : rows_) widen(r);
    auto print_row = [&](const std::vector<std::string>& r) {
      for (size_t i = 0; i < r.size(); ++i) {
        std::printf("%s%-*s", i ? "  " : "", static_cast<int>(w[i]), r[i].c_str());
      }
      std::printf("\n");
    };
    print_row(header_);
    for (const auto& r : rows_) print_row(r);
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt_time(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3e", seconds);
  return buf;
}

inline std::string fmt_ratio(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", r);
  return buf;
}

}  // namespace sptrsv::bench
