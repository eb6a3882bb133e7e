/// \file analysis_critical_path.cpp
/// \brief Critical-path analysis of one traced 3D SpTRSV run
/// (docs/OBSERVABILITY.md).
///
/// Runs a single deterministic, traced solve and reports where the modeled
/// makespan goes: the critical-path partition into the paper's breakdown
/// categories plus explicit *wait* (message flight on the path — the
/// quantity the paper's synchronization-reduction optimizations attack),
/// the top-k longest message hops on the path, per-rank category spreads,
/// and the per-level receive-wait histograms of the annotated phases.
///
///   analysis_critical_path [--matrix NAME] [--scale tiny|small|medium]
///                          [--shape PXxPYxPZ] [--alg new|baseline]
///                          [--tree binary|flat] [--nrhs N]
///                          [--machine cori|perlmutter|crusher]
///                          [--topk K] [--json FILE]
///
/// Example:
///   analysis_critical_path --matrix s2D9pt2048 --shape 2x2x4 --alg baseline

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/sptrsv3d.hpp"
#include "factor/sptrsv_seq.hpp"
#include "sparse/paper_matrices.hpp"
#include "trace/trace.hpp"

using namespace sptrsv;
using namespace sptrsv::bench;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--matrix NAME] [--scale tiny|small|medium]\n"
               "          [--shape PXxPYxPZ] [--alg new|baseline] [--tree "
               "binary|flat]\n"
               "          [--machine cori|perlmutter|crusher] [--nrhs N]\n"
               "          [--topk K] [--json FILE]\n",
               argv0);
  std::exit(2);
}

const char* category_name(int c) {
  switch (static_cast<TimeCategory>(c)) {
    case TimeCategory::kFp: return "FP";
    case TimeCategory::kXyComm: return "XY-Comm";
    case TimeCategory::kZComm: return "Z-Comm";
    default: return "other";
  }
}

void print_spread_row(Table& t, const char* name, const Spread& s) {
  t.add_row({name, fmt_time(s.min), fmt_time(s.mean), fmt_time(s.p50),
             fmt_time(s.p99), fmt_time(s.max), fmt_ratio(s.imbalance())});
}

void print_wait_histogram(const Trace& trace, const char* label,
                          const char* key_name) {
  const auto hist = trace.wait_by_span(label);
  if (hist.empty()) return;
  std::printf("\n## receive wait inside \"%s\" spans (summed over ranks)\n", label);
  Table t({key_name, "wait"});
  for (const auto& [arg, wait] : hist) {
    t.add_row({std::to_string(arg), fmt_time(wait)});
  }
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  std::string matrix = "s2D9pt2048";
  MatrixScale scale = MatrixScale::kSmall;
  Grid3dShape shape{2, 2, 4};
  Algorithm3d alg = Algorithm3d::kProposed;
  TreeKind tree = TreeKind::kBinary;
  std::string machine_name = "cori";
  Idx nrhs = 1;
  int topk = 10;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "--matrix") {
      matrix = next();
    } else if (a == "--scale") {
      const std::string s = next();
      scale = s == "tiny" ? MatrixScale::kTiny
              : s == "medium" ? MatrixScale::kMedium
                              : MatrixScale::kSmall;
    } else if (a == "--shape") {
      const std::string s = next();
      if (std::sscanf(s.c_str(), "%dx%dx%d", &shape.px, &shape.py, &shape.pz) != 3) {
        usage(argv[0]);
      }
    } else if (a == "--alg") {
      alg = next() == "baseline" ? Algorithm3d::kBaseline : Algorithm3d::kProposed;
    } else if (a == "--tree") {
      tree = next() == "flat" ? TreeKind::kFlat : TreeKind::kBinary;
    } else if (a == "--machine") {
      machine_name = next();
    } else if (a == "--nrhs") {
      nrhs = static_cast<Idx>(std::atoi(next().c_str()));
    } else if (a == "--topk") {
      topk = std::atoi(next().c_str());
    } else if (a == "--json") {
      json_path = next();
    } else {
      usage(argv[0]);
    }
  }

  const MachineModel machine = machine_name == "perlmutter" ? MachineModel::perlmutter()
                               : machine_name == "crusher"  ? MachineModel::crusher()
                                                            : MachineModel::cori_haswell();

  PaperMatrix which = PaperMatrix::kS2D9pt2048;
  bool found = false;
  for (const PaperMatrix m : all_paper_matrices()) {
    if (paper_matrix_name(m) == matrix) {
      which = m;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown paper matrix '%s'\n", matrix.c_str());
    return 2;
  }

  int levels = 0;
  while ((1 << levels) < shape.pz) ++levels;
  const CsrMatrix a = make_paper_matrix(which, scale);
  const FactoredSystem fs = analyze_and_factor(a, levels);

  SolveConfig cfg;
  cfg.shape = shape;
  cfg.algorithm = alg;
  cfg.tree = tree;
  cfg.nrhs = nrhs;
  cfg.run.trace = true;
  cfg.run.metrics = bench_json_enabled();
  const auto b = bench_rhs(fs.lu.n(), nrhs);
  const DistSolveOutcome out = solve_system_3d(fs, b, cfg, machine);
  const Trace& trace = *out.run_stats.trace;

  std::printf("# critical-path analysis — %s, %dx%dx%d, %s algorithm, %s\n",
              matrix.c_str(), shape.px, shape.py, shape.pz,
              alg == Algorithm3d::kProposed ? "proposed" : "baseline",
              machine.name.c_str());
  std::printf("# events: %zu (%zu sends, %zu recvs, %zu matched)\n",
              trace.num_events(), trace.num_sends(), trace.num_recvs(),
              trace.num_matched_recvs());

  const Trace::CriticalPath cp = trace.critical_path();
  const double makespan = cp.breakdown.makespan;
  std::printf("\n## makespan attribution along the critical path\n");
  std::printf("modeled makespan: %s (sink rank %d, %zu events on path, %zu hops)\n",
              fmt_time(makespan).c_str(), cp.sink_rank, cp.num_events,
              cp.edges.size());
  {
    Table t({"segment", "time", "share"});
    char pct[32];
    for (int c = 0; c < kNumTimeCategories; ++c) {
      std::snprintf(pct, sizeof(pct), "%5.1f%%",
                    100.0 * cp.breakdown.category[c] / makespan);
      t.add_row({category_name(c), fmt_time(cp.breakdown.category[c]), pct});
    }
    std::snprintf(pct, sizeof(pct), "%5.1f%%", 100.0 * cp.breakdown.wait / makespan);
    t.add_row({"wait (flight)", fmt_time(cp.breakdown.wait), pct});
    t.print();
  }
  const double err = std::abs(cp.breakdown.total() - makespan) /
                     std::max(makespan, 1e-300);
  std::printf("partition check: |sum - makespan| / makespan = %.2e\n", err);

  if (bench_json_enabled()) {
    std::map<std::string, double> values;
    if (out.run_stats.metrics != nullptr) {
      values = metric_totals(*out.run_stats.metrics);
    }
    values["makespan"] = makespan;
    values["cp_wait"] = cp.breakdown.wait;
    for (int c = 0; c < kNumTimeCategories; ++c) {
      values[std::string("cp_") + category_name(c)] = cp.breakdown.category[c];
    }
    bench_report(matrix + "_" + std::to_string(shape.px) + "x" +
                     std::to_string(shape.py) + "x" + std::to_string(shape.pz),
                 values);
  }

  std::printf("\n## top-%d longest message hops on the critical path\n", topk);
  {
    std::vector<Trace::PathEdge> hops = cp.edges;
    std::stable_sort(hops.begin(), hops.end(),
                     [](const Trace::PathEdge& x, const Trace::PathEdge& y) {
                       return x.flight > y.flight;
                     });
    if (hops.size() > static_cast<size_t>(std::max(topk, 0))) {
      hops.resize(static_cast<size_t>(std::max(topk, 0)));
    }
    Table t({"src", "dst", "tag", "bytes", "sent at", "flight"});
    for (const auto& h : hops) {
      t.add_row({std::to_string(h.src_rank), std::to_string(h.dst_rank),
                 std::to_string(h.recv->tag), std::to_string(h.recv->bytes),
                 fmt_time(h.send->t0), fmt_time(h.flight)});
    }
    t.print();
  }

  std::printf("\n## per-rank category time spread\n");
  {
    Table t({"category", "min", "mean", "p50", "p99", "max", "imb"});
    for (int c = 0; c < kNumTimeCategories; ++c) {
      print_spread_row(t, category_name(c),
                       out.run_stats.category_spread(static_cast<TimeCategory>(c)));
    }
    print_spread_row(t, "total vtime", out.run_stats.vtime_spread());
    t.print();
  }

  if (alg == Algorithm3d::kBaseline) {
    print_wait_histogram(trace, "l_level", "level");
    print_wait_histogram(trace, "u_level", "level");
  } else {
    print_wait_histogram(trace, "zreduce", "exchange level");
    print_wait_histogram(trace, "zbcast", "exchange level");
  }

  if (!json_path.empty()) {
    if (!trace.write_chrome_json_file(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote Perfetto trace to %s\n", json_path.c_str());
  }
  return 0;
}
