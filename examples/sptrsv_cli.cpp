/// \file sptrsv_cli.cpp
/// \brief Full command-line driver: pick a matrix, layout, algorithm and
/// machine; solve; report residual, timings and message statistics.
///
///   sptrsv_cli [--matrix NAME|file.mtx] [--scale tiny|small|medium]
///              [--shape PXxPYxPZ] [--alg new|baseline] [--tree binary|flat]
///              [--machine cori|perlmutter|crusher] [--nrhs N]
///              [--backend cpu|gpu] [--refine] [--csv] [--trace FILE]
///              [--metrics FILE] [--crash R@T] [--mtbf SECONDS]
///              [--sdc RATE] [--abft] [--sdc-repair] [--spares N] [--degrade]
///
/// The fault flags (--crash through --degrade) and --refine need the CPU
/// backend: the GPU model runs fault-free and reports modeled time only.
/// --spares and --degrade act only on crashes, so they need --crash or
/// --mtbf. --backend gpu needs a machine with GPUs (--machine
/// perlmutter|crusher). --trace and --metrics record one solve, so --refine
/// refuses them.
///
/// Examples:
///   sptrsv_cli --matrix s2D9pt2048 --shape 4x4x8 --alg new
///   sptrsv_cli --matrix my.mtx --shape 1x1x4 --machine perlmutter --backend gpu
///   sptrsv_cli --matrix nlpkkt80 --scale medium --shape 2x2x16 --refine
///   sptrsv_cli --matrix s2D9pt2048 --shape 2x2x2 --crash 3@1e-4
///   sptrsv_cli --matrix s2D9pt2048 --shape 2x2x2 --sdc 2e3 --abft
///   sptrsv_cli --shape 2x2x2 --spares 0 --degrade --crash 3@1e-4
///
/// Exit codes: 0 success, 1 numeric/IO failure, 2 usage, 3 structured fault
/// (the FaultReport diagnostics — kind, rank, peer, tag, phase — go to
/// stderr on every path), 4 unrecoverable silent data corruption (the
/// end-of-solve residual gate tripped and no repair path converged).

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/refinement.hpp"
#include "core/sptrsv3d.hpp"
#include "trace/trace.hpp"
#include "factor/sptrsv_seq.hpp"
#include "gpusim/gpu_sptrsv.hpp"
#include "sparse/mmio.hpp"
#include "sparse/paper_matrices.hpp"

using namespace sptrsv;

namespace {

/// Prints `why` (when given) and the usage text, then exits 2.
[[noreturn]] void usage(const char* argv0, const std::string& why = {}) {
  if (!why.empty()) std::fprintf(stderr, "%s: %s\n", argv0, why.c_str());
  std::fprintf(stderr,
               "usage: %s [--matrix NAME|file.mtx] [--scale tiny|small|medium]\n"
               "          [--shape PXxPYxPZ] [--alg new|baseline] [--tree "
               "binary|flat]\n"
               "          [--machine cori|perlmutter|crusher] [--nrhs N]\n"
               "          [--backend cpu|gpu] [--refine] [--csv] [--trace FILE]\n"
               "          [--metrics FILE] [--crash R@T]... [--mtbf SECONDS]\n"
               "          [--sdc RATE] [--abft] [--sdc-repair] [--spares N]\n"
               "          [--degrade]\n"
               "\n"
               "  fault flags (--crash .. --degrade) and --refine need --backend cpu\n"
               "  --spares and --degrade need --crash or --mtbf\n"
               "  --backend gpu needs --machine perlmutter|crusher\n"
               "  --trace and --metrics are not supported with --refine\n"
               "\n"
               "  --metrics FILE  enable the runtime metrics registry and write the\n"
               "                  schema-versioned JSON report (sptrsv-metrics/2) to\n"
               "                  FILE; a one-line summary prints on normal exit\n"
               "  --sdc RATE      inject silent memory faults (bit flips in live\n"
               "                  solver state) as a Poisson process at RATE per\n"
               "                  virtual second per rank\n"
               "  --abft          verify epoch checksums and recompute corrupted\n"
               "                  words in place (docs/ROBUSTNESS.md, SDC section)\n"
               "  --sdc-repair    if the end-of-solve residual gate trips, degrade\n"
               "                  into iterative refinement instead of failing\n"
               "  --spares N      size of the spare-rank pool crashes draw from\n"
               "                  (default 2)\n"
               "  --degrade       when the spare pool runs dry (or a buddy pair\n"
               "                  dies), shrink the world and redistribute the\n"
               "                  dead rank's partition instead of failing\n"
               "                  (docs/ROBUSTNESS.md, graceful degradation)\n"
               "\n"
               "exit codes: 0 success, 1 numeric/IO failure, 2 usage,\n"
               "            3 structured fault (FaultReport on stderr),\n"
               "            4 unrecoverable silent data corruption\n",
               argv0);
  std::exit(2);
}

/// The value `names` maps `text` to; any other text is a usage error.
template <class T>
T parse_choice(const char* argv0, const std::string& flag, const std::string& text,
               std::initializer_list<std::pair<const char*, T>> names) {
  for (const auto& [name, value] : names) {
    if (text == name) return value;
  }
  usage(argv0, flag + ": unknown value '" + text + "'");
}

/// Parses all of `text` as one number; false on trailing text or a value
/// outside T's range.
template <class T>
bool parse_whole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Writes `text` to `path`; false on any IO failure.
bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t n = std::fwrite(text.data(), 1, text.size(), f);
  return std::fclose(f) == 0 && n == text.size();
}

/// One-line metrics digest: total messages/bytes over the four categories,
/// transport retransmits and the slowest rank's accumulated receive wait.
void print_metrics_summary(const MetricsReport& rep) {
  const char* cats[] = {"fp", "xy", "z", "other"};
  double msgs = 0, bytes = 0;
  for (const char* c : cats) {
    msgs += rep.total(std::string("cluster.messages.") + c);
    bytes += rep.total(std::string("cluster.bytes.") + c);
  }
  std::printf("  metrics: messages=%.0f bytes=%.0f retransmits=%.0f "
              "max_wait=%.3e s\n",
              msgs, bytes, rep.total("transport.retransmits"),
              rep.hist_sum_max("cluster.wait_time"));
}

CsrMatrix load_matrix(const std::string& name, MatrixScale scale) {
  if (name.size() > 4 && name.substr(name.size() - 4) == ".mtx") {
    CsrMatrix a = read_matrix_market_file(name);
    return a.has_symmetric_pattern() ? a : a.symmetrized_pattern();
  }
  for (const PaperMatrix m : all_paper_matrices()) {
    if (paper_matrix_name(m) == name) return make_paper_matrix(m, scale);
  }
  std::fprintf(stderr, "unknown matrix '%s' (not a .mtx path or a paper name)\n",
               name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string matrix = "s2D9pt2048";
  MatrixScale scale = MatrixScale::kSmall;
  Grid3dShape shape{2, 2, 4};
  Algorithm3d alg = Algorithm3d::kProposed;
  TreeKind tree = TreeKind::kBinary;
  MachineModel (*make_machine)() = &MachineModel::cori_haswell;
  Idx nrhs = 1;
  bool gpu = false, refine = false, csv = false;
  std::string trace_path;
  std::string metrics_path;
  std::vector<PerturbationModel::Crash> crashes;
  double mtbf = 0.0;
  double sdc_rate = 0.0;
  bool abft = false, sdc_repair = false;
  bool degrade = false;
  int spares = -1;
  // Flags the fault-free GPU model cannot honour; `runtime_only` keeps the
  // first one given.
  constexpr const char* kRuntimeOnlyFlags[] = {
      "--crash", "--mtbf", "--sdc", "--abft", "--sdc-repair", "--spares", "--degrade",
      "--refine"};
  std::string runtime_only;
  // Flags that act only on crashes; `needs_crash` keeps the first one given.
  constexpr const char* kCrashOnlyFlags[] = {"--spares", "--degrade"};
  std::string needs_crash;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], a + ": missing value");
      return argv[++i];
    };
    // Reads the whole value as a number no smaller than `min`.
    auto number = [&](auto min) {
      const std::string s = next();
      decltype(min) value{};
      if (!parse_whole(s, value) || !(value >= min)) {
        usage(argv[0], a + ": invalid value '" + s + "'");
      }
      return value;
    };
    // Reads the whole value as one number per `out`, joined by `sep`
    // ("2x2x4", "3@1e-4"); a missing or extra field, trailing text or an
    // out-of-range number is a usage error.
    auto fields = [&](char sep, auto&... out) {
      const std::string s = next();
      std::vector<std::string_view> parts;
      std::size_t begin = 0;
      for (std::size_t end; (end = s.find(sep, begin)) != std::string::npos; begin = end + 1) {
        parts.emplace_back(s.data() + begin, end - begin);
      }
      parts.emplace_back(s.data() + begin, s.size() - begin);
      std::size_t k = 0;
      if (parts.size() != sizeof...(out) || !(parse_whole(parts[k++], out) && ...)) {
        usage(argv[0], a + ": invalid value '" + s + "'");
      }
    };
    const auto first_of = [&a](std::string& first, const auto& flags) {
      if (first.empty() &&
          std::find(std::begin(flags), std::end(flags), a) != std::end(flags)) {
        first = a;
      }
    };
    first_of(runtime_only, kRuntimeOnlyFlags);
    first_of(needs_crash, kCrashOnlyFlags);
    if (a == "--matrix") {
      matrix = next();
    } else if (a == "--scale") {
      scale = parse_choice<MatrixScale>(argv[0], a, next(),
                                        {{"tiny", MatrixScale::kTiny},
                                         {"small", MatrixScale::kSmall},
                                         {"medium", MatrixScale::kMedium}});
    } else if (a == "--shape") {
      fields('x', shape.px, shape.py, shape.pz);
    } else if (a == "--alg") {
      alg = parse_choice<Algorithm3d>(
          argv[0], a, next(),
          {{"new", Algorithm3d::kProposed}, {"baseline", Algorithm3d::kBaseline}});
    } else if (a == "--tree") {
      tree = parse_choice<TreeKind>(
          argv[0], a, next(), {{"binary", TreeKind::kBinary}, {"flat", TreeKind::kFlat}});
    } else if (a == "--machine") {
      make_machine = parse_choice<MachineModel (*)()>(
          argv[0], a, next(),
          {{"cori", &MachineModel::cori_haswell},
           {"perlmutter", &MachineModel::perlmutter},
           {"crusher", &MachineModel::crusher}});
    } else if (a == "--nrhs") {
      nrhs = number(Idx{1});
    } else if (a == "--backend") {
      gpu = parse_choice<bool>(argv[0], a, next(), {{"cpu", false}, {"gpu", true}});
    } else if (a == "--refine") {
      refine = true;
    } else if (a == "--csv") {
      csv = true;
    } else if (a == "--trace") {
      trace_path = next();
    } else if (a == "--metrics") {
      metrics_path = next();
    } else if (a == "--crash") {
      PerturbationModel::Crash c;
      fields('@', c.rank, c.vt);
      crashes.push_back(c);
    } else if (a == "--mtbf") {
      mtbf = number(0.0);
    } else if (a == "--sdc") {
      sdc_rate = number(0.0);
    } else if (a == "--abft") {
      abft = true;
    } else if (a == "--sdc-repair") {
      sdc_repair = true;
    } else if (a == "--spares") {
      spares = number(0);
    } else if (a == "--degrade") {
      degrade = true;
    } else {
      usage(argv[0], a + ": unknown flag");
    }
  }
  if (gpu && !runtime_only.empty()) {
    usage(argv[0], runtime_only + ": not supported with --backend gpu");
  }
  if (refine && !trace_path.empty()) {
    usage(argv[0], "--trace: not supported with --refine");
  }
  if (refine && !metrics_path.empty()) {
    usage(argv[0], "--metrics: not supported with --refine");
  }
  // The fault plan drops an entry naming no rank of the grid, or with a
  // time that is not a finite value >= 0, and the run would go fault-free.
  // Checked after parsing because --shape may follow the fault flags.
  const auto check_event = [&](const char* flag, int rank, double vt) {
    char why[128];
    if (rank < 0 || rank >= shape.size()) {
      std::snprintf(why, sizeof why, "%s: rank %d is not a rank of the %dx%dx%d grid",
                    flag, rank, shape.px, shape.py, shape.pz);
    } else if (!std::isfinite(vt) || vt < 0.0) {
      std::snprintf(why, sizeof why, "%s: time %g is not a finite value >= 0", flag, vt);
    } else {
      return;
    }
    usage(argv[0], why);
  };
  for (const auto& c : crashes) check_event("--crash", c.rank, c.vt);
  // The recovery model is consulted only when a rank crashes; without a
  // crash source these flags would change nothing.
  if (crashes.empty() && mtbf == 0.0 && !needs_crash.empty()) {
    usage(argv[0], needs_crash + ": has no effect without --crash or --mtbf");
  }

  MachineModel machine = make_machine();
  machine.perturb.crashes = crashes;
  machine.perturb.crash_mtbf = mtbf;
  machine.perturb.sdc_rate = sdc_rate;
  if (spares >= 0) machine.recovery.spare_ranks = spares;

  try {
  const CsrMatrix a = load_matrix(matrix, scale);
  int levels = 0;
  while ((1 << levels) < shape.pz) ++levels;
  if (!csv) {
    std::printf("matrix %s: n=%d nnz=%lld; factoring with %d tracked ND levels...\n",
                matrix.c_str(), a.rows(), static_cast<long long>(a.nnz()), levels);
  }
  const FactoredSystem fs = analyze_and_factor(a, levels);

  std::vector<Real> b(static_cast<size_t>(a.rows()) * nrhs);
  for (size_t i = 0; i < b.size(); ++i) b[i] = 1.0 + 1e-3 * static_cast<Real>(i % 131);

  if (gpu) {
    GpuSolveConfig cfg;
    cfg.shape = shape;
    cfg.nrhs = nrhs;
    cfg.trace = !trace_path.empty();
    cfg.metrics = !metrics_path.empty();
    const GpuSolveTimes t = simulate_solve_3d_gpu(fs.lu, fs.tree, cfg, machine);
    if (!trace_path.empty() && !t.trace->write_chrome_json_file(trace_path)) {
      std::fprintf(stderr, "failed to write trace %s\n", trace_path.c_str());
      return 1;
    }
    if (cfg.metrics && !write_text_file(metrics_path, t.metrics->to_json())) {
      std::fprintf(stderr, "failed to write metrics %s\n", metrics_path.c_str());
      return 1;
    }
    if (csv) {
      std::printf("%s,%dx%dx%d,gpu,%s,%d,%.6e,%.6e,%.6e,%.6e\n", matrix.c_str(),
                  shape.px, shape.py, shape.pz, machine.name.c_str(),
                  static_cast<int>(nrhs), t.total, t.l_solve, t.u_solve, t.z_comm);
    } else {
      std::printf("GPU model on %s: total %.3e s (L %.3e, U %.3e, Z %.3e)\n",
                  machine.name.c_str(), t.total, t.l_solve, t.u_solve, t.z_comm);
    }
    if (cfg.metrics) {
      std::printf("  metrics: puts=%.0f bytes=%.0f tasks=%.0f\n",
                  t.metrics->total("gpu.puts"),
                  t.metrics->total("gpu.put_bytes.xy") +
                      t.metrics->total("gpu.put_bytes.z"),
                  t.metrics->total("gpu.tasks"));
    }
    return 0;
  }

  SolveConfig cfg;
  cfg.shape = shape;
  cfg.algorithm = alg;
  cfg.tree = tree;
  cfg.nrhs = nrhs;
  cfg.run.trace = !trace_path.empty();
  cfg.run.metrics = !metrics_path.empty();
  cfg.run.abft = abft;
  cfg.run.sdc_repair = sdc_repair;
  cfg.run.degrade = degrade;

  if (refine) {
    const RefinementResult r = iterative_refinement(a, fs, b, cfg, machine);
    if (csv) {
      std::printf("%s,%dx%dx%d,refine,%s,%d,%.6e,%d,%.3e\n", matrix.c_str(), shape.px,
                  shape.py, shape.pz, machine.name.c_str(), static_cast<int>(nrhs),
                  r.modeled_solve_time, static_cast<int>(r.iterations()),
                  r.residual_history.back());
    } else {
      std::printf("refined in %d iterations to residual %.2e; modeled solve time "
                  "%.3e s\n",
                  static_cast<int>(r.iterations()), r.residual_history.back(),
                  r.modeled_solve_time);
    }
    return r.converged ? 0 : 1;
  }

  // With SDC injection or ABFT engaged, run the residual-verified wrapper:
  // it prices the end-of-solve check on the fault ledger and either throws
  // kSilentCorruption (exit 4) or repairs via refinement (--sdc-repair).
  const bool sdc_engaged = abft || sdc_repair || machine.perturb.sdc_active();
  DistSolveOutcome out;
  Real resid = 0;
  bool repaired = false;
  Idx repair_iters = 0;
  if (sdc_engaged) {
    VerifiedSolveOutcome v = solve_system_3d_verified(a, fs, b, cfg, machine);
    resid = v.residual;
    repaired = v.repaired;
    repair_iters = v.repair_iterations;
    out = std::move(v.solve);
  } else {
    out = solve_system_3d(fs, b, cfg, machine);
    resid = relative_residual(a, out.x, b, nrhs);
  }
  if (cfg.run.trace &&
      !out.run_stats.trace->write_chrome_json_file(trace_path)) {
    std::fprintf(stderr, "failed to write trace %s\n", trace_path.c_str());
    return 1;
  }
  if (cfg.run.metrics &&
      !write_text_file(metrics_path, out.run_stats.metrics->to_json())) {
    std::fprintf(stderr, "failed to write metrics %s\n", metrics_path.c_str());
    return 1;
  }
  if (csv) {
    std::printf("%s,%dx%dx%d,%s,%s,%d,%.6e,%.3e\n", matrix.c_str(), shape.px, shape.py,
                shape.pz, alg == Algorithm3d::kProposed ? "new" : "baseline",
                machine.name.c_str(), static_cast<int>(nrhs), out.makespan, resid);
  } else {
    std::printf("%s algorithm on %s (%s trees): modeled %.3e s, residual %.2e\n",
                alg == Algorithm3d::kProposed ? "proposed" : "baseline",
                machine.name.c_str(), tree == TreeKind::kBinary ? "binary" : "flat",
                out.makespan, resid);
    std::printf("  breakdown (mean/rank): FP %.3e, XY %.3e, Z %.3e\n",
                out.mean(&RankPhaseTimes::l_fp) + out.mean(&RankPhaseTimes::u_fp),
                out.mean(&RankPhaseTimes::l_xy) + out.mean(&RankPhaseTimes::u_xy),
                out.mean(&RankPhaseTimes::l_z) + out.mean(&RankPhaseTimes::z_time) +
                    out.mean(&RankPhaseTimes::u_z));
  }
  if (cfg.run.metrics) print_metrics_summary(*out.run_stats.metrics);
  if (sdc_engaged) {
    const SdcStats s = out.run_stats.sdc_stats();
    std::printf("  sdc: injected=%lld detected=%lld corrected=%lld "
                "refine_iters=%lld%s\n"
                "       by-target (injected/corrected): x=%lld/%lld "
                "l=%lld/%lld partial=%lld/%lld\n",
                static_cast<long long>(s.injected),
                static_cast<long long>(s.detected),
                static_cast<long long>(s.corrected),
                static_cast<long long>(repair_iters),
                repaired ? " (repaired by refinement)" : "",
                static_cast<long long>(s.injected_by[0]),
                static_cast<long long>(s.corrected_by[0]),
                static_cast<long long>(s.injected_by[1]),
                static_cast<long long>(s.corrected_by[1]),
                static_cast<long long>(s.injected_by[2]),
                static_cast<long long>(s.corrected_by[2]));
  }
  if (machine.perturb.crash_active()) {
    const RecoveryStats rec = out.run_stats.recovery_stats();
    std::printf(
        "  recovery: crashes=%lld spares=%lld checkpoints=%lld (%lld B) "
        "restores=%lld\n"
        "            detect %.3e s, repair %.3e s, restore %.3e s, replay "
        "%.3e s; fault makespan %.3e s (clean %.3e s)\n",
        static_cast<long long>(rec.crashes), static_cast<long long>(rec.spares_used),
        static_cast<long long>(rec.checkpoints),
        static_cast<long long>(rec.checkpoint_bytes),
        static_cast<long long>(rec.restores), rec.detect_time, rec.repair_time,
        rec.restore_time, rec.replay_time, out.run_stats.fault_makespan(),
        out.run_stats.makespan());
    if (rec.image_rejects > 0) {
      std::printf("            image_rejects=%lld (corrupt checkpoints "
                  "escalated to replay-from-start)\n",
                  static_cast<long long>(rec.image_rejects));
    }
    const DegradationStats deg = out.run_stats.degradation_stats();
    if (deg.any()) {
      std::printf(
          "  degrade: events=%lld ranks_lost=%lld adopted=%lld "
          "redistributed=%lld B\n"
          "           agree %.3e s, shrink %.3e s, redistribute %.3e s, "
          "replay %.3e s, overload %.3e s\n",
          static_cast<long long>(deg.degrades),
          static_cast<long long>(deg.ranks_lost),
          static_cast<long long>(deg.partitions_adopted),
          static_cast<long long>(deg.redistributed_bytes), deg.agree_time,
          deg.shrink_time, deg.redistribute_time, deg.replay_time,
          deg.overload_time);
      // Post-shrink load picture: which survivors carry how many partitions'
      // worth of work (x1.00 = their own share only).
      for (size_t r = 0; r < out.run_stats.ranks.size(); ++r) {
        const double m = out.run_stats.ranks[r].degradation.overload_mult;
        if (m > 1.0) {
          std::printf("           rank %zu overload x%.2f\n", r, m);
        }
      }
    }
  }
  // A refinement repair converges to the ABFT residual gate, not to working
  // accuracy — meeting the gate is the documented success criterion there.
  if (repaired) return resid <= kSdcResidualTol ? 0 : 1;
  return resid < 1e-9 ? 0 : 1;
  } catch (const FaultError& fe) {
    // Structured fault diagnostics — kind, rank, peer, tag, retries, vt and
    // the solver phase the report unwound through — on every path, with one
    // consistent exit code.
    std::fprintf(stderr, "%s\n", fe.report.to_string().c_str());
    return fe.report.kind == FaultKind::kSilentCorruption ? 4 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
