/// \file sptrsv_bench.cpp
/// \brief The repository benchmark (benchmark/README.md).
///
///   sptrsv_bench --workload NAME --seed N [--seconds S] [--json DIR]
///                [--trace FILE]
///   sptrsv_bench --list
///
/// One thread runs one solve at a time, a closed loop with one client; the
/// only other threads are the runtime's rank threads, and every solve runs
/// in the deterministic scheduler, which runs one rank at a time, pinned to
/// one CPU. A run:
///  1. sets up three times (generate -> ND -> symbolic -> numeric LU) with
///     one FactoredSystem alive at a time, and keeps the median;
///  2. runs one untimed warm-up pass over the workload's configurations,
///     which records each one's reference solution, fingerprints and
///     modeled makespans;
///  3. repeats timed passes until --seconds have elapsed, checking every
///     solve against the warm-up;
///  4. with --trace, runs one extra traced pass: host-clock spans around
///     calls into each layer's public functions, the runtime's own trace
///     and metrics for the modeled per-layer numbers, and the runtime
///     isolation probes. The spans are written to FILE as Chrome-trace JSON.
/// It prints every metric the workload reports as `name value unit`
/// (timings add their sample count, min and max), then one JSON line with
/// the verdict and the end-to-end metrics or, with --trace, the per-layer
/// metrics that every workload reports.
///
/// SPTRSV_BENCH_SMALL=1 shrinks the inputs and runs one timed pass (the
/// smoke tests). The seed only changes the generated inputs.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sptrsv3d.hpp"
#include "dist/solve_plan.hpp"
#include "factor/sptrsv_seq.hpp"
#include "gpusim/gpu_sptrsv.hpp"
#include "ordering/etree.hpp"
#include "sparse/generators.hpp"
#include "symbolic/colcounts.hpp"
#include "trace/trace.hpp"

using namespace sptrsv;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User plus system CPU seconds of the whole process: every thread,
/// including rank threads that have already been joined.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Pins the calling thread, and so every rank thread it starts from now on,
/// to the CPU it runs on; on failure it stays unpinned. The deterministic
/// scheduler runs one rank at a time, so one CPU holds a whole solve.
/// Unpinned, each token hand-off is a cross-CPU wake-up whose latency
/// follows the load on the machine: over four back-to-back runs,
/// cpu-strong-2d's sweep_host_s ranged over 24% unpinned and 9% pinned
/// (README.md, "Why solves run pinned").
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double geomean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += std::log(x);
  return v.empty() ? 0.0 : std::exp(s / static_cast<double>(v.size()));
}

bool same_bits(std::span<const Real> a, std::span<const Real> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(Real)) == 0);
}

bool same_bits(const std::vector<std::vector<Real>>& a,
               const std::vector<std::vector<Real>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Workloads.

struct Config {
  std::string tag;
  Algorithm3d alg = Algorithm3d::kProposed;
  TreeKind tree = TreeKind::kBinary;
  Grid3dShape shape;
};

/// The proposed algorithm runs with binary trees, the baseline with flat
/// fan-out, as in the paper's Fig 4 comparison.
Config cpu_config(bool proposed, int px, int py, int pz) {
  Config c;
  c.alg = proposed ? Algorithm3d::kProposed : Algorithm3d::kBaseline;
  c.tree = proposed ? TreeKind::kBinary : TreeKind::kFlat;
  c.shape = {px, py, pz};
  c.tag = std::string(proposed ? "new-" : "base-") + std::to_string(px) + "x" +
          std::to_string(py) + "x" + std::to_string(pz);
  return c;
}

struct Workload {
  std::string name;
  bool dense = false;   ///< random geometric graph (dense-LU regime), else 2D grid
  bool gpu = false;     ///< gpusim only: no cluster threads
  bool faults = false;  ///< fault-injected solves checked against clean twins
  int nd_levels = 5;
  Idx nrhs = 1;
  std::vector<Config> configs;
};

/// Why each workload exists is recorded in README.md and BENCHMARK.json.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w(4);
    w[0].name = "cpu-strong-2d";
    w[0].configs = {cpu_config(true, 4, 4, 8), cpu_config(true, 8, 8, 32),
                    cpu_config(false, 4, 4, 8), cpu_config(false, 8, 8, 32)};
    w[1].name = "cpu-dense-lu";
    w[1].dense = true;
    w[1].nd_levels = 2;
    w[1].nrhs = 8;
    w[1].configs = {cpu_config(true, 2, 2, 1), cpu_config(true, 2, 2, 4),
                    cpu_config(false, 2, 2, 4)};
    w[2].name = "gpu-3d";
    w[2].gpu = true;
    for (const int px : {1, 2, 4}) {
      for (const int pz : {1, 2, 4, 8, 16, 32}) {
        Config c;
        c.shape = {px, 1, pz};
        c.tag = "gpu-" + std::to_string(px) + "x1x" + std::to_string(pz);
        w[2].configs.push_back(c);
      }
    }
    w[3].name = "cpu-faults";
    w[3].faults = true;
    w[3].configs = {cpu_config(true, 4, 4, 8), cpu_config(true, 8, 8, 8),
                    cpu_config(false, 4, 4, 8)};
    return w;
  }();
  return all;
}

// ---------------------------------------------------------------------------
// Metric catalogue. `--list` prints it; a run prints exactly the metrics its
// workload reports.

struct MetricDef {
  std::string name;
  std::string unit;
  bool end_to_end = false;
  double bound = 0.0;       ///< end-to-end: allowed relative worsening
  std::string moves = "-";  ///< per-layer: the end-to-end metric it moves
  /// The workloads that report it: those that exercise its layer.
  std::function<bool(const Workload&)> reported_by = [](const Workload&) { return true; };

  /// Reported by every workload: the metrics BENCHMARK.json lists.
  bool common() const {
    return std::all_of(workloads().begin(), workloads().end(), reported_by);
  }
};

const std::vector<MetricDef>& catalogue() {
  static const std::vector<MetricDef> defs = [] {
    const auto cluster = [](const Workload& w) { return !w.gpu; };
    const auto gpu = [](const Workload& w) { return w.gpu; };
    const auto faults = [](const Workload& w) { return w.faults; };
    std::vector<MetricDef> m = {
        // Each bound covers the metric's measured spread over ten seeds
        // (README.md, "Measured"): the host's speed for the host clock, the
        // seeded inputs for the modeled one. setup_s carries the largest.
        {"setup_s", "s", true, 0.25},
        {"sweep_host_s", "s", true, 0.25},
        {"sweep_cpu_s", "s", true, 0.25},
        {"model_makespan_s", "s", true, 0.03},
        {"fault_makespan_s", "s", true, 0.15},
        {"peak_rss_mb", "MB", true, 0.05},
        {"sparse.generate_s", "s", false, 0, "setup_s"},
        {"ordering.nd_s", "s", false, 0, "setup_s"},
        {"symbolic.analyze_s", "s", false, 0, "setup_s"},
        {"symbolic.supernodes", "count", false, 0, "model_makespan_s"},
        {"factor.numeric_s", "s", false, 0, "setup_s"},
        {"factor.lu_mb", "MB", false, 0, "peak_rss_mb"},
        {"factor.seq_solve_s", "s", false, 0, "sweep_host_s"},
        {"factor.solve_mflop", "Mflop", false, 0, "model_makespan_s"},
        {"dist.plan_s", "s", false, 0, "sweep_host_s"},
        {"comm.bytes.xy", "B", false, 0, "model_makespan_s"},
        {"comm.bytes.z", "B", false, 0, "model_makespan_s"},
        {"runtime.spawn_s.p128", "s", false, 0, "sweep_host_s"},
        {"runtime.spawn_s.p2048", "s", false, 0, "sweep_host_s"},
        {"runtime.ring_us_per_msg.p128", "us", false, 0, "sweep_host_s"},
        {"runtime.ring_us_per_msg.p2048", "us", false, 0, "sweep_host_s"},
        {"trace.slowdown", "ratio", false, 0, "-"},
        {"trace.events", "count", false, 0, "-"},
    };
    // Per-config layers, for every CPU config tag (`alg-PxxPyxPz`), reported
    // by the workloads that run that config.
    std::vector<std::string> tags;
    for (const Workload& w : workloads()) {
      for (const Config& c : w.configs) {
        if (!w.gpu && std::find(tags.begin(), tags.end(), c.tag) == tags.end()) {
          tags.push_back(c.tag);
        }
      }
    }
    for (const std::string& tag : tags) {
      const auto runs = [tag](const Workload& w) {
        return !w.gpu && std::any_of(w.configs.begin(), w.configs.end(),
                                     [&](const Config& c) { return c.tag == tag; });
      };
      m.push_back({"core.makespan_s." + tag, "s", false, 0, "model_makespan_s", runs});
      m.push_back({"core.solve_host_s." + tag, "s", false, 0, "sweep_host_s", runs});
    }
    m.insert(m.end(), {
        {"core.fp_s", "s", false, 0, "model_makespan_s", cluster},
        {"core.imbalance", "ratio", false, 0, "model_makespan_s", cluster},
        {"comm.xy_s", "s", false, 0, "model_makespan_s", cluster},
        {"comm.z_s", "s", false, 0, "model_makespan_s", cluster},
        {"comm.msgs.xy", "count", false, 0, "model_makespan_s", cluster},
        {"comm.msgs.z", "count", false, 0, "model_makespan_s", cluster},
        {"runtime.host_us_per_msg", "us", false, 0, "sweep_host_s", cluster},
        {"runtime.wait_s", "s", false, 0, "model_makespan_s", cluster},
        {"cp.fp_s", "s", false, 0, "model_makespan_s", cluster},
        {"cp.xy_s", "s", false, 0, "model_makespan_s", cluster},
        {"cp.z_s", "s", false, 0, "model_makespan_s", cluster},
        {"cp.wait_s", "s", false, 0, "model_makespan_s", cluster},
        {"cp.hops", "count", false, 0, "model_makespan_s", cluster},
        {"gpusim.l_s", "s", false, 0, "model_makespan_s", gpu},
        {"gpusim.z_s", "s", false, 0, "model_makespan_s", gpu},
        {"gpusim.u_s", "s", false, 0, "model_makespan_s", gpu},
        {"gpusim.puts", "count", false, 0, "model_makespan_s", gpu},
        {"fault.retransmits", "count", false, 0, "fault_makespan_s", faults},
        {"fault.crashes", "count", false, 0, "fault_makespan_s", faults},
        {"fault.checkpoint_mb", "MB", false, 0, "fault_makespan_s", faults},
        {"fault.recovery_s", "s", false, 0, "fault_makespan_s", faults},
        {"fault.abft_s", "s", false, 0, "fault_makespan_s", faults},
        {"fault.degrade_s", "s", false, 0, "fault_makespan_s", faults},
    });
    return m;
  }();
  return defs;
}

bool small_inputs() {
  const char* v = std::getenv("SPTRSV_BENCH_SMALL");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// `a` plus `count` symmetric long-range couplings between vertex pairs drawn
/// from `seed`, made diagonally dominant again as the generators leave it.
CsrMatrix with_long_range_couplings(const CsrMatrix& a, std::uint64_t seed, int count) {
  CooMatrix coo;
  coo.rows = coo.cols = a.rows();
  for (Idx r = 0; r < a.rows(); ++r) {
    const auto cols = a.row_cols(r);
    const auto vals = a.row_vals(r);
    for (size_t k = 0; k < cols.size(); ++k) coo.add(r, cols[k], vals[k]);
  }
  const auto n = static_cast<std::uint64_t>(a.rows());
  for (int i = 0; i < count; ++i) {
    seed = splitmix64(seed);
    const auto u = static_cast<Idx>(seed % n);
    seed = splitmix64(seed);
    const auto v = static_cast<Idx>(seed % n);
    if (u != v) coo.add_sym(u, v, -0.5);
  }
  CsrMatrix m = CsrMatrix::from_coo(coo);
  m.make_diagonally_dominant(/*factor=*/1.0, /*shift=*/1.0);
  return m;
}

/// Seed 0 is a 256 x 256 9-point grid (s2D9pt2048's stencil, between its
/// small and medium instances) or the Ga19As19H42 stand-in graph with the
/// Table-1 graph seed at n = 3000; the sizes keep all four workloads inside
/// the benchmark's time budget. Another seed changes the inputs but keeps
/// their regime, so the modeled makespan moves little between seeds:
///  - the grid's values are redrawn, and it widens by delta in [0, 8] while
///    shortening by as much: the separator structure changes, the unknown
///    count stays within 64 of seed 0's, and the grid is never taller than
///    wide (a taller grid flips the top separators and with them the regime);
///  - the graph gains four long-range couplings drawn from the seed, like
///    its own long-range edges. Redrawing the whole graph instead spread
///    model_makespan_s by 2.2% across seeds 0-9.
CsrMatrix make_input(const Workload& w, std::uint64_t seed, bool small) {
  if (w.dense) {
    const CsrMatrix g = make_random_geometric(small ? 400 : 3000, /*avg_degree=*/12.0,
                                              /*long_range=*/4.0, 1234);
    return seed == 0 ? g : with_long_range_couplings(g, seed, 4);
  }
  const Idx side = small ? 48 : 256;
  const Idx delta = seed == 0 ? 0 : static_cast<Idx>(splitmix64(seed) % 9);
  GridOptions opt;
  opt.seed = 42 + seed;
  return make_grid2d(side + delta, side - delta, Stencil2d::kNinePoint, opt);
}

std::vector<Real> make_rhs(Idx n, Idx nrhs) {
  std::vector<Real> b(static_cast<size_t>(n) * static_cast<size_t>(nrhs));
  for (size_t i = 0; i < b.size(); ++i) b[i] = 1.0 + 0.001 * static_cast<Real>(i % 977);
  return b;
}

/// Lossy network, Poisson crashes with no spares (so every crash shrinks the
/// world) and silent data corruption, corrected by ABFT.
MachineModel fault_machine() {
  MachineModel m = MachineModel::cori_haswell();
  m.perturb.drop_prob = 0.01;
  m.perturb.crash_mtbf = 2e-3;
  m.perturb.sdc_rate = 2e3;
  m.recovery.spare_ranks = 0;
  return m;
}

// ---------------------------------------------------------------------------
// Host-clock spans of the traced pass, kept in memory and written at exit.

class SpanLog {
 public:
  /// Opens a span and returns its id; `parent` -1 is a root, `solve` is the
  /// id shared by the spans of one solve (-1: none).
  int open(std::string name, int parent = -1, int solve = -1) {
    spans_.push_back({std::move(name), seconds_since(origin_), 0.0, parent, solve});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `id` and returns its duration in seconds.
  double close(int id) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.end = seconds_since(origin_);
    return s.end - s.start;
  }
  size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON: one complete ("X") event per span, nested by
  /// time on one track, with id/parent/solve in args.
  bool write_chrome_json(const std::string& path) const {
    std::string doc = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"solve\":%d}}",
                    i == 0 ? "" : ",", s.name.c_str(), 1e6 * s.start,
                    1e6 * (s.end - s.start), i, s.parent, s.solve);
      doc += buf;
    }
    doc += "\n]}\n";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool wrote = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    return std::fclose(f) == 0 && wrote;
  }

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int solve = -1;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// The run.

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string json_dir;
  std::string trace_path;
};

/// What the warm-up pass recorded for one configuration; every later solve
/// of it must reproduce these bits.
struct Reference {
  std::vector<Real> x;
  std::uint64_t fingerprint = 0;
  std::uint64_t fault_fingerprint = 0;
  double makespan = 0.0;        ///< clean modeled makespan (gpusim: total)
  double fault_makespan = 0.0;  ///< fault clock; equals makespan without faults
  std::int64_t messages = 0;    ///< runtime messages of one solve
};

std::int64_t total_messages(const Cluster::Result& r) {
  std::int64_t m = 0;
  for (const RankStats& rs : r.ranks) {
    for (const std::int64_t c : rs.messages) m += c;
  }
  return m;
}

class Bench {
 public:
  Bench(const Workload& w, const Options& opt)
      : w_(w), opt_(opt), small_(small_inputs()) {}

  int run() {
    setup();
    pin_to_current_cpu();  // set-up runs one thread and gains nothing from it
    warm_up();
    timed_passes();
    const bool traced = !opt_.trace_path.empty();
    if (traced) traced_pass();
    print(traced);
    return failed_ == 0 ? 0 : 1;
  }

 private:
  struct Metric {
    double value = 0.0;
    std::vector<double> samples;  ///< timings: the samples the median is of
  };

  /// Records one attempted operation; an empty `why` means it passed.
  void record(const std::string& what, const std::string& why) {
    ++attempted_;
    if (why.empty()) return;
    ++failed_;
    std::fprintf(stderr, "FAILED %s: %s\n", what.c_str(), why.c_str());
  }

  void set(const std::string& name, double value) { metrics_[name].value = value; }
  void set_timing(const std::string& name, std::vector<double> samples) {
    metrics_[name] = {median(samples), std::move(samples)};
  }

  std::string check_residual(std::span<const Real> x) const {
    const Real r = relative_residual(a_, x, b_, w_.nrhs);
    if (r <= 1e-10) return "";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "residual %.3e above 1e-10", static_cast<double>(r));
    return buf;
  }

  /// Residual, then bitwise agreement with `ref` (x, clean fingerprint and,
  /// when `fault_ledger`, the fault fingerprint).
  std::string check_solve(const DistSolveOutcome& out, const Reference& ref,
                          bool fault_ledger) const {
    std::string why = check_residual(out.x);
    if (!why.empty()) return why;
    if (!same_bits(out.x, ref.x)) return "x differs from the reference solve";
    if (out.run_stats.fingerprint() != ref.fingerprint) {
      return "clean fingerprint differs from the reference solve";
    }
    if (fault_ledger && out.run_stats.fault_fingerprint() != ref.fault_fingerprint) {
      return "fault fingerprint differs from the warm-up solve";
    }
    return "";
  }

  SolveConfig solve_config(const Config& c, bool faults, bool traced) const {
    SolveConfig s;
    s.shape = c.shape;
    s.algorithm = c.alg;
    s.tree = c.tree;
    s.nrhs = w_.nrhs;
    s.run.deterministic = true;
    s.run.trace = traced;
    s.run.metrics = traced;
    if (faults) {
      // The fault draws (RunOptions::seed) stay at 0 for every benchmark
      // seed: redrawing them spread fault_makespan_s by 14% across seeds
      // 0-9, against 4% from the input change alone.
      s.run.abft = true;
      s.run.degrade = true;
    }
    return s;
  }

  GpuSolveConfig gpu_config(const Config& c, bool traced) const {
    GpuSolveConfig g;
    g.shape = c.shape;
    g.nrhs = w_.nrhs;
    g.trace = traced;
    g.metrics = traced;
    return g;
  }

  /// The workload's solve of config `k`: fault-injected on cpu-faults.
  DistSolveOutcome solve(size_t k, bool traced) const {
    const MachineModel m = w_.faults ? fault_machine() : MachineModel::cori_haswell();
    return solve_system_3d(*fs_, b_, solve_config(w_.configs[k], w_.faults, traced), m);
  }

  GpuSolveTimes simulate(size_t k, bool traced) const {
    return simulate_solve_3d_gpu(fs_->lu, fs_->tree, gpu_config(w_.configs[k], traced),
                                 MachineModel::perlmutter());
  }

  static std::string check_gpu(const GpuSolveTimes& t, const Reference* ref) {
    if (!std::isfinite(t.total) || !(t.total > 0.0)) return "non-finite total";
    if (ref != nullptr && std::bit_cast<std::uint64_t>(t.total) !=
                              std::bit_cast<std::uint64_t>(ref->makespan)) {
      return "total differs from the warm-up pass";
    }
    return "";
  }

  void setup() {
    std::vector<double> times;
    for (int i = 0; i < 3; ++i) {
      fs_.reset();  // one FactoredSystem alive at a time
      const auto t0 = Clock::now();
      a_ = make_input(w_, opt_.seed, small_);
      fs_ = std::make_unique<FactoredSystem>(analyze_and_factor(a_, w_.nd_levels));
      times.push_back(seconds_since(t0));
    }
    set_timing("setup_s", std::move(times));
    b_ = make_rhs(a_.rows(), w_.nrhs);
    record("sequential solve", check_residual(solve_system_seq(*fs_, b_, w_.nrhs)));
  }

  void warm_up() {
    refs_.resize(w_.configs.size());
    for (size_t k = 0; k < w_.configs.size(); ++k) {
      const std::string what = "warm-up " + w_.configs[k].tag;
      Reference& ref = refs_[k];
      try {
        if (w_.gpu) {
          const GpuSolveTimes t = simulate(k, false);
          record(what, check_gpu(t, nullptr));
          ref.makespan = t.total;
          ref.fault_makespan = t.total;  // the GPU model injects no faults here
          continue;
        }
        if (w_.faults) {
          // The two-ledger rule: the faulty solve must reproduce its
          // fault-free twin's solution and clean fingerprint bit for bit.
          const DistSolveOutcome clean =
              solve_system_3d(*fs_, b_, solve_config(w_.configs[k], false, false),
                              MachineModel::cori_haswell());
          ref.x = clean.x;
          ref.fingerprint = clean.run_stats.fingerprint();
          record(what + " fault-free twin", check_residual(clean.x));
        }
        const DistSolveOutcome out = solve(k, false);
        if (w_.faults) {
          record(what, check_solve(out, ref, false));
        } else {
          ref.x = out.x;
          ref.fingerprint = out.run_stats.fingerprint();
          record(what, check_residual(out.x));
        }
        ref.fault_fingerprint = out.run_stats.fault_fingerprint();
        ref.makespan = out.makespan;
        ref.fault_makespan = out.run_stats.fault_makespan();
        ref.messages = total_messages(out.run_stats);
      } catch (const std::exception& e) {
        record(what, std::string("threw: ") + e.what());
      }
    }
  }

  void timed_passes() {
    std::vector<double> wall, cpu;
    std::vector<std::vector<double>> per_config(w_.configs.size());
    const auto start = Clock::now();
    while (wall.empty() || (!small_ && seconds_since(start) < opt_.seconds)) {
      double pass_wall = 0.0;
      double pass_cpu = 0.0;
      for (size_t k = 0; k < w_.configs.size(); ++k) {
        const std::string what = "pass " + std::to_string(wall.size()) + " " +
                                 w_.configs[k].tag;
        // Only the solve call is timed; its checks run outside the clocks.
        double dt = 0.0;
        const double c0 = cpu_seconds();
        double c1 = c0;
        const auto t0 = Clock::now();
        try {
          if (w_.gpu) {
            const GpuSolveTimes t = simulate(k, false);
            dt = seconds_since(t0);
            c1 = cpu_seconds();
            record(what, check_gpu(t, &refs_[k]));
          } else {
            const DistSolveOutcome out = solve(k, false);
            dt = seconds_since(t0);
            c1 = cpu_seconds();
            record(what, check_solve(out, refs_[k], w_.faults));
          }
          per_config[k].push_back(dt);
        } catch (const std::exception& e) {
          record(what, std::string("threw: ") + e.what());
        }
        pass_wall += dt;
        pass_cpu += c1 - c0;
      }
      wall.push_back(pass_wall);
      cpu.push_back(pass_cpu);
    }
    passes_ = wall.size();
    set_timing("sweep_host_s", wall);
    set_timing("sweep_cpu_s", std::move(cpu));

    std::vector<double> model, fault;
    std::int64_t messages = 0;
    for (const Reference& r : refs_) {
      model.push_back(r.makespan);
      fault.push_back(r.fault_makespan);
      messages += r.messages;
    }
    set("model_makespan_s", geomean(model));
    set("fault_makespan_s", geomean(fault));
    set("peak_rss_mb", peak_rss_mb());

    // Per-layer numbers taken from the untraced passes.
    untraced_pass_s_ = median(wall);
    if (w_.gpu) return;
    layer_["runtime.host_us_per_msg"] = 1e6 * untraced_pass_s_ / static_cast<double>(messages);
    for (size_t k = 0; k < w_.configs.size(); ++k) {
      layer_["core.solve_host_s." + w_.configs[k].tag] = median(per_config[k]);
    }
  }

  /// Re-runs setup through the same public chain analyze_and_factor uses,
  /// timing each layer, and checks the result is bitwise the same factor.
  void staged_setup(SpanLog& spans) {
    const int root = spans.open("setup");
    int id = spans.open("generate", root);
    const CsrMatrix a = make_input(w_, opt_.seed, small_);
    layer_["sparse.generate_s"] = spans.close(id);

    id = spans.open("nd", root);
    NdOptions nd_opt;
    nd_opt.levels = w_.nd_levels;
    NdOrdering nd = nested_dissection(a, nd_opt);
    const CsrMatrix pa = a.permuted_symmetric(nd.perm);
    layer_["ordering.nd_s"] = spans.close(id);

    id = spans.open("symbolic", root);
    const std::vector<Idx> parent = elimination_tree(pa);
    const std::vector<Nnz> counts = cholesky_col_counts(pa, parent);
    SupernodeOptions sn_opt;  // analyze_and_factor's widths, ND forced breaks
    for (Idx node = 0; node < nd.tree.num_nodes(); ++node) {
      sn_opt.forced_breaks.push_back(nd.tree.node(node).col_begin);
      sn_opt.forced_breaks.push_back(nd.tree.node(node).col_end);
    }
    SymbolicStructure sym = block_symbolic(pa, find_supernodes(parent, counts, sn_opt));
    layer_["symbolic.analyze_s"] = spans.close(id);
    layer_["symbolic.supernodes"] = sym.num_supernodes();

    id = spans.open("numeric", root);
    const SupernodalLU lu = factor_supernodal(pa, std::move(sym));
    layer_["factor.numeric_s"] = spans.close(id);
    spans.close(root);

    const bool same = a.has_symmetric_pattern() && nd.perm == fs_->perm &&
                      same_bits(lu.diag, fs_->lu.diag) &&
                      same_bits(lu.lpanel, fs_->lu.lpanel) &&
                      same_bits(lu.upanel, fs_->lu.upanel);
    record("staged setup", same ? "" : "factor differs from analyze_and_factor");
  }

  /// Builds (and drops) the solve plans of config `k`, as the solver does
  /// before each run.
  void build_plans(const Config& c) const {
    int zlevels = 0;
    while ((1 << zlevels) < c.shape.pz) ++zlevels;
    const NdTree coarse = coarsen_nd_tree(fs_->tree, zlevels);
    std::vector<Solve2dPlan> plans;
    if (c.alg == Algorithm3d::kProposed) {
      for (int z = 0; z < c.shape.pz; ++z) {
        plans.push_back(make_grid_plan(fs_->lu, coarse, z, c.shape.grid2d(), c.tree));
      }
    } else {
      for (Idx node = 0; node < coarse.num_nodes(); ++node) {
        plans.push_back(make_node_plan(fs_->lu, coarse, node, c.shape.grid2d(), c.tree));
      }
    }
  }

  /// Host seconds of one Cluster::run of `nranks` ranks in deterministic mode.
  static double time_cluster(int nranks, const std::function<void(Comm&)>& fn) {
    RunOptions o;
    o.deterministic = true;
    const auto t0 = Clock::now();
    Cluster::run(nranks, MachineModel::cori_haswell(), fn, o);
    return seconds_since(t0);
  }

  /// Runtime isolation probes: an empty rank function (spawn and join) and
  /// a 16-round ring of 8-double messages, each the median of 3 runs.
  void runtime_probes(SpanLog& spans) {
    constexpr int kRounds = 16;
    const int root = spans.open("probes");
    for (const int p : {128, 2048}) {
      std::vector<double> spawn, ring;
      for (int rep = 0; rep < 3; ++rep) {
        int id = spans.open("spawn.p" + std::to_string(p), root);
        time_cluster(p, [](Comm&) {});
        spawn.push_back(spans.close(id));
        id = spans.open("ring.p" + std::to_string(p), root);
        time_cluster(p, [p](Comm& c) {
          const int next = (c.rank() + 1) % p;
          const int prev = (c.rank() + p - 1) % p;
          for (int r = 0; r < kRounds; ++r) {
            c.send(next, r, std::vector<Real>(8, 1.0));
            c.recv(prev, r);
          }
        });
        ring.push_back(spans.close(id));
      }
      const std::string suffix = ".p" + std::to_string(p);
      layer_["runtime.spawn_s" + suffix] = median(spawn);
      layer_["runtime.ring_us_per_msg" + suffix] =
          1e6 * (median(ring) - median(spawn)) / (kRounds * p);
    }
    spans.close(root);
  }

  void traced_pass() {
    SpanLog spans;
    staged_setup(spans);

    int id = spans.open("seq_solve");
    const std::vector<Real> x = solve_system_seq(*fs_, b_, w_.nrhs);
    layer_["factor.seq_solve_s"] = spans.close(id);
    record("traced sequential solve", check_residual(x));

    double lu_bytes = 0.0;
    for (const auto* panels : {&fs_->lu.diag, &fs_->lu.diag_linv, &fs_->lu.diag_uinv,
                               &fs_->lu.lpanel, &fs_->lu.upanel}) {
      for (const auto& p : *panels) lu_bytes += static_cast<double>(p.size() * sizeof(Real));
    }
    layer_["factor.lu_mb"] = lu_bytes / (1024.0 * 1024.0);
    layer_["factor.solve_mflop"] = fs_->lu.solve_flops(w_.nrhs) / 1e6;

    const int pass = spans.open("traced_pass");
    double solve_s = 0.0;
    double events = 0.0;
    for (size_t k = 0; k < w_.configs.size(); ++k) {
      const Config& c = w_.configs[k];
      const int solve_id = static_cast<int>(k);
      const int cfg_span = spans.open(c.tag, pass, solve_id);
      id = spans.open("plan", cfg_span, solve_id);
      build_plans(c);
      layer_["dist.plan_s"] += spans.close(id);
      const std::string what = "traced " + c.tag;
      try {
        if (w_.gpu) {
          id = spans.open("gpusim", cfg_span, solve_id);
          const GpuSolveTimes t = simulate(k, true);
          solve_s += spans.close(id);
          record(what, check_gpu(t, &refs_[k]));
          layer_["gpusim.l_s"] += t.l_solve;
          layer_["gpusim.z_s"] += t.z_comm;
          layer_["gpusim.u_s"] += t.u_solve;
          layer_["gpusim.puts"] += t.metrics->total("gpu.puts");
          layer_["comm.bytes.xy"] += t.metrics->total("gpu.put_bytes.xy");
          layer_["comm.bytes.z"] += t.metrics->total("gpu.put_bytes.z");
          events += static_cast<double>(t.trace->num_events());
        } else {
          id = spans.open("solve", cfg_span, solve_id);
          const DistSolveOutcome out = solve(k, true);
          solve_s += spans.close(id);
          // Tracing and metrics sit outside the clean ledger: the traced
          // solve must reproduce the untraced one bit for bit.
          record(what, check_solve(out, refs_[k], w_.faults));
          add_runtime_layers(c, out);
          events += static_cast<double>(out.run_stats.trace->num_events());
        }
      } catch (const std::exception& e) {
        record(what, std::string("threw: ") + e.what());
      }
      spans.close(cfg_span);
    }
    spans.close(pass);
    runtime_probes(spans);

    if (!w_.gpu) layer_["core.imbalance"] /= static_cast<double>(w_.configs.size());
    // A ratio, not a difference: the traced pass can run as fast as an
    // untraced one, and a metric must not read 0 or below.
    layer_["trace.slowdown"] = solve_s / untraced_pass_s_;
    layer_["trace.events"] = events + static_cast<double>(spans.size());
    record("span file", spans.write_chrome_json(opt_.trace_path)
                            ? ""
                            : "cannot write " + opt_.trace_path);
  }

  /// Modeled per-layer numbers of one traced CPU solve, summed over configs
  /// (core.imbalance is averaged by the caller).
  void add_runtime_layers(const Config& c, const DistSolveOutcome& out) {
    const Cluster::Result& r = out.run_stats;
    layer_["core.makespan_s." + c.tag] = out.makespan;
    layer_["core.fp_s"] += r.mean_category(TimeCategory::kFp);
    layer_["core.imbalance"] += r.vtime_spread().imbalance();
    layer_["comm.xy_s"] += r.mean_category(TimeCategory::kXyComm);
    layer_["comm.z_s"] += r.mean_category(TimeCategory::kZComm);
    constexpr int kXy = static_cast<int>(TimeCategory::kXyComm);
    constexpr int kZ = static_cast<int>(TimeCategory::kZComm);
    for (const RankStats& rs : r.ranks) {
      layer_["comm.msgs.xy"] += static_cast<double>(rs.messages[kXy]);
      layer_["comm.msgs.z"] += static_cast<double>(rs.messages[kZ]);
      layer_["comm.bytes.xy"] += static_cast<double>(rs.bytes[kXy]);
      layer_["comm.bytes.z"] += static_cast<double>(rs.bytes[kZ]);
    }
    layer_["runtime.wait_s"] += r.metrics->hist_sum_total("cluster.wait_time");

    const Trace::CriticalPath cp = r.trace->critical_path();
    layer_["cp.fp_s"] += cp.breakdown.category[static_cast<int>(TimeCategory::kFp)];
    layer_["cp.xy_s"] += cp.breakdown.category[kXy];
    layer_["cp.z_s"] += cp.breakdown.category[kZ];
    layer_["cp.wait_s"] += cp.breakdown.wait;
    layer_["cp.hops"] += static_cast<double>(cp.edges.size());

    if (!w_.faults) return;
    const TransportStats t = r.transport_totals();
    const RecoveryStats rec = r.recovery_stats();
    const SdcStats sdc = r.sdc_stats();
    const DegradationStats deg = r.degradation_stats();
    layer_["fault.retransmits"] += static_cast<double>(t.retransmits);
    layer_["fault.crashes"] += static_cast<double>(rec.crashes);
    layer_["fault.checkpoint_mb"] +=
        static_cast<double>(rec.checkpoint_bytes) / (1024.0 * 1024.0);
    layer_["fault.recovery_s"] +=
        rec.detect_time + rec.repair_time + rec.restore_time + rec.replay_time;
    layer_["fault.abft_s"] += sdc.verify_time + sdc.repair_time;
    layer_["fault.degrade_s"] += deg.agree_time + deg.shrink_time +
                                 deg.redistribute_time + deg.replay_time +
                                 deg.overload_time;
  }

  void print(bool traced) {
    if (traced) {
      for (const auto& [name, v] : layer_) set(name, v);
    }
    std::printf("# sptrsv_bench %s seed=%llu n=%d nnz=%lld configs=%zu passes=%zu%s\n",
                w_.name.c_str(), static_cast<unsigned long long>(opt_.seed), a_.rows(),
                static_cast<long long>(a_.nnz()), w_.configs.size(), passes_,
                small_ ? " small" : "");
    std::string json_metrics;
    std::map<std::string, double> report;
    for (const MetricDef& d : catalogue()) {
      if (!d.reported_by(w_) || (!d.end_to_end && !traced)) continue;
      const auto it = metrics_.find(d.name);
      if (it == metrics_.end()) throw std::logic_error("metric not measured: " + d.name);
      const Metric& m = it->second;
      std::printf("%s %.17g %s", d.name.c_str(), m.value, d.unit.c_str());
      if (!m.samples.empty()) {
        std::printf(" n=%zu min=%.6g max=%.6g", m.samples.size(),
                    *std::min_element(m.samples.begin(), m.samples.end()),
                    *std::max_element(m.samples.begin(), m.samples.end()));
      }
      std::printf("\n");
      report[d.name] = m.value;
      // The JSON line carries the end-to-end metrics, or with --trace the
      // per-layer ones every workload reports.
      if (traced ? d.end_to_end || !d.common() : !d.end_to_end) continue;
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    json_metrics.empty() ? "" : ", ", d.name.c_str(), m.value,
                    d.unit.c_str());
      json_metrics += buf;
    }
    if (!opt_.json_dir.empty()) write_report(report);
    std::printf("# attempted %lld failed %lld\n", attempted_, failed_);
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
                failed_ == 0 ? "true" : "false", attempted_, failed_, json_metrics.c_str());
    std::fflush(stdout);
  }

  /// One flat sptrsv-bench/1 report per workload, diffable by bench_compare.
  void write_report(const std::map<std::string, double>& values) {
    std::error_code ec;
    std::filesystem::create_directories(opt_.json_dir, ec);
    const std::string path = opt_.json_dir + "/" + w_.name + ".json";
    std::string doc = "{\"schema\":\"sptrsv-bench/1\",\"point\":\"" + w_.name + "\",\"values\":{";
    const char* sep = "";
    for (const auto& [k, v] : values) {
      char num[40];
      std::snprintf(num, sizeof(num), "%.17g", v);
      doc += sep + ("\"" + k + "\":") + num;
      sep = ",";
    }
    doc += "}}\n";
    std::FILE* f = std::fopen(path.c_str(), "w");
    const bool ok = f != nullptr && std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    record("report " + path, (f != nullptr && std::fclose(f) == 0 && ok) ? "" : "cannot write");
  }

  const Workload& w_;
  const Options& opt_;
  const bool small_;
  CsrMatrix a_;
  std::vector<Real> b_;
  std::unique_ptr<FactoredSystem> fs_;
  std::vector<Reference> refs_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, double> layer_;
  double untraced_pass_s_ = 0.0;
  size_t passes_ = 0;
  long long attempted_ = 0;
  long long failed_ = 0;
};

/// One line per metric: name, unit, kind, bound, the end-to-end metric it
/// moves, and the workloads that report it ("all", or a comma list).
void list_metrics() {
  for (const MetricDef& d : catalogue()) {
    std::string where;
    for (const Workload& w : workloads()) {
      if (d.reported_by(w)) where += (where.empty() ? "" : ",") + w.name;
    }
    if (d.common()) where = "all";
    if (d.end_to_end) {
      std::printf("%s %s end_to_end %g - %s\n", d.name.c_str(), d.unit.c_str(), d.bound,
                  where.c_str());
    } else {
      std::printf("%s %s per_layer - %s %s\n", d.name.c_str(), d.unit.c_str(),
                  d.moves.c_str(), where.c_str());
    }
  }
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: sptrsv_bench --workload NAME --seed N [--seconds S]\n"
               "                    [--json DIR] [--trace FILE]\n"
               "       sptrsv_bench --list\n"
               "workloads: cpu-strong-2d cpu-dense-lu gpu-3d cpu-faults\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--list") {
      list_metrics();
      return 0;
    } else if (arg == "--workload") {
      opt.workload = next();
    } else if (arg == "--seed") {
      const std::string s = next();
      char* end = nullptr;
      opt.seed = std::strtoull(s.c_str(), &end, 10);
      if (s.empty() || *end != '\0') usage();
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(next().c_str());
    } else if (arg == "--json") {
      opt.json_dir = next();
    } else if (arg == "--trace") {
      opt.trace_path = next();
    } else {
      usage();
    }
  }
  const auto& all = workloads();
  const auto w = std::find_if(all.begin(), all.end(),
                              [&](const Workload& x) { return x.name == opt.workload; });
  if (w == all.end() || !have_seed) usage();
  try {
    return Bench(*w, opt).run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
