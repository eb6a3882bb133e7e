/// \file test_trace.cpp
/// \brief The tracing subsystem (src/trace, docs/OBSERVABILITY.md): edge
/// matching, the critical-path partition invariant, trace determinism and
/// the Perfetto export. Carries the `determinism` label because the
/// byte-identical-JSON guarantee is part of the determinism contract.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sptrsv3d.hpp"
#include "gpusim/gpu_sptrsv.hpp"
#include "sparse/paper_matrices.hpp"
#include "test_support.hpp"
#include "trace/trace.hpp"

namespace sptrsv {
namespace {

using test::random_rhs;
using test::random_system;
using test::stats_identical;
using test::test_machine;

constexpr RunOptions kDetTraced{.seed = 0, .trace = true};

DistSolveOutcome solve_traced(const test::RandomSystem& sys, Algorithm3d alg,
                              const std::vector<Real>& b) {
  SolveConfig cfg;
  cfg.shape = sys.shape;
  cfg.algorithm = alg;
  cfg.nrhs = sys.nrhs;
  cfg.run = kDetTraced;
  return solve_system_3d(sys.fs, b, cfg, test_machine());
}

// ---------------------------------------------------------------------------
// Tracing is off by default and never changes modeled results.
// ---------------------------------------------------------------------------

TEST(TraceOverhead, OffByDefaultAndTimingInvariant) {
  const auto sys = random_system(3);
  const auto b = random_rhs(sys.a.rows(), sys.nrhs, 77);

  SolveConfig cfg;
  cfg.shape = sys.shape;
  cfg.nrhs = sys.nrhs;
  const auto plain = solve_system_3d(sys.fs, b, cfg, test_machine());
  EXPECT_EQ(plain.run_stats.trace, nullptr) << "trace recorded without opt-in";

  cfg.run.trace = true;
  const auto traced = solve_system_3d(sys.fs, b, cfg, test_machine());
  ASSERT_NE(traced.run_stats.trace, nullptr);
  // Recording must not move a single clock bit or counter.
  EXPECT_TRUE(stats_identical(plain.run_stats, traced.run_stats));
  EXPECT_EQ(plain.run_stats.fingerprint(), traced.run_stats.fingerprint());
}

// ---------------------------------------------------------------------------
// The runtime primitives each leave the advertised event, and a runtime
// trace is contiguous with all receives matched.
// ---------------------------------------------------------------------------

TEST(TraceEvents, RuntimePrimitivesRecorded) {
  const auto res = Cluster::run(
      2, test_machine(),
      [](Comm& c) {
        const TraceSpan span = c.annotate("stage", 42);
        c.compute(1e6);
        if (c.rank() == 0) {
          c.send(1, 9, std::vector<Real>(4, 1.0), TimeCategory::kXyComm);
        } else {
          c.recv(0, 9, TimeCategory::kXyComm);
        }
        c.barrier();
        c.allreduce_sum(std::vector<Real>{1.0}, TimeCategory::kZComm);
      },
      kDetTraced);
  ASSERT_NE(res.trace, nullptr);
  const Trace& tr = *res.trace;

  ASSERT_EQ(tr.num_ranks(), 2);
  EXPECT_TRUE(tr.contiguous());
  EXPECT_EQ(tr.num_sends(), 1u);
  EXPECT_EQ(tr.num_recvs(), 1u);
  EXPECT_EQ(tr.num_matched_recvs(), 1u);
  EXPECT_DOUBLE_EQ(tr.makespan(), res.makespan());

  auto count_kind = [&](int r, TraceEventKind k) {
    int n = 0;
    for (const auto& e : tr.rank(r).events) n += (e.kind == k);
    return n;
  };
  EXPECT_EQ(count_kind(0, TraceEventKind::kCompute), 1);
  EXPECT_EQ(count_kind(0, TraceEventKind::kSend), 1);
  EXPECT_EQ(count_kind(1, TraceEventKind::kRecv), 1);
  // barrier + allreduce on both ranks.
  EXPECT_EQ(count_kind(0, TraceEventKind::kCollective), 2);
  EXPECT_EQ(count_kind(1, TraceEventKind::kCollective), 2);

  // The matched edge points from rank 0's send to rank 1's recv.
  ASSERT_EQ(tr.edges().size(), 1u);
  const Trace::Edge& e = tr.edges()[0];
  EXPECT_EQ(e.src_rank, 0);
  EXPECT_EQ(e.dst_rank, 1);
  EXPECT_GE(e.flight, 0.0);

  // The annotation span covers the whole program on both ranks at no cost.
  for (int r = 0; r < 2; ++r) {
    ASSERT_EQ(tr.rank(r).spans.size(), 1u);
    const TraceSpanRec& sp = tr.rank(r).spans[0];
    EXPECT_STREQ(sp.label, "stage");
    EXPECT_EQ(sp.arg, 42);
    EXPECT_DOUBLE_EQ(sp.t0, 0.0);
    EXPECT_GT(sp.t1, 0.0);
  }
}

TEST(TraceEvents, AnnotateIsNullWhenTracingOff) {
  const auto res = Cluster::run(
      1, test_machine(),
      [](Comm& c) {
        const TraceSpan span = c.annotate("ignored", 1);
        c.compute(1e3);
      });
  EXPECT_EQ(res.trace, nullptr);
}

// ---------------------------------------------------------------------------
// Conservation + the critical-path partition invariant on random solves.
// ---------------------------------------------------------------------------

class TraceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceProperty, RecvSendConservationAndCriticalPath) {
  const auto sys = random_system(GetParam());
  SCOPED_TRACE(sys.name);
  const auto b = random_rhs(sys.a.rows(), sys.nrhs, GetParam() ^ 0xd);

  for (const auto alg : {Algorithm3d::kProposed, Algorithm3d::kBaseline}) {
    const auto out = solve_traced(sys, alg, b);
    ASSERT_NE(out.run_stats.trace, nullptr);
    const Trace& tr = *out.run_stats.trace;

    // Conservation: every send is received, every receive has a send.
    EXPECT_TRUE(tr.contiguous());
    EXPECT_EQ(tr.num_sends(), tr.num_recvs());
    EXPECT_EQ(tr.num_matched_recvs(), tr.num_recvs());

    // The critical-path partition telescopes to the makespan.
    const auto cp = tr.critical_path();
    EXPECT_DOUBLE_EQ(cp.breakdown.makespan, out.run_stats.makespan());
    EXPECT_GE(cp.breakdown.wait, 0.0);
    for (const double c : cp.breakdown.category) EXPECT_GE(c, 0.0);
    const double err = std::abs(cp.breakdown.total() - cp.breakdown.makespan);
    EXPECT_LE(err, 1e-9 * std::max(cp.breakdown.makespan, 1e-300))
        << "partition total " << cp.breakdown.total() << " vs makespan "
        << cp.breakdown.makespan;
  }
}

TEST_P(TraceProperty, DeterministicJsonByteIdentical) {
  const auto sys = random_system(GetParam());
  SCOPED_TRACE(sys.name);
  const auto b = random_rhs(sys.a.rows(), sys.nrhs, GetParam() ^ 0xe);
  const auto out1 = solve_traced(sys, Algorithm3d::kProposed, b);
  const auto out2 = solve_traced(sys, Algorithm3d::kProposed, b);
  const std::string j1 = out1.run_stats.trace->chrome_json();
  const std::string j2 = out2.run_stats.trace->chrome_json();
  EXPECT_FALSE(j1.empty());
  EXPECT_EQ(j1, j2) << "deterministic traces must serialize byte-identically";
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, TraceProperty,
                         ::testing::Range<std::uint64_t>(0, 8),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// The Perfetto export escapes names — a hostile span label must not be able
// to break the JSON document.
// ---------------------------------------------------------------------------

/// Minimal structural JSON check: strings balance (honoring backslash
/// escapes) and every {[ has its ]}; enough to catch an unescaped quote
/// cutting the document in half.
bool json_well_formed(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(TraceExport, SpanNamesAreJsonEscaped) {
  // Label with an embedded quote and a trailing backslash: unescaped,
  // either one corrupts the document.
  static const char kHostile[] = "he\"llo\\";
  const auto res = Cluster::run(
      1, test_machine(),
      [](Comm& c) {
        const TraceSpan span = c.annotate(kHostile, 7);
        c.compute(1e3);
      },
      kDetTraced);
  ASSERT_NE(res.trace, nullptr);
  const std::string json = res.trace->chrome_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  // The escaped form appears; the raw form (quote not preceded by a
  // backslash) must not.
  EXPECT_NE(json.find("he\\\"llo\\\\"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"he\""), std::string::npos) << json;
}

TEST(TraceExport, PlainLabelsExportByteIdenticallyToBefore) {
  // The escaper is the identity on ordinary labels — pinned so the
  // byte-identical-JSON determinism guarantee keeps covering old traces.
  const auto res = Cluster::run(
      1, test_machine(),
      [](Comm& c) {
        const TraceSpan span = c.annotate("plain_label.v1", 3);
        c.compute(1e3);
      },
      kDetTraced);
  const std::string json = res.trace->chrome_json();
  EXPECT_NE(json.find("\"plain_label.v1\""), std::string::npos);
  EXPECT_TRUE(json_well_formed(json));
}

// ---------------------------------------------------------------------------
// Span histograms and the Result aggregation helpers.
// ---------------------------------------------------------------------------

TEST(TraceAnalysis, WaitBySpanBaselineLevels) {
  const auto fs =
      analyze_and_factor(make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny), 2);
  SolveConfig cfg;
  cfg.shape = {2, 2, 4};
  cfg.algorithm = Algorithm3d::kBaseline;
  cfg.run = kDetTraced;
  const auto b = random_rhs(fs.lu.n(), 1, 1);
  const auto out = solve_system_3d(fs, b, cfg, test_machine());
  const auto hist = out.run_stats.trace->wait_by_span("l_level");
  ASSERT_FALSE(hist.empty());
  for (const auto& [level, wait] : hist) {
    EXPECT_GE(level, 0);
    EXPECT_LE(level, 2);  // pz=4 -> tracked levels 0..2
    EXPECT_GE(wait, 0.0);
  }
  EXPECT_TRUE(out.run_stats.trace->wait_by_span("no_such_label").empty());
}

TEST(TraceAnalysis, SpreadDegenerateInputs) {
  // Empty: all-zero summary, and imbalance() must not divide by zero.
  const Spread none = spread_over({});
  EXPECT_DOUBLE_EQ(none.min, 0.0);
  EXPECT_DOUBLE_EQ(none.mean, 0.0);
  EXPECT_DOUBLE_EQ(none.p50, 0.0);
  EXPECT_DOUBLE_EQ(none.p99, 0.0);
  EXPECT_DOUBLE_EQ(none.max, 0.0);
  EXPECT_DOUBLE_EQ(none.imbalance(), 0.0);

  // Single rank: every statistic is that value; perfectly balanced.
  const std::vector<double> one{3.5};
  const Spread single = spread_over(one);
  EXPECT_DOUBLE_EQ(single.min, 3.5);
  EXPECT_DOUBLE_EQ(single.mean, 3.5);
  EXPECT_DOUBLE_EQ(single.p50, 3.5);
  EXPECT_DOUBLE_EQ(single.p99, 3.5);
  EXPECT_DOUBLE_EQ(single.max, 3.5);
  EXPECT_DOUBLE_EQ(single.imbalance(), 1.0);

  // All-equal: percentiles collapse to the common value, imbalance exactly 1.
  const std::vector<double> flat{2.0, 2.0, 2.0, 2.0, 2.0};
  const Spread eq = spread_over(flat);
  EXPECT_DOUBLE_EQ(eq.min, 2.0);
  EXPECT_DOUBLE_EQ(eq.p50, 2.0);
  EXPECT_DOUBLE_EQ(eq.p99, 2.0);
  EXPECT_DOUBLE_EQ(eq.max, 2.0);
  EXPECT_DOUBLE_EQ(eq.imbalance(), 1.0);

  // All-zero ranks (a run that never computes): mean 0 -> imbalance 0, the
  // documented "no load at all" convention.
  const std::vector<double> zeros{0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(spread_over(zeros).imbalance(), 0.0);

  // A zero-work cluster run reports the same degenerate spreads.
  const auto res = Cluster::run(1, test_machine(), [](Comm&) {});
  EXPECT_DOUBLE_EQ(res.vtime_spread().imbalance(), 0.0);
  EXPECT_DOUBLE_EQ(res.category_spread(TimeCategory::kFp).max, 0.0);
}

TEST(TraceAnalysis, SpreadHelpers) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  const Spread s = spread_over(v);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.p50, 2.0);  // nearest-rank: ceil(0.5*4) = 2nd smallest
  EXPECT_DOUBLE_EQ(s.p99, 4.0);
  EXPECT_DOUBLE_EQ(s.imbalance(), 4.0 / 2.5);
  EXPECT_DOUBLE_EQ(spread_over({}).imbalance(), 0.0);

  const auto res = Cluster::run(
      4, test_machine(),
      [](Comm& c) { c.compute(1e6 * (c.rank() + 1)); });
  const Spread fp = res.category_spread(TimeCategory::kFp);
  EXPECT_GT(fp.max, fp.min);
  EXPECT_DOUBLE_EQ(res.vtime_spread().max, res.makespan());
}

// ---------------------------------------------------------------------------
// GPU-simulator traces export but refuse critical-path analysis.
// ---------------------------------------------------------------------------

TEST(TraceGpu, ExportOnly) {
  const auto fs =
      analyze_and_factor(make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny), 4);
  GpuSolveConfig cfg;
  cfg.shape = {1, 1, 4};
  cfg.trace = true;
  const auto t = simulate_solve_3d_gpu(fs.lu, fs.tree, cfg, MachineModel::perlmutter());
  ASSERT_NE(t.trace, nullptr);
  const Trace& tr = *t.trace;
  EXPECT_EQ(tr.num_ranks(), 4);
  EXPECT_FALSE(tr.contiguous()) << "GPU task slices overlap by design";
  EXPECT_GT(tr.num_events(), 0u);
  EXPECT_EQ(tr.num_matched_recvs(), tr.num_recvs());
  EXPECT_THROW(tr.critical_path(), std::logic_error);
  EXPECT_FALSE(tr.chrome_json().empty());

  // Untraced runs pay nothing and produce identical timings.
  GpuSolveConfig plain = cfg;
  plain.trace = false;
  const auto t2 = simulate_solve_3d_gpu(fs.lu, fs.tree, plain, MachineModel::perlmutter());
  EXPECT_EQ(t2.trace, nullptr);
  EXPECT_DOUBLE_EQ(t2.total, t.total);
}

}  // namespace
}  // namespace sptrsv
