/// \file test_metrics.cpp
/// \brief The metrics layer (docs/OBSERVABILITY.md §Metrics).
///
/// The contract under test, in order of importance:
///  1. Outside the clean ledger: enabling metrics changes no solution bit,
///     fingerprint, message/byte count or trace byte.
///  2. Determinism: two deterministic runs of the same program produce
///     byte-identical MetricsReport JSON, and every metric except the
///     scheduler's own "sched.*" family is invariant across schedule
///     policies.
///  3. Mirror fidelity: the metric mirrors of the clean counters agree
///     with the clean ledger exactly, per rank and per category.
///  4. Post-mortem evidence: a faulted or deadlocked try_run attaches a
///     non-empty flight-recorder dump to the FaultReport.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/sptrsv3d.hpp"
#include "factor/sptrsv_seq.hpp"
#include "gpusim/gpu_sptrsv.hpp"
#include "metrics/metrics.hpp"
#include "sparse/paper_matrices.hpp"
#include "test_support.hpp"
#include "trace/trace.hpp"

namespace sptrsv {
namespace {

using test::bitwise_equal;
using test::random_rhs;
using test::stats_identical;
using test::test_machine;

// ---------------------------------------------------------------------------
// Registry unit tests.
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CounterGaugeRoundTrip) {
  MetricsRegistry reg;
  const auto c = reg.counter("a.count");
  const auto g = reg.gauge("a.gauge");
  c.add();
  c.add(41);
  g.set(2.5);
  g.add(0.5);
  const auto vals = reg.values();
  EXPECT_DOUBLE_EQ(vals.at("a.count"), 42.0);
  EXPECT_DOUBLE_EQ(vals.at("a.gauge"), 3.0);
}

TEST(MetricsRegistry, NullHandlesAreNoOps) {
  // Default-constructed handles (metrics off) must be safely bumpable.
  const MetricsRegistry::Counter c;
  const MetricsRegistry::Gauge g;
  const MetricsRegistry::Histogram h;
  c.add(7);
  g.set(1.0);
  h.observe(3.0);  // nothing to assert beyond "does not crash"
}

TEST(MetricsRegistry, SameNameSharesStorage) {
  MetricsRegistry reg;
  const auto a = reg.counter("shared");
  const auto b = reg.counter("shared");
  a.add(1);
  b.add(2);
  EXPECT_DOUBLE_EQ(reg.values().at("shared"), 3.0);
}

TEST(MetricsRegistry, HistogramBucketPlacement) {
  MetricsRegistry reg;
  const std::array<double, 3> bounds{1.0, 10.0, 100.0};
  const auto h = reg.histogram("h", bounds);
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (boundary is inclusive)
  h.observe(5.0);    // bucket 1
  h.observe(1000.0); // overflow bucket
  const auto hs = reg.histograms().at("h");
  ASSERT_EQ(hs.counts.size(), 4u);
  EXPECT_EQ(hs.counts[0], 2);
  EXPECT_EQ(hs.counts[1], 1);
  EXPECT_EQ(hs.counts[2], 0);
  EXPECT_EQ(hs.counts[3], 1);
  EXPECT_EQ(hs.total, 4);
  EXPECT_DOUBLE_EQ(hs.sum, 0.5 + 1.0 + 5.0 + 1000.0);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsHandles) {
  MetricsRegistry reg;
  const auto c = reg.counter("c");
  c.add(5);
  reg.reset();
  EXPECT_DOUBLE_EQ(reg.values().at("c"), 0.0);
  c.add(2);  // handle survives the reset
  EXPECT_DOUBLE_EQ(reg.values().at("c"), 2.0);
}

TEST(MetricsReport, ExportersStampSchemaAndMangleNames) {
  MetricsReport rep;
  rep.ranks.resize(2);
  rep.ranks[0].values["cluster.messages.fp"] = 3.0;
  rep.ranks[1].values["cluster.messages.fp"] = 4.0;
  MetricsRegistry::HistStorage h;
  h.bounds = {1.0};
  h.counts = {2, 1};
  h.sum = 12.0;
  h.total = 3;
  rep.ranks[0].histograms["cluster.wait_time"] = h;

  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"schema\":\"sptrsv-metrics/2\""), std::string::npos);
  EXPECT_EQ(json, rep.to_json());  // deterministic byte-for-byte

  const std::string prom = rep.to_prometheus();
  EXPECT_NE(prom.find("sptrsv_cluster_messages_fp{rank=\"0\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("sptrsv_cluster_messages_fp{rank=\"1\"} 4"),
            std::string::npos);
  // Histograms export as cumulative bucket / sum / count families.
  EXPECT_NE(prom.find("sptrsv_cluster_wait_time_bucket"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(prom.find("sptrsv_cluster_wait_time_sum"), std::string::npos);
  EXPECT_NE(prom.find("sptrsv_cluster_wait_time_count"), std::string::npos);

  EXPECT_DOUBLE_EQ(rep.total("cluster.messages.fp"), 7.0);
  EXPECT_DOUBLE_EQ(rep.max("cluster.messages.fp"), 4.0);
  EXPECT_DOUBLE_EQ(rep.value(1, "cluster.messages.fp"), 4.0);
  EXPECT_DOUBLE_EQ(rep.value(1, "absent"), 0.0);
  EXPECT_DOUBLE_EQ(rep.hist_sum_total("cluster.wait_time"), 12.0);
  EXPECT_DOUBLE_EQ(rep.hist_sum_max("cluster.wait_time"), 12.0);
}

// ---------------------------------------------------------------------------
// The clean-ledger invariant: metrics on/off is bitwise invisible.
// ---------------------------------------------------------------------------

struct SolveSetup {
  CsrMatrix a;
  FactoredSystem fs;
  std::vector<Real> b;
  SolveSetup()
      : a(make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny)),
        fs(analyze_and_factor(a, 2)),
        b(random_rhs(a.rows(), 1, 17)) {}
};

SolveConfig tiny_cfg(Algorithm3d alg = Algorithm3d::kProposed) {
  SolveConfig cfg;
  cfg.shape = {2, 2, 4};
  cfg.algorithm = alg;
  return cfg;
}

TEST(MetricsCleanLedger, EnablingMetricsChangesNoCleanBit) {
  const SolveSetup s;
  for (const Algorithm3d alg : {Algorithm3d::kProposed, Algorithm3d::kBaseline}) {
    SolveConfig off = tiny_cfg(alg);
    off.run.trace = true;
    const DistSolveOutcome base = solve_system_3d(s.fs, s.b, off, test_machine());
    ASSERT_EQ(base.run_stats.metrics, nullptr);

    SolveConfig on = off;
    on.run.metrics = true;
    const DistSolveOutcome with = solve_system_3d(s.fs, s.b, on, test_machine());
    ASSERT_NE(with.run_stats.metrics, nullptr);

    EXPECT_TRUE(bitwise_equal(base.x, with.x));
    EXPECT_TRUE(stats_identical(base.run_stats, with.run_stats));
    EXPECT_EQ(base.run_stats.fingerprint(), with.run_stats.fingerprint());
    EXPECT_DOUBLE_EQ(base.run_stats.makespan(), with.run_stats.makespan());
    // Trace bytes too: the trace layer must not see the metrics layer.
    EXPECT_EQ(base.run_stats.trace->chrome_json(), with.run_stats.trace->chrome_json());
  }
}

TEST(MetricsCleanLedger, MirrorsAgreeWithCleanCountersPerRank) {
  const SolveSetup s;
  SolveConfig cfg = tiny_cfg();
  cfg.run.metrics = true;
  const DistSolveOutcome out = solve_system_3d(s.fs, s.b, cfg, test_machine());
  const MetricsReport& rep = *out.run_stats.metrics;
  const char* suffix[kNumTimeCategories] = {"fp", "xy", "z", "other"};
  ASSERT_EQ(rep.ranks.size(), out.run_stats.ranks.size());
  for (size_t r = 0; r < rep.ranks.size(); ++r) {
    for (int c = 0; c < kNumTimeCategories; ++c) {
      EXPECT_DOUBLE_EQ(
          rep.value(static_cast<int>(r), std::string("cluster.messages.") + suffix[c]),
          static_cast<double>(out.run_stats.ranks[r].messages[c]))
          << "rank " << r << " category " << c;
      EXPECT_DOUBLE_EQ(
          rep.value(static_cast<int>(r), std::string("cluster.bytes.") + suffix[c]),
          static_cast<double>(out.run_stats.ranks[r].bytes[c]))
          << "rank " << r << " category " << c;
    }
  }
  // The solver-layer counters fired too.
  EXPECT_GT(rep.total("solver2d.rows_completed"), 0.0);
  EXPECT_GT(rep.total("solver2d.cols_completed"), 0.0);
  EXPECT_GT(rep.total("solver2d.diag_solves"), 0.0);
  EXPECT_GT(rep.total("zreduce.exchanges"), 0.0);
  EXPECT_GT(rep.total("zbcast.exchanges"), 0.0);
}

TEST(MetricsDeterminism, ReportJsonIsByteIdenticalAcrossRuns) {
  const SolveSetup s;
  SolveConfig cfg = tiny_cfg();
  cfg.run.metrics = true;
  const DistSolveOutcome a = solve_system_3d(s.fs, s.b, cfg, test_machine());
  const DistSolveOutcome b = solve_system_3d(s.fs, s.b, cfg, test_machine());
  EXPECT_EQ(a.run_stats.metrics->to_json(), b.run_stats.metrics->to_json());
  EXPECT_EQ(a.run_stats.metrics->to_prometheus(),
            b.run_stats.metrics->to_prometheus());
}

TEST(MetricsDeterminism, AllMetricsExceptSchedAreScheduleInvariant) {
  const SolveSetup s;
  auto strip_sched = [](const MetricsReport& rep) {
    std::vector<std::map<std::string, double>> out;
    for (const auto& rank : rep.ranks) {
      std::map<std::string, double> vals;
      for (const auto& [name, v] : rank.values) {
        if (name.rfind("sched.", 0) == 0) continue;  // the one variant family
        vals[name] = v;
      }
      out.push_back(std::move(vals));
    }
    return out;
  };
  SolveConfig cfg = tiny_cfg();
  cfg.run.metrics = true;
  const DistSolveOutcome fifo = solve_system_3d(s.fs, s.b, cfg, test_machine());
  const auto expect = strip_sched(*fifo.run_stats.metrics);
  for (const auto& pt : test::schedule_sweep(/*seeds_per_policy=*/1)) {
    SolveConfig c2 = cfg;
    c2.run = pt.opts;
    c2.run.metrics = true;
    const DistSolveOutcome out = solve_system_3d(s.fs, s.b, c2, test_machine());
    EXPECT_EQ(strip_sched(*out.run_stats.metrics), expect)
        << "metrics moved under schedule policy " << pt.name;
  }
}

// ---------------------------------------------------------------------------
// Post-mortem: flight recorder attaches to every failed run.
// ---------------------------------------------------------------------------

TEST(MetricsFlight, DeadlockAttachesNonEmptyFlightDump) {
  const Cluster::Result res = Cluster::try_run(
      2, test_machine(),
      [](Comm& c) {
        if (c.rank() == 0) c.send(1, /*tag=*/5, std::vector<Real>{1.0});
        if (c.rank() == 1) {
          c.recv(0, 5);
          c.recv(0, /*tag=*/9);  // never sent
        }
      });
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.fault.kind, FaultKind::kDeadlock);
  ASSERT_FALSE(res.fault.flight.empty());
  // The ring holds the last events of *both* ranks: rank 0's send and the
  // wait rank 1 is parked on (recorded before parking).
  bool saw_send = false, saw_wait = false;
  for (const std::string& line : res.fault.flight) {
    if (line.find("send(dst=1, tag=5") != std::string::npos) saw_send = true;
    if (line.find("recv-wait(src=0, tags[9,10)") != std::string::npos) saw_wait = true;
  }
  EXPECT_TRUE(saw_send) << "flight dump misses rank 0's send";
  EXPECT_TRUE(saw_wait) << "flight dump misses the parked receive";
}

TEST(MetricsFlight, FatalCrashCountsInRecoveryCrashes) {
  // A crash with no spare left and degrade off kills the run. The metric
  // must still count it, exactly like the recovery ledger does.
  MachineModel m = test_machine();
  m.recovery.spare_ranks = 0;
  m.perturb.crashes = {{1, 1e-5}};
  RunOptions opts;
  opts.metrics = true;
  const Cluster::Result res = Cluster::try_run(
      4, m, [](Comm& c) { c.advance(1e-4, TimeCategory::kFp); }, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.fault.kind, FaultKind::kSparesExhausted);
  EXPECT_EQ(res.recovery_stats().crashes, 1);
  ASSERT_NE(res.metrics, nullptr);
  EXPECT_EQ(res.metrics->total("recovery.crashes"), 1.0);
  EXPECT_EQ(res.metrics->value(1, "recovery.crashes"), 1.0);
}

TEST(MetricsFlight, SuccessfulRunReportsNoFault) {
  const Cluster::Result res = Cluster::try_run(
      2, test_machine(),
      [](Comm& c) {
        if (c.rank() == 0) c.send(1, 5, std::vector<Real>{1.0});
        if (c.rank() == 1) c.recv(0, 5);
      });
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.fault.kind, FaultKind::kNone);
  EXPECT_TRUE(res.fault.flight.empty());
}

// ---------------------------------------------------------------------------
// GPU model: per-GPU registries behind GpuSolveConfig::metrics.
// ---------------------------------------------------------------------------

TEST(MetricsGpu, RegistriesPopulateAndLeaveTimesUntouched) {
  const SolveSetup s;
  const MachineModel m = MachineModel::perlmutter();  // the GPU backend needs GPUs
  GpuSolveConfig cfg;
  cfg.shape = {1, 1, 4};
  const GpuSolveTimes off = simulate_solve_3d_gpu(s.fs.lu, s.fs.tree, cfg, m);
  EXPECT_EQ(off.metrics, nullptr);
  cfg.metrics = true;
  const GpuSolveTimes on = simulate_solve_3d_gpu(s.fs.lu, s.fs.tree, cfg, m);
  ASSERT_NE(on.metrics, nullptr);
  // Metrics sit outside the modeled clock on the GPU path too.
  EXPECT_EQ(off.total, on.total);
  EXPECT_EQ(off.l_solve, on.l_solve);
  EXPECT_EQ(off.u_solve, on.u_solve);
  EXPECT_EQ(off.z_comm, on.z_comm);
  EXPECT_GT(on.metrics->total("gpu.tasks"), 0.0);
  EXPECT_GT(on.metrics->total("gpu.puts"), 0.0);
  EXPECT_GT(on.metrics->total("gpu.put_bytes.z"), 0.0);
}

}  // namespace
}  // namespace sptrsv
