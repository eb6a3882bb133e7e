/// \file test_fault_injection.cpp
/// \brief Lossy-network fault injection and the reliable transport
/// (docs/ROBUSTNESS.md).
///
/// The contract under test, in order of importance:
///  1. Two-ledger invariant: delivery faults never move the clean ledger —
///     solutions, fingerprints and message/byte counts are bit-identical to
///     a fault-free run under every admissible fault schedule and seed.
///  2. Exact accounting: retransmit/ack traffic and recovery delay are a
///     pure function of (seed, sender, draw index) and match an offline
///     replay of the analytic transport frame by frame.
///  3. Bounded failure: schedules the transport cannot recover from (heavy
///     loss, permanent stalls, wedged communication graphs) terminate in
///     bounded time with a structured FaultReport naming rank, peer, tag
///     and retry count — never as a hang.
///  4. Bypass-free when clean: with no faults configured, the transport
///     leaves no trace at all — counters zero, fault clock bitwise equal to
///     the clean clock, trace JSON free of transport artifacts.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "comm/sparse_allreduce.hpp"
#include "core/sptrsv3d.hpp"
#include "factor/sptrsv_seq.hpp"
#include "sparse/paper_matrices.hpp"
#include "test_support.hpp"
#include "trace/trace.hpp"

namespace sptrsv {
namespace {

using test::bitwise_equal;
using test::faulty_machine;
using test::max_abs_diff;
using test::message_counts_identical;
using test::random_rhs;
using test::shape_tree;
using test::stats_identical;
using test::test_machine;

RunOptions det_opts(std::uint64_t seed, bool trace = false) {
  RunOptions o;
  o.seed = seed;
  o.trace = trace;
  return o;
}

// ---------------------------------------------------------------------------
// The analytic transport itself.
// ---------------------------------------------------------------------------

TEST(Transport, ScheduleIsAPureFunctionOfSeedAndCounter) {
  const MachineModel m = faulty_machine(0.3, 0.1, 0.05, 0.1);
  const TransportOptions topt;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    std::uint64_t fa = 0, fb = 0;
    const TransportOutcome a = simulate_transport(
        m.perturb, topt, seed, /*src=*/0, /*dst=*/1, /*send_vt=*/1e-6,
        /*flight=*/2e-6, /*ack_flight=*/1e-6, /*overhead=*/5e-7, &fa);
    const TransportOutcome b = simulate_transport(
        m.perturb, topt, seed, 0, 1, 1e-6, 2e-6, 1e-6, 5e-7, &fb);
    EXPECT_EQ(fa, fb);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.acks, b.acks);
    EXPECT_EQ(a.duplicates, b.duplicates);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.extra_delay, b.extra_delay);  // bitwise: same draws, same math
  }
}

TEST(Transport, ChecksumDetectsBitFlips) {
  std::vector<Real> payload(17);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<Real>(i) * 0.5;
  const std::uint64_t clean = payload_checksum(payload);
  EXPECT_EQ(clean, payload_checksum(payload));
  auto flipped = payload;
  auto* bits = reinterpret_cast<unsigned char*>(flipped.data());
  bits[3] ^= 0x10;
  EXPECT_NE(clean, payload_checksum(flipped));
}

TEST(Transport, FrameChecksumCoversTheHeader) {
  // A corrupted header must not be able to deliver an intact-looking
  // payload to the wrong wait: the stamped checksum covers (src, dst, tag,
  // seq) before the payload bytes.
  std::vector<Real> payload{1.0, 2.0, 3.0};
  const std::uint64_t base = frame_checksum(0, 1, 7, /*seq=*/5, payload);
  EXPECT_EQ(base, frame_checksum(0, 1, 7, 5, payload));  // deterministic
  EXPECT_NE(base, frame_checksum(2, 1, 7, 5, payload));  // src flip
  EXPECT_NE(base, frame_checksum(0, 3, 7, 5, payload));  // dst flip
  EXPECT_NE(base, frame_checksum(0, 1, 8, 5, payload));  // tag flip
  EXPECT_NE(base, frame_checksum(0, 1, 7, 6, payload));  // seq flip
  auto flipped = payload;
  auto* bits = reinterpret_cast<unsigned char*>(flipped.data());
  bits[5] ^= 0x04;
  EXPECT_NE(base, frame_checksum(0, 1, 7, 5, flipped));  // payload flip
  // Header mixing is positional, not a plain byte concatenation: swapping
  // src and dst changes the digest even though the byte multiset matches.
  EXPECT_NE(frame_checksum(1, 0, 7, 5, payload), frame_checksum(0, 1, 7, 5, payload));
}

TEST(Transport, ChecksumsSeeEveryBitAndPairedSignFlips) {
  std::vector<Real> payload(17);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = 1.0 / static_cast<Real>(i + 3);
  const std::uint64_t clean = payload_checksum(payload);
  const std::uint64_t frame = frame_checksum(0, 1, 7, 5, payload);
  for (size_t i = 0; i < payload.size(); ++i) {
    for (int bit = 0; bit < 64; ++bit) {
      auto flipped = payload;
      flipped[i] = std::bit_cast<Real>(std::bit_cast<std::uint64_t>(flipped[i]) ^
                                       (std::uint64_t{1} << bit));
      EXPECT_NE(clean, payload_checksum(flipped)) << "word " << i << " bit " << bit;
      EXPECT_NE(frame, frame_checksum(0, 1, 7, 5, flipped)) << "word " << i << " bit " << bit;
    }
  }
  // The sign bits of two different words: a word-wise FNV-1a cancels this
  // pair, because its multiply turns a sign-bit flip into a sign-bit flip.
  for (const auto& [i, j] : {std::pair<size_t, size_t>{0, 1}, {3, 4}, {2, 16}}) {
    auto flipped = payload;
    flipped[i] = -flipped[i];
    flipped[j] = -flipped[j];
    EXPECT_NE(clean, payload_checksum(flipped)) << "words " << i << " and " << j;
    EXPECT_NE(frame, frame_checksum(0, 1, 7, 5, flipped)) << "words " << i << " and " << j;
  }
  // A trailing zero word changes the length, not any bit already hashed.
  auto longer = payload;
  longer.push_back(0.0);
  EXPECT_NE(clean, payload_checksum(longer));
}

TEST(Transport, LinkFaultsPickWorstMatch) {
  PerturbationModel pm;
  pm.drop_prob = 0.05;
  pm.link_faults.push_back({/*src=*/2, /*dst=*/-1, /*drop_prob=*/0.5});
  pm.link_faults.push_back({/*src=*/-1, /*dst=*/3, /*drop_prob=*/0.9});
  EXPECT_DOUBLE_EQ(drop_prob_for(pm, 0, 1), 0.05);
  EXPECT_DOUBLE_EQ(drop_prob_for(pm, 2, 1), 0.5);
  EXPECT_DOUBLE_EQ(drop_prob_for(pm, 2, 3), 0.9);
}

// ---------------------------------------------------------------------------
// Exact accounting: one message, replayed offline frame by frame.
// ---------------------------------------------------------------------------

TEST(FaultInjection, SingleMessageAccountingMatchesOfflineReplay) {
  MachineModel m = faulty_machine(/*drop=*/0.35, /*dup=*/0.15, /*corrupt=*/0.1,
                                  /*reorder=*/0.15);
  const std::vector<Real> payload{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  const double bytes = static_cast<double>(payload.size()) * sizeof(Real);

  // Find a seed whose schedule actually exercises a retransmission, so the
  // equalities below are not trivially 0 == 0.
  std::uint64_t seed = 0;
  TransportOutcome expect;
  for (; seed < 64; ++seed) {
    std::uint64_t fseq = 0;
    expect = simulate_transport(
        m.perturb, m.transport, seed, /*src=*/0, /*dst=*/1,
        /*send_vt=*/m.mpi_overhead,
        /*flight=*/m.net.latency + bytes / m.net.bandwidth,
        /*ack_flight=*/m.net.latency + kAckBytes / m.net.bandwidth,
        /*overhead=*/m.mpi_overhead, &fseq);
    if (expect.attempts > 1 && !expect.failed) break;
  }
  ASSERT_GT(expect.attempts, 1);
  ASSERT_FALSE(expect.failed);

  const Cluster::Result res = Cluster::run(
      2, m,
      [&](Comm& c) {
        if (c.rank() == 0) {
          c.send(1, /*tag=*/7, payload);
        } else {
          const Message msg = c.recv(0, 7);
          EXPECT_TRUE(bitwise_equal(msg.data, payload));
        }
      },
      det_opts(seed));

  const TransportStats t = res.transport_totals();
  EXPECT_EQ(t.data_frames, expect.attempts);
  EXPECT_EQ(t.retransmits, expect.attempts - 1);
  EXPECT_EQ(t.retrans_bytes,
            static_cast<std::int64_t>(expect.attempts - 1) *
                static_cast<std::int64_t>(bytes));
  EXPECT_EQ(t.timeouts, expect.timeouts);
  EXPECT_EQ(t.frames_dropped, expect.frames_dropped);
  EXPECT_EQ(t.acks, expect.acks);
  EXPECT_EQ(t.ack_bytes, expect.acks * static_cast<std::int64_t>(kAckBytes));
  EXPECT_EQ(t.corrupt_detected, expect.corrupt);
  EXPECT_EQ(t.duplicates, expect.duplicates);
  EXPECT_EQ(t.reordered, expect.reordered ? 1 : 0);

  // The receiver's recovery delay is exactly the schedule's extra delay, and
  // it lands on the fault clock only.
  const RankStats& recv = res.ranks[1];
  EXPECT_DOUBLE_EQ(recv.fault_vtime - recv.vtime, expect.extra_delay);
  EXPECT_EQ(res.ranks[0].fault_vtime, res.ranks[0].vtime);  // sender never blocks
  EXPECT_GE(res.fault_makespan(), res.makespan());
}

// ---------------------------------------------------------------------------
// Two-ledger invariant across the solver paths.
// ---------------------------------------------------------------------------

struct SolverCase {
  Algorithm3d alg;
  bool sparse_zreduce;
  const char* name;
};

class SolverFaultTest : public ::testing::TestWithParam<SolverCase> {};

TEST_P(SolverFaultTest, FingerprintInvariantUnderFaultSchedules) {
  const SolverCase& sc = GetParam();
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);

  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.algorithm = sc.alg;
  cfg.sparse_zreduce = sc.sparse_zreduce;

  cfg.run = det_opts(0);
  const DistSolveOutcome clean = solve_system_3d(fs, b, cfg, test_machine());
  ASSERT_FALSE(clean.run_stats.transport_totals().any());

  for (std::uint64_t seed : {1u, 7u, 23u}) {
    cfg.run = det_opts(seed);
    const DistSolveOutcome faulty = solve_system_3d(fs, b, cfg, faulty_machine());
    // Clean ledger: solution, virtual clocks, category times, message and
    // byte counts — all bit-identical to the fault-free run.
    EXPECT_TRUE(bitwise_equal(faulty.x, clean.x)) << sc.name << " seed " << seed;
    EXPECT_EQ(faulty.run_stats.fingerprint(), clean.run_stats.fingerprint())
        << sc.name << " seed " << seed;
    EXPECT_TRUE(message_counts_identical(faulty.run_stats, clean.run_stats));
    // Fault ledger: recovery cost is visible, never negative, and the fault
    // clock dominates the clean clock on every rank.
    EXPECT_GE(faulty.run_stats.fault_makespan(), faulty.run_stats.makespan());
    for (const auto& r : faulty.run_stats.ranks) {
      EXPECT_GE(r.fault_vtime, r.vtime);
    }
    // Replaying the same seed reproduces the fault ledger bit for bit.
    const DistSolveOutcome replay = solve_system_3d(fs, b, cfg, faulty_machine());
    EXPECT_TRUE(stats_identical(replay.run_stats, faulty.run_stats));
    EXPECT_EQ(replay.run_stats.fault_fingerprint(),
              faulty.run_stats.fault_fingerprint());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, SolverFaultTest,
    ::testing::Values(SolverCase{Algorithm3d::kProposed, true, "proposed_sparse"},
                      SolverCase{Algorithm3d::kProposed, false, "proposed_dense"},
                      SolverCase{Algorithm3d::kBaseline, true, "baseline"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(FaultInjection, RetransmitTrafficIsExactlyTheExcessOverClean) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);
  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.run = det_opts(3, /*trace=*/true);
  const DistSolveOutcome out = solve_system_3d(fs, b, cfg, faulty_machine());
  const TransportStats t = out.run_stats.transport_totals();
  ASSERT_NE(out.run_stats.trace, nullptr);
  // Every data frame is either a point-to-point send's first copy or an
  // accounted retransmission — nothing unattributed on the wire.
  EXPECT_EQ(t.data_frames,
            static_cast<std::int64_t>(out.run_stats.trace->num_sends()) +
                t.retransmits);
  EXPECT_GT(t.acks, 0);
  EXPECT_EQ(t.ack_bytes, t.acks * 16);
}

TEST(FaultInjection, SparseAllreduceCompletesUnderFaults) {
  const NdTree tree = shape_tree(3);
  const int pz = tree.num_leaves();
  for (const bool dense : {false, true}) {
    Cluster::run(
        pz, faulty_machine(),
        [&](Comm& c) {
          const int z = c.rank();
          std::vector<std::vector<Real>> storage;
          std::vector<ReduceSegment> segs;
          std::vector<Idx> my_nodes;
          for (Idx id : tree.path_to_root(tree.leaf_node_id(z))) {
            if (tree.node(id).depth >= tree.levels()) continue;
            my_nodes.push_back(id);
            auto& buf = storage.emplace_back(static_cast<size_t>(id % 3 + 1));
            for (size_t i = 0; i < buf.size(); ++i) {
              buf[i] = static_cast<Real>(z * 100 + id * 10) + static_cast<Real>(i);
            }
          }
          for (size_t k = 0; k < my_nodes.size(); ++k) {
            segs.push_back({my_nodes[k], storage[k]});
          }
          if (dense) {
            dense_allreduce_per_node(c, tree, segs);
          } else {
            sparse_allreduce(c, tree, segs);
          }
          for (size_t k = 0; k < my_nodes.size(); ++k) {
            const Idx id = my_nodes[k];
            const auto [lo, hi] = tree.leaf_range(id);
            for (size_t i = 0; i < storage[k].size(); ++i) {
              Real expect = 0;
              for (Idx g = lo; g < hi; ++g) {
                expect += static_cast<Real>(g * 100 + id * 10) + static_cast<Real>(i);
              }
              EXPECT_NEAR(storage[k][i], expect, 1e-12);
            }
          }
        },
        det_opts(11));
  }
}

TEST(FaultInjection, DefaultOptionsSolveUnderFaults) {
  // With default run options the solve must complete under faults and the
  // solution — fixed by plan-order reductions, not arrival order — must
  // match the sequential reference.
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);
  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.run.seed = 5;
  const DistSolveOutcome out = solve_system_3d(fs, b, cfg, faulty_machine());
  const auto ref = solve_system_seq(fs, b, 1);
  EXPECT_LT(max_abs_diff(out.x, ref), 1e-9);
}

// ---------------------------------------------------------------------------
// Unrecoverable schedules: structured failure, never a hang.
// ---------------------------------------------------------------------------

TEST(FaultInjection, RetriesExhaustedProducesFaultReport) {
  MachineModel m = test_machine();
  m.perturb.drop_prob = 1.0;
  m.transport.max_retries = 3;
  const Cluster::Result res = Cluster::try_run(2, m, [](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, /*tag=*/7, std::vector<Real>{1.0});
    } else {
      c.recv(0, 7);
      ADD_FAILURE() << "recv of an undeliverable message returned";
    }
  });
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.fault.kind, FaultKind::kRetriesExhausted);
  EXPECT_EQ(res.fault.rank, 1);
  EXPECT_EQ(res.fault.peer, 0);
  EXPECT_EQ(res.fault.tag, 7);
  EXPECT_EQ(res.fault.retries, 3);
  EXPECT_NE(res.error.find("retries-exhausted"), std::string::npos);
}

TEST(FaultInjection, PermanentStallReported) {
  MachineModel m = test_machine();
  m.perturb.stalls.push_back({/*rank=*/0, /*vt_begin=*/0.0,
                              /*vt_end=*/std::numeric_limits<double>::infinity(),
                              /*flight_factor=*/1.0, /*permanent=*/true});
  m.transport.max_retries = 2;
  const Cluster::Result res = Cluster::try_run(
      2, m,
      [](Comm& c) {
        if (c.rank() == 0) {
          c.send(1, /*tag=*/3, std::vector<Real>{1.0});
        } else {
          c.recv(0, 3);
        }
      },
      det_opts(0));
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.fault.kind, FaultKind::kRankStalled);
  EXPECT_EQ(res.fault.peer, 0);
}

TEST(FaultInjection, TransientStallRecoversAndChargesTheFaultClock) {
  MachineModel m = test_machine();
  // An outage covering the first send: the initial attempts vanish, a
  // retransmit after vt_end gets through.
  m.perturb.stalls.push_back({/*rank=*/1, /*vt_begin=*/0.0, /*vt_end=*/1e-4,
                              /*flight_factor=*/1.0, /*permanent=*/true});
  const auto program = [](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, /*tag=*/1, std::vector<Real>{2.5});
    } else {
      const Message msg = c.recv(0, 1);
      EXPECT_EQ(msg.data[0], 2.5);
    }
  };
  const Cluster::Result res = Cluster::run(2, m, program, det_opts(0));
  const TransportStats t = res.transport_totals();
  EXPECT_GT(t.retransmits, 0);
  EXPECT_GE(res.ranks[1].fault_vtime - res.ranks[1].vtime, 1e-4 - 1e-9);
  EXPECT_EQ(res.fault_makespan(), res.ranks[1].fault_vtime);
  // The outage lands on the fault clock only: the clean ledger is the
  // stall-free run's.
  const Cluster::Result clean = Cluster::run(2, test_machine(), program, det_opts(0));
  EXPECT_EQ(res.fingerprint(), clean.fingerprint());
  EXPECT_TRUE(message_counts_identical(res, clean));
  EXPECT_GT(res.fault_makespan(), res.makespan());
}

TEST(FaultInjection, StalledRingWithCheckpointEpochsKeepsTheCleanLedger) {
  // A ring with a checkpoint epoch per round, so the stall's lag passes
  // through Comm::checkpoint_epoch as well as the transport.
  const auto ring_rounds = [](Comm& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    for (int e = 0; e < 6; ++e) {
      c.send(next, /*tag=*/100 + e, std::vector<Real>{1.0});
      c.recv(prev, 100 + e);
      c.advance(1e-5, TimeCategory::kFp);
      c.checkpoint_epoch(e);
    }
    c.barrier();
  };
  // A transient outage of rank 1 early in the run: frames to/from it are
  // lost until vt_end, so its neighbours' retransmits land ~1e-4 of lag on
  // the fault clock while the clean clock never moves.
  MachineModel m = test_machine();
  m.perturb.stalls.push_back({/*rank=*/1, /*vt_begin=*/0.0, /*vt_end=*/1e-4,
                              /*flight_factor=*/1.0, /*permanent=*/true});
  const Cluster::Result clean = Cluster::run(4, test_machine(), ring_rounds, det_opts(0));
  const Cluster::Result stalled = Cluster::run(4, m, ring_rounds, det_opts(0));
  EXPECT_GT(stalled.transport_totals().retransmits, 0);
  EXPECT_EQ(stalled.fingerprint(), clean.fingerprint());
  EXPECT_TRUE(message_counts_identical(stalled, clean));
  EXPECT_GT(stalled.fault_makespan(), stalled.makespan());
}

TEST(FaultInjection, SolverFaultNamesThePhase) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);
  MachineModel m = test_machine();
  m.perturb.drop_prob = 1.0;
  m.transport.max_retries = 1;
  SolveConfig cfg;
  cfg.shape = {2, 2, 1};
  cfg.run = det_opts(0);
  try {
    solve_system_3d(fs, b, cfg, m);
    FAIL() << "solve under total loss should raise a FaultError";
  } catch (const FaultError& fe) {
    EXPECT_EQ(fe.report.kind, FaultKind::kRetriesExhausted);
    EXPECT_NE(fe.report.detail.find("sptrsv3d L-solve"), std::string::npos)
        << "detail: " << fe.report.detail;
    EXPECT_NE(fe.report.detail.find("solve_l_2d"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Watchdog: hangs become structured reports.
// ---------------------------------------------------------------------------

TEST(Watchdog, DeterministicRecvDeadlock) {
  const Cluster::Result res = Cluster::try_run(
      2, test_machine(),
      [](Comm& c) {
        if (c.rank() == 1) c.recv(0, /*tag=*/9);  // no one will ever send
      },
      det_opts(0));
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.fault.kind, FaultKind::kDeadlock);
  EXPECT_NE(res.fault.detail.find("waiting on recv"), std::string::npos)
      << "detail: " << res.fault.detail;
}

TEST(Watchdog, CyclicWaitReportNamesEveryWaitingPair) {
  // Hand-built 4-cycle: rank r waits on rank (r+1)%4 with tag 40+r, so no
  // rank can ever progress. The report must carry the witness's own
  // (src, tag) pair in the structured fields AND name all four members of
  // the deadlocked set, each with the exact (src, tag window) it sits on —
  // that text is what a user debugging a wedged solve acts on.
  constexpr int kP = 4;
  const Cluster::Result res = Cluster::try_run(
      kP, test_machine(),
      [](Comm& c) { c.recv((c.rank() + 1) % c.size(), 40 + c.rank()); });
  EXPECT_FALSE(res.ok());
  ASSERT_EQ(res.fault.kind, FaultKind::kDeadlock);
  ASSERT_GE(res.fault.rank, 0);
  ASSERT_LT(res.fault.rank, kP);
  EXPECT_EQ(res.fault.peer, (res.fault.rank + 1) % kP);
  EXPECT_EQ(res.fault.tag, 40 + res.fault.rank);
  for (int r = 0; r < kP; ++r) {
    char expect[64];
    std::snprintf(expect, sizeof(expect), "rank %d waiting on recv(src=%d, tags[%d,%d)",
                  r, (r + 1) % kP, 40 + r, 41 + r);
    EXPECT_NE(res.fault.detail.find(expect), std::string::npos)
        << "report does not name rank " << r << "'s wait; detail: " << res.fault.detail;
  }
  // Post-mortem flight recorder (docs/OBSERVABILITY.md): the dump rides on
  // the report and must also name every member's parked receive — recv
  // waits are recorded *before* parking exactly so a wedged rank still
  // appears.
  ASSERT_FALSE(res.fault.flight.empty());
  for (int r = 0; r < kP; ++r) {
    char expect[64];
    std::snprintf(expect, sizeof(expect), "recv-wait(src=%d, tags[%d,%d))",
                  (r + 1) % kP, 40 + r, 41 + r);
    bool found = false;
    for (const std::string& line : res.fault.flight) {
      if (line.rfind("rank " + std::to_string(r) + ":", 0) == 0 &&
          line.find(expect) != std::string::npos) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << "flight dump does not name rank " << r << "'s wait";
  }
}

TEST(Watchdog, DefaultOptionsRecvDeadlock) {
  // Deadlock detection needs no opt-in: default options report it too.
  const Cluster::Result res = Cluster::try_run(2, test_machine(), [](Comm& c) {
    if (c.rank() == 1) c.recv(0, /*tag=*/9);
  });
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.fault.kind, FaultKind::kDeadlock);
  EXPECT_NE(res.fault.detail.find("waiting on recv"), std::string::npos);
}

TEST(Watchdog, CollectiveDeadlockWhenAMemberExits) {
  const Cluster::Result res = Cluster::try_run(2, test_machine(), [](Comm& c) {
    if (c.rank() == 0) c.barrier();  // rank 1 returns without joining
  });
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.fault.kind, FaultKind::kDeadlock);
  EXPECT_NE(res.fault.detail.find("collective"), std::string::npos);
}

TEST(Watchdog, VtLimitBoundsRunawayClocks) {
  RunOptions opts = det_opts(0);
  opts.vt_limit = 1e-3;
  const Cluster::Result res = Cluster::try_run(
      1, test_machine(),
      [](Comm& c) {
        for (;;) c.compute(1e9);  // ~0.2 s of virtual time per call
      },
      opts);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.fault.kind, FaultKind::kVtLimit);
  EXPECT_GT(res.fault.vt, 1e-3);
}

TEST(Watchdog, ExceptionsStillPoisonPeersFirst) {
  // A rank failure must abort blocked peers (poison), not trip deadlock
  // detection: the error surfaced is the original one.
  const Cluster::Result res = Cluster::try_run(4, test_machine(), [](Comm& c) {
    if (c.rank() == 3) throw std::runtime_error("boom");
    c.recv((c.rank() + 1) % 4, 0);  // everyone else blocks forever
  });
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.fault.kind, FaultKind::kNone) << res.error;
  EXPECT_NE(res.error.find("boom"), std::string::npos);
}

TEST(Watchdog, BadSourceIsAnImmediateError) {
  EXPECT_THROW(Cluster::run(2, test_machine(),
                            [](Comm& c) {
                              if (c.rank() == 0) c.recv(5, 0);
                            }),
               std::out_of_range);
}

// ---------------------------------------------------------------------------
// Bypass-free when clean.
// ---------------------------------------------------------------------------

TEST(CleanBypass, NoTransportArtifactsWithoutFaults) {
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);
  SolveConfig cfg;
  cfg.shape = {2, 2, 2};
  cfg.run = det_opts(0, /*trace=*/true);
  const DistSolveOutcome out = solve_system_3d(fs, b, cfg, test_machine());

  EXPECT_FALSE(out.run_stats.transport_totals().any());
  for (const auto& r : out.run_stats.ranks) {
    // Bitwise: the fault clock mirrors the clean clock's arithmetic exactly.
    EXPECT_TRUE(bitwise_equal({&r.fault_vtime, 1}, {&r.vtime, 1}));
  }
  EXPECT_EQ(out.run_stats.fault_makespan(), out.run_stats.makespan());

  ASSERT_NE(out.run_stats.trace, nullptr);
  const std::string json = out.run_stats.trace->chrome_json();
  EXPECT_EQ(json.find("retrans"), std::string::npos);
  EXPECT_EQ(json.find("fault_delay_us"), std::string::npos);
  EXPECT_EQ(json.find("transport"), std::string::npos);
}

TEST(CleanBypass, FaultySeedsLeaveCleanTraceJsonByteIdentical) {
  // The clean trace of a faulty run must serialize byte-identically to the
  // trace of a fault-free run except for the transport annotations — i.e.
  // stripping nothing, the fault-free JSON is reproducible across seeds of
  // a *clean* machine (delivery knobs ignored when zero).
  const CsrMatrix a = make_paper_matrix(PaperMatrix::kS2D9pt2048, MatrixScale::kTiny);
  const FactoredSystem fs = analyze_and_factor(a, /*nd_levels=*/3);
  const auto b = random_rhs(a.rows(), 1, 42);
  SolveConfig cfg;
  cfg.shape = {2, 2, 1};
  cfg.run = det_opts(4, /*trace=*/true);
  const DistSolveOutcome c1 = solve_system_3d(fs, b, cfg, test_machine());
  cfg.run = det_opts(9, /*trace=*/true);
  const DistSolveOutcome c2 = solve_system_3d(fs, b, cfg, test_machine());
  ASSERT_NE(c1.run_stats.trace, nullptr);
  ASSERT_NE(c2.run_stats.trace, nullptr);
  EXPECT_EQ(c1.run_stats.trace->chrome_json(), c2.run_stats.trace->chrome_json());
}

TEST(CleanBypass, FaultFingerprintExtendsCleanFingerprint) {
  const Cluster::Result a = Cluster::run(
      2, test_machine(),
      [](Comm& c) {
        if (c.rank() == 0) c.send(1, 0, std::vector<Real>{1.0});
        else c.recv(0, 0);
      },
      det_opts(0));
  const Cluster::Result b = Cluster::run(
      2, test_machine(),
      [](Comm& c) {
        if (c.rank() == 0) c.send(1, 0, std::vector<Real>{1.0});
        else c.recv(0, 0);
      },
      det_opts(0));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fault_fingerprint(), b.fault_fingerprint());
  EXPECT_NE(a.fingerprint(), a.fault_fingerprint());  // distinct domains
}

}  // namespace
}  // namespace sptrsv
