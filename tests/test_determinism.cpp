#include <gtest/gtest.h>

#include <cfenv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "comm/sparse_allreduce.hpp"
#include "core/sptrsv3d.hpp"
#include "factor/sptrsv_seq.hpp"
#include "ordering/etree.hpp"
#include "symbolic/colcounts.hpp"
#include "test_support.hpp"

namespace sptrsv {
namespace {

using test::bitwise_equal;
using test::message_counts_identical;
using test::outcomes_identical;
using test::perturbed_machine;
using test::random_rhs;
using test::random_system;
using test::shape_tree;
using test::stats_identical;
using test::test_machine;

constexpr RunOptions kDet{.seed = 0};

// ---------------------------------------------------------------------------
// Scheduler unit tests: the token protocol itself.
// ---------------------------------------------------------------------------

TEST(DetScheduler, WildcardTakesGloballyEarliestArrival) {
  // Rank r>0 computes r virtual seconds then sends; rank 0 receives with a
  // wildcard. The receive order must be exactly the virtual-arrival order
  // (1, 2, ..., P-1) in every run — even though the later senders'
  // messages are often queued before rank 0 first looks.
  const int P = 8;
  for (int run = 0; run < 3; ++run) {
    Cluster::run(
        P, test_machine(),
        [](Comm& c) {
          if (c.rank() == 0) {
            for (int i = 1; i < c.size(); ++i) {
              const Message m = c.recv(kAnySource, 7);
              EXPECT_EQ(m.src, i) << "receive " << i << " out of arrival order";
            }
          } else {
            c.compute(static_cast<double>(c.rank()) * 1e6);
            c.send(0, 7, {static_cast<Real>(c.rank())});
          }
        },
        kDet);
  }
}

TEST(DetScheduler, MessageToAYieldedRankLowersItsKey) {
  // Rank 1 yields on its wildcard receive while only rank 3's late message
  // (arrival ~83.5 us) is queued. Rank 0's message then reaches it with an
  // earlier arrival, so rank 1 can still run early and send rank 2 a
  // message arriving at 9.5 us, long before rank 3's 53.5 us one. Rank 2's
  // wildcard receives must take the two in arrival order under every
  // policy: the delivery to the yielded rank has to lower its ready key.
  auto program = [](Comm& c) {
    switch (c.rank()) {
      case 3:
        c.send(0, 0, {3.0});
        c.advance(50e-6, TimeCategory::kOther);
        c.send(2, 2, {3.0});
        c.advance(30e-6, TimeCategory::kOther);
        c.send(1, 1, {3.0});
        break;
      case 0:
        c.recv(3, 0);
        c.send(1, 1, {0.0});
        break;
      case 1:
        c.recv(kAnySource, 1);
        c.send(2, 2, {1.0});
        break;
      case 2: {
        const Message first = c.recv(kAnySource, 2);
        const Message second = c.recv(kAnySource, 2);
        EXPECT_EQ(first.src, 1) << "receive out of arrival order";
        EXPECT_EQ(second.src, 3);
        EXPECT_LT(first.arrival, second.arrival);
        break;
      }
    }
  };
  Cluster::run(4, test_machine(), program, kDet);
  for (const SchedulePolicy policy :
       {SchedulePolicy::kRandomPriority, SchedulePolicy::kDelayBounded}) {
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      SCOPED_TRACE(::testing::Message() << "policy " << static_cast<int>(policy)
                                        << " seed " << seed);
      RunOptions opts;
      opts.schedule = policy;
      opts.schedule_seed = seed;
      Cluster::run(4, test_machine(), program, opts);
    }
  }
}

TEST(DetScheduler, FingerprintStableAcrossRuns) {
  // Messy all-to-all traffic with wildcard receives; three runs must agree
  // on every statistic bit.
  auto program = [](Comm& c) {
    for (int d = 0; d < c.size(); ++d) {
      if (d != c.rank()) {
        c.send(d, c.rank(), std::vector<Real>(8, 1.0), TimeCategory::kXyComm);
      }
    }
    double acc = 0;
    for (int i = 0; i + 1 < c.size(); ++i) {
      const Message m = c.recv(kAnySource, kAnyTag, TimeCategory::kXyComm);
      acc = acc * 1.0000001 + m.data[0] * m.src;
    }
    c.barrier();
    c.allreduce_sum(std::vector<Real>{acc}, TimeCategory::kZComm);
  };
  const auto r0 = Cluster::run(6, test_machine(), program, kDet);
  const auto r1 = Cluster::run(6, test_machine(), program, kDet);
  const auto r2 = Cluster::run(6, test_machine(), program, kDet);
  EXPECT_TRUE(stats_identical(r0, r1));
  EXPECT_TRUE(stats_identical(r0, r2));
  EXPECT_EQ(r0.fingerprint(), r1.fingerprint());
  EXPECT_EQ(r0.fingerprint(), r2.fingerprint());
}

TEST(DetScheduler, ExceptionsStillPropagate) {
  EXPECT_THROW(Cluster::run(
                   4, test_machine(),
                   [](Comm& c) {
                     if (c.rank() == 2) throw std::runtime_error("rank 2 died");
                     c.recv(kAnySource, kAnyTag);
                   },
                   kDet),
               std::runtime_error);
  EXPECT_THROW(Cluster::run(
                   3, test_machine(),
                   [](Comm& c) {
                     if (c.rank() == 0) throw std::logic_error("boom");
                     c.barrier();
                   },
                   kDet),
               std::logic_error);
}

/// FNV-1a over a certificate's text form: a short, stable digest of the
/// whole grant sequence.
std::string certificate_digest(const ScheduleCertificate& cert) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : cert.to_string()) {
    h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

TEST(DetScheduler, FifoGrantOrderIsPinned) {
  // Fingerprints only pin the clean ledger; these digests pin the exact
  // FIFO grant sequence, so any change to how the scheduler finds its
  // minimal (key, rank) READY rank must keep granting in this order.
  auto check = [](const char* what, const ScheduleCertificate& cert,
                  std::size_t grants, const char* digest) {
    SCOPED_TRACE(what);
    EXPECT_EQ(cert.policy, SchedulePolicy::kFifo);
    EXPECT_EQ(cert.grants.size(), grants);
    EXPECT_EQ(certificate_digest(cert), digest);
  };

  const auto wildcard = Cluster::run(
      8, test_machine(),
      [](Comm& c) {
        if (c.rank() == 0) {
          for (int i = 1; i < c.size(); ++i) c.recv(kAnySource, 7);
        } else {
          c.compute(static_cast<double>(c.rank()) * 1e6);
          c.send(0, 7, {static_cast<Real>(c.rank())});
        }
      },
      kDet);
  check("wildcard", wildcard.schedule, 10, "6744d450d93b6ec4");

  {
    const CsrMatrix a = make_grid2d(12, 12, Stencil2d::kNinePoint, {.seed = 11});
    const FactoredSystem fs = analyze_and_factor(a, 0);
    const auto b = random_rhs(a.rows(), 1, 3);
    const auto out = test::solve_system_2d(fs, {3, 2}, b, 1, test_machine(), kDet);
    check("2d 3x2", out.run.schedule, 49, "b929c9558c9f41fa");
  }

  {
    const CsrMatrix a = make_grid2d(12, 12, Stencil2d::kNinePoint, {.seed = 5});
    const FactoredSystem fs = analyze_and_factor(a, 3);
    const auto b = random_rhs(a.rows(), 2, 4);
    SolveConfig cfg;
    cfg.shape = {2, 2, 2};
    cfg.nrhs = 2;
    cfg.run = kDet;
    cfg.algorithm = Algorithm3d::kProposed;
    check("3d proposed 2x2x2",
          solve_system_3d(fs, b, cfg, test_machine()).run_stats.schedule, 100,
          "cdc8d30d16f57962");
    cfg.algorithm = Algorithm3d::kBaseline;
    check("3d baseline 2x2x2",
          solve_system_3d(fs, b, cfg, test_machine()).run_stats.schedule, 100,
          "cdc8d30d16f57962");
  }

  constexpr int kRing = 128;
  const auto ring = Cluster::run(
      kRing, test_machine(),
      [](Comm& c) {
        for (int r = 0; r < 4; ++r) {
          c.send((c.rank() + 1) % kRing, r, std::vector<Real>(8, 1.0));
          c.recv((c.rank() + kRing - 1) % kRing, r);
        }
      },
      kDet);
  check("ring p128", ring.schedule, 640, "8d80cd17f703cabb");
}

TEST(DetScheduler, RethrowInsideHandlerSurvivesParking) {
  // Each rank parks inside its own catch handler; when it resumes, a bare
  // `throw;` must rethrow the rank's own exception, not whichever one the
  // rank that ran in between was handling.
  std::string rethrown[2];
  Cluster::run(
      2, test_machine(),
      [&](Comm& c) {
        const int peer = 1 - c.rank();
        try {
          throw std::runtime_error(c.rank() == 0 ? "mine" : "theirs");
        } catch (const std::runtime_error&) {
          if (c.rank() == 1) c.send(peer, 0, {1.0});
          c.recv(peer, c.rank());  // rank 0 parks here first, then rank 1
          if (c.rank() == 0) c.send(peer, 1, {1.0});
          try {
            throw;
          } catch (const std::runtime_error& e) {
            rethrown[c.rank()] = e.what();
          }
        }
      },
      kDet);
  EXPECT_EQ(rethrown[0], "mine");
  EXPECT_EQ(rethrown[1], "theirs");
}

TEST(DetScheduler, RoundingModeStaysWithItsFiber) {
  // The switch carries each fiber's FP control registers: rank 0 rounds
  // upward across its park, while rank 1, running in between, keeps the
  // mode the run started with.
  const int caller_mode = std::fegetround();
  int seen[3] = {-1, -1, -1};
  Cluster::run(
      2, test_machine(),
      [&](Comm& c) {
        if (c.rank() == 0) {
          std::fesetround(FE_UPWARD);
          c.recv(1, 0);  // parks; rank 1 runs
          seen[2] = std::fegetround();
          std::fesetround(caller_mode);
          return;
        }
        seen[1] = std::fegetround();
        c.send(0, 0, {1.0});
      },
      kDet);
  seen[0] = std::fegetround();
  EXPECT_EQ(seen[1], FE_TONEAREST);
  EXPECT_EQ(seen[2], FE_UPWARD);
  EXPECT_EQ(seen[0], caller_mode);
}

TEST(DetScheduler, RanksRunOnTheCallingThread) {
  constexpr int kP = 16;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> before(kP), after(kP);
  Cluster::run(
      kP, test_machine(),
      [&](Comm& c) {
        before[static_cast<size_t>(c.rank())] = std::this_thread::get_id();
        c.barrier();  // every rank parks at least once
        after[static_cast<size_t>(c.rank())] = std::this_thread::get_id();
      },
      kDet);
  for (int r = 0; r < kP; ++r) {
    EXPECT_EQ(before[static_cast<size_t>(r)], caller) << "rank " << r;
    EXPECT_EQ(after[static_cast<size_t>(r)], caller) << "rank " << r;
  }
}

TEST(DetScheduler, RingOf4096RanksCompletes) {
  constexpr int kP = 4096;
  constexpr int kRounds = 2;
  constexpr int kWords = 8;
  const auto res = Cluster::run(
      kP, test_machine(),
      [](Comm& c) {
        for (int r = 0; r < kRounds; ++r) {
          c.send((c.rank() + 1) % kP, r, std::vector<Real>(kWords, 1.0),
                 TimeCategory::kXyComm);
          c.recv((c.rank() + kP - 1) % kP, r, TimeCategory::kXyComm);
        }
      },
      kDet);
  ASSERT_EQ(res.ranks.size(), static_cast<size_t>(kP));
  const int xy = static_cast<int>(TimeCategory::kXyComm);
  for (const RankStats& r : res.ranks) {
    EXPECT_EQ(r.messages[xy], kRounds);
    EXPECT_EQ(r.bytes[xy], kRounds * kWords * static_cast<std::int64_t>(sizeof(Real)));
  }
}

/// Recurses with a fixed-size frame until the stack runs out.
__attribute__((noinline)) int recurse_forever(int depth) {
  volatile char pad[256];
  pad[0] = static_cast<char>(depth);
  if (depth == std::numeric_limits<int>::max()) return pad[0];
  return recurse_forever(depth + 1) + pad[0];
}

/// Window the overflowing rank's guard page must fall in, derived from the
/// address of a local near the top of its fiber stack.
std::uintptr_t g_guard_lo = 0;
std::uintptr_t g_guard_hi = 0;

void report_segv(int, siginfo_t* info, void*) {
  const auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
  const char* msg = addr >= g_guard_lo && addr < g_guard_hi
                        ? "fault on the fiber guard page\n"
                        : "fault outside the fiber guard page\n";
  (void)!write(STDERR_FILENO, msg, std::strlen(msg));
  _exit(1);
}

void overflow_rank_one() {
  // The overflow exhausts the fiber stack, so the handler needs its own.
  static char alt[64 * 1024];
  stack_t ss{};
  ss.ss_sp = alt;
  ss.ss_size = sizeof(alt);
  sigaltstack(&ss, nullptr);
  struct sigaction sa {};
  sa.sa_sigaction = report_segv;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigaction(SIGSEGV, &sa, nullptr);
  Cluster::run(
      2, test_machine(),
      [](Comm& c) {
        if (c.rank() == 0) {
          c.recv(1, 0);  // parks: rank 0's stack stays live below rank 1's
          return;
        }
        // The frames above this local (fiber entry, rank body) take far
        // less than 64 KiB, so the stack's base — with the guard page just
        // under it — lies within that distance above &top - kFiberStackBytes.
        char top = 0;
        const std::uintptr_t floor = reinterpret_cast<std::uintptr_t>(&top) - kFiberStackBytes;
        g_guard_lo = floor - static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
        g_guard_hi = floor + 64 * 1024;
        recurse_forever(0);
        c.send(0, 0, {1.0});
      },
      kDet);
}

TEST(DetSchedulerDeathTest, StackOverflowDiesOnTheGuardPage) {
  EXPECT_DEATH(overflow_rank_one(), "fault on the fiber guard page");
}

TEST(DetSchedulerDeathTest, ReusedStacksKeepTheirGuardPages) {
  // A finished run leaves its stack mapping for the next run on the thread;
  // the two-rank overflow below runs on that larger mapping's first slots.
  Cluster::run(4, test_machine(), [](Comm& c) { c.barrier(); }, kDet);
  EXPECT_DEATH(overflow_rank_one(), "fault on the fiber guard page");
}

// ---------------------------------------------------------------------------
// Collective reduction order is pinned by rank, not arrival.
// ---------------------------------------------------------------------------

TEST(ReductionOrder, AllreduceSumsInRankOrder) {
  // 0.1 + 0.2 + 0.3 is not FP-associative; the result must be the exact
  // left-to-right rank-order sum.
  const Real expected = ((Real{0.1} + Real{0.2}) + Real{0.3});
  Cluster::run(3, test_machine(), [&](Comm& c) {
    // Stagger clocks so deposit order != rank order.
    c.compute(static_cast<double>(2 - c.rank()) * 1e7);
    const std::vector<Real> mine{Real{0.1} * (c.rank() + 1)};
    const auto out = c.allreduce_sum(mine, TimeCategory::kOther);
    const Real got = out.at(0);
    EXPECT_EQ(std::memcmp(&got, &expected, sizeof(Real)), 0)
        << "allreduce order not rank-pinned";
  });
}

TEST(ReductionOrder, LSolvePinnedToPlanOrder) {
  // Reference reimplementation of the documented L reduction order — own
  // blocks by ascending column, then child partials by ascending source
  // rank (flat tree: children are leaves) — compared bitwise against the
  // distributed solve on a 1 x P grid, where each row's partial sums come
  // from all P ranks.
  const Idx n = 12;
  const CsrMatrix a = make_banded(n, n - 1);  // dense lower triangle
  const auto parent = elimination_tree(a);
  const auto counts = cholesky_col_counts(a, parent);
  SupernodeOptions opt;
  opt.max_width = 1;
  opt.relax_width = 0;
  const SupernodalLU lu =
      factor_supernodal(a, block_symbolic(a, find_supernodes(parent, counts, opt)));

  const int P = 4;
  std::vector<Idx> cols(static_cast<size_t>(n));
  for (Idx k = 0; k < n; ++k) cols[static_cast<size_t>(k)] = k;
  const Solve2dPlan plan = Solve2dPlan::build(lu, {1, P}, TreeKind::kFlat, cols, {});
  const Grid2dShape shape{1, P};

  const auto b = random_rhs(n, 1, 99);
  VecMap b_map;
  for (Idx i = 0; i < n; ++i) b_map[i] = {b[static_cast<size_t>(i)]};

  // Distributed solve; gather y from the diag owners.
  std::vector<Real> y_dist(static_cast<size_t>(n), 0.0);
  Cluster::run(
      P, test_machine(),
      [&](Comm& c) {
        const auto res = solve_l_2d(c, plan, b_map, {}, 1, 0);
        for (const auto& [i, y] : res.y) y_dist[static_cast<size_t>(i)] = y.at(0);
      },
      kDet);

  // Reference: sequential, same order.
  std::vector<Real> y_ref(static_cast<size_t>(n), 0.0);
  const Solve2dPlan::View lower = plan.view(Triangle::kLower);
  for (Idx i = 0; i < n; ++i) {
    const Idx rp = lower.target_pos(i);
    const TreeView t = lower.reduce(rp);
    const auto pat = lower.contributors(rp);
    const auto pidx = lower.block_index(rp);
    auto partial = [&](int member) {
      Real s = 0;
      for (size_t pi = 0; pi < pat.size(); ++pi) {
        const Idx k = pat[pi];
        if (shape.owner_col(k) != shape.col_of(member)) continue;
        const Idx off =
            lu.sym.below_offset[static_cast<size_t>(k)][static_cast<size_t>(pidx[pi])];
        s += lu.lpanel[static_cast<size_t>(k)][static_cast<size_t>(off)] *
             y_ref[static_cast<size_t>(k)];
      }
      return s;
    };
    Real lsum = partial(t.root());
    for (int r = 0; r < P; ++r) {
      if (r != t.root() && t.contains(r)) lsum += partial(r);
    }
    y_ref[static_cast<size_t>(i)] =
        lu.diag_linv[static_cast<size_t>(i)].at(0) * (b[static_cast<size_t>(i)] - lsum);
  }
  EXPECT_TRUE(bitwise_equal(y_dist, y_ref));
}

// ---------------------------------------------------------------------------
// Property suite: ~20 random systems, every solver, two deterministic runs
// bitwise identical; perturbation seeds move timings but nothing else.
// ---------------------------------------------------------------------------

class DeterminismProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismProperty, SolversAreBitReproducible) {
  const auto sys = random_system(GetParam());
  SCOPED_TRACE(sys.name);
  const auto b = random_rhs(sys.a.rows(), sys.nrhs, GetParam() ^ 0xb);

  for (const auto alg : {Algorithm3d::kProposed, Algorithm3d::kBaseline}) {
    SolveConfig cfg;
    cfg.shape = sys.shape;
    cfg.algorithm = alg;
    cfg.nrhs = sys.nrhs;
    cfg.run = kDet;
    const auto out1 = solve_system_3d(sys.fs, b, cfg, test_machine());
    const auto out2 = solve_system_3d(sys.fs, b, cfg, test_machine());
    EXPECT_TRUE(outcomes_identical(out1, out2));
    EXPECT_EQ(out1.run_stats.fingerprint(), out2.run_stats.fingerprint());
    EXPECT_EQ(out1.makespan, out2.makespan);
  }
}

TEST_P(DeterminismProperty, PerturbationsMoveOnlyTimings) {
  const auto sys = random_system(GetParam());
  SCOPED_TRACE(sys.name);
  const auto b = random_rhs(sys.a.rows(), sys.nrhs, GetParam() ^ 0xc);

  SolveConfig cfg;
  cfg.shape = sys.shape;
  cfg.nrhs = sys.nrhs;
  cfg.run = kDet;
  const auto base = solve_system_3d(sys.fs, b, cfg, test_machine());

  const MachineModel pm = perturbed_machine();
  bool some_timing_moved = false;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    cfg.run = RunOptions{.seed = seed};
    const auto out = solve_system_3d(sys.fs, b, cfg, pm);
    // Solutions and message counts are invariant under any perturbation...
    EXPECT_TRUE(bitwise_equal(base.x, out.x)) << "seed " << seed;
    EXPECT_TRUE(message_counts_identical(base.run_stats, out.run_stats))
        << "seed " << seed;
    // ...and a perturbed run is itself reproducible.
    const auto out2 = solve_system_3d(sys.fs, b, cfg, pm);
    EXPECT_TRUE(outcomes_identical(out, out2)) << "seed " << seed;
    if (out.makespan != base.makespan) some_timing_moved = true;
  }
  EXPECT_TRUE(some_timing_moved)
      << "perturbations (jitter+delay+skew) never changed the makespan";
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, DeterminismProperty,
                         ::testing::Range<std::uint64_t>(0, 20),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// The communication building blocks on their own.
// ---------------------------------------------------------------------------

TEST(Determinism, SparseAllreduceBitReproducible) {
  const NdTree tree = shape_tree(3);
  auto run_once = [&](const MachineModel& m, const RunOptions& opts) {
    std::vector<std::vector<Real>> payloads(
        static_cast<size_t>(tree.num_leaves()));
    const auto stats = Cluster::run(
        tree.num_leaves(), m,
        [&](Comm& c) {
          std::vector<std::vector<Real>> storage;
          std::vector<ReduceSegment> segs;
          for (Idx id : tree.path_to_root(tree.leaf_node_id(c.rank()))) {
            if (tree.node(id).depth >= tree.levels()) continue;
            auto& buf = storage.emplace_back(8, 0.0);
            for (size_t i = 0; i < buf.size(); ++i) {
              buf[i] = 0.1 * static_cast<Real>(c.rank() + 1) + 0.01 * i;
            }
            segs.push_back({id, buf});
          }
          sparse_allreduce(c, tree, segs);
          std::vector<Real> flat;
          for (const auto& s : storage) flat.insert(flat.end(), s.begin(), s.end());
          payloads[static_cast<size_t>(c.rank())] = std::move(flat);
        },
        opts);
    return std::pair(stats, payloads);
  };
  const auto [s1, p1] = run_once(test_machine(), kDet);
  const auto [s2, p2] = run_once(test_machine(), kDet);
  EXPECT_TRUE(stats_identical(s1, s2));
  for (size_t r = 0; r < p1.size(); ++r) EXPECT_TRUE(bitwise_equal(p1[r], p2[r]));
  // Perturbed run: same reduced values, same counts, different clock bits.
  const auto [s3, p3] =
      run_once(perturbed_machine(), RunOptions{.seed = 7});
  EXPECT_TRUE(message_counts_identical(s1, s3));
  for (size_t r = 0; r < p1.size(); ++r) EXPECT_TRUE(bitwise_equal(p1[r], p3[r]));
}

TEST(Determinism, TreeBroadcastBitReproducible) {
  // The binary-tree broadcast inside a 2D L-solve (13x1 grid: rank 0's
  // column-0 broadcast spans every rank), run twice deterministically.
  const Idx n = 13;
  const CsrMatrix a = make_banded(n, n - 1);
  const auto parent = elimination_tree(a);
  const auto counts = cholesky_col_counts(a, parent);
  SupernodeOptions opt;
  opt.max_width = 1;
  opt.relax_width = 0;
  const SupernodalLU lu =
      factor_supernodal(a, block_symbolic(a, find_supernodes(parent, counts, opt)));
  std::vector<Idx> cols(static_cast<size_t>(n));
  for (Idx k = 0; k < n; ++k) cols[static_cast<size_t>(k)] = k;
  const Solve2dPlan plan =
      Solve2dPlan::build(lu, {static_cast<int>(n), 1}, TreeKind::kBinary, cols, {});
  const auto b = random_rhs(n, 1, 5);
  VecMap b_map;
  for (Idx i = 0; i < n; ++i) b_map[i] = {b[static_cast<size_t>(i)]};

  auto run_once = [&] {
    std::vector<Real> y(static_cast<size_t>(n), 0.0);
    const auto stats = Cluster::run(
        static_cast<int>(n), test_machine(),
        [&](Comm& c) {
          const auto res = solve_l_2d(c, plan, b_map, {}, 1, 0);
          for (const auto& [i, yv] : res.y) y[static_cast<size_t>(i)] = yv.at(0);
        },
        kDet);
    return std::pair(stats, y);
  };
  const auto [s1, y1] = run_once();
  const auto [s2, y2] = run_once();
  EXPECT_TRUE(stats_identical(s1, s2));
  EXPECT_TRUE(bitwise_equal(y1, y2));
}

}  // namespace
}  // namespace sptrsv
