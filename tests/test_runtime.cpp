#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "runtime/cluster.hpp"
#include "test_support.hpp"

namespace sptrsv {
namespace {

using test::test_machine;

TEST(Runtime, PingPong) {
  const auto res = Cluster::run(2, test_machine(), [](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, /*tag=*/7, {1.0, 2.0, 3.0});
      const Message m = c.recv(1, 8);
      EXPECT_EQ(m.src, 1);
      ASSERT_EQ(m.data.size(), 1u);
      EXPECT_DOUBLE_EQ(m.data[0], 6.0);
    } else {
      const Message m = c.recv(0, 7);
      EXPECT_EQ(m.src, 0);
      ASSERT_EQ(m.data.size(), 3u);
      c.send(0, 8, {m.data[0] + m.data[1] + m.data[2]});
    }
  });
  EXPECT_EQ(res.ranks.size(), 2u);
  EXPECT_GT(res.makespan(), 0.0);
}

TEST(Runtime, AnySourceReceivesAll) {
  const int P = 8;
  Cluster::run(P, test_machine(), [](Comm& c) {
    if (c.rank() == 0) {
      double sum = 0;
      for (int i = 1; i < c.size(); ++i) {
        const Message m = c.recv(kAnySource, kAnyTag);
        sum += m.data.at(0);
      }
      EXPECT_DOUBLE_EQ(sum, 1.0 + 2 + 3 + 4 + 5 + 6 + 7);
    } else {
      c.send(0, c.rank(), {static_cast<Real>(c.rank())});
    }
  });
}

TEST(Runtime, TagFilteringHoldsBackOtherTags) {
  Cluster::run(2, test_machine(), [](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, /*tag=*/1, {1.0});
      c.send(1, /*tag=*/2, {2.0});
    } else {
      // Receive tag 2 first even though tag 1 arrived first.
      const Message m2 = c.recv(0, 2);
      EXPECT_DOUBLE_EQ(m2.data.at(0), 2.0);
      const Message m1 = c.recv(0, 1);
      EXPECT_DOUBLE_EQ(m1.data.at(0), 1.0);
    }
  });
}

TEST(Runtime, SameSourceFifoPerTag) {
  Cluster::run(2, test_machine(), [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) c.send(1, 0, {static_cast<Real>(i)});
    } else {
      for (int i = 0; i < 10; ++i) {
        EXPECT_DOUBLE_EQ(c.recv(0, 0).data.at(0), static_cast<Real>(i));
      }
    }
  });
}

TEST(Runtime, VirtualClockAdvancesOnCompute) {
  const auto res = Cluster::run(1, test_machine(), [](Comm& c) {
    EXPECT_DOUBLE_EQ(c.vtime(), 0.0);
    c.compute(3.0e9);  // one second at cori rate
    EXPECT_NEAR(c.vtime(), 1.0, 1e-12);
    EXPECT_NEAR(c.category_time(TimeCategory::kFp), 1.0, 1e-12);
  });
  EXPECT_NEAR(res.makespan(), 1.0, 1e-12);
}

TEST(Runtime, MessageArrivalDominatesReceiverClock) {
  // Receiver is idle; its clock must jump to sender_time + latency + b/BW.
  const MachineModel m = test_machine();
  Cluster::run(2, m, [&](Comm& c) {
    if (c.rank() == 0) {
      c.compute(m.cpu_flop_rate);  // 1 virtual second of work
      c.send(1, 0, std::vector<Real>(1000, 1.0), TimeCategory::kXyComm);
    } else {
      const Message msg = c.recv(0, 0, TimeCategory::kXyComm);
      const double expected = 1.0 + m.mpi_overhead + m.net.latency +
                              1000.0 * sizeof(Real) / m.net.bandwidth;
      EXPECT_NEAR(msg.arrival, expected, 1e-9);
      EXPECT_GE(c.vtime(), expected);
      EXPECT_GT(c.category_time(TimeCategory::kXyComm), 0.0);
      EXPECT_DOUBLE_EQ(c.category_time(TimeCategory::kFp), 0.0);
    }
  });
}

TEST(Runtime, BarrierSynchronizesClocks) {
  const int P = 4;
  const auto res = Cluster::run(P, test_machine(), [](Comm& c) {
    // Rank r works r virtual seconds; after the barrier all clocks >= max.
    c.advance(static_cast<double>(c.rank()), TimeCategory::kFp);
    c.barrier();
    EXPECT_GE(c.vtime(), 3.0);
  });
  for (const auto& r : res.ranks) EXPECT_GE(r.vtime, 3.0);
}

TEST(Runtime, AllreduceSumsContributions) {
  const int P = 6;
  Cluster::run(P, test_machine(), [](Comm& c) {
    const std::vector<Real> mine{static_cast<Real>(c.rank()), 1.0};
    const auto out = c.allreduce_sum(mine, TimeCategory::kZComm);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_DOUBLE_EQ(out[0], 0.0 + 1 + 2 + 3 + 4 + 5);
    EXPECT_DOUBLE_EQ(out[1], 6.0);
  });
}

TEST(Runtime, AllreduceMax) {
  Cluster::run(5, test_machine(), [](Comm& c) {
    EXPECT_DOUBLE_EQ(c.allreduce_max(static_cast<double>(c.rank())), 4.0);
  });
}

TEST(Runtime, SplitFormsRowCommunicators) {
  // 2x3 grid: color = row, key = col.
  Cluster::run(6, test_machine(), [](Comm& c) {
    const int row = c.rank() / 3;
    const int col = c.rank() % 3;
    Comm rc = c.split(row, col);
    EXPECT_EQ(rc.size(), 3);
    EXPECT_EQ(rc.rank(), col);
    // Sum ranks within the row communicator.
    const auto sum = rc.allreduce_sum(std::vector<Real>{static_cast<Real>(c.rank())},
                                      TimeCategory::kOther);
    EXPECT_DOUBLE_EQ(sum[0], row == 0 ? 0.0 + 1 + 2 : 3.0 + 4 + 5);
  });
}

TEST(Runtime, SplitIsIsolatedFromParent) {
  // A message on the subcommunicator must not be visible to a recv on the
  // parent communicator and vice versa.
  Cluster::run(2, test_machine(), [](Comm& c) {
    Comm sub = c.split(0, c.rank());
    if (c.rank() == 0) {
      c.send(1, 5, {1.0});
      sub.send(1, 5, {2.0});
    } else {
      const Message on_sub = sub.recv(0, 5);
      EXPECT_DOUBLE_EQ(on_sub.data.at(0), 2.0);
      const Message on_parent = c.recv(0, 5);
      EXPECT_DOUBLE_EQ(on_parent.data.at(0), 1.0);
    }
  });
}

TEST(Runtime, NestedSplit) {
  // Split a 8-rank world into 2 grids of 4, then each grid into rows of 2.
  Cluster::run(8, test_machine(), [](Comm& c) {
    Comm grid = c.split(c.rank() / 4, c.rank() % 4);
    EXPECT_EQ(grid.size(), 4);
    Comm row = grid.split(grid.rank() / 2, grid.rank() % 2);
    EXPECT_EQ(row.size(), 2);
    const auto s = row.allreduce_sum(std::vector<Real>{1.0}, TimeCategory::kOther);
    EXPECT_DOUBLE_EQ(s[0], 2.0);
  });
}

TEST(Runtime, SelfSendIsDelivered) {
  Cluster::run(1, test_machine(), [](Comm& c) {
    c.send(0, 5, {42.0});
    const Message m = c.recv(0, 5);
    EXPECT_EQ(m.src, 0);
    EXPECT_DOUBLE_EQ(m.data.at(0), 42.0);
  });
}

TEST(Runtime, RecvRangeFiltersTagWindow) {
  Cluster::run(2, test_machine(), [](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 150, {150.0});  // outside the first window
      c.send(1, 30, {30.0});
      c.send(1, 40, {40.0});
    } else {
      // Window [0, 100): receives 30 and 40 but never 150.
      const Message a = c.recv_range(0, 0, 100);
      const Message b = c.recv_range(0, 0, 100);
      EXPECT_TRUE((a.data.at(0) == 30.0 && b.data.at(0) == 40.0) ||
                  (a.data.at(0) == 40.0 && b.data.at(0) == 30.0));
      // The out-of-window message is still queued.
      const Message d = c.recv_range(0, 100, 200);
      EXPECT_DOUBLE_EQ(d.data.at(0), 150.0);
    }
  });
}

TEST(Runtime, RecvRangeEmptyWindowMeansAnyTag) {
  Cluster::run(2, test_machine(), [](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 12345, {7.0});
    } else {
      EXPECT_DOUBLE_EQ(c.recv_range(kAnySource, 0, 0).data.at(0), 7.0);
    }
  });
}

TEST(Runtime, ResetClockZeroesAccounting) {
  Cluster::run(1, test_machine(), [](Comm& c) {
    c.compute(1e9);
    c.reset_clock();
    EXPECT_DOUBLE_EQ(c.vtime(), 0.0);
    EXPECT_DOUBLE_EQ(c.category_time(TimeCategory::kFp), 0.0);
  });
}

TEST(Runtime, RankExceptionPropagatesWithoutDeadlock) {
  EXPECT_THROW(
      Cluster::run(4, test_machine(),
                   [](Comm& c) {
                     if (c.rank() == 2) throw std::runtime_error("rank 2 died");
                     // These would block forever without abort poisoning.
                     c.recv(kAnySource, kAnyTag);
                   }),
      std::runtime_error);
}

TEST(Runtime, ExceptionInCollectiveUnblocksPeers) {
  EXPECT_THROW(Cluster::run(3, test_machine(),
                            [](Comm& c) {
                              if (c.rank() == 0) throw std::logic_error("boom");
                              c.barrier();
                            }),
               std::logic_error);
}

TEST(Runtime, ManyRanksScale) {
  // Smoke test that a few hundred ranks work (benches use 2048).
  const int P = 256;
  const auto res = Cluster::run(P, test_machine(), [](Comm& c) {
    const auto s = c.allreduce_sum(std::vector<Real>{1.0}, TimeCategory::kOther);
    EXPECT_DOUBLE_EQ(s[0], 256.0);
    c.barrier();
  });
  EXPECT_EQ(res.ranks.size(), 256u);
}

TEST(Runtime, StatsAggregations) {
  const auto res = Cluster::run(3, test_machine(), [](Comm& c) {
    c.advance(static_cast<double>(c.rank() + 1), TimeCategory::kFp);
  });
  EXPECT_DOUBLE_EQ(res.makespan(), 3.0);
  EXPECT_DOUBLE_EQ(res.mean_category(TimeCategory::kFp), 2.0);
  EXPECT_DOUBLE_EQ(res.max_category(TimeCategory::kFp), 3.0);
  EXPECT_DOUBLE_EQ(res.min_category(TimeCategory::kFp), 1.0);
}

TEST(Runtime, InvalidArgs) {
  EXPECT_THROW(Cluster::run(0, test_machine(), [](Comm&) {}), std::invalid_argument);
  Cluster::run(2, test_machine(), [](Comm& c) {
    if (c.rank() == 0) {
      EXPECT_THROW(c.send(7, 0, {}), std::out_of_range);
    }
  });
}

TEST(Machine, PresetsAreDistinct) {
  const auto cori = MachineModel::cori_haswell();
  const auto pm = MachineModel::perlmutter();
  const auto cr = MachineModel::crusher();
  EXPECT_EQ(cori.name, "cori-haswell");
  EXPECT_TRUE(pm.shmem_subcomm_support);
  EXPECT_FALSE(cr.shmem_subcomm_support);  // ROC-SHMEM limitation
  EXPECT_GT(pm.bw_gpu_intranode, 10 * pm.bw_gpu_internode);  // the BW cliff
  EXPECT_GT(pm.gpu_flop_rate, cr.gpu_flop_rate);  // Perlmutter speedups higher
}

}  // namespace
}  // namespace sptrsv
