#include "runtime/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

namespace sptrsv {

namespace {

/// Salt separating the crash-draw stream from the timing and delivery
/// streams: enabling an MTBF crash model must not shift a jitter, skew or
/// transport draw, or a crashed run would stop matching its crash-free twin.
constexpr std::uint64_t kCrashStreamSalt = 0xC7A54C0DE5EEDULL;

double crash_uniform(std::uint64_t seed, int rank, std::uint64_t* cseq) {
  return detail::perturb_uniform(detail::hash64(seed ^ kCrashStreamSalt),
                                 static_cast<std::uint64_t>(rank), (*cseq)++);
}

/// Salt separating the spare-return (repair) stream from every other draw
/// class: arming repair_mtbf must not shift a timing, delivery, crash or SDC
/// draw, or an elastic run would stop matching its repair-free twin.
constexpr std::uint64_t kRepairStreamSalt = 0x4E9A17C0DE5EEDULL;

double repair_uniform(std::uint64_t seed, int rank, std::uint64_t* rseq) {
  return detail::perturb_uniform(detail::hash64(seed ^ kRepairStreamSalt),
                                 static_cast<std::uint64_t>(rank), (*rseq)++);
}

/// Work estimate of partition p for load-aware choices (rank_work, or 1).
double partition_work(const RecoveryModel& rm, int p) {
  const auto i = static_cast<std::size_t>(p);
  return i < rm.rank_work.size() && rm.rank_work[i] > 0.0 ? rm.rank_work[i] : 1.0;
}

}  // namespace

DegradePlan build_degrade_plan(const RecoveryModel& rm, int nranks,
                               const std::vector<int>& dead,
                               const std::vector<int>& host) {
  DegradePlan plan;
  if (nranks <= 0 || dead.empty()) return plan;
  std::vector<char> is_dead(static_cast<std::size_t>(nranks), 0);
  int ndead = 0;
  for (const int d : dead) {
    if (d < 0 || d >= nranks || is_dead[static_cast<std::size_t>(d)]) continue;
    is_dead[static_cast<std::size_t>(d)] = 1;
    ++ndead;
  }
  plan.victim = dead.back();
  plan.survivors_after = nranks - ndead;
  if (plan.victim < 0 || plan.victim >= nranks || plan.survivors_after <= 0) {
    plan.survivors_after = std::max(plan.survivors_after, 0);
    return plan;
  }
  for (int step = 1; step < nranks; ++step) {
    const int cand = (plan.victim + step) % nranks;
    if (!is_dead[static_cast<std::size_t>(cand)]) {
      plan.adopter = cand;
      break;
    }
  }
  const int buddy = (plan.victim + 1) % nranks;
  plan.image_survives =
      (buddy != plan.victim && !is_dead[static_cast<std::size_t>(buddy)]) ? 1 : 0;
  // Load-aware mode: instead of moving the victim's whole hosted set to the
  // ring adopter, split it across the k least-loaded survivors (LPT greedy,
  // heaviest partition first), weighting by the solve plan's per-partition
  // work estimates. Every choice is a pure function of (rm, dead, host), so
  // survivors agree on the assignment without communication.
  if (rm.rebalance_fanout > 0 && plan.adopter >= 0) {
    const auto host_of = [&host](int p) {
      return host.empty() ? p : host[static_cast<std::size_t>(p)];
    };
    std::vector<int> moving;
    for (int p = 0; p < nranks; ++p) {
      if (host_of(p) == plan.victim) moving.push_back(p);
    }
    std::stable_sort(moving.begin(), moving.end(), [&](int a, int b) {
      return partition_work(rm, a) > partition_work(rm, b);
    });
    std::vector<double> load(static_cast<std::size_t>(nranks), 0.0);
    for (int p = 0; p < nranks; ++p) {
      const int h = host_of(p);
      if (!is_dead[static_cast<std::size_t>(h)]) {
        load[static_cast<std::size_t>(h)] += partition_work(rm, p);
      }
    }
    std::vector<int> cands;
    for (int h = 0; h < nranks; ++h) {
      if (!is_dead[static_cast<std::size_t>(h)]) cands.push_back(h);
    }
    std::sort(cands.begin(), cands.end(), [&](int a, int b) {
      if (load[static_cast<std::size_t>(a)] != load[static_cast<std::size_t>(b)]) {
        return load[static_cast<std::size_t>(a)] < load[static_cast<std::size_t>(b)];
      }
      return a < b;
    });
    cands.resize(std::min<std::size_t>(
        static_cast<std::size_t>(rm.rebalance_fanout), cands.size()));
    for (const int p : moving) {
      int best = cands.front();
      for (const int h : cands) {
        if (load[static_cast<std::size_t>(h)] < load[static_cast<std::size_t>(best)]) {
          best = h;
        }
      }
      load[static_cast<std::size_t>(best)] += partition_work(rm, p);
      plan.moved_partitions.push_back(p);
      plan.adopters.push_back(best);
    }
    // The host of the victim's own partition doubles as the headline adopter
    // (CrashEvent::adopter, flight entries, CLI summaries).
    for (std::size_t i = 0; i < plan.moved_partitions.size(); ++i) {
      if (plan.moved_partitions[i] == plan.victim) {
        plan.adopter = plan.adopters[i];
        break;
      }
    }
  }
  return plan;
}

std::vector<std::vector<double>> build_repair_plan(const PerturbationModel& pm,
                                                   std::uint64_t seed,
                                                   int nranks) {
  std::vector<std::vector<double>> plan(static_cast<std::size_t>(nranks));
  for (const auto& ret : pm.returns) {
    if (ret.rank < 0 || ret.rank >= nranks || !(ret.vt >= 0.0)) continue;
    plan[static_cast<std::size_t>(ret.rank)].push_back(ret.vt);
  }
  if (pm.repair_mtbf > 0.0) {
    for (int r = 0; r < nranks; ++r) {
      std::uint64_t rseq = 0;
      double t = 0.0;
      for (int k = 0; k < pm.repair_max_per_rank; ++k) {
        // Exponential repair gap; 1-u keeps the argument in (0, 1].
        const double u = repair_uniform(seed, r, &rseq);
        t += -pm.repair_mtbf * std::log(1.0 - u);
        plan[static_cast<std::size_t>(r)].push_back(t);
      }
    }
  }
  for (auto& v : plan) std::sort(v.begin(), v.end());
  return plan;
}

std::vector<std::vector<FaultEvent>> build_fault_plan(const PerturbationModel& pm,
                                                      const RecoveryModel& rm,
                                                      std::uint64_t seed, int nranks) {
  std::vector<std::vector<FaultEvent>> plan(static_cast<std::size_t>(nranks));
  if (pm.sdc_active()) {
    const SdcPlan sdc = build_sdc_plan(pm, seed, nranks);
    for (int r = 0; r < nranks; ++r) {
      const auto& v = sdc.by_rank[static_cast<std::size_t>(r)];
      plan[static_cast<std::size_t>(r)].assign(v.begin(), v.end());
    }
  }
  std::vector<std::vector<CrashEvent>> crashes(static_cast<std::size_t>(nranks));
  for (const auto& c : pm.crashes) {
    if (c.rank < 0 || c.rank >= nranks || !(c.vt >= 0.0)) continue;
    crashes[static_cast<std::size_t>(c.rank)].push_back({c.vt, -1});
  }
  if (pm.crash_mtbf > 0.0) {
    for (int r = 0; r < nranks; ++r) {
      std::uint64_t cseq = 0;
      double t = 0.0;
      for (int k = 0; k < kCrashMaxPerRank; ++k) {
        // Exponential inter-failure gap; 1-u keeps the argument in (0, 1].
        const double u = crash_uniform(seed, r, &cseq);
        t += -pm.crash_mtbf * std::log(1.0 - u);
        crashes[static_cast<std::size_t>(r)].push_back({t, -1});
      }
    }
  }
  for (auto& v : crashes) {
    std::sort(v.begin(), v.end(),
              [](const CrashEvent& a, const CrashEvent& b) { return a.vt < b.vt; });
  }

  // Verdicts, statically. The failure detector needs a full detection window
  // (kHeartbeatPeriod * kHeartbeatMisses) to declare a rank dead and fetch
  // its buddy's image; if the buddy dies inside that window of a crash, the
  // checkpoint is gone and the crash is unrecoverable (kBuddyLoss). With a
  // single rank the buddy ring degenerates to self-buddying: any crash loses
  // its own checkpoint. Surviving crashes consume spares in global
  // (vt, rank) order — independent of the grant order — and overflow
  // of the pool is kSparesExhausted.
  const double window = kHeartbeatPeriod * static_cast<double>(kHeartbeatMisses);
  // The verdict pass walks crashes and spare returns merged in global
  // (vt, kind, rank, index) order — crashes (kind 0) before returns at equal
  // times, so a node cannot rejoin at the very instant it dies. Without a
  // crash nobody is degraded away, so every return is inert.
  const std::vector<std::vector<double>> repairs =
      build_repair_plan(pm, seed, nranks);
  std::vector<std::tuple<double, int, int, std::size_t>> order;
  for (int r = 0; r < nranks; ++r) {
    const auto& events = crashes[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < events.size(); ++i) {
      order.emplace_back(events[i].vt, 0, r, i);
    }
    const auto& rets = repairs[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < rets.size(); ++i) {
      order.emplace_back(rets[i], 1, r, i);
    }
  }
  std::sort(order.begin(), order.end());
  int spares_used = 0;
  // Elastic-degradation bookkeeping (consulted only under
  // RunOptions::degrade, but precomputed unconditionally so the plan stays a
  // pure function of the static schedule): which physical host runs each
  // partition, and the ordered list of ranks degraded away so far.
  std::vector<int> host(static_cast<std::size_t>(nranks));
  for (int p = 0; p < nranks; ++p) host[static_cast<std::size_t>(p)] = p;
  std::vector<int> degraded_dead;
  // Refreshes host h's overload multiplier: a DegradeEvent at time t on
  // every partition h currently hosts. Classic ring mode keeps the original
  // partitions-per-host count; load-aware mode weights by the work
  // estimates. `delta_on_own` lands on h's own partition for attribution.
  const auto emit_host_mult = [&](int h, double t, std::int64_t delta_on_own) {
    double hosted = 0.0;
    for (int p = 0; p < nranks; ++p) {
      if (host[static_cast<std::size_t>(p)] == h) {
        hosted += rm.rebalance_fanout > 0 ? partition_work(rm, p) : 1.0;
      }
    }
    const double mult =
        rm.rebalance_fanout > 0 ? hosted / partition_work(rm, h) : hosted;
    for (int p = 0; p < nranks; ++p) {
      if (host[static_cast<std::size_t>(p)] != h) continue;
      plan[static_cast<std::size_t>(p)].push_back(
          DegradeEvent{t, mult, p == h ? delta_on_own : 0});
    }
  };
  for (const auto& [vt, kind, r, i] : order) {
    if (kind == 1) {
      // Spare return: meaningful only for a rank currently degraded away —
      // anything else (rank alive, never crashed, or already returned) is
      // inert and leaves the plan untouched.
      const auto it = std::find(degraded_dead.begin(), degraded_dead.end(), r);
      if (it == degraded_dead.end()) continue;
      degraded_dead.erase(it);
      const int from = host[static_cast<std::size_t>(r)];
      host[static_cast<std::size_t>(r)] = r;
      const int survivors = nranks - static_cast<int>(degraded_dead.size());
      plan[static_cast<std::size_t>(r)].push_back(ElasticEvent{vt, from, survivors});
      // The relieved host drops back to its lighter multiplier; the
      // returning partition runs alone again.
      emit_host_mult(from, vt, 0);
      emit_host_mult(r, vt, 0);
      continue;
    }
    CrashEvent& ev = crashes[static_cast<std::size_t>(r)][i];
    const int buddy = (r + 1) % nranks;
    bool buddy_lost = (buddy == r);
    for (const CrashEvent& be : crashes[static_cast<std::size_t>(buddy)]) {
      if (std::abs(be.vt - vt) <= window) {
        buddy_lost = true;
        break;
      }
    }
    if (buddy_lost) {
      ev.verdict = FaultKind::kBuddyLoss;
    } else if (spares_used >= rm.spare_ranks) {
      ev.verdict = FaultKind::kSparesExhausted;
    } else {
      ev.spare = spares_used++;
    }
    if (ev.verdict == FaultKind::kNone) continue;
    // Unrecoverable verdict: fix the elastic alternative now. The victim's
    // partitions (its own plus any it previously adopted) move to the first
    // survivor up the ring; every partition on the overloaded host gains a
    // DegradeEvent raising its compute multiplier from this instant on.
    degraded_dead.push_back(r);
    DegradePlan dp = build_degrade_plan(rm, nranks, degraded_dead, host);
    if (ev.verdict == FaultKind::kBuddyLoss) dp.image_survives = 0;
    ev.adopter = dp.adopter;
    ev.survivors_after = dp.survivors_after;
    ev.image_survives = dp.image_survives;
    if (dp.adopter < 0 || dp.survivors_after <= 0) continue;
    if (!dp.moved_partitions.empty()) {
      // Load-aware split: apply the per-partition assignment, then refresh
      // every host that gained work.
      std::vector<std::int64_t> gained(static_cast<std::size_t>(nranks), 0);
      for (std::size_t m = 0; m < dp.moved_partitions.size(); ++m) {
        host[static_cast<std::size_t>(dp.moved_partitions[m])] = dp.adopters[m];
        ++gained[static_cast<std::size_t>(dp.adopters[m])];
      }
      for (int h = 0; h < nranks; ++h) {
        if (gained[static_cast<std::size_t>(h)] > 0) {
          emit_host_mult(h, vt, gained[static_cast<std::size_t>(h)]);
        }
      }
      continue;
    }
    std::int64_t moved = 0;
    for (int p = 0; p < nranks; ++p) {
      if (host[static_cast<std::size_t>(p)] == r) {
        host[static_cast<std::size_t>(p)] = dp.adopter;
        ++moved;
      }
    }
    emit_host_mult(dp.adopter, vt, moved);
  }
  // One stream per rank. The stable sort keeps each kind's own order among
  // equal times, so only events of different kinds interleave.
  for (int r = 0; r < nranks; ++r) {
    auto& v = plan[static_cast<std::size_t>(r)];
    const auto& c = crashes[static_cast<std::size_t>(r)];
    v.insert(v.end(), c.begin(), c.end());
    std::stable_sort(v.begin(), v.end(), [](const FaultEvent& a, const FaultEvent& b) {
      const double ta = fault_time(a);
      const double tb = fault_time(b);
      return ta != tb ? ta < tb : a.index() < b.index();
    });
  }
  return plan;
}

}  // namespace sptrsv
