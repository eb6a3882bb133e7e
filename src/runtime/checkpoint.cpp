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

}  // namespace

DegradePlan build_degrade_plan(int nranks, const std::vector<int>& dead) {
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
  std::vector<std::tuple<double, int, std::size_t>> order;
  for (int r = 0; r < nranks; ++r) {
    const auto& events = crashes[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < events.size(); ++i) order.emplace_back(events[i].vt, r, i);
  }
  std::sort(order.begin(), order.end());
  int spares_used = 0;
  // Degradation bookkeeping (consulted only under RunOptions::degrade, but
  // precomputed unconditionally so the plan stays a pure function of the
  // static schedule): which physical host runs each partition, and the
  // ordered list of ranks degraded away so far.
  std::vector<int> host(static_cast<std::size_t>(nranks));
  for (int p = 0; p < nranks; ++p) host[static_cast<std::size_t>(p)] = p;
  std::vector<int> degraded_dead;
  // A rank degraded away never comes back: kept[r] counts r's crashes up to
  // and including the one that retired it. The later ones are dropped from
  // the plan, and a dropped crash cannot cost its ring predecessor the
  // checkpoint image either.
  std::vector<std::size_t> kept(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    kept[static_cast<std::size_t>(r)] = crashes[static_cast<std::size_t>(r)].size();
  }
  for (const auto& [vt, r, i] : order) {
    if (i >= kept[static_cast<std::size_t>(r)]) continue;
    CrashEvent& ev = crashes[static_cast<std::size_t>(r)][i];
    const int buddy = (r + 1) % nranks;
    const auto& buddy_crashes = crashes[static_cast<std::size_t>(buddy)];
    bool buddy_lost = (buddy == r);
    for (std::size_t j = 0; j < kept[static_cast<std::size_t>(buddy)] && !buddy_lost; ++j) {
      buddy_lost = std::abs(buddy_crashes[j].vt - vt) <= window;
    }
    if (buddy_lost) {
      ev.verdict = FaultKind::kBuddyLoss;
    } else if (spares_used >= rm.spare_ranks) {
      ev.verdict = FaultKind::kSparesExhausted;
    } else {
      ev.spare = spares_used++;
      // A buddy degraded away earlier took this rank's image with its node,
      // so the spare replays from solve start.
      if (std::find(degraded_dead.begin(), degraded_dead.end(), buddy) !=
          degraded_dead.end()) {
        ev.image_survives = 0;
      }
    }
    if (ev.verdict == FaultKind::kNone) continue;
    // Unrecoverable verdict: fix the shrink now. The victim's partitions
    // (its own plus any it previously adopted) move to the first survivor up
    // the ring; every partition on the adopter gains a DegradeEvent raising
    // its compute multiplier to the adopter's partition count from this
    // instant on.
    kept[static_cast<std::size_t>(r)] = i + 1;
    degraded_dead.push_back(r);
    DegradePlan dp = build_degrade_plan(nranks, degraded_dead);
    if (ev.verdict == FaultKind::kBuddyLoss) dp.image_survives = 0;
    ev.adopter = dp.adopter;
    ev.survivors_after = dp.survivors_after;
    ev.image_survives = dp.image_survives;
    if (dp.adopter < 0 || dp.survivors_after <= 0) continue;
    std::int64_t moved = 0;
    std::int64_t hosted = 0;
    for (int p = 0; p < nranks; ++p) {
      int& h = host[static_cast<std::size_t>(p)];
      if (h == r) {
        h = dp.adopter;
        ++moved;
      }
      if (h == dp.adopter) ++hosted;
    }
    for (int p = 0; p < nranks; ++p) {
      if (host[static_cast<std::size_t>(p)] != dp.adopter) continue;
      plan[static_cast<std::size_t>(p)].push_back(DegradeEvent{
          vt, static_cast<double>(hosted), p == dp.adopter ? moved : 0});
    }
  }
  // One stream per rank. The stable sort keeps each kind's own order among
  // equal times, so only events of different kinds interleave.
  for (int r = 0; r < nranks; ++r) {
    auto& v = plan[static_cast<std::size_t>(r)];
    const auto& c = crashes[static_cast<std::size_t>(r)];
    v.insert(v.end(), c.begin(),
             c.begin() + static_cast<std::ptrdiff_t>(kept[static_cast<std::size_t>(r)]));
    std::stable_sort(v.begin(), v.end(), [](const FaultEvent& a, const FaultEvent& b) {
      const double ta = fault_time(a);
      const double tb = fault_time(b);
      return ta != tb ? ta < tb : a.index() < b.index();
    });
  }
  return plan;
}

}  // namespace sptrsv
