#include "runtime/abft.hpp"

#include <algorithm>
#include <cmath>

namespace sptrsv {

namespace {

/// Salt separating the memory-fault stream from the timing, delivery and
/// crash streams: arming SDC injection must not shift any other draw, or an
/// SDC run would stop matching its fault-free twin.
constexpr std::uint64_t kMemStreamSalt = 0x5DCBADB175EEDULL;

double sdc_uniform(std::uint64_t seed, int rank, std::uint64_t* mseq) {
  return detail::perturb_uniform(detail::hash64(seed ^ kMemStreamSalt),
                                 static_cast<std::uint64_t>(rank), (*mseq)++);
}

/// Fills the predrawn choices of one event from the rank's salted stream:
/// target (explicit faults carry their own), word, bit in 46..49 (relative
/// perturbation 2^-6..2^-3 — large enough to trip the residual gate, small
/// enough that refinement repair converges), and the recompute-refail draw.
void draw_event_body(SdcEvent& ev, bool draw_target, std::uint64_t seed,
                     int rank, std::uint64_t* mseq) {
  const double tu = sdc_uniform(seed, rank, mseq);
  if (draw_target) {
    ev.target = static_cast<PerturbationModel::MemFaultTarget>(
        static_cast<int>(tu * 3.0) % 3);
  }
  ev.word_draw = static_cast<std::uint64_t>(sdc_uniform(seed, rank, mseq) *
                                            0x1.0p53);
  ev.bit = 46 + static_cast<int>(sdc_uniform(seed, rank, mseq) * 4.0) % 4;
  ev.refail_draw = sdc_uniform(seed, rank, mseq);
}

}  // namespace

SdcPlan build_sdc_plan(const PerturbationModel& pm, std::uint64_t seed,
                       int nranks) {
  SdcPlan plan;
  plan.by_rank.resize(static_cast<std::size_t>(nranks));
  // One counter per rank covers both the explicit-fault body draws and the
  // Poisson arrivals, in a fixed order (explicit faults in schedule order
  // first, then the rate stream), so the plan is reproducible.
  std::vector<std::uint64_t> mseq(static_cast<std::size_t>(nranks), 0);
  for (const auto& f : pm.mem_faults) {
    if (f.rank < 0 || f.rank >= nranks || !(f.vt >= 0.0)) continue;
    SdcEvent ev;
    ev.vt = f.vt;
    ev.target = f.target;
    draw_event_body(ev, /*draw_target=*/false, seed, f.rank,
                    &mseq[static_cast<std::size_t>(f.rank)]);
    plan.by_rank[static_cast<std::size_t>(f.rank)].push_back(ev);
  }
  if (pm.sdc_rate > 0.0) {
    const double mean = 1.0 / pm.sdc_rate;
    for (int r = 0; r < nranks; ++r) {
      double t = 0.0;
      for (int k = 0; k < kSdcMaxPerRank; ++k) {
        // Exponential inter-fault gap; 1-u keeps the argument in (0, 1].
        const double u = sdc_uniform(seed, r, &mseq[static_cast<std::size_t>(r)]);
        t += -mean * std::log(1.0 - u);
        SdcEvent ev;
        ev.vt = t;
        draw_event_body(ev, /*draw_target=*/true, seed, r,
                        &mseq[static_cast<std::size_t>(r)]);
        plan.by_rank[static_cast<std::size_t>(r)].push_back(ev);
      }
    }
  }
  for (auto& v : plan.by_rank) {
    std::stable_sort(v.begin(), v.end(),
                     [](const SdcEvent& a, const SdcEvent& b) { return a.vt < b.vt; });
  }
  return plan;
}

}  // namespace sptrsv
