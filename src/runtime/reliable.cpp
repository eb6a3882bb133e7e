#include "runtime/reliable.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

namespace sptrsv {

namespace {

/// Salt separating the fault-draw stream from the timing-perturbation
/// stream: adding delivery faults must not shift the jitter/skew draws, or
/// a combined model would stop matching its timing-only twin.
constexpr std::uint64_t kFaultStreamSalt = 0xFA17C0DE5EEDULL;

double fault_uniform(std::uint64_t seed, int rank, std::uint64_t* fseq) {
  return detail::perturb_uniform(detail::hash64(seed ^ kFaultStreamSalt),
                                 static_cast<std::uint64_t>(rank), (*fseq)++);
}

/// Stall state of one frame crossing `src -> dst` at sender clock `t`.
struct StallEffect {
  double flight_factor = 1.0;
  bool permanent = false;
};

StallEffect stall_for(const PerturbationModel& pm, int src, int dst, double t) {
  StallEffect s;
  for (const auto& st : pm.stalls) {
    if (st.rank != -1 && st.rank != src && st.rank != dst) continue;
    if (t < st.vt_begin || t >= st.vt_end) continue;
    s.flight_factor = std::max(s.flight_factor, st.flight_factor);
    s.permanent = s.permanent || st.permanent;
  }
  return s;
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kRetriesExhausted: return "retries-exhausted";
    case FaultKind::kRankStalled: return "rank-stalled";
    case FaultKind::kDeadlock: return "deadlock";
    case FaultKind::kVtLimit: return "vt-limit";
    case FaultKind::kBuddyLoss: return "buddy-loss";
    case FaultKind::kSparesExhausted: return "spares-exhausted";
    case FaultKind::kSilentCorruption: return "silent-corruption";
    case FaultKind::kNoSurvivors: return "no-survivors";
  }
  return "?";
}

std::string FaultReport::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "fault[%s] rank=%d peer=%d tag=%d retries=%d vt=%.9e",
                fault_kind_name(kind), rank, peer, tag, retries, vt);
  std::string s(buf);
  if (!detail.empty()) {
    s += ": ";
    s += detail;
  }
  return s;
}

FaultError::FaultError(FaultReport r)
    : std::runtime_error(r.to_string()), report(std::move(r)) {}

void rethrow_with_phase(FaultError& fe, const char* phase) {
  FaultReport r = std::move(fe.report);
  r.detail = r.detail.empty() ? std::string(phase)
                              : std::string(phase) + ": " + r.detail;
  throw FaultError(std::move(r));
}

namespace {

constexpr std::uint64_t kChecksumBasis = 0xcbf29ce484222325ULL;

/// Folds one 64-bit word into `h`: the xor and the multiply by an odd
/// constant carry every bit of the word into every higher bit, and the
/// xor-shift carries the high half back into the low half, so the same
/// flip in two words does not cancel, as it does in a word-wise FNV-1a,
/// whose multiply leaves a sign-bit flip a sign-bit flip. Each step is a
/// bijection of `h` for a given word.
std::uint64_t mix_word(std::uint64_t h, std::uint64_t word) {
  h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 32);
}

/// Folds the payload in one word per Real, then finalizes with SplitMix64
/// so the last word's bits also reach every output bit.
std::uint64_t mix_payload(std::uint64_t h, std::span<const Real> data) {
  for (const Real v : data) h = mix_word(h, std::bit_cast<std::uint64_t>(v));
  return detail::hash64(h);
}

}  // namespace

std::uint64_t payload_checksum(std::span<const Real> data) {
  return mix_payload(mix_word(kChecksumBasis, data.size()), data);
}

std::uint64_t frame_checksum(int src, int dst, int tag, std::uint64_t seq,
                             std::span<const Real> data) {
  std::uint64_t h = kChecksumBasis;
  h = mix_word(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(src)));
  h = mix_word(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(dst)));
  h = mix_word(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(tag)));
  h = mix_word(h, seq);
  return mix_payload(mix_word(h, data.size()), data);
}

double drop_prob_for(const PerturbationModel& pm, int src, int dst) {
  double p = pm.drop_prob;
  for (const auto& lf : pm.link_faults) {
    if ((lf.src == -1 || lf.src == src) && (lf.dst == -1 || lf.dst == dst)) {
      p = std::max(p, lf.drop_prob);
    }
  }
  return std::min(p, 1.0);
}

TransportOutcome simulate_transport(const PerturbationModel& pm,
                                    const TransportOptions& to, std::uint64_t seed,
                                    int src, int dst, double send_vt, double flight,
                                    double ack_flight, double overhead,
                                    std::uint64_t* fseq) {
  TransportOutcome out;
  const double drop_fwd = drop_prob_for(pm, src, dst);
  const double drop_rev = drop_prob_for(pm, dst, src);
  double rto = 2.0 * (flight + ack_flight + 2.0 * overhead);
  if (rto <= 0.0) rto = 1e-6;  // zero-latency link: keep the timer finite

  // Stop-and-wait from the sender's point of view. `elapsed` is virtual
  // time past the send; the receiver's extra arrival delay is fixed by the
  // first *intact* delivery; later attempts only produce duplicates.
  double elapsed = 0.0;
  bool delivered = false;
  bool stall_blocked = false;
  out.attempts = 0;
  const int max_attempts = std::max(1, to.max_retries + 1);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    ++out.attempts;
    const StallEffect st = stall_for(pm, src, dst, send_vt + elapsed);
    if (st.permanent) {
      // The outage swallows the frame whole; the retransmit timer is the
      // only way past the window.
      stall_blocked = true;
      ++out.frames_dropped;
      ++out.timeouts;
      elapsed += rto;
      rto *= kRetransmitBackoff;
      continue;
    }
    if (fault_uniform(seed, src, fseq) < drop_fwd) {
      ++out.frames_dropped;
      ++out.timeouts;
      elapsed += rto;
      rto *= kRetransmitBackoff;
      continue;
    }
    double this_flight = flight * st.flight_factor;
    if (fault_uniform(seed, src, fseq) < pm.corrupt_prob) {
      // Arrives, fails the checksum, is discarded without an ack.
      ++out.corrupt;
      ++out.timeouts;
      elapsed += rto;
      rto *= kRetransmitBackoff;
      continue;
    }
    // Intact delivery.
    if (!delivered) {
      delivered = true;
      stall_blocked = false;
      if (pm.reorder_prob > 0.0 &&
          fault_uniform(seed, src, fseq) < pm.reorder_prob) {
        out.reordered = true;
        this_flight += pm.reorder_window * fault_uniform(seed, src, fseq);
      }
      out.extra_delay = elapsed + (this_flight - flight);
    } else {
      ++out.duplicates;
    }
    ++out.acks;
    // Spurious duplicate of an acked frame (network-level replay).
    if (pm.dup_prob > 0.0 && fault_uniform(seed, src, fseq) < pm.dup_prob) {
      ++out.duplicates;
      ++out.acks;
    }
    if (fault_uniform(seed, src, fseq) < drop_rev) {
      // Ack lost: the sender times out and retransmits a copy the receiver
      // will suppress.
      ++out.frames_dropped;
      ++out.timeouts;
      elapsed += rto;
      rto *= kRetransmitBackoff;
      continue;
    }
    break;  // acked — the sender releases the message
  }
  if (!delivered) {
    out.failed = true;
    out.stalled = stall_blocked;
    out.extra_delay = elapsed;
  }
  return out;
}

}  // namespace sptrsv
