#pragma once
/// \file reliable.hpp
/// \brief Reliable transport over the lossy modeled network
/// (docs/ROBUSTNESS.md).
///
/// When PerturbationModel::delivery_active() — drops, duplicates,
/// corruption, reordering, rank stalls — every point-to-point message rides
/// a stop-and-wait ack/retransmit protocol: per-sender sequence numbers, an
/// end-to-end payload checksum, positive acks, virtual-clock retransmit
/// timeouts with exponential backoff and a capped retry budget, and
/// receiver-side duplicate suppression. The protocol is simulated
/// *analytically* at send time (simulate_transport): the sequence of frame
/// fates is a pure counter-based function of (seed, sender rank, fault draw
/// index), so a fault schedule replays exactly and is independent of the
/// grant order.
///
/// Two-ledger accounting is the load-bearing invariant: the clean virtual
/// clock, category times and message/byte counters — everything behind
/// Cluster::Result::fingerprint() — never see a fault. Recovery delay
/// accrues on a parallel per-rank *fault clock* (RankStats::fault_vtime), and
/// retransmit/ack/duplicate traffic accrues in TransportStats. A run with
/// no faults configured is bypass-free: both ledgers coincide bit for bit.
///
/// A message the protocol cannot deliver (retry budget exhausted, permanent
/// rank stall) surfaces as a structured FaultError at the blocking receive,
/// naming rank, peer, tag and retry count — never as a hung run. The
/// virtual-clock watchdog in the cluster runtime covers the remaining hang
/// class (a receive no send will ever match) the same way.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/perturbation.hpp"
#include "sparse/types.hpp"

namespace sptrsv {

/// Reliable-transport tuning (attached to MachineModel::transport). The
/// initial retransmit timeout is twice the modeled round trip of the
/// message (data flight + ack flight + 2 software overheads).
struct TransportOptions {
  /// Retransmissions of one message before the transport gives up and the
  /// receive fails with FaultKind::kRetriesExhausted.
  int max_retries = 12;
};

/// Exponential backoff factor applied to the retransmit timeout per retry.
inline constexpr double kRetransmitBackoff = 2.0;
/// Modeled size of an ack frame (bytes) for the fault-ledger byte counts.
inline constexpr double kAckBytes = 16.0;

/// Per-rank reliable-transport counters — the fault ledger. Sender-side
/// fields (frames, retransmits, timeouts, drops) accrue at the sending
/// rank; receiver-side fields (acks, duplicates, corruption detections,
/// resequenced stragglers) accrue at the receiving rank when the message is
/// taken. All zero when no delivery faults are configured.
struct TransportStats {
  std::int64_t data_frames = 0;    ///< data frames on the wire (first send + retransmits)
  std::int64_t retransmits = 0;    ///< data frames beyond each message's first attempt
  std::int64_t retrans_bytes = 0;  ///< payload bytes of those retransmissions
  std::int64_t timeouts = 0;       ///< retransmit-timer expiries at the sender
  std::int64_t frames_dropped = 0; ///< frames (data or ack) the network dropped
  std::int64_t acks = 0;           ///< ack frames the receiver returned
  std::int64_t ack_bytes = 0;      ///< modeled bytes of that ack traffic
  std::int64_t corrupt_detected = 0; ///< data frames rejected by the checksum
  std::int64_t duplicates = 0;     ///< duplicate data frames suppressed by seqno
  std::int64_t reordered = 0;      ///< straggler frames resequenced on arrival

  TransportStats& operator+=(const TransportStats& o) {
    data_frames += o.data_frames;
    retransmits += o.retransmits;
    retrans_bytes += o.retrans_bytes;
    timeouts += o.timeouts;
    frames_dropped += o.frames_dropped;
    acks += o.acks;
    ack_bytes += o.ack_bytes;
    corrupt_detected += o.corrupt_detected;
    duplicates += o.duplicates;
    reordered += o.reordered;
    return *this;
  }
  bool any() const {
    return data_frames != 0 || acks != 0 || duplicates != 0 || reordered != 0;
  }
};

/// Why a run terminated on a fault instead of completing.
enum class FaultKind : int {
  kNone = 0,
  kRetriesExhausted,  ///< transport gave up on a message (loss too heavy)
  kRankStalled,       ///< permanent rank stall swallowed every attempt
  kDeadlock,          ///< watchdog: every live rank blocked, nothing in flight
  kVtLimit,           ///< virtual clock passed RunOptions::vt_limit
  kBuddyLoss,         ///< crashed rank and its checkpoint buddy both died
  kSparesExhausted,   ///< more crashes than the spare-rank pool could absorb
  kSilentCorruption,  ///< residual check caught uncorrected memory faults
  kNoSurvivors,       ///< elastic degradation ran out of survivors to adopt
                      ///< the dead ranks' partitions (RunOptions::degrade)
};

const char* fault_kind_name(FaultKind k);

/// Structured description of where a fault-terminated run gave up —
/// Cluster::try_run returns this on the Result instead of a wedged job.
struct FaultReport {
  FaultKind kind = FaultKind::kNone;
  int rank = -1;       ///< world rank that observed the fault
  int peer = -1;       ///< world rank of the other endpoint (-1 if none)
  int tag = 0;         ///< message tag involved (0 if none)
  int retries = 0;     ///< retransmissions spent before giving up
  double vt = 0.0;     ///< observer's clean virtual clock at detection
  std::string detail;  ///< human-readable context ("waiting on (src,tag)", phase)
  /// Flight-recorder dump: each rank's bounded ring of recent runtime
  /// events (sends, receive waits, collectives, crashes), formatted one
  /// line per entry as "rank R: ...". Attached by the cluster runtime when
  /// the run terminates on a fault/deadlock/crash, so a failed run is
  /// diagnosable post-mortem (docs/OBSERVABILITY.md §Flight recorder).
  /// Not part of to_string() — the report stays one-line loggable.
  std::vector<std::string> flight;

  std::string to_string() const;
};

/// Exception carrying a FaultReport; thrown at the blocking receive (or by
/// the watchdog) and surfaced through Cluster::run / try_run.
struct FaultError : std::runtime_error {
  explicit FaultError(FaultReport r);
  FaultReport report;
};

/// Prepends `phase` to the caught fault's detail and rethrows it with a
/// regenerated what() string. Solver layers use this so a report escaping a
/// deep recv names the algorithm phase it unwound through, e.g.
/// "sptrsv3d L-solve: retry budget exhausted ...".
[[noreturn]] void rethrow_with_phase(FaultError& fe, const char* phase);

/// End-to-end payload checksum over the length and the raw bits of every
/// word, mixed one 8-byte word per step (multiply and xor-shift) so that
/// every input bit reaches every output bit.
std::uint64_t payload_checksum(std::span<const Real> data);

/// Whole-frame checksum: the same mixing over the frame header (src, dst,
/// tag, sequence number) before the payload, so a corrupted header cannot
/// deliver an intact-looking payload to the wrong wait. This is the checksum
/// the transport actually stamps and verifies; payload_checksum remains for
/// header-free state images (buddy checkpoints).
std::uint64_t frame_checksum(int src, int dst, int tag, std::uint64_t seq,
                             std::span<const Real> data);

/// Worst matching drop probability for one directed frame, combining the
/// global knob with per-link faults.
double drop_prob_for(const PerturbationModel& pm, int src, int dst);

/// Analytic outcome of pushing one message through the lossy network under
/// the ack/retransmit protocol. Counters are split by which endpoint they
/// accrue to (see TransportStats).
struct TransportOutcome {
  int attempts = 1;       ///< data frames sent (1 = clean first try)
  int timeouts = 0;       ///< sender retransmit-timer expiries
  int frames_dropped = 0; ///< data + ack frames the network dropped
  int acks = 0;           ///< acks the receiver sent back
  int corrupt = 0;        ///< data frames the receiver's checksum rejected
  int duplicates = 0;     ///< duplicate data frames the receiver suppressed
  bool reordered = false; ///< the accepted frame straggled and was resequenced
  /// Extra virtual seconds (timeout waits + straggle + stall slowdown) the
  /// accepted copy arrives after the clean arrival — added to the
  /// receiver's fault-clock arrival, never the clean one.
  double extra_delay = 0.0;
  bool failed = false;    ///< no intact copy was ever delivered
  bool stalled = false;   ///< failure was caused by a permanent rank stall
};

/// Simulates the delivery of one message sent src -> dst at sender clock
/// `send_vt` whose clean flight time is `flight` (latency + bytes/BW).
/// `overhead` is the per-frame software overhead, `payload_bytes` sizes the
/// retransmission ledger. Draws consume `*fseq` (the sender's fault-draw
/// counter), making the whole schedule a pure function of
/// (seed, src, draw index).
TransportOutcome simulate_transport(const PerturbationModel& pm,
                                    const TransportOptions& to, std::uint64_t seed,
                                    int src, int dst, double send_vt, double flight,
                                    double ack_flight, double overhead,
                                    std::uint64_t* fseq);

}  // namespace sptrsv
