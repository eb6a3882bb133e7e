#include "runtime/cluster.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include <cxxabi.h>
#include <sys/mman.h>
#include <unistd.h>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#include "trace/trace.hpp"

#if defined(__x86_64__)
// Fiber switch for the x86-64 System V ABI. A switch is a call: the caller
// has already saved every caller-saved register, so sptrsv_fiber_switch
// pushes only the callee-saved ones (rbx, rbp, r12-r15) and the two FP
// control registers the ABI makes callee-saved (MXCSR, the x87 control
// word), stores the stack pointer through `save_sp`, loads `load_sp` and
// pops the same frame off the other stack. Unlike glibc's swapcontext it
// makes no rt_sigprocmask syscall: no fiber changes the signal mask.
// A fresh fiber's stack holds a frame whose return address is
// sptrsv_fiber_start, which calls r13(r12) and never returns.
extern "C" void sptrsv_fiber_switch(void** save_sp, void* load_sp);
extern "C" void sptrsv_fiber_start();
asm(R"(
  .text
  .p2align 4
  .globl sptrsv_fiber_switch
  .hidden sptrsv_fiber_switch
  .type sptrsv_fiber_switch, @function
sptrsv_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size sptrsv_fiber_switch, .-sptrsv_fiber_switch

  .p2align 4
  .globl sptrsv_fiber_start
  .hidden sptrsv_fiber_start
  .type sptrsv_fiber_start, @function
sptrsv_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size sptrsv_fiber_start, .-sptrsv_fiber_start
)");
#endif

namespace sptrsv {
namespace detail {

namespace {
/// Tree depth used by the collective cost model.
double log2_ceil(int p) { return p <= 1 ? 0.0 : std::ceil(std::log2(static_cast<double>(p))); }

/// Perturbation draw-stream id reserved for the rank-constant compute skew
/// (message draws count up from 0 and never reach it).
constexpr std::uint64_t kSkewDraw = ~std::uint64_t{0};

/// Fixed bucket bounds for the runtime's histograms: receive wait seconds
/// (log-spaced around the modeled latency scale) and peer distance in
/// global ranks (powers of two — "how far does traffic travel").
constexpr double kWaitBounds[] = {1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1};
constexpr double kPeerDistBounds[] = {0, 1, 2, 4, 8, 16, 32, 64, 128};
}  // namespace

/// A message annotated with the communicator context it was sent on, plus
/// the trace edge-matching key: the sender's global rank and its per-sender
/// monotone sequence number (stamped even with tracing off — it is cheap
/// and keeps envelopes mode-independent). While delivery faults are active
/// the envelope additionally carries the reliable-transport verdict: the
/// end-to-end checksum, the fault-clock arrival (clean arrival plus every
/// recovery delay), and the analytic TransportOutcome the receiver charges
/// to its fault ledger on take (docs/ROBUSTNESS.md).
struct Envelope {
  std::uint64_t ctx = 0;
  int src_grank = 0;
  std::int64_t seq = 0;
  std::uint64_t checksum = 0;
  double fault_arrival = 0.0;
  std::unique_ptr<const TransportOutcome> transport;  // null when faults off
  Message msg;
};

/// What a parked rank is waiting for — published before every blocking
/// wait so a deadlock's FaultReport can say "rank R waiting on recv(src,
/// tags)" instead of just "wedged" (docs/ROBUSTNESS.md).
struct WaitInfo {
  int kind = 0;           ///< 0 none, 1 recv, 2 collective
  int a = 0;              ///< recv: src (comm-local, -1 wildcard); coll: generation
  int b = 0;              ///< recv: tag_lo
  int c = 0;              ///< recv: tag_hi (lo >= hi: any tag)
  std::uint64_t ctx = 0;  ///< communicator context id

  /// Whether a published receive wait accepts a message from comm-local
  /// rank `src` with `tag` on communicator `msg_ctx`.
  bool accepts(std::uint64_t msg_ctx, int src, int tag) const {
    return kind == 1 && ctx == msg_ctx && (a == kAnySource || a == src) &&
           (b >= c || (tag >= b && tag < c));
  }
};

/// RAII publication of a WaitInfo around a blocking wait.
struct WaitScope {
  WaitInfo& w;
  WaitScope(WaitInfo& wi, int kind, int a, int b, int c, std::uint64_t ctx) : w(wi) {
    w = {kind, a, b, c, ctx};
  }
  ~WaitScope() { w.kind = 0; }
};

/// One captured solve-state image, conceptually resident at the owner's
/// buddy (owner + 1) mod P. The buddy placement is a cost and feasibility
/// model, not a data-movement one: each rank keeps its own latest image,
/// shipment and fetch are charged to the fault ledger, and a buddy that dies
/// inside the owner's detection window makes the owner's crash
/// unrecoverable. RankCtx::capture_image writes `state` and
/// RankCtx::check_image reads it; its layout is [entry count, epoch, (key,
/// length, values...)*], keys and lengths stored as Real (exact below
/// 2^53). `checksum` is verified before any restore.
struct CheckpointImage {
  std::int64_t epoch = -1;   ///< monotone per-owner epoch counter
  double vt = 0.0;           ///< owner's clean clock at capture
  const char* label = "";    ///< registration label (string literal)
  std::uint64_t checksum = 0;
  std::vector<Real> state;
};

/// Per-rank runtime context (virtual clock + accounting + mailbox).
struct RankCtx {
  /// Every communicator delivers here; receives filter by (ctx, src, tag).
  std::deque<Envelope> mailbox;
  int grank = 0;                 ///< global (world) rank of this context
  double vt = 0.0;
  double category[kNumTimeCategories] = {0, 0, 0, 0};
  std::int64_t messages[kNumTimeCategories] = {0, 0, 0, 0};
  std::int64_t bytes[kNumTimeCategories] = {0, 0, 0, 0};
  double skew = 1.0;             ///< perturbation compute-skew factor
  /// Comm::compute's modeled rate for its latest nrhs (0: none yet), kept
  /// because gemm_boost calls std::pow.
  Idx rate_nrhs = 0;
  double rate = 0.0;
  std::uint64_t pseq = 0;        ///< per-message perturbation draw counter

  // --- fault ledger (docs/ROBUSTNESS.md) ---
  double fvt = 0.0;              ///< fault clock: vt + transport recovery delay
  TransportStats tstats;         ///< reliable-transport counters
  std::uint64_t fseq = 0;        ///< fault-draw counter (separate stream from
                                 ///< pseq so adding delivery faults does not
                                 ///< shift the timing draws; never reset)
  /// Accepted per-sender sequence numbers (protocol self-check: a duplicate
  /// reaching the application would be a transport bug). Only consulted
  /// while delivery faults are active.
  std::map<int, std::set<std::int64_t>> seen_seqs;
  WaitInfo wait;                 ///< deadlock diagnostics for blocking waits
  double vt_limit = std::numeric_limits<double>::infinity();

  bool tracing = false;          ///< RunOptions::trace
  RankTrace trace;               ///< event/span buffer (tracing only)
  std::int64_t send_seq = 0;     ///< per-sender message sequence (NOT reset
                                 ///< by reset_clock — seq stays unique)
  std::uint64_t trace_epoch = 0; ///< bumped by reset_clock; guards TraceSpan

  // --- metrics (docs/OBSERVABILITY.md §Metrics; null when off) ---
  MetricsRegistry* metrics = nullptr;  ///< owned by ClusterState
  /// The runtime's two histograms (registered in the ClusterState
  /// constructor, so observing never allocates; null when metrics are off).
  /// Every counter and gauge is read from the ledgers by export_metrics.
  struct MetricHandles {
    MetricsRegistry::Histogram wait;       ///< per-receive wait seconds
    MetricsRegistry::Histogram peer_dist;  ///< |dst_grank - src_grank| per send
  } mh;

  // --- flight recorder (always on, allocation-free; dumped into
  // FaultReport::flight when a run dies — docs/OBSERVABILITY.md) ---
  struct FlightEntry {
    enum Kind : int {
      kNone = 0, kSend, kRecvWait, kRecvDone, kCollective, kCrash, kCheckpoint,
      kSdc, kDegrade
    };
    Kind kind = kNone;
    int peer = -1;          ///< dst/src global rank (-1 wildcard/none)
    int a = 0;              ///< tag / tag_lo / collective generation
    int b = 0;              ///< tag_hi (recv-wait only)
    std::int64_t bytes = 0;
    double vt = 0.0;
  };
  static constexpr std::size_t kFlightCap = 32;
  FlightEntry flight[kFlightCap];
  std::uint64_t flight_n = 0;  ///< entries ever recorded (ring wraps)

  void flight_record(FlightEntry::Kind kind, int peer, int a, int b,
                     std::int64_t fbytes) {
    FlightEntry& e = flight[flight_n % kFlightCap];
    e.kind = kind;
    e.peer = peer;
    e.a = a;
    e.b = b;
    e.bytes = fbytes;
    e.vt = vt;
    ++flight_n;
  }

  // --- fault plan (docs/ROBUSTNESS.md) ---
  const MachineModel* mach = nullptr;  ///< owning cluster's machine model
  int nranks = 1;                ///< world size (prices full-world sweeps)
  /// This rank's slice of the fault plan, in (clean time, kind) order.
  const std::vector<FaultEvent>* events = nullptr;
  std::size_t next_event = 0;    ///< next unfired event (re-armed by
                                 ///< reset_clock: fault times are interpreted
                                 ///< on the post-reset clock)
  /// Memory faults the clean clock has crossed, waiting for the next
  /// checkpoint epoch to land in the live solver state.
  std::vector<SdcEvent> armed_sdc;
  /// Monotone sum of every fault delay charged inside an advance. sync_to
  /// captures a before/after delta of this to re-apply a delay that landed
  /// *inside* its own advance (its fault-clock rewrite would otherwise
  /// overwrite it); comparing for inequality keeps the fault-free
  /// arithmetic bitwise untouched.
  double crash_total = 0.0;
  RecoveryStats rstats;          ///< crash-recovery ledger (fault side)
  bool crash_model = false;      ///< perturb.crash_active(): images ship
  /// This rank's latest buddy image (epoch < 0: none since reset_clock).
  /// The rank is the only writer and reader of its own image.
  CheckpointImage image;
  /// Checkpoint registration stack (innermost = back).
  struct Registration {
    const char* label;
    StateKind kind;
    Comm::StateFn state;
  };
  std::vector<Registration> registrations;

  /// The rank holding this rank's checkpoint images.
  int buddy() const { return (grank + 1) % nranks; }

  // --- graceful degradation (docs/ROBUSTNESS.md §Graceful degradation) ---
  bool degrade = false;          ///< RunOptions::degrade
  DegradationStats dstats;       ///< degradation ledger (fault side)

  // --- silent data corruption + ABFT (docs/ROBUSTNESS.md §SDC) ---
  bool abft = false;             ///< RunOptions::abft
  SdcStats sdc;                  ///< ABFT/SDC ledger (fault side)

  /// Advances both clocks in lockstep (identical arithmetic keeps fvt
  /// bitwise equal to vt while no faults intervene); receive/collective
  /// sites go through sync_to, which rewrites fvt with the mirrored
  /// fault-arrival expression.
  void advance(double seconds, TimeCategory cat) {
    vt += seconds;
    fvt += seconds;
    category[static_cast<int>(cat)] += seconds;
    fire_due();
    // Degradation overload: once this partition's host adopted extra
    // partitions, every clean compute second really takes `mult` seconds on
    // the shrunken machine. A host only ever gains partitions, so the peak
    // multiplier is the live one. The extra rides the fault clock only.
    const double mult = dstats.overload_mult;
    if (mult > 1.0 && cat == TimeCategory::kFp) {
      const double extra = (mult - 1.0) * seconds;
      charge(extra);
      dstats.overload_time += extra;
    }
    if (vt > vt_limit) {
      FaultReport r;
      r.kind = FaultKind::kVtLimit;
      r.rank = grank;
      r.vt = vt;
      r.detail = "virtual clock passed RunOptions::vt_limit";
      throw FaultError(std::move(r));
    }
  }

  /// The one event cursor: fires, in (clean time, kind) order, every
  /// planned fault the clean clock has reached. A crash runs its recovery
  /// now, an overload step raises the compute multiplier, and a memory
  /// fault arms for the next checkpoint epoch.
  void fire_due() {
    while (next_event < events->size() && vt >= fault_time((*events)[next_event])) {
      const FaultEvent& e = (*events)[next_event++];
      if (const auto* crash = std::get_if<CrashEvent>(&e)) {
        process_crash(*crash);
      } else if (const auto* step = std::get_if<DegradeEvent>(&e)) {
        dstats.overload_mult = step->mult;
        dstats.partitions_adopted += step->adopt_delta;
      } else {
        armed_sdc.push_back(std::get<SdcEvent>(e));
      }
    }
  }

  /// The one clock-sync rule of receives and collectives: advances the
  /// clean clock to `arrival` plus `cost`, then rewrites the fault clock
  /// with the mirrored expression against `fault_arrival` — same ops, same
  /// order, so fvt == vt bitwise until a fault adds delay. A fault charged
  /// inside the advance landed on fvt too; it is re-applied after the
  /// rewrite.
  void sync_to(double arrival, double fault_arrival, double cost, TimeCategory cat) {
    const double ft0 = fvt;
    const double c0 = crash_total;
    advance(std::max(0.0, arrival - vt) + cost, cat);
    fvt = ft0;
    fvt += std::max(0.0, fault_arrival - ft0) + cost;
    if (crash_total != c0) fvt += crash_total - c0;
  }

  /// Charges a recovery delay that lands inside an advance.
  void charge(double delay) {
    fvt += delay;
    crash_total += delay;
  }

  /// Heartbeat detection latency of a crash at clean time t: the rank is
  /// declared dead `misses` beats after the last heartbeat it answered (the
  /// beat grid is absolute).
  double detect_delay(double t) const {
    return (std::floor(t / kHeartbeatPeriod) +
            static_cast<double>(kHeartbeatMisses)) * kHeartbeatPeriod - t;
  }

  /// One synchronizing revoke/shrink/agree tree sweep among n ranks.
  double sweep(int n) const {
    return 2.0 * log2_ceil(n) * (mach->net.latency + mach->mpi_overhead);
  }

  /// What recovery pays to resume from this rank's latest checkpoint image.
  struct Fetch {
    const CheckpointImage* img = nullptr;  ///< null: replay from solve start
    double wire = 0.0;                     ///< fetch + install time
    double replay = 0.0;                   ///< progress recomputed since the image
    std::int64_t bytes = 0;                ///< image bytes shipped
  };

  /// Fetches the latest image for a recovery at clean time t. `survives` =
  /// false means the image died with its holder. An image failing its
  /// payload checksum was silently corrupted after capture: it is rejected
  /// (counted in image_rejects) and recovery replays from the start instead
  /// of resurrecting bad state. The innermost registration whose label
  /// matches the image checks it against the live state; no matching
  /// registration (the capturing scope already closed) still counts as a
  /// restore.
  Fetch fetch_image(double t, bool survives) {
    Fetch f;
    f.img = survives && image.epoch >= 0 ? &image : nullptr;
    f.replay = t * kReplayFactor;
    if (f.img != nullptr && payload_checksum(f.img->state) != f.img->checksum) {
      rstats.image_rejects += 1;
      f.img = nullptr;
    }
    if (f.img == nullptr) return f;
    const double bytes = static_cast<double>(f.img->state.size()) * sizeof(Real);
    f.bytes = static_cast<std::int64_t>(bytes);
    f.wire = kRestoreOverhead + mach->net.latency + bytes / mach->net.bandwidth;
    f.replay = (t - f.img->vt) * kReplayFactor;
    for (auto it = registrations.rbegin(); it != registrations.rend(); ++it) {
      if (std::strcmp(it->label, f.img->label) == 0) {
        check_image(*it);
        break;
      }
    }
    rstats.restores += 1;
    return f;
  }

  /// Writes the innermost registration's `entries` into this rank's image,
  /// reusing its storage.
  void capture_image(const Registration& reg, const std::vector<StateEntry>& entries) {
    std::size_t words = 2;
    for (const StateEntry& e : entries) words += 2 + e.values.size();
    image.epoch += 1;
    image.vt = vt;
    image.label = reg.label;
    image.state.clear();
    image.state.reserve(words);
    image.state.push_back(static_cast<Real>(entries.size()));
    image.state.push_back(static_cast<Real>(image.epoch));
    for (const StateEntry& e : entries) {
      image.state.push_back(static_cast<Real>(e.key));
      image.state.push_back(static_cast<Real>(e.values.size()));
      image.state.insert(image.state.end(), e.values.begin(), e.values.end());
    }
    image.checksum = payload_checksum(image.state);
  }

  /// Restore check. In the analytic crash model the live state already sits
  /// at the crash point, so a correct image, captured at an earlier epoch,
  /// agrees with it: kAppendOnly images are a bitwise subset of the live
  /// entries, kInPlace images list the live keys and lengths in the live
  /// order. Both lists are walked once, together. A mismatch means the
  /// checkpoint layer corrupted state — a bug (std::logic_error), not a
  /// modeled fault.
  void check_image(const Registration& reg) const {
    const std::vector<StateEntry> live = reg.state();
    const std::vector<Real>& s = image.state;
    const auto count = static_cast<std::size_t>(s[0]);
    const bool append_only = reg.kind == StateKind::kAppendOnly;
    bool ok = append_only || count == live.size();
    std::size_t pos = 2;
    std::size_t j = 0;
    for (std::size_t e = 0; ok && e < count; ++e, ++j) {
      const auto key = static_cast<Idx>(s[pos]);
      const auto len = static_cast<std::size_t>(s[pos + 1]);
      pos += 2;
      while (append_only && j < live.size() && live[j].key < key) ++j;
      ok = j < live.size() && live[j].key == key && live[j].values.size() == len &&
           (!append_only ||
            std::memcmp(live[j].values.data(), s.data() + pos, len * sizeof(Real)) == 0);
      pos += len;
    }
    if (!ok) {
      throw std::logic_error(std::string(reg.label) +
                             ": checkpoint image disagrees with live solve state");
    }
  }

  /// A crash the clean clock just crossed, simulated analytically at the
  /// crossing instant — the victim rank *is* the spare that adopts its
  /// identity (the clean clock, counters and solve state are exactly what
  /// the restored spare would recompute bit for bit), so only the recovery
  /// delay (heartbeat detection, ULFM repair sweeps, buddy restore, replay
  /// since the last epoch) needs modeling, and it lands on the fault clock
  /// and RecoveryStats. Unrecoverable verdicts (buddy-pair loss, spare-pool
  /// exhaustion) degrade under RunOptions::degrade and throw a structured
  /// FaultError otherwise.
  void process_crash(const CrashEvent& ev) {
    rstats.crashes += 1;
    if (ev.verdict != FaultKind::kNone) {
      if (!degrade || ev.survivors_after <= 0 || ev.adopter < 0) {
        FaultReport r;
        r.kind = degrade ? FaultKind::kNoSurvivors : ev.verdict;
        r.rank = grank;
        r.peer = buddy();
        r.vt = ev.vt;
        r.detail =
            degrade ? "elastic degradation found no survivor to adopt the "
                      "dead rank's partition"
            : ev.verdict == FaultKind::kBuddyLoss
                ? "rank and its checkpoint buddy died inside one "
                  "detection window; no image survives to restore from"
                : "crash outlived the spare-rank pool; no identity "
                  "left to adopt";
        throw FaultError(std::move(r));
      }
      process_degrade(ev);
      return;
    }
    const double t = ev.vt;
    const double detect = detect_delay(t);
    // ULFM repair: revoke, shrink and two agreement sweeps among the
    // survivors.
    const double repair = 4.0 * sweep(nranks);
    const Fetch f = fetch_image(t, ev.image_survives != 0);
    rstats.spares_used += 1;
    rstats.detect_time += detect;
    rstats.repair_time += repair;
    rstats.restore_time += f.wire;
    rstats.replay_time += f.replay;
    flight_record(FlightEntry::kCrash, ev.spare,
                  f.img ? static_cast<int>(f.img->epoch) : -1, 0, 0);
    const double delay = detect + repair + f.wire + f.replay;
    charge(delay);
    if (tracing) {
      trace.marks.push_back({"crash", t, static_cast<std::int64_t>(ev.spare)});
      trace.marks.push_back({"restore", t + delay, f.img ? f.img->epoch : -1});
    }
  }

  /// Elastic shrink-and-redistribute (RunOptions::degrade) for a crash whose
  /// verdict was terminal: the survivors agree on the dead set (two
  /// survivor-sized sweeps), shrink the world (one sweep), and the ring
  /// adopter pulls the victim's partition from the surviving buddy image,
  /// replaying the work since that epoch. Modeled analytically at the
  /// victim's context — the victim rank keeps executing its partition,
  /// which is bit-for-bit the work the adopter performs after the shrink
  /// (the solvers' reduction order is partition-parametric), so the clean
  /// ledger is untouched by construction; every cost lands on the fault
  /// clock and DegradationStats. The adopter's ongoing overload is charged
  /// separately by the DegradeEvent steps in the same stream.
  void process_degrade(const CrashEvent& ev) {
    const double t = ev.vt;
    const double detect = detect_delay(t);
    // Repair sweeps are sized to the surviving world, not the original one.
    const double agree = 2.0 * sweep(ev.survivors_after);
    const double shrink = sweep(ev.survivors_after);
    const Fetch f = fetch_image(t, ev.image_survives != 0);
    rstats.detect_time += detect;
    dstats.degrades += 1;
    dstats.ranks_lost += 1;
    dstats.redistributed_bytes += f.bytes;
    dstats.agree_time += agree;
    dstats.shrink_time += shrink;
    dstats.redistribute_time += f.wire;
    dstats.replay_time += f.replay;
    flight_record(FlightEntry::kDegrade, ev.adopter, ev.survivors_after,
                  f.img ? static_cast<int>(f.img->epoch) : -1, f.bytes);
    const double delay = detect + agree + shrink + f.wire + f.replay;
    charge(delay);
    if (tracing) {
      trace.marks.push_back(
          {"shrink", t, static_cast<std::int64_t>(ev.survivors_after)});
      trace.marks.push_back(
          {"redistribute", t + delay, static_cast<std::int64_t>(ev.adopter)});
    }
  }

  /// Fires at every checkpoint epoch while an SDC schedule or ABFT is
  /// active: lands every armed memory fault as a bit flip in `entries` (the
  /// innermost registration's live state), then (with ABFT on) charges the
  /// epoch checksum verification, localizes each flipped word and recomputes
  /// it from retained inputs — in the analytic model the recomputed value is
  /// exactly the journaled pre-fault bits, so downstream state, the clean
  /// clock and every clean counter stay bitwise identical to a fault-free
  /// run. All detection/repair cost lands on the fault clock
  /// and SdcStats; with ABFT off the corruption persists for the end-of-
  /// solve residual gate to catch (docs/ROBUSTNESS.md §SDC).
  void process_sdc_epoch(const std::vector<StateEntry>& entries) {
    if (!abft && armed_sdc.empty()) return;
    std::size_t words = 0;
    for (const StateEntry& e : entries) words += e.values.size();
    struct Flip {
      std::size_t entry, off;
      Real original;
      int bit;
      double refail_draw;
      int target;  ///< MemFaultTarget ordinal, for per-target attribution
    };
    Flip flips[8];
    std::size_t nflips = 0;
    for (const SdcEvent& ev : armed_sdc) {
      if (words == 0 || nflips == sizeof(flips) / sizeof(flips[0])) continue;
      // Probe forward (wrapping) from the drawn word to the next nonzero:
      // flipping a mantissa bit of ±0 yields denormal noise with no
      // numerical effect, which is not a modeled upset. All-zero state
      // drops the event without counting it as injected.
      const std::size_t w0 = static_cast<std::size_t>(ev.word_draw % words);
      for (std::size_t probe = 0; probe < words; ++probe) {
        std::size_t idx = (w0 + probe) % words;
        std::size_t si = 0;
        while (idx >= entries[si].values.size()) idx -= entries[si++].values.size();
        Real& v = entries[si].values[idx];
        if (v == 0.0) continue;
        flips[nflips++] = {si,     idx,           v,
                           ev.bit, ev.refail_draw, static_cast<int>(ev.target)};
        std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
        bits ^= std::uint64_t{1} << ev.bit;
        v = std::bit_cast<Real>(bits);
        sdc.injected += 1;
        sdc.injected_by[static_cast<int>(ev.target)] += 1;
        flight_record(FlightEntry::kSdc, -1, static_cast<int>(ev.target),
                      ev.bit, 0);
        if (tracing) {
          trace.marks.push_back(
              {"sdc-inject", vt, static_cast<std::int64_t>(ev.bit)});
        }
        break;
      }
    }
    armed_sdc.clear();
    if (!abft) return;
    // Checksum verification: one fused multiply-add per live word against
    // the running block checksum, plus a fixed bookkeeping overhead.
    const double vcost =
        kAbftCheckOverhead + 2.0 * static_cast<double>(words) / mach->cpu_flop_rate;
    sdc.checks += 1;
    sdc.verify_time += vcost;
    fvt += vcost;
    // Unwind the flip journal in reverse (LIFO) order: when two events of
    // the same epoch land on the same word, the later journal entry's
    // "original" already contains the earlier flip, so forward restoration
    // would re-corrupt the word after the first restore undoes it.
    for (std::size_t i = nflips; i-- > 0;) {
      const Flip& f = flips[i];
      sdc.detected += 1;
      if (tracing) {
        trace.marks.push_back(
            {"sdc-detect", vt, static_cast<std::int64_t>(f.bit)});
      }
      // The checksum mismatch localizes the corrupt block; recomputing it
      // from retained inputs restores the exact pre-fault bits. A re-failed
      // recomputation escalates to the buddy-checkpoint restore path.
      entries[f.entry].values[f.off] = f.original;
      double rcost = kAbftRecomputeOverhead;
      if (f.refail_draw < mach->abft.recompute_refail_prob) {
        rcost += kRestoreOverhead;
        sdc.escalated += 1;
      }
      sdc.corrected += 1;
      sdc.corrected_by[f.target] += 1;
      sdc.repair_time += rcost;
      fvt += rcost;
      if (tracing) {
        trace.marks.push_back(
            {"sdc-correct", vt, static_cast<std::int64_t>(f.bit)});
      }
    }
  }

  /// Recording chokepoint: every clock advance that should appear in the
  /// trace funnels through here, so a traced rank's events tile [0, vt]
  /// exactly (the contiguity invariant Trace::critical_path relies on).
  void advance_traced(double seconds, TimeCategory cat, TraceEventKind kind) {
    const double t0 = vt;
    advance(seconds, cat);
    if (tracing) {
      TraceEvent e;
      e.kind = kind;
      e.cat = cat;
      e.t0 = t0;
      e.t1 = vt;
      trace.events.push_back(e);
    }
  }

  /// Writes every counter and gauge the runtime owns into the registry,
  /// read from the ledgers. Runs once at the end of every run, so the
  /// registry cannot drift from them.
  void export_metrics();
};

namespace {

/// The registry counters mirrored from the ledgers: one row per metric,
/// naming the ledger field export_metrics copies into it.
struct LedgerCounter {
  const char* name;
  std::int64_t (*read)(const RankCtx&);
};
using Ctx = const RankCtx&;
constexpr LedgerCounter kLedgerCounters[] = {
    {"cluster.messages.fp", [](Ctx c) { return c.messages[0]; }},
    {"cluster.messages.xy", [](Ctx c) { return c.messages[1]; }},
    {"cluster.messages.z", [](Ctx c) { return c.messages[2]; }},
    {"cluster.messages.other", [](Ctx c) { return c.messages[3]; }},
    {"cluster.bytes.fp", [](Ctx c) { return c.bytes[0]; }},
    {"cluster.bytes.xy", [](Ctx c) { return c.bytes[1]; }},
    {"cluster.bytes.z", [](Ctx c) { return c.bytes[2]; }},
    {"cluster.bytes.other", [](Ctx c) { return c.bytes[3]; }},
    {"transport.retransmits", [](Ctx c) { return c.tstats.retransmits; }},
    {"transport.timeouts", [](Ctx c) { return c.tstats.timeouts; }},
    {"transport.frames_dropped", [](Ctx c) { return c.tstats.frames_dropped; }},
    {"transport.acks", [](Ctx c) { return c.tstats.acks; }},
    {"transport.duplicates", [](Ctx c) { return c.tstats.duplicates; }},
    {"checkpoint.epochs", [](Ctx c) { return c.rstats.checkpoints; }},
    {"checkpoint.bytes", [](Ctx c) { return c.rstats.checkpoint_bytes; }},
    {"recovery.crashes", [](Ctx c) { return c.rstats.crashes; }},
    {"recovery.image_rejects", [](Ctx c) { return c.rstats.image_rejects; }},
    // The ULFM sweeps the ledger's recoveries imply: four per spare
    // adoption, three per degrade.
    {"recovery.sweeps",
     [](Ctx c) { return 4 * c.rstats.spares_used + 3 * c.dstats.degrades; }},
    {"abft.checks", [](Ctx c) { return c.sdc.checks; }},
    {"abft.injected", [](Ctx c) { return c.sdc.injected; }},
    {"abft.detected", [](Ctx c) { return c.sdc.detected; }},
    {"abft.corrected", [](Ctx c) { return c.sdc.corrected; }},
    {"abft.injected.x", [](Ctx c) { return c.sdc.injected_by[0]; }},
    {"abft.injected.l", [](Ctx c) { return c.sdc.injected_by[1]; }},
    {"abft.injected.partial", [](Ctx c) { return c.sdc.injected_by[2]; }},
    {"abft.corrected.x", [](Ctx c) { return c.sdc.corrected_by[0]; }},
    {"abft.corrected.l", [](Ctx c) { return c.sdc.corrected_by[1]; }},
    {"abft.corrected.partial", [](Ctx c) { return c.sdc.corrected_by[2]; }},
    {"recovery.degrade.events", [](Ctx c) { return c.dstats.degrades; }},
    {"recovery.degrade.ranks_lost", [](Ctx c) { return c.dstats.ranks_lost; }},
    {"recovery.degrade.adopted", [](Ctx c) { return c.dstats.partitions_adopted; }},
    {"recovery.degrade.bytes", [](Ctx c) { return c.dstats.redistributed_bytes; }},
};

}  // namespace

void RankCtx::export_metrics() {
  for (const LedgerCounter& row : kLedgerCounters) {
    *metrics->counter(row.name).v = row.read(*this);
  }
  // The overload multiplier; 0 until an overload step fires.
  metrics->gauge("recovery.degrade.overload").set(dstats.overload_mult);
}

/// Thrown into ranks blocked on a dead cluster.
struct ClusterAborted : std::runtime_error {
  ClusterAborted() : std::runtime_error("cluster aborted: another rank failed") {}
};

/// Thrown into ranks parked on the scheduler when it proves the run is
/// wedged (no READY or RUNNING rank, some BLOCKED). The catcher turns it
/// into a structured FaultError naming its own blocked wait.
struct SchedulerDeadlock {};

/// Mirror of libstdc++'s per-thread `__cxa_eh_globals` (unwind-cxx.h): the
/// chain of exceptions currently being handled and the uncaught count.
/// Fibers share one thread, so each fiber keeps its own copy while it is
/// switched out — otherwise a rank parked inside a catch handler would
/// rethrow (`throw;`) whatever the rank that ran in between was handling.
struct EhGlobals {
  void* caught = nullptr;
  unsigned int uncaught = 0;
};

namespace {

#if defined(__x86_64__)
/// A switched-out fiber: the stack pointer its last switch saved.
struct FiberContext {
  void* sp = nullptr;
};

/// Prepares `c` to run fn(arg) on the stack [lo, lo + size) at its first
/// switch. The fiber starts with the calling thread's FP control settings,
/// as a getcontext-made context would.
void fiber_make(FiberContext& c, char* lo, std::size_t size, void (*fn)(void*),
                void* arg) {
  std::uint16_t fcw = 0;
  std::uint32_t mxcsr = 0;
  asm volatile("fnstcw %0" : "=m"(fcw));
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  // The frame sptrsv_fiber_switch pops: x87 control word, MXCSR, r15, r14,
  // r13, r12, rbx, rbp, return address. The `ret` leaves rsp 16-byte
  // aligned, as a call site would before its call.
  const auto top = reinterpret_cast<std::uintptr_t>(lo + size) & ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<std::uint64_t*>(top - 16) - 9;
  const std::uint64_t r13 = reinterpret_cast<std::uintptr_t>(fn);
  const std::uint64_t r12 = reinterpret_cast<std::uintptr_t>(arg);
  const std::uint64_t ret = reinterpret_cast<std::uintptr_t>(&sptrsv_fiber_start);
  const std::uint64_t init[9] = {fcw, mxcsr, 0, 0, r13, r12, 0, 0, ret};
  std::memcpy(frame, init, sizeof init);
  c.sp = frame;
}

void fiber_swap(FiberContext& from, const FiberContext& to) {
  sptrsv_fiber_switch(&from.sp, to.sp);
}
#else
/// A switched-out fiber: its saved ucontext (targets without the
/// hand-written switch).
struct FiberContext {
  ucontext_t uc;
};

/// makecontext passes int arguments only, so fn and arg arrive in halves.
void fiber_trampoline(std::uint32_t fn_hi, std::uint32_t fn_lo, std::uint32_t arg_hi,
                      std::uint32_t arg_lo) {
  auto* fn = reinterpret_cast<void (*)(void*)>((std::uintptr_t{fn_hi} << 32) | fn_lo);
  fn(reinterpret_cast<void*>((std::uintptr_t{arg_hi} << 32) | arg_lo));
}

void fiber_make(FiberContext& c, char* lo, std::size_t size, void (*fn)(void*),
                void* arg) {
  if (getcontext(&c.uc) != 0) {
    throw std::system_error(errno, std::generic_category(), "fiber context");
  }
  c.uc.uc_stack.ss_sp = lo;
  c.uc.uc_stack.ss_size = size;
  c.uc.uc_link = nullptr;
  const auto f = reinterpret_cast<std::uintptr_t>(fn);
  const auto a = reinterpret_cast<std::uintptr_t>(arg);
  makecontext(&c.uc, reinterpret_cast<void (*)()>(&fiber_trampoline), 4,
              static_cast<std::uint32_t>(f >> 32), static_cast<std::uint32_t>(f),
              static_cast<std::uint32_t>(a >> 32), static_cast<std::uint32_t>(a));
}

void fiber_swap(FiberContext& from, const FiberContext& to) {
  swapcontext(&from.uc, &to.uc);
}
#endif

/// Fiber stacks: one lazily committed mapping of `slots` stacks of
/// kFiberStackBytes, each above a PROT_NONE guard page.
class StackMapping {
 public:
  StackMapping() = default;
  explicit StackMapping(std::size_t slots) {
    const std::size_t bytes = slot_bytes() * slots;
    void* region = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (region == MAP_FAILED) throw std::bad_alloc();
    base_ = static_cast<char*>(region);
    slots_ = slots;
    for (std::size_t r = 0; r < slots; ++r) {
      if (mprotect(base_ + r * slot_bytes(), page(), PROT_NONE) != 0) {
        const int err = errno;
        release();
        throw std::system_error(err, std::generic_category(), "fiber stack guard");
      }
    }
  }
  StackMapping(StackMapping&& o) noexcept
      : base_(std::exchange(o.base_, nullptr)), slots_(std::exchange(o.slots_, 0)) {}
  StackMapping& operator=(StackMapping&& o) noexcept {
    if (this != &o) {
      release();
      base_ = std::exchange(o.base_, nullptr);
      slots_ = std::exchange(o.slots_, 0);
    }
    return *this;
  }
  ~StackMapping() { release(); }

  std::size_t slots() const { return slots_; }
  /// Lowest usable byte of stack r (its guard page lies just below).
  char* stack(std::size_t r) const { return base_ + r * slot_bytes() + page(); }

  /// Clears AddressSanitizer's poison left on these addresses by an
  /// earlier run. Frames that never returned (a finished fiber's last
  /// switch, for one) leave their redzones behind, and munmap does not
  /// clear them either, so a fresh mapping at a recycled address can carry
  /// them too. fiber_make's write of a fiber's first frame would trip them
  /// as a stack-buffer-overflow.
  void unpoison() const {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(base_, slot_bytes() * slots_);
#endif
  }

 private:
  static std::size_t page() {
    static const auto bytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return bytes;
  }
  static std::size_t slot_bytes() { return page() + kFiberStackBytes; }
  void release() {
    if (base_ != nullptr) munmap(base_, slot_bytes() * slots_);
    base_ = nullptr;
    slots_ = 0;
  }

  char* base_ = nullptr;
  std::size_t slots_ = 0;
};

/// The largest stack mapping a finished run on this thread left behind,
/// guard pages included. The next run with no more ranks than it holds
/// reuses it, so a P = 2048 run does not pay mmap, 2048 mprotect calls,
/// munmap and fresh page faults each time. Pages its stacks touched stay
/// resident until the thread exits.
thread_local StackMapping t_kept_stacks;

/// A mapping of at least `slots` stacks, free of AddressSanitizer poison.
StackMapping take_stacks(std::size_t slots) {
  StackMapping stacks = std::move(t_kept_stacks);
  if (stacks.slots() < slots) {
    stacks = StackMapping();  // unmap before mapping the larger one
    stacks = StackMapping(slots);
  }
  stacks.unpoison();
  return stacks;
}

void keep_stacks(StackMapping stacks) {
  if (stacks.slots() > t_kept_stacks.slots()) t_kept_stacks = std::move(stacks);
}

/// The READY ranks of a run as an indexed binary min-heap ordered by
/// (key, rank), keys read from the scheduler's per-rank array. Its front is
/// the minimal key, the lowest rank on a tie. Every rank's heap slot is
/// tracked, so erasing a rank or lowering its key costs O(log P), and no
/// operation allocates once the heap is built.
class ReadyHeap {
 public:
  /// Every rank of `key`, all at key 0 (ascending ranks form a heap).
  explicit ReadyHeap(const std::vector<double>& key)
      : key_(key), heap_(key.size()), slot_(key.size()) {
    std::iota(heap_.begin(), heap_.end(), 0);
    std::iota(slot_.begin(), slot_.end(), 0);
  }

  bool empty() const { return heap_.empty(); }
  /// The minimal (key, rank) READY rank; the heap must not be empty.
  int front() const { return heap_.front(); }

  /// Adds `rank`, not in the heap, at its current key.
  void push(int rank) {
    heap_.push_back(rank);
    sift_up(heap_.size() - 1);
  }

  /// Removes `rank`, which is in the heap.
  void erase(int rank) {
    const std::size_t i = slot_[static_cast<size_t>(rank)];
    const int last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    place(i, last);
    sift_down(i);
    sift_up(slot_[static_cast<size_t>(last)]);
  }

  /// Restores the order after the key of `rank`, in the heap, was lowered.
  void key_lowered(int rank) { sift_up(slot_[static_cast<size_t>(rank)]); }

 private:
  bool before(int a, int b) const {
    const double ka = key_[static_cast<size_t>(a)];
    const double kb = key_[static_cast<size_t>(b)];
    return ka < kb || (ka == kb && a < b);
  }

  void place(std::size_t i, int rank) {
    heap_[i] = rank;
    slot_[static_cast<size_t>(rank)] = i;
  }

  void sift_up(std::size_t i) {
    const int r = heap_[i];
    while (i > 0 && before(r, heap_[(i - 1) / 2])) {
      place(i, heap_[(i - 1) / 2]);
      i = (i - 1) / 2;
    }
    place(i, r);
  }

  void sift_down(std::size_t i) {
    const int r = heap_[i];
    for (std::size_t c = 2 * i + 1; c < heap_.size(); c = 2 * i + 1) {
      if (c + 1 < heap_.size() && before(heap_[c + 1], heap_[c])) ++c;
      if (!before(heap_[c], r)) break;
      place(i, heap_[c]);
      i = c;
    }
    place(i, r);
  }

  const std::vector<double>& key_;
  std::vector<int> heap_;
  std::vector<std::size_t> slot_;  ///< heap index of each rank in the heap
};

}  // namespace

/// The run scheduler (docs/DETERMINISM.md).
///
/// Every rank runs as a fiber on the thread that called Cluster::run, so
/// exactly one rank executes at a time and every blocking point in the
/// runtime is a user-space switch to the next rank. Under the
/// default kFifo policy the next rank is always the READY rank with the
/// lexicographically smallest (virtual-time key, rank) pair, kept in an
/// indexed binary heap, so a grant costs O(log P) and a commit-fence check
/// O(1). The complete execution order — and with it every wildcard-receive
/// choice, clock value and message count — is a pure function of the
/// program.
///
/// Exploration policies (docs/TESTING.md) permute the grant order among
/// *eligible* ranks only: a rank that yielded through the commit fence
/// (Comm::recv_range deferring while someone could still send earlier) is
/// eligible again only once it holds the minimal key — re-granting it any
/// sooner would spin it against the very condition it yielded on. Ranks
/// that are READY for any other reason (start, wake after a delivery) are
/// freely permutable: whichever of them runs first, each receive still
/// commits to the globally earliest producible arrival, so the modeled
/// outcome is invariant and only the interleaving explored changes. Every
/// grant decision is recorded into a ScheduleCertificate for exact replay.
///
/// States: READY (in the ready set, key = the virtual time it would resume
/// at), RUNNING, BLOCKED (needs wake(): an unsatisfied receive or an
/// unfinished collective), DONE. Every rank starts READY at key 0.
class Scheduler {
 public:
  Scheduler(int nranks, const RunOptions& opts)
      : replay_(opts.replay_schedule),
        policy_(replay_ ? replay_->policy : opts.schedule),
        seed_(replay_ ? replay_->seed : opts.schedule_seed),
        delay_left_(opts.delay_budget),
        state_(static_cast<size_t>(nranks), State::kReady),
        key_(static_cast<size_t>(nranks), 0.0),
        yielded_(static_cast<size_t>(nranks), 0),
        ready_(key_),
        fibers_(static_cast<size_t>(nranks)) {
    if (policy_ == SchedulePolicy::kRandomPriority) {
      prio_.resize(static_cast<size_t>(nranks));
      for (int r = 0; r < nranks; ++r) {
        // Bit 32 keeps every initial priority above the demotion counter's
        // range, so a demoted rank sinks below all undemoted ones.
        prio_[static_cast<size_t>(r)] =
            hash64(seed_ ^ hash64(static_cast<std::uint64_t>(r) + 1)) |
            (std::uint64_t{1} << 32);
      }
      change_at_.reserve(static_cast<size_t>(opts.priority_points));
      for (int i = 0; i < opts.priority_points; ++i) {
        change_at_.push_back(hash64(seed_ ^ (0x9E3779B9ull + static_cast<std::uint64_t>(i))) % 512);
      }
      std::sort(change_at_.begin(), change_at_.end());
    }
  }

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  ~Scheduler() { keep_stacks(std::move(stacks_)); }

  /// Invoked at the moment a deadlock is proven, with some blocked rank as
  /// witness — while every parked rank's WaitInfo is still published, so
  /// the report can name what each one waits on.
  void set_deadlock_callback(std::function<void(int)> cb) {
    deadlock_cb_ = std::move(cb);
  }

  /// Per-rank "sched.grants" metric handles (empty when metrics are off).
  /// NOTE: grant counts are the one metric that is legitimately
  /// policy-dependent — exploration policies permute grants by design — so
  /// cross-policy comparisons must skip "sched.*" names.
  void set_grant_counters(std::vector<MetricsRegistry::Counter> counters) {
    grant_counters_ = std::move(counters);
  }

  /// Runs `body(r)` for every rank r as a fiber on the calling thread and
  /// returns once no rank can run any more. Every rank is then DONE, or the
  /// run aborted (a rank threw, or grant() proved a deadlock): each fiber
  /// still parked is resumed once so it unwinds through the throw in
  /// block()/yield() into `body`'s own handlers.
  void run(const std::function<void(int)>& body) {
    body_ = &body;
    stacks_ = take_stacks(fibers_.size());
    for (size_t r = 0; r < fibers_.size(); ++r) {
      Fiber& f = fibers_[r];
      f.stack_lo = stacks_.stack(r);
      f.stack_size = kFiberStackBytes;
      fiber_make(f.ctx, stacks_.stack(r), kFiberStackBytes, &Scheduler::entry, this);
    }
    const int first = grant();
    if (first >= 0) switch_to(-1, first);
    if (!aborted_) return;
    for (size_t r = 0; r < fibers_.size(); ++r) {
      if (fibers_[r].started && state_[r] != State::kDone) {
        running_ = static_cast<int>(r);
        switch_to(-1, static_cast<int>(r));
      }
    }
  }

  /// Re-enters the ready set with `key` (the virtual time the rank intends
  /// to resume at) and runs whichever rank the policy grants — possibly
  /// this one again. Used to defer a receive commit while a rank with an
  /// earlier clock could still send.
  void yield(int rank, double key) {
    throw_if_aborted();
    state_[static_cast<size_t>(rank)] = State::kReady;
    key_[static_cast<size_t>(rank)] = key;
    yielded_[static_cast<size_t>(rank)] = 1;
    ready_.push(rank);
    running_ = -1;
    const int next = grant();
    if (next != rank) switch_to(rank, next);
    throw_if_aborted();
  }

  /// Parks the rank until wake(); resumes once re-granted.
  void block(int rank, double key) {
    throw_if_aborted();
    state_[static_cast<size_t>(rank)] = State::kBlocked;
    key_[static_cast<size_t>(rank)] = key;
    yielded_[static_cast<size_t>(rank)] = 0;
    running_ = -1;
    switch_to(rank, grant());
    throw_if_aborted();
  }

  /// Marks a blocked rank ready (no-op otherwise). Only the running rank
  /// calls this — after delivering a message or finalizing a collective.
  void wake(int rank) {
    if (state_[static_cast<size_t>(rank)] == State::kBlocked) {
      state_[static_cast<size_t>(rank)] = State::kReady;
      ready_.push(rank);
    }
  }

  /// Lowers the key of a rank that yielded through the commit fence to
  /// `key`, if that is earlier (no-op otherwise). A delivery calls this when
  /// the new message matches the yielded receive: the rank can now commit,
  /// and send, at `key`, so ready_below must see it there.
  void lower_yielded_key(int rank, double key) {
    const auto r = static_cast<size_t>(rank);
    if (state_[r] != State::kReady || !yielded_[r] || key >= key_[r]) return;
    key_[r] = key;
    ready_.key_lowered(rank);
  }

  /// True if a READY rank's key is strictly below `key` — i.e. someone
  /// could still execute (and send) at an earlier virtual time. The caller
  /// is RUNNING, so it is never in the ready set itself.
  bool ready_below(double key) const {
    return !ready_.empty() && key_[static_cast<size_t>(ready_.front())] < key;
  }

  /// Stops granting; every parked rank throws ClusterAborted on resume.
  void abort() { aborted_ = true; }
  bool aborted() const { return aborted_; }

  /// The grant record so far.
  ScheduleCertificate certificate() const {
    ScheduleCertificate c;
    c.policy = policy_;
    c.seed = seed_;
    c.grants = record_;
    return c;
  }

 private:
  enum class State { kReady, kRunning, kBlocked, kDone };

  /// One rank's execution context; index -1 (main_) is the calling thread.
  struct Fiber {
    FiberContext ctx;
    EhGlobals eh;           ///< exception state while switched out
    bool started = false;   ///< has run at least once
    // AddressSanitizer bookkeeping, unused in plain builds: the stack
    // bounds (main_'s are learned on the first switch away from it) and the
    // saved fake stack.
    const void* stack_lo = nullptr;
    std::size_t stack_size = 0;
    void* asan_fake = nullptr;
  };

  /// Fiber entry point. The granted rank is always `running_` when a fiber
  /// first starts. Never returns: finish() switches away for good.
  static void entry(void* arg) {
    auto* self = static_cast<Scheduler*>(arg);
    self->finish_switch(nullptr);
    const int rank = self->running_;
    (*self->body_)(rank);
    self->finish(rank);
  }

  /// Releases the rank for good (its body returned or unwound).
  [[noreturn]] void finish(int rank) {
    state_[static_cast<size_t>(rank)] = State::kDone;
    running_ = -1;
    switch_to(rank, grant(), /*exiting=*/true);
    std::abort();  // a DONE fiber is never resumed
  }

  Fiber& fiber(int r) { return r < 0 ? main_ : fibers_[static_cast<size_t>(r)]; }

  /// Switches from `from` to `to` (-1 = the calling thread's loop in run()),
  /// carrying the C++ exception state with the stack. `exiting` marks the
  /// last switch away from a finished fiber.
  void switch_to(int from, int to, [[maybe_unused]] bool exiting = false) {
    Fiber& a = fiber(from);
    Fiber& b = fiber(to);
    b.started = true;
    auto* eh = reinterpret_cast<EhGlobals*>(abi::__cxa_get_globals());
    a.eh = *eh;
    *eh = b.eh;
    switched_from_ = from;
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(exiting ? nullptr : &a.asan_fake, b.stack_lo,
                                   b.stack_size);
#endif
    fiber_swap(a.ctx, b.ctx);
    finish_switch(a.asan_fake);
  }

  /// Completes a switch on the resumed stack: AddressSanitizer learns that
  /// the stack changed and records the bounds of the one just left.
  void finish_switch([[maybe_unused]] void* fake_stack) {
#if defined(__SANITIZE_ADDRESS__)
    Fiber& prev = fiber(switched_from_);
    __sanitizer_finish_switch_fiber(fake_stack, &prev.stack_lo, &prev.stack_size);
#endif
  }

  void throw_if_aborted() const {
    if (!aborted_) return;
    if (deadlocked_) throw SchedulerDeadlock{};
    throw ClusterAborted();
  }

  /// A READY rank the policy may legally grant: never yielded, or yielded
  /// but now holding the minimal key (see the class comment).
  bool eligible(size_t r, double min_key) const {
    return state_[r] == State::kReady && (!yielded_[r] || key_[r] <= min_key);
  }

  /// Picks the next rank to run and marks it RUNNING; -1 when nothing can
  /// run (everyone DONE, the run aborted, or a deadlock just proven).
  int grant() {
    if (aborted_) return -1;
    if (ready_.empty()) {
      // Everyone blocked or done. A BLOCKED rank can only be woken by a
      // RUNNING rank, so if anyone is still blocked the run is provably
      // wedged: abort with the deadlock verdict (docs/ROBUSTNESS.md).
      for (size_t r = 0; r < state_.size(); ++r) {
        if (state_[r] == State::kBlocked) {
          aborted_ = true;
          deadlocked_ = true;
          // Build the report now: once the parked ranks start unwinding,
          // their WaitScopes pop and the wait state is gone.
          if (deadlock_cb_) deadlock_cb_(static_cast<int>(r));
          break;
        }
      }
      return -1;
    }
    // The heap's front is the FIFO choice (minimal key, lowest rank on a
    // tie, so always eligible); exploration policies may substitute any
    // other eligible rank without breaking the commit fence.
    const int fifo = ready_.front();
    const int best = pick(fifo, key_[static_cast<size_t>(fifo)]);
    ready_.erase(best);
    yielded_[static_cast<size_t>(best)] = 0;
    record_.push_back(best);
    ++grant_n_;
    if (!grant_counters_.empty()) grant_counters_[static_cast<size_t>(best)].add();
    state_[static_cast<size_t>(best)] = State::kRunning;
    running_ = best;
    return best;
  }

  /// Applies the schedule policy / replay to the FIFO choice; `fifo` is
  /// READY with the minimal key `min_key`.
  int pick(int fifo, double min_key) {
    if (replay_ != nullptr) {
      // Follow the certificate while it stays legal; a diverged or
      // exhausted record degrades to FIFO instead of wedging the run.
      if (replay_pos_ < replay_->grants.size()) {
        const int want = replay_->grants[replay_pos_++];
        if (want >= 0 && want < static_cast<int>(state_.size()) &&
            eligible(static_cast<size_t>(want), min_key)) {
          return want;
        }
      }
      return fifo;
    }
    switch (policy_) {
      case SchedulePolicy::kFifo:
        return fifo;
      case SchedulePolicy::kRandomPriority: {
        int best = fifo;
        for (size_t r = 0; r < state_.size(); ++r) {
          if (!eligible(r, min_key)) continue;
          if (prio_[r] > prio_[static_cast<size_t>(best)]) best = static_cast<int>(r);
        }
        // PCT priority-change points: demote the chosen rank below every
        // undemoted priority at the seeded grant indices.
        while (change_pos_ < change_at_.size() && change_at_[change_pos_] <= grant_n_) {
          prio_[static_cast<size_t>(best)] = demote_next_++;
          ++change_pos_;
        }
        return best;
      }
      case SchedulePolicy::kDelayBounded: {
        if (delay_left_ > 0 && (hash64(seed_ ^ (grant_n_ * 0x9E3779B97F4A7C15ull)) & 3) == 0) {
          // Defer the front rank once: grant the second rank in
          // (key, rank) order among eligibles, if there is one.
          int second = -1;
          for (size_t r = 0; r < state_.size(); ++r) {
            if (static_cast<int>(r) == fifo || !eligible(r, min_key)) continue;
            if (second < 0 || key_[r] < key_[static_cast<size_t>(second)]) {
              second = static_cast<int>(r);
            }
          }
          if (second >= 0) {
            --delay_left_;
            return second;
          }
        }
        return fifo;
      }
    }
    return fifo;
  }

  bool aborted_ = false;
  bool deadlocked_ = false;
  std::function<void(int)> deadlock_cb_;
  std::vector<MetricsRegistry::Counter> grant_counters_;
  const ScheduleCertificate* replay_ = nullptr;
  SchedulePolicy policy_ = SchedulePolicy::kFifo;
  std::uint64_t seed_ = 0;
  int delay_left_ = 0;
  std::size_t replay_pos_ = 0;
  std::uint64_t grant_n_ = 0;
  std::vector<std::uint64_t> prio_;       // kRandomPriority only
  std::vector<std::uint64_t> change_at_;  // sorted PCT change-point grants
  std::size_t change_pos_ = 0;
  std::uint64_t demote_next_ = 0;
  std::vector<std::int32_t> record_;
  int running_ = -1;
  int switched_from_ = -1;  ///< context the latest switch left
  std::vector<State> state_;
  std::vector<double> key_;
  std::vector<char> yielded_;
  ReadyHeap ready_;  ///< READY ranks by (key, rank); reads key_
  const std::function<void(int)>* body_ = nullptr;
  std::vector<Fiber> fibers_;
  Fiber main_;
  StackMapping stacks_;  ///< every fiber's stack, one slot per rank
};

/// Whole-cluster shared state.
class ClusterState {
 public:
  ClusterState(int nranks, MachineModel machine, const RunOptions& opts)
      : machine_(std::move(machine)), opts_(opts), sched_(nranks, opts_),
        ranks_(static_cast<size_t>(nranks)) {
    sched_.set_deadlock_callback(
        [this](int witness) { deadlock_ = build_deadlock_report(witness); });
    const bool skewed = machine_.perturb.compute_skew > 0.0;
    // The whole fault schedule — crash times and verdicts, overload steps,
    // memory faults — is fixed here, before any rank runs, so every grant
    // order fires the exact same events in the exact same order. Overload
    // steps are the shrink of a terminal crash and exist only under
    // RunOptions::degrade.
    plan_ = build_fault_plan(machine_.perturb, machine_.recovery, opts_.seed, nranks);
    if (!opts_.degrade) {
      for (auto& events : plan_) {
        std::erase_if(events, [](const FaultEvent& e) {
          return std::holds_alternative<DegradeEvent>(e);
        });
      }
    }
    for (int r = 0; r < nranks; ++r) {
      RankCtx& ctx = ranks_[static_cast<size_t>(r)];
      ctx.grank = r;
      ctx.tracing = opts_.trace;
      ctx.vt_limit = opts_.vt_limit;
      ctx.mach = &machine_;
      ctx.nranks = nranks;
      ctx.events = &plan_[static_cast<size_t>(r)];
      ctx.crash_model = machine_.perturb.crash_active();
      ctx.degrade = opts_.degrade;
      ctx.abft = opts_.abft;
      if (skewed) {
        ctx.skew = 1.0 + machine_.perturb.compute_skew *
                             perturb_uniform(opts_.seed, static_cast<std::uint64_t>(r),
                                             kSkewDraw);
      }
      if (opts_.metrics) {
        // Register the runtime's histograms now, so every observation is
        // allocation-free. export_metrics registers the rest at run end.
        metrics_.push_back(std::make_unique<MetricsRegistry>());
        MetricsRegistry* m = metrics_.back().get();
        ctx.metrics = m;
        ctx.mh.wait = m->histogram("cluster.wait_time", kWaitBounds);
        ctx.mh.peer_dist = m->histogram("cluster.peer_distance", kPeerDistBounds);
      }
    }
    if (opts_.metrics) {
      std::vector<MetricsRegistry::Counter> grants;
      grants.reserve(static_cast<size_t>(nranks));
      for (int r = 0; r < nranks; ++r) {
        grants.push_back(metrics_[static_cast<size_t>(r)]->counter("sched.grants"));
      }
      sched_.set_grant_counters(std::move(grants));
    }
  }

  const MachineModel& machine() const { return machine_; }
  const RunOptions& opts() const { return opts_; }
  Scheduler& sched() { return sched_; }
  RankCtx& rank(int global) { return ranks_[static_cast<size_t>(global)]; }
  int world_size() const { return static_cast<int>(ranks_.size()); }
  std::uint64_t next_ctx() { return ++ctx_counter_; }

  /// Rank r's registry (null when RunOptions::metrics is off).
  MetricsRegistry* rank_metrics(int r) {
    return opts_.metrics ? metrics_[static_cast<size_t>(r)].get() : nullptr;
  }

  /// Formats every rank's flight-recorder ring, oldest entry first, one
  /// line per entry ("rank R: vt=... recv-wait(src=1, tags[40,41))").
  /// Called once the run returns (or at deadlock detection) to populate
  /// FaultReport::flight.
  std::vector<std::string> flight_dump() const {
    std::vector<std::string> out;
    for (size_t r = 0; r < ranks_.size(); ++r) {
      const RankCtx& c = ranks_[r];
      const std::uint64_t n = std::min<std::uint64_t>(c.flight_n, RankCtx::kFlightCap);
      for (std::uint64_t i = 0; i < n; ++i) {
        const RankCtx::FlightEntry& e =
            c.flight[(c.flight_n - n + i) % RankCtx::kFlightCap];
        char buf[160];
        switch (e.kind) {
          case RankCtx::FlightEntry::kSend:
            std::snprintf(buf, sizeof(buf),
                          "rank %zu: vt=%.9g send(dst=%d, tag=%d, bytes=%lld)", r,
                          e.vt, e.peer, e.a, static_cast<long long>(e.bytes));
            break;
          case RankCtx::FlightEntry::kRecvWait:
            std::snprintf(buf, sizeof(buf),
                          "rank %zu: vt=%.9g recv-wait(src=%d, tags[%d,%d))", r,
                          e.vt, e.peer, e.a, e.b);
            break;
          case RankCtx::FlightEntry::kRecvDone:
            std::snprintf(buf, sizeof(buf),
                          "rank %zu: vt=%.9g recv(src=%d, tag=%d, bytes=%lld)", r,
                          e.vt, e.peer, e.a, static_cast<long long>(e.bytes));
            break;
          case RankCtx::FlightEntry::kCollective:
            std::snprintf(buf, sizeof(buf),
                          "rank %zu: vt=%.9g collective(gen=%d, bytes=%lld)", r,
                          e.vt, e.a, static_cast<long long>(e.bytes));
            break;
          case RankCtx::FlightEntry::kCrash:
            std::snprintf(buf, sizeof(buf),
                          "rank %zu: vt=%.9g crash(spare=%d, epoch=%d)", r, e.vt,
                          e.peer, e.a);
            break;
          case RankCtx::FlightEntry::kCheckpoint:
            std::snprintf(buf, sizeof(buf),
                          "rank %zu: vt=%.9g checkpoint(epoch=%d, bytes=%lld)", r,
                          e.vt, e.a, static_cast<long long>(e.bytes));
            break;
          case RankCtx::FlightEntry::kSdc:
            std::snprintf(buf, sizeof(buf),
                          "rank %zu: vt=%.9g sdc(target=%d, bit=%d)", r, e.vt,
                          e.a, e.b);
            break;
          case RankCtx::FlightEntry::kDegrade:
            std::snprintf(buf, sizeof(buf),
                          "rank %zu: vt=%.9g degrade(adopter=%d, survivors=%d)",
                          r, e.vt, e.peer, e.a);
            break;
          case RankCtx::FlightEntry::kNone:
            continue;
        }
        out.push_back(buf);
      }
    }
    return out;
  }

  bool aborted() const { return sched_.aborted(); }

  /// Called when a rank dies with an exception: every parked rank unwinds
  /// with ClusterAborted when next resumed.
  void abort() { sched_.abort(); }

  /// The deadlock report recorded at detection time, or a freshly built
  /// (less detailed, the waits are gone) one if none was.
  FaultReport deadlock_report(int grank) {
    return deadlock_ ? *deadlock_ : build_deadlock_report(grank);
  }

  /// Builds the deadlock report from `grank`'s own wait plus what every
  /// parked rank says it is waiting on.
  FaultReport build_deadlock_report(int grank) {
    FaultReport r;
    r.kind = FaultKind::kDeadlock;
    r.rank = grank;
    r.vt = ranks_[static_cast<size_t>(grank)].vt;
    const WaitInfo& own = ranks_[static_cast<size_t>(grank)].wait;
    if (own.kind == 1) {
      r.peer = own.a;
      r.tag = own.b;
    }
    std::string d = "no rank can make progress;";
    int listed = 0;
    for (size_t i = 0; i < ranks_.size(); ++i) {
      const WaitInfo& w = ranks_[i].wait;
      if (w.kind == 0) continue;
      if (++listed > 12) {
        d += " ...";
        break;
      }
      char buf[96];
      if (w.kind == 1) {
        std::snprintf(buf, sizeof(buf),
                      " rank %zu waiting on recv(src=%d, tags[%d,%d), ctx=%llu);",
                      i, w.a, w.b, w.c, static_cast<unsigned long long>(w.ctx));
      } else {
        std::snprintf(buf, sizeof(buf),
                      " rank %zu waiting on collective(gen=%d, ctx=%llu);", i, w.a,
                      static_cast<unsigned long long>(w.ctx));
      }
      d += buf;
    }
    r.detail = std::move(d);
    return r;
  }

 private:
  MachineModel machine_;
  RunOptions opts_;
  Scheduler sched_;
  std::deque<RankCtx> ranks_;
  std::vector<std::unique_ptr<MetricsRegistry>> metrics_;  // per rank; metrics on only
  std::uint64_t ctx_counter_ = 0;
  std::optional<FaultReport> deadlock_;  // set once the scheduler proves one
  std::vector<std::vector<FaultEvent>> plan_;  // per rank, (vt, kind) order
};

/// One communicator: a context id plus the member global ranks. Also hosts
/// the generation-numbered collective slots (barrier / allreduce / split).
class CommGroup {
 public:
  CommGroup(ClusterState* cluster, std::uint64_t ctx, std::vector<int> global_ranks)
      : cluster_(cluster), ctx_(ctx), globals_(std::move(global_ranks)) {}

  ClusterState* cluster() const { return cluster_; }
  std::uint64_t ctx() const { return ctx_; }
  int size() const { return static_cast<int>(globals_.size()); }
  int global_rank(int r) const { return globals_[static_cast<size_t>(r)]; }

  /// State of one in-flight collective operation.
  struct CollSlot {
    int arrived = 0;
    int consumed = 0;
    bool ready = false;
    double max_vt = 0.0;
    double max_fvt = 0.0;  ///< fault-clock sync point (barrier/allreduce_sum)
    std::vector<std::vector<Real>> contribs;        // allreduce inputs (by rank)
    std::vector<Real> reduce;                       // allreduce result
    std::vector<std::pair<int, int>> color_key;     // split inputs (by rank)
    std::vector<std::shared_ptr<CommGroup>> split_groups;  // split outputs
    std::vector<int> split_rank;                    // split outputs
  };

  /// Runs one collective: `deposit` stores this rank's contribution into
  /// the slot; the last arriver runs `finalize` and wakes the members parked
  /// in the scheduler; everyone then reads via `extract`. `grank`/`vt`
  /// identify the caller to the scheduler. The operation completes once
  /// every member has arrived.
  template <class Deposit, class Finalize, class Extract>
  auto collective(std::int64_t gen, int grank, double vt, Deposit deposit,
                  Finalize finalize, Extract extract) {
    CollSlot& slot = slots_[gen];
    deposit(slot);
    if (++slot.arrived == size()) {
      finalize(slot);
      slot.ready = true;
      for (const int g : globals_) {
        if (g != grank) cluster_->sched().wake(g);
      }
    } else {
      WaitScope ws(cluster_->rank(grank).wait, /*collective*/ 2,
                   static_cast<int>(gen), 0, 0, ctx_);
      while (!slot.ready) {
        if (cluster_->aborted()) throw ClusterAborted();
        cluster_->sched().block(grank, vt);  // a stray message wake rechecks and re-parks
      }
    }
    auto result = extract(slot);
    if (++slot.consumed == size()) slots_.erase(gen);
    return result;
  }

 private:
  ClusterState* cluster_;
  std::uint64_t ctx_;
  std::vector<int> globals_;
  std::map<std::int64_t, CollSlot> slots_;
};

}  // namespace detail

int Comm::size() const { return group_->size(); }

const MachineModel& Comm::machine() const { return group_->cluster()->machine(); }

double Comm::vtime() const { return ctx_->vt; }

void Comm::advance(double seconds, TimeCategory cat) {
  ctx_->advance_traced(seconds, cat, TraceEventKind::kAdvance);
}

void Comm::compute(double flops, Idx nrhs) {
  if (nrhs != ctx_->rate_nrhs) {
    ctx_->rate = machine().cpu_flop_rate * gemm_boost(nrhs, kCoreGemmBoostCap);
    ctx_->rate_nrhs = nrhs;
  }
  // ctx_->skew is 1 unless the perturbation model sets a compute skew.
  ctx_->advance_traced(flops / ctx_->rate * ctx_->skew, TimeCategory::kFp,
                       TraceEventKind::kCompute);
}

void Comm::reset_clock() {
  ctx_->vt = 0.0;
  ctx_->fvt = 0.0;
  ctx_->tstats = TransportStats{};
  for (double& c : ctx_->category) c = 0.0;
  for (auto& m : ctx_->messages) m = 0;
  for (auto& b : ctx_->bytes) b = 0;
  // fseq (like send_seq below) and seen_seqs survive: fault draws must not
  // collide across phases and accepted sequence numbers stay unique.
  // The fault plan re-arms with the clock: fault times are interpreted on
  // the post-reset clock (= relative to solve start when the solver resets
  // after its setup barrier), the fault ledgers restart, and pre-reset
  // checkpoint images are dropped so replay arithmetic never mixes clocks.
  // A planned event earlier than the setup time fires once pre-reset too —
  // benign: its ledger entries are discarded here and it re-fires on the
  // fresh clock.
  ctx_->next_event = 0;
  ctx_->armed_sdc.clear();
  ctx_->crash_total = 0.0;
  ctx_->rstats = RecoveryStats{};
  ctx_->sdc = SdcStats{};
  ctx_->dstats = DegradationStats{};
  ctx_->image = detail::CheckpointImage{};
  // Setup-phase events would break the fresh clock's contiguity; drop them.
  // send_seq is deliberately NOT reset: a pre-reset send could otherwise
  // alias a post-reset one under the same (rank, seq) matching key.
  if (ctx_->tracing) {
    ctx_->trace.events.clear();
    ctx_->trace.spans.clear();
    ctx_->trace.marks.clear();
    ++ctx_->trace_epoch;
  }
  // Metrics mirror the ledgers, so they restart with them. The
  // flight-recorder ring deliberately survives — "the most recent events"
  // include setup.
  if (ctx_->metrics != nullptr) ctx_->metrics->reset();
}

TraceSpan Comm::annotate(const char* label, std::int64_t arg) const {
  return TraceSpan(ctx_->tracing ? ctx_ : nullptr, label, arg);
}

MetricsRegistry::Counter Comm::metric_counter(const char* name) const {
  return ctx_->metrics != nullptr ? ctx_->metrics->counter(name)
                                  : MetricsRegistry::Counter{};
}

TraceSpan::TraceSpan(detail::RankCtx* ctx, const char* label, std::int64_t arg)
    : ctx_(ctx) {
  if (ctx_ == nullptr) return;
  epoch_ = ctx_->trace_epoch;
  index_ = ctx_->trace.spans.size();
  ctx_->trace.spans.push_back({label, arg, ctx_->vt, ctx_->vt});
}

TraceSpan::TraceSpan(TraceSpan&& other) noexcept
    : ctx_(other.ctx_), index_(other.index_), epoch_(other.epoch_) {
  other.ctx_ = nullptr;
}

TraceSpan::~TraceSpan() {
  if (ctx_ == nullptr || epoch_ != ctx_->trace_epoch) return;
  ctx_->trace.spans[index_].t1 = ctx_->vt;
}

double Comm::category_time(TimeCategory cat) const {
  return ctx_->category[static_cast<int>(cat)];
}

std::int64_t Comm::messages_sent(TimeCategory cat) const {
  return ctx_->messages[static_cast<int>(cat)];
}

std::int64_t Comm::bytes_sent(TimeCategory cat) const {
  return ctx_->bytes[static_cast<int>(cat)];
}

void Comm::send(int dst, int tag, std::vector<Real> data, TimeCategory cat) {
  if (dst < 0 || dst >= size()) throw std::out_of_range("Comm::send: bad destination");
  detail::ClusterState* cluster = group_->cluster();
  const LinkParams& link = machine().net;
  const double overhead = machine().mpi_overhead;
  const double t0 = ctx_->vt;
  ctx_->advance(overhead, cat);
  ++ctx_->messages[static_cast<int>(cat)];
  ctx_->bytes[static_cast<int>(cat)] +=
      static_cast<std::int64_t>(data.size() * sizeof(Real));
  const double bytes = static_cast<double>(data.size()) * sizeof(Real);

  // Perturbation hooks: timing only — payload, counts and destination are
  // untouched, so results must be invariant under any seed.
  double latency = link.latency;
  double bandwidth = link.bandwidth;
  double extra_delay = 0.0;
  const PerturbationModel& pm = machine().perturb;
  if (pm.active()) {
    const std::uint64_t seed = cluster->opts().seed;
    for (const auto& dg : pm.degradations) {
      if (!dg.all_categories && dg.category != cat) continue;
      if (ctx_->vt < dg.vt_begin || ctx_->vt >= dg.vt_end) continue;
      latency *= dg.latency_factor;
      bandwidth *= dg.bandwidth_factor;
    }
    if (pm.latency_jitter > 0.0) {
      latency *= 1.0 + pm.latency_jitter *
                           detail::perturb_uniform(
                               seed, static_cast<std::uint64_t>(ctx_->grank),
                               ctx_->pseq++);
    }
    if (pm.delivery_delay > 0.0) {
      extra_delay = pm.delivery_delay *
                    detail::perturb_uniform(seed,
                                            static_cast<std::uint64_t>(ctx_->grank),
                                            ctx_->pseq++);
    }
  }

  detail::Envelope env;
  env.ctx = group_->ctx();
  env.src_grank = ctx_->grank;
  env.seq = ctx_->send_seq++;
  env.msg.src = rank_;
  env.msg.tag = tag;
  env.msg.data = std::move(data);
  env.msg.arrival = ctx_->vt + latency + bytes / bandwidth + extra_delay;
  // Fault-clock arrival mirrors the clean expression term for term, so the
  // two stay bitwise equal until a delivery fault actually intervenes.
  env.fault_arrival = ctx_->fvt + latency + bytes / bandwidth + extra_delay;
  const int dst_grank = group_->global_rank(dst);
  // Peer-distance histogram + the send's flight entry. Both write metric
  // or recorder storage only — no clock state — so the clean ledger is
  // bitwise invariant under metrics on/off.
  const int peer_dist = dst_grank >= ctx_->grank ? dst_grank - ctx_->grank
                                                 : ctx_->grank - dst_grank;
  ctx_->mh.peer_dist.observe(static_cast<double>(peer_dist));
  ctx_->flight_record(detail::RankCtx::FlightEntry::kSend, dst_grank, tag, 0,
                      static_cast<std::int64_t>(env.msg.data.size() * sizeof(Real)));
  if (pm.delivery_active()) {
    // Reliable transport (docs/ROBUSTNESS.md): push the message through the
    // analytic ack/retransmit simulation. The clean ledger above is already
    // final — recovery delay and retransmit traffic land on the fault
    // ledger only. The sender never blocks (buffered-send semantics: the
    // retransmit timers run concurrently with the sender's progress).
    const double flight = latency + bytes / bandwidth + extra_delay;
    const double ack_flight = latency + kAckBytes / bandwidth;
    auto outcome = std::make_unique<TransportOutcome>(simulate_transport(
        pm, machine().transport, cluster->opts().seed, ctx_->grank, dst_grank, ctx_->vt,
        flight, ack_flight, overhead, &ctx_->fseq));
    env.fault_arrival += outcome->extra_delay;
    env.checksum = frame_checksum(ctx_->grank, dst_grank, tag,
                                  static_cast<std::uint64_t>(env.seq),
                                  env.msg.data);
    TransportStats& ts = ctx_->tstats;
    ts.data_frames += outcome->attempts;
    ts.retransmits += outcome->attempts - 1;
    ts.retrans_bytes += static_cast<std::int64_t>(outcome->attempts - 1) *
                        static_cast<std::int64_t>(env.msg.data.size() * sizeof(Real));
    ts.timeouts += outcome->timeouts;
    ts.frames_dropped += outcome->frames_dropped;
    env.transport = std::move(outcome);
  }
  if (ctx_->tracing) {
    TraceEvent e;
    e.kind = TraceEventKind::kSend;
    e.cat = cat;
    e.t0 = t0;
    e.t1 = ctx_->vt;
    e.peer = dst_grank;
    e.tag = tag;
    e.bytes = static_cast<std::int64_t>(env.msg.data.size() * sizeof(Real));
    e.arrival = env.msg.arrival;
    e.seq = env.seq;
    e.ctx = env.ctx;
    if (env.transport) {
      e.retrans = env.transport->attempts - 1;
      e.fault_arrival = env.fault_arrival;
    }
    ctx_->trace.events.push_back(e);
  }
  detail::RankCtx& dst_ctx = cluster->rank(dst_grank);
  const double arrival = env.msg.arrival;
  dst_ctx.mailbox.push_back(std::move(env));
  cluster->sched().wake(dst_grank);
  if (dst_ctx.wait.accepts(group_->ctx(), rank_, tag)) {
    cluster->sched().lower_yielded_key(dst_grank, std::max(dst_ctx.vt, arrival));
  }
}

Message Comm::recv(int src, int tag, TimeCategory cat) {
  if (tag == kAnyTag) return recv_range(src, 0, 0, cat);
  return recv_range(src, tag, tag + 1, cat);
}

Message Comm::recv_range(int src, int tag_lo, int tag_hi, TimeCategory cat) {
  if (src != kAnySource && (src < 0 || src >= size())) {
    throw std::out_of_range("Comm::recv: bad source");
  }
  const bool any_tag = (tag_lo >= tag_hi);
  std::deque<detail::Envelope>& box = ctx_->mailbox;
  // Deadlock diagnostics: publish what this rank is about to wait on, so a
  // wedged run names the blocking (src, tag) per rank (docs/ROBUSTNESS.md).
  detail::WaitScope ws(ctx_->wait, /*recv*/ 1, src, tag_lo, tag_hi, group_->ctx());
  // Flight-recorder entry for the wait itself, recorded *before* parking:
  // if this receive never completes (deadlock, exhausted retries), the ring
  // still names what the rank was waiting on.
  ctx_->flight_record(detail::RankCtx::FlightEntry::kRecvWait, src, tag_lo, tag_hi, 0);
  auto matches = [&](const detail::Envelope& e) {
    return e.ctx == group_->ctx() && (src == kAnySource || e.msg.src == src) &&
           (any_tag || (e.msg.tag >= tag_lo && e.msg.tag < tag_hi));
  };
  // Among queued matches take the earliest virtual arrival (unperturbed
  // per-source arrivals are monotone, so same-source FIFO is preserved;
  // perturbation seeds may reorder them — by design, solvers must not care).
  // Bitwise-equal arrivals are broken lexicographically by (sender, seq) —
  // never by queue insertion order, which would leak the grant order into
  // the wildcard choice, and never by a policy-seeded score: which
  // equal-arrival message is taken first changes the virtual times of the
  // sends issued between the two takes, so the tie-break must be one fixed
  // function of the messages themselves for the clean ledger to stay
  // schedule-invariant (docs/TESTING.md).
  auto earlier = [&](const detail::Envelope& a, const detail::Envelope& b) {
    if (a.msg.arrival != b.msg.arrival) return a.msg.arrival < b.msg.arrival;
    if (a.src_grank != b.src_grank) return a.src_grank < b.src_grank;
    return a.seq < b.seq;
  };
  auto scan = [&]() {
    auto best = box.end();
    for (auto it = box.begin(); it != box.end(); ++it) {
      if (matches(*it) && (best == box.end() || earlier(*it, *best))) {
        best = it;
      }
    }
    return best;
  };
  auto take = [&](std::deque<detail::Envelope>::iterator best) {
    const int src_grank = best->src_grank;
    const std::int64_t seq = best->seq;
    const std::uint64_t env_ctx = best->ctx;
    const std::uint64_t checksum = best->checksum;
    const double fa = best->fault_arrival;
    std::unique_ptr<const TransportOutcome> outcome = std::move(best->transport);
    Message msg = std::move(best->msg);
    box.erase(best);
    if (outcome) {
      if (outcome->failed) {
        // The transport never got an intact copy through (retry budget
        // exhausted or a permanent stall): fail the blocking receive with a
        // structured report instead of waiting forever.
        FaultReport r;
        r.kind = outcome->stalled ? FaultKind::kRankStalled
                                  : FaultKind::kRetriesExhausted;
        r.rank = ctx_->grank;
        r.peer = src_grank;
        r.tag = msg.tag;
        r.retries = outcome->attempts - 1;
        r.vt = ctx_->vt;
        r.detail = outcome->stalled
                       ? "peer permanently stalled; no attempt was delivered"
                       : "retry budget exhausted without an intact delivery";
        throw FaultError(std::move(r));
      }
      // Receiver side of the fault ledger: acks returned, duplicates
      // suppressed by the sequence numbers, corrupt frames the checksum
      // rejected, stragglers resequenced on arrival.
      TransportStats& ts = ctx_->tstats;
      ts.acks += outcome->acks;
      ts.ack_bytes += static_cast<std::int64_t>(outcome->acks) *
                      static_cast<std::int64_t>(kAckBytes);
      ts.corrupt_detected += outcome->corrupt;
      ts.duplicates += outcome->duplicates;
      ts.reordered += outcome->reordered ? 1 : 0;
      // End-to-end verification on the accepted copy: the whole-frame
      // checksum stamped at send — header (src, dst, tag, seq) before the
      // payload bytes — must match, and the per-sender sequence number must
      // be fresh. A violation is a transport bug, not a modeled fault.
      if (checksum != frame_checksum(src_grank, ctx_->grank, msg.tag,
                                     static_cast<std::uint64_t>(seq), msg.data)) {
        throw std::logic_error("reliable transport: accepted frame fails checksum");
      }
      if (!ctx_->seen_seqs[src_grank].insert(seq).second) {
        throw std::logic_error("reliable transport: duplicate reached the application");
      }
    }
    const double t0 = ctx_->vt;
    // One advance covers wait-until-arrival plus software overhead, so the
    // clock math is bit-identical with tracing on or off; the trace splits
    // wait from commit analytically via the recorded arrival.
    ctx_->sync_to(msg.arrival, fa, machine().mpi_overhead, cat);
    // Per-rank wait time: the receive's blocked span on the clean clock
    // (same expression the advance above charged, recomputed read-only).
    ctx_->mh.wait.observe(std::max(0.0, msg.arrival - t0));
    ctx_->flight_record(detail::RankCtx::FlightEntry::kRecvDone, src_grank, msg.tag,
                        0, static_cast<std::int64_t>(msg.data.size() * sizeof(Real)));
    if (ctx_->tracing) {
      TraceEvent e;
      e.kind = TraceEventKind::kRecv;
      e.cat = cat;
      e.t0 = t0;
      e.t1 = ctx_->vt;
      e.peer = src_grank;
      e.tag = msg.tag;
      e.bytes = static_cast<std::int64_t>(msg.data.size() * sizeof(Real));
      e.arrival = msg.arrival;
      e.seq = seq;
      e.ctx = env_ctx;
      if (outcome) {
        e.retrans = outcome->attempts - 1;
        e.fault_arrival = fa;
      }
      ctx_->trace.events.push_back(e);
    }
    return msg;
  };

  // The caller holds the run token. Park until a match is queued, then
  // commit only once no READY rank could still execute (and send) below the
  // commit time — the wildcard choice is the globally earliest arrival any
  // runnable rank can produce.
  detail::Scheduler& sched = group_->cluster()->sched();
  for (;;) {
    if (group_->cluster()->aborted()) throw detail::ClusterAborted();
    auto best = scan();
    if (best == box.end()) {
      sched.block(ctx_->grank, ctx_->vt);
      continue;
    }
    const double commit = std::max(ctx_->vt, best->msg.arrival);
    if (sched.ready_below(commit)) {
      sched.yield(ctx_->grank, commit);
      continue;  // an earlier message may have been queued meanwhile
    }
    return take(best);
  }
}

template <class Deposit, class Finalize, class Extract>
auto Comm::timed_collective(std::int64_t tree_msgs, std::int64_t payload,
                            const char* label, TimeCategory cat, Deposit deposit,
                            Finalize finalize, Extract extract) {
  // Every modeled tree message costs a hop plus its payload's wire time,
  // and the counters charge the same messages so collective traffic is
  // visible next to point-to-point traffic (docs/MODEL.md).
  double per_msg = machine().net.latency + machine().mpi_overhead;
  if (payload > 0) per_msg += static_cast<double>(payload) / machine().net.bandwidth;
  const double cost = static_cast<double>(tree_msgs) * per_msg;
  const std::int64_t gen = coll_gen_++;
  const double my_vt = ctx_->vt;
  const double my_fvt = ctx_->fvt;
  double sync_vt = 0.0;
  double sync_fvt = 0.0;
  auto result = group_->collective(
      gen, ctx_->grank, my_vt,
      [&](auto& slot) {
        slot.max_vt = std::max(slot.max_vt, my_vt);
        slot.max_fvt = std::max(slot.max_fvt, my_fvt);
        deposit(slot);
      },
      finalize,
      [&](auto& slot) {
        sync_vt = slot.max_vt;
        sync_fvt = slot.max_fvt;
        return extract(slot);
      });
  ctx_->sync_to(sync_vt, sync_fvt, cost, cat);
  ctx_->messages[static_cast<int>(cat)] += tree_msgs;
  ctx_->bytes[static_cast<int>(cat)] += tree_msgs * payload;
  ctx_->flight_record(detail::RankCtx::FlightEntry::kCollective, -1,
                      static_cast<int>(gen), 0, payload);
  if (ctx_->tracing) {
    TraceEvent e;
    e.kind = TraceEventKind::kCollective;
    e.cat = cat;
    e.t0 = my_vt;
    e.t1 = ctx_->vt;
    e.bytes = payload;
    e.arrival = sync_vt;
    e.seq = gen;
    e.ctx = group_->ctx();
    e.label = label;
    ctx_->trace.events.push_back(e);
  }
  return result;
}

void Comm::barrier(TimeCategory cat) {
  // 2*ceil(log2 P) zero-byte tree hops.
  timed_collective(
      2 * static_cast<std::int64_t>(detail::log2_ceil(size())), 0, "barrier", cat,
      [](auto&) {}, [](auto&) {}, [](auto&) { return 0; });
}

std::vector<Real> Comm::allreduce_sum(std::span<const Real> v, TimeCategory cat) {
  // Recursive doubling: 2*ceil(log2 P) modeled tree messages, each carrying
  // the full payload.
  const int nmembers = size();
  return timed_collective(
      2 * static_cast<std::int64_t>(detail::log2_ceil(nmembers)),
      static_cast<std::int64_t>(v.size() * sizeof(Real)), "allreduce", cat,
      [&](auto& slot) {
        if (slot.contribs.empty()) {
          slot.contribs.resize(static_cast<size_t>(nmembers));
        }
        slot.contribs[static_cast<size_t>(rank_)].assign(v.begin(), v.end());
      },
      [nmembers](auto& slot) {
        // Sum in rank order — the reduction order is fixed by rank, not by
        // arrival, so the result is bitwise identical in every run.
        slot.reduce.assign(slot.contribs.front().size(), 0.0);
        for (int r = 0; r < nmembers; ++r) {
          const auto& c = slot.contribs[static_cast<size_t>(r)];
          if (c.size() != slot.reduce.size()) {
            throw std::invalid_argument("allreduce_sum: mismatched lengths");
          }
          for (size_t i = 0; i < c.size(); ++i) slot.reduce[i] += c[i];
        }
      },
      [](auto& slot) { return slot.reduce; });
}

double Comm::allreduce_max(double v) {
  auto result = group_->collective(
      coll_gen_++, ctx_->grank, ctx_->vt,
      [&](auto& slot) { slot.max_vt = std::max(slot.max_vt, v); },
      [](auto&) {}, [](auto& slot) { return slot.max_vt; });
  return result;
}

Comm Comm::split(int color, int key) {
  auto group = group_;  // keep alive across the collective
  auto result = group_->collective(
      coll_gen_++, ctx_->grank, ctx_->vt,
      [&](auto& slot) {
        if (slot.color_key.empty()) {
          slot.color_key.assign(static_cast<size_t>(size()), {0, 0});
          slot.split_groups.resize(static_cast<size_t>(size()));
          slot.split_rank.assign(static_cast<size_t>(size()), 0);
        }
        slot.color_key[static_cast<size_t>(rank_)] = {color, key};
      },
      [&](auto& slot) {
        // Build one CommGroup per color; members ordered by (key, rank).
        std::map<int, std::vector<int>> members;  // color -> old ranks
        for (int r = 0; r < size(); ++r) {
          members[slot.color_key[static_cast<size_t>(r)].first].push_back(r);
        }
        for (auto& [c, ranks] : members) {
          std::stable_sort(ranks.begin(), ranks.end(), [&](int a, int b) {
            return slot.color_key[static_cast<size_t>(a)].second <
                   slot.color_key[static_cast<size_t>(b)].second;
          });
          std::vector<int> globals;
          globals.reserve(ranks.size());
          for (const int r : ranks) globals.push_back(group->global_rank(r));
          auto g = std::make_shared<detail::CommGroup>(
              group->cluster(), group->cluster()->next_ctx(), std::move(globals));
          for (size_t i = 0; i < ranks.size(); ++i) {
            slot.split_groups[static_cast<size_t>(ranks[i])] = g;
            slot.split_rank[static_cast<size_t>(ranks[i])] = static_cast<int>(i);
          }
        }
      },
      [&](auto& slot) {
        return std::pair<std::shared_ptr<detail::CommGroup>, int>(
            slot.split_groups[static_cast<size_t>(rank_)],
            slot.split_rank[static_cast<size_t>(rank_)]);
      });
  return Comm(std::move(result.first), result.second, ctx_);
}

bool Comm::checkpoints_armed() const {
  // Without a crash model, SDC schedule, or ABFT nothing is pushed and
  // nothing captured.
  return ctx_->crash_model || ctx_->abft || machine().perturb.sdc_active();
}

CheckpointScope Comm::push_checkpoint(const char* label, StateKind kind, StateFn state) {
  ctx_->registrations.push_back({label, kind, std::move(state)});
  return CheckpointScope(ctx_, ctx_->registrations.size() - 1);
}

void Comm::checkpoint_epoch(std::int64_t arg) {
  detail::RankCtx* c = ctx_;
  if (c->registrations.empty()) return;
  // SDC pass first: armed memory faults land (and, under ABFT, are detected
  // and repaired) before the epoch's buddy image is captured, so a crash
  // restore never resurrects a corrupted word. A fresh clock's first epoch
  // can come before its first advance, so fire what is due at this instant.
  c->fire_due();
  if (!c->crash_model && !c->abft && c->armed_sdc.empty()) return;
  const auto& reg = c->registrations.back();
  const std::vector<StateEntry> entries = reg.state();
  c->process_sdc_epoch(entries);
  if (!c->crash_model) return;
  c->capture_image(reg, entries);
  detail::CheckpointImage& img = c->image;
  // Latent image corruption (PerturbationModel::ckpt_faults): the bit flips
  // *after* the checksum is stamped, so the damage stays invisible until a
  // restore or degrade fetch validates the image and rejects it.
  for (const auto& cf : machine().perturb.ckpt_faults) {
    if (cf.rank == c->grank && cf.epoch == img.epoch) {
      std::uint64_t bits = std::bit_cast<std::uint64_t>(img.state[0]);
      bits ^= std::uint64_t{1} << 46;
      img.state[0] = std::bit_cast<Real>(bits);
      break;
    }
  }
  // Shipment to the buddy rides the fault ledger only: capture overhead
  // plus the modeled wire time of the image. The clean clock never moves,
  // so checkpoint cadence cannot perturb the modeled solve.
  const double bytes = static_cast<double>(img.state.size()) * sizeof(Real);
  const double cost = kCheckpointOverhead + machine().net.latency +
                      bytes / machine().net.bandwidth;
  c->fvt += cost;
  c->rstats.checkpoints += 1;
  c->rstats.checkpoint_bytes += static_cast<std::int64_t>(bytes);
  c->rstats.checkpoint_time += cost;
  c->flight_record(detail::RankCtx::FlightEntry::kCheckpoint, c->buddy(),
                   static_cast<int>(img.epoch), 0, static_cast<std::int64_t>(bytes));
  if (c->tracing) c->trace.marks.push_back({"checkpoint", c->vt, arg});
}

CheckpointScope::CheckpointScope(CheckpointScope&& other) noexcept
    : ctx_(other.ctx_), index_(other.index_) {
  other.ctx_ = nullptr;
}

CheckpointScope::~CheckpointScope() {
  if (ctx_ == nullptr) return;
  // Strictly LIFO: popping back to the registration depth also drops any
  // registrations a misnested inner scope leaked (they could only dangle).
  if (ctx_->registrations.size() > index_) ctx_->registrations.resize(index_);
}

Spread spread_over(std::span<const double> values) {
  Spread s;
  if (values.empty()) return s;
  std::vector<double> v(values.begin(), values.end());
  std::sort(v.begin(), v.end());
  s.min = v.front();
  s.max = v.back();
  double sum = 0.0;
  for (const double x : v) sum += x;
  s.mean = sum / static_cast<double>(v.size());
  auto pct = [&v](double p) {
    // Nearest-rank percentile: the ceil(p/100 * N)-th smallest value.
    auto k = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::max<size_t>(k, 1) - 1];
  };
  s.p50 = pct(50.0);
  s.p99 = pct(99.0);
  return s;
}

Spread Cluster::Result::category_spread(TimeCategory cat) const {
  std::vector<double> v;
  v.reserve(ranks.size());
  for (const auto& r : ranks) v.push_back(r.category[static_cast<int>(cat)]);
  return spread_over(v);
}

Spread Cluster::Result::vtime_spread() const {
  std::vector<double> v;
  v.reserve(ranks.size());
  for (const auto& r : ranks) v.push_back(r.vtime);
  return spread_over(v);
}

double Cluster::Result::makespan() const {
  double m = 0;
  for (const auto& r : ranks) m = std::max(m, r.vtime);
  return m;
}

double Cluster::Result::mean_category(TimeCategory cat) const {
  double s = 0;
  for (const auto& r : ranks) s += r.category[static_cast<int>(cat)];
  return ranks.empty() ? 0.0 : s / static_cast<double>(ranks.size());
}

double Cluster::Result::max_category(TimeCategory cat) const {
  double m = 0;
  for (const auto& r : ranks) m = std::max(m, r.category[static_cast<int>(cat)]);
  return m;
}

double Cluster::Result::min_category(TimeCategory cat) const {
  if (ranks.empty()) return 0.0;
  double m = ranks.front().category[static_cast<int>(cat)];
  for (const auto& r : ranks) m = std::min(m, r.category[static_cast<int>(cat)]);
  return m;
}

std::uint64_t Cluster::Result::fingerprint() const {
  std::uint64_t h = detail::hash64(static_cast<std::uint64_t>(ranks.size()));
  auto mix = [&h](std::uint64_t v) { h = detail::hash64(h ^ v); };
  for (const auto& r : ranks) {
    mix(std::bit_cast<std::uint64_t>(r.vtime));
    for (int c = 0; c < kNumTimeCategories; ++c) {
      mix(std::bit_cast<std::uint64_t>(r.category[c]));
      mix(static_cast<std::uint64_t>(r.messages[c]));
      mix(static_cast<std::uint64_t>(r.bytes[c]));
    }
  }
  return h;
}

double Cluster::Result::fault_makespan() const {
  double m = 0;
  for (const auto& r : ranks) m = std::max(m, r.fault_vtime);
  return m;
}

TransportStats Cluster::Result::transport_totals() const {
  TransportStats t;
  for (const auto& r : ranks) t += r.transport;
  return t;
}

std::uint64_t Cluster::Result::fault_fingerprint() const {
  // Extends fingerprint() with the fault ledger; with no faults injected the
  // transport counters are zero and fault_vtime == vtime, so this value is
  // still seed-stable (but distinct from fingerprint()).
  std::uint64_t h = fingerprint();
  auto mix = [&h](std::uint64_t v) { h = detail::hash64(h ^ v); };
  for (const auto& r : ranks) {
    mix(std::bit_cast<std::uint64_t>(r.fault_vtime));
    const TransportStats& t = r.transport;
    mix(static_cast<std::uint64_t>(t.data_frames));
    mix(static_cast<std::uint64_t>(t.retransmits));
    mix(static_cast<std::uint64_t>(t.retrans_bytes));
    mix(static_cast<std::uint64_t>(t.timeouts));
    mix(static_cast<std::uint64_t>(t.frames_dropped));
    mix(static_cast<std::uint64_t>(t.acks));
    mix(static_cast<std::uint64_t>(t.ack_bytes));
    mix(static_cast<std::uint64_t>(t.corrupt_detected));
    mix(static_cast<std::uint64_t>(t.duplicates));
    mix(static_cast<std::uint64_t>(t.reordered));
    const RecoveryStats& rec = r.recovery;
    mix(static_cast<std::uint64_t>(rec.crashes));
    mix(static_cast<std::uint64_t>(rec.checkpoints));
    mix(static_cast<std::uint64_t>(rec.checkpoint_bytes));
    mix(static_cast<std::uint64_t>(rec.restores));
    mix(static_cast<std::uint64_t>(rec.spares_used));
    mix(static_cast<std::uint64_t>(rec.image_rejects));
    mix(std::bit_cast<std::uint64_t>(rec.detect_time));
    mix(std::bit_cast<std::uint64_t>(rec.repair_time));
    mix(std::bit_cast<std::uint64_t>(rec.restore_time));
    mix(std::bit_cast<std::uint64_t>(rec.replay_time));
    mix(std::bit_cast<std::uint64_t>(rec.checkpoint_time));
    const SdcStats& s = r.sdc;
    mix(static_cast<std::uint64_t>(s.injected));
    mix(static_cast<std::uint64_t>(s.detected));
    mix(static_cast<std::uint64_t>(s.corrected));
    mix(static_cast<std::uint64_t>(s.escalated));
    mix(static_cast<std::uint64_t>(s.checks));
    mix(static_cast<std::uint64_t>(s.residual_checks));
    mix(static_cast<std::uint64_t>(s.refine_iters));
    for (int t = 0; t < 3; ++t) {
      mix(static_cast<std::uint64_t>(s.injected_by[t]));
      mix(static_cast<std::uint64_t>(s.corrected_by[t]));
    }
    mix(std::bit_cast<std::uint64_t>(s.verify_time));
    mix(std::bit_cast<std::uint64_t>(s.repair_time));
    mix(std::bit_cast<std::uint64_t>(s.residual_time));
    const DegradationStats& d = r.degradation;
    mix(static_cast<std::uint64_t>(d.degrades));
    mix(static_cast<std::uint64_t>(d.ranks_lost));
    mix(static_cast<std::uint64_t>(d.partitions_adopted));
    mix(static_cast<std::uint64_t>(d.redistributed_bytes));
    mix(std::bit_cast<std::uint64_t>(d.agree_time));
    mix(std::bit_cast<std::uint64_t>(d.shrink_time));
    mix(std::bit_cast<std::uint64_t>(d.redistribute_time));
    mix(std::bit_cast<std::uint64_t>(d.replay_time));
    mix(std::bit_cast<std::uint64_t>(d.overload_time));
    mix(std::bit_cast<std::uint64_t>(d.overload_mult));
    // Zero words where the retired elasticity ledger stood (spare returns
    // and the straggler watchdog, eleven slots): every hash a release before
    // their removal recorded without one firing (the golden ".fault" rows
    // among them) keeps its value.
    for (int k = 0; k < 11; ++k) mix(0);
  }
  return h;
}

RecoveryStats Cluster::Result::recovery_stats() const {
  RecoveryStats total;
  for (const auto& r : ranks) total += r.recovery;
  return total;
}

SdcStats Cluster::Result::sdc_stats() const {
  SdcStats total;
  for (const auto& r : ranks) total += r.sdc;
  return total;
}

DegradationStats Cluster::Result::degradation_stats() const {
  DegradationStats total;
  for (const auto& r : ranks) total += r.degradation;
  return total;
}

Cluster::Result Cluster::run_impl(int nranks, const MachineModel& machine,
                                  const std::function<void(Comm&)>& rank_fn,
                                  const RunOptions& opts,
                                  std::exception_ptr* err_out) {
  if (nranks <= 0) throw std::invalid_argument("Cluster::run: nranks must be positive");
  // Invalid knobs are rejected with structured errors before any rank runs:
  // an invalid combination is a caller bug, never a modeled fault
  // (docs/TESTING.md).
  if (!opts.deterministic) {
    throw std::invalid_argument(
        "Cluster::run: RunOptions::deterministic must be true (the scheduler is "
        "the only execution mode)");
  }
  if (opts.priority_points < 0) {
    throw std::invalid_argument("Cluster::run: priority_points must be >= 0");
  }
  if (opts.delay_budget < 0) {
    throw std::invalid_argument("Cluster::run: delay_budget must be >= 0");
  }
  if (opts.replay_schedule != nullptr) {
    for (const std::int32_t g : opts.replay_schedule->grants) {
      if (g < 0 || g >= nranks) {
        throw std::invalid_argument(
            "Cluster::run: replay certificate grants a rank out of range");
      }
    }
  }
  detail::ClusterState state(nranks, machine, opts);
  std::vector<int> globals(static_cast<size_t>(nranks));
  for (int r = 0; r < nranks; ++r) globals[static_cast<size_t>(r)] = r;
  auto world =
      std::make_shared<detail::CommGroup>(&state, state.next_ctx(), std::move(globals));

  std::exception_ptr first_error;
  const std::function<void(int)> rank_body = [&](int r) {
    Comm comm(world, r, &state.rank(r));
    try {
      rank_fn(comm);
    } catch (const detail::ClusterAborted&) {
      // Secondary casualty of another rank's failure; the original
      // exception is already recorded.
    } catch (const detail::SchedulerDeadlock&) {
      // The scheduler proved no rank can make progress and recorded the
      // report at detection time (before the parked ranks' wait state
      // unwound); every casualty rank lands here.
      if (!first_error) {
        first_error = std::make_exception_ptr(
            FaultError(state.deadlock_report(r)));
      }
      state.abort();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
      state.abort();
    }
  };
  // Every rank is a fiber on this thread.
  state.sched().run(rank_body);

  Cluster::Result res;
  res.ranks.resize(static_cast<size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    RankStats& out = res.ranks[static_cast<size_t>(r)];
    out.vtime = state.rank(r).vt;
    out.fault_vtime = state.rank(r).fvt;
    out.transport = state.rank(r).tstats;
    out.recovery = state.rank(r).rstats;
    out.sdc = state.rank(r).sdc;
    out.degradation = state.rank(r).dstats;
    for (int c = 0; c < kNumTimeCategories; ++c) {
      out.category[c] = state.rank(r).category[c];
      out.messages[c] = state.rank(r).messages[c];
      out.bytes[c] = state.rank(r).bytes[c];
    }
  }
  res.schedule = state.sched().certificate();
  if (opts.trace && !first_error) {
    std::vector<RankTrace> buffers;
    buffers.reserve(static_cast<size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      buffers.push_back(std::move(state.rank(r).trace));
    }
    res.trace = std::make_shared<const Trace>(Trace::build(std::move(buffers)));
  }
  if (opts.metrics) {
    // Built even on a fault: the counters up to the abort are exactly the
    // post-mortem evidence a failed run leaves behind.
    auto report = std::make_shared<MetricsReport>();
    report->ranks.resize(static_cast<size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      MetricsReport::Rank& out = report->ranks[static_cast<size_t>(r)];
      state.rank(r).export_metrics();
      const MetricsRegistry* m = state.rank_metrics(r);
      out.values = m->values();
      out.histograms = m->histograms();
    }
    res.metrics = std::move(report);
  }
  if (first_error) {
    // Attach the flight-recorder dump to a fault-terminated run's report
    // (every FaultError path funnels through here — transport failures,
    // deadlocks, vt-limit, crash verdicts). Every rank has stopped, so the
    // rings are quiescent; non-fault exceptions pass through untouched.
    try {
      std::rethrow_exception(first_error);
    } catch (const FaultError& fe) {
      FaultReport rep = fe.report;
      if (rep.flight.empty()) rep.flight = state.flight_dump();
      first_error = std::make_exception_ptr(FaultError(std::move(rep)));
    } catch (...) {
    }
  }
  *err_out = first_error;
  return res;
}

const char* schedule_policy_name(SchedulePolicy p) {
  switch (p) {
    case SchedulePolicy::kFifo: return "fifo";
    case SchedulePolicy::kRandomPriority: return "random_priority";
    case SchedulePolicy::kDelayBounded: return "delay_bounded";
  }
  return "unknown";
}

std::string ScheduleCertificate::to_string() const {
  std::ostringstream os;
  os << schedule_policy_name(policy) << ' ' << seed << ' ' << grants.size();
  for (const std::int32_t g : grants) os << ' ' << g;
  return os.str();
}

ScheduleCertificate ScheduleCertificate::parse(const std::string& text) {
  std::istringstream is(text);
  std::string name;
  ScheduleCertificate c;
  std::size_t n = 0;
  if (!(is >> name >> c.seed >> n)) {
    throw std::invalid_argument("ScheduleCertificate::parse: malformed header");
  }
  if (name == "fifo") {
    c.policy = SchedulePolicy::kFifo;
  } else if (name == "random_priority") {
    c.policy = SchedulePolicy::kRandomPriority;
  } else if (name == "delay_bounded") {
    c.policy = SchedulePolicy::kDelayBounded;
  } else {
    throw std::invalid_argument("ScheduleCertificate::parse: unknown policy '" + name + "'");
  }
  // No reserve(n): n is untrusted text, and a huge count must fail as a
  // truncated list below rather than as an allocation error.
  for (std::size_t i = 0; i < n; ++i) {
    std::int32_t g = 0;
    if (!(is >> g)) {
      throw std::invalid_argument("ScheduleCertificate::parse: truncated grant list");
    }
    c.grants.push_back(g);
  }
  std::string extra;
  if (is >> extra) {
    throw std::invalid_argument("ScheduleCertificate::parse: trailing tokens");
  }
  return c;
}

Cluster::Result Cluster::run(int nranks, const MachineModel& machine,
                             const std::function<void(Comm&)>& rank_fn,
                             const RunOptions& opts) {
  std::exception_ptr err;
  Result res = run_impl(nranks, machine, rank_fn, opts, &err);
  if (err) std::rethrow_exception(err);
  return res;
}

Cluster::Result Cluster::try_run(int nranks, const MachineModel& machine,
                                 const std::function<void(Comm&)>& rank_fn,
                                 const RunOptions& opts) {
  std::exception_ptr err;
  Result res = run_impl(nranks, machine, rank_fn, opts, &err);
  if (err) {
    try {
      std::rethrow_exception(err);
    } catch (const FaultError& fe) {
      res.fault = fe.report;
      res.error = fe.what();
    } catch (const std::exception& e) {
      res.error = e.what();
    } catch (...) {
      res.error = "unknown error";
    }
    if (res.error.empty()) res.error = "unknown error";
  }
  return res;
}

}  // namespace sptrsv
