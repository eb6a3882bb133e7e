#pragma once
/// \file metrics.hpp
/// \brief Always-cheap metrics: a per-rank registry of typed counters,
/// gauges and fixed-bucket histograms, and exporters
/// (docs/OBSERVABILITY.md §Metrics).
///
/// Design contract (mirrors the trace layer's):
///  - Zero allocation on the hot path. Registration (find-or-create by
///    name) may allocate; it happens once per (rank, name). A registered
///    handle is one pointer; bumping it is a null check plus an add.
///  - Null-safe handles. A default-constructed handle is a no-op, so
///    instrumented code needs no `if (metrics_enabled)` branches — with
///    metrics off every handle is null and the cost is one predictable
///    branch.
///  - Outside the clean ledger. Metric storage is written next to the
///    clean counters, never read by clock math: enabling metrics changes
///    no virtual time, fingerprint, message count or trace byte. Pinned by
///    tests/test_metrics.cpp.
///
/// The registry is strictly per-rank: its own rank writes it, plus the
/// scheduler's grant counter, and every rank runs as a fiber on one thread,
/// so nothing needs a lock. Cluster::run_impl merges the per-rank
/// registries into an immutable MetricsReport once every rank has stopped.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace sptrsv {

/// Per-rank metric store. Values live in stable storage (deques by
/// another name: chunked vectors that never move), so handles stay valid
/// for the registry's lifetime.
class MetricsRegistry {
 public:
  /// Monotone integer count (messages, retransmits, grants...).
  struct Counter {
    std::int64_t* v = nullptr;
    // const: a handle is a pointer; bumping mutates the registry, not it.
    void add(std::int64_t d = 1) const {
      if (v != nullptr) *v += d;
    }
  };

  /// Point-in-time double (clock skew, queue depth...).
  struct Gauge {
    double* v = nullptr;
    void set(double x) const {
      if (v != nullptr) *v = x;
    }
    void add(double x) const {
      if (v != nullptr) *v += x;
    }
  };

  /// Fixed-bucket histogram: counts[i] counts observations <= bounds[i],
  /// counts.back() is the overflow bucket, plus a running sum. Buckets are
  /// non-cumulative in storage; exporters cumulate for Prometheus.
  struct HistStorage {
    std::vector<double> bounds;        ///< ascending upper bounds
    std::vector<std::int64_t> counts;  ///< bounds.size() + 1 buckets
    double sum = 0.0;
    std::int64_t total = 0;
  };
  struct Histogram {
    HistStorage* h = nullptr;
    void observe(double x) const {
      if (h == nullptr) return;
      std::size_t i = 0;
      while (i < h->bounds.size() && x > h->bounds[i]) ++i;
      ++h->counts[i];
      h->sum += x;
      ++h->total;
    }
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-register. Names are dot-separated ("cluster.messages.fp");
  /// exporters sort by name, so registration order never matters.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  /// `bounds` must be ascending; re-registration with different bounds
  /// keeps the first definition (same-name handles share storage).
  Histogram histogram(const std::string& name, std::span<const double> bounds);

  /// Zeroes every value (reset_clock mirror: metric mirrors of the clean
  /// counters restart with them). Definitions and handles survive.
  void reset();

  // --- read side (report building / tests) ---
  /// Counter+gauge values flattened to doubles, sorted by name.
  std::map<std::string, double> values() const;
  std::map<std::string, HistStorage> histograms() const;

 private:
  struct Slot {
    enum class Kind { kCounter, kGauge, kHistogram } kind;
    std::size_t index = 0;  ///< into the kind's storage deque
  };
  std::map<std::string, Slot> names_;
  // Heap cells: element addresses survive vector growth, which is exactly
  // the handle-stability contract.
  std::vector<std::unique_ptr<std::int64_t>> counters_;
  std::vector<std::unique_ptr<double>> gauges_;
  std::vector<std::unique_ptr<HistStorage>> hists_;
};

/// Immutable merged snapshot of every rank's registry at run end —
/// Cluster::Result::metrics. Schema-versioned: exporters stamp kSchema so
/// downstream tooling (bench_compare, dashboards) can reject a format it
/// does not understand.
struct MetricsReport {
  static constexpr const char* kSchema = "sptrsv-metrics/2";

  struct Rank {
    std::map<std::string, double> values;
    std::map<std::string, MetricsRegistry::HistStorage> histograms;
  };
  std::vector<Rank> ranks;

  /// Value of `name` at `rank` (0.0 when absent).
  double value(int rank, const std::string& name) const;
  /// Sum of `name` over every rank (absent ranks contribute 0).
  double total(const std::string& name) const;
  /// Max of `name` over every rank (0.0 when absent everywhere).
  double max(const std::string& name) const;
  /// Total histogram sum of `name` over ranks (0.0 when absent).
  double hist_sum_total(const std::string& name) const;
  /// Max per-rank histogram sum of `name` (0.0 when absent).
  double hist_sum_max(const std::string& name) const;

  /// Schema-versioned JSON document. Deterministic byte-for-byte for equal
  /// inputs: maps are name-sorted and doubles print with %.17g.
  std::string to_json() const;
  /// Prometheus text exposition format: names mangled ('.' -> '_',
  /// "sptrsv_" prefix), one sample per rank with a rank="N" label,
  /// histograms as cumulative _bucket/_sum/_count families.
  std::string to_prometheus() const;
};

}  // namespace sptrsv
