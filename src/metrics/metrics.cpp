#include "metrics/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace sptrsv {

namespace {

/// Shortest round-trippable double — %.17g reproduces the bits, so equal
/// doubles always print the same bytes (the report-determinism contract).
std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// JSON string escaping for metric names (names are program identifiers,
/// but the exporter must not be the one place that trusts that).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Prometheus metric-name mangling: [a-zA-Z0-9_:] only.
std::string prom_name(const std::string& s) {
  std::string out = "sptrsv_";
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

MetricsRegistry::Counter MetricsRegistry::counter(const std::string& name) {
  auto it = names_.find(name);
  if (it == names_.end()) {
    counters_.push_back(std::make_unique<std::int64_t>(0));
    it = names_.emplace(name, Slot{Slot::Kind::kCounter, counters_.size() - 1})
             .first;
  }
  if (it->second.kind != Slot::Kind::kCounter) {
    throw std::logic_error("MetricsRegistry: '" + name +
                           "' already registered with another type");
  }
  return Counter{counters_[it->second.index].get()};
}

MetricsRegistry::Gauge MetricsRegistry::gauge(const std::string& name) {
  auto it = names_.find(name);
  if (it == names_.end()) {
    gauges_.push_back(std::make_unique<double>(0.0));
    it = names_.emplace(name, Slot{Slot::Kind::kGauge, gauges_.size() - 1}).first;
  }
  if (it->second.kind != Slot::Kind::kGauge) {
    throw std::logic_error("MetricsRegistry: '" + name +
                           "' already registered with another type");
  }
  return Gauge{gauges_[it->second.index].get()};
}

MetricsRegistry::Histogram MetricsRegistry::histogram(
    const std::string& name, std::span<const double> bounds) {
  auto it = names_.find(name);
  if (it == names_.end()) {
    auto h = std::make_unique<HistStorage>();
    h->bounds.assign(bounds.begin(), bounds.end());
    if (!std::is_sorted(h->bounds.begin(), h->bounds.end())) {
      throw std::invalid_argument("MetricsRegistry: histogram bounds for '" +
                                  name + "' must be ascending");
    }
    h->counts.assign(h->bounds.size() + 1, 0);
    hists_.push_back(std::move(h));
    it = names_.emplace(name, Slot{Slot::Kind::kHistogram, hists_.size() - 1})
             .first;
  }
  if (it->second.kind != Slot::Kind::kHistogram) {
    throw std::logic_error("MetricsRegistry: '" + name +
                           "' already registered with another type");
  }
  return Histogram{hists_[it->second.index].get()};
}

void MetricsRegistry::reset() {
  for (auto& c : counters_) *c = 0;
  for (auto& g : gauges_) *g = 0.0;
  for (auto& h : hists_) {
    std::fill(h->counts.begin(), h->counts.end(), 0);
    h->sum = 0.0;
    h->total = 0;
  }
}

std::map<std::string, double> MetricsRegistry::values() const {
  std::map<std::string, double> out;
  for (const auto& [name, slot] : names_) {
    if (slot.kind == Slot::Kind::kCounter) {
      out[name] = static_cast<double>(*counters_[slot.index]);
    } else if (slot.kind == Slot::Kind::kGauge) {
      out[name] = *gauges_[slot.index];
    }
  }
  return out;
}

std::map<std::string, MetricsRegistry::HistStorage> MetricsRegistry::histograms()
    const {
  std::map<std::string, HistStorage> out;
  for (const auto& [name, slot] : names_) {
    if (slot.kind == Slot::Kind::kHistogram) out[name] = *hists_[slot.index];
  }
  return out;
}

double MetricsReport::value(int rank, const std::string& name) const {
  if (rank < 0 || rank >= static_cast<int>(ranks.size())) return 0.0;
  const auto& vals = ranks[static_cast<std::size_t>(rank)].values;
  const auto it = vals.find(name);
  return it == vals.end() ? 0.0 : it->second;
}

double MetricsReport::total(const std::string& name) const {
  double s = 0.0;
  for (int r = 0; r < static_cast<int>(ranks.size()); ++r) s += value(r, name);
  return s;
}

double MetricsReport::max(const std::string& name) const {
  double m = 0.0;
  for (int r = 0; r < static_cast<int>(ranks.size()); ++r) {
    m = std::max(m, value(r, name));
  }
  return m;
}

double MetricsReport::hist_sum_total(const std::string& name) const {
  double s = 0.0;
  for (const auto& r : ranks) {
    const auto it = r.histograms.find(name);
    if (it != r.histograms.end()) s += it->second.sum;
  }
  return s;
}

double MetricsReport::hist_sum_max(const std::string& name) const {
  double m = 0.0;
  for (const auto& r : ranks) {
    const auto it = r.histograms.find(name);
    if (it != r.histograms.end()) m = std::max(m, it->second.sum);
  }
  return m;
}

std::string MetricsReport::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"" << kSchema << "\",\"ranks\":[";
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const Rank& rk = ranks[r];
    if (r > 0) os << ",";
    os << "\n{\"rank\":" << r << ",\"values\":{";
    bool first = true;
    for (const auto& [name, v] : rk.values) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(name) << "\":" << fmt_double(v);
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : rk.histograms) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(name) << "\":{\"bounds\":[";
      for (std::size_t i = 0; i < h.bounds.size(); ++i) {
        if (i > 0) os << ",";
        os << fmt_double(h.bounds[i]);
      }
      os << "],\"counts\":[";
      for (std::size_t i = 0; i < h.counts.size(); ++i) {
        if (i > 0) os << ",";
        os << h.counts[i];
      }
      os << "],\"sum\":" << fmt_double(h.sum) << ",\"count\":" << h.total << "}";
    }
    os << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

std::string MetricsReport::to_prometheus() const {
  // One family per metric name: a TYPE line, then one sample per rank that
  // defines it. Families are name-sorted (union over ranks), so the export
  // is deterministic regardless of per-rank registration differences.
  std::map<std::string, const char*> families;  // name -> "counter"/"gauge"
  std::map<std::string, bool> hist_families;
  for (const auto& rk : ranks) {
    for (const auto& [name, v] : rk.values) {
      (void)v;
      families.emplace(name, "gauge");
    }
    for (const auto& [name, h] : rk.histograms) {
      (void)h;
      hist_families.emplace(name, true);
    }
  }
  std::ostringstream os;
  for (const auto& [name, type] : families) {
    const std::string pname = prom_name(name);
    os << "# TYPE " << pname << " " << type << "\n";
    for (std::size_t r = 0; r < ranks.size(); ++r) {
      const auto it = ranks[r].values.find(name);
      if (it == ranks[r].values.end()) continue;
      os << pname << "{rank=\"" << r << "\"} " << fmt_double(it->second) << "\n";
    }
  }
  for (const auto& [name, unused] : hist_families) {
    (void)unused;
    const std::string pname = prom_name(name);
    os << "# TYPE " << pname << " histogram\n";
    for (std::size_t r = 0; r < ranks.size(); ++r) {
      const auto it = ranks[r].histograms.find(name);
      if (it == ranks[r].histograms.end()) continue;
      const MetricsRegistry::HistStorage& h = it->second;
      std::int64_t cum = 0;
      for (std::size_t i = 0; i < h.bounds.size(); ++i) {
        cum += h.counts[i];
        os << pname << "_bucket{rank=\"" << r << "\",le=\""
           << fmt_double(h.bounds[i]) << "\"} " << cum << "\n";
      }
      cum += h.counts.back();
      os << pname << "_bucket{rank=\"" << r << "\",le=\"+Inf\"} " << cum << "\n";
      os << pname << "_sum{rank=\"" << r << "\"} " << fmt_double(h.sum) << "\n";
      os << pname << "_count{rank=\"" << r << "\"} " << h.total << "\n";
    }
  }
  return os.str();
}

}  // namespace sptrsv
