/// \file bench_compare.cpp
/// \brief Diffs two SPTRSV_BENCH_JSON report directories and flags
/// regressions (docs/OBSERVABILITY.md).
///
///   bench_compare [--tol FRAC] BASELINE_DIR CANDIDATE_DIR
///   bench_compare --self-test
///
/// Reports are matched by filename (NNN_<stem>.json, schema
/// "sptrsv-bench/1"); every value is compared lower-is-better, and a
/// relative increase beyond --tol (default 0.10) is a regression. Exit
/// codes: 0 no regressions, 1 regressions found, 2 usage or IO failure.
///
/// Reports whose per-rank row sets differ (metric.<name>.rank<N> rows
/// appearing on one side only — e.g. a run that degraded to fewer ranks)
/// are not silently skipped: the added/removed ranks are
/// listed per metric as a RANKSET line and each mismatched metric counts
/// as one regression. Files present on one side only are reported too.
///
/// --self-test writes a baseline and a deliberately regressed copy into a
/// scratch directory and checks both comparison outcomes; it is wired into
/// ctest so the regression exit path stays exercised.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Report {
  std::string point;
  std::map<std::string, double> values;
};

/// Minimal parser for the flat sptrsv-bench/1 document bench_report writes:
/// {"schema":"sptrsv-bench/1","point":"<stem>","values":{"k":num,...}}.
/// Returns false on anything that doesn't look like that schema.
bool parse_report(const std::string& text, Report& out) {
  auto find_string = [&](const char* key, std::string& val) {
    const std::string pat = std::string("\"") + key + "\":\"";
    const size_t at = text.find(pat);
    if (at == std::string::npos) return false;
    const size_t begin = at + pat.size();
    const size_t end = text.find('"', begin);
    if (end == std::string::npos) return false;
    val = text.substr(begin, end - begin);
    return true;
  };
  std::string schema;
  if (!find_string("schema", schema) || schema != "sptrsv-bench/1") return false;
  if (!find_string("point", out.point)) return false;
  const size_t vals_at = text.find("\"values\":{");
  if (vals_at == std::string::npos) return false;
  size_t i = vals_at + std::strlen("\"values\":{");
  while (i < text.size() && text[i] != '}') {
    if (text[i] == ',') {
      ++i;
      continue;
    }
    if (text[i] != '"') return false;
    const size_t kend = text.find('"', i + 1);
    if (kend == std::string::npos || kend + 1 >= text.size() ||
        text[kend + 1] != ':') {
      return false;
    }
    const std::string key = text.substr(i + 1, kend - i - 1);
    char* num_end = nullptr;
    const double v = std::strtod(text.c_str() + kend + 2, &num_end);
    if (num_end == text.c_str() + kend + 2) return false;
    out.values[key] = v;
    i = static_cast<size_t>(num_end - text.c_str());
  }
  return i < text.size();  // saw the closing brace
}

bool read_report(const fs::path& path, Report& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return parse_report(text, out);
}

/// Loads every *.json report in `dir`, keyed by filename.
bool load_dir(const fs::path& dir, std::map<std::string, Report>& out) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    std::fprintf(stderr, "bench_compare: not a directory: %s\n", dir.c_str());
    return false;
  }
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".json") continue;
    Report rep;
    if (!read_report(entry.path(), rep)) {
      std::fprintf(stderr, "bench_compare: skipping unparsable report %s\n",
                   entry.path().c_str());
      continue;
    }
    out.emplace(entry.path().filename().string(), std::move(rep));
  }
  if (ec) {
    std::fprintf(stderr, "bench_compare: cannot list %s\n", dir.c_str());
    return false;
  }
  return true;
}

/// Splits "metric.cluster.wait_time.rank3" into the metric stem and the
/// rank index; false when the key carries no ".rank<N>" suffix.
bool split_rank_key(const std::string& key, std::string* stem, int* rank) {
  const size_t at = key.rfind(".rank");
  if (at == std::string::npos) return false;
  const char* digits = key.c_str() + at + 5;
  if (*digits == '\0') return false;
  char* end = nullptr;
  const long r = std::strtol(digits, &end, 10);
  if (*end != '\0' || r < 0) return false;
  *stem = key.substr(0, at);
  *rank = static_cast<int>(r);
  return true;
}

std::string fmt_ranks(const std::vector<int>& v) {
  std::string s = "{";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(v[i]);
  }
  return s + "}";
}

/// Compares candidate against baseline; returns the number of regressions
/// (relative increase > tol on any value, all lower-is-better, plus one
/// per metric whose per-rank row set changed).
int compare_dirs(const fs::path& base_dir, const fs::path& cand_dir, double tol,
                 bool quiet = false) {
  std::map<std::string, Report> base, cand;
  if (!load_dir(base_dir, base) || !load_dir(cand_dir, cand)) return -1;
  int regressions = 0;
  int compared = 0;
  for (const auto& [file, b] : base) {
    const auto it = cand.find(file);
    if (it == cand.end()) {
      if (!quiet) {
        std::fprintf(stderr, "bench_compare: %s missing from candidate\n",
                     file.c_str());
      }
      continue;
    }
    // Keys present on one side only. A degraded run changes
    // which metric.<name>.rank<N> rows exist; skipping them silently would
    // let a world-size change pass as "no regressions". Group the
    // mismatches by metric stem and report the rank sets explicitly; every
    // other one-sided key gets a warning.
    std::map<std::string, std::pair<std::vector<int>, std::vector<int>>> ranksets;
    for (const auto& [name, bv] : b.values) {
      if (it->second.values.count(name) != 0) continue;
      std::string stem;
      int rk = -1;
      if (split_rank_key(name, &stem, &rk)) {
        ranksets[stem].second.push_back(rk);  // removed in candidate
      } else if (!quiet) {
        std::fprintf(stderr, "bench_compare: %s value %s missing from candidate\n",
                     file.c_str(), name.c_str());
      }
    }
    for (const auto& [name, cv] : it->second.values) {
      if (b.values.count(name) != 0) continue;
      std::string stem;
      int rk = -1;
      if (split_rank_key(name, &stem, &rk)) {
        ranksets[stem].first.push_back(rk);  // added by candidate
      } else if (!quiet) {
        std::fprintf(stderr, "bench_compare: %s value %s only in candidate\n",
                     file.c_str(), name.c_str());
      }
    }
    for (const auto& [stem, delta] : ranksets) {
      ++regressions;
      if (!quiet) {
        std::printf("RANKSET %s %s: ranks added %s, removed %s\n", file.c_str(),
                    stem.c_str(), fmt_ranks(delta.first).c_str(),
                    fmt_ranks(delta.second).c_str());
      }
    }
    for (const auto& [name, bv] : b.values) {
      const auto vt = it->second.values.find(name);
      if (vt == it->second.values.end()) continue;
      ++compared;
      const double nv = vt->second;
      const double denom = std::max(std::fabs(bv), 1e-300);
      const double rel = (nv - bv) / denom;
      if (rel > tol) {
        ++regressions;
        if (!quiet) {
          std::printf("REGRESSION %s %s: %.6g -> %.6g (+%.1f%% > %.1f%%)\n",
                      file.c_str(), name.c_str(), bv, nv, 100.0 * rel,
                      100.0 * tol);
        }
      }
    }
  }
  for (const auto& [file, c] : cand) {
    if (base.count(file) == 0 && !quiet) {
      std::fprintf(stderr, "bench_compare: %s only in candidate\n", file.c_str());
    }
  }
  if (!quiet) {
    std::printf("compared %d values across %zu matched reports: %d regression%s\n",
                compared, base.size(), regressions, regressions == 1 ? "" : "s");
  }
  return regressions;
}

bool write_file(const fs::path& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return (std::fclose(f) == 0) && ok;
}

/// Proves the regression exit path: a clean pair compares equal, an
/// injected +50% makespan is flagged, a regression confined to one rank's
/// metric row (metric.<name>.rank<N>) is flagged even though the
/// cross-rank total is unchanged, and a candidate whose per-rank row set
/// changed (rank row removed, another added) is flagged as a RANKSET
/// mismatch instead of being silently skipped. Returns the exit code.
int self_test() {
  const fs::path root = fs::temp_directory_path() / "sptrsv_bench_compare_selftest";
  std::error_code ec;
  fs::remove_all(root, ec);
  const fs::path base = root / "base";
  const fs::path same = root / "same";
  const fs::path regressed = root / "regressed";
  fs::create_directories(base, ec);
  fs::create_directories(same, ec);
  fs::create_directories(regressed, ec);
  const fs::path skewed = root / "skewed";
  fs::create_directories(skewed, ec);
  const fs::path reshaped = root / "reshaped";
  fs::create_directories(reshaped, ec);
  const char* doc_base =
      "{\"schema\":\"sptrsv-bench/1\",\"point\":\"new_2x2x4\","
      "\"values\":{\"makespan\":0.001,\"metric.cluster.messages.z\":128,"
      "\"metric.cluster.wait_time.rank0\":0.0001,"
      "\"metric.cluster.wait_time.rank1\":0.0001}}\n";
  const char* doc_regressed =
      "{\"schema\":\"sptrsv-bench/1\",\"point\":\"new_2x2x4\","
      "\"values\":{\"makespan\":0.0015,\"metric.cluster.messages.z\":128,"
      "\"metric.cluster.wait_time.rank0\":0.0001,"
      "\"metric.cluster.wait_time.rank1\":0.0001}}\n";
  // Same makespan and totals, but rank 1's wait doubled while rank 0's
  // halved — only the per-rank rows can catch this load-balance shift.
  const char* doc_skewed =
      "{\"schema\":\"sptrsv-bench/1\",\"point\":\"new_2x2x4\","
      "\"values\":{\"makespan\":0.001,\"metric.cluster.messages.z\":128,"
      "\"metric.cluster.wait_time.rank0\":0.00005,"
      "\"metric.cluster.wait_time.rank1\":0.0002}}\n";
  // Same values where comparable, but rank 1's row vanished and a rank 2
  // row appeared — the world changed size. Must surface as a RANKSET
  // mismatch, not be silently skipped by the key-matching loop.
  const char* doc_reshaped =
      "{\"schema\":\"sptrsv-bench/1\",\"point\":\"new_2x2x4\","
      "\"values\":{\"makespan\":0.001,\"metric.cluster.messages.z\":128,"
      "\"metric.cluster.wait_time.rank0\":0.0001,"
      "\"metric.cluster.wait_time.rank2\":0.0001}}\n";
  if (!write_file(base / "000_new_2x2x4.json", doc_base) ||
      !write_file(same / "000_new_2x2x4.json", doc_base) ||
      !write_file(regressed / "000_new_2x2x4.json", doc_regressed) ||
      !write_file(skewed / "000_new_2x2x4.json", doc_skewed) ||
      !write_file(reshaped / "000_new_2x2x4.json", doc_reshaped)) {
    std::fprintf(stderr, "self-test: cannot write scratch reports\n");
    return 2;
  }
  const int clean = compare_dirs(base, same, 0.10, /*quiet=*/true);
  const int dirty = compare_dirs(base, regressed, 0.10, /*quiet=*/true);
  const int rank_dirty = compare_dirs(base, skewed, 0.10, /*quiet=*/true);
  const int rankset_dirty = compare_dirs(base, reshaped, 0.10, /*quiet=*/true);
  fs::remove_all(root, ec);
  if (clean != 0) {
    std::fprintf(stderr, "self-test FAIL: identical dirs reported %d\n", clean);
    return 1;
  }
  if (dirty <= 0) {
    std::fprintf(stderr, "self-test FAIL: injected regression not flagged\n");
    return 1;
  }
  if (rank_dirty <= 0) {
    std::fprintf(stderr,
                 "self-test FAIL: per-rank regression hidden by unchanged "
                 "totals was not flagged\n");
    return 1;
  }
  if (rankset_dirty <= 0) {
    std::fprintf(stderr,
                 "self-test FAIL: changed per-rank row set (rank removed, "
                 "rank added) was silently skipped\n");
    return 1;
  }
  std::printf("self-test PASS: identical dirs clean, injected +50%% flagged, "
              "per-rank skew flagged, rank-set change flagged\n");
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_compare [--tol FRAC] BASELINE_DIR CANDIDATE_DIR\n"
               "       bench_compare --self-test\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  double tol = 0.10;
  std::vector<std::string> dirs;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      return self_test();
    } else if (a == "--tol") {
      if (i + 1 >= argc) usage();
      tol = std::atof(argv[++i]);
    } else if (!a.empty() && a[0] == '-') {
      usage();
    } else {
      dirs.push_back(a);
    }
  }
  if (dirs.size() != 2) usage();
  const int regressions = compare_dirs(dirs[0], dirs[1], tol);
  if (regressions < 0) return 2;
  return regressions > 0 ? 1 : 0;
}
