#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/sptrsv3d.hpp"
#include "sparse/paper_matrices.hpp"
#include "test_support.hpp"

namespace sptrsv {
namespace {

/// Golden-fingerprint corpus: the clean-ledger fingerprint of a 2x2x2
/// deterministic solve of every Table-1 matrix, for both 3D algorithms,
/// two perturbation seeds, and two ABFT-armed variants (fault-free and
/// seeded-SDC), pinned in tests/golden_fingerprints.txt, plus the
/// fault-ledger fingerprint of every fault-armed run. The ledgers hash
/// only clocks and counters, so the corpus also pins numeric bits: a hash
/// of each matrix's five factor arrays and of the seed-0 solution of each
/// algorithm. Any drift — a clock-model change, a reordered reduction, a
/// perturbation stream change, a recovery cost charged differently, a
/// dense kernel that rounds differently — fails here with the exact
/// (matrix, algorithm, seed) that moved. Intentional changes regenerate
/// the corpus:
///
///   SPTRSV_GOLDEN_REGEN=tests/golden_fingerprints.txt ./build/tests/test_golden
///
/// (path relative to where the binary runs; see docs/TESTING.md).

std::string fp_hex(std::uint64_t fp) {
  std::ostringstream os;
  os << std::hex;
  os.width(16);
  os.fill('0');
  os << fp;
  return os.str();
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// FNV-1a over the bit patterns of `v`, continuing from `h`.
std::uint64_t hash_bits(std::uint64_t h, std::span<const Real> v) {
  for (const Real x : v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &x, sizeof u);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (u >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// Hash of the bits of every factor array: diag, diag_linv, diag_uinv,
/// lpanel and upanel, each over all supernodes in order.
std::uint64_t factor_hash(const SupernodalLU& lu) {
  std::uint64_t h = kFnvBasis;
  for (const auto* arrays : {&lu.diag, &lu.diag_linv, &lu.diag_uinv, &lu.lpanel,
                             &lu.upanel}) {
    for (const std::vector<Real>& v : *arrays) h = hash_bits(h, v);
  }
  return h;
}

/// "<matrix> <algorithm> <seed-token>" -> fingerprint hex, for all 138
/// corpus entries, computed fresh. "<matrix> factor lu" hashes the bits of
/// the factor every solve below uses, and "<matrix> <algorithm> x0" the
/// bits of the seed-0 solution. Seed tokens "0"/"1" are plain perturbed
/// solves; "abft0" is the same seed-0 solve with ABFT armed and no faults,
/// "sdc0" is seed 0 with ABFT armed over an aggressive memory-fault rate,
/// "degrade0" is seed 0 with an empty spare pool, one scheduled rank
/// death and elastic degradation absorbing it, and "delivery0" is seed 0
/// over a lossy network (drops, duplicates, corruption, reordering and one
/// transient rank stall) that the reliable transport recovers from. All
/// four fault rows must equal the plain "0" row bit for bit — the corpus
/// pins the docs/ROBUSTNESS.md contract that verification, correction,
/// shrink-and-redistribute recovery and retransmission never touch the
/// clean ledger. Each of the four also records its fault_fingerprint()
/// under "<token>.fault", pinning what the recovery cost on the fault
/// ledger.
std::map<std::string, std::string> compute_corpus() {
  std::map<std::string, std::string> out;
  for (const PaperMatrix pm : all_paper_matrices()) {
    const CsrMatrix a = make_paper_matrix(pm, MatrixScale::kTiny);
    const FactoredSystem fs = analyze_and_factor(a, 3);
    out[paper_matrix_name(pm) + " factor lu"] = fp_hex(factor_hash(fs.lu));
    const std::vector<Real> b = test::random_rhs(a.rows(), 1, 42);
    for (const Algorithm3d alg : {Algorithm3d::kProposed, Algorithm3d::kBaseline}) {
      const std::string base = paper_matrix_name(pm) + " " +
                               (alg == Algorithm3d::kProposed ? "proposed" : "baseline");
      for (const std::uint64_t seed : {0, 1}) {
        SolveConfig cfg;
        cfg.shape = {2, 2, 2};
        cfg.algorithm = alg;
        cfg.run = RunOptions{.seed = seed};
        // Perturbations are seeded, so the perturbed clocks are part of
        // what the fingerprint pins — seeds 0 and 1 are distinct entries.
        const DistSolveOutcome res =
            solve_system_3d(fs, b, cfg, test::perturbed_machine());
        out[base + " " + std::to_string(seed)] = fp_hex(res.run_stats.fingerprint());
        if (seed == 0) out[base + " x0"] = fp_hex(hash_bits(kFnvBasis, res.x));
      }
      for (const bool faulted : {false, true}) {
        SolveConfig cfg;
        cfg.shape = {2, 2, 2};
        cfg.algorithm = alg;
        cfg.run = RunOptions{.seed = 0};
        cfg.run.abft = true;
        MachineModel machine = test::perturbed_machine();
        if (faulted) machine.perturb.sdc_rate = 5e4;
        const DistSolveOutcome res = solve_system_3d(fs, b, cfg, machine);
        const std::string key = base + (faulted ? " sdc0" : " abft0");
        if (faulted) {
          EXPECT_GT(res.run_stats.sdc_stats().injected, 0u)
              << key << ": the seeded-SDC corpus row injected nothing";
        }
        EXPECT_EQ(fp_hex(res.run_stats.fingerprint()), out[base + " 0"])
            << key << ": ABFT-corrected fingerprint drifted from the clean row";
        out[key] = fp_hex(res.run_stats.fingerprint());
        out[key + ".fault"] = fp_hex(res.run_stats.fault_fingerprint());
      }
      {
        // Elastic degradation row: a mid-solve death with no spares left,
        // absorbed by shrink-and-redistribute. The shrunken world must
        // still reproduce the clean row bit for bit.
        SolveConfig cfg;
        cfg.shape = {2, 2, 2};
        cfg.algorithm = alg;
        cfg.run = RunOptions{.seed = 0};
        cfg.run.degrade = true;
        MachineModel machine = test::perturbed_machine();
        machine.recovery.spare_ranks = 0;
        machine.perturb.crashes.push_back({1, 1e-5});
        const DistSolveOutcome res = solve_system_3d(fs, b, cfg, machine);
        const std::string key = base + " degrade0";
        EXPECT_GT(res.run_stats.degradation_stats().degrades, 0)
            << key << ": the scheduled crash never degraded";
        EXPECT_EQ(fp_hex(res.run_stats.fingerprint()), out[base + " 0"])
            << key << ": degraded fingerprint drifted from the clean row";
        out[key] = fp_hex(res.run_stats.fingerprint());
        out[key + ".fault"] = fp_hex(res.run_stats.fault_fingerprint());
      }
      {
        // Delivery-fault row: every message rides the reliable transport
        // over a lossy network, and rank 2 drops off the network for the
        // first 20 us. Timeouts, backoff, acks and resequencing are all
        // fault-ledger costs — the clean row must still match bit for bit.
        SolveConfig cfg;
        cfg.shape = {2, 2, 2};
        cfg.algorithm = alg;
        cfg.run = RunOptions{.seed = 0};
        MachineModel machine = test::perturbed_machine();
        machine.perturb.drop_prob = 0.05;
        machine.perturb.dup_prob = 0.05;
        machine.perturb.corrupt_prob = 0.02;
        machine.perturb.reorder_prob = 0.05;
        machine.perturb.reorder_window = 5e-6;
        machine.perturb.stalls.push_back({/*rank=*/2, /*vt_begin=*/0.0,
                                          /*vt_end=*/2e-5, /*flight_factor=*/1.0,
                                          /*permanent=*/true});
        const DistSolveOutcome res = solve_system_3d(fs, b, cfg, machine);
        const std::string key = base + " delivery0";
        EXPECT_GT(res.run_stats.transport_totals().retransmits, 0)
            << key << ": the lossy network forced no retransmit";
        EXPECT_EQ(fp_hex(res.run_stats.fingerprint()), out[base + " 0"])
            << key << ": delivery-fault fingerprint drifted from the clean row";
        out[key] = fp_hex(res.run_stats.fingerprint());
        out[key + ".fault"] = fp_hex(res.run_stats.fault_fingerprint());
      }
    }
  }
  return out;
}

TEST(GoldenFingerprints, MatchCorpus) {
  const std::map<std::string, std::string> computed = compute_corpus();

  if (const char* regen = std::getenv("SPTRSV_GOLDEN_REGEN");
      regen != nullptr && *regen != '\0') {
    std::ofstream out(regen);
    ASSERT_TRUE(out) << "cannot write " << regen;
    out << "# Golden clean-ledger fingerprints (tests/test_golden.cpp).\n"
        << "# <matrix> <algorithm> "
           "<seed-token: 0|1|abft0|sdc0|degrade0|delivery0> <fingerprint>\n"
        << "# A \".fault\" suffix on a token pins that run's fault_fingerprint().\n"
        << "# <matrix> factor lu <hash> pins the bits of the five factor arrays;\n"
        << "# <matrix> <algorithm> x0 <hash> pins the bits of the seed-0 solution.\n"
        << "# Regenerate: SPTRSV_GOLDEN_REGEN=<path> ./build/tests/test_golden\n";
    for (const auto& [key, fp] : computed) out << key << " " << fp << "\n";
    GTEST_SKIP() << "regenerated " << computed.size() << " entries into " << regen;
  }

  std::ifstream in(GOLDEN_FILE);
  ASSERT_TRUE(in) << "missing golden corpus " << GOLDEN_FILE;
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string matrix, alg, seed, fp;
    ASSERT_TRUE(ls >> matrix >> alg >> seed >> fp) << "malformed line: " << line;
    golden[matrix + " " + alg + " " + seed] = fp;
  }

  ASSERT_EQ(golden.size(), computed.size())
      << "corpus entry count drifted — regenerate deliberately";
  for (const auto& [key, fp] : computed) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "no golden entry for " << key;
    EXPECT_EQ(it->second, fp) << "fingerprint drifted for " << key;
  }
}

}  // namespace
}  // namespace sptrsv
