// The benchmark's four workloads, each driven through the public campaign
// API from one process.
//
//   testbed_sweep       Figure 2 fine CAD sweep (+ Safari), RD cells with A
//                       and AAAA delayed, 10+10 address selection
//                       (testbed::LocalTestbed::run_spec).
//   long_worlds         web-tool CAD/RD repetitions next to the Table 3
//                       cross-service resolver-lab grid
//                       (webtool::WebTool::run_repetition,
//                       resolverlab::run_cell).
//   conformance_matrix  the differential fault matrix plus generated
//                       compound-schedule cells into a VerdictTableSink
//                       (ConformanceHarness::run_spec).
//   fault_hunt          a journaled conformance::FaultHunt, workers = 1.
//
// The first three run on the worker count the caller passes (1 in the
// timed loop, nproc in the traced run). Every workload is a closed loop: a
// worker claims its next cell only after finishing the previous one. One
// repetition runs one whole matrix (or one whole hunt) for one reference
// seed, on a thread of its own, and hashes its output; the digest is
// compared with the recorded one for that seed (perfbench/digests.txt).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Reference seeds per workload: repetition r of a run with seed s uses
/// reference index (start_index(s) + r) mod kReferenceSeeds, and the
/// reference index k runs with campaign seed k + 1.
inline constexpr std::uint64_t kReferenceSeeds = 32;
std::uint64_t start_index(std::uint64_t seed);
inline std::uint64_t reference_seed(std::uint64_t index) { return index + 1; }

/// One executor call (for fault_hunt: one candidate, the interval between
/// two after_cell calls), recorded on the thread that ran it.
struct CellSample {
  std::uint64_t dur_ns = 0;       // CPU time of that thread during the call
  std::uint64_t allocs = 0;       // operator new calls on that thread
  std::uint64_t cell = 0;         // index in the repetition's matrix
  std::uint32_t leases = 0;       // simnet::ScenarioPool::local() leases
  std::uint32_t reuses = 0;       // ... of which reused a parked world
  std::uint32_t rep = 0;          // repetition within its pass
  std::uint16_t cls = 0;          // workload-specific class, see class_name()
  std::uint8_t family = 0;        // client family, see family_name()
};

/// Client families of the per-client breakdown.
inline constexpr int kFamilyCount = 6;
const char* family_name(int family);  // chromium firefox safari curl wget other
int family_of(std::string_view client_display_name);

/// What one repetition did.
struct RepStats {
  std::uint64_t reference = 0;   // reference index
  std::size_t cells = 0;         // delivered to the sink / hunt candidates
  std::size_t failed = 0;        // quarantined or throwing cells
  std::uint64_t setup_ns = 0;    // repetition start -> first cell claimed
  std::uint64_t run_ns = 0;      // first cell claimed -> output complete
  std::uint64_t cpu_ns = 0;      // process CPU time over setup_ns + run_ns
  std::uint64_t calibration_ns = 0;  // calibration kernel right after it
  std::uint64_t claim_cpu_ns = 0;  // process CPU time since process start,
                                   // at the first claim
  std::size_t reorder_high_water = 0;
  int workers = 0;
  std::string digest;            // digest_hex() of the output text
  /// Output checks that failed: paper anchors, thrown campaigns.
  std::vector<std::string> errors;
  // What a fault_hunt repetition found (empty for the other workloads).
  std::uint64_t journal_bytes = 0;
  std::size_t corpus = 0;     // corpus admissions
  std::size_t violating = 0;  // candidates with a rule violation
  std::size_t coverage = 0;   // coverage-signature elements
  std::vector<std::string> corpus_hex;  // schedule_to_hex of each entry
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string_view name() const = 0;
  /// Runs one whole matrix (hunt) for reference index `reference` on
  /// `workers` threads; `rep` tags the samples it records.
  virtual RepStats run(std::uint64_t reference, int workers,
                       std::uint32_t rep) = 0;
  /// Output text of a small fixed slice of the matrix (a short hunt) at
  /// `workers` threads: must be identical at 1 and nproc workers.
  virtual std::string slice_output(std::uint64_t reference, int workers) = 0;
  /// One-line replay of matrix cell `cell` (hunt candidate `cell`).
  virtual std::string replay(std::uint64_t reference,
                             std::uint64_t cell) const = 0;
  /// Name of CellSample::cls for the breakdown.
  virtual std::string class_name(std::uint16_t cls) const = 0;
};

/// testbed_sweep, long_worlds, conformance_matrix, fault_hunt.
const std::vector<std::string>& workload_names();
/// nullptr for an unknown name. `tmp_dir` receives hunt journals.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const std::string& tmp_dir);

/// Samples recorded since the last call, from every thread (call only
/// between repetitions). A thread that recorded more than 2^15 samples
/// contributes a uniform sample of that many.
std::vector<CellSample> take_samples();

/// Recorded output digests: (workload, reference index) -> hex.
class Digests {
 public:
  /// Parses "<workload> <index> <hex>" lines ('#' starts a comment).
  /// Returns false (with `error` set) on a malformed line.
  bool parse(std::string_view text, std::string& error);
  /// nullptr when nothing is recorded for the pair.
  const std::string* find(const std::string& workload,
                          std::uint64_t index) const;

 private:
  std::map<std::pair<std::string, std::uint64_t>, std::string> digests_;
};

}  // namespace perfbench
