// Passes over a workload and what is computed from them: the end-to-end
// metrics, the per-layer ledger, and the breakdown report of a traced run.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "metrics.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// CPU times at nominal host speed (calibrate.h) of one reference seed's
/// cells (hunt candidates) over the first kVisitsKept repetitions that ran
/// it, in ns; 0 where a cell has no time (a failed cell, or a visit not yet
/// made).
inline constexpr std::uint32_t kVisitsKept = 9;
struct CellTimes {
  std::uint32_t visits = 0;
  std::vector<std::uint32_t> ns;  // ns[cell * kVisitsKept + visit]
};

/// A closed-loop run of one workload: repetitions back to back until the
/// time budget is spent.
struct PassResult {
  std::string workload;
  int workers = 0;
  std::vector<RepStats> reps;       // reps[i] recorded its samples as rep i
  std::vector<CellSample> samples;  // traced passes: every executor call
  std::vector<SpanRecord> spans;    // traced passes only
  /// Untraced passes: per reference seed, each cell's host times.
  std::map<std::uint64_t, CellTimes> cell_times;
  std::uint64_t wall_ns = 0;        // the whole loop, setup included
  /// getrusage max RSS when the loop ended, before any statistics are
  /// computed from its samples.
  double peak_rss_mb = 0;
  std::vector<std::string> errors;  // output mismatches of any repetition

  std::uint64_t cells() const;
  std::uint64_t failed() const;
};

/// Runs repetitions of `workload` (reference indices from `start`) until
/// `budget_ns` has passed, at least `min_reps` and at most `max_reps`
/// times; checks each repetition's digest against `digests`. A traced pass
/// also stops once it holds kMaxPassSpans spans.
inline constexpr std::size_t kMaxPassSpans = 150000;
PassResult run_pass(Workload& workload, const Digests& digests,
                    std::uint64_t start, std::uint64_t budget_ns, int workers,
                    bool traced, std::size_t min_reps, std::size_t max_reps);

/// Cells delivered per second of the process's CPU time at nominal host
/// speed (calibrate.h) over the repetitions (setup and run; the driver's own
/// digest checks and the calibration kernel are left out), over one
/// repetition per reference seed visited: the visit with the median scaled
/// CPU time.
double cells_per_second(const PassResult& pass);

/// Cells delivered per wall second over every repetition of the pass (for
/// the summary only).
double cells_per_wall_second(const PassResult& pass);

/// Per cell of every reference seed the pass visited, the median of its
/// scaled CPU times (µs) over the visits kept in `cell_times`. cell_p50_us and
/// cell_p99_us are percentiles of these: the cost of the matrix's cells,
/// with a visit slowed by host interference outvoted by the others.
std::vector<double> cell_medians_us(const PassResult& pass);

/// cells_per_s, cell_p50_us, cell_p99_us, peak_rss_mb (setup_s is measured
/// in processes of its own).
void end_to_end_values(const PassResult& pass, MetricValues& out);

/// The per-layer ledger from traced passes keyed by workload name, plus the
/// single-worker passes (exact allocation and pool counts) keyed the same.
void layer_values(const std::map<std::string, PassResult>& traced,
                  const std::map<std::string, PassResult>& single_worker,
                  MetricValues& out);

/// Human-readable end-to-end summary: every metric with its unit, the
/// sample counts behind the percentiles, and the error rate.
void print_summary(std::FILE* out, const PassResult& pass,
                   const MetricValues& values);

/// µs per cell by class (case kind, fault kind) and, for the conformance
/// matrix, by client family; span self time per layer; the five slowest
/// cells with their replay lines.
void print_breakdown(std::FILE* out, const PassResult& pass,
                     const Workload& workload);

}  // namespace perfbench
