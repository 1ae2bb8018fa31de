// The benchmark's metric catalogue, sample statistics, and the one-line
// JSON result.
//
// Metrics are emitted in catalogue order, never in the order they happen to
// be measured, so two runs print the same keys in the same sequence and a
// missing measurement is an error instead of a silently shorter line.
// BENCHMARK.json at the repository root lists the same names; run.py
// --self-test checks that the two agree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  // "lower" or "higher"
};

/// What --trace 0 prints: setup_s, cells_per_s, cell_p50_us, cell_p99_us,
/// peak_rss_mb.
const std::vector<MetricDef>& end_to_end_metrics();

/// What --trace 1 prints: every per-layer ledger metric.
const std::vector<MetricDef>& per_layer_metrics();

/// [A-Za-z0-9_.-]+, starting with a letter or digit, at most 64 characters.
bool valid_metric_name(std::string_view name);

/// Measured values keyed by metric name.
using MetricValues = std::map<std::string, double>;

/// The result line: {"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": v, "unit": u}, ...}} with the metrics of
/// `defs` in catalogue order. Names absent from `values` are appended to
/// `missing` and left out of the line.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<MetricDef>& defs,
                        const MetricValues& values,
                        std::vector<std::string>& missing);

/// Linear-interpolated percentile (q in [0, 1]) of `samples`; 0 when empty.
/// Reorders `samples`.
double percentile(std::vector<double>& samples, double q);

/// Median of `samples` (reorders them); 0 when empty.
double median(std::vector<double>& samples);

/// 64-bit FNV-1a of `text`, as 16 lower-case hex digits.
std::string digest_hex(std::string_view text);

}  // namespace perfbench
