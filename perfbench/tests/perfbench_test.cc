// The benchmark's own tests: span nesting and self time, metric and span
// naming, fixed metric order, digest file parsing, percentiles, host-speed
// scaling, and the repository linter over the benchmark's sources.
//
//   cmake --build .bench_build --target perfbench_test && .bench_build/perfbench_test
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "calibrate.h"
#include "lint.h"
#include "metrics.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

/// Every span's parent exists, is on the same thread, and encloses it; no
/// span has negative self time.
void check_nesting(const std::vector<SpanRecord>& spans, const std::string& what) {
  const std::vector<std::int64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    check(s.end_ns >= s.start_ns, what + ": span ends before it starts");
    check(self[i] >= 0, what + ": negative self time in " +
                            std::string{span_name(s.name)});
    if (s.parent == 0) continue;
    const auto parent = std::find_if(spans.begin(), spans.end(),
                                     [&](const SpanRecord& p) { return p.id == s.parent; });
    check(parent != spans.end(), what + ": parent span missing");
    if (parent == spans.end()) continue;
    check(parent->thread == s.thread, what + ": parent on another thread");
    check(parent->start_ns <= s.start_ns && s.end_ns <= parent->end_ns,
          what + ": child outside its parent");
  }
}

void test_spans_nest() {
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  {
    Span outer{SpanName::kRepetition, 7};
    {
      Span inner{SpanName::kTestbedRunSpec, 7};
      Span leaf{SpanName::kSinkCell, 7};
    }
    const std::uint64_t t = now_ns();
    tracer.record(SpanName::kHuntCandidate, 7, t, t + 1);
  }
  tracer.set_enabled(false);
  {
    Span ignored{SpanName::kSetup, 1};  // tracing off: not recorded
  }
  const std::vector<SpanRecord> spans = tracer.collect();
  check(spans.size() == 4, "four spans recorded while enabled");
  int roots = 0;
  for (const SpanRecord& s : spans) {
    roots += s.parent == 0 ? 1 : 0;
    check(s.cell == 7, "spans keep their cell id");
  }
  check(roots == 1, "one root span");
  check_nesting(spans, "synthetic");

  // Self time is duration minus the children's durations.
  const std::vector<std::int64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::int64_t children = 0;
    for (const SpanRecord& c : spans) {
      if (c.parent == spans[i].id) {
        children += static_cast<std::int64_t>(c.end_ns - c.start_ns);
      }
    }
    check(self[i] == static_cast<std::int64_t>(spans[i].end_ns -
                                               spans[i].start_ns) -
                         children,
          "self time = duration - children");
  }
  tracer.clear();
}

void test_real_pass_nests() {
  // One traced repetition of each campaign workload on two workers: every
  // layer span shows up, nests, and has non-negative self time.
  Digests none;
  const std::set<SpanName> expected[] = {
      {SpanName::kRepetition, SpanName::kSetup, SpanName::kSpecAt,
       SpanName::kTestbedRunSpec, SpanName::kSinkCell},
      {SpanName::kRepetition, SpanName::kSetup, SpanName::kSpecAt,
       SpanName::kConformanceRunSpec, SpanName::kSinkCell},
      {SpanName::kRepetition, SpanName::kSetup, SpanName::kHuntRun,
       SpanName::kHuntCandidate, SpanName::kHuntAfterCell},
  };
  const char* names[] = {"testbed_sweep", "conformance_matrix", "fault_hunt"};
  const std::string tmp = std::filesystem::temp_directory_path() / "perfbench_test";
  for (int w = 0; w < 3; ++w) {
    const auto workload = make_workload(names[w], tmp);
    const PassResult pass = run_pass(*workload, none, 0, 0, 2, true, 1, 1);
    check(!pass.spans.empty(), std::string{names[w]} + ": spans recorded");
    check(!pass.samples.empty(), std::string{names[w]} + ": samples recorded");
    check(pass.failed() == 0, std::string{names[w]} + ": no failed cells");
    check_nesting(pass.spans, names[w]);
    std::set<SpanName> seen;
    for (const SpanRecord& s : pass.spans) seen.insert(s.name);
    for (const SpanName n : expected[w]) {
      check(seen.count(n) == 1, std::string{names[w]} + ": no span " +
                                    std::string{span_name(n)});
    }
    // Without recorded digests every repetition reports it.
    check(!pass.errors.empty(), std::string{names[w]} + ": missing digest reported");
  }
  std::filesystem::remove_all(tmp);
}

void test_names() {
  std::set<std::string> seen;
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& def : *defs) {
      check(valid_metric_name(def.name), "metric name " + def.name);
      check(seen.insert(def.name).second, "metric name used twice: " + def.name);
      check(def.better == "lower" || def.better == "higher",
            "direction of " + def.name);
      check(!def.unit.empty() && def.unit.size() <= 16, "unit of " + def.name);
    }
  }
  check(per_layer_metrics().size() <= 128, "at most 128 per-layer metrics");
  for (std::size_t k = 0; k < kSpanNameCount; ++k) {
    const std::string name{span_name(static_cast<SpanName>(k))};
    check(valid_metric_name(name), "span name " + name);
    check(seen.insert(name).second, "span name used twice: " + name);
  }
  for (const std::string& w : workload_names()) {
    check(valid_metric_name(w), "workload name " + w);
  }
  check(!valid_metric_name("bad name"), "spaces are rejected");
  check(!valid_metric_name(".leading"), "leading dot is rejected");
  check(!valid_metric_name(std::string(65, 'a')), "65 characters are rejected");
}

void test_fixed_order() {
  const std::vector<MetricDef>& defs = per_layer_metrics();
  MetricValues forward;
  MetricValues backward;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    forward[defs[i].name] = static_cast<double>(i);
    backward[defs[defs.size() - 1 - i].name] =
        static_cast<double>(defs.size() - 1 - i);
  }
  std::vector<std::string> missing;
  const std::string a = result_json(true, 1, 0, defs, forward, missing);
  const std::string b = result_json(true, 1, 0, defs, backward, missing);
  check(missing.empty(), "no metric missing");
  check(a == b, "emission order does not depend on insertion order");
  std::size_t pos = 0;
  for (const MetricDef& def : defs) {
    const std::size_t at = a.find("\"" + def.name + "\": {", pos);
    check(at != std::string::npos, "metric emitted in catalogue order: " + def.name);
    if (at != std::string::npos) pos = at;
  }
  MetricValues partial;
  partial["setup_s"] = 0.5;
  result_json(true, 1, 0, end_to_end_metrics(), partial, missing);
  check(missing.size() == end_to_end_metrics().size() - 1,
        "unmeasured metrics are reported missing");
}

void test_digests_and_stats() {
  Digests d;
  std::string error;
  check(d.parse("# c\ntestbed_sweep 3 0123456789abcdef\n\n", error), "parse");
  check(d.find("testbed_sweep", 3) != nullptr &&
            *d.find("testbed_sweep", 3) == "0123456789abcdef",
        "lookup");
  check(d.find("testbed_sweep", 4) == nullptr, "absent index");
  Digests bad;
  check(!bad.parse("testbed_sweep x 0123\n", error), "malformed line refused");

  std::vector<double> v = {4, 1, 3, 2, 5};
  check(median(v) == 3, "median");
  std::vector<double> w = {0, 10};
  check(percentile(w, 0.25) == 2.5, "interpolated percentile");
  check(digest_hex("") == "cbf29ce484222325", "FNV-1a of empty text");
  check(start_index(1) < kReferenceSeeds, "start index in range");
  check(family_of("Chrome 130.0") == 0 && family_of("Edge 90.0") == 0 &&
            family_of("Firefox 132.0") == 1 && family_of("Safari 17.6") == 2 &&
            family_of("curl 8.5.0") == 3 && family_of("wget 1.21.3") == 4,
        "client families");
}

void test_cell_medians() {
  // Reference 7: cell 0 seen on three visits, cell 1 on one (its other
  // visits failed); reference 9: one cell on one visit.
  PassResult pass;
  CellTimes& a = pass.cell_times[7];
  a.visits = 3;
  a.ns.assign(2 * kVisitsKept, 0);
  a.ns[0] = 9000;
  a.ns[1] = 1000;
  a.ns[2] = 2000;
  a.ns[kVisitsKept + 2] = 4000;
  CellTimes& b = pass.cell_times[9];
  b.visits = 1;
  b.ns.assign(kVisitsKept, 0);
  b.ns[0] = 3000;
  std::vector<double> us = cell_medians_us(pass);
  std::sort(us.begin(), us.end());
  check(us == std::vector<double>{2, 3, 4},
        "one value per cell: the median of its recorded visits, in us");

  // An untraced pass keeps every cell's time per reference seed, and no
  // samples.
  Digests none;
  const auto workload = make_workload("testbed_sweep", "");
  const PassResult real = run_pass(*workload, none, 0, 0, 2, false, 2, 2);
  check(real.samples.empty(), "untraced pass keeps no samples");
  check(real.cell_times.size() == 2 && cell_medians_us(real).size() == real.cells(),
        "untraced pass: one cell time per delivered cell");
}
void test_host_scale() {
  check(host_scale(0) == 1.0 && host_speed(0) == 1.0,
        "no calibration reading: unscaled");
  check(host_speed(static_cast<std::uint64_t>(2 * kCalibrationNominalNs)) == 0.5,
        "a kernel twice as slow as nominal: half speed");
  check(host_scale(static_cast<std::uint64_t>(2 * kCalibrationNominalNs)) == 0.25,
        "a kernel twice as slow as nominal quarters the times");
  (void)calibration_ns();
  check(calibration_ns() > 0, "calibration kernel takes time");

  // cells_per_s: per reference seed, the visit with the median scaled CPU
  // time (lower middle of two), cells over scaled CPU seconds.
  PassResult pass;
  RepStats slow_host;
  slow_host.reference = 3;
  slow_host.cells = 100;
  slow_host.cpu_ns = 4000000;
  slow_host.calibration_ns = 3000000;  // scale 1/4: 1 ms
  RepStats slow_program = slow_host;
  slow_program.cpu_ns = 4000000;
  slow_program.calibration_ns = 1500000;  // nominal: 4 ms
  pass.reps = {slow_program, slow_host};
  check(cells_per_second(pass) == 100000.0,
        "cells_per_s over the median scaled visit");

  Digests none;
  const auto workload = make_workload("testbed_sweep", "");
  const PassResult real = run_pass(*workload, none, 0, 0, 1, false, 2, 2);
  for (const RepStats& r : real.reps) {
    check(r.calibration_ns > 0 && r.cpu_ns > 0,
          "every repetition has CPU time and a calibration reading");
  }
}

void test_lint_clean() {
  namespace fs = std::filesystem;
  int scanned = 0;
  for (const char* dir : {"src", "tests"}) {
    for (const auto& entry : fs::directory_iterator{fs::path{PERFBENCH_SOURCE_DIR} / dir}) {
      const std::string ext = entry.path().extension().string();
      if (ext != ".cc" && ext != ".h") continue;
      std::ifstream in{entry.path()};
      const std::string content{std::istreambuf_iterator<char>{in},
                                std::istreambuf_iterator<char>{}};
      const std::string rel =
          "perfbench/" + std::string{dir} + "/" + entry.path().filename().string();
      const auto findings = lazyeye::lint::scan_source(rel, content);
      check(findings.empty(), "lazylint clean: " + rel + "\n" +
                                  lazyeye::lint::format_findings(findings));
      ++scanned;
    }
  }
  check(scanned >= 10, "lint scanned the benchmark sources");
}

}  // namespace

int main() {
  const std::vector<std::pair<const char*, std::function<void()>>> tests = {
      {"spans_nest", test_spans_nest},
      {"real_pass_nests", test_real_pass_nests},
      {"names", test_names},
      {"fixed_order", test_fixed_order},
      {"digests_and_stats", test_digests_and_stats},
      {"cell_medians", test_cell_medians},
      {"host_scale", test_host_scale},
      {"lint_clean", test_lint_clean},
  };
  for (const auto& [name, fn] : tests) {
    const int before = g_failures;
    fn();
    std::printf("[%s] %s\n", g_failures == before ? "PASS" : "FAIL", name);
  }
  std::printf("%s\n", g_failures == 0 ? "all perfbench tests passed"
                                      : "perfbench tests FAILED");
  return g_failures == 0 ? 0 : 1;
}
