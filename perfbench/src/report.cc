#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <functional>

#include "calibrate.h"
#include "conformance/fault.h"

namespace perfbench {

namespace {

constexpr double kNsPerUs = 1e3;

std::vector<double> durations_us(const std::vector<CellSample>& samples,
                                 const std::function<bool(const CellSample&)>& keep) {
  std::vector<double> out;
  for (const CellSample& s : samples) {
    if (keep(s)) out.push_back(static_cast<double>(s.dur_ns) / kNsPerUs);
  }
  return out;
}

double mean_self_us(const std::vector<SpanRecord>& spans, SpanName name) {
  const std::vector<std::int64_t> self = self_times(spans);
  double total = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != name) continue;
    total += static_cast<double>(self[i]);
    ++n;
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n) / kNsPerUs;
}

const PassResult* find_pass(const std::map<std::string, PassResult>& passes,
                            const std::string& workload) {
  const auto it = passes.find(workload);
  return it == passes.end() ? nullptr : &it->second;
}

}  // namespace

std::uint64_t PassResult::cells() const {
  std::uint64_t n = 0;
  for (const RepStats& r : reps) n += r.cells;
  return n;
}

std::uint64_t PassResult::failed() const {
  std::uint64_t n = 0;
  for (const RepStats& r : reps) n += r.failed;
  return n;
}

namespace {

/// Adds one visit of a reference seed: each sampled cell's host time,
/// multiplied by `scale` (nominal host speed).
void record_visit(CellTimes& times, const std::vector<CellSample>& samples,
                  double scale) {
  const std::uint32_t visit = times.visits++;
  if (visit >= kVisitsKept) return;
  std::uint64_t cells = 0;
  for (const CellSample& s : samples) cells = std::max(cells, s.cell + 1);
  if (times.ns.size() < cells * kVisitsKept) times.ns.resize(cells * kVisitsKept);
  for (const CellSample& s : samples) {
    times.ns[s.cell * kVisitsKept + visit] = static_cast<std::uint32_t>(
        std::clamp<double>(static_cast<double>(s.dur_ns) * scale, 1, UINT32_MAX));
  }
}

}  // namespace

PassResult run_pass(Workload& workload, const Digests& digests,
                    std::uint64_t start, std::uint64_t budget_ns, int workers,
                    bool traced, std::size_t min_reps, std::size_t max_reps) {
  PassResult pass;
  pass.workload = std::string{workload.name()};
  pass.workers = workers;
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  (void)take_samples();
  tracer.set_enabled(traced);
  const std::uint64_t begin = now_ns();
  for (std::uint32_t rep = 0;; ++rep) {
    const std::uint64_t reference = (start + rep) % kReferenceSeeds;
    RepStats stats;
    {
      Span span{SpanName::kRepetition, rep};
      stats = workload.run(reference, workers, rep);
    }
    stats.calibration_ns = calibration_ns();
    const std::string* expected = digests.find(pass.workload, reference);
    if (expected == nullptr) {
      pass.errors.push_back("no recorded digest for " + pass.workload + " " +
                            std::to_string(reference));
    } else if (*expected != stats.digest) {
      pass.errors.push_back("output digest mismatch: " + pass.workload +
                            " reference " + std::to_string(reference) +
                            " gave " + stats.digest + ", recorded " +
                            *expected);
    }
    for (const std::string& e : stats.errors) {
      pass.errors.push_back(pass.workload + ": " + e);
    }
    std::vector<CellSample> samples = take_samples();
    if (traced) {
      pass.samples.insert(pass.samples.end(), samples.begin(), samples.end());
    } else {
      record_visit(pass.cell_times[stats.reference], samples,
                   host_scale(stats.calibration_ns));
    }
    pass.reps.push_back(std::move(stats));
    const std::size_t done = pass.reps.size();
    if (done >= max_reps) break;
    if (done < min_reps) continue;
    if (now_ns() - begin >= budget_ns) break;
    if (traced && tracer.span_count() >= kMaxPassSpans) break;
  }
  pass.wall_ns = now_ns() - begin;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  pass.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  tracer.set_enabled(false);
  if (traced) {
    pass.spans = tracer.collect();
    tracer.clear();
  }
  return pass;
}

namespace {

/// A repetition's process CPU time at nominal host speed.
double scaled_cpu_ns(const RepStats& r) {
  return static_cast<double>(r.cpu_ns) * host_scale(r.calibration_ns);
}

/// Marks one repetition per reference seed the pass visited: of that seed's
/// visits, the one with the median scaled CPU time (the lower middle of an
/// even count). A burst of host interference that slows a minority of visits
/// then moves no figure, while a seed whose cells are slow on every visit
/// still counts in full, and every seed counts once however often the loop
/// came round to it.
std::vector<bool> median_reps(const PassResult& pass) {
  std::map<std::uint64_t, std::vector<std::size_t>> by_seed;
  for (std::size_t i = 0; i < pass.reps.size(); ++i) {
    by_seed[pass.reps[i].reference].push_back(i);
  }
  std::vector<bool> chosen(pass.reps.size(), false);
  for (auto& [reference, visits] : by_seed) {
    std::sort(visits.begin(), visits.end(), [&](std::size_t a, std::size_t b) {
      return scaled_cpu_ns(pass.reps[a]) < scaled_cpu_ns(pass.reps[b]);
    });
    chosen[visits[(visits.size() - 1) / 2]] = true;
  }
  return chosen;
}

}  // namespace

double cells_per_second(const PassResult& pass) {
  const std::vector<bool> chosen = median_reps(pass);
  double cells = 0;
  double cpu = 0;
  for (std::size_t i = 0; i < pass.reps.size(); ++i) {
    if (!chosen[i]) continue;
    cells += static_cast<double>(pass.reps[i].cells);
    cpu += scaled_cpu_ns(pass.reps[i]);
  }
  return cpu > 0 ? cells * 1e9 / cpu : 0.0;
}

double cells_per_wall_second(const PassResult& pass) {
  double cells = 0;
  double wall = 0;
  for (const RepStats& r : pass.reps) {
    cells += static_cast<double>(r.cells);
    wall += static_cast<double>(r.setup_ns + r.run_ns);
  }
  return wall > 0 ? cells * 1e9 / wall : 0.0;
}

std::vector<double> cell_medians_us(const PassResult& pass) {
  std::vector<double> out;
  std::vector<double> visits;
  for (const auto& [reference, times] : pass.cell_times) {
    for (std::size_t cell = 0; cell * kVisitsKept < times.ns.size(); ++cell) {
      visits.clear();
      for (std::uint32_t v = 0; v < kVisitsKept; ++v) {
        const std::uint32_t ns = times.ns[cell * kVisitsKept + v];
        if (ns != 0) visits.push_back(static_cast<double>(ns) / kNsPerUs);
      }
      if (!visits.empty()) out.push_back(median(visits));
    }
  }
  return out;
}

void end_to_end_values(const PassResult& pass, MetricValues& out) {
  out["cells_per_s"] = cells_per_second(pass);
  std::vector<double> cells = cell_medians_us(pass);
  out["cell_p50_us"] = percentile(cells, 0.5);
  out["cell_p99_us"] = percentile(cells, 0.99);
  out["peak_rss_mb"] = pass.peak_rss_mb;
}

void layer_values(const std::map<std::string, PassResult>& traced,
                  const std::map<std::string, PassResult>& single_worker,
                  MetricValues& out) {
  for (const char* name : {"testbed_sweep", "conformance_matrix"}) {
    const PassResult* pass = find_pass(traced, name);
    if (pass == nullptr) continue;
    const std::string w = name;
    out["campaign.spec_gen_us." + w] = mean_self_us(pass->spans, SpanName::kSpecAt);
    out["campaign.sink_us." + w] = mean_self_us(pass->spans, SpanName::kSinkCell);
    std::size_t high_water = 0;
    double run_ns = 0;
    for (const RepStats& r : pass->reps) {
      high_water = std::max(high_water, r.reorder_high_water);
      run_ns += static_cast<double>(r.run_ns) * std::max(1, r.workers);
    }
    out["campaign.reorder_high_water." + w] = static_cast<double>(high_water);
    double busy = 0;
    for (const CellSample& s : pass->samples) busy += static_cast<double>(s.dur_ns);
    out["campaign.worker_busy_share." + w] = run_ns > 0 ? busy / run_ns : 0.0;

    const PassResult* single = find_pass(single_worker, name);
    if (single == nullptr) continue;
    double allocs = 0;
    double leases = 0;
    double reuses = 0;
    for (const CellSample& s : single->samples) {
      allocs += static_cast<double>(s.allocs);
      leases += s.leases;
      reuses += s.reuses;
    }
    const double n = static_cast<double>(single->samples.size());
    out["simnet.allocs_per_cell." + w] = n > 0 ? allocs / n : 0.0;
    out["simnet.pool_reuse_share." + w] = leases > 0 ? reuses / leases : 0.0;
  }

  if (const PassResult* pass = find_pass(traced, "testbed_sweep")) {
    const char* kinds[] = {"cad", "rd", "addrsel"};
    for (std::uint16_t cls = 0; cls < 3; ++cls) {
      std::vector<double> us = durations_us(
          pass->samples, [cls](const CellSample& s) { return s.cls == cls; });
      const std::string base = std::string{"testbed.cell_us."} + kinds[cls];
      out[base + ".p50"] = percentile(us, 0.5);
      out[base + ".p99"] = percentile(us, 0.99);
    }
  }
  if (const PassResult* pass = find_pass(traced, "long_worlds")) {
    const char* names[] = {"webtool.repetition_us", "resolverlab.cell_us"};
    for (std::uint16_t cls = 0; cls < 2; ++cls) {
      std::vector<double> us = durations_us(
          pass->samples, [cls](const CellSample& s) { return s.cls == cls; });
      out[std::string{names[cls]} + ".p50"] = percentile(us, 0.5);
      out[std::string{names[cls]} + ".p99"] = percentile(us, 0.99);
    }
  }
  if (const PassResult* pass = find_pass(traced, "conformance_matrix")) {
    // Classes 0..10 are the fault kinds, 11 the compound schedules.
    for (std::uint16_t cls = 0; cls <= lazyeye::conformance::kFaultKindCount;
         ++cls) {
      std::vector<double> us = durations_us(
          pass->samples, [cls](const CellSample& s) { return s.cls == cls; });
      const std::string name =
          cls == lazyeye::conformance::kFaultKindCount
              ? "conformance.schedule_cell_us"
              : std::string{"conformance.cell_us."} +
                    lazyeye::conformance::fault_kind_name(
                        static_cast<lazyeye::conformance::FaultKind>(cls));
      out[name] = percentile(us, 0.5);
    }
    for (int family = 0; family < 5; ++family) {
      std::vector<double> us = durations_us(
          pass->samples,
          [family](const CellSample& s) { return s.family == family; });
      out[std::string{"conformance.client_us."} + family_name(family)] =
          percentile(us, 0.5);
    }
  }
  if (const PassResult* pass = find_pass(traced, "fault_hunt")) {
    // Exact counts of the pass's first hunt (a pure function of its seed).
    if (!pass->reps.empty() && pass->reps.front().cells > 0) {
      const RepStats& hunt = pass->reps.front();
      const double n = static_cast<double>(hunt.cells);
      out["search.novel_share"] = static_cast<double>(hunt.corpus) / n;
      out["search.violating_share"] = static_cast<double>(hunt.violating) / n;
      out["search.coverage"] = static_cast<double>(hunt.coverage);
      out["journal.bytes_per_cell"] = static_cast<double>(hunt.journal_bytes) / n;
    }
  }
}

void print_summary(std::FILE* out, const PassResult& pass,
                   const MetricValues& values) {
  std::vector<double> calibration;
  for (const RepStats& r : pass.reps) {
    calibration.push_back(static_cast<double>(r.calibration_ns) / 1e6);
  }
  std::fprintf(out,
               "%s: %zu repetitions, %llu cells on %d workers in %.3f s "
               "(%.6g cells per wall second); calibration kernel median "
               "%.4g ms (nominal %.4g ms)\n",
               pass.workload.c_str(), pass.reps.size(),
               static_cast<unsigned long long>(pass.cells()), pass.workers,
               static_cast<double>(pass.wall_ns) / 1e9,
               cells_per_wall_second(pass), median(calibration),
               kCalibrationNominalNs / 1e6);
  for (const MetricDef& def : end_to_end_metrics()) {
    const auto it = values.find(def.name);
    if (it == values.end()) continue;
    std::fprintf(out, "  %-14s %14.6g %s\n", def.name.c_str(), it->second,
                 def.unit.c_str());
  }
  const std::uint64_t attempted = pass.cells() + pass.failed();
  std::fprintf(out, "  %-14s %14.6g ratio  (%llu of %llu cells)\n", "error_rate",
               attempted == 0 ? 0.0
                              : static_cast<double>(pass.failed()) /
                                    static_cast<double>(attempted),
               static_cast<unsigned long long>(pass.failed()),
               static_cast<unsigned long long>(attempted));
  std::size_t calls = 0;
  for (const auto& [reference, times] : pass.cell_times) {
    calls += static_cast<std::size_t>(
        std::count_if(times.ns.begin(), times.ns.end(),
                      [](std::uint32_t ns) { return ns != 0; }));
  }
  const std::size_t cells = cell_medians_us(pass).size();
  std::fprintf(out,
               "  cell percentiles over %zu cells of %zu reference seeds (%zu "
               "beyond p99), each the median of up to %u visits (%zu executor "
               "calls)\n",
               cells, pass.cell_times.size(), cells / 100, kVisitsKept, calls);
}

void print_breakdown(std::FILE* out, const PassResult& pass,
                     const Workload& workload) {
  double total_ns = 0;
  for (const CellSample& s : pass.samples) total_ns += static_cast<double>(s.dur_ns);
  std::fprintf(out, "\n== %s (traced, %zu repetitions, %zu cells) ==\n",
               pass.workload.c_str(), pass.reps.size(), pass.samples.size());

  const auto table = [&](const char* title, auto key_of, auto label_of,
                         int keys) {
    std::fprintf(out, "%-20s %9s %11s %11s %11s %8s\n", title, "cells",
                 "mean_us", "p50_us", "p99_us", "share");
    for (int key = 0; key < keys; ++key) {
      std::vector<double> us;
      double sum = 0;
      for (const CellSample& s : pass.samples) {
        if (key_of(s) != key) continue;
        us.push_back(static_cast<double>(s.dur_ns) / kNsPerUs);
        sum += static_cast<double>(s.dur_ns);
      }
      if (us.empty()) continue;
      const double mean = sum / kNsPerUs / static_cast<double>(us.size());
      const std::size_t n = us.size();
      const double p50 = percentile(us, 0.5);
      const double p99 = percentile(us, 0.99);
      std::fprintf(out, "%-20s %9zu %11.1f %11.1f %11.1f %7.1f%%\n",
                   label_of(key).c_str(), n, mean, p50, p99,
                   total_ns > 0 ? 100.0 * sum / total_ns : 0.0);
    }
  };
  int classes = 0;
  for (const CellSample& s : pass.samples) classes = std::max(classes, s.cls + 1);
  table("class", [](const CellSample& s) { return static_cast<int>(s.cls); },
        [&](int key) {
          return workload.class_name(static_cast<std::uint16_t>(key));
        },
        classes);
  if (pass.workload == "conformance_matrix") {
    // The known outlier: dns-corrupt against the other fault kinds.
    std::vector<double> other_mean;
    std::vector<double> other_p50;
    double corrupt_mean = 0;
    double corrupt_p50 = 0;
    for (int kind = 0; kind < lazyeye::conformance::kFaultKindCount; ++kind) {
      std::vector<double> us = durations_us(
          pass.samples, [kind](const CellSample& s) { return s.cls == kind; });
      if (us.empty()) continue;
      double sum = 0;
      for (const double v : us) sum += v;
      const double mean = sum / static_cast<double>(us.size());
      const double p50 = percentile(us, 0.5);
      if (workload.class_name(static_cast<std::uint16_t>(kind)) == "dns-corrupt") {
        corrupt_mean = mean;
        corrupt_p50 = p50;
      } else {
        other_mean.push_back(mean);
        other_p50.push_back(p50);
      }
    }
    const double mean_base = median(other_mean);
    const double p50_base = median(other_p50);
    std::fprintf(out,
                 "dns-corrupt vs the median of the other fault kinds: mean "
                 "%.1f / %.1f us = %.1fx, p50 %.1f / %.1f us = %.1fx\n",
                 corrupt_mean, mean_base,
                 mean_base > 0 ? corrupt_mean / mean_base : 0.0, corrupt_p50,
                 p50_base, p50_base > 0 ? corrupt_p50 / p50_base : 0.0);
    table("client family",
          [](const CellSample& s) { return static_cast<int>(s.family); },
          [](int key) { return std::string{family_name(key)}; }, kFamilyCount);
  }

  // Self time per span name: where the traced wall time went.
  const std::vector<std::int64_t> self = self_times(pass.spans);
  std::vector<double> self_ns(kSpanNameCount, 0.0);
  std::vector<std::size_t> count(kSpanNameCount, 0);
  for (std::size_t i = 0; i < pass.spans.size(); ++i) {
    const auto k = static_cast<std::size_t>(pass.spans[i].name);
    self_ns[k] += static_cast<double>(self[i]);
    ++count[k];
  }
  std::fprintf(out, "%-24s %9s %13s %11s\n", "span", "count", "self_ms",
               "self_us/op");
  for (std::size_t k = 0; k < kSpanNameCount; ++k) {
    if (count[k] == 0) continue;
    const std::string_view name = span_name(static_cast<SpanName>(k));
    std::fprintf(out, "%-24.*s %9zu %13.3f %11.2f\n",
                 static_cast<int>(name.size()), name.data(), count[k],
                 self_ns[k] / 1e6,
                 self_ns[k] / kNsPerUs / static_cast<double>(count[k]));
  }

  std::vector<const CellSample*> slowest;
  for (const CellSample& s : pass.samples) slowest.push_back(&s);
  const std::size_t top = std::min<std::size_t>(5, slowest.size());
  std::partial_sort(slowest.begin(), slowest.begin() + top, slowest.end(),
                    [](const CellSample* a, const CellSample* b) {
                      return a->dur_ns > b->dur_ns;
                    });
  std::fprintf(out, "slowest cells:\n");
  for (std::size_t i = 0; i < top; ++i) {
    const CellSample& s = *slowest[i];
    const std::uint64_t reference =
        s.rep < pass.reps.size() ? pass.reps[s.rep].reference : 0;
    std::fprintf(out, "  %10.1f us  %-18s %s\n",
                 static_cast<double>(s.dur_ns) / kNsPerUs,
                 workload.class_name(s.cls).c_str(),
                 workload.replay(reference, s.cell).c_str());
  }
}

}  // namespace perfbench
