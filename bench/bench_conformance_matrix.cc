// Conformance matrix bench: the differential RFC 8305 campaign — every
// fault kind (control cell first) against every local-testbed client
// profile, two fetches per cell — run through the campaign worker pool at
// 1, 2, 4, and 8 workers. The verdict table each count streams out must be
// BYTE-IDENTICAL: the table doubles as the determinism fingerprint, and the
// bench exits non-zero on the first mismatch.
//
// Each worker count runs on a fresh harness: a harness shares schedule-cell
// records across behaviour classes, so a reused one would time the later
// rows on records the first row left behind.
//
// `--table <path>` writes the 1-worker verdict table (the CI artifact
// uploaded next to perf-smoke-json). `--smoke` shrinks the matrix to three
// profiles and worker counts 1 and 2 — an API/determinism gate, not a
// measurement.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "campaign/registry.h"
#include "campaign/runner.h"
#include "campaign/worker_pool.h"
#include "clients/profiles.h"
#include "conformance/checker.h"
#include "conformance/schedule.h"

using namespace lazyeye;

namespace {

/// Runs `specs` at every worker count, each on a fresh harness and registry,
/// and prints one timing row per count. Returns the first count's verdict
/// table, or nullopt (after reporting) when a later count's table differs.
std::optional<std::string> run_at_worker_counts(
    const char* what, const conformance::ConformanceOptions& options,
    const std::vector<clients::ClientProfile>& profiles,
    const std::vector<campaign::ScenarioSpec>& specs,
    const std::vector<int>& worker_counts, int& violations) {
  std::printf("%8s %12s %12s %12s\n", "workers", "wall [ms]", "cells/sec",
              "violations");
  std::string baseline;
  for (const int workers : worker_counts) {
    const conformance::ConformanceHarness harness{options};
    campaign::Registry<conformance::ConformanceRecord> registry;
    conformance::register_conformance_executor(registry, harness, profiles);
    campaign::RunnerOptions runner_options;
    runner_options.workers = workers;
    runner_options.pool = &campaign::WorkerPool::shared();
    const campaign::CampaignRunner runner{runner_options};

    conformance::VerdictTableSink sink;
    const auto start = std::chrono::steady_clock::now();
    registry.run(runner, specs, sink);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const double seconds = std::chrono::duration<double>(elapsed).count();

    if (workers == worker_counts.front()) {
      baseline = sink.text();
      violations = sink.total_violations();
    } else if (sink.text() != baseline) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: %s at %d workers differs from "
                   "%d-worker baseline\n",
                   what, workers, worker_counts.front());
      return std::nullopt;
    }

    std::printf("%8d %12.1f %12.1f %12d\n", workers, seconds * 1e3,
                specs.size() / seconds, sink.total_violations());
  }
  return baseline;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string table_path;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[a], "--table") == 0 && a + 1 < argc) {
      table_path = argv[++a];
    } else {
      // An unknown flag or a --table without its path would otherwise run
      // the whole matrix and silently write no table.
      std::fprintf(stderr, "usage: %s [--smoke] [--table <path>]\n", argv[0]);
      return 2;
    }
  }

  std::vector<clients::ClientProfile> profiles =
      clients::local_testbed_profiles();
  if (smoke) profiles.resize(3);
  const std::vector<int> worker_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};

  const conformance::ConformanceOptions options{.seed = 1};
  const conformance::ConformanceHarness harness{options};  // builds the specs
  const auto specs = harness.differential_specs(profiles);

  std::printf("Conformance matrix%s: %zu fault kinds x %zu clients = %zu "
              "cells (2 fetches each)\n\n",
              smoke ? " (smoke mode)" : "",
              conformance::all_fault_kinds().size(), profiles.size(),
              specs.size());
  int baseline_violations = 0;
  const std::optional<std::string> baseline_table =
      run_at_worker_counts("verdict table", options, profiles, specs,
                           worker_counts, baseline_violations);
  if (!baseline_table) return 1;

  std::printf("\nAll worker counts produced a byte-identical verdict table "
              "(%d violations across %zu cells).\n",
              baseline_violations, specs.size());

  // Compound-schedule cells through the same pool: generated FaultSchedules
  // (multi-entry, windowed, triggered) against every profile, with the same
  // byte-identity requirement across worker counts.
  const std::size_t schedule_count = smoke ? 8 : 24;
  std::vector<campaign::ScenarioSpec> schedule_specs;
  schedule_specs.reserve(schedule_count * profiles.size());
  for (std::uint32_t index = 0; index < schedule_count; ++index) {
    const conformance::FaultSchedule schedule =
        conformance::FaultSchedule::generate(1, 0xFA, index);
    for (const auto& profile : profiles) {
      schedule_specs.push_back(harness.schedule_spec(profile, schedule, 2));
      schedule_specs.back().id = schedule_specs.size() - 1;
    }
  }

  std::printf("\nSchedule cells: %zu generated schedules x %zu clients = %zu "
              "cells (2 fetches each)\n\n",
              schedule_count, profiles.size(), schedule_specs.size());
  int schedule_violations = 0;
  if (!run_at_worker_counts("schedule-cell verdict table", options, profiles,
                            schedule_specs, worker_counts,
                            schedule_violations)) {
    return 1;
  }

  std::printf("\nAll worker counts produced a byte-identical schedule-cell "
              "table (%d violations across %zu cells).\n",
              schedule_violations, schedule_specs.size());

  if (!table_path.empty()) {
    std::FILE* f = std::fopen(table_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", table_path.c_str());
      return 1;
    }
    std::fwrite(baseline_table->data(), 1, baseline_table->size(), f);
    std::fclose(f);
    std::printf("Wrote %s\n", table_path.c_str());
  }
  return 0;
}
