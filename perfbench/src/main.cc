// lazyeye_perfbench: the benchmark driver.
//
//   lazyeye_perfbench --workload W --seed N --seconds T --trace 0|1
//                     [--digests FILE] [--out-dir DIR]
//   lazyeye_perfbench --record-digests [--digests-out FILE]
//   lazyeye_perfbench --list-metrics
//   lazyeye_perfbench --setup-probe W
//
// --trace 0 measures W for T seconds with tracing off and prints the
// end-to-end metrics. --trace 1 prints the per-layer ledger: a traced pass
// of W and the same repetitions untraced (their cells/s ratio is the tracing
// overhead), shorter traced passes of the other workloads, single-worker
// passes for exact allocation and pool counts, and the layer probes; spans
// go to DIR/spans.tsv. Either way every repetition's output digest is checked
// against FILE, a slice of the matrix must give the same output at 1 and at
// nproc workers, and the last line of stdout is the JSON result. The exit
// code is non-zero when any output check fails.
//
// --setup-probe W runs one repetition of W in a fresh process and prints the
// process's CPU time at which its first cell was claimed; --trace 0 starts
// it kSetupProbes times and reports setup_s, the median of those times.
//
// The end-to-end times are CPU time scaled to nominal host speed by the
// calibration kernel (calibrate.h), run after every repetition and before
// every set-up probe.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.h"
#include "metrics.h"
#include "probes.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  int trace = -1;
  std::string digests = "perfbench/digests.txt";
  std::string out_dir = ".perfbench";
  bool record = false;
  std::string digests_out;
  bool list = false;
  bool setup_probe = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: lazyeye_perfbench --workload W --seed N --seconds T "
               "--trace 0|1 [--digests FILE] [--out-dir DIR]\n"
               "       lazyeye_perfbench --record-digests [--digests-out FILE]\n"
               "       lazyeye_perfbench --list-metrics\n"
               "workloads: testbed_sweep long_worlds conformance_matrix "
               "fault_hunt\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    const char* value = a + 1 < argc ? argv[a + 1] : nullptr;
    char* end = nullptr;
    if (flag == "--record-digests") {
      args.record = true;
    } else if (flag == "--list-metrics") {
      args.list = true;
    } else if (flag == "--setup-probe" && value != nullptr) {
      args.setup_probe = true;
      args.workload = value;
      ++a;
    } else if (value == nullptr) {
      return false;
    } else if (flag == "--workload") {
      args.workload = value;
      ++a;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0' || *value == '\0') return false;
      ++a;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 600) return false;
      ++a;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] - '0';
      ++a;
    } else if (flag == "--digests") {
      args.digests = value;
      ++a;
    } else if (flag == "--digests-out") {
      args.digests_out = value;
      ++a;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
      ++a;
    } else {
      return false;
    }
  }
  if (args.record || args.list || args.setup_probe) return true;
  return !args.workload.empty() && args.seconds > 0 && args.trace >= 0;
}

int hardware_workers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// Workers of the timed (--trace 0) loop and of the set-up probes. One
/// thread leaves the host's other cores to its other tenants; more threads
/// than idle cores would time the host's scheduler, not the program. The
/// traced run and the worker-invariance check use nproc workers.
constexpr int kTimedWorkers = 1;

std::uint64_t to_ns(double seconds) {
  return static_cast<std::uint64_t>(seconds * 1e9);
}

/// One repetition per reference seed of every workload, digests to `out`.
int record_digests(const std::string& path, const std::string& tmp_dir) {
  std::ostringstream text;
  text << "# lazyeye_perfbench --record-digests: <workload> <reference index> "
          "<output digest>\n";
  for (const std::string& name : workload_names()) {
    const auto workload = make_workload(name, tmp_dir);
    for (std::uint64_t k = 0; k < kReferenceSeeds; ++k) {
      const RepStats stats = workload->run(k, hardware_workers(), 0);
      for (const std::string& e : stats.errors) {
        std::fprintf(stderr, "%s %llu: %s\n", name.c_str(),
                     static_cast<unsigned long long>(k), e.c_str());
      }
      if (!stats.errors.empty() || stats.failed != 0) return 1;
      text << name << ' ' << k << ' ' << stats.digest << '\n';
    }
    (void)take_samples();
    std::fprintf(stderr, "recorded %s\n", name.c_str());
  }
  if (path.empty()) {
    std::fputs(text.str().c_str(), stdout);
    return 0;
  }
  std::ofstream out{path};
  out << text.str();
  return out ? 0 : 1;
}

/// Output of a slice at 1 worker and at nproc workers must agree. The
/// check runs in a child process, forked before this process starts any
/// thread, so the memory its worker threads retain never shows in the
/// measured process's peak RSS.
void check_worker_invariance(const std::string& name, const std::string& tmp_dir,
                             std::uint64_t reference,
                             std::vector<std::string>& errors) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t child = ::fork();
  if (child == 0) {
    int code = 1;
    try {
      const auto workload = make_workload(name, tmp_dir);
      const std::string one = workload->slice_output(reference, 1);
      const std::string many =
          workload->slice_output(reference, hardware_workers());
      code = !one.empty() && one == many ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "slice check: %s\n", e.what());
    }
    std::fflush(stderr);
    ::_exit(code);
  }
  int status = 0;
  if (child < 0 || ::waitpid(child, &status, 0) != child || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    errors.push_back(name + ": slice output differs between 1 and " +
                     std::to_string(hardware_workers()) + " workers");
  }
}

/// Processes started to measure setup_s; their median is reported.
constexpr int kSetupProbes = 9;

/// The --setup-probe child: one repetition of `name`, then the process's
/// CPU time at its first claim on stdout.
int setup_probe(const std::string& name, const std::string& tmp_dir) {
  const auto workload = make_workload(name, tmp_dir);
  if (workload == nullptr) return usage();
  const RepStats stats = workload->run(0, kTimedWorkers, 0);
  std::printf("%llu\n", static_cast<unsigned long long>(stats.claim_cpu_ns));
  return stats.errors.empty() && stats.claim_cpu_ns != 0 ? 0 : 1;
}

/// CPU seconds a `--setup-probe` process spends from its start to its first
/// claimed cell: exec and static start, profiles, harness or hunt
/// construction, stream build and worker-pool start; scaled to nominal host
/// speed by a calibration reading taken just before (host_speed()). Waits
/// (for a core, for the disk) do not count. Returns a negative value on
/// failure.
double spawn_setup_probe(const std::string& name, const std::string& out_dir) {
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  std::string self = "/proc/self/exe";
  std::string probe_flag = "--setup-probe";
  std::string workload = name;
  std::string dir_flag = "--out-dir";
  std::string dir = out_dir;
  char* argv[] = {self.data(), probe_flag.data(), workload.data(),
                  dir_flag.data(), dir.data(), nullptr};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t child = 0;
  const double speed = host_speed(calibration_ns());
  const int rc =
      ::posix_spawn(&child, self.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string text;
  char buf[64];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  if (rc != 0) return -1;
  int status = 0;
  if (::waitpid(child, &status, 0) != child || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return -1;
  }
  char* end = nullptr;
  const unsigned long long claim_cpu = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || claim_cpu == 0) return -1;
  return static_cast<double>(claim_cpu) / 1e9 * speed;
}

void append_errors(const PassResult& pass, std::vector<std::string>& errors) {
  errors.insert(errors.end(), pass.errors.begin(), pass.errors.end());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  const std::string tmp_dir = args.out_dir + "/tmp";

  if (args.list) {
    for (const MetricDef& def : end_to_end_metrics()) {
      std::printf("end_to_end %s %s %s\n", def.name.c_str(), def.unit.c_str(),
                  def.better.c_str());
    }
    for (const MetricDef& def : per_layer_metrics()) {
      std::printf("per_layer %s %s %s\n", def.name.c_str(), def.unit.c_str(),
                  def.better.c_str());
    }
    return 0;
  }
  try {
    if (args.record) return record_digests(args.digests_out, tmp_dir);
    if (args.setup_probe) return setup_probe(args.workload, tmp_dir);

    std::ifstream digest_file{args.digests};
    if (!digest_file) {
      std::fprintf(stderr, "cannot read %s\n", args.digests.c_str());
      return 2;
    }
    const std::string digest_text{std::istreambuf_iterator<char>{digest_file},
                                  std::istreambuf_iterator<char>{}};
    Digests digests;
    std::string error;
    if (!digests.parse(digest_text, error)) {
      std::fprintf(stderr, "%s: %s\n", args.digests.c_str(), error.c_str());
      return 2;
    }
    auto workload = make_workload(args.workload, tmp_dir);
    if (workload == nullptr) return usage();
    std::filesystem::create_directories(args.out_dir);

    const int workers = args.trace == 0 ? kTimedWorkers : hardware_workers();
    const std::uint64_t start = start_index(args.seed);
    std::vector<std::string> errors;
    check_worker_invariance(args.workload, tmp_dir, start, errors);
    (void)calibration_ns();  // sets its buffers up before anything is timed
    std::vector<double> setup_times;
    for (int i = 0; args.trace == 0 && i < kSetupProbes; ++i) {
      const double seconds = spawn_setup_probe(args.workload, args.out_dir);
      if (seconds < 0) {
        errors.push_back(args.workload + ": setup probe process failed");
        break;
      }
      setup_times.push_back(seconds);
    }
    // Warm-up: lazy set-up, pool threads and first-use growth happen here,
    // not in the measured loop (its output is checked all the same).
    append_errors(run_pass(*workload, digests, start, 0, workers, false, 1, 1),
                  errors);

    MetricValues values;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    const std::vector<MetricDef>* defs = &end_to_end_metrics();
    if (args.trace == 0) {
      const PassResult pass = run_pass(*workload, digests, start,
                                       to_ns(args.seconds), workers, false, 1,
                                       SIZE_MAX);
      append_errors(pass, errors);
      end_to_end_values(pass, values);
      values["setup_s"] = median(setup_times);
      attempted = pass.cells() + pass.failed();
      failed = pass.failed();
      print_summary(stdout, pass, values);
    } else {
      defs = &per_layer_metrics();
      const double third = args.seconds / 3;
      std::map<std::string, PassResult> traced;
      traced[args.workload] = run_pass(*workload, digests, start, to_ns(third),
                                       workers, true, 1, SIZE_MAX);
      // The same repetitions again, untraced: the overhead compares equal
      // work measured back to back.
      const std::size_t reps = traced[args.workload].reps.size();
      const PassResult plain =
          run_pass(*workload, digests, start, 0, workers, false, reps, reps);
      append_errors(plain, errors);
      const double untraced_cps = cells_per_second(plain);
      values["trace.overhead_share"] =
          untraced_cps > 0
              ? 1.0 - cells_per_second(traced[args.workload]) / untraced_cps
              : 0.0;
      for (const std::string& name : workload_names()) {
        if (name == args.workload) continue;
        auto other = make_workload(name, tmp_dir);
        traced[name] = run_pass(*other, digests, start, to_ns(third / 3),
                                workers, true, 1, SIZE_MAX);
      }
      // Exact allocation and pool counts: one repetition on one worker, on
      // a fresh thread so its pools start cold every run.
      std::map<std::string, PassResult> single;
      for (const char* name : {"testbed_sweep", "conformance_matrix"}) {
        auto w = make_workload(name, tmp_dir);
        std::exception_ptr failure;
        std::thread runner{[&] {
          try {
            single[name] = run_pass(*w, digests, start, 0, 1, true, 1, 1);
          } catch (...) {
            failure = std::current_exception();
          }
        }};
        runner.join();
        if (failure) std::rethrow_exception(failure);
      }
      for (const auto& [name, pass] : traced) {
        append_errors(pass, errors);
        attempted += pass.cells() + pass.failed();
        failed += pass.failed();
      }
      for (const auto& [name, pass] : single) append_errors(pass, errors);
      layer_values(traced, single, values);

      const auto& hunt = traced["fault_hunt"];
      const std::vector<std::string> corpus =
          hunt.reps.empty() ? std::vector<std::string>{}
                            : hunt.reps.front().corpus_hex;
      std::string probe_error;
      Tracer::instance().set_enabled(true);
      if (!run_probes(args.seed, corpus, 200000000ULL, values, probe_error)) {
        errors.push_back(probe_error);
      }
      Tracer::instance().set_enabled(false);
      std::vector<SpanRecord> probe_spans = Tracer::instance().collect();

      const std::string spans_path = args.out_dir + "/spans.tsv";
      if (std::FILE* f = std::fopen(spans_path.c_str(), "w")) {
        std::vector<SpanRecord> all;
        for (const auto& [name, pass] : traced) {
          all.insert(all.end(), pass.spans.begin(), pass.spans.end());
        }
        for (const auto& [name, pass] : single) {
          all.insert(all.end(), pass.spans.begin(), pass.spans.end());
        }
        all.insert(all.end(), probe_spans.begin(), probe_spans.end());
        write_tsv(f, all);
        std::fclose(f);
        std::printf("spans: %zu written to %s\n", all.size(), spans_path.c_str());
      } else {
        errors.push_back("cannot write " + spans_path);
      }
      std::printf("tracing overhead on %s: %.2f%% (untraced %.1f, traced %.1f "
                  "cells/s)\n",
                  args.workload.c_str(), 100.0 * values["trace.overhead_share"],
                  untraced_cps, cells_per_second(traced[args.workload]));
      for (const std::string& name : workload_names()) {
        print_breakdown(stdout, traced[name], *make_workload(name, tmp_dir));
      }
      std::printf("\nper-layer ledger:\n");
      for (const MetricDef& def : per_layer_metrics()) {
        const auto it = values.find(def.name);
        if (it == values.end()) continue;
        std::printf("  %-44s %14.6g %s\n", def.name.c_str(), it->second,
                    def.unit.c_str());
      }
    }

    constexpr std::size_t kErrorsShown = 20;
    for (std::size_t i = 0; i < errors.size() && i < kErrorsShown; ++i) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", errors[i].c_str());
    }
    if (errors.size() > kErrorsShown) {
      std::fprintf(stderr, "CHECK FAILED: ... %zu more\n",
                   errors.size() - kErrorsShown);
    }
    std::vector<std::string> missing;
    const std::string line =
        result_json(errors.empty(), std::max<std::uint64_t>(attempted, 1),
                    failed, *defs, values, missing);
    for (const std::string& m : missing) {
      std::fprintf(stderr, "metric not measured: %s\n", m.c_str());
    }
    std::fflush(stderr);
    std::printf("%s\n", line.c_str());
    return errors.empty() && missing.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lazyeye_perfbench: %s\n", e.what());
    return 1;
  }
}
