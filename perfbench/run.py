#!/usr/bin/env python3
"""Build and run the lazyeye benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
      One run of workload W. The last line of stdout is the JSON result
      {"correct", "attempted", "failed", "metrics"}; --trace 0 gives the
      end-to-end metrics, --trace 1 the per-layer ledger.

  python3 perfbench/run.py --all [--seed N] [--seconds T] [--results DIR]
      Every workload in turn, end-to-end metrics printed by name with units;
      exits non-zero on any output-digest or paper-anchor mismatch.

  python3 perfbench/run.py --self-test
      The benchmark's own tests, and a check that the metrics the driver
      emits are exactly the ones BENCHMARK.json declares, in its order.

  python3 perfbench/run.py --record-digests
      Re-records perfbench/digests.txt (only after a change that is meant to
      alter simulated output).

--results DIR also stores each run's JSON result as
DIR/<workload>-seed<N>-trace<T>.json for perfbench/compare.py.

The program is built from source into $CARGO_TARGET_DIR (default
.bench_build) with CMake, Release flags.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ["testbed_sweep", "long_worlds", "conformance_matrix", "fault_hunt"]
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    cmd = ["cmake", "--build", str(out), "--target", target, "-j", jobs]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        return None
    return out / target


def run_driver(binary, args, echo=True):
    """Runs the driver; returns (exit code, parsed last-line JSON or None)."""
    cmd = [str(binary), "--digests", "perfbench/digests.txt",
           "--out-dir", ".perfbench"] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("lazyeye_perfbench timed out", file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def save(results_dir, workload, seed, trace, result):
    if results_dir is None or result is None:
        return
    path = Path(results_dir)
    path.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{trace}.json"
    (path / name).write_text(json.dumps(result) + "\n")


def run_all(binary, seed, seconds, results_dir):
    failed = False
    rows = []
    for workload in WORKLOADS:
        print(f"--- {workload}", file=sys.stderr)
        code, result = run_driver(
            binary, ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"], echo=False)
        save(results_dir, workload, seed, 0, result)
        if code != 0 or result is None or not result.get("correct"):
            failed = True
            print(f"{workload}: output check FAILED (exit {code})",
                  file=sys.stderr)
        if result is None:
            continue
        for name, metric in result["metrics"].items():
            rows.append((workload, name, metric["value"], metric["unit"]))
        attempted = result["attempted"]
        rows.append((workload, "error_rate", result["failed"] / attempted,
                     "ratio"))
    for workload, name, value, unit in rows:
        print(f"{workload:<20} {name:<14} {value:>16.6g} {unit}")
    return 1 if failed else 0


def benchmark_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [w["name"] for w in spec["workloads"]])


def self_test():
    problems = []
    test = build("perfbench_test")
    if test is None or subprocess.run([str(test)], cwd=ROOT).returncode != 0:
        problems.append("perfbench_test failed")
    binary = build("lazyeye_perfbench")
    if binary is None:
        return 1
    listed = subprocess.run([str(binary), "--list-metrics"], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True).stdout.split("\n")
    driver_e2e = [tuple(l.split()[1:]) for l in listed if l.startswith("end_to_end ")]
    driver_layer = [tuple(l.split()[1:]) for l in listed if l.startswith("per_layer ")]
    e2e, layer, workloads = benchmark_metrics()
    if driver_e2e != e2e:
        problems.append("end_to_end metrics differ from BENCHMARK.json")
    if driver_layer != layer:
        problems.append("per_layer metrics differ from BENCHMARK.json")
    if workloads != WORKLOADS:
        problems.append("workloads differ from BENCHMARK.json")
    for workload in WORKLOADS:
        for trace, want in ((0, e2e), (1, layer)):
            if trace == 1 and workload != "testbed_sweep":
                continue  # one traced run covers every layer
            code, result = run_driver(
                binary, ["--workload", workload, "--seed", "5", "--seconds",
                         "1.5", "--trace", str(trace)], echo=False)
            keys = list(result["metrics"]) if result else None
            if code != 0 or not result or not result["correct"]:
                problems.append(f"{workload} trace {trace}: run failed")
            elif keys != [name for name, _, _ in want]:
                problems.append(f"{workload} trace {trace}: metric keys differ")
    for p in problems:
        print("SELF-TEST FAILED:", p, file=sys.stderr)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--results")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    binary = build("lazyeye_perfbench")
    if binary is None:
        print("build failed", file=sys.stderr)
        return 1
    if args.record_digests:
        cmd = [str(binary), "--record-digests", "--out-dir", ".perfbench",
               "--digests-out", "perfbench/digests.txt"]
        return subprocess.run(cmd, cwd=ROOT).returncode
    if args.all:
        return run_all(binary, args.seed, args.seconds, args.results)
    if args.workload is None:
        parser.error("--workload, --all, --self-test or --record-digests")
    code, result = run_driver(
        binary, ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)])
    save(args.results, args.workload, args.seed, args.trace, result)
    return code


if __name__ == "__main__":
    sys.exit(main())
