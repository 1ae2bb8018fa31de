#!/usr/bin/env python3
"""Compare two sets of benchmark results: a parent commit and a change.

  python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the JSON results that `perfbench/run.py --results DIR`
writes, one file per run, named <workload>-seed<N>-trace<T>.json. Measure
both sides with the same benchmark code, run length and seeds, alternating
which side runs first.

For every workload and metric the report gives each side's median and
quartiles, the delta of the medians with the parent median as its base, and
a verdict:

  gain         the change wins at least 9 of 10 seed pairs (ties count for
               neither) and the medians differ by more than the parent's
               interquartile spread
  regression   an end-to-end metric whose median is worse than the parent's
               by more than the bound in BENCHMARK.json
  unresolved   no gain, and the parent's own spread (IQR / median) is wider
               than the bound
  better       as unresolved, except that every change run beats every
               parent run: resolved as no worse, but not a gain
  unchanged    none of the above
  loss         (per-layer metrics, which have no bound) the mirror of gain

The exit code is 1 when any end-to-end metric regresses or any run reported
incorrect output.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["better"], None)
    return metrics


def load_runs(directory):
    """{(workload, trace): {seed: result}} from one result directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*-seed*-trace*.json")):
        stem = path.stem
        workload, rest = stem.rsplit("-seed", 1)
        seed, trace = rest.split("-trace")
        result = json.loads(path.read_text().strip().splitlines()[-1])
        runs.setdefault((workload, int(trace)), {})[int(seed)] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    """Returns (verdict, wins, pairs) for paired per-seed values."""
    sign = 1 if better == "higher" else -1
    pairs = [(p, c) for p, c in zip(parent, change)]
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gap = cmed - pmed
    iqr = pq3 - pq1
    n = len(pairs)
    if n and wins >= 0.9 * n and sign * gap > iqr:
        return "gain", wins, n
    if bound is None:
        if n and losses >= 0.9 * n and -sign * gap > iqr:
            return "loss", wins, n
        return "unchanged", wins, n
    worse = -sign * gap / pmed if pmed else 0.0
    if worse > bound:
        return "regression", wins, n
    spread = iqr / pmed if pmed else 0.0
    if spread > bound:
        beats_all = (min(change) > max(parent) if sign > 0
                     else max(change) < min(parent))
        return ("better" if beats_all else "unresolved"), wins, n
    return "unchanged", wins, n


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    parent_runs = load_runs(sys.argv[1])
    change_runs = load_runs(sys.argv[2])
    failed = False
    for key in sorted(set(parent_runs) & set(change_runs)):
        workload, trace = key
        seeds = sorted(set(parent_runs[key]) & set(change_runs[key]))
        if not seeds:
            continue
        print(f"\n== {workload} (trace {trace}, {len(seeds)} seed pairs) ==")
        print(f"{'metric':<46} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'delta (base)':>24} "
              f"{'wins':>6}  verdict")
        for seed in seeds:
            for side in (parent_runs, change_runs):
                if not side[key][seed].get("correct", False):
                    failed = True
                    print(f"  seed {seed}: a run reported incorrect output")
        names = list(parent_runs[key][seeds[0]]["metrics"])
        for name in names:
            if name not in spec:
                continue
            try:
                parent = [parent_runs[key][s]["metrics"][name]["value"] for s in seeds]
                change = [change_runs[key][s]["metrics"][name]["value"] for s in seeds]
            except KeyError:
                continue
            better, bound = spec[name]
            v, wins, n = verdict(parent, change, better, bound)
            pq1, pmed, pq3 = quartiles(parent)
            cq1, cmed, cq3 = quartiles(change)
            delta = cmed - pmed
            rel = f"{100 * delta / pmed:+.1f}%" if pmed else "n/a"
            print(f"{name:<46} {pmed:>12.5g} [{pq1:.4g}, {pq3:.4g}]".ljust(81) +
                  f" {cmed:>12.5g} [{cq1:.4g}, {cq3:.4g}]".ljust(35) +
                  f" {delta:>+10.4g} ({rel} of {pmed:.4g})".rjust(25) +
                  f" {wins:>2}/{n:<3}  {v}")
            if v == "regression":
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
