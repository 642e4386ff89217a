#!/usr/bin/env python3
"""Compares two sets of benchmark runs (parent vs change).

    python3 perfbench/compare.py parent.log change.log

Each argument is a file, or a directory of files, holding the captured
standard output of perfbench/run.py runs: any number of runs, of any
workloads and seeds.  Run the same seeds on both sides, alternating which
side runs first.

For every workload and metric the report gives each side's median and
quartiles, the ratio change/parent of the medians, and the pairs the change
won (runs paired by seed; ties count for neither side).  The verdict on an
end-to-end metric follows the benchmark's rules:

  unresolved  the parent's own spread (quartile distance / median) exceeds
              the metric's bound, and not every change run beats every
              parent run
  worse       the change's median is worse than the parent's by more than
              the bound in BENCHMARK.json
  better      the change won at least 9 in 10 pairs and the medians differ
              by more than the parent's quartile distance
  same        none of the above

A workload whose share of failed operations rises, or that has a run whose
correctness gate failed, is flagged.  The exit code is 1 when any metric is
worse or any flag is raised.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_runs(text):
    """Records of every run in `text`: a `provenance:` line followed by the
    run's result object."""
    runs = []
    prov = None
    for line in text.splitlines():
        if line.startswith("provenance: "):
            prov = json.loads(line[len("provenance: "):])
        elif line.startswith("{") and prov is not None:
            result = json.loads(line)
            runs.append({
                "workload": prov["workload"],
                "seed": prov["seed"],
                "trace": prov.get("trace", "0") == "1",
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"]
                            for k, v in result["metrics"].items()},
            })
            prov = None
    return runs


def load_runs(path):
    p = Path(path)
    files = sorted(f for f in p.rglob("*") if f.is_file()) if p.is_dir() \
        else [p]
    runs = []
    for f in files:
        runs += parse_runs(f.read_text(errors="replace"))
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_wins(parent, change, higher_better):
    """(wins, pairs) over runs paired by seed, in order of appearance."""
    by_seed = {}
    for seed, v in parent:
        by_seed.setdefault(seed, []).append(v)
    wins = pairs = 0
    for seed, v in change:
        if not by_seed.get(seed):
            continue
        p = by_seed[seed].pop(0)
        pairs += 1
        if (v > p) if higher_better else (v < p):
            wins += 1
    return wins, pairs


def verdict(parent, change, higher_better, bound):
    """The verdict for one metric; `parent` and `change` are lists of
    (seed, value)."""
    pv = [v for _, v in parent]
    cv = [v for _, v in change]
    p1, pm, p3 = quartiles(pv)
    _, cm, _ = quartiles(cv)
    wins, pairs = pair_wins(parent, change, higher_better)
    all_better = (min(cv) > max(pv)) if higher_better else (max(cv) < min(pv))
    if bound is None:
        return None, wins, pairs
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    worse_by = ((pm - cm) if higher_better else (cm - pm)) / abs(pm) \
        if pm else 0.0
    if spread > bound and not all_better:
        return "unresolved", wins, pairs
    if worse_by > bound:
        return "worse", wins, pairs
    gained = (cm > pm) if higher_better else (cm < pm)
    if pairs and wins >= 0.9 * pairs and gained and abs(cm - pm) > p3 - p1:
        return "better", wins, pairs
    return "same", wins, pairs


def compare(parent_runs, change_runs, spec):
    """Report lines and whether anything regressed."""
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines = []
    bad = False
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        p_runs = [r for r in parent_runs if r["workload"] == w]
        c_runs = [r for r in change_runs if r["workload"] == w]
        if not p_runs or not c_runs:
            continue
        lines.append(f"== {w}: {len(p_runs)} parent runs, "
                     f"{len(c_runs)} change runs")
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            broken = [r["seed"] for r in runs if not r["correct"]]
            if broken:
                bad = True
                lines.append(f"  FLAG: {side} failed its correctness gate "
                             f"on seeds {', '.join(broken)}")
        ratios = []
        for runs in (p_runs, c_runs):
            attempted = sum(r["attempted"] for r in runs)
            ratios.append(sum(r["failed"] for r in runs) / attempted
                          if attempted else 0.0)
        lines.append(f"  failed_ops_ratio: parent {ratios[0]:.6g}, "
                     f"change {ratios[1]:.6g}")
        if ratios[1] > ratios[0]:
            bad = True
            lines.append("  FLAG: failed_ops_ratio rose")
        lines.append(f"  {'metric':32s} {'parent median [q1, q3]':>34s} "
                     f"{'change median [q1, q3]':>34s} {'ratio':>8s} "
                     f"{'won':>6s}  verdict")
        names = [n for n in defs
                 if any(n in r["metrics"] for r in p_runs)
                 and any(n in r["metrics"] for r in c_runs)]
        for name in names:
            d = defs[name]
            pv = [(r["seed"], r["metrics"][name]) for r in p_runs
                  if name in r["metrics"]]
            cv = [(r["seed"], r["metrics"][name]) for r in c_runs
                  if name in r["metrics"]]
            v, wins, pairs = verdict(pv, cv, d["better"] == "higher",
                                     d.get("bound"))
            p1, pm, p3 = quartiles([x for _, x in pv])
            c1, cm, c3 = quartiles([x for _, x in cv])
            ratio = f"{cm / pm:8.4f}" if pm else f"{'-':>8s}"
            lines.append(
                f"  {name:32s} {f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':>34s} "
                f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':>34s} {ratio} "
                f"{f'{wins}/{pairs}':>6s}  {v or ''} {d['unit']}")
            bad |= v == "worse"
    return lines, bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--spec", default=str(HERE.parent / "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    lines, bad = compare(load_runs(args.parent), load_runs(args.change),
                         spec)
    if not lines:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
