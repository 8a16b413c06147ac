#!/usr/bin/env python3
"""Paired perfbench runs of two source trees, written to a committed ledger.

Runs ``perfbench/run.py --trace 0`` of a *parent* tree and of a *change*
tree, each for the ``run_seconds`` the change tree's ``BENCHMARK.json``
declares, as N alternating pairs per workload and seed (the first of
each pair alternates between the trees, so drift on the host hits both
alike), then records, per workload, seed and end-to-end metric: its unit and
direction, its bound from ``BENCHMARK.json``, each side's median and
quartiles and every run's value, the pairs the change won, and the
rounds.  Each entry also carries the conditions it was measured under -
the host, the Python version, the ``.pyc`` condition and the seconds per
run - since cold-start numbers mean nothing without them and several
invocations build one ledger.  It prints the delta table a performance
claim cites::

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workloads engine --seeds 7 --pairs 10 --out BENCH_24.json

Each tree runs its own ``perfbench/run.py`` on its own sources, so
perfbench stays the referee.  Results for other workloads or seeds
already in ``--out`` are kept: several invocations build one ledger.
Two copies of one tree should land every metric inside its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def benchmark(tree: Path) -> dict:
    """The benchmark ``tree`` declares: its ``run_seconds`` and its
    end-to-end metrics (name, unit, better, bound)."""
    return json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run of ``tree``: its final JSON line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    try:
        outcome = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"bench_pairs: {tree}: no result from {workload} "
                         f"seed {seed}:\n{result.stderr[-2000:]}") from None
    if not outcome["correct"]:
        problems = [line for line in lines if "FAILED" in line]
        raise SystemExit(f"bench_pairs: {tree}: {workload} seed {seed} was "
                         f"not correct: {problems}")
    return {name: entry["value"] for name, entry in outcome["metrics"].items()}


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's entry: both sides, the relative median delta (positive
    when the change is better), the pairs the change won."""
    sign = 1 if metric["better"] == "higher" else -1
    before, after = summary(parent), summary(change)
    base = before["median"]
    delta = sign * (after["median"] - base) / base if base else 0.0
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    return {"metric": metric["name"], "unit": metric["unit"],
            "better": metric["better"], "bound": metric["bound"],
            "rounds": len(parent), "parent": before, "change": after,
            "delta": delta, "pairs_won": won,
            "inside_bound": delta >= -metric["bound"]}


def conditions() -> dict:
    """Host, interpreter and bytecode-cache condition of this invocation's
    runs."""
    no_pyc = bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    return {"host": f"{platform.node()} ({platform.machine()}, "
                    f"{os.cpu_count()} CPUs, {platform.system()} {platform.release()})",
            "python": platform.python_version(),
            "pyc": ("PYTHONDONTWRITEBYTECODE set: every fresh interpreter "
                    "compiles what it imports" if no_pyc else
                    "bytecode caching on: fresh interpreters reuse .pyc files")}


def table(entries: list[dict]) -> str:
    """The delta table: one row per workload, seed and metric."""
    rows = [f"{'workload':8} {'seed':>4} {'metric':22} {'parent median [q1, q3]':>30} "
            f"{'change median [q1, q3]':>30} {'delta':>7} {'bound':>6} {'won':>6}"]
    for entry in entries:
        sides = []
        for side in ("parent", "change"):
            s = entry[side]
            sides.append(f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]")
        flag = "" if entry["inside_bound"] else "  OUTSIDE BOUND"
        rows.append(f"{entry['workload']:8} {entry['seed']:>4} {entry['metric']:22} "
                    f"{sides[0]:>30} {sides[1]:>30} {entry['delta']:+7.1%} "
                    f"{entry['bound']:6.0%} {entry['pairs_won']:>2}/{entry['rounds']:<3}{flag}")
    return "\n".join(rows)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="tools/bench_pairs.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="source tree the change is measured against")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="source tree under test (default: this one)")
    parser.add_argument("--workloads", default="engine,cosim,fleet",
                        help="comma-separated perfbench workloads")
    parser.add_argument("--seeds", default="7", help="comma-separated seeds")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating parent/change pairs per workload and seed")
    parser.add_argument("--out", type=Path, required=True,
                        help="ledger JSON to write (entries of other runs are kept)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = benchmark(trees["change"])
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    ledger = {"results": []}
    if args.out.exists():
        ledger = json.loads(args.out.read_text(encoding="utf-8"))
    measured_under = {**conditions(), "seconds": seconds}
    fresh = []
    for workload in args.workloads.split(","):
        for seed in map(int, args.seeds.split(",")):
            runs = {"parent": [], "change": []}
            for round_ in range(args.pairs):
                order = ("parent", "change") if round_ % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(trees[side], workload, seed, seconds))
                print(f"  {workload} seed {seed}: pair {round_ + 1}/{args.pairs}",
                      file=sys.stderr)
            for metric in metrics:
                entry = compare(metric, [r[metric["name"]] for r in runs["parent"]],
                                [r[metric["name"]] for r in runs["change"]])
                fresh.append({"workload": workload, "seed": seed, **entry,
                              **measured_under})
    done = {(e["workload"], e["seed"], e["metric"]) for e in fresh}
    kept = [e for e in ledger["results"]
            if (e["workload"], e["seed"], e["metric"]) not in done]
    ledger = {"command": "perfbench/run.py --trace 0", "results": kept + fresh}
    args.out.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(table(fresh))
    return 0 if all(entry["inside_bound"] for entry in fresh) else 1


if __name__ == "__main__":
    raise SystemExit(main())
