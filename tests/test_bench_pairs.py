"""``tools/bench_pairs.py``, loaded by its path: each ledger entry carries
the conditions it was measured under, and ``compare`` scores a metric's
pairs in the metric's own direction."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

LOWER = {"name": "first_cell_ms", "unit": "ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "cells_per_s", "unit": "cells/s", "better": "higher", "bound": 0.25}


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_entry_carries_the_conditions_it_was_measured_under(
        bench_pairs, tmp_path, monkeypatch):
    """An invocation writes its host, Python, ``.pyc`` condition and
    seconds per run into each of its entries; an entry an earlier
    invocation wrote keeps its own, and the ledger's top level holds
    none that could relabel it."""
    earlier = {"workload": "cosim", "seed": 7, "metric": "cells_per_s",
               "host": "another host", "python": "3.10.0",
               "pyc": "bytecode caching on", "seconds": 5}
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"command": "perfbench/run.py --trace 0",
                               "host": "the last invocation's host",
                               "results": [earlier]}), encoding="utf-8")
    spec = bench_pairs.benchmark(bench_pairs.ROOT)
    runs = iter(range(1, 100))

    def run_once(tree, workload, seed, seconds):
        assert seconds == spec["run_seconds"]
        value = float(next(runs))
        return {metric["name"]: value for metric in spec["end_to_end"]}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    bench_pairs.main(["--parent", str(tmp_path), "--workloads", "engine",
                      "--pairs", "2", "--out", str(out)])
    ledger = json.loads(out.read_text(encoding="utf-8"))
    assert set(ledger) == {"command", "results"}
    kept, *fresh = ledger["results"]
    assert kept == earlier
    assert [entry["metric"] for entry in fresh] == [
        metric["name"] for metric in spec["end_to_end"]]
    conditions = {**bench_pairs.conditions(), "seconds": spec["run_seconds"]}
    for entry in fresh:
        assert {key: entry[key] for key in conditions} == conditions
        assert (entry["workload"], entry["seed"], entry["rounds"]) == ("engine", 7, 2)


def test_compare_scores_a_lower_is_better_metric_by_its_sign(bench_pairs):
    better = bench_pairs.compare(LOWER, [10.0, 10.0, 10.0], [8.0, 8.0, 8.0])
    assert better["delta"] == pytest.approx(0.2)
    assert better["pairs_won"] == 3
    worse = bench_pairs.compare(LOWER, [10.0, 10.0, 10.0], [12.0, 12.0, 12.0])
    assert worse["delta"] == pytest.approx(-0.2)
    assert worse["pairs_won"] == 0


@pytest.mark.parametrize("metric", [LOWER, HIGHER], ids=["lower", "higher"])
def test_compare_counts_a_tie_for_neither_side(bench_pairs, metric):
    entry = bench_pairs.compare(metric, [5.0, 5.0, 5.0, 5.0], [5.0, 6.0, 5.0, 4.0])
    assert entry["pairs_won"] == 1
    assert entry["delta"] == 0.0


def test_compare_places_a_delta_against_its_bound(bench_pairs):
    assert bench_pairs.compare(HIGHER, [100.0] * 3, [75.0] * 3)["inside_bound"]
    assert not bench_pairs.compare(HIGHER, [100.0] * 3, [74.0] * 3)["inside_bound"]
    assert bench_pairs.compare(LOWER, [100.0] * 3, [125.0] * 3)["inside_bound"]
    assert not bench_pairs.compare(LOWER, [100.0] * 3, [126.0] * 3)["inside_bound"]
    assert bench_pairs.compare(LOWER, [100.0] * 3, [50.0] * 3)["inside_bound"]
