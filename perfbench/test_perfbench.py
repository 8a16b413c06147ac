"""Fast self-test of the benchmark: every workload at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs once untraced and once traced.  Every metric in
``BENCHMARK.json`` must be emitted with its unit, every name must match
``[A-Za-z0-9_.-]+``, and the traced run must reproduce the untraced
record digest (the wrappers stay out-of-band).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CATALOGUE = json.loads((ROOT / "perfbench" / "catalogue.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def result_and_digest(proc: subprocess.CompletedProcess) -> tuple[dict, str]:
    lines = proc.stdout.strip().splitlines()
    digests = [line.split()[1] for line in lines if line.strip().startswith("digest ")]
    assert len(digests) == 1, proc.stdout[-2000:]
    return json.loads(lines[-1]), digests[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_and_tracing_keeps_the_digest(workload):
    digests = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(workload, trace)
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        result, digest = result_and_digest(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        wanted = {metric["name"]: metric["unit"] for metric in SPEC[section]}
        assert {name: value["unit"] for name, value in result["metrics"].items()} == wanted
        for name, value in result["metrics"].items():
            assert NAME.fullmatch(name) and UNIT.fullmatch(value["unit"])
            assert isinstance(value["value"], float)
        digests.append(digest)
    assert digests[0] == digests[1]


def test_catalogue_names_every_metric_and_workload():
    per_layer = {metric["name"] for metric in SPEC["per_layer"]}
    assert set(CATALOGUE["per_layer"]) == per_layer
    for metric in SPEC["end_to_end"]:
        entry = CATALOGUE["end_to_end"][metric["name"]]
        assert (entry["unit"], entry["better"]) == (metric["unit"], metric["better"])
    assert {name: entry["why"] for name, entry in CATALOGUE["workloads"].items()} == {
        workload["name"]: workload["why"] for workload in SPEC["workloads"]}
    for entry in CATALOGUE["per_layer"].values():
        assert entry["layer"] and isinstance(entry["moves"], list)


def test_an_unseen_seed_keeps_every_workload_shape():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    for size in workloads.SIZES.values():
        for workload in WORKLOADS:
            assert workloads.shape(workload, 1, size) == workloads.shape(workload, 982_451, size)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("engine", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
