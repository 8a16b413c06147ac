"""Shared helpers for the experiment benchmarks."""

from __future__ import annotations

import json
import os


def report(title: str, lines: list[str]) -> None:
    """Print a paper-style results block (visible with ``pytest -s``)."""
    width = max([len(title)] + [len(line) for line in lines]) + 2
    print()
    print("=" * width)
    print(title)
    print("-" * width)
    for line in lines:
        print(line)
    print("=" * width)


#: engine -> suite -> value (ns/instruction unless the suite key names
#: its unit), flushed to BENCH_summary.json at session end: a flat,
#: greppable cross-PR perf trajectory next to the pytest-benchmark
#: artifact (which needs downloading and jq to compare)
_SUMMARY: dict[str, dict[str, float]] = {}


def record_summary(engine: str, suite: str, value: float) -> None:
    """Register one (engine, suite) cell for the flat summary artifact."""
    _SUMMARY.setdefault(engine, {})[suite] = round(value, 1)


def pytest_sessionfinish(session, exitstatus):
    if not _SUMMARY:
        return
    path = os.environ.get("REPRO_BENCH_SUMMARY", "BENCH_summary.json")
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(_SUMMARY, stream, indent=1, sort_keys=True)
        stream.write("\n")
