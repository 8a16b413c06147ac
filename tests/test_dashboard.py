"""The live dashboard: pure rendering, and the chaos-fleet integration.

:func:`repro.sim.service.dashboard.render` is a pure function from
(status payload, metrics snapshot, previous sample) to frame lines, so
the unit half feeds it canned payloads and asserts the operational
story is actually on screen - queue meters against their bounds,
cells/sec from sample deltas, dedup rate, fleet health, per-domain
progress.  The integration half is the acceptance gate: a real
``--workers-proc`` service with an injected chaos kill, polled by the
real ``python -m repro.sim.service.dashboard`` CLI while a sweep runs,
must render live fleet state and report counters consistent with the
records the client actually received.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.sim.service.dashboard import _bar, render, sample

SRC = str(Path(__file__).resolve().parent.parent / "src")

STATUS = {
    "op": "status", "protocol": 1, "uptime_s": 12.5, "pool": "workers-proc",
    "active": 2, "active_cells": 9, "max_pending": 8,
    "max_active_cells": 100, "inflight": 3, "computed": 5,
    "cache_hits": 6, "cache_misses": 4, "workers": 0, "supervised": True,
    "requests": {
        "req-0": {"id": "req-0", "status": "running", "cells": 6, "ran": 4,
                  "failed": 1, "verified": 3, "replayed": 0, "joined": 0,
                  "computed": 4, "priority": 0, "message": ""},
    },
    "supervisor": {"workers": 2, "alive": 1, "idle": 0, "lost": 1,
                   "respawns": 1, "respawn_budget": 8, "requeues": 2,
                   "quarantined": 1},
}

METRICS = {
    "counters": {
        "service.cells.resolved": {"domain=can,how=computed": 4,
                                   "domain=osek,how=replayed": 6},
        "service.records.streamed": {"": 10},
        "service.dedup.hits": {"": 6},
        "service.cells.failed": {"kind=worker-lost": 1},
        "service.requests.submitted": {"": 2},
    },
    "gauges": {
        "service.workers.alive": {"": 1},
        "service.workers.heartbeat_age_s": {"": 0.42},
    },
    "histograms": {},
}


def test_bar_is_bounded():
    assert _bar(0, 8) == "[--------------------]"
    assert _bar(8, 8) == "[####################]"
    assert _bar(99, 8) == "[####################]"  # clamps, never overflows
    assert _bar(1, 0) == "[--------------------]"  # no limit, no fill


def test_sample_derives_the_operational_quantities():
    got = sample(STATUS, METRICS)
    assert got["cells_resolved"] == 10
    assert got["cells_by_domain"] == {"can": 4, "osek": 6}
    assert got["records_streamed"] == 10
    assert got["dedup_hits"] == 6
    assert got["cells_failed"] == 1
    assert got["heartbeat_age_s"] == 0.42
    assert got["supervisor"]["quarantined"] == 1
    assert got["requests"]["req-0"]["failed"] == 1


def test_render_shows_queue_fleet_rates_and_progress():
    prev = dict(sample(STATUS, METRICS), cells_resolved=0, records_streamed=0)
    frame = render(STATUS, METRICS, prev, elapsed=2.0)
    text = "\n".join(frame)
    assert "up 12.5s" in text and "pool=workers-proc" in text
    assert "2/8 requests" in text and "9/100" in text
    assert "5.0 cells/s" in text and "5.0 records/s" in text
    assert "dedup  60.0%" in text
    assert "1/2 alive" in text and "quarantined 1" in text
    assert "heartbeat 0.42s" in text
    assert "can:4" in text and "osek:6" in text
    assert "req-0" in text and "4/6" in text and "failed 1" in text


def test_render_degrades_without_telemetry_or_fleet():
    frame = render({"op": "status", "protocol": 1, "uptime_s": 0.1,
                    "pool": "in-proc", "active": 0, "active_cells": 0,
                    "max_pending": 8, "max_active_cells": 100,
                    "inflight": 0, "cache_hits": 0, "cache_misses": 0,
                    "requests": {}},
                   {"counters": {}, "gauges": {}, "histograms": {}})
    text = "\n".join(frame)
    assert "pool=in-proc" in text
    assert "(no requests)" in text
    assert "fleet" not in text  # no supervisor, no fleet line
    assert "- cells/s" in text  # no previous sample, no invented rate


def test_dashboard_renders_live_chaos_fleet(tmp_path):
    """The acceptance claim: against a chaos-injected supervised fleet,
    the dashboard CLI renders live state mid-run and its final JSON
    sample is consistent with the stream the client received."""
    env = dict(os.environ, PYTHONPATH=SRC)
    port_file = tmp_path / "port.txt"
    service = subprocess.Popen(
        [sys.executable, "-m", "repro.sim.service",
         "--port", "0", "--port-file", str(port_file),
         "--workers-proc", "2", "--obs", "--heartbeat", "0.2",
         # the kill lands inside the lin matrix's 6 dispatches, so it fires
         "--chaos", "seed=7,kills=1,cells=6", "--quarantine-strikes", "3"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT)
    try:
        deadline = time.monotonic() + 30
        while not (port_file.exists() and port_file.read_text().strip()):
            assert time.monotonic() < deadline, "service never bound"
            time.sleep(0.05)
        address = f"127.0.0.1:{int(port_file.read_text())}"

        stream = tmp_path / "records.jsonl"
        sweep = subprocess.Popen(
            [sys.executable, "-m", "repro.sim.campaign", "--matrix", "lin",
             "--connect", address, "--stream", str(stream)],
            env=env, stdout=subprocess.DEVNULL)
        live = subprocess.run(
            [sys.executable, "-m", "repro.sim.service.dashboard", address,
             "--interval", "0.2", "--frames", "3"],
            env=env, capture_output=True, text=True, timeout=120)
        assert live.returncode == 0, live.stderr
        assert "campaign service" in live.stdout
        assert "fleet" in live.stdout and "alive" in live.stdout
        assert live.stdout.count("campaign service") == 3  # three frames

        assert sweep.wait(timeout=300) == 0
        final = subprocess.run(
            [sys.executable, "-m", "repro.sim.service.dashboard", address,
             "--once", "--json"],
            env=env, capture_output=True, text=True, timeout=60)
        assert final.returncode == 0, final.stderr
        got = json.loads(final.stdout)
        records = stream.read_text().splitlines()
        assert len(records) == 6                      # the lin matrix
        assert got["records_streamed"] == len(records)
        assert got["cells_resolved"] == len(records)
        assert got["cells_by_domain"] == {"lin": 6}
        assert got["pool"] == "workers-proc"
        fleet = got["supervisor"]
        # the chaos kill was absorbed: one loss, one requeue, one respawn,
        # no quarantine, and the full fleet alive again at the end
        assert (fleet["lost"], fleet["requeues"], fleet["respawns"]) == (1, 1, 1)
        assert fleet["quarantined"] == 0
        assert fleet["alive"] == fleet["workers"] == 2
    finally:
        service.send_signal(signal.SIGINT)
        try:
            service.wait(timeout=10)
        except subprocess.TimeoutExpired:
            service.kill()
