"""Telemetry: registry semantics and the out-of-band determinism proof.

Two halves.  The unit half pins the :mod:`repro.obs` registry contract:
counter monotonicity, lazy gauges, fixed histogram layouts, the
MAX_SERIES cardinality fold, in-place reset under prebound handles, and
span nesting.  The property half is the tentpole acceptance claim -
**telemetry is out-of-band**: the same campaign produces byte-identical
record streams with ``REPRO_OBS=1`` and ``REPRO_OBS=0`` through every
front end (the one-shot CLI, serial and on the worker fleet, and the
service), and the engine/campaign counters tick without any of them
touching a record.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.core import FLASH_BASE, build_machine
from repro.isa import ISA_THUMB2, assemble
from repro.obs.metrics import MAX_SERIES, MetricsRegistry, OVERFLOW_KEY
from repro.obs.tracing import Tracer
from repro.sim.campaign import CampaignRequest, ScenarioSpec, execute_request
from repro.sim.domains import domain_names, get_domain, record_class_for
from repro.sim.service import CampaignClient, CampaignService, serve_tcp

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def registry():
    return MetricsRegistry(enabled=True)


# ----------------------------------------------------------------------
# registry semantics
# ----------------------------------------------------------------------

def test_counter_is_labeled_and_monotonic(registry):
    cells = registry.counter("t.cells", "help text")
    cells.inc(domain="osek")
    cells.inc(3, domain="osek")
    cells.inc(domain="can")
    snap = registry.snapshot()
    assert snap["counters"]["t.cells"] == {"domain=osek": 4, "domain=can": 1}
    with pytest.raises(ValueError):
        cells.labels(domain="osek").add(-1)
    # get-or-create: re-registration returns the same object
    assert registry.counter("t.cells") is cells
    with pytest.raises(ValueError):
        registry.gauge("t.cells")  # kind conflict is an error


def test_snapshot_counters_never_shrink(registry):
    cells = registry.counter("t.mono")
    seen = -1
    for _ in range(5):
        cells.add(2)
        value = registry.snapshot()["counters"]["t.mono"][""]
        assert value > seen
        seen = value


def test_disabled_registry_records_nothing():
    registry = MetricsRegistry(enabled=False)
    registry.counter("t.c").inc()
    registry.gauge("t.g").set(7)
    registry.histogram("t.h").observe(0.5)
    snap = registry.snapshot()
    assert snap["counters"]["t.c"][""] == 0
    assert snap["gauges"]["t.g"][""] == 0
    assert snap["histograms"]["t.h"][""]["count"] == 0


def test_gauge_set_fn_is_sampled_at_snapshot_time(registry):
    depth = [3]
    registry.gauge("t.depth").set_fn(lambda: depth[0])
    assert registry.snapshot()["gauges"]["t.depth"][""] == 3
    depth[0] = 11
    assert registry.snapshot()["gauges"]["t.depth"][""] == 11


def test_histogram_layout_and_cumulative_buckets(registry):
    hist = registry.histogram("t.lat", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 5.0, 50.0):
        hist.observe(value)
    cell = registry.snapshot()["histograms"]["t.lat"][""]
    assert cell["le"] == [0.1, 1.0, 10.0]
    assert cell["count"] == 4
    assert cell["sum"] == pytest.approx(55.55)
    # one count per observation in its first fitting bucket; the extra
    # trailing slot is +Inf
    assert cell["buckets"] == [1, 1, 1, 1]


def test_label_cardinality_folds_into_one_overflow_series(registry):
    cells = registry.counter("t.wide")
    for index in range(MAX_SERIES + 40):
        cells.inc(cell=str(index))
    assert cells.series_count == MAX_SERIES + 1
    snap = registry.snapshot()["counters"]["t.wide"]
    overflow_key = ",".join(f"{k}={v}" for k, v in OVERFLOW_KEY)
    assert snap[overflow_key] == 40
    assert sum(snap.values()) == MAX_SERIES + 40  # nothing dropped


def test_reset_zeroes_in_place_so_prebound_handles_stay_live(registry):
    handle = registry.counter("t.pre").labels(mode="fused")
    hist = registry.histogram("t.preh").labels()
    handle.add(5)
    hist.observe(0.2)
    registry.reset()
    snap = registry.snapshot()
    assert snap["counters"]["t.pre"]["mode=fused"] == 0
    assert snap["histograms"]["t.preh"][""]["count"] == 0
    handle.add(2)  # the prebound handle still feeds the same series
    assert registry.snapshot()["counters"]["t.pre"]["mode=fused"] == 2


def test_dump_writes_one_sorted_json_snapshot(tmp_path):
    registry = MetricsRegistry(enabled=True)
    registry.counter("d.c").inc(4)
    path = tmp_path / "metrics.json"
    obs.dump(path, registry)
    loaded = json.loads(path.read_text())
    assert loaded["counters"]["d.c"][""] == 4


def test_spans_nest_and_the_ring_is_bounded():
    registry = MetricsRegistry(enabled=True)
    tracer = Tracer(capacity=8, registry=registry)
    with tracer.span("outer", kind="request"):
        with tracer.span("inner", domain="osek"):
            pass
    spans = tracer.snapshot()
    assert [s["name"] for s in spans] == ["inner", "outer"]
    inner, outer = spans
    assert inner["parent"] == outer["id"]
    assert outer["parent"] is None
    assert inner["attrs"] == {"domain": "osek"}
    assert inner["duration_s"] >= 0
    for index in range(20):
        with tracer.span(f"s{index}"):
            pass
    assert len(tracer.snapshot(limit=0)) == 8  # oldest dropped, never grows

    registry.disable()
    with tracer.span("dark"):
        pass
    assert all(s["name"] != "dark" for s in tracer.snapshot())


# ----------------------------------------------------------------------
# the out-of-band contract, structurally
# ----------------------------------------------------------------------

def test_no_computed_record_serialises_a_status_field():
    """``status`` must be a *property* on every computed record class -
    a field would land in ``vars()`` and therefore in stream bytes.
    ``cell_error`` is the one exception: its status IS data."""
    import inspect

    for name in domain_names():
        cls = get_domain(name).record_class
        fields = getattr(cls, "__dataclass_fields__", {})
        assert "status" not in fields, name
        assert isinstance(inspect.getattr_static(cls, "status"), property), name
        assert hasattr(cls, "verified"), name
    error_cls = record_class_for("cell_error")
    assert "status" in error_cls.__dataclass_fields__


def test_engine_and_campaign_counters_tick_out_of_band(obs_enabled):
    """Running a superblock workload and a campaign cell moves the
    engine/campaign counters - and re-running with telemetry off still
    produces the identical record."""
    program = assemble(
        """
        sum_to_n:
            movs r1, #0
            movs r2, #0
        loop:
            adds r2, r2, #1
            adds r1, r1, r2
            cmp r2, r0
            bne loop
            movs r0, #0
            adds r0, r0, r1
            bx lr
        """, ISA_THUMB2, base=FLASH_BASE)

    def engine_counts() -> tuple[int, int]:
        snap = obs.snapshot()["counters"]
        runs = sum(snap.get("engine.runs", {}).values())
        dispatches = sum(
            snap.get("engine.superblock.dispatches", {}).values())
        return runs, dispatches

    runs_before, dispatches_before = engine_counts()
    machine = build_machine("m3", program)
    assert machine.call("sum_to_n", 10) == 55
    runs_after, dispatches_after = engine_counts()
    assert runs_after > runs_before
    assert dispatches_after > dispatches_before

    spec = ScenarioSpec(label="tick", domain="osek",
                        params=(("tasks", 3), ("utilisation", 0.5),
                                ("horizon_us", 200_000)))
    before = obs.snapshot()["counters"]
    record = execute_request(CampaignRequest(specs=(spec,))).records[0]
    after = obs.snapshot()["counters"]
    assert (sum(after.get("campaign.cells.computed", {}).values())
            > sum(before.get("campaign.cells.computed", {}).values()))
    assert record.status == "ok"
    assert "status" not in vars(record)

    obs.disable()
    bare = execute_request(CampaignRequest(specs=(spec,))).records[0]
    obs.enable()
    assert bare == record  # telemetry never touches the record itself


# ----------------------------------------------------------------------
# byte-identity: CLI (serial and fleet), service (the acceptance property)
# ----------------------------------------------------------------------

def run_cli(tmp_path, name: str, *argv: str, obs_on: bool) -> bytes:
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_OBS="1" if obs_on else "0")
    out = tmp_path / f"{name}.jsonl"
    result = subprocess.run(
        [sys.executable, "-m", "repro.sim.campaign", "--matrix", "lin",
         "--stream", str(out), *argv],
        env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    return out.read_bytes()


@pytest.mark.parametrize("executor", [[], ["--workers", "2"]], ids=["serial", "fleet"])
def test_cli_stream_bytes_identical_with_telemetry_on_and_off(tmp_path, executor):
    metrics_path = tmp_path / "metrics.json"
    on = run_cli(tmp_path, "on", *executor, "--metrics", str(metrics_path), obs_on=True)
    off = run_cli(tmp_path, "off", *executor, obs_on=False)
    assert on == off and on.count(b"\n") == 6
    snap = json.loads(metrics_path.read_text())
    assert sum(snap["counters"]["campaign.cells.computed"].values()) == 6
    assert sum(snap["counters"]["campaign.cells.requested"].values()) == 6
    if not executor:
        # observed where the cell runs: fleet workers do not yet send
        # their telemetry home
        assert snap["histograms"]["campaign.cell_seconds"]["domain=lin"]["count"] == 6


SPECS = (
    ScenarioSpec(label="o0", domain="osek",
                 params=(("tasks", 3), ("utilisation", 0.5),
                         ("horizon_us", 200_000))),
    ScenarioSpec(label="c0", domain="can",
                 params=(("messages", 4), ("load", 0.3),
                         ("horizon_us", 200_000))),
    ScenarioSpec(label="c1", domain="can", seed=13,
                 params=(("messages", 5), ("load", 0.5),
                         ("horizon_us", 200_000))),
)


def service_stream(tmp_path, name: str) -> bytes:
    path = tmp_path / f"{name}.jsonl"

    async def go() -> None:
        service = CampaignService()
        await service.start()
        server = await serve_tcp(service)
        port = server.sockets[0].getsockname()[1]
        try:
            client = await CampaignClient.connect(port=port)
            try:
                rid = await client.submit(CampaignRequest(specs=SPECS))
                await client.stream(rid, stream_path=path)
            finally:
                await client.close()
        finally:
            server.close()
            await server.wait_closed()
            await service.shutdown()

    asyncio.run(go())
    return path.read_bytes()


def test_service_stream_bytes_identical_with_telemetry_on_and_off(tmp_path):
    was = obs.enabled()
    try:
        obs.enable()
        on = service_stream(tmp_path, "on")
        obs.disable()
        off = service_stream(tmp_path, "off")
    finally:
        (obs.enable if was else obs.disable)()
    local = tmp_path / "local.jsonl"
    execute_request(CampaignRequest(specs=SPECS), stream_path=local)
    assert on == off == local.read_bytes()


def test_metrics_op_is_consistent_under_concurrent_streams(tmp_path, obs_enabled):
    """Two clients stream concurrently while a third polls ``metrics``:
    every snapshot is seq-echoed, counters are monotonic from poll to
    poll, cardinality stays bounded, and at the end the server counted
    exactly the records it streamed."""
    obs.REGISTRY.reset()

    async def go():
        service = CampaignService()
        await service.start()
        server = await serve_tcp(service)
        port = server.sockets[0].getsockname()[1]
        polls: list[dict] = []
        received = [0, 0]
        try:
            one = await CampaignClient.connect(port=port)
            two = await CampaignClient.connect(port=port)
            poller = await CampaignClient.connect(port=port)
            try:
                service.pause()
                rid_a = await one.submit(CampaignRequest(specs=SPECS))
                rid_b = await two.submit(CampaignRequest(specs=SPECS[::-1]))
                service.resume()

                async def poll_loop():
                    while True:
                        polls.append(await poller.metrics())
                        await asyncio.sleep(0.02)

                task = asyncio.create_task(poll_loop())
                def count(slot):
                    def cb(_record):
                        received[slot] += 1
                    return cb
                await asyncio.gather(
                    one.stream(rid_a, on_record=count(0)),
                    two.stream(rid_b, on_record=count(1)))
                polls.append(await poller.metrics())
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)
            finally:
                await one.close()
                await two.close()
                await poller.close()
        finally:
            server.close()
            await server.wait_closed()
            await service.shutdown()
        return polls, received

    polls, received = asyncio.run(go())
    assert received == [3, 3]
    totals = []
    for reply in polls:
        snap = reply["metrics"]
        for name, series in snap["counters"].items():
            assert len(series) <= MAX_SERIES + 1, name
        totals.append({name: sum(series.values())
                       for name, series in snap["counters"].items()})
    for earlier, later in zip(totals, totals[1:]):
        for name, value in earlier.items():
            assert later.get(name, 0) >= value, name  # never shrinks
    final = polls[-1]["metrics"]["counters"]
    assert sum(final["service.records.streamed"].values()) == 6
    assert sum(final["service.cells.resolved"].values()) == 6
    # the overlap dedups: 3 unique cells computed, 3 joined/replayed
    resolved = final["service.cells.resolved"]
    computed = sum(v for k, v in resolved.items() if "how=computed" in k)
    assert computed == 3
