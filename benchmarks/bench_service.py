"""Campaign service load benchmark: concurrent overlapping clients.

Starts the resident sweep service in-process on its supervised worker
fleet, fans out several TCP clients whose requests overlap (consecutive
windows over one spec pool), and streams every request to completion.
Reports requests/sec, cells/sec, and the dedup rate - the fraction of
requested cells served from the cache or joined in flight instead of
recomputed - and asserts the service's core economy claim: the number of
cells actually executed equals the size of the union, not the sum, of
the requests.

``REPRO_BENCH_REDUCED=1`` shrinks the pool and client count (CI smoke);
``REPRO_BENCH_WORKERS`` sizes the service's worker fleet.

The kill-recovery benchmark runs one sweep through the fleet twice -
fault-free, then with one chaos-injected worker kill - and reports
supervised cells/sec plus the recovery overhead of losing and respawning
a worker mid-sweep (the streams are asserted byte-identical, faulted or
not).
"""

from __future__ import annotations

import asyncio
import os

from conftest import record_summary, report

from repro.sim.campaign import CampaignRequest, ScenarioSpec, _record_json, execute_request
from repro.sim.service import (
    CampaignClient,
    CampaignService,
    CellFault,
    ChaosSchedule,
    serve_tcp,
)

REDUCED = os.environ.get("REPRO_BENCH_REDUCED") == "1"
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "2"))
CLIENTS = 3 if REDUCED else 6
POOL_CELLS = 6 if REDUCED else 18
WINDOW = 4 if REDUCED else 9            # cells per request (windows overlap)


def spec_pool() -> list[ScenarioSpec]:
    """Cheap pure-Python cells: the load is scheduling, not simulation."""
    pool = []
    for i in range(POOL_CELLS):
        if i % 2:
            pool.append(ScenarioSpec(
                label=f"osek {i}", domain="osek", seed=i,
                params=(("tasks", 3 + i % 3), ("utilisation", 0.5),
                        ("horizon_us", 200_000))))
        else:
            pool.append(ScenarioSpec(
                label=f"can {i}", domain="can", seed=i,
                params=(("messages", 4 + i % 3), ("load", 0.4),
                        ("horizon_us", 200_000))))
    return pool


async def drive(service: CampaignService, port: int,
                requests: list[CampaignRequest]) -> list[dict]:
    async def one_client(request: CampaignRequest) -> dict:
        client = await CampaignClient.connect(port=port)
        try:
            rid = await client.submit(request)
            return await client.stream(rid)
        finally:
            await client.close()

    return list(await asyncio.gather(*(one_client(r) for r in requests)))


def test_service_concurrent_overlapping_load(benchmark):
    pool = spec_pool()
    step = max(1, (POOL_CELLS - WINDOW) // max(1, CLIENTS - 1))
    requests = [
        CampaignRequest(specs=tuple(
            pool[(k * step + i) % POOL_CELLS] for i in range(WINDOW)))
        for k in range(CLIENTS)
    ]
    unique = {s.key() for r in requests for s in r.specs}

    async def run_load() -> tuple[list[dict], CampaignService]:
        service = CampaignService(workers_proc=WORKERS,
                                  max_pending=CLIENTS + 1)
        await service.start()
        server = await serve_tcp(service)
        try:
            summaries = await drive(
                service, server.sockets[0].getsockname()[1], requests)
        finally:
            server.close()
            await server.wait_closed()
            await service.shutdown()
        return summaries, service

    summaries, service = benchmark.pedantic(
        lambda: asyncio.run(run_load()), rounds=1, iterations=1)

    requested = sum(len(r.specs) for r in requests)
    delivered = sum(s["ran"] for s in summaries)
    deduped = sum(s["replayed"] + s["joined"] for s in summaries)
    assert all(s["status"] == "ok" for s in summaries)
    assert delivered == requested
    assert service.computed == len(unique)      # the union ran exactly once
    assert deduped == requested - len(unique)

    seconds = benchmark.stats["mean"]
    requests_per_sec = CLIENTS / seconds
    cells_per_sec = delivered / seconds
    dedup_pct = 100.0 * deduped / requested
    report(f"campaign service load ({CLIENTS} clients, workers_proc={WORKERS})"
           + (" [reduced]" if REDUCED else ""),
           [f"{CLIENTS} overlapping requests ({requested} cells, "
            f"{len(unique)} unique) in {seconds:.2f}s",
            f"{requests_per_sec:.1f} requests/s, {cells_per_sec:.1f} cells/s "
            f"streamed",
            f"{deduped}/{requested} cells deduped ({dedup_pct:.0f}%): "
            f"computed {service.computed}, joined/replayed the rest"])
    record_summary("service", "requests_per_sec", requests_per_sec)
    record_summary("service", "cells_per_sec", cells_per_sec)
    record_summary("service", "dedup_pct", dedup_pct)
    benchmark.extra_info["clients"] = CLIENTS
    benchmark.extra_info["cells"] = requested
    benchmark.extra_info["unique_cells"] = len(unique)


def test_supervised_pool_throughput_and_kill_recovery(benchmark):
    """One sweep through the supervised worker fleet, fault-free and with
    one injected worker kill: supervised cells/sec, recovery overhead."""
    specs = spec_pool()
    request = CampaignRequest(specs=tuple(specs))
    baseline = "".join(
        _record_json(r) + "\n" for r in execute_request(request).records)
    # the second dispatch dies after computing: it fires by construction
    kill = ChaosSchedule(faults=((1, CellFault(kill="report")),))

    async def sweep(chaos) -> tuple[float, str, dict]:
        service = CampaignService(workers_proc=WORKERS,
                                  supervisor_options={"heartbeat": 0.2,
                                                      "chaos": chaos})
        await service.start()
        loop = asyncio.get_running_loop()
        try:
            # time only the sweep, not fleet spawn/teardown
            start = loop.time()
            state = service.submit(request)
            records = []
            async for _, record in service.stream_records(state):
                records.append(record)
            elapsed = loop.time() - start
            stream = "".join(_record_json(r) + "\n" for r in records)
            return elapsed, stream, service.status()["supervisor"]
        finally:
            await service.shutdown()

    async def both() -> tuple:
        clean = await sweep(None)
        faulted = await sweep(kill)
        return clean, faulted

    (clean, faulted) = benchmark.pedantic(
        lambda: asyncio.run(both()), rounds=1, iterations=1)
    clean_s, clean_stream, clean_sup = clean
    faulted_s, faulted_stream, faulted_sup = faulted
    assert clean_stream == baseline          # supervised == local, bytes
    assert faulted_stream == baseline        # ...even across a worker kill
    assert (clean_sup["lost"], clean_sup["requeues"], clean_sup["respawns"]) == (0, 0, 0)
    assert (faulted_sup["lost"], faulted_sup["requeues"],
            faulted_sup["respawns"]) == (1, 1, 1)

    cells_per_sec = len(specs) / clean_s
    recovery_overhead_s = max(0.0, faulted_s - clean_s)
    report(f"supervised worker fleet ({WORKERS} workers)"
           + (" [reduced]" if REDUCED else ""),
           [f"{len(specs)} cells fault-free in {clean_s:.2f}s "
            f"({cells_per_sec:.1f} cells/s through subprocess workers)",
            f"same sweep with one report-phase worker kill: {faulted_s:.2f}s "
            f"(+{recovery_overhead_s:.2f}s to detect, requeue, respawn)",
            "both streams byte-identical to the local run"])
    record_summary("service", "supervised_cells_per_sec", cells_per_sec)
    record_summary("service", "kill_recovery_overhead_s", recovery_overhead_s)
    benchmark.extra_info["workers_proc"] = WORKERS
    benchmark.extra_info["cells"] = len(specs)


def test_telemetry_overhead_stays_out_of_band(benchmark):
    """The observability acceptance number: the same sweep with the
    :mod:`repro.obs` registry enabled vs disabled - identical records,
    and the instrumented run costs under 3% (per-cell telemetry is a
    handful of counter adds, one span, and one histogram observe).

    Interleaved min-of-N timing on the serial campaign core, fresh
    (cache-less) every run, so the ratio measures instrumentation and
    not cache or pool scheduling noise.
    """
    import time

    from repro import obs

    request = CampaignRequest(specs=tuple(spec_pool()))
    rounds = 2 if REDUCED else 3

    def timed_run() -> tuple[float, str]:
        start = time.perf_counter()
        result = execute_request(request)
        elapsed = time.perf_counter() - start
        stream = "".join(_record_json(r) + "\n" for r in result.records)
        return elapsed, stream

    def both_arms() -> tuple[list[float], list[float], set[str]]:
        bare, instrumented, streams = [], [], set()
        was = obs.enabled()
        try:
            for _ in range(rounds):       # interleaved: drift hits both arms
                obs.disable()
                elapsed, stream = timed_run()
                bare.append(elapsed)
                streams.add(stream)
                obs.enable()
                elapsed, stream = timed_run()
                instrumented.append(elapsed)
                streams.add(stream)
        finally:
            (obs.enable if was else obs.disable)()
        return bare, instrumented, streams

    bare, instrumented, streams = benchmark.pedantic(
        both_arms, rounds=1, iterations=1)
    assert len(streams) == 1             # telemetry never touches a byte

    bare_s, instrumented_s = min(bare), min(instrumented)
    overhead_pct = max(0.0, 100.0 * (instrumented_s - bare_s) / bare_s)
    cells = len(request.specs)
    report("telemetry overhead (obs enabled vs disabled)"
           + (" [reduced]" if REDUCED else ""),
           [f"{cells} cells bare {bare_s:.3f}s vs instrumented "
            f"{instrumented_s:.3f}s (min of {rounds} interleaved rounds)",
            f"overhead {overhead_pct:.2f}% - streams byte-identical",
            f"{cells / instrumented_s:.1f} cells/s with full telemetry on"])
    record_summary("service", "telemetry_overhead_pct", overhead_pct)
    record_summary("service", "instrumented_cells_per_sec",
                   cells / instrumented_s)
    benchmark.extra_info["overhead_pct"] = overhead_pct
    if not REDUCED:
        assert overhead_pct < 3.0, (
            f"telemetry overhead {overhead_pct:.2f}% exceeds the 3% budget")
