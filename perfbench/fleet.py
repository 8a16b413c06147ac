"""The fleet workload's load generator: an in-process ``CampaignService``
on a two-worker supervised fleet, driven over TCP by two closed-loop
``CampaignClient`` connections (a client submits its next window only
after the previous stream ended with ``done``)."""

from __future__ import annotations

import asyncio
import glob
import os
from dataclasses import dataclass, field
from time import perf_counter

#: worker subprocesses in the fleet: one per core of a two-core host
WORKERS = 2


@dataclass
class Sent:
    """One request as the client saw it."""

    specs: list
    records: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # submit -> each record, s
    summary: dict | None = None
    error: str | None = None


@dataclass
class FleetPhase:
    warmup: Sent
    sent: list  # per client, a list of Sent in window order
    wall: float
    status: dict
    worker_rss_mb: float


def children_peak_rss_mb() -> float:
    """Largest peak resident set (VmHWM) among this process's children."""
    peak = 0.0
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path, encoding="ascii") as listing:
            pids = listing.read().split()
        for pid in pids:
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            peak = max(peak, int(line.split()[1]) / 1024)
            except OSError:
                continue  # exited meanwhile
    return peak


async def start_fleet(cache_dir):
    from repro.sim.service import CampaignService, serve_tcp

    service = CampaignService(workers_proc=WORKERS, cache=cache_dir)
    await service.start()
    server = await serve_tcp(service, "127.0.0.1", 0)
    return service, server, server.sockets[0].getsockname()[1]


async def stop_fleet(service, server) -> None:
    await service.shutdown()
    server.close()
    await server.wait_closed()


async def run_request(client, specs) -> Sent:
    from repro.sim.campaign import CampaignRequest
    from repro.sim.service import CampaignServiceError

    sent = Sent(specs=list(specs))
    submitted = perf_counter()

    def on_record(record) -> None:
        sent.latencies.append(perf_counter() - submitted)
        sent.records.append(record)

    try:
        rid = await client.submit(CampaignRequest(specs=tuple(specs)))
        sent.summary = await client.stream(rid, on_record=on_record)
    except CampaignServiceError as exc:
        sent.error = f"{exc.code}: {exc.detail}"
    return sent


async def _client_loop(client, pool, index: int, deadline: float,
                       min_windows: int) -> list:
    sent = []
    while perf_counter() < deadline or len(sent) < min_windows:
        sent.append(await run_request(client, pool.window_specs(index, len(sent))))
    return sent


async def _phase(pool, seconds: float, min_windows: int, cache_dir, tracer) -> FleetPhase:
    from repro.sim.service import CampaignClient

    service, server, port = await start_fleet(cache_dir)
    clients = []
    try:
        for _ in range(2):
            clients.append(await CampaignClient.connect("127.0.0.1", port))
        warmup = await run_request(clients[0], pool.warmup_specs())
        if tracer is not None:
            tracer.begin("timed")
        started = perf_counter()
        sent = await asyncio.gather(*(
            _client_loop(client, pool, index, started + seconds, min_windows)
            for index, client in enumerate(clients)))
        wall = perf_counter() - started
        if tracer is not None:
            tracer.end()
        status = service.status()
        worker_rss = children_peak_rss_mb()
    finally:
        for client in clients:
            await client.close()
        await stop_fleet(service, server)
    return FleetPhase(warmup=warmup, sent=list(sent), wall=wall, status=status,
                      worker_rss_mb=worker_rss)


def run_phase(pool, seconds: float, min_windows: int, cache_dir, tracer=None) -> FleetPhase:
    """Warm-up request, then the timed closed loop; the fleet is fresh."""
    return asyncio.run(_phase(pool, seconds, min_windows, cache_dir, tracer))


async def _start_and_stop(cache_dir) -> float:
    service, server, _ = await start_fleet(cache_dir)
    ready = perf_counter()
    await stop_fleet(service, server)
    return ready


def start_and_stop(cache_dir) -> float:
    """Start a fleet listening on TCP, then stop it; returns the
    ``perf_counter`` instant it was ready for requests."""
    return asyncio.run(_start_and_stop(cache_dir))
