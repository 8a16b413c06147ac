"""The supervised worker fleet under the deterministic chaos harness.

The robustness tentpole's acceptance claim, asserted directly: under
every seeded fault schedule - workers SIGKILL'd before or after
computing, silent stalls past the liveness window, busy stalls past the
hard per-cell deadline, clients severed mid-stream, poisoned specs that
kill every worker they touch - the client-visible record stream is
**byte-identical** to a fault-free run, and the service's bounded-queue
accounting (active requests, active cells, in-flight table) returns to
zero.  Fault schedules are frozen data (:mod:`repro.sim.service.chaos`)
keyed by the supervisor's global dispatch ordinal, so every scheduled
fault fires whichever worker its dispatch lands on, and every test
asserts the exact number of workers lost, cells requeued and workers
respawned.

Per-cell failure is data, not transport: a quarantined or cleanly
raising spec streams as a ``domain="cell_error"`` record with
``status="error"`` while the rest of the sweep completes normally.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.sim.campaign import (
    CampaignRequest,
    CellErrorRecord,
    ScenarioSpec,
    _record_json,
    execute_request,
)
from repro.sim.service import (
    CampaignClient,
    CampaignService,
    CampaignServiceError,
    CellFault,
    ChaosSchedule,
    serve_tcp,
)

#: fast heartbeats so stall/hang tests resolve in tenths of a second
#: (liveness window = 4 * heartbeat = 0.8s)
FAST = {"heartbeat": 0.2}


def chaos_specs() -> list[ScenarioSpec]:
    """Eight cheap cells: enough for two workers to interleave on."""
    pool = []
    for i in range(8):
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


REQUEST = CampaignRequest(specs=tuple(chaos_specs()))


@pytest.fixture(scope="module")
def fault_free_bytes() -> bytes:
    """The undisturbed local pooled stream every chaos run must match."""
    lines = [_record_json(r) + "\n" for r in execute_request(REQUEST).records]
    return "".join(lines).encode("utf-8")


async def run_under(chaos, *, workers=2, options=None, request=REQUEST):
    """One supervised sweep under a fault schedule; returns everything a
    test could want to assert on."""
    service = CampaignService(workers_proc=workers,
                              supervisor_options={**FAST, "chaos": chaos,
                                                  **(options or {})})
    await service.start()
    try:
        state = service.submit(request)
        records = []
        async for _, record in service.stream_records(state):
            records.append(record)
        stream = "".join(_record_json(r) + "\n" for r in records).encode("utf-8")
        return state.summary(), service.status(), stream, records
    finally:
        await service.shutdown()


def assert_accounting_zero(status: dict) -> None:
    """Every fault schedule must leave no slot leaked, no cell stranded."""
    assert status["active"] == 0
    assert status["active_cells"] == 0
    assert status["inflight"] == 0


def assert_fleet(status: dict, *, lost: int, requeues: int, respawns: int,
                 quarantined: int = 0) -> None:
    """The exact fault bill: every scheduled fault cost one worker."""
    fleet = status["supervisor"]
    assert (fleet["lost"], fleet["requeues"], fleet["respawns"],
            fleet["quarantined"]) == (lost, requeues, respawns, quarantined)


# ----------------------------------------------------------------------
# the tentpole property: seeded schedules cannot change the stream bytes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [3, 11, 2005])
def test_seeded_kill_schedules_stream_byte_identical(seed, fault_free_bytes):
    """Sweep the seeded schedule space: two worker kills (recv or report
    phase, RNG's choice) recover to the exact fault-free bytes."""
    # strikes=3: a requeued cell whose redispatch carries the *other*
    # kill still gets a third, clean attempt - quarantine is impossible
    # by construction.  Both kills sit below the 8-cell dispatch count,
    # so both fire.
    schedule = ChaosSchedule.seeded(seed, cells=8, kills=2)
    summary, status, stream, _ = asyncio.run(run_under(
        schedule, options={"quarantine_strikes": 3}))
    assert summary["status"] == "ok" and summary["failed"] == 0
    assert stream == fault_free_bytes
    assert_fleet(status, lost=2, requeues=2, respawns=2)
    assert_accounting_zero(status)


def test_report_phase_kill_recomputes_the_lost_cell(fault_free_bytes):
    """The dedup window: a worker that computed a cell but died before
    reporting it loses the work; the requeued recompute is byte-equal."""
    schedule = ChaosSchedule(faults=((1, CellFault(kill="report")),))
    summary, status, stream, _ = asyncio.run(run_under(schedule))
    assert summary["status"] == "ok"
    assert stream == fault_free_bytes
    assert_fleet(status, lost=1, requeues=1, respawns=1)
    assert_accounting_zero(status)


def test_silent_stall_trips_liveness_and_recovers(fault_free_bytes):
    """A wedged worker (heartbeats stop, process never exits) is detected
    by heartbeat silence, killed, and its cell requeued."""
    schedule = ChaosSchedule(faults=((1, CellFault(stall=3.0)),))
    summary, status, stream, _ = asyncio.run(run_under(schedule))
    assert summary["status"] == "ok"
    assert stream == fault_free_bytes
    assert_fleet(status, lost=1, requeues=1, respawns=1)  # liveness fired
    assert_accounting_zero(status)


def test_busy_stall_trips_the_hard_deadline(fault_free_bytes):
    """A livelocked worker (heartbeats keep coming, the cell never ends)
    is bounded by the per-cell deadline, not trusted forever."""
    schedule = ChaosSchedule(faults=((1, CellFault(stall=30.0, silent=False)),))
    summary, status, stream, _ = asyncio.run(run_under(
        schedule, workers=1,
        options={"cell_timeout": 3.0, "timeout_floor": 3.0}))
    assert summary["status"] == "ok"
    assert stream == fault_free_bytes
    assert_fleet(status, lost=1, requeues=1, respawns=1)  # deadline fired
    assert_accounting_zero(status)


def test_poisoned_spec_quarantines_as_typed_record(fault_free_bytes):
    """A spec that kills every worker it reaches is quarantined after two
    strikes: a per-cell ``status="error"`` record in its stream slot, the
    other cells byte-identical, and nothing cached for the poisoned key
    (a restarted service retries it fresh)."""
    specs = chaos_specs()
    poisoned = specs[3]
    schedule = ChaosSchedule(poison=(poisoned.key(),))
    summary, status, stream, records = asyncio.run(run_under(schedule))
    assert summary["status"] == "ok"                # the sweep completed
    assert summary["failed"] == 1
    errors = [r for r in records if isinstance(r, CellErrorRecord)]
    assert len(errors) == 1
    assert errors[0].error == "quarantined"
    assert errors[0].status == "error" and errors[0].key == poisoned.key()
    assert records.index(errors[0]) == 3            # in its spec slot
    # two strikes = two dead workers, one requeue between them, then no
    # further retries
    assert_fleet(status, lost=2, requeues=1, respawns=2, quarantined=1)
    # every healthy cell matches the fault-free run positionally
    reference = fault_free_bytes.decode("utf-8").splitlines(keepends=True)
    for index, record in enumerate(records):
        if index != 3:
            assert _record_json(record) + "\n" == reference[index]
    assert_accounting_zero(status)


def test_inworker_exception_is_a_cell_error_record_not_a_transport_error():
    """A spec that raises cleanly inside a worker costs no respawn: the
    worker stays in the fleet and the failure streams as data."""
    specs = chaos_specs()[:2]
    bad = ScenarioSpec(label="bad", domain="osek", params=(("tasks", 0),))
    request = CampaignRequest(specs=(specs[0], bad, specs[1]))
    summary, status, stream, records = asyncio.run(
        run_under(None, request=request))
    assert summary["status"] == "ok" and summary["failed"] == 1
    assert isinstance(records[1], CellErrorRecord)
    assert records[1].error == "compute-error"
    assert "ValueError" in records[1].message
    assert_fleet(status, lost=0, requeues=0, respawns=0)  # no worker died
    assert_accounting_zero(status)


def test_pool_exhaustion_fails_the_request_typed():
    """A fleet that dies faster than its respawn budget allows fails the
    request loudly - a typed error summary, not a hang - and frees its
    bounded-queue slots."""
    schedule = ChaosSchedule(faults=((0, CellFault(kill="recv")),))

    async def go():
        service = CampaignService(workers_proc=1,
                                  supervisor_options={**FAST, "chaos": schedule,
                                                      "respawn_budget": 0})
        await service.start()
        try:
            state = service.submit(REQUEST)
            async with state.cond:
                await state.cond.wait_for(lambda: state.done)
            while service._inflight:      # the doomed tail fails fast too
                await asyncio.sleep(0.01)
            return state.summary(), service.status()
        finally:
            await service.shutdown()

    summary, status = asyncio.run(go())
    assert summary["status"] == "error"
    assert "worker pool exhausted" in summary["message"]
    assert_fleet(status, lost=1, requeues=1, respawns=0)
    assert_accounting_zero(status)


# ----------------------------------------------------------------------
# client-side chaos: severed connections and queue-full storms
# ----------------------------------------------------------------------

def test_severed_client_reattaches_to_the_full_stream(tmp_path,
                                                      fault_free_bytes):
    """Sever the client's connection mid-stream (while workers are being
    killed): the request keeps computing server-side, and a fresh
    connection re-streams the complete sequence byte-identically."""
    schedule = ChaosSchedule.seeded(5, cells=8, kills=1)
    path = tmp_path / "reattached.jsonl"

    async def go():
        service = CampaignService(workers_proc=2,
                                  supervisor_options={**FAST, "chaos": schedule})
        await service.start()
        server = await serve_tcp(service)
        port = server.sockets[0].getsockname()[1]
        try:
            first = await CampaignClient.connect(port=port)
            rid = await first.submit(REQUEST)
            seen = asyncio.Event()
            stream_task = asyncio.create_task(first.stream(
                rid, on_record=lambda r: seen.set()))
            await seen.wait()                     # mid-stream, provably
            stream_task.cancel()                  # sever: no goodbye, no done
            await asyncio.gather(stream_task, return_exceptions=True)
            await first.close()

            second = await CampaignClient.connect(port=port)
            try:
                done = await second.stream(rid, stream_path=path)
            finally:
                await second.close()
            return done, service.status()
        finally:
            server.close()
            await server.wait_closed()
            await service.shutdown()

    done, status = asyncio.run(go())
    assert done["status"] == "ok" and done["ran"] == len(REQUEST.specs)
    assert path.read_bytes() == fault_free_bytes
    assert_fleet(status, lost=1, requeues=1, respawns=1)
    assert_accounting_zero(status)


def test_queue_full_during_respawn_storm_backs_off_and_succeeds(
        tmp_path, fault_free_bytes):
    """Back-pressure during recovery: while the fleet is killing and
    respawning workers, a submit refused with ``queue-full`` retries with
    backoff and lands once the first sweep's slot frees - typed error
    only if the budget were exhausted, which it is not here."""
    schedule = ChaosSchedule.seeded(7, cells=8, kills=2)
    path = tmp_path / "second.jsonl"

    async def go():
        service = CampaignService(workers_proc=2,
                                  max_pending=1,
                                  supervisor_options={
                                      **FAST, "chaos": schedule,
                                      "quarantine_strikes": 3})
        await service.start()
        server = await serve_tcp(service)
        port = server.sockets[0].getsockname()[1]
        try:
            one = await CampaignClient.connect(port=port)
            two = await CampaignClient.connect(port=port, backoff=0.1,
                                               retries=8)
            try:
                service.pause()                   # hold the storm's start
                rid_one = await one.submit(REQUEST)
                submit_two = asyncio.create_task(two.submit(REQUEST))
                await asyncio.sleep(0.3)          # >1 queue-full rejections
                assert not submit_two.done()      # ...it is retrying, typed
                service.resume()
                done_one = await one.stream(rid_one)
                rid_two = await submit_two        # slot freed; retry landed
                done_two = await two.stream(rid_two, stream_path=path)
            finally:
                await one.close()
                await two.close()
            return done_one, done_two, service.status()
        finally:
            server.close()
            await server.wait_closed()
            await service.shutdown()

    done_one, done_two, status = asyncio.run(go())
    assert done_one["status"] == "ok"
    assert done_two["status"] == "ok"
    assert done_two["replayed"] == len(REQUEST.specs)   # pure cache replay
    assert path.read_bytes() == fault_free_bytes
    assert_fleet(status, lost=2, requeues=2, respawns=2)
    assert_accounting_zero(status)


def test_queue_full_budget_exhaustion_still_surfaces_typed():
    """The retry loop is bounded: when the queue never drains, the client
    gets the typed ``queue-full`` error, not an infinite backoff."""

    async def go():
        service = CampaignService(workers_proc=1,
                                  max_pending=1,
                                  supervisor_options=dict(FAST))
        await service.start()
        server = await serve_tcp(service)
        port = server.sockets[0].getsockname()[1]
        try:
            client = await CampaignClient.connect(port=port, backoff=0.01,
                                                  retries=2)
            try:
                service.pause()                   # the slot never frees
                await client.submit(REQUEST)
                with pytest.raises(CampaignServiceError) as exc:
                    await client.submit(REQUEST)
                return exc.value.code
            finally:
                service.resume()
                await client.close()
        finally:
            server.close()
            await server.wait_closed()
            await service.shutdown()

    assert asyncio.run(go()) == "queue-full"


# ----------------------------------------------------------------------
# the schedules themselves: frozen, seeded, parseable
# ----------------------------------------------------------------------

def test_chaos_schedules_are_deterministic_and_parseable():
    one = ChaosSchedule.seeded(7, cells=8, kills=2, stalls=1)
    two = ChaosSchedule.seeded(7, cells=8, kills=2, stalls=1)
    assert one == two                             # same seed, same schedule
    assert one == ChaosSchedule.from_spec("seed=7,kills=2,stalls=1,cells=8")
    # three distinct ordinals inside the window: all three faults fire
    ordinals = [ordinal for ordinal, _ in one.faults]
    assert len(set(ordinals)) == 3 and all(0 <= o < 8 for o in ordinals)
    assert sorted(f.kill is None for _, f in one.faults) == [False, False, True]
    assert one.fault_for(99, "any-key") is None   # later dispatches run clean
    poisoned = ChaosSchedule(poison=("bad-key",))
    assert poisoned.fault_for(99, "bad-key") == CellFault(kill="recv")
    with pytest.raises(ValueError):
        ChaosSchedule.seeded(1, cells=2, kills=3)  # cannot all fire
    with pytest.raises(ValueError):
        ChaosSchedule.from_spec("seed=7,warp=1")
    with pytest.raises(ValueError):
        ChaosSchedule.from_spec("kills")
