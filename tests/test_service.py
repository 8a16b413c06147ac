"""The campaign service: dedup, ordering, back-pressure, resume.

Covers the acceptance claims of the campaign-as-a-service redesign: two
concurrent clients with overlapping sweeps stream byte-identical records
while the server computes the union of cells exactly once (asserted via
the dedup counters), cancellation frees bounded-queue slots, back-
pressure rejects with a typed ``queue-full`` error, priorities reorder
the global dispatch queue, and a service killed mid-sweep resumes from
its disk cache.  Most tests drive :class:`CampaignService` in process
(with ``pause()``/``resume()`` making scheduling deterministic); the
transport tests run a real TCP server and the packaged CLI.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.sim.campaign import CampaignRequest, ScenarioSpec, execute_request
from repro.sim.service import (
    CampaignClient,
    CampaignService,
    CampaignServiceError,
    decode_message,
    encode_message,
    serve_tcp,
)


def cheap_specs() -> list[ScenarioSpec]:
    """Fast pure-Python cells (no CPU model) across two domains."""
    return [
        ScenarioSpec(label="o0", domain="osek",
                     params=(("tasks", 3), ("utilisation", 0.5),
                             ("horizon_us", 200_000))),
        ScenarioSpec(label="o1", domain="osek", seed=9,
                     params=(("tasks", 4), ("utilisation", 0.7),
                             ("horizon_us", 200_000))),
        ScenarioSpec(label="c0", domain="can",
                     params=(("messages", 4), ("load", 0.3),
                             ("horizon_us", 200_000))),
        ScenarioSpec(label="c1", domain="can", seed=13,
                     params=(("messages", 5), ("load", 0.5),
                             ("error_rate", 0.05), ("horizon_us", 200_000))),
    ]


async def wait_done(state) -> None:
    async with state.cond:
        await state.cond.wait_for(lambda: state.done)


def pooled_bytes(tmp_path, specs, name) -> bytes:
    path = tmp_path / f"{name}.jsonl"
    execute_request(CampaignRequest(specs=tuple(specs)), stream_path=path)
    return path.read_bytes()


# ----------------------------------------------------------------------
# dedup and byte-identity (the tentpole acceptance claim)
# ----------------------------------------------------------------------

def test_concurrent_overlapping_clients_compute_the_union_once(tmp_path):
    """Two TCP clients, overlapping sweeps: byte-identical streams, and
    the overlapping cells are computed exactly once (counter-asserted)."""
    pool = cheap_specs()
    specs_a = [pool[0], pool[2], pool[3]]            # o0 c0 c1
    specs_b = [pool[2], pool[3], pool[1]]            # c0 c1 o1  (2 shared)
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"

    async def go():
        service = CampaignService()
        await service.start()
        server = await serve_tcp(service)
        port = server.sockets[0].getsockname()[1]
        try:
            one = await CampaignClient.connect(port=port)
            two = await CampaignClient.connect(port=port)
            try:
                # pause so both submits land before any cell starts: the
                # overlap must go down the in-flight *join* path, not the
                # cache-replay path
                service.pause()
                rid_a = await one.submit(
                    CampaignRequest(specs=tuple(specs_a)))
                rid_b = await two.submit(
                    CampaignRequest(specs=tuple(specs_b)))
                service.resume()
                done_a, done_b = await asyncio.gather(
                    one.stream(rid_a, stream_path=path_a),
                    two.stream(rid_b, stream_path=path_b))
            finally:
                await one.close()
                await two.close()
        finally:
            server.close()
            await server.wait_closed()
            await service.shutdown()
        return done_a, done_b, service

    done_a, done_b, service = asyncio.run(go())
    union = {s.key() for s in specs_a + specs_b}
    assert service.computed == len(union) == 4      # shared cells ran once
    assert done_a["computed"] == 3 and done_a["joined"] == 0
    assert done_b["joined"] == 2 and done_b["computed"] == 1
    assert done_a["status"] == done_b["status"] == "ok"
    assert done_a["verified"] == done_b["verified"] == 3
    assert path_a.read_bytes() == pooled_bytes(tmp_path, specs_a, "la")
    assert path_b.read_bytes() == pooled_bytes(tmp_path, specs_b, "lb")


def test_second_request_replays_from_the_service_cache(tmp_path):
    """Sequential overlap takes the cache path: replayed, not recomputed."""

    async def go():
        service = CampaignService()
        await service.start()
        try:
            specs = cheap_specs()[:2]
            first = service.submit(CampaignRequest(specs=tuple(specs)))
            await wait_done(first)
            second = service.submit(CampaignRequest(specs=tuple(specs)))
            await wait_done(second)
            return first.summary(), second.summary(), service.computed
        finally:
            await service.shutdown()

    first, second, computed = asyncio.run(go())
    assert first["computed"] == 2 and first["replayed"] == 0
    assert second["replayed"] == 2 and second["computed"] == 0
    assert computed == 2


def test_stream_reattaches_gapless_after_late_subscribe():
    """A streamer attaching after completion still sees every record in
    spec order (the killed-client resume guarantee)."""

    async def go():
        service = CampaignService()
        await service.start()
        try:
            specs = cheap_specs()
            state = service.submit(CampaignRequest(specs=tuple(specs)))
            await wait_done(state)
            seen = [record async for record in _drain(service, state)]
            again = [record async for record in _drain(service, state)]
            return specs, seen, again
        finally:
            await service.shutdown()

    async def _drain(service, state):
        async for _, record in service.stream_records(state):
            yield record

    specs, seen, again = asyncio.run(go())
    assert [r.label for r in seen] == [s.label for s in specs]
    assert [vars(r) for r in again] == [vars(r) for r in seen]


# ----------------------------------------------------------------------
# back-pressure, cancellation, priorities
# ----------------------------------------------------------------------

def test_backpressure_rejects_typed_and_cancel_frees_the_slot():
    specs = cheap_specs()

    async def go():
        service = CampaignService(max_pending=1)
        await service.start()
        service.pause()                       # nothing computes; pure queueing
        try:
            first = service.submit(CampaignRequest(specs=(specs[0],)))
            with pytest.raises(CampaignServiceError) as rejected:
                service.submit(CampaignRequest(specs=(specs[1],)))
            assert rejected.value.code == "queue-full"
            await service.cancel(first.rid)   # frees the slot immediately
            assert first.summary()["status"] == "cancelled"
            second = service.submit(CampaignRequest(specs=(specs[1],)))
            service.resume()
            await wait_done(second)
            return second.summary()
        finally:
            await service.shutdown()

    summary = asyncio.run(go())
    assert summary["status"] == "ok" and summary["ran"] == 1


def test_backpressure_bounds_total_active_cells():
    specs = cheap_specs()

    async def go():
        service = CampaignService(max_active_cells=2)
        await service.start()
        try:
            with pytest.raises(CampaignServiceError) as rejected:
                service.submit(CampaignRequest(specs=tuple(specs[:3])))
            assert rejected.value.code == "queue-full"
            state = service.submit(CampaignRequest(specs=tuple(specs[:2])))
            await wait_done(state)
            return state.summary()
        finally:
            await service.shutdown()

    assert asyncio.run(go())["status"] == "ok"


def test_priorities_reorder_the_global_dispatch_queue():
    specs = cheap_specs()
    low_specs, high_specs = specs[:2], specs[2:]

    async def go():
        service = CampaignService()
        await service.start()
        try:
            service.pause()
            low = service.submit(CampaignRequest(specs=tuple(low_specs)),
                                 priority=0)
            high = service.submit(CampaignRequest(specs=tuple(high_specs)),
                                  priority=5)
            service.resume()
            await asyncio.gather(wait_done(low), wait_done(high))
            return list(service.dispatch_log)
        finally:
            await service.shutdown()

    log = asyncio.run(go())
    expected = [s.key() for s in high_specs] + [s.key() for s in low_specs]
    assert log == expected                   # high overtook, FIFO within each


def test_cancelled_cells_nobody_wants_are_never_dispatched():
    specs = cheap_specs()

    async def go():
        service = CampaignService()
        await service.start()
        try:
            service.pause()
            doomed = service.submit(CampaignRequest(specs=tuple(specs[:2])))
            keeper = service.submit(CampaignRequest(specs=(specs[2],)))
            await service.cancel(doomed.rid)
            service.resume()
            await wait_done(keeper)
            while service._inflight:          # let the dispatcher drain drops
                await asyncio.sleep(0.01)
            return list(service.dispatch_log), service.computed
        finally:
            await service.shutdown()

    log, computed = asyncio.run(go())
    assert log == [specs[2].key()]           # the doomed cells never started
    assert computed == 1


# ----------------------------------------------------------------------
# typed errors
# ----------------------------------------------------------------------

def test_submit_rejects_bad_duplicate_and_unknown():
    async def go():
        service = CampaignService()
        await service.start()
        service.pause()
        codes = {}
        try:
            with pytest.raises(CampaignServiceError) as exc:
                service.submit(CampaignRequest(matrix="no-such-matrix"))
            codes["bad"] = exc.value.code
            service.submit(CampaignRequest(specs=(cheap_specs()[0],)),
                           rid="sweep")
            with pytest.raises(CampaignServiceError) as exc:
                service.submit(CampaignRequest(specs=(cheap_specs()[1],)),
                               rid="sweep")
            codes["dupe"] = exc.value.code
            with pytest.raises(CampaignServiceError) as exc:
                await service.cancel("never-submitted")
            codes["unknown"] = exc.value.code
        finally:
            await service.shutdown()
        with pytest.raises(CampaignServiceError) as exc:
            service.submit(CampaignRequest(specs=(cheap_specs()[0],)))
        codes["closing"] = exc.value.code
        return codes

    codes = asyncio.run(go())
    assert codes == {"bad": "bad-request", "dupe": "duplicate-request",
                     "unknown": "unknown-request",
                     "closing": "shutting-down"}


def test_wire_protocol_rejects_garbage_and_unknown_ops():
    with pytest.raises(CampaignServiceError) as exc:
        decode_message(b"{not json}\n")
    assert exc.value.code == "bad-message"
    with pytest.raises(CampaignServiceError) as exc:
        decode_message(b"[1, 2]\n")
    assert exc.value.code == "bad-message"
    assert decode_message(encode_message({"op": "status"})) == {"op": "status"}

    async def go():
        service = CampaignService()
        await service.start()
        server = await serve_tcp(service)
        port = server.sockets[0].getsockname()[1]
        try:
            client = await CampaignClient.connect(port=port)
            try:
                with pytest.raises(CampaignServiceError) as exc:
                    await client._call({"op": "warp"})
                unknown_op = exc.value.code
                with pytest.raises(CampaignServiceError) as exc:
                    await client.cancel("ghost")
                unknown_request = exc.value.code
                status = await client.status()
            finally:
                await client.close()
        finally:
            server.close()
            await server.wait_closed()
            await service.shutdown()
        return unknown_op, unknown_request, status

    unknown_op, unknown_request, status = asyncio.run(go())
    assert unknown_op == "unknown-op"
    assert unknown_request == "unknown-request"
    assert status["active"] == 0 and status["workers"] == 1


def test_status_counters_track_dedup():
    async def go():
        service = CampaignService()
        await service.start()
        try:
            specs = cheap_specs()[:2]
            state = service.submit(CampaignRequest(specs=tuple(specs)))
            await wait_done(state)
            again = service.submit(CampaignRequest(specs=tuple(specs)))
            await wait_done(again)
            return service.status()
        finally:
            await service.shutdown()

    status = asyncio.run(go())
    assert status["computed"] == 2
    assert status["cache_hits"] == 2          # the second sweep replayed
    assert status["active"] == 0 and status["active_cells"] == 0
    assert len(status["requests"]) == 2
    assert all(s["status"] == "ok" for s in status["requests"].values())


# ----------------------------------------------------------------------
# crash resume from the shared cache
# ----------------------------------------------------------------------

def test_killed_service_resumes_the_sweep_from_its_cache(tmp_path):
    """Kill the service mid-sweep; a new one on the same cache directory
    replays the finished cells and completes - byte-identical."""
    specs = cheap_specs()
    cache_dir = tmp_path / "cache"

    async def first_life():
        service = CampaignService(cache=str(cache_dir))
        await service.start()
        state = service.submit(CampaignRequest(specs=tuple(specs)))
        while len(state.records) < 2:         # let part of the sweep finish
            await asyncio.sleep(0.005)
        await service.shutdown()              # kill-like: abandons the rest
        return state.summary()

    async def second_life():
        service = CampaignService(cache=str(cache_dir))
        await service.start()
        try:
            state = service.submit(CampaignRequest(specs=tuple(specs)))
            await wait_done(state)
            path = tmp_path / "resumed.jsonl"
            out = open(path, "a", encoding="utf-8")
            from repro.sim.campaign import _record_json
            try:
                async for _, record in service.stream_records(state):
                    out.write(_record_json(record) + "\n")
            finally:
                out.close()
            return state.summary(), path.read_bytes()
        finally:
            await service.shutdown()

    interrupted = asyncio.run(first_life())
    assert interrupted["status"] in ("running", "error")   # it never finished
    summary, resumed = asyncio.run(second_life())
    assert summary["status"] == "ok"
    assert summary["replayed"] >= 2           # the first life's cells held
    assert summary["replayed"] + summary["computed"] == len(specs)
    assert resumed == pooled_bytes(tmp_path, specs, "pooled")


# ----------------------------------------------------------------------
# graceful shutdown: typed goodbyes, drained cells, flushed cache
# ----------------------------------------------------------------------

def test_graceful_shutdown_answers_open_streams_typed(tmp_path):
    """Shutting down with a stream open and cells queued must (a) answer
    the stream with a typed ``shutting-down`` error frame echoing its
    ``seq`` - never a bare closed socket - (b) refuse a late submit with
    the same typed code, and (c) leave the drained cells' cache files on
    disk for the next life."""
    specs = cheap_specs()
    cache_dir = tmp_path / "cache"

    async def go():
        service = CampaignService(cache=str(cache_dir))
        await service.start()
        server = await serve_tcp(service)
        port = server.sockets[0].getsockname()[1]
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                request = CampaignRequest(specs=tuple(specs))
                writer.write(encode_message(
                    {"op": "submit", "seq": 1, "request": request.to_obj()}))
                await writer.drain()
                submitted = decode_message(await reader.readline())
                writer.write(encode_message(
                    {"op": "stream", "seq": 2, "id": submitted["id"]}))
                await writer.drain()
                # one record proves the stream is live, then freeze the
                # dispatcher so the remaining cells are queued, not running
                first = decode_message(await reader.readline())
                service.pause()
                await service.shutdown()
                # the connection itself stays usable; the stream must end
                # with the typed goodbye (a bare EOF here fails the test
                # via the read timeout)
                frames = []
                while True:
                    line = await asyncio.wait_for(reader.readline(), 10)
                    assert line, "stream died with a bare closed socket"
                    frames.append(decode_message(line))
                    if frames[-1].get("op") == "error":
                        break
                return submitted, first, frames
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
        finally:
            server.close()
            await server.wait_closed()

    submitted, first, frames = asyncio.run(go())
    assert submitted["op"] == "submitted"
    assert first["op"] == "record" and first["seq"] == 2
    # records the drain finished may still arrive; the *last* frame must
    # be the typed goodbye with the stream's seq and request id echoed
    goodbye = frames[-1]
    assert goodbye["op"] == "error" and goodbye["ok"] is False
    assert goodbye["error"] == "shutting-down"
    assert goodbye["seq"] == 2 and goodbye["id"] == submitted["id"]
    assert all(f["op"] == "record" for f in frames[:-1])
    # the drained cells were flushed to disk for the next life
    assert list(cache_dir.glob("*.json"))


def test_submit_after_shutdown_refused_typed_over_the_wire():
    async def go():
        service = CampaignService()
        await service.start()
        server = await serve_tcp(service)
        port = server.sockets[0].getsockname()[1]
        try:
            await service.shutdown()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                request = CampaignRequest(specs=(cheap_specs()[0],))
                writer.write(encode_message(
                    {"op": "submit", "seq": 9, "request": request.to_obj()}))
                await writer.drain()
                return decode_message(await reader.readline())
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
        finally:
            server.close()
            await server.wait_closed()

    refused = asyncio.run(go())
    assert refused["op"] == "error" and refused["error"] == "shutting-down"
    assert refused["seq"] == 9


# ----------------------------------------------------------------------
# the packaged transports: python -m repro.sim.service + CLI --connect
# ----------------------------------------------------------------------

def test_cli_connect_round_trip_through_a_real_server(tmp_path):
    """Server subprocess + two CLI clients: the second replays everything
    and both streams are byte-identical to a local run."""
    from repro.sim.campaign import main

    env = dict(os.environ)
    root = Path(__file__).resolve().parents[1]
    env["PYTHONPATH"] = str(root / "src")
    port_file = tmp_path / "port.txt"
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.sim.service", "--port", "0",
         "--port-file", str(port_file), "--cache", str(tmp_path / "cache")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not port_file.exists():
            assert server.poll() is None, "service died before listening"
            assert time.monotonic() < deadline, "service never wrote its port"
            time.sleep(0.05)
        port = int(port_file.read_text())

        local = tmp_path / "local.jsonl"
        args = ["--matrix", "smoke", "--shard", "0/4", "--seed", "2005"]
        assert main([*args, "--stream", str(local)]) == 0
        first = tmp_path / "first.jsonl"
        assert main([*args, "--stream", str(first),
                     "--connect", f"127.0.0.1:{port}"]) == 0
        second = tmp_path / "second.jsonl"
        assert main([*args, "--stream", str(second),
                     "--connect", f"127.0.0.1:{port}"]) == 0
    finally:
        server.terminate()
        server.wait(timeout=10)
    assert first.read_bytes() == local.read_bytes()
    assert second.read_bytes() == local.read_bytes()


# ----------------------------------------------------------------------
# swallowed-exception regressions: poisoned handlers must surface as
# typed errors, never vanish into a dropped task result
# ----------------------------------------------------------------------

def test_poisoned_stream_replies_typed_internal_with_seq():
    """A stream handler that raises must answer the *stream's* seq with a
    typed ``internal`` error frame - and leave the connection loop alive
    for further operations on the same socket."""

    async def go():
        service = CampaignService()
        await service.start()

        async def poisoned(state, seq, send):
            raise RuntimeError("poisoned stream handler")

        service._stream_to = poisoned
        server = await serve_tcp(service)
        port = server.sockets[0].getsockname()[1]
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                request = CampaignRequest(specs=(cheap_specs()[0],))
                writer.write(encode_message(
                    {"op": "submit", "seq": 7, "request": request.to_obj()}))
                await writer.drain()
                submitted = decode_message(await reader.readline())
                writer.write(encode_message(
                    {"op": "stream", "seq": 42, "id": submitted["id"]}))
                await writer.drain()
                error = decode_message(await reader.readline())
                writer.write(encode_message({"op": "status", "seq": 43}))
                await writer.drain()
                status = decode_message(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
        finally:
            server.close()
            await server.wait_closed()
            await service.shutdown()
        return submitted, error, status

    submitted, error, status = asyncio.run(go())
    assert submitted["op"] == "submitted" and submitted["seq"] == 7
    assert error["op"] == "error" and error["ok"] is False
    assert error["error"] == "internal"
    assert error["seq"] == 42 and error["id"] == submitted["id"]
    assert "poisoned stream handler" in error["message"]
    # the connection loop survived the poisoned task
    assert status["op"] == "status" and status["seq"] == 43


def test_poisoned_cell_reports_error_and_frees_queue_slots(monkeypatch):
    """A cell handler that raises must turn into a typed ``error`` summary
    (not a hang, not a silent drop) and release its bounded-queue slots so
    the next submit is accepted and runs clean."""

    async def poisoned(spec):
        raise TypeError("poisoned compute handler")

    async def go():
        service = CampaignService(max_pending=1)
        await service.start()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(service._supervisor, "run_cell", poisoned)
                state = service.submit(CampaignRequest(specs=(cheap_specs()[0],)))
                await wait_done(state)
            poisoned_summary = state.summary()
            poisoned_status = service.status()

            # the slot is free again: a second submit on max_pending=1
            # must be accepted, and with the real handler it runs clean
            healthy = service.submit(CampaignRequest(specs=(cheap_specs()[1],)))
            await wait_done(healthy)
            healthy_summary = healthy.summary()
            final_status = service.status()
        finally:
            await service.shutdown()
        return poisoned_summary, poisoned_status, healthy_summary, final_status

    poisoned_summary, poisoned_status, healthy_summary, final_status = \
        asyncio.run(go())
    assert poisoned_summary["status"] == "error"
    assert "poisoned compute handler" in poisoned_summary["message"]
    assert poisoned_status["active"] == 0 and poisoned_status["active_cells"] == 0
    assert healthy_summary["status"] == "ok" and healthy_summary["ran"] == 1
    assert final_status["active"] == 0 and final_status["active_cells"] == 0


# ----------------------------------------------------------------------
# observability: status schema, typed failed counts, the metrics op
# ----------------------------------------------------------------------

def test_status_reports_uptime_protocol_and_pool_mode():
    """Satellite claim: the status payload identifies the server (wire
    protocol version, worker-pool mode, uptime) so operators and the
    dashboard need no out-of-band knowledge."""

    async def go():
        service = CampaignService()
        await service.start()
        try:
            await asyncio.sleep(0.01)
            return service.status()
        finally:
            await service.shutdown()

    status = asyncio.run(go())
    assert status["protocol"] == 1
    assert status["pool"] == "workers-proc" and status["supervised"] is True
    assert status["supervisor"]["workers"] == status["workers"] == 1
    assert status["uptime_s"] > 0
    # uptime is wall-clock since start(), not a counter anyone resets
    assert status["uptime_s"] < 60


def test_quarantined_cell_counts_exactly_once_in_failed():
    """Regression: ``failed`` used to probe records with ``getattr``;
    now every record class carries a typed ``status`` accessor, so one
    quarantined cell counts exactly one ``failed`` - and the healthy
    cells count zero."""
    from repro.sim.campaign import CellErrorRecord
    from repro.sim.service import ChaosSchedule

    specs = cheap_specs()
    poisoned = specs[2]
    chaos = ChaosSchedule(poison=(poisoned.key(),))

    async def go():
        service = CampaignService(
            workers_proc=2,
            supervisor_options={"heartbeat": 0.2, "chaos": chaos})
        await service.start()
        try:
            state = service.submit(CampaignRequest(specs=tuple(specs)))
            records = []
            async for _, record in service.stream_records(state):
                records.append(record)
            return state.summary(), records
        finally:
            await service.shutdown()

    summary, records = asyncio.run(go())
    errors = [r for r in records if isinstance(r, CellErrorRecord)]
    assert len(errors) == 1 and errors[0].key == poisoned.key()
    assert summary["failed"] == 1
    assert summary["ran"] == len(specs)
    assert summary["status"] == "ok"  # per-cell failure is data, not error
    # the typed accessor, not probing: healthy records answer "ok"
    assert all(r.status == "ok" for r in records if r not in errors)


def test_metrics_op_counts_only_while_telemetry_is_enabled(tmp_path):
    """The ``metrics`` op always answers (seq-echoed), but with
    telemetry disabled the counters never move - the op is a window,
    not a switch."""
    from repro import obs

    async def sweep(port, specs, name):
        client = await CampaignClient.connect(port=port)
        try:
            rid = await client.submit(CampaignRequest(specs=tuple(specs)))
            await client.stream(rid, stream_path=tmp_path / f"{name}.jsonl")
            return await client.metrics()
        finally:
            await client.close()

    async def go():
        service = CampaignService()
        await service.start()
        server = await serve_tcp(service)
        port = server.sockets[0].getsockname()[1]
        try:
            obs.disable()
            dark = await sweep(port, cheap_specs()[:2], "dark")
            obs.enable()
            lit = await sweep(port, cheap_specs()[2:], "lit")
        finally:
            server.close()
            await server.wait_closed()
            await service.shutdown()
        return dark, lit

    was = obs.enabled()
    try:
        dark, lit = asyncio.run(go())
    finally:
        (obs.enable if was else obs.disable)()

    def streamed(reply) -> int:
        return sum(reply["metrics"]["counters"]
                   .get("service.records.streamed", {}).values())

    assert "metrics" in dark and "spans" in dark
    # the second sweep streamed 2 records with telemetry on; the first
    # contributed nothing while disabled
    assert streamed(lit) - streamed(dark) == 2
    resolved = lit["metrics"]["counters"]["service.cells.resolved"]
    assert sum(v for k, v in resolved.items() if "how=computed" in k) >= 2
