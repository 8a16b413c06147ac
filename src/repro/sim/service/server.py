"""The resident campaign sweep server: asyncio over a supervised fleet.

:class:`CampaignService` holds the shared state - one supervised worker
fleet, one content-addressed record cache, one priority queue of cells -
and any number of transports feed it connections (:func:`serve_tcp`,
:func:`serve_stdio`, or tests calling :meth:`CampaignService.submit`
directly).  The design invariants:

* **Spec-order streaming.**  Each request's records are delivered in spec
  order no matter how workers interleave; a streaming client's file is
  byte-identical to a local run of the same request.
* **Cross-request dedup.**  A cell is identified by ``spec.key()``.
  Before computing, a request consults the shared cache (cells finished
  by *anyone*, ever, with a disk cache) and the in-flight table (cells
  being computed *right now* for another request, joined instead of
  recomputed).  Overlapping sweeps from concurrent clients therefore pay
  for the union once.
* **Priorities.**  Cells enter one global priority queue ordered by
  (request priority desc, submit order); a high-priority sweep overtakes
  the undispatched tail of earlier work without preempting running cells.
* **Back-pressure.**  ``max_pending`` bounds simultaneously-active
  requests and ``max_active_cells`` bounds their total cells; a submit
  that would exceed either is rejected with a typed ``queue-full`` error.
  Cancelling a request frees its slots immediately.
* **Crash resume.**  Every computed cell is ``put`` into the cache as it
  completes, so a service killed mid-sweep and restarted on the same
  cache directory replays the finished cells and computes only the rest.
* **Supervised workers.**  Cells execute on a supervised fleet of
  ``workers_proc`` worker *subprocesses*
  (:mod:`repro.sim.service.supervisor`): worker death (SIGKILL, crash,
  closed pipe), hangs (heartbeat silence), and per-cell deadline
  overruns are detected and the lost cell is requeued onto a healthy
  worker with bounded exponential backoff, with dead workers respawned
  up to a budget.  **At-most-once compute + content-addressed dedup =
  exactly-once records**: a cell computed twice because its worker died
  after finishing but before reporting resolves to the same bytes, so
  the client-visible stream is byte-identical to a fault-free run - the
  property the deterministic chaos harness
  (:mod:`repro.sim.service.chaos`) asserts under seeded kill/stall/
  sever/poison schedules.  A spec that kills two workers in a row is
  quarantined as a typed per-cell ``status="error"`` record
  (:class:`~repro.sim.campaign.CellErrorRecord`) instead of retried
  forever; so is a spec that raises cleanly in-worker.
* **Graceful drain.**  :meth:`CampaignService.shutdown` finishes the
  cells already executing (they land in the cache), fails the rest
  typed, answers every open stream with a ``shutting-down`` error frame
  (its ``seq`` echoed) instead of a bare closed socket, flushes the disk
  cache, and only then stops the fleet.
"""

from __future__ import annotations

import asyncio
import itertools
import time

from repro import obs
from repro.sim.campaign.cache import MemoryRecordCache, RecordCache
from repro.sim.campaign.request import CampaignRequest, record_to_obj
from repro.sim.service.protocol import (
    PROTOCOL_VERSION,
    CampaignServiceError,
    decode_message,
    encode_message,
    error_payload,
)
from repro.sim.service.supervisor import CellFailed, WorkerSupervisor

# Out-of-band telemetry (repro.obs).  Every series here observes the
# service; none may influence scheduling, caching, or record bytes -
# the property the telemetry-on/off stream-diff tests enforce.
_REQUESTS_SUBMITTED = obs.counter(
    "service.requests.submitted", "Requests accepted by submit()")
_REQUESTS_FINISHED = obs.counter(
    "service.requests.finished", "Requests finished, by final status")
_CELLS_REQUESTED = obs.counter(
    "service.cells.requested", "Cells across submitted requests, by domain")
_CELLS_RESOLVED = obs.counter(
    "service.cells.resolved",
    "Cells resolved per request: how=replayed|joined|computed")
_DEDUP_HITS = obs.counter(
    "service.dedup.hits",
    "Cells deduplicated across requests (cache replays + in-flight joins)")
_CELLS_FAILED = obs.counter(
    "service.cells.failed", "Cells surfaced as error records, by kind")
_RECORDS_STREAMED = obs.counter(
    "service.records.streamed", "Record frames pushed to stream subscribers")
_CELL_SECONDS = obs.histogram(
    "service.cell_seconds", "Cell compute wall time by domain")
_STREAM_FIRST = obs.histogram(
    "service.stream.first_record_seconds",
    "Subscribe-to-first-record latency per stream")
_STREAM_DRAIN = obs.histogram(
    "service.stream.drain_seconds", "Subscribe-to-done latency per stream")


class _CellJob:
    """One unique cell being (or waiting to be) computed.

    ``waiters`` counts the active requests that still want the result; a
    job whose waiters all cancelled is dropped unstarted when the
    dispatcher reaches it.  The future resolves for every joiner at once.
    """

    __slots__ = ("key", "spec", "future", "waiters", "started")

    def __init__(self, key, spec, future):
        self.key = key
        self.spec = spec
        self.future = future
        self.waiters = 0
        self.started = False


class _RequestState:
    """Server-side bookkeeping for one submitted request."""

    def __init__(self, rid: str, request: CampaignRequest, specs: list, priority: int):
        self.rid = rid
        self.request = request
        self.specs = specs
        self.priority = priority
        self.records: list = []  # delivered records, spec order
        self.done = False
        self.cancelled = False
        self.error: str | None = None
        self.finished = False  # slots released (done or cancelled)
        self.cond = asyncio.Condition()  # notifies streamers of progress
        self.jobs: list[_CellJob] = []  # jobs this request holds a waiter on
        self.replayed = 0  # cells served from the cache
        self.joined = 0  # cells joined in flight
        self.computed = 0  # cells this request had to schedule

    @property
    def status(self) -> str:
        if self.cancelled:
            return "cancelled"
        if self.error:
            return "error"
        return "ok" if self.done else "running"

    def summary(self) -> dict:
        return {
            "id": self.rid,
            "status": self.status,
            "message": self.error or "",
            "priority": self.priority,
            "cells": len(self.specs),
            "ran": len(self.records),
            "verified": sum(1 for r in self.records if r.verified),
            # every record class exposes a typed ``status`` accessor
            # (enforced at domain registration) - no getattr probing:
            # quarantined/compute-error cells count exactly
            "failed": sum(1 for r in self.records if r.status == "error"),
            "replayed": self.replayed,
            "joined": self.joined,
            "computed": self.computed,
        }


class CampaignService:
    """A long-running sweep server many concurrent clients submit to.

    ``workers_proc`` sizes the supervised worker fleet every cell runs on
    (determinism is unaffected - records are pure functions of specs);
    ``supervisor_options`` is passed unchanged to
    :class:`~repro.sim.service.supervisor.WorkerSupervisor` (deadlines,
    heartbeat, respawn budget, quarantine strikes, chaos schedule).
    ``cache`` is a directory path, a :class:`RecordCache`, or None for a
    process-lifetime in-memory cache.  Call :meth:`start` inside a
    running event loop, then hand :meth:`handle_connection` to any
    stream transport.
    """

    def __init__(
        self,
        *,
        workers_proc: int = 1,
        cache=None,
        max_pending: int = 8,
        max_active_cells: int = 100_000,
        supervisor_options: dict | None = None,
    ):
        if cache is None:
            cache = MemoryRecordCache()
        elif not isinstance(cache, RecordCache):
            cache = RecordCache(cache)
        self.cache = cache
        self.workers = max(1, workers_proc)
        self._supervisor = WorkerSupervisor(self.workers, **(supervisor_options or {}))
        self.max_pending = max_pending
        self.max_active_cells = max_active_cells
        self.requests: dict[str, _RequestState] = {}
        self.computed = 0  # cells actually executed
        self.dispatch_log: list[str] = []  # cell keys in dispatch order
        self._inflight: dict[str, _CellJob] = {}
        self._seq = itertools.count()
        self._active = 0  # unfinished requests
        self._active_cells = 0  # their total cells
        self._closing = False
        self._dispatcher: asyncio.Task | None = None
        self._request_tasks: set[asyncio.Task] = set()
        self._cell_tasks: set[asyncio.Task] = set()
        self._stream_tasks: set[asyncio.Task] = set()
        self._queue: asyncio.PriorityQueue | None = None
        self._slots: asyncio.Semaphore | None = None
        self._unpaused: asyncio.Event | None = None
        self._started: float | None = None  # monotonic, set by start()

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Spawn the worker fleet and start the cell dispatcher."""
        await self._supervisor.start()
        self._queue = asyncio.PriorityQueue()
        self._slots = asyncio.Semaphore(self.workers)
        self._unpaused = asyncio.Event()
        self._unpaused.set()
        self._started = time.monotonic()
        self._register_gauges()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    def _register_gauges(self) -> None:
        """Lazily-read gauges: evaluated at snapshot time, so they cost
        nothing between scrapes.  Last started service wins the series -
        fine, because a process hosts one live service at a time."""
        obs.gauge("service.queue.depth",
                  "Cells waiting in the dispatch queue").set_fn(
            lambda: self._queue.qsize() if self._queue is not None else 0)
        obs.gauge("service.requests.active",
                  "Unfinished requests").set_fn(lambda: self._active)
        obs.gauge("service.cells.active",
                  "Cells belonging to active requests").set_fn(
            lambda: self._active_cells)
        obs.gauge("service.cells.inflight",
                  "Cells being computed right now").set_fn(
            lambda: len(self._inflight))
        obs.gauge("service.uptime_s",
                  "Seconds since the service started").set_fn(
            lambda: round(time.monotonic() - self._started, 3)
            if self._started is not None else 0.0)

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop the service without stranding anyone mid-socket.

        ``drain=True`` (default): cells already *executing* run to
        completion and land in the cache; queued-but-unstarted cells are
        abandoned, their requests finish with a shutdown error, and
        every open stream is answered with a typed ``shutting-down``
        error frame (its ``seq`` echoed) - no client ever sees a bare
        closed socket.  The disk cache is flushed before the fleet stops,
        so a new service started on the same cache directory completes
        interrupted sweeps from where this one stopped (the crash-resume
        recipe; a SIGKILL'd service resumes the same way, it just drains
        nothing first).

        ``drain=False`` is kill-like: running cells are cancelled too.
        """
        self._closing = True
        # nothing new starts: stop the dispatcher first
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            await asyncio.gather(self._dispatcher, return_exceptions=True)
        cell_tasks = [t for t in self._cell_tasks if not t.done()]
        if not drain:
            for task in cell_tasks:
                task.cancel()
        if cell_tasks:
            await asyncio.gather(*cell_tasks, return_exceptions=True)
        # queued cells nobody will ever run: fail their joiners typed
        for job in list(self._inflight.values()):
            if not job.future.done():
                job.future.cancel()
        self._inflight.clear()
        # requests observe the cancellations, finish, and wake streamers
        request_tasks = [t for t in self._request_tasks if not t.done()]
        if request_tasks:
            await asyncio.gather(*request_tasks, return_exceptions=True)
        # every open stream sends its final typed frame (bounded: the
        # requests are finished, so streams only flush and say goodbye)
        stream_tasks = [t for t in self._stream_tasks if not t.done()]
        if stream_tasks:
            _, pending = await asyncio.wait(stream_tasks, timeout=5.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self.cache.flush()
        await self._supervisor.stop()

    def pause(self) -> None:
        """Hold the dispatcher (cells queue but none start).  Tests use
        this to make priority ordering and back-pressure deterministic."""
        self._unpaused.clear()

    def resume(self) -> None:
        self._unpaused.set()

    @staticmethod
    def _track(tasks: set, task: asyncio.Task) -> None:
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    # -- the core API (transport-free) ----------------------------------

    def submit(
        self,
        request: CampaignRequest,
        *,
        rid: str | None = None,
        priority: int | None = None,
    ) -> _RequestState:
        """Register a sweep; raises typed errors, returns its state."""
        if self._closing:
            raise CampaignServiceError("shutting-down", "the service is draining")
        try:
            specs = request.resolve_specs()
        except (TypeError, ValueError) as exc:
            raise CampaignServiceError("bad-request", str(exc)) from exc
        if rid is None:
            rid = f"req-{next(self._seq)}"
        if rid in self.requests:
            raise CampaignServiceError("duplicate-request", f"request id {rid!r} already exists")
        if self._active >= self.max_pending:
            raise CampaignServiceError(
                "queue-full",
                f"{self._active} requests already pending "
                f"(max_pending={self.max_pending}); cancel one or retry "
                f"after a sweep finishes",
            )
        if self._active_cells + len(specs) > self.max_active_cells:
            raise CampaignServiceError(
                "queue-full",
                f"{len(specs)} cells would exceed the bounded queue "
                f"({self._active_cells} active, "
                f"max_active_cells={self.max_active_cells})",
            )
        if priority is None:
            priority = request.priority
        state = _RequestState(rid, request, specs, priority)
        self.requests[rid] = state
        self._active += 1
        self._active_cells += len(specs)
        _REQUESTS_SUBMITTED.inc()
        if obs.REGISTRY.enabled:
            for spec in specs:
                _CELLS_REQUESTED.inc(domain=spec.domain)
        self._track(self._request_tasks, asyncio.create_task(self._serve_request(state)))
        return state

    async def cancel(self, rid: str) -> dict:
        """Stop a request and free its queue slots immediately."""
        state = self._get(rid)
        if not state.finished:
            state.cancelled = True
            for job in state.jobs:
                if not job.future.done():
                    job.waiters -= 1
            await self._finish(state)
        return state.summary()

    def status(self) -> dict:
        """Global and per-request counters (the ``status`` op payload).

        The full payload schema is documented in
        :mod:`repro.sim.service.protocol`.
        """
        return {
            "op": "status",
            "protocol": PROTOCOL_VERSION,
            "uptime_s": (round(time.monotonic() - self._started, 3)
                         if self._started is not None else 0.0),
            "pool": "workers-proc",
            "active": self._active,
            "active_cells": self._active_cells,
            "computed": self.computed,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "inflight": len(self._inflight),
            "workers": self.workers,
            "supervised": True,
            "max_pending": self.max_pending,
            "max_active_cells": self.max_active_cells,
            "requests": {rid: state.summary() for rid, state in self.requests.items()},
            "supervisor": self._supervisor.summary(),
        }

    def _get(self, rid) -> _RequestState:
        state = self.requests.get(rid)
        if state is None:
            raise CampaignServiceError("unknown-request", f"no request with id {rid!r}")
        return state

    async def stream_records(self, state: _RequestState):
        """Yield ``(index, record)`` in spec order until the request ends.

        Already-delivered records replay from the buffer first, so a
        streamer attaching late (or re-attaching after a dropped
        connection) still sees the complete, gapless sequence.
        """
        index = 0
        while True:
            async with state.cond:
                await state.cond.wait_for(lambda: len(state.records) > index or state.done)
                fresh = state.records[index:]
            for record in fresh:
                yield index, record
                index += 1
            if state.done and index >= len(state.records):
                return

    # -- internals ------------------------------------------------------

    async def _finish(self, state: _RequestState) -> None:
        if state.finished:
            return
        state.finished = True
        self._active -= 1
        self._active_cells -= len(state.specs)
        _REQUESTS_FINISHED.inc(status=state.status)
        async with state.cond:
            state.done = True
            state.cond.notify_all()

    async def _serve_request(self, state: _RequestState) -> None:
        """Resolve every cell (cache replay, in-flight join, or fresh
        compute) and deliver records in spec order."""
        loop = asyncio.get_running_loop()
        pending: list = []
        for spec in state.specs:
            if state.cancelled:
                # cancelled before this task first ran: enqueue nothing, or
                # the cells would hold phantom waiters and compute for nobody
                break
            record = self.cache.get(spec)
            if record is not None:
                state.replayed += 1
                _CELLS_RESOLVED.inc(how="replayed", domain=spec.domain)
                _DEDUP_HITS.inc()
                pending.append(record)
                continue
            key = spec.key()
            job = self._inflight.get(key)
            if job is None:
                job = _CellJob(key, spec, loop.create_future())
                self._inflight[key] = job
                self._queue.put_nowait((-state.priority, next(self._seq), job))
                state.computed += 1
                _CELLS_RESOLVED.inc(how="computed", domain=spec.domain)
            else:
                state.joined += 1
                _CELLS_RESOLVED.inc(how="joined", domain=spec.domain)
                _DEDUP_HITS.inc()
            job.waiters += 1
            state.jobs.append(job)
            pending.append(job)
        try:
            for item in pending:
                if state.cancelled:
                    break
                if isinstance(item, _CellJob):
                    # shield: the job may be shared with other requests,
                    # so this task's cancellation must not cancel the cell
                    record = await asyncio.shield(item.future)
                else:
                    record = item
                if state.cancelled:
                    break
                async with state.cond:
                    state.records.append(record)
                    state.cond.notify_all()
        except asyncio.CancelledError:
            if not state.cancelled:
                state.error = state.error or "interrupted by service shutdown"
        except Exception as exc:  # a cell raised while computing
            state.error = f"{type(exc).__name__}: {exc}"
        finally:
            await self._finish(state)

    async def _dispatch_loop(self) -> None:
        """Pull cells off the global priority queue into worker slots."""
        while True:
            _, _, job = await self._queue.get()
            await self._unpaused.wait()
            if job.started or job.future.done():
                continue
            if job.waiters <= 0:
                self._drop(job)
                continue
            await self._slots.acquire()
            # re-check: waiters may have cancelled while we held no slot
            if job.started or job.future.done() or job.waiters <= 0:
                self._slots.release()
                if not job.started:
                    self._drop(job)
                continue
            job.started = True
            self.dispatch_log.append(job.key)
            self._track(self._cell_tasks, asyncio.create_task(self._run_cell(job)))

    def _drop(self, job: _CellJob) -> None:
        """Abandon a queued cell nobody wants any more."""
        self._inflight.pop(job.key, None)
        if not job.future.done():
            job.future.cancel()

    async def _run_cell(self, job: _CellJob) -> None:
        started = time.perf_counter()
        try:
            record = await self._supervisor.run_cell(job.spec)
        except asyncio.CancelledError:
            self._inflight.pop(job.key, None)
            if not job.future.done():
                job.future.cancel()
            raise
        except CellFailed as exc:
            # the fleet gave up on this spec (quarantined, or it raised
            # in-worker): surface a typed per-cell error *record* in the
            # stream, never cached - a restarted service retries it
            record = exc.record(job.spec)
            _CELLS_FAILED.inc(kind=exc.kind)
            self._inflight.pop(job.key, None)
            if not job.future.done():
                job.future.set_result(record)
        except Exception as exc:
            self._inflight.pop(job.key, None)
            if not job.future.done():
                job.future.set_exception(exc)
                job.future.exception()  # mark retrieved even if abandoned
        else:
            self.cache.put(job.spec, record)
            self.computed += 1
            _CELL_SECONDS.labels(domain=job.spec.domain).observe(
                time.perf_counter() - started)
            self._inflight.pop(job.key, None)
            if not job.future.done():
                job.future.set_result(record)
        finally:
            self._slots.release()

    # -- transport ------------------------------------------------------

    async def handle_connection(self, reader, writer) -> None:
        """Serve one JSONL client connection (TCP or stdio).

        Each incoming message is handled independently; ``stream``
        subscriptions run as their own tasks so status/cancel/submit stay
        responsive mid-stream.  Dropping the connection abandons its
        streams but **not** its submitted requests - they keep computing
        (into the shared cache), which is what lets a killed client
        reconnect and resume.
        """
        lock = asyncio.Lock()
        conn_tasks: set[asyncio.Task] = set()

        async def send(payload: dict) -> None:
            async with lock:
                writer.write(encode_message(payload))
                await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    msg = decode_message(line)
                except CampaignServiceError as exc:
                    await send(error_payload(exc.code, exc.detail))
                    continue
                seq = msg.get("seq")
                try:
                    await self._handle_message(msg, seq, send, conn_tasks)
                except CampaignServiceError as exc:
                    await send(error_payload(exc.code, exc.detail, seq=seq, rid=msg.get("id")))
                except Exception as exc:  # never kill the connection loop
                    await send(error_payload("internal", f"{type(exc).__name__}: {exc}", seq=seq))
        finally:
            for task in conn_tasks:
                task.cancel()
            if conn_tasks:
                await asyncio.gather(*conn_tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_message(self, msg, seq, send, conn_tasks) -> None:
        op = msg.get("op")
        if op == "submit":
            try:
                request = CampaignRequest.from_obj(msg.get("request"))
            except (TypeError, ValueError) as exc:
                raise CampaignServiceError("bad-request", str(exc)) from exc
            state = self.submit(request, rid=msg.get("id"), priority=msg.get("priority"))
            reply = {
                "op": "submitted",
                "seq": seq,
                "id": state.rid,
                "cells": len(state.specs),
                "priority": state.priority,
            }
            await send(reply)
        elif op == "stream":
            state = self._get(msg.get("id"))
            task = asyncio.create_task(self._stream_guarded(state, seq, send))
            conn_tasks.add(task)
            task.add_done_callback(conn_tasks.discard)
            self._track(self._stream_tasks, task)  # shutdown waits on these
        elif op == "status":
            payload = self.status()
            payload["seq"] = seq
            await send(payload)
        elif op == "metrics":
            # a telemetry-disabled server answers with empty series, not
            # an error: scrapers need no knowledge of REPRO_OBS
            await send({"op": "metrics", "seq": seq,
                        "metrics": obs.snapshot(),
                        "spans": obs.TRACER.snapshot()})
        elif op == "cancel":
            summary = await self.cancel(msg.get("id"))
            await send({"op": "cancelled", "seq": seq, **summary})
        else:
            raise CampaignServiceError("unknown-op", f"unknown op {op!r}")

    async def _stream_guarded(self, state: _RequestState, seq, send) -> None:
        """Run a stream subscription with the connection-loop error
        contract: a failure inside the (fire-and-forget) stream task must
        reach the client as a typed ``internal`` error with the request's
        ``seq`` echoed - not vanish into a dropped task result.  The
        request's compute side is untouched: its queue slots are freed by
        ``_serve_request``'s own finally, streamed or not.
        """
        try:
            await self._stream_to(state, seq, send)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            try:
                await send(error_payload(
                    "internal", f"{type(exc).__name__}: {exc}",
                    seq=seq, rid=state.rid))
            except (ConnectionError, OSError):
                pass  # client went away mid-report; nothing left to tell

    async def _stream_to(self, state: _RequestState, seq, send) -> None:
        subscribed = time.perf_counter()
        first_pushed = False
        async for index, record in self.stream_records(state):
            push = {
                "op": "record",
                "seq": seq,
                "id": state.rid,
                "index": index,
                "record": record_to_obj(record),
            }
            await send(push)
            _RECORDS_STREAMED.inc()
            if not first_pushed:
                first_pushed = True
                _STREAM_FIRST.observe(time.perf_counter() - subscribed)
        _STREAM_DRAIN.observe(time.perf_counter() - subscribed)
        if self._closing and state.error and not state.cancelled:
            # drained away mid-sweep: the client gets a typed goodbye with
            # its stream seq echoed, never a bare closed socket
            await send(error_payload("shutting-down", state.error,
                                     seq=seq, rid=state.rid))
            return
        await send({"op": "done", "seq": seq, **state.summary()})


async def serve_tcp(service: CampaignService, host: str = "127.0.0.1", port: int = 0):
    """Listen on TCP; ``port=0`` picks an ephemeral port (see
    ``server.sockets[0].getsockname()``)."""
    return await asyncio.start_server(service.handle_connection, host, port)


async def serve_stdio(service: CampaignService) -> None:
    """Serve exactly one client over this process's stdin/stdout."""
    import sys

    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    protocol = asyncio.StreamReaderProtocol(reader)
    await loop.connect_read_pipe(lambda: protocol, sys.stdin)
    transport, writer_protocol = await loop.connect_write_pipe(
        asyncio.streams.FlowControlMixin,
        sys.stdout,
    )
    writer = asyncio.StreamWriter(transport, writer_protocol, reader, loop)
    await service.handle_connection(reader, writer)
