"""The supervised worker fleet: cell execution that survives its workers.

:class:`WorkerSupervisor` owns a pool of worker *subprocesses*
(:mod:`repro.sim.service.worker`) speaking the service's line-JSON
framing over pipes, and gives the campaign server and the local runner
(``execute_request`` with ``workers >= 2``) one call, :meth:`run_cell`,
with a hard robustness contract:

* **Failure detection.**  A worker is declared lost on a closed pipe or
  exit (SIGKILL, crash), on heartbeat silence longer than the liveness
  window (a wedged process), or when a cell outlives its deadline -
  ``max(timeout_floor, cell_timeout * spec.scale)``, so big cells get
  proportionally more rope but a floor keeps tiny cells from flapping.
* **Bounded recovery.**  A lost cell is requeued onto a healthy worker
  after a bounded exponential backoff (``backoff * 2^attempt``, capped);
  the dead worker is respawned while the respawn budget lasts.  Because
  records are pure functions of specs and the service dedups through the
  content-addressed cache, a cell computed twice (the worker died after
  finishing but before reporting) is indistinguishable from a cell
  computed once: **at-most-once report + requeue + dedup = exactly-once
  records**, byte-identical to a fault-free run.
* **Quarantine.**  A spec that kills ``quarantine_strikes`` (default 2)
  workers in a row is not retried forever: :meth:`run_cell` raises
  :class:`CellFailed` (kind ``"quarantined"``) and the caller turns it
  into a typed ``status="error"`` record in the stream.  A spec that
  merely *raises* inside a worker costs one round trip, no respawn:
  the worker reports ``cell-error`` and stays in the fleet
  (:class:`CellFailed`, kind ``"compute-error"``).
* **Exhaustion is loud.**  If the fleet dies faster than the budget
  allows and no workers remain, :meth:`run_cell` raises
  :class:`WorkerPoolError` - the request fails typed instead of hanging.
* **Graceful drain.**  :meth:`stop` sends every idle worker ``exit``,
  waits briefly, and kills stragglers.

Fault injection for the deterministic chaos harness rides the ``cell``
frames: the supervisor numbers every dispatch and attaches the fault the
schedule keys to that ordinal (:mod:`repro.sim.service.chaos`); the
worker acts on it.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import sys
import time
from pathlib import Path

from repro import obs
from repro.sim.campaign import CellErrorRecord
from repro.sim.campaign.request import record_from_obj, spec_to_obj
from repro.sim.service.chaos import ChaosSchedule
from repro.sim.service.protocol import encode_message
from repro.sim.service.worker import HEARTBEAT_ENV

#: default per-cell compute budget, scaled by ``spec.scale``
CELL_TIMEOUT = 60.0
#: no cell deadline is ever shorter than this
TIMEOUT_FLOOR = 10.0
#: default heartbeat interval handed to workers (seconds)
HEARTBEAT = 1.0
#: first requeue backoff (seconds); doubles per attempt, capped
BACKOFF = 0.05
BACKOFF_CAP = 1.0
#: default total respawns allowed over the supervisor's lifetime
RESPAWN_BUDGET = 8
#: worker-fatal attempts on one spec before it is quarantined
QUARANTINE_STRIKES = 2
#: liveness slack for a just-spawned worker (interpreter boot + imports
#: happen before its first frame; only then does the normal window apply)
SPAWN_GRACE = 15.0

# Out-of-band fleet telemetry (repro.obs): counters mirror the summary()
# fields but accumulate across supervisor lifetimes in one process.
_WORKERS_SPAWNED = obs.counter(
    "service.workers.spawned", "Worker subprocesses spawned (incl. respawns)")
_WORKERS_LOST = obs.counter(
    "service.workers.lost", "Workers declared dead (crash, hang, deadline)")
_WORKERS_RESPAWNED = obs.counter(
    "service.workers.respawned", "Replacement workers spawned after a loss")
_CELLS_REQUEUED = obs.counter(
    "service.cells.requeued", "Lost cells requeued onto a healthy worker")
_CELLS_QUARANTINED = obs.counter(
    "service.cells.quarantined", "Specs given up on after repeated kills")


class WorkerLost(Exception):
    """Internal: the worker serving a cell died, hung, or timed out."""


class CellFailed(Exception):
    """A cell could not produce a record; ``kind`` says why, typed.

    ``"quarantined"``: the spec killed ``quarantine_strikes`` workers in
    a row.  ``"compute-error"``: the spec raised inside a (healthy)
    worker.  The server and the local runner render both as per-cell
    ``status="error"`` records, never as transport errors.
    """

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail

    def record(self, spec) -> CellErrorRecord:
        """The typed error record that stands in ``spec``'s stream slot."""
        return CellErrorRecord(label=spec.label, key=spec.key(),
                               error=self.kind, message=self.detail)


class WorkerPoolError(Exception):
    """The fleet is gone: no live workers and no respawn budget left."""


class _Worker:
    """One spawned subprocess plus its pipes."""

    __slots__ = ("proc", "ready")

    def __init__(self, proc: asyncio.subprocess.Process):
        self.proc = proc
        self.ready = False  # first frame seen (spawn grace no longer applies)

    @property
    def alive(self) -> bool:
        return self.proc.returncode is None

    async def send(self, payload: dict) -> None:
        self.proc.stdin.write(encode_message(payload))
        await self.proc.stdin.drain()

    def kill(self) -> None:
        if self.alive:
            try:
                self.proc.kill()
            except ProcessLookupError:
                pass


class WorkerSupervisor:
    """Spawn, watch, bury, respawn, and drain a fleet of cell workers."""

    def __init__(
        self,
        workers: int,
        *,
        cell_timeout: float | None = None,
        timeout_floor: float | None = None,
        heartbeat: float | None = None,
        liveness: float | None = None,
        backoff: float = BACKOFF,
        respawn_budget: int | None = None,
        quarantine_strikes: int = QUARANTINE_STRIKES,
        chaos: ChaosSchedule | None = None,
    ):
        self.size = max(1, workers)
        self.cell_timeout = CELL_TIMEOUT if cell_timeout is None else cell_timeout
        self.timeout_floor = TIMEOUT_FLOOR if timeout_floor is None else timeout_floor
        self.heartbeat = HEARTBEAT if heartbeat is None else heartbeat
        #: a worker with no output for this long is hung (heartbeats
        #: arrive every ``heartbeat`` seconds while a cell computes)
        self.liveness = max(4 * self.heartbeat, 0.2) if liveness is None else liveness
        self.backoff = backoff
        self.respawn_budget = RESPAWN_BUDGET if respawn_budget is None else respawn_budget
        self.quarantine_strikes = max(1, quarantine_strikes)
        self.chaos = chaos
        # observability counters (surfaced via the service's status op)
        self.respawns = 0
        self.lost = 0
        self.requeues = 0
        self.quarantined = 0
        self._alive: set[_Worker] = set()
        self._idle: asyncio.Queue[_Worker] = asyncio.Queue()
        self._strikes: dict[str, int] = {}
        #: the global dispatch ordinal: one per ``cell`` frame sent
        self._jobs = itertools.count()
        self._closing = False
        self._failed: str | None = None
        self._last_frame: float | None = None  # monotonic, newest worker frame

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        for _ in range(self.size):
            await self._spawn()
        # lazily-read fleet gauges (evaluated only at snapshot time)
        obs.gauge("service.workers.alive",
                  "Live worker subprocesses").set_fn(
            lambda: len(self._alive))
        obs.gauge("service.workers.heartbeat_age_s",
                  "Seconds since the newest frame from any worker").set_fn(
            lambda: (round(time.monotonic() - self._last_frame, 3)
                     if self._last_frame is not None else -1.0))

    async def stop(self) -> None:
        """Drain gracefully: ask workers to exit, then kill stragglers."""
        self._closing = True
        for worker in list(self._alive):
            try:
                await worker.send({"op": "exit"})
            except (ConnectionError, OSError):
                pass
        waits = [worker.proc.wait() for worker in self._alive]
        if waits:
            done, pending = await asyncio.wait(
                [asyncio.ensure_future(w) for w in waits], timeout=2.0
            )
            if pending:
                for worker in list(self._alive):
                    worker.kill()
                await asyncio.gather(*pending, return_exceptions=True)
        self._alive.clear()

    async def _spawn(self) -> None:
        env = os.environ.copy()
        # the worker must import repro however the server itself was run
        src = str(Path(__file__).resolve().parents[3])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
        env[HEARTBEAT_ENV] = str(self.heartbeat)
        # -c, not -m: the package __init__ imports this module, so runpy
        # would warn about re-executing an already-imported module
        proc = await asyncio.create_subprocess_exec(
            sys.executable,
            "-c",
            "from repro.sim.service.worker import main; raise SystemExit(main())",
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=env,
        )
        worker = _Worker(proc)
        _WORKERS_SPAWNED.inc()
        self._alive.add(worker)
        self._idle.put_nowait(worker)

    async def _bury(self, worker: _Worker) -> None:
        """A worker is lost: kill, reap, and respawn within budget."""
        self.lost += 1
        _WORKERS_LOST.inc()
        worker.kill()
        self._alive.discard(worker)
        await worker.proc.wait()
        if self._closing:
            return
        if self.respawns < self.respawn_budget:
            self.respawns += 1
            _WORKERS_RESPAWNED.inc()
            await self._spawn()
        elif not self._alive:
            self._failed = (
                f"worker pool exhausted: {self.lost} workers lost, "
                f"respawn budget {self.respawn_budget} spent"
            )

    # -- the one public call --------------------------------------------

    def deadline_for(self, spec) -> float:
        """Per-cell compute budget: scaled by spec size, floored."""
        scale = max(1, getattr(spec, "scale", 1) or 1)
        return max(self.timeout_floor, self.cell_timeout * scale)

    async def run_cell(self, spec):
        """Compute one cell on the fleet; requeue across failures.

        Returns the domain record.  Raises :class:`CellFailed` for
        quarantined or cleanly-failing specs, :class:`WorkerPoolError`
        when the fleet is gone.
        """
        key = spec.key()
        attempt = 0
        while True:
            worker = await self._checkout()
            try:
                reply = await self._execute(worker, spec)
            except WorkerLost as lost:
                await self._bury(worker)
                strikes = self._strikes[key] = self._strikes.get(key, 0) + 1
                if strikes >= self.quarantine_strikes:
                    self._strikes.pop(key, None)
                    self.quarantined += 1
                    _CELLS_QUARANTINED.inc()
                    raise CellFailed(
                        "quarantined",
                        f"cell killed {strikes} workers in a row; not retrying ({lost})",
                    ) from lost
                attempt += 1
                self.requeues += 1
                _CELLS_REQUEUED.inc()
                await asyncio.sleep(min(self.backoff * (2 ** (attempt - 1)), BACKOFF_CAP))
                continue
            self._strikes.pop(key, None)
            self._idle.put_nowait(worker)
            if reply.get("op") == "cell-error":
                raise CellFailed("compute-error", reply.get("message", "worker reported failure"))
            return record_from_obj(reply["record"])

    async def _checkout(self) -> _Worker:
        """An idle, live worker - or :class:`WorkerPoolError`, loudly."""
        while True:
            if self._failed is not None:
                raise WorkerPoolError(self._failed)
            try:
                worker = await asyncio.wait_for(self._idle.get(), timeout=0.1)
            except asyncio.TimeoutError:
                continue  # re-check pool health, then keep waiting
            if worker.alive:
                return worker
            await self._bury(worker)  # died while idle; replacement queued

    async def _execute(self, worker: _Worker, spec) -> dict:
        """One job round trip; every failure mode becomes WorkerLost."""
        job = next(self._jobs)
        frame = {"op": "cell", "job": job, "spec": spec_to_obj(spec)}
        fault = None if self.chaos is None else self.chaos.fault_for(job, spec.key())
        if fault is not None:
            frame["chaos"] = fault.to_obj()
        try:
            await worker.send(frame)
        except (ConnectionError, OSError):
            raise WorkerLost("pipe closed while dispatching") from None
        loop = asyncio.get_running_loop()
        deadline = self.deadline_for(spec)
        end = loop.time() + deadline
        while True:
            remaining = end - loop.time()
            if remaining <= 0:
                raise WorkerLost(f"cell exceeded its {deadline:.1f}s deadline")
            liveness = self.liveness if worker.ready else max(self.liveness, SPAWN_GRACE)
            try:
                line = await asyncio.wait_for(
                    worker.proc.stdout.readline(), timeout=min(liveness, remaining)
                )
            except asyncio.TimeoutError:
                if loop.time() >= end:
                    raise WorkerLost(f"cell exceeded its {deadline:.1f}s deadline") from None
                raise WorkerLost(f"no heartbeat within {liveness:.1f}s (hung)") from None
            if not line:
                raise WorkerLost(f"worker died (exit {worker.proc.returncode})")
            try:
                msg = json.loads(line)
            except json.JSONDecodeError:
                raise WorkerLost("garbled frame from worker") from None
            worker.ready = True
            self._last_frame = time.monotonic()
            if msg.get("op") in ("heartbeat", "ready"):
                continue  # alive; the hard deadline still stands
            if msg.get("job") != job:
                continue  # stale frame from an abandoned life; resync
            return msg

    def summary(self) -> dict:
        """Counters for the service's ``status`` payload."""
        return {
            "workers": self.size,
            "alive": len(self._alive),
            "idle": self._idle.qsize(),
            "lost": self.lost,
            "respawns": self.respawns,
            "respawn_budget": self.respawn_budget,
            "requeues": self.requeues,
            "quarantined": self.quarantined,
        }
