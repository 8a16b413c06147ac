"""Campaign-as-a-service: a resident async sweep server for heavy traffic.

The one-shot campaign CLI pays full price for every sweep; this package
turns the runner into a long-lived **service** that many concurrent
clients submit :class:`~repro.sim.campaign.CampaignRequest`\\ s to, with:

* per-request **streaming** of records as cells complete, always in spec
  order, byte-identical to a local run of the same request;
* **cross-request dedup** through the shared content-addressed record
  cache (``spec.key()``): overlapping sweeps from concurrent clients
  compute the union of cells once;
* per-request **priorities**, bounded queues with typed ``queue-full``
  **back-pressure**, **cancellation** that frees queue slots, and crash
  **resume** from the cache.

Run it:  ``python -m repro.sim.service --port 0 --port-file port.txt
--workers-proc 4 --cache sweep-cache`` (or ``--stdio`` for a single
piped client).  Talk to it: ``python -m repro.sim.campaign --matrix smoke
--connect 127.0.0.1:PORT --stream out.jsonl``, or programmatically via
:class:`CampaignClient` / :func:`submit_and_stream`.

**The failure model**: cells execute on a supervised fleet of
``--workers-proc N`` worker *subprocesses* (:class:`WorkerSupervisor`
over :mod:`repro.sim.service.worker`), so a segfault, OOM kill, wedged
cell, or plain SIGKILL takes out one worker, never the service.  The
supervisor observes exactly three failure signals - a closed pipe
(death), heartbeat silence (hang), and the per-cell deadline
``max(timeout_floor, cell_timeout * spec.scale)`` (livelock) - and
responds the same way to each: kill and reap the worker, requeue its
cell with bounded exponential backoff, respawn a replacement while the
respawn budget lasts.  Compute is therefore **at-most-once per
attempt**, and because records are pure functions of their specs and
dedup is content-addressed (``spec.key()``), any recomputation resolves
to the same bytes: **at-most-once compute + dedup = exactly-once
records**, and the client-visible stream is byte-identical to a
fault-free run.  A spec that kills two workers in a row is
**quarantined** - streamed as a typed per-cell
:class:`~repro.sim.campaign.CellErrorRecord` (``domain: "cell_error"``,
``status: "error"``) instead of retried forever, and never cached, so a
restarted service retries it fresh.  :meth:`CampaignService.shutdown`
drains gracefully: executing cells finish into the cache, the rest fail
typed, every open stream gets a ``shutting-down`` frame (``seq``
echoed), and the disk cache is flushed before the fleet stops.

All of this is proven reproducibly by the deterministic chaos harness
(:mod:`repro.sim.service.chaos`): :meth:`ChaosSchedule.seeded` derives a
fault schedule (worker kills in the recv or report phase, silent or
heartbeating stalls, poisoned specs) from one integer seed, keyed by the
supervisor's global dispatch ordinal so every fault fires by
construction; the worker executes the fault its ``cell`` frame carries,
and the property suite (``tests/test_service_chaos.py``) plus
the CI ``chaos-smoke`` job assert stream bytes and slot accounting match
an undisturbed run - ``--chaos "seed=7,kills=2,stalls=1"`` replays any
schedule from the command line.

Observability
-------------

The service is instrumented end to end with :mod:`repro.obs` - a
process-local metrics registry (counters, gauges, histograms) plus a
span tracer - under one hard rule: **telemetry is out-of-band**.  No
metric or span ever enters a spec, a cache key, record bytes, or stream
order; the property suite diffs streams with ``REPRO_OBS=1`` vs ``0``
and requires byte identity.  With telemetry enabled (``--obs`` or
``REPRO_OBS=1``) the server counts submits, per-domain cell
resolutions (replayed/joined/computed), dedup hits, stream first-record
and drain latencies, and the supervised fleet's spawns, losses,
respawns, requeues, and quarantines, plus lazily-read gauges for queue
depth, in-flight cells, worker liveness, and heartbeat age.

Three ways to look at it:

* the ``metrics`` protocol op (:meth:`CampaignClient.metrics`) returns
  a registry snapshot plus recent spans, ``seq``-echoed like any other
  reply - and answers empty series, not an error, when telemetry is off;
* ``python -m repro.sim.campaign --metrics out.json`` dumps a snapshot
  after a CLI run;
* ``python -m repro.sim.service.dashboard HOST:PORT`` renders a live
  terminal dashboard - queue depth, fleet health, cells/sec, dedup
  rate, per-domain progress - by polling ``status`` + ``metrics``
  (``examples/dashboard_demo.py`` drives it against a chaos-injected
  fleet).

The wire protocol (line-oriented JSON) is specified in
:mod:`repro.sim.service.protocol` and in the campaign module docstring;
the server design invariants are documented in
:mod:`repro.sim.service.server`.
"""

from repro.sim.service.protocol import (
    PROTOCOL_VERSION,
    CampaignServiceError,
    decode_message,
    encode_message,
)
from repro.sim.service.chaos import CellFault, ChaosSchedule
from repro.sim.service.client import CampaignClient, submit_and_stream
from repro.sim.service.server import CampaignService, serve_stdio, serve_tcp
from repro.sim.service.supervisor import (
    CellFailed,
    WorkerPoolError,
    WorkerSupervisor,
)

__all__ = [
    "PROTOCOL_VERSION",
    "CampaignService",
    "CampaignServiceError",
    "CampaignClient",
    "CellFailed",
    "CellFault",
    "ChaosSchedule",
    "WorkerPoolError",
    "WorkerSupervisor",
    "decode_message",
    "encode_message",
    "serve_stdio",
    "serve_tcp",
    "submit_and_stream",
]
