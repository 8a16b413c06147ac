"""The supervised cell worker: one subprocess of the service's fleet.

``python -m repro.sim.service.worker`` speaks the campaign service's
line-JSON framing over its own stdin/stdout (see
:mod:`repro.sim.service.protocol`, "worker wire"):

* supervisor -> worker: ``{"op": "cell", "job": J, "spec":
  <spec_to_obj>}`` asks for one cell (plus a ``"chaos"`` fault under the
  chaos harness), ``{"op": "exit"}`` asks for a graceful drain (EOF on
  stdin means the same thing);
* worker -> supervisor: ``{"op": "heartbeat", "job": J}`` roughly every
  ``REPRO_WORKER_HEARTBEAT`` seconds while a cell computes (a background
  thread; silence is how the supervisor tells a wedged worker from a
  slow cell), then exactly one of ``{"op": "result", "job": J,
  "record": <record_to_obj>}`` or ``{"op": "cell-error", "job": J,
  "message": ...}`` (the spec raised cleanly; the worker itself is
  healthy and keeps serving).

Workers are *fail-silent by construction*: they never write anything but
complete frames, so the supervisor's failure model collapses to three
observable events - a closed pipe (death), heartbeat silence (hang), and
the per-cell deadline (livelock).  Computing a cell twice (a worker died
after finishing but before reporting, and the cell was requeued) is
harmless: records are pure functions of specs, so the requeued result is
byte-identical and the service's content-addressed dedup keeps the
client stream single-copy.

Chaos injection (tests and the CI ``chaos-smoke`` job only): a ``cell``
frame may carry a ``"chaos"`` field, a
:class:`~repro.sim.service.chaos.CellFault` the supervisor scheduled for
that dispatch - ``os._exit`` before computing or after computing but
before reporting, or a stall after computing (silent or with
heartbeats).  The worker acts on the frame it received, so the fault
fires whichever worker the dispatch lands on.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

from repro.sim.service.protocol import encode_message

#: seconds between heartbeats while a cell computes
HEARTBEAT_ENV = "REPRO_WORKER_HEARTBEAT"
DEFAULT_HEARTBEAT = 1.0


def main() -> int:
    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    write_lock = threading.Lock()  # heartbeat thread and main thread share stdout
    heartbeat_s = float(os.environ.get(HEARTBEAT_ENV, str(DEFAULT_HEARTBEAT)))

    def emit(payload: dict) -> None:
        frame = encode_message(payload)
        with write_lock:
            stdout.write(frame)
            stdout.flush()

    # These are light imports (the heavy domain modules load lazily
    # inside run_scenario, under the first cell's heartbeat cover);
    # the ready frame tells the supervisor to drop its spawn grace and
    # hold this worker to the normal liveness window.
    from repro.sim.campaign import run_scenario
    from repro.sim.campaign.request import record_to_obj, spec_from_obj

    emit({"op": "ready"})

    while True:
        line = stdin.readline()
        if not line:
            return 0
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            continue  # a torn supervisor write; the next frame resyncs
        op = msg.get("op")
        if op == "exit":
            return 0
        if op != "cell":
            continue
        job = msg.get("job")
        spec = spec_from_obj(msg["spec"])
        chaos = msg.get("chaos") or {}
        if chaos.get("kill") == "recv":
            os._exit(9)  # die before computing: the cell is simply lost

        beating = threading.Event()

        def beat(job=job) -> None:
            while not beating.wait(heartbeat_s):
                emit({"op": "heartbeat", "job": job})

        heartbeat = threading.Thread(target=beat, daemon=True)
        heartbeat.start()
        try:
            record = run_scenario(spec)
            reply = {"op": "result", "job": job, "record": record_to_obj(record)}
        except Exception as exc:  # the spec raised; the worker is fine
            reply = {
                "op": "cell-error",
                "job": job,
                "message": f"{type(exc).__name__}: {exc}",
            }

        if chaos.get("stall"):
            if chaos.get("silent", True):
                beating.set()  # a wedged process heartbeats nothing
                heartbeat.join()
            time.sleep(float(chaos["stall"]))
        beating.set()
        heartbeat.join()
        if chaos.get("kill") == "report":
            os._exit(9)  # computed but never reported: the dedup window

        try:
            emit(reply)
        except (BrokenPipeError, OSError):
            return 0  # the supervisor gave up on us (e.g. after a stall)


if __name__ == "__main__":
    raise SystemExit(main())
