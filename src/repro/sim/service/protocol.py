"""Wire protocol for the campaign service: one JSON message per line.

Both directions speak the same framing: a message is one JSON object,
canonically encoded (sorted keys, no whitespace), terminated by a single
``\\n``.  Clients tag each message with a ``seq`` number; the server
echoes that ``seq`` on every reply the message provoked - the direct
acknowledgement, and, for ``stream``, every pushed ``record`` plus the
final ``done`` - so one connection can multiplex many operations.

Failures are *typed*: the server never closes a connection on a bad
message, it answers ``{"op": "error", "ok": false, "error": <code>,
"message": ...}``.  Codes:

=================  =====================================================
``bad-message``    the line was not a JSON object with an ``op``
``unknown-op``     the ``op`` is not one of
                   submit/stream/status/cancel/metrics
``bad-request``    the submit payload is not a valid CampaignRequest
``queue-full``     back-pressure: the bounded request/cell queues are at
                   capacity; retry after a request finishes or is
                   cancelled
``duplicate-request``  the client-chosen request id is already taken
``unknown-request``    no request with that id
``request-failed``     a cell raised while computing (stream ``done``
                       with ``status: "error"``)
``shutting-down``  the service is draining: new submits are refused, and
                   every stream left open when the drain started is
                   answered with this frame (its ``seq`` echoed) after
                   the last drained record - never a bare closed socket
``connection-closed``  client-side: the transport dropped mid-operation
``connect-failed``     client-side: the service could not be reached
                       within the connect timeout and retry budget
``timeout``            client-side: a reply did not arrive within the
                       read timeout
=================  =====================================================

:class:`CampaignServiceError` is the client-facing exception carrying the
code; tests match on ``exc.code``, not message text.

**status** (``{"op": "status", "seq": S}``) answers with one frame whose
payload schema is stable and additive (new keys may appear; existing
keys keep their meaning):

=====================  ================================================
``op``                 ``"status"`` (the ``seq`` is echoed alongside)
``protocol``           :data:`PROTOCOL_VERSION` of the serving process
``uptime_s``           seconds since :meth:`CampaignService.start`
                       (monotonic clock, rounded to milliseconds)
``pool``               always ``"workers-proc"``: cells run on the
                       supervised worker-subprocess fleet
``active``             requests not yet finished or cancelled
``active_cells``       cells belonging to active requests
``computed``           cells computed since start (global)
``cache_hits`` /       shared record-cache outcomes since start
``cache_misses``
``inflight``           cells currently being computed
``workers``            configured fleet size
``supervised``         always true
``max_pending`` /      the bounded queue capacities (back-pressure)
``max_active_cells``
``requests``           per-request objects: ``id``, ``state``,
                       ``cells``, ``streamed``, ``priority``
``supervisor``         the supervisor summary: workers/alive/idle,
                       lost/respawns/respawn_budget/requeues/quarantined
=====================  ================================================

**metrics** (``{"op": "metrics", "seq": S}``) answers ``{"op":
"metrics", "seq": S, "metrics": <registry snapshot>, "spans": [...]}``
- the server's :mod:`repro.obs` registry snapshot (counters, gauges,
histograms keyed by name then label set) plus recent spans.  Telemetry
is strictly out-of-band: the snapshot never influences scheduling,
caching, or record bytes, and a server running with telemetry disabled
answers with empty series rather than an error.

A cell the supervised worker fleet gave up on (quarantined after killing
two workers in a row, or raising cleanly in-worker) is **not** a
transport error: it streams as an ordinary ``record`` push whose record
has ``domain: "cell_error"`` and ``status: "error"`` - per-cell failure
is data, request-level failure is an error frame.

**Worker wire** (supervisor <-> worker subprocess, same line-JSON
framing over the worker's stdin/stdout; internal to
:mod:`repro.sim.service.supervisor` / ``.worker``): the supervisor sends
``{"op": "cell", "job": J, "spec": ...}`` and ``{"op": "exit"}``; the
worker answers ``{"op": "ready"}`` once booted, ``{"op": "heartbeat",
"job": J}`` while computing, and one ``result`` or ``cell-error`` frame
per cell.
"""

from __future__ import annotations

import json

#: protocol revision, reported in every ``status`` payload; bump on
#: incompatible change (adding an op or a status key is compatible)
PROTOCOL_VERSION = 1

#: client -> server operations
OPS = ("submit", "stream", "status", "cancel", "metrics")


class CampaignServiceError(Exception):
    """A typed failure from the campaign service (or its transport)."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(f"{code}: {message}" if message else code)
        self.code = code
        self.detail = message


def encode_message(message: dict) -> bytes:
    """One message in the canonical frame: sorted keys, one line."""
    return (json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def decode_message(line) -> dict:
    """Parse one frame; raise ``bad-message`` on anything malformed."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CampaignServiceError("bad-message", f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CampaignServiceError(
            "bad-message",
            f"expected an object, got {type(payload).__name__}",
        )
    if "op" not in payload:
        raise CampaignServiceError("bad-message", "missing 'op'")
    return payload


def error_payload(code: str, message: str, *, seq=None, rid=None) -> dict:
    """The server's typed-error reply frame."""
    payload = {"op": "error", "ok": False, "error": code, "message": message}
    if seq is not None:
        payload["seq"] = seq
    if rid is not None:
        payload["id"] = rid
    return payload


def raise_on_error(payload: dict) -> dict:
    """Client side: turn an error frame into :class:`CampaignServiceError`."""
    if payload.get("op") == "error" or payload.get("ok") is False:
        raise CampaignServiceError(payload.get("error", "unknown"), payload.get("message", ""))
    return payload
