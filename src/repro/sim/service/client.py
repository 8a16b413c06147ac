"""Client API for the campaign service.

:class:`CampaignClient` is the async client: connect, ``submit`` a
:class:`~repro.sim.campaign.CampaignRequest`, then ``stream`` its records
- which arrive in spec order and are re-serialised in the campaign's
canonical record form, so a streamed file is byte-identical to a local
run of the same request.  One connection multiplexes freely:
``status`` and ``cancel`` work while a stream is in flight (every
operation carries a ``seq`` the server echoes on its replies).

:func:`submit_and_stream` is the blocking convenience wrapper the CLI
uses (``python -m repro.sim.campaign --connect HOST:PORT``): one request
in, records to a file and/or callback, the ``done`` summary out.

Degrading gracefully
--------------------
A ``--connect`` client neither hangs nor dies on a flaky service:

* :meth:`CampaignClient.connect` bounds each attempt with a connect
  timeout and retries connection failures with exponential backoff
  (``connect-failed`` after the budget is spent);
* one-shot calls (submit/status/cancel) bound their reply wait with a
  read timeout (``timeout``);
* ``queue-full`` back-pressure on submit is retried with the same
  exponential backoff - the server's bounded queues drain as requests
  finish - and surfaces as the typed error only once the retry budget
  is exhausted.

All failures stay typed (:class:`CampaignServiceError`), so callers
match on ``exc.code``, never on transport exception zoo.

Per-cell failure is **data, not a transport error**: a cell the
supervised worker fleet quarantined (it killed two workers in a row, or
raised cleanly in-worker) arrives through :meth:`CampaignClient.stream`
as an ordinary record with ``domain: "cell_error"`` and ``status:
"error"`` - the stream completes normally and the ``done`` summary
counts it under ``failed``.  Only request-level problems (the whole
request errored, the service is draining) raise.
"""

from __future__ import annotations

import asyncio
import itertools

from repro.sim.campaign import _record_json, record_from_obj
from repro.sim.service.protocol import (
    CampaignServiceError,
    decode_message,
    encode_message,
    error_payload,
    raise_on_error,
)


#: default per-attempt connect timeout (seconds)
CONNECT_TIMEOUT = 5.0
#: default reply timeout for one-shot calls (seconds); streams are
#: unbounded - a long sweep legitimately stays quiet between records
READ_TIMEOUT = 30.0
#: default retry budget for connection failures and queue-full submits
RETRIES = 3
#: first backoff delay (seconds); doubles per retry
BACKOFF = 0.2


class CampaignClient:
    """Async client for one connection to a campaign service."""

    def __init__(self, reader, writer, *, read_timeout: float = READ_TIMEOUT,
                 retries: int = RETRIES, backoff: float = BACKOFF):
        self._reader = reader
        self._writer = writer
        self._read_timeout = read_timeout
        self._retries = retries
        self._backoff = backoff
        self._seq = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._streams: dict[int, asyncio.Queue] = {}
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(cls, host: str = "127.0.0.1", port: int = 0, *,
                      connect_timeout: float = CONNECT_TIMEOUT,
                      retries: int = RETRIES,
                      backoff: float = BACKOFF,
                      read_timeout: float = READ_TIMEOUT) -> CampaignClient:
        """Connect with a per-attempt timeout and bounded retry.

        Each attempt is bounded by ``connect_timeout``; connection
        refusals and timeouts retry up to ``retries`` times with
        exponential backoff (``backoff``, doubling).  Exhaustion raises
        :class:`CampaignServiceError` with code ``connect-failed``.
        """
        delay = backoff
        last: Exception | None = None
        for attempt in range(retries + 1):
            if attempt:
                await asyncio.sleep(delay)
                delay *= 2
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port), connect_timeout)
                return cls(reader, writer, read_timeout=read_timeout,
                           retries=retries, backoff=backoff)
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                last = exc
        raise CampaignServiceError(
            "connect-failed",
            f"{host}:{port} unreachable after {retries + 1} attempts: "
            f"{last!r}")

    async def _read_loop(self) -> None:
        """Route every incoming frame by its echoed ``seq``: stream
        subscriptions get a queue, one-shot calls get a future."""
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    msg = decode_message(line)
                except CampaignServiceError:
                    continue  # unparseable push; nothing to route it to
                seq = msg.get("seq")
                if seq in self._streams:
                    self._streams[seq].put_nowait(msg)
                elif seq in self._pending:
                    future = self._pending.pop(seq)
                    if not future.done():
                        future.set_result(msg)
        finally:
            dropped = CampaignServiceError("connection-closed", "service connection closed")
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(dropped)
            self._pending.clear()
            for queue in self._streams.values():
                queue.put_nowait(error_payload("connection-closed", "service connection closed"))

    async def _call(self, payload: dict) -> dict:
        """Send one message, await the ``seq``-matched reply (bounded by
        the read timeout; ``timeout`` is raised typed, never hangs)."""
        seq = next(self._seq)
        payload["seq"] = seq
        future = asyncio.get_running_loop().create_future()
        self._pending[seq] = future
        self._writer.write(encode_message(payload))
        await self._writer.drain()
        try:
            reply = await asyncio.wait_for(future, self._read_timeout)
        except asyncio.TimeoutError:
            self._pending.pop(seq, None)
            raise CampaignServiceError(
                "timeout",
                f"no reply to {payload.get('op')!r} (seq {seq}) within "
                f"{self._read_timeout}s") from None
        return raise_on_error(reply)

    async def submit(self, request, *, rid: str | None = None, priority: int | None = None) -> str:
        """Register a sweep; returns the request id for stream/cancel.

        ``queue-full`` back-pressure retries with exponential backoff up
        to the client's retry budget (the server's bounded queues drain
        as requests complete), then surfaces typed.
        """
        payload: dict = {"op": "submit", "request": request.to_obj()}
        if rid is not None:
            payload["id"] = rid
        if priority is not None:
            payload["priority"] = priority
        delay = self._backoff
        for attempt in range(self._retries + 1):
            if attempt:
                await asyncio.sleep(delay)
                delay *= 2
            try:
                reply = await self._call(dict(payload))
            except CampaignServiceError as exc:
                if exc.code == "queue-full" and attempt < self._retries:
                    continue
                raise
            return reply["id"]
        raise AssertionError("unreachable")  # loop always returns/raises

    async def stream(self, rid: str, *, on_record=None, stream_path=None) -> dict:
        """Consume a request's records in spec order; return the ``done``
        summary.

        ``stream_path`` appends each record as one canonical JSON line
        (the same bytes :func:`~repro.sim.campaign.execute_request` would
        write); ``on_record`` receives each rebuilt record instance.
        Raises :class:`CampaignServiceError` (``request-failed``) if a
        cell raised server-side; a cancelled request returns its summary
        with ``status: "cancelled"``.
        """
        seq = next(self._seq)
        queue: asyncio.Queue = asyncio.Queue()
        self._streams[seq] = queue
        out = None
        try:
            self._writer.write(encode_message({"op": "stream", "id": rid, "seq": seq}))
            await self._writer.drain()
            if stream_path is not None:
                out = open(stream_path, "a", encoding="utf-8")
            while True:
                msg = raise_on_error(await queue.get())
                if msg.get("op") == "record":
                    record = record_from_obj(msg["record"])
                    if out is not None:
                        out.write(_record_json(record) + "\n")
                    if on_record is not None:
                        on_record(record)
                elif msg.get("op") == "done":
                    if msg.get("status") == "error":
                        raise CampaignServiceError("request-failed", msg.get("message", ""))
                    return msg
        finally:
            if out is not None:
                out.close()
            self._streams.pop(seq, None)

    async def status(self) -> dict:
        return await self._call({"op": "status"})

    async def metrics(self) -> dict:
        """The server's telemetry snapshot (``metrics`` op): a dict with
        ``metrics`` (the :mod:`repro.obs` registry snapshot) and
        ``spans`` (recent tracer spans).  Empty series - not an error -
        when the server runs with telemetry disabled."""
        return await self._call({"op": "metrics"})

    async def cancel(self, rid: str) -> dict:
        return await self._call({"op": "cancel", "id": rid})

    async def close(self) -> None:
        self._reader_task.cancel()
        await asyncio.gather(self._reader_task, return_exceptions=True)
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def submit_and_stream(
    host: str,
    port: int,
    request,
    *,
    rid: str | None = None,
    priority: int | None = None,
    stream_path=None,
    on_record=None,
    connect_timeout: float = CONNECT_TIMEOUT,
    retries: int = RETRIES,
    backoff: float = BACKOFF,
    read_timeout: float = READ_TIMEOUT,
) -> dict:
    """Blocking one-shot: connect, submit, stream to completion.

    The CLI's ``--connect`` path; also the simplest way to use a service
    from synchronous code.  Returns the ``done`` summary dict.  Inherits
    the client's graceful degradation: bounded connect retries with
    backoff, read timeouts on the submit acknowledgement, and
    ``queue-full`` retry.
    """

    async def go() -> dict:
        client = await CampaignClient.connect(
            host, port, connect_timeout=connect_timeout, retries=retries,
            backoff=backoff, read_timeout=read_timeout)
        try:
            actual = await client.submit(request, rid=rid, priority=priority)
            return await client.stream(actual, on_record=on_record, stream_path=stream_path)
        finally:
            await client.close()

    return asyncio.run(go())
