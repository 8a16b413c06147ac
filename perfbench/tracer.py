"""Out-of-band span tracer for the traced benchmark run.

The tracer installs wrappers around public functions of the program from
outside (it edits no program file): each wrapped call becomes a span with
a name, a start, an end and a parent.  The current span lives in a
``contextvars.ContextVar``, so spans opened inside different asyncio tasks
never adopt each other as parents.

Spans are aggregated as they close (count, total time and self time per
name), because a co-simulation pass closes hundreds of thousands of them;
only the first ``EVENT_CAP`` are kept whole for the Chrome trace-event
file written when the run ends.  A span's self time is its duration minus
the durations of the child spans that closed inside it.

A wrapper must never change what the wrapped call returns or raises: the
traced run proves that by reproducing the untraced record digest.
"""

from __future__ import annotations

import contextvars
import json
import sys
from collections import defaultdict
from time import perf_counter

#: spans kept whole for the Chrome trace file (the rest are only aggregated)
EVENT_CAP = 50_000


class _Span:
    __slots__ = ("name", "start", "child", "parent", "open")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.child = 0.0
        self.parent = parent
        self.open = True


class Phase:
    """Aggregates for one stretch of the run (warm-up, timed, replay...)."""

    def __init__(self, name: str):
        self.name = name
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.samples = defaultdict(list)  # per-call durations of chosen spans
        self.counters = defaultdict(float)  # counts measured at span boundaries
        self.roots: list[tuple[float, float]] = []  # spans with no open parent
        self.started = perf_counter()
        self.ended: float | None = None

    @property
    def wall(self) -> float:
        return (self.ended or perf_counter()) - self.started

    def covered(self) -> float:
        """Seconds of this phase's wall covered by at least one span."""
        covered = 0.0
        reach = self.started
        for start, end in sorted(self.roots):
            start = max(start, reach)
            end = min(end, self.ended or end)
            if end > start:
                covered += end - start
                reach = end
        return covered


class Tracer:
    """Span recorder plus the wrapper installer."""

    #: span names whose per-call durations are kept (for medians)
    SAMPLED = frozenset({"fleet.run_cell", "cache.get", "cache.put"})

    def __init__(self):
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self.phase = Phase("setup")
        self.events: list = []
        self._installed: list = []

    # -- spans ---------------------------------------------------------

    def begin(self, name: str) -> Phase:
        """Start a new aggregation phase and return it."""
        self.phase = Phase(name)
        return self.phase

    def end(self) -> Phase:
        phase = self.phase
        phase.ended = perf_counter()
        return phase

    def open(self, name: str):
        span = _Span(name, perf_counter(), self.current.get())
        return span, self.current.set(span)

    def close(self, span, token) -> float:
        end = perf_counter()
        self.current.reset(token)
        span.open = False
        duration = end - span.start
        phase = self.phase
        name = span.name
        phase.count[name] += 1
        phase.total[name] += duration
        phase.self_time[name] += duration - span.child
        if name in self.SAMPLED:
            phase.samples[name].append(duration)
        parent = span.parent
        if parent is not None and parent.open:
            parent.child += duration
            parent_name = parent.name
        else:
            phase.roots.append((span.start, end))
            parent_name = None
        if len(self.events) < EVENT_CAP:
            self.events.append((name, span.start, duration, parent_name))
        return duration

    def write_chrome(self, path) -> None:
        """The kept spans as Chrome trace-event JSON (Perfetto opens it)."""
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": round(start * 1e6, 3), "dur": round(duration * 1e6, 3),
                   "args": {"parent": parent}}
                  for name, start, duration, parent in self.events]
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)

    # -- installation --------------------------------------------------

    def wrap_sync(self, owner, attr: str, name: str, before=None, after=None):
        """Wrap ``owner.attr`` (a function or method) in a span ``name``.

        ``before(args, kwargs)`` returns a state handed to
        ``after(args, kwargs, result, state, duration)``.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            span, token = tracer.open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                duration = tracer.close(span, token)
                if after is not None:
                    after(args, kwargs, result, state, duration)

        self.replace(owner, attr, original, wrapper)

    def wrap_async(self, owner, attr: str, name: str, before=None, after=None):
        """Like :meth:`wrap_sync` for a coroutine method."""
        original = getattr(owner, attr)
        tracer = self

        async def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            span, token = tracer.open(name)
            result = None
            try:
                result = await original(*args, **kwargs)
                return result
            finally:
                duration = tracer.close(span, token)
                if after is not None:
                    after(args, kwargs, result, state, duration)

        self.replace(owner, attr, original, wrapper)

    def wrap_function(self, module, attr: str, name: str, before=None, after=None):
        """Wrap a module-level function and rebind every ``repro`` module
        that imported it by name, so call sites see the wrapper."""
        original = getattr(module, attr)
        self.wrap_sync(module, attr, name, before, after)
        wrapper = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if (mod is not module and mod_name.startswith("repro")
                    and getattr(mod, attr, None) is original):
                self.replace(mod, attr, original, wrapper)

    def replace(self, owner, attr, original, wrapper) -> None:
        """Set ``owner.attr`` to ``wrapper`` until :meth:`uninstall`."""
        # a class that only inherits the method gets the wrapper as its
        # own attribute, and loses it again on uninstall
        own = not isinstance(owner, type) or attr in owner.__dict__
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original if own else None))

    def uninstall(self) -> None:
        """Put every original back (latest first)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
