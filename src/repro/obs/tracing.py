"""Lightweight span tracing: cell-, request-, and quantum-scoped timings.

A *span* is one named, timed region with optional attributes and a
parent link (spans opened inside another span on the same task/thread
nest via a :mod:`contextvars` stack, so async tasks and threads each
see their own ancestry).  Finished spans land in a bounded
ring buffer - the tracer never grows without limit and dropping the
oldest spans is the designed behaviour, not a failure.

The same out-of-band contract as :mod:`repro.obs.metrics` applies: span
state never reaches specs, cache keys, records, or stream bytes, and the
tracer obeys the same enabled switch as the default metrics registry
(one flag turns all telemetry off; ``REPRO_OBS=0`` starts it off).

Usage::

    from repro import obs

    with obs.span("cell", domain=spec.domain, label=spec.label):
        record = domain.run(spec)

Disabled spans cost one attribute check; enabled spans cost two
``perf_counter`` calls and one ring append.
"""

from __future__ import annotations

import contextvars
import itertools
from collections import deque
from time import perf_counter

from repro.obs import metrics as _metrics

#: finished spans kept per tracer (oldest dropped first)
CAPACITY = 2048


class _Span:
    """One open span; context-manager protocol closes and records it."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id",
                 "_start", "_token", "_live")

    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id = None
        self._start = 0.0
        self._token = None
        self._live = False

    def __enter__(self) -> _Span:
        if not self._tracer._registry.enabled:
            return self
        self._live = True
        self.span_id = next(self._tracer._ids)
        parent = self._tracer._current.get()
        self.parent_id = parent.span_id if parent is not None else None
        self._token = self._tracer._current.set(self)
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._live:
            return
        duration = perf_counter() - self._start
        self._tracer._current.reset(self._token)
        self._tracer._spans.append({
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "attrs": self.attrs,
            "start_s": round(self._start - self._tracer._epoch, 6),
            "duration_s": round(duration, 6),
            "error": exc_type.__name__ if exc_type is not None else None,
        })


class Tracer:
    """A bounded ring of finished spans plus the open-span stack."""

    def __init__(self, capacity: int = CAPACITY,
                 registry: _metrics.MetricsRegistry | None = None):
        self._spans: deque = deque(maxlen=capacity)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "repro-obs-span", default=None)
        self._ids = itertools.count(1)
        self._registry = registry if registry is not None else _metrics.REGISTRY
        self._epoch = perf_counter()

    def span(self, name: str, **attrs) -> _Span:
        """Open one span as a context manager (no-op while disabled)."""
        return _Span(self, name, attrs)

    def snapshot(self, limit: int = 100) -> list[dict]:
        """The most recent finished spans, oldest first."""
        spans = list(self._spans)
        return spans[-limit:] if limit else spans

    def clear(self) -> None:
        self._spans.clear()


#: the process-wide default tracer (shares the default registry's switch)
TRACER = Tracer()


def span(name: str, **attrs) -> _Span:
    """Open a span on the default tracer."""
    return TRACER.span(name, **attrs)
