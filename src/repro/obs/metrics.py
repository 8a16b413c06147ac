"""Process-local metrics: labeled counters, gauges, and histograms.

One :class:`MetricsRegistry` per process (the module-level ``REGISTRY``)
holds every metric; layers prebind series handles at import time
(``_CELLS = counter("campaign.cells.computed").labels(domain="osek")``)
so hot paths pay one attribute add, gated on ``registry.enabled``, and
nothing else.

**The out-of-band contract.**  Metric state may observe the system but
never steer it: no value in this registry may reach a
:class:`~repro.sim.campaign.ScenarioSpec`, a ``spec.key()``, a record
field, or the bytes/order of a record stream.  Telemetry on and
telemetry off must produce byte-identical campaign output - the property
``tests/test_obs.py`` enforces by diffing streams with ``REPRO_OBS=1``
vs ``REPRO_OBS=0``.  Snapshots travel on their own channels only: the
service's ``metrics`` op, ``--metrics out.json`` dumps, and the
dashboard.

Semantics, deliberately small:

* **Counter** - monotonically non-decreasing (``add`` rejects negative
  increments, so successive snapshots never show a counter shrink);
* **Gauge** - last-write-wins value, or a lazily evaluated callback
  (``set_fn``) sampled at snapshot time (queue depths, heartbeat age);
* **Histogram** - fixed bucket layout chosen at creation
  (:data:`SECONDS_BUCKETS` / :data:`FAST_SECONDS_BUCKETS`), cumulative
  ``le`` counts plus ``count``/``sum``.

**Label cardinality is bounded**: a metric holds at most
:data:`MAX_SERIES` label combinations; the excess folds into one
``other="overflow"`` series instead of growing without limit (a campaign
sweeping a million cells must not allocate a million series).

Everything is process-local.  Worker subprocesses of the supervised
fleet accumulate into their own registries, which die with them and are
not yet sent home; parent-side metrics therefore time and count at
*observation* points (the dispatcher's await, the cache-put callback).
Increments are plain attribute updates - atomic enough under the GIL for
telemetry; series *creation* is locked.

``REPRO_OBS=0`` in the environment disables the default registry at
import (benchmarks use it to measure the bare path; the flag inherits
into fleet workers automatically).
"""

from __future__ import annotations

import json
import os
import threading

#: environment switch for the default registry: "0" starts it disabled
ENV_FLAG = "REPRO_OBS"

#: default latency layout (seconds): cells, requests, stream drains
SECONDS_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: fine-grained layout (seconds): superblock compiles
FAST_SECONDS_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 0.1,
)

#: label-combination cap per metric; the excess folds into one series
MAX_SERIES = 64

#: the fold-target label key for past-the-cap combinations
OVERFLOW_KEY = (("other", "overflow"),)


class _CounterSeries:
    """One labeled counter cell; ``add`` is the hot-path handle."""

    __slots__ = ("_registry", "value")

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry
        self.value = 0

    def add(self, n=1) -> None:
        if self._registry.enabled:
            if n < 0:
                raise ValueError(f"counters are monotonic; cannot add {n}")
            self.value += n

    inc = add


class _GaugeSeries:
    """One labeled gauge cell: set/add, or a snapshot-time callback."""

    __slots__ = ("_registry", "value", "_fn")

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry
        self.value = 0
        self._fn = None

    def set(self, value) -> None:
        if self._registry.enabled:
            self.value = value

    def add(self, delta) -> None:
        if self._registry.enabled:
            self.value += delta

    def set_fn(self, fn) -> None:
        """Evaluate ``fn()`` lazily at snapshot time (last caller wins)."""
        self._fn = fn

    def read(self):
        if self._fn is not None:
            try:
                return self._fn()
            except Exception:
                return self.value  # a dead callback never breaks a snapshot
        return self.value


class _HistogramSeries:
    """One labeled histogram cell with a fixed cumulative-``le`` layout."""

    __slots__ = ("_registry", "buckets", "counts", "count", "sum")

    def __init__(self, registry: MetricsRegistry, buckets: tuple):
        self._registry = registry
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1: the +Inf bucket
        self.count = 0
        self.sum = 0.0

    def observe(self, value) -> None:
        if not self._registry.enabled:
            return
        self.count += 1
        self.sum += value
        for index, le in enumerate(self.buckets):
            if value <= le:
                self.counts[index] += 1
                return
        self.counts[-1] += 1


class Metric:
    """Base: a named family of series keyed by sorted label items."""

    kind = ""

    def __init__(self, name: str, help: str, registry: MetricsRegistry):
        self.name = name
        self.help = help
        self._registry = registry
        self._series: dict[tuple, object] = {}

    def _make_series(self):
        raise NotImplementedError

    def labels(self, **labels):
        """The series for one label combination (created on first use).

        Past :data:`MAX_SERIES` distinct combinations, every new one
        folds into the single overflow series - bounded cardinality by
        construction, not by operator discipline.
        """
        key = tuple(sorted(labels.items()))
        series = self._series.get(key)
        if series is None:
            with self._registry._lock:
                series = self._series.get(key)
                if series is None:
                    if len(self._series) >= MAX_SERIES and key not in self._series:
                        key = OVERFLOW_KEY
                        series = self._series.get(key)
                    if series is None:
                        series = self._make_series()
                        self._series[key] = series
        return series

    @property
    def series_count(self) -> int:
        return len(self._series)


class Counter(Metric):
    kind = "counter"

    def _make_series(self):
        return _CounterSeries(self._registry)

    def inc(self, n=1, **labels) -> None:
        self.labels(**labels).add(n)

    add = inc


class Gauge(Metric):
    kind = "gauge"

    def _make_series(self):
        return _GaugeSeries(self._registry)

    def set(self, value, **labels) -> None:
        self.labels(**labels).set(value)

    def set_fn(self, fn, **labels) -> None:
        self.labels(**labels).set_fn(fn)


class Histogram(Metric):
    kind = "histogram"

    def __init__(self, name, help, registry, buckets=SECONDS_BUCKETS):
        super().__init__(name, help, registry)
        self.buckets = tuple(buckets)

    def _make_series(self):
        return _HistogramSeries(self._registry, self.buckets)

    def observe(self, value, **labels) -> None:
        self.labels(**labels).observe(value)


def _label_key(key: tuple) -> str:
    """The snapshot form of one label combination (``""`` = unlabeled)."""
    return ",".join(f"{k}={v}" for k, v in key)


class MetricsRegistry:
    """All metrics of one process; snapshots are canonical JSON-able dicts."""

    def __init__(self, enabled: bool | None = None):
        if enabled is None:
            enabled = os.environ.get(ENV_FLAG, "1") != "0"
        self.enabled = enabled
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    # -- creation (get-or-create: prebinding is idempotent) -------------

    def _get(self, cls, name: str, help: str, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = cls(name, help, self, **kwargs)
                    self._metrics[name] = metric
        if not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as a {metric.kind}")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets=SECONDS_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    # -- switches --------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every series *in place* - prebound handles stay live."""
        with self._lock:
            for metric in self._metrics.values():
                for series in metric._series.values():
                    if isinstance(series, _HistogramSeries):
                        series.counts = [0] * len(series.counts)
                        series.count = 0
                        series.sum = 0.0
                    else:
                        series.value = 0

    # -- export ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything, as one JSON-able dict (the ``metrics`` op payload)."""
        counters: dict = {}
        gauges: dict = {}
        histograms: dict = {}
        for name, metric in sorted(self._metrics.items()):
            series = {_label_key(key): value
                      for key, value in sorted(metric._series.items())}
            if metric.kind == "counter":
                counters[name] = {k: s.value for k, s in series.items()}
            elif metric.kind == "gauge":
                gauges[name] = {k: s.read() for k, s in series.items()}
            else:
                histograms[name] = {
                    k: {"count": s.count, "sum": s.sum,
                        "le": list(s.buckets), "buckets": list(s.counts)}
                    for k, s in series.items()
                }
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}


#: the process-wide default registry every layer prebinds against
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "") -> Counter:
    return REGISTRY.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    return REGISTRY.gauge(name, help)


def histogram(name: str, help: str = "", buckets=SECONDS_BUCKETS) -> Histogram:
    return REGISTRY.histogram(name, help, buckets=buckets)


def snapshot() -> dict:
    return REGISTRY.snapshot()


def dump(path, registry: MetricsRegistry | None = None) -> None:
    """Write one snapshot to ``path`` as JSON (write-then-rename)."""
    snap = (registry or REGISTRY).snapshot()
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as stream:
        json.dump(snap, stream, indent=1, sort_keys=True)
        stream.write("\n")
    os.replace(tmp, path)
