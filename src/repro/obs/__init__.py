"""Determinism-safe telemetry: one metrics registry + span tracer.

Every layer of the system - the two execution engines, the
campaign runner, and the sweep service and its supervised worker
fleet - instruments itself through this package:
labeled counters, gauges, and fixed-layout histograms
(:mod:`repro.obs.metrics`) plus a bounded span tracer
(:mod:`repro.obs.tracing`).

**The one hard rule is that telemetry is out-of-band.**  The repo's
foundational guarantee is that records are pure functions of specs and
streams are byte-identical across workers, shards, engines, quanta,
and faults; no metric or span value may therefore enter a spec, a cache
key, a record field, or the bytes/order of a stream.  Telemetry on and
off must be observationally equivalent to every record consumer -
property-tested in ``tests/test_obs.py`` by diffing campaign CLI
(serial and fleet-backed) and service streams under ``REPRO_OBS=1`` vs
``0``.

Three export surfaces, all read-only:

* the service's ``metrics`` protocol op (snapshot JSON, ``seq``-echoed);
* ``python -m repro.sim.campaign ... --metrics out.json`` dumps;
* the live terminal dashboard, ``python -m repro.sim.service.dashboard
  HOST:PORT``.

``obs.enable()`` / ``obs.disable()`` flip the whole process's telemetry
(metrics and spans share the switch); ``REPRO_OBS=0`` in the
environment starts it off, which is how the bare arms of overhead
benchmarks and the telemetry-off sides of the property tests run.
"""

from repro.obs import metrics, tracing
from repro.obs.metrics import (
    FAST_SECONDS_BUCKETS,
    MAX_SERIES,
    REGISTRY,
    SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    dump,
    gauge,
    histogram,
    snapshot,
)
from repro.obs.tracing import TRACER, Tracer, span


def enable() -> None:
    """Turn process telemetry on (metrics and spans share the switch)."""
    REGISTRY.enable()


def disable() -> None:
    """Turn process telemetry off; prebound handles become no-ops."""
    REGISTRY.disable()


def enabled() -> bool:
    return REGISTRY.enabled


__all__ = [
    "FAST_SECONDS_BUCKETS",
    "MAX_SERIES",
    "REGISTRY",
    "SECONDS_BUCKETS",
    "TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "counter",
    "disable",
    "dump",
    "enable",
    "enabled",
    "gauge",
    "histogram",
    "metrics",
    "snapshot",
    "span",
    "tracing",
]
