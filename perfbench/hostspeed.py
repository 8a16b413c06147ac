"""Host-speed normalisation of wall times.

Other tenants of a shared host slow every Python process on it by up to
~1.5x, for stretches of a few seconds to half a minute, on both cores at
once (on a two-core 2.1 GHz Xeon guest a fixed loop took 22 ms or 33 ms
depending on the moment).
A median over one run's passes cannot remove a slow stretch that covers
the whole run, so run-to-run spreads of raw medians reach 0.2.

So each timed stretch of work is measured beside this module's fixed
calibration loop, run just before and just after it, and its wall time is
scaled by ``NOMINAL_S / reference``: the time the work would have taken
with the host at its uncontended speed.  Across eight processes of the
``engine`` workload this took the spread of the median pass time from
0.08 to 0.06 and its range from 0.26 to 0.09 (``cosim``: 0.19 to 0.08,
range 0.36 to 0.11).  Reports print the raw times beside the normalised
ones.

The ``fleet`` workload reports raw wall time: its main process shares the
two cores with the fleet's own workers, so the loop run there also times
the slices they take, and normalising by it widened the spread of the
fleet's metrics over six runs (cells/s 0.09 to 0.12, p99 0.06 to 0.17).
"""

from __future__ import annotations

from time import perf_counter

#: iterations of the calibration loop (about 1.35 ms uncontended)
ITERATIONS = 20_000
#: the loop's uncontended time on the host the benchmark was calibrated on
#: (2.1 GHz Xeon, Python 3.11); normalised times read in seconds at that speed
NOMINAL_S = 1.35e-3


def _loop() -> float:
    started = perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i % 7
    return perf_counter() - started


def reference() -> float:
    """Seconds the calibration loop takes right now: the faster of two
    back-to-back runs, so that the first run's cold caches (after the
    simulator ran) and a lost time slice do not count as host speed."""
    return min(_loop(), _loop())


def normalise(seconds: float, ref_seconds: float) -> float:
    """``seconds`` of wall time measured while the loop took ``ref_seconds``,
    as seconds at the nominal host speed."""
    return seconds * NOMINAL_S / ref_seconds

