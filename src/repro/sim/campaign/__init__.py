"""Parallel, shardable scenario-matrix campaign runner.

The paper's core argument is that automotive parts differentiate on
*system scenarios* - OSEK task sets, CAN body networks, soft-error
resilience - not just core throughput.  This module turns such sweeps into
first-class objects: a list of :class:`ScenarioSpec` cells fanned across
a supervised fleet of worker processes, where each cell belongs to a
**scenario domain** (see :mod:`repro.sim.domains`):

* ``kernel`` - AutoIndy kernels on the core models (Table 1 / Figure 4),
  optionally under deterministic IRQ storms;
* ``osek`` - OSEK task-set schedulability sweeps: synthesized task sets
  run on the simulated kernel (:mod:`repro.rtos.kernel`) and cross-checked
  against response-time analysis (:mod:`repro.rtos.analysis`);
* ``can`` - CAN traffic matrices on the discrete-event bus
  (:mod:`repro.network.can_bus`) against the Tindell/Davis bounds;
* ``soft_error`` - cosmic-ray upset sweeps (:mod:`repro.memory.faults`)
  into an ECC TCM feeding real CPU runs;
* ``vehicle`` / ``vehicle_fault`` - whole virtual vehicles as cells: the
  healthy co-simulated body network verified against composed analytic
  bounds, and the same network under injected faults (babbling-idiot
  senders, bus-off storms, gateway RX overload, stuck/dropped LIN slots,
  firmware soft errors) with a **verdict per safety claim** - latency
  bound held, frame conservation, fail-silence of the faulted node,
  recovery within deadline - judged against the cell's fault-free twin.
  A fault cell verifies when each verdict matches its *expected*
  outcome (a babbling idiot is supposed to break the latency bound;
  confinement is supposed to hold everything else), so demonstrated
  violations are assertions, not failures.  Faulted runs keep the full
  determinism guarantee below: injected traffic and forced error
  windows are scheduled in bus time, and mid-run memory flips settle to
  the guest's next WFI boundary, so records are byte-identical across
  engines, quantum sizes, workers, and shards.

Determinism is the hard guarantee that makes campaigns distributable:

* every scenario derives its RNG stream purely from its own spec (a CRC-32
  of the scenario key mixed with the seed), never from a shared stream,
  worker identity, or shard assignment;
* results come back in input order regardless of worker count;
* :meth:`CampaignResult.to_json` and the JSONL stream are canonical
  (sorted keys, no wall-clock or host state), so a campaign's output is
  **byte-identical** for 1, 2, or N workers - and, because records are a
  pure function of each spec, across *shards*: a request with
  ``shard=(k, n)`` runs the k-th of ``n`` contiguous partitions, and the
  concatenation of all shard streams in ``k`` order is byte-identical to
  the unsharded stream.  That is the whole distribution recipe: give every
  host the same spec list and a distinct ``(k, n)``, then ``cat`` the
  outputs.

``python -m repro.sim.campaign --matrix smoke --shard 0/2 --stream
shard0.jsonl`` exposes the same thing on the command line (``--list``
names the built-in matrices); the CI ``campaign-smoke`` step runs a
two-shard sweep of the smoke matrix (seven of the eight domains; the
``vehicle-fault`` matrix gets its own sweep) and diffs the concatenation
against a single-process run on every push.

One request shape, many front doors
-----------------------------------

Every way a campaign runs goes through :class:`CampaignRequest`
(:mod:`repro.sim.campaign.request`): the library call
(:func:`execute_request`), the CLI (which parses its flags *into* a
request), and the resident campaign service.

One executor sends cells to other processes: the supervised worker fleet
(:class:`repro.sim.service.supervisor.WorkerSupervisor`).  A local run
with ``workers >= 2`` (``--workers N``) computes its cache misses on a
fleet of its own, and the service always runs its cells on one, so both
share the fleet's failure model: deadlines, requeue of lost cells, and
quarantine.  A cell the fleet cannot compute streams as a
:class:`CellErrorRecord` in its slot.  The serial loop (``workers`` of
``None`` or 1) runs in this process, is the reference every
byte-identity test compares against, and lets a failing cell raise.

The campaign service (``repro.sim.service``)
--------------------------------------------

``python -m repro.sim.service`` runs a long-lived asyncio sweep server
on the same supervised worker fleet; ``python -m repro.sim.campaign
--connect HOST:PORT`` (or :class:`repro.sim.service.CampaignClient`)
submits requests to it instead of running locally.  The wire protocol is
line-oriented JSON (one message per ``\\n``-terminated line, canonical
``sort_keys`` encoding) over TCP:

* ``{"op": "submit", "seq": S, "id": RID?, "request": <CampaignRequest
  .to_obj()>, "priority": P?}`` registers a sweep (named matrix or
  explicit specs, optionally sharded).  Reply: ``{"op": "submitted",
  "seq": S, "id": RID, "cells": N, "priority": P}`` or a typed error.
* ``{"op": "stream", "seq": S, "id": RID}`` subscribes: the server pushes
  ``{"op": "record", "seq": S, "id": RID, "index": I, "record": {...}}``
  for every cell **in spec order** (index 0 first, no gaps, regardless of
  worker completion order), then one ``{"op": "done", "seq": S, "status":
  "ok"|"cancelled"|"error", "cells": N, "ran": R, "verified": V,
  "replayed": ..., "joined": ..., "computed": ...}``.
* ``{"op": "status", "seq": S}`` reports global and per-request counters;
  ``{"op": "cancel", "seq": S, "id": RID}`` stops a request and frees its
  queue slots.
* Errors are typed: ``{"op": "error", "ok": false, "seq": S, "error":
  CODE, "message": ...}`` with codes such as ``bad-request``,
  ``queue-full`` (back-pressure: the bounded request/cell queues are
  full), ``unknown-request``, ``duplicate-request``, ``unknown-op``.

Ordering and dedup guarantees: a request's record stream is exactly the
bytes a local run of the same request would write (records are
pure functions of specs; the client re-serialises each record in the same
canonical form).  Cells are deduplicated **across requests** through the
shared content-addressed record cache keyed by ``spec.key()`` - two
clients sweeping overlapping matrices pay for the union once: a cell
finished earlier replays from the cache (``replayed``), a cell currently
in flight for another request is joined, not recomputed (``joined``), and
only the remainder is computed (``computed``).

The service executes cells on a *supervised fleet* of ``--workers-proc
N`` worker subprocesses, so the guarantees above survive worker crashes,
hangs, and kills: a lost cell is requeued onto a healthy worker (see
:mod:`repro.sim.service.supervisor` for the full failure model) and the
stream stays byte-identical to a fault-free run.
A spec the fleet cannot compute surfaces *in the stream* as a
:class:`CellErrorRecord` - a typed per-cell ``status="error"`` record at
the cell's spec position (domain tag ``cell_error``) - never as a
transport error, and the ``done`` summary counts such cells in
``failed``.
"""

from __future__ import annotations

import importlib
import json
import zlib
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro import obs
from repro.sim.rng import DeterministicRng

#: cell wall-time by domain - observed out-of-band in :func:`run_scenario`
_CELL_SECONDS = obs.histogram(
    "campaign.cell_seconds", "Cell wall time by scenario domain")

#: SRAM address of the irq_tick counter: far above workload input blobs
#: (loaded at SRAM_BASE) and far below the stack (which grows down from
#: the top of the default 128 KiB SRAM).
IRQ_COUNTER_OFFSET = 0x1_0000


@dataclass(frozen=True)
class InterruptProfile:
    """A deterministic IRQ storm delivered while the kernel runs."""

    count: int = 4
    mean_gap: int = 500        # mean cycles between asserts (exponential)
    start_cycle: int = 50
    priority_span: int = 2     # priorities cycle over [0, span)

    def schedule(self, rng: DeterministicRng) -> list[tuple[int, int, int]]:
        """(number, assert_cycle, priority) triples, reproducible per rng."""
        events = []
        cycle = self.start_cycle
        for index in range(self.count):
            cycle += 1 + int(rng.exponential(1.0 / self.mean_gap))
            events.append((index + 1, cycle, index % self.priority_span))
        return events


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of a campaign matrix.

    ``domain`` picks the scenario family (see :mod:`repro.sim.domains`);
    ``core``/``isa``/``workload`` describe the CPU-facing domains (kernel,
    soft_error) and stay empty for the discrete-event ones; ``params``
    carries domain-specific knobs as (key, value) pairs - a tuple, so
    specs stay hashable and picklable across worker processes.
    """

    label: str
    core: str = ""              # 'arm7' | 'cortex-m3' | 'm3' | 'arm1156'
    isa: str = ""               # 'arm' | 'thumb' | 'thumb2'
    workload: str = ""          # AutoIndy kernel name
    seed: int = 2005
    scale: int = 1
    interrupts: InterruptProfile | None = None
    machine_kwargs: tuple = ()  # (key, value) pairs; tuple keeps specs hashable
    fastpath: bool = True
    domain: str = "kernel"
    params: tuple = ()          # domain-specific (key, value) pairs

    def param(self, name: str, default=None):
        """Look up a domain-specific knob from ``params``."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def key(self) -> str:
        """Stable identity used for RNG derivation and result ordering."""
        extras = "/".join(f"{k}={v}" for k, v in self.params)
        return (f"{self.domain}:{self.label}/{self.core}/{self.isa}"
                f"/{self.workload}/seed{self.seed}/scale{self.scale}"
                + (f"/{extras}" if extras else ""))

    def rng(self) -> DeterministicRng:
        """The scenario's private stream: a pure function of the spec.

        Worker processes never share RNG state, so campaign output cannot
        depend on how scenarios were distributed - across workers or
        across shard hosts.
        """
        salt = zlib.crc32(self.key().encode("utf-8"))
        return DeterministicRng((self.seed * 1_000_003 + salt) & 0xFFFFFFFF)


@dataclass
class ScenarioRecord:
    """Outcome of one kernel-domain scenario (KernelRun fields + IRQ stats).

    Other domains define their own record dataclasses (same contract: flat
    JSON-able fields, a ``domain`` tag, a ``verified`` property, and a
    ``status`` property that is ``"ok"`` on every computed record); the
    stream reader dispatches on the ``domain`` field to rebuild them.
    ``status`` is a *property*, never a field: properties stay out of
    ``vars(record)`` and therefore out of the canonical stream bytes.
    Only :class:`CellErrorRecord` carries a real ``status`` field
    (``"error"``) - the one place the status must ride the wire.
    """

    label: str
    core: str
    isa: str
    workload: str
    seed: int
    scale: int
    result: int
    expected: int
    cycles: int
    instructions: int
    code_bytes: int
    total_bytes: int
    irqs_serviced: int = 0
    irqs_tail_chained: int = 0
    irq_ticks: int = 0
    domain: str = "kernel"

    @property
    def status(self) -> str:
        """Typed cell status: a computed record is always ``"ok"``."""
        return "ok"

    @property
    def verified(self) -> bool:
        return self.result == self.expected

    def to_kernel_run(self):
        """Adapt to the Table 1 harness's :class:`KernelRun` record."""
        from repro.workloads.harness import KernelRun

        return KernelRun(
            workload=self.workload, isa=self.isa, core=self.core,
            result=self.result, expected=self.expected, cycles=self.cycles,
            instructions=self.instructions, code_bytes=self.code_bytes,
            total_bytes=self.total_bytes,
        )


@dataclass
class CellErrorRecord:
    """A cell the worker fleet could not compute, surfaced *in the stream*.

    The supervised worker fleet (behind the service and behind a local
    ``workers >= 2`` run) quarantines a spec that kills two workers in a
    row (and reports a spec that raises cleanly in-worker) as one of
    these instead of failing the whole request: the client sees a typed
    per-cell ``status="error"`` record at the cell's spec position, every
    other cell streams normally, and ``verified`` is False so sweep exit
    codes stay honest.  ``error`` is the failure kind (``"quarantined"``
    or ``"compute-error"``); ``key`` is the failed cell's ``spec.key()``
    so the cell can be re-run alone.  Error records are never cached: a
    rerun, or a restarted service, retries the spec.
    """

    label: str
    key: str
    error: str
    message: str
    status: str = "error"
    domain: str = "cell_error"

    @property
    def verified(self) -> bool:
        return False


def _record_json(record) -> str:
    """One record in the canonical form (sorted keys, no whitespace)."""
    return json.dumps(vars(record), sort_keys=True, separators=(",", ":"))


class CampaignStreamError(ValueError):
    """A campaign JSONL stream could not be read back faithfully."""


def _parse_stream_line(path, lineno: int, line: str):
    """One JSONL line -> the matching domain's record instance."""
    from repro.sim.domains import record_class_for

    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CampaignStreamError(
            f"{path}:{lineno}: corrupt record (not valid JSON: {exc})") from exc
    if not isinstance(payload, dict):
        raise CampaignStreamError(
            f"{path}:{lineno}: corrupt record (expected an object, "
            f"got {type(payload).__name__})")
    domain = payload.get("domain", "kernel")
    try:
        record_class = record_class_for(domain)
    except KeyError as exc:
        raise CampaignStreamError(
            f"{path}:{lineno}: unknown scenario domain {domain!r}") from exc
    try:
        return record_class(**payload)
    except (TypeError, ValueError) as exc:
        # TypeError: fields missing/unknown; ValueError: a record class
        # rejected field *content* (e.g. a vehicle_fault record carrying
        # an unknown verdict claim)
        raise CampaignStreamError(
            f"{path}:{lineno}: corrupt {domain!r} record "
            f"(fields do not match {record_class.__name__}: {exc})") from exc


def read_campaign_stream(path, on_error: str = "raise",
                         errors: list | None = None) -> list:
    """Load the records an ``execute_request(..., stream_path=...)`` run wrote.

    Every line must be one complete canonical record; a file that does not
    end in a newline was truncated mid-write (the writer always emits the
    trailing newline), so its last line is rejected rather than silently
    half-parsed.  ``on_error='raise'`` (default) raises
    :class:`CampaignStreamError` naming the file, line, and problem;
    ``on_error='skip'`` drops bad lines and reports each one as a
    ``(lineno, message)`` pair appended to ``errors`` (when given).
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    records = []
    # Line-by-line: million-scenario streams never sit in memory whole.
    # Only the final line of a file can lack its newline, and the writer
    # always terminates complete records, so a missing one is truncation.
    with open(path, encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, 1):
            if not line.endswith("\n"):
                message = (f"{path}:{lineno}: truncated trailing line "
                           f"(no newline; the write was interrupted): "
                           f"{line[:80]!r}")
                if on_error == "raise":
                    raise CampaignStreamError(message)
                if errors is not None:
                    errors.append((lineno, message))
                break
            line = line[:-1]
            if not line.strip():
                continue
            try:
                records.append(_parse_stream_line(path, lineno, line))
            except CampaignStreamError as exc:
                if on_error == "raise":
                    raise
                if errors is not None:
                    errors.append((lineno, str(exc)))
    return records


@dataclass
class CampaignResult:
    """All scenario records, in input order."""

    records: list = field(default_factory=list)

    @property
    def all_verified(self) -> bool:
        return all(r.verified for r in self.records)

    def by_domain(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.domain] = counts.get(record.domain, 0) + 1
        return counts

    def to_json(self) -> str:
        """Canonical serialisation: byte-identical across worker counts."""
        payload = [vars(r) for r in self.records]
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def run_scenario(spec: ScenarioSpec):
    """Run one scenario through its domain (also the worker entry point).

    Telemetry (when :mod:`repro.obs` is enabled) is strictly out-of-band:
    the span and latency histogram observe the run, never influence it.
    """
    from repro.sim.domains import get_domain

    if not obs.REGISTRY.enabled:
        return get_domain(spec.domain).run(spec)
    import time

    with obs.span("cell", domain=spec.domain, label=spec.label):
        start = time.perf_counter()
        record = get_domain(spec.domain).run(spec)
        _CELL_SECONDS.labels(domain=spec.domain).observe(
            time.perf_counter() - start)
    return record


# The request core lives in its own module; import it here (after the
# spec/record definitions it rebuilds) so `repro.sim.campaign` stays the
# one public namespace.  See request.py's module docstring.
from repro.sim.campaign.request import (  # noqa: E402
    CampaignRequest,
    execute_request,
    record_from_obj,
    spec_from_obj,
    spec_to_obj,
)


def shard_bounds(total: int, shard: tuple[int, int]) -> tuple[int, int]:
    """[lo, hi) of the ``k``-th of ``n`` contiguous, balanced partitions.

    Contiguity is what makes shard streams concatenate: shard ``k`` covers
    ``specs[total*k//n : total*(k+1)//n]``, so streaming every shard in
    ``k`` order reproduces the unsharded stream byte-for-byte.
    """
    try:
        k, n = shard
    except (TypeError, ValueError) as exc:
        raise ValueError(f"shard must be a (k, n) pair, got {shard!r}") from exc
    if n <= 0 or not 0 <= k < n:
        raise ValueError(f"shard index must satisfy 0 <= k < n, got {shard!r}")
    return (total * k) // n, (total * (k + 1)) // n


# ----------------------------------------------------------------------
# matrix builders
# ----------------------------------------------------------------------

def table1_matrix(seed: int = 2005, scale: int = 1,
                  machine_kwargs: tuple = ()) -> list[ScenarioSpec]:
    """The paper's Table 1 as a campaign matrix: 3 configs x 6 kernels."""
    from repro.workloads.harness import TABLE1_CONFIGS
    from repro.workloads.kernels import AUTOINDY_SUITE

    return [
        ScenarioSpec(label=label, core=core, isa=isa, workload=w.name,
                     seed=seed, scale=scale, machine_kwargs=machine_kwargs)
        for label, core, isa in TABLE1_CONFIGS
        for w in AUTOINDY_SUITE
    ]


def interrupt_sweep_matrix(rates: tuple[int, ...] = (2000, 1000, 500, 250),
                           seed: int = 2005, scale: int = 4) -> list[ScenarioSpec]:
    """A Figure 4-flavoured matrix: the M3 suite under rising IRQ pressure."""
    from repro.workloads.kernels import AUTOINDY_SUITE

    return [
        ScenarioSpec(label=f"M3 irq mean_gap={gap}", core="m3", isa="thumb2",
                     workload=w.name, seed=seed, scale=scale,
                     interrupts=InterruptProfile(count=8, mean_gap=gap))
        for gap in rates
        for w in AUTOINDY_SUITE
    ]


def smoke_matrix(seed: int = 2005, scale: int = 1) -> list[ScenarioSpec]:
    """A reduced cross-domain mix: every domain but ``vehicle_fault``, a
    few cells each.

    This is the matrix the CI ``campaign-smoke`` step shards and diffs;
    it is intentionally small (seconds, not minutes) while still touching
    seven domains, both interrupt-free and IRQ-storm kernel cells, and
    both protected and unprotected soft-error arms.
    """
    from repro.sim.domains.can import can_matrix
    from repro.sim.domains.lin import lin_matrix
    from repro.sim.domains.osek import osek_matrix
    from repro.sim.domains.soft_error import soft_error_matrix
    from repro.sim.domains.vehicle import vehicle_matrix
    from repro.sim.domains.wcet import wcet_matrix

    kernel_cells = [
        ScenarioSpec(label="smoke m3", core="m3", isa="thumb2",
                     workload="ttsprk", seed=seed, scale=scale),
        ScenarioSpec(label="smoke arm7", core="arm7", isa="thumb",
                     workload="bitmnp", seed=seed, scale=scale),
        ScenarioSpec(label="smoke m3 irq", core="m3", isa="thumb2",
                     workload="canrdr", seed=seed, scale=scale,
                     interrupts=InterruptProfile(count=4, mean_gap=200)),
    ]
    cells = soft_error_matrix(seed=seed, scale=scale)
    return (kernel_cells
            + osek_matrix(seed=seed, scale=scale)[:3]
            + can_matrix(seed=seed, scale=scale)[:3]
            + [cell for cell in cells if cell.param("rate_per_mcycle") == 20.0
               and cell.workload == "tblook"]
            + vehicle_matrix(seed=seed, scale=scale)[:2]
            + lin_matrix(seed=seed, scale=scale)[:2]
            + wcet_matrix(seed=seed, scale=scale)[:2])


def vehicle_smoke_matrix(seed: int = 2005, scale: int = 1) -> list[ScenarioSpec]:
    """The co-simulation smoke mix: vehicle fleets plus the LIN sub-bus.

    Small enough for CI (a handful of seconds) while exercising all
    three guest cores, two bitrates, a non-default quantum, and the
    standalone LIN schedule model.
    """
    from repro.sim.domains.lin import lin_matrix
    from repro.sim.domains.vehicle import vehicle_matrix

    cells = vehicle_matrix(seed=seed, scale=scale)
    fleet = [cell for cell in cells if cell.param("sensors") in (1, 3)][:3]
    fine = [cell for cell in cells if cell.param("quantum_us") is not None]
    return fleet + fine + lin_matrix(seed=seed, scale=scale)[:2]


def _irq_sweep_matrix(seed: int = 2005, scale: int = 4) -> list[ScenarioSpec]:
    """The ``irq-sweep`` matrix: :func:`interrupt_sweep_matrix` at its
    default rates."""
    return interrupt_sweep_matrix(seed=seed, scale=scale)


#: built-in matrices by CLI name: the module and name of the builder, and
#: the domains its cells run.  Naming a matrix imports its module alone,
#: and listing them imports none.
_MATRICES = {
    "table1": ("repro.sim.campaign", "table1_matrix", ("kernel",)),
    "irq-sweep": ("repro.sim.campaign", "_irq_sweep_matrix", ("kernel",)),
    "osek": ("repro.sim.domains.osek", "osek_matrix", ("osek",)),
    "can": ("repro.sim.domains.can", "can_matrix", ("can",)),
    "soft-error": ("repro.sim.domains.soft_error", "soft_error_matrix", ("soft_error",)),
    "vehicle": ("repro.sim.domains.vehicle", "vehicle_matrix", ("vehicle",)),
    "vehicle-fault": (
        "repro.sim.domains.vehicle_fault",
        "vehicle_fault_matrix",
        ("vehicle_fault",),
    ),
    "lin": ("repro.sim.domains.lin", "lin_matrix", ("lin",)),
    "wcet": ("repro.sim.domains.wcet", "wcet_matrix", ("wcet",)),
    "vehicle-smoke": ("repro.sim.campaign", "vehicle_smoke_matrix", ("lin", "vehicle")),
    "smoke": (
        "repro.sim.campaign",
        "smoke_matrix",
        ("can", "kernel", "lin", "osek", "soft_error", "vehicle", "wcet"),
    ),
}


class _MatrixTable(Mapping):
    """The built-in matrix builders by CLI name, each ``f(seed, scale)``;
    a builder's module is imported when its name is looked up."""

    def __getitem__(self, name: str):
        module, builder, _ = _MATRICES[name]
        return getattr(importlib.import_module(module), builder)

    def __iter__(self):
        return iter(_MATRICES)

    def __len__(self) -> int:
        return len(_MATRICES)


def available_matrices() -> Mapping:
    """Built-in matrix builders by CLI name; each is ``f(seed, scale)``.
    Membership and iteration import nothing; looking a name up imports
    that matrix's module only."""
    return _MatrixTable()


def matrix_domains(name: str) -> tuple[str, ...]:
    """The domains the cells of built-in matrix ``name`` run, read from
    the static table (no import)."""
    return _MATRICES[name][2]


# ----------------------------------------------------------------------
# command line: python -m repro.sim.campaign
# ----------------------------------------------------------------------

def _parse_shard(text: str) -> tuple[int, int]:
    try:
        k, n = text.split("/")
        return int(k), int(n)
    except ValueError as exc:
        raise ValueError(f"--shard wants K/N (e.g. 0/4), got {text!r}") from exc


def build_parser():
    """The CLI flag parser.  Flags parse into a :class:`CampaignRequest`
    via :func:`request_from_args`."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.campaign",
        description="Run a scenario-domain campaign matrix; shard streams "
                    "concatenate byte-identically to an unsharded run.")
    parser.add_argument("--matrix", help="matrix name (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list built-in matrices and exit")
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--shard", type=_parse_shard, default=None,
                        metavar="K/N", help="run the K-th of N partitions")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="N >= 2 computes the cells on a supervised "
                             "fleet of N worker processes (a failing cell "
                             "streams as a cell_error record); default "
                             "serial, in this process")
    parser.add_argument("--stream", default=None, metavar="PATH",
                        help="write records to PATH as canonical JSONL "
                             "(truncated first: shard retries must replace, "
                             "not append)")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="record cache directory: cells already "
                             "computed by any earlier run are replayed "
                             "instead of re-run (output stays byte-"
                             "identical to a cold run)")
    parser.add_argument("--metrics", default=None, metavar="PATH",
                        help="dump a telemetry snapshot (repro.obs "
                             "registry JSON) to PATH after the run; "
                             "implies REPRO_OBS=1 for this process.  "
                             "Purely observational: record streams are "
                             "byte-identical with or without it")
    parser.add_argument("--priority", type=int, default=0,
                        help="service-side scheduling priority (higher "
                             "runs first; only meaningful with --connect)")
    parser.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="submit to a running campaign service "
                             "(python -m repro.sim.service) instead of "
                             "executing locally; records stream back in "
                             "spec order, byte-identical to a local run")
    return parser


def request_from_args(args) -> CampaignRequest:
    """The parsed CLI flags as a :class:`CampaignRequest`."""
    return CampaignRequest(matrix=args.matrix, seed=args.seed,
                           scale=args.scale, shard=args.shard,
                           workers=args.workers,
                           cache=args.cache, priority=args.priority)


def main(argv: list[str] | None = None) -> int:
    """CLI: run one (optionally sharded) campaign matrix to a JSONL stream.

    A thin client over the request core: flags parse into one
    :class:`CampaignRequest`, which is then executed locally
    (:func:`execute_request`) or submitted to a resident campaign service
    (``--connect``).
    """
    # Use the canonically-imported module, not this (possibly __main__)
    # namespace: stream readers must see one set of spec/record classes
    # regardless of how the CLI was launched.
    from repro.sim import campaign as mod

    parser = mod.build_parser()
    args = parser.parse_args(argv)

    matrices = mod.available_matrices()
    if args.list:
        for name in sorted(matrices):
            print(f"{name:14} domains: {', '.join(mod.matrix_domains(name))}")
        return 0
    if not args.matrix:
        parser.error("--matrix is required (or use --list)")
    if args.matrix not in matrices:
        parser.error(f"unknown matrix {args.matrix!r}; "
                     f"pick from {', '.join(sorted(matrices))}")
    request = mod.request_from_args(args)
    if args.metrics:
        # Telemetry on for this process; the record stream is unaffected
        # (property-tested: bytes identical with REPRO_OBS on and off).
        obs.enable()

    total = len(matrices[args.matrix](args.seed, args.scale))
    if args.stream:
        # Fresh file: the sharding recipe retries failed shards, and a
        # retry that appended would break the byte-identity guarantee.
        open(args.stream, "w", encoding="utf-8").close()

    # Tally incrementally so a million-scenario shard stays O(1) in
    # memory, like the library's streaming mode.
    ran = verified = 0
    domains: dict[str, int] = {}

    def tally(record) -> None:
        nonlocal ran, verified
        ran += 1
        verified += record.verified
        domains[record.domain] = domains.get(record.domain, 0) + 1

    summary = None
    cache = None
    if args.connect:
        from repro.sim.service.client import submit_and_stream
        from repro.sim.service.protocol import CampaignServiceError

        host, _, port = args.connect.rpartition(":")
        if not port.isdigit():
            parser.error(f"--connect wants HOST:PORT, got {args.connect!r}")
        try:
            summary = submit_and_stream(host or "127.0.0.1", int(port),
                                        request, stream_path=args.stream,
                                        on_record=tally)
        except CampaignServiceError as exc:
            print(f"service error [{exc.code}]: {exc.detail}")
            return 2
        except OSError as exc:
            print(f"cannot reach service at {args.connect}: {exc}")
            return 2
    else:
        if args.cache:
            from repro.sim.campaign.cache import RecordCache

            cache = RecordCache(args.cache)
        mod.execute_request(request, stream_path=args.stream,
                            collect=False, on_record=tally, cache=cache)
    shard_note = ""
    if args.shard is not None:
        low, high = mod.shard_bounds(total, args.shard)
        shard_note = (f" (shard {args.shard[0]}/{args.shard[1]}: "
                      f"cells {low}..{high - 1} of {total})")
    by_domain = ", ".join(f"{name}={count}"
                          for name, count in sorted(domains.items()))
    print(f"{args.matrix}: {ran} scenarios{shard_note}, "
          f"{verified} verified [{by_domain}]")
    if cache is not None:
        print(f"cache: {cache.hits} replayed, {cache.misses} computed "
              f"({args.cache})")
    if summary is not None:
        print(f"service: {summary.get('replayed', 0)} replayed, "
              f"{summary.get('joined', 0)} joined, "
              f"{summary.get('computed', 0)} computed "
              f"[{summary.get('status', 'ok')}, id {summary.get('id')}]")
        if summary.get("status") != "ok":
            return 2
    if args.stream:
        print(f"stream: {args.stream}")
    if args.metrics:
        obs.dump(args.metrics)
        print(f"metrics: {args.metrics}")
    return 0 if verified == ran else 2
