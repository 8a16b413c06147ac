#!/usr/bin/env python3
"""The repository benchmark: ``engine``, ``cosim`` and ``fleet`` workloads.

Run from the repository root::

    python3 perfbench/run.py --workload engine --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing of its own;
``--trace 1`` installs span wrappers around public functions of the
program (see ``layers.py``) and reports the per-layer metrics instead,
plus the tracing overhead against an untraced run of the same passes.
Metric names, units and directions come from ``BENCHMARK.json``; the
layer each metric belongs to and what it should move are in
``perfbench/catalogue.json``.

Every run checks its output: each record must verify, no cell may be a
``cell_error`` or missing, and the canonical record stream (sorted-key
JSON of ``record_to_obj``, in spec order) must be byte-identical to the
seed's local serial run.  Exact simulated counts must repeat between the
passes of a run, between the traced and untraced passes, and between
runs of one seed on the same source tree (kept in ``.bench_out/``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when the run was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
PROBE = ROOT / "perfbench" / "probe.py"
#: a probe that takes longer than this is broken, not slow
PROBE_TIMEOUT = 150
#: the serial workloads time at least this many passes
MIN_PASSES = 2


class BenchError(Exception):
    """The benchmark could not produce a measurement."""


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    report: list = field(default_factory=list)  # human-readable lines
    digest: str = ""
    counts: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.problems.append(message)


# ----------------------------------------------------------------------
# records: digests, counts, failures
# ----------------------------------------------------------------------

def record_lines(records) -> list[str]:
    from repro.sim.campaign.request import record_to_obj

    return [json.dumps(record_to_obj(r), sort_keys=True, separators=(",", ":"))
            for r in records]


def digest_of(lines) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def record_counts(records) -> dict:
    """Simulated statistics summed from the records themselves."""
    instructions = cycles = frames = 0
    for record in records:
        fields = vars(record)
        instructions += fields.get("instructions", fields.get("guest_instructions", 0))
        cycles += fields.get("cycles", fields.get("guest_cycles", 0))
        frames += fields.get("frames_delivered", 0)
    return {"core.instructions": instructions, "core.cycles": cycles,
            "network.can_frames": frames}


def bus_seconds(records) -> float:
    return sum(vars(r).get("horizon_us", 0) for r in records if r.verified) / 1e6


def failed_cells(specs, records, reference_lines, lines=None) -> int:
    """Cells missing, unverified, ``cell_error``, or not byte-identical to
    the reference."""
    lines = record_lines(records) if lines is None else lines
    bad = len(specs) - len(records)
    for index, record in enumerate(records):
        if (not record.verified or record.status == "error"
                or index >= len(reference_lines) or lines[index] != reference_lines[index]):
            bad += 1
    return bad


def source_hash() -> str:
    """Identity of the program and benchmark sources (keys the ledger)."""
    digest = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("perfbench/*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_ledger(outcome: Outcome, key: str) -> None:
    """Exact counts and the digest must repeat between runs of one seed."""
    path = OUT / "ledger.json"
    try:
        ledger = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        ledger = {}
    entry = ledger.setdefault(key, {"digest": outcome.digest, "counts": {}})
    if entry["digest"] != outcome.digest:
        outcome.fail(f"digest {outcome.digest[:16]} differs from an earlier run of "
                     f"this seed ({entry['digest'][:16]})")
    for name, value in outcome.counts.items():
        earlier = entry["counts"].setdefault(name, value)
        if earlier != value:
            outcome.fail(f"{name} = {value} differs from an earlier run of this seed "
                         f"({earlier})")
    tmp = path.with_name(f"ledger.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# fresh-interpreter probes
# ----------------------------------------------------------------------

def _probe(args: list[str], stdin: str | None = None) -> dict:
    try:
        proc = subprocess.run([sys.executable, str(PROBE), *args], input=stdin,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT,
                              cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"probe {args[0]} timed out after {PROBE_TIMEOUT}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"probe {args[0]} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Probes:
    """Set-up probes in fresh interpreters, run one at a time so that a
    workload can spread them over its run (the host's speed changes from
    one second to the next).  ``cold_specs`` are timed each in a fresh
    worker-like interpreter too (the fleet's cold cells)."""

    def __init__(self, workload: str, seed: int, size_name: str, count: int,
                 cold_specs=()):
        self.args = ["setup", workload, str(seed), size_name]
        self.count = count
        self.cold_specs = list(cold_specs)
        self.results: list[dict] = []

    def run(self, upto: int | None = None) -> None:
        """Run probes until ``upto`` (default: all of them) have run."""
        while len(self.results) < min(self.count, self.count if upto is None else upto):
            cache = OUT / f"probe-cache-{os.getpid()}-{len(self.results)}"
            try:
                result = _probe([*self.args, str(cache)])
            finally:
                shutil.rmtree(cache, ignore_errors=True)
            for cell in map(penalty_probe, self.cold_specs):
                result["cold_ms"].append(cell["cold_ms"])
                result["raw_cold_ms"].append(cell["raw_cold_ms"])
                result["failed"] += not cell["verified"]
            self.results.append(result)

    def one_more(self) -> None:
        self.run(len(self.results) + 1)


def penalty_probe(spec) -> dict:
    """One cell, cold then warm, in a fresh worker-like interpreter."""
    from repro.sim.campaign.request import spec_to_obj

    return _probe(["penalty"], stdin=json.dumps(spec_to_obj(spec)))


def cold_penalties(specs, outcome: Outcome) -> dict:
    """``cold.penalty_ms.<d>``: each domain's first cell in a fresh
    worker-like interpreter, minus the same cell warm."""
    first = {}
    for spec in specs:
        first.setdefault(spec.domain, spec)
    penalties = {}
    for domain, spec in first.items():
        result = penalty_probe(spec)
        if not (result["same"] and result["verified"]):
            outcome.fail(f"{domain}: the cold run of one cell did not verify or "
                         "differs from the warm run")
        penalties[domain] = result["cold_ms"] - result["warm_ms"]
    return penalties


def apply_probes(outcome: Outcome, probes: Probes) -> dict:
    """Set-up and cold-cell metrics shared by all workloads: medians over
    the fresh interpreters (each reports the mean of its cold cells)."""
    probes.run()
    probes = probes.results
    outcome.failed += sum(p["failed"] for p in probes)
    outcome.attempted += sum(len(p["cold_ms"]) for p in probes)
    outcome.report.append(
        f"{len(probes)} fresh interpreters x {len(probes[0]['cold_ms'])} cold cells; "
        f"raw medians: set-up {statistics.median(p['raw_setup_s'] for p in probes):.3f}s, "
        f"cold cell {statistics.median(statistics.fmean(p['raw_cold_ms']) for p in probes):.1f}ms")
    return {"setup_s": statistics.median(p["setup_s"] for p in probes),
            "first_cell_ms": statistics.median(statistics.fmean(p["cold_ms"]) for p in probes),
            "cold.import_ms": statistics.median(p["import_ms"] for p in probes)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def latency_metrics(outcome: Outcome, latencies: list) -> None:
    outcome.metrics["cell_latency_p50_ms"] = 1e3 * percentile(latencies, 50)
    outcome.metrics["cell_latency_p99_ms"] = 1e3 * percentile(latencies, 99)
    beyond = sum(1 for value in latencies if value > percentile(latencies, 99))
    outcome.report.append(f"latency samples: {len(latencies)} ({beyond} beyond p99)")


# ----------------------------------------------------------------------
# engine and cosim: serial local passes through execute_request
# ----------------------------------------------------------------------

@dataclass
class Pass:
    wall: float  # seconds spent in cells
    times: list  # per-cell seconds, spec order
    records: list
    normalised: list | None = None  # per-cell seconds at nominal host speed


def run_pass(specs, calibrate: bool = True) -> Pass:
    """One ``execute_request`` over ``specs``; with ``calibrate`` the
    host-speed loop runs between cells, outside their times."""
    from repro.sim.campaign import CampaignRequest, execute_request

    from perfbench import hostspeed

    records = []
    ended = []
    resumed = []
    refs = []

    def calibration() -> None:
        if calibrate:
            refs.append(hostspeed.reference())
        resumed.append(perf_counter())

    def on_record(record) -> None:
        ended.append(perf_counter())
        records.append(record)
        calibration()

    calibration()
    execute_request(CampaignRequest(specs=tuple(specs)), collect=False,
                    on_record=on_record)
    times = [end - begin for begin, end in zip(resumed, ended)]
    one = Pass(wall=sum(times), times=times, records=records)
    if calibrate:
        one.normalised = [hostspeed.normalise(t, (before + after) / 2)
                          for t, before, after in zip(times, refs, refs[1:])]
    return one


def timed_passes(specs, seconds: float, between=None, calibrate: bool = True) -> list[Pass]:
    """Passes until ``seconds`` of pass time; ``between()`` runs untimed
    after each pass."""
    passes = []
    while len(passes) < MIN_PASSES or sum(one.wall for one in passes) < seconds:
        passes.append(run_pass(specs, calibrate))
        if between is not None:
            between()
    return passes


def check_passes(outcome: Outcome, specs, passes, reference_lines, what: str) -> dict:
    """Failures and record-derived counts of a list of passes; every pass
    must reproduce the reference stream and the same counts."""
    counts = None
    for one in passes:
        lines = record_lines(one.records)
        outcome.attempted += len(specs)
        outcome.failed += failed_cells(specs, one.records, reference_lines, lines)
        these = record_counts(one.records)
        if counts is None:
            counts = these
        elif these != counts:
            outcome.fail(f"{what}: exact counts differ between passes: {these} vs {counts}")
    return counts


def serial_end_to_end(outcome: Outcome, specs, passes, shared) -> None:
    """Medians over the timed passes, of times normalised to the nominal
    host speed (see ``hostspeed.py``)."""
    walls = [one.wall for one in passes]
    wall = statistics.median(sum(one.normalised) for one in passes)
    records = passes[0].records
    instructions = record_counts(records)["core.instructions"]
    bus_s = bus_seconds(records)
    m = outcome.metrics
    m["setup_s"] = shared["setup_s"]
    m["first_cell_ms"] = shared["first_cell_ms"]
    m["cells_per_s"] = len(specs) / wall
    m["peak_rss_mb"] = peak_rss_mb()
    m["_guest_mips"] = instructions / wall / 1e6
    m["_bus_s_per_s"] = bus_s / wall if bus_s else None
    # each pass is one request: a cell's latency is the time from the
    # pass's start to its record, and each percentile is a median over passes
    arrivals = [list(itertools.accumulate(one.normalised)) for one in passes]
    for name, q in (("cell_latency_p50_ms", 50), ("cell_latency_p99_ms", 99)):
        m[name] = 1e3 * statistics.median(percentile(times, q) for times in arrivals)
    outcome.report.append(f"latency samples: {len(specs)} per pass")
    outcome.report.append(
        f"{len(passes)} timed passes of {len(specs)} cells; raw pass wall min/median/max "
        f"{min(walls):.3f}/{statistics.median(walls):.3f}/{max(walls):.3f}s, "
        f"normalised median {wall:.3f}s")


def run_serial(workload, seed, size, seconds, outcome: Outcome, probes) -> None:
    from perfbench import workloads

    specs = workloads.specs_for(workload, seed, size)
    reference = run_pass(specs)  # untimed warm-up: the seed's local serial run
    reference_lines = record_lines(reference.records)
    outcome.digest = digest_of(reference_lines)
    check_passes(outcome, specs, [reference], reference_lines, "warm-up")
    passes = timed_passes(specs, seconds, between=probes.one_more)
    shared = apply_probes(outcome, probes)
    serial_end_to_end(outcome, specs, passes, shared)
    outcome.counts = check_passes(outcome, specs, passes, reference_lines, "timed")


def blocks_built() -> float:
    from repro import obs

    series = obs.snapshot()["counters"].get("engine.superblocks.built", {})
    return sum(series.values())


def traced_phase(tracer, name: str, work):
    """Run ``work()`` as one tracer phase; returns the phase and the result."""
    tracer.begin(name)
    built = blocks_built()
    result = work()
    phase = tracer.end()
    phase.counters["blocks_built"] = blocks_built() - built
    return phase, result


def trace_only_counts(phase, passes: int) -> dict:
    c = phase.counters
    fired = sum(phase.count[name] for name in phase.count if name.startswith("events.cb."))
    return {"memory.bus_accesses": c["memory.bus_accesses"] / passes,
            "memory.stall_cycles": c["memory.stall_cycles"] / passes,
            "events.fired": fired / passes,
            "vehicle.advances": c["vehicle.advances"] / passes}


def run_serial_traced(workload, seed, size, seconds, outcome: Outcome, probes,
                      tracer, layers) -> None:
    from perfbench import layers as layer_mod
    from perfbench import workloads

    specs = workloads.specs_for(workload, seed, size)
    shared = apply_probes(outcome, probes)
    penalties = cold_penalties(specs, outcome)
    layers.install()
    try:
        warm, reference = traced_phase(
            tracer, "warmup", lambda: [run_pass(specs, calibrate=False)])
        timed, passes = traced_phase(
            tracer, "timed", lambda: timed_passes(specs, seconds, calibrate=False))
    finally:
        tracer.uninstall()
    untraced = [run_pass(specs, calibrate=False) for _ in passes]

    reference_lines = record_lines(untraced[0].records)
    outcome.digest = digest_of(reference_lines)
    counts = check_passes(outcome, specs, reference + passes + untraced,
                          reference_lines, "traced vs untraced")
    warm_counts = trace_only_counts(warm, 1)
    timed_counts = trace_only_counts(timed, len(passes))
    if warm_counts != timed_counts:
        outcome.fail(f"traced counts differ between passes: {warm_counts} vs {timed_counts}")
    outcome.counts = {**counts, **timed_counts}

    metrics = layer_mod.engine_layer_metrics(timed, len(passes))
    metrics.update(counts)
    traced_wall = statistics.fmean(one.wall for one in passes)
    untraced_wall = statistics.fmean(one.wall for one in untraced)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    metrics["trace.unattributed_frac"] = 1 - timed.covered() / timed.wall
    metrics.update(dict.fromkeys(layer_mod.SERVICE_METRICS, 0.0))  # no fleet here
    cold_metrics(metrics, shared, penalties)
    outcome.metrics = metrics
    attribution_report(outcome, timed, len(passes), "timed pass")


def cold_metrics(metrics: dict, shared: dict, penalties: dict) -> None:
    from perfbench.layers import DOMAINS

    metrics["cold.import_ms"] = shared["cold.import_ms"]
    for domain in DOMAINS:  # 0 for a domain this workload does not run
        metrics[f"cold.penalty_ms.{domain}"] = penalties.get(domain, 0.0)


def attribution_report(outcome: Outcome, phase, passes: int, unit: str) -> None:
    from perfbench import layers as layer_mod

    wall_ms = 1e3 * phase.wall / passes
    outcome.report.append(f"attribution: self time per {unit} (traced wall {wall_ms:.1f} ms)")
    for name, ms in layer_mod.attribution(phase, passes):
        outcome.report.append(f"  {name:34} {ms:10.2f} ms  {100 * ms / wall_ms:6.2f}%")
    outcome.report.append(
        f"  {'unattributed (no span)':34} "
        f"{wall_ms * (1 - phase.covered() / phase.wall):10.2f} ms  "
        f"{100 * (1 - phase.covered() / phase.wall):6.2f}%")


# ----------------------------------------------------------------------
# fleet: service + supervised workers + two closed-loop TCP clients
# ----------------------------------------------------------------------

def fleet_reference(phases):
    """Compute every requested cell locally once (two pool processes);
    each request's reference is then ``execute_request`` of it, replayed
    from that in-memory cache."""
    from repro.sim.campaign import CampaignRequest, execute_request
    from repro.sim.campaign.cache import MemoryRecordCache

    unique = {}
    for phase in phases:
        for sent in [phase.warmup, *(s for client in phase.sent for s in client)]:
            for spec in sent.specs:
                unique.setdefault(spec.key(), spec)
    cache = MemoryRecordCache()
    execute_request(CampaignRequest(specs=tuple(unique.values()), workers=2), cache=cache)
    return cache


def check_fleet(outcome: Outcome, phase, cache, size) -> tuple[str, dict]:
    """Every streamed request against a local run of it; the fleet's
    dedup and failure invariants; the digest of the first windows."""
    from repro.sim.campaign import CampaignRequest, execute_request

    timed = [s for client in phase.sent for s in client]
    for sent in [phase.warmup, *timed]:
        outcome.attempted += len(sent.specs)
        if sent.error is not None:
            outcome.failed += len(sent.specs)
            outcome.fail(f"client error: {sent.error}")
            continue
        local = execute_request(CampaignRequest(specs=tuple(sent.specs)), cache=cache)
        outcome.failed += failed_cells(sent.specs, sent.records,
                                       record_lines(local.records))
    unique = {spec.key() for sent in timed for spec in sent.specs}
    requested = sum(len(sent.specs) for sent in timed)
    done = [sent.summary for sent in timed if sent.summary is not None]
    computed = sum(d["computed"] for d in done)
    deduped = sum(d["replayed"] + d["joined"] for d in done)
    supervisor = phase.status.get("supervisor", {})
    if computed != len(unique):
        outcome.fail(f"fleet computed {computed} cells for {len(unique)} unique cells")
    if deduped != requested - len(unique):
        outcome.fail(f"replayed + joined = {deduped}, expected "
                     f"{requested - len(unique)}")
    for name in ("lost", "requeues", "respawns"):
        if supervisor.get(name, 0) != 0:
            outcome.fail(f"fleet.{name} = {supervisor.get(name)} (expected 0)")
    prefix = [record for client in phase.sent
              for sent in client[:size.digest_windows] for record in sent.records]
    return digest_of(record_lines(prefix)), record_counts(prefix)


def fleet_end_to_end(outcome: Outcome, phase, shared) -> None:
    """Whole-phase rate and latency percentiles, in raw wall time (why:
    see ``hostspeed.py``)."""
    timed = [s for client in phase.sent for s in client]
    delivered = [r for sent in timed for r in sent.records if r.verified]
    m = outcome.metrics
    m["setup_s"] = shared["setup_s"]
    m["first_cell_ms"] = shared["first_cell_ms"]
    m["cells_per_s"] = len(delivered) / phase.wall
    m["_guest_mips"] = record_counts(delivered)["core.instructions"] / phase.wall / 1e6
    m["peak_rss_mb"] = peak_rss_mb() + phase.worker_rss_mb
    m["_bus_s_per_s"] = bus_seconds(delivered) / phase.wall
    latency_metrics(outcome, [lat for sent in timed for lat in sent.latencies])
    outcome.report.append(
        f"timed wall {phase.wall:.2f}s; {len(timed)} requests; "
        f"{len(delivered)} verified records delivered")


def _fleet_cache_dir(tag: str) -> Path:
    return OUT / f"fleet-cache-{os.getpid()}-{tag}"


def fleet_phase(pool, size, seconds, tag: str, tracer=None):
    from perfbench import fleet

    min_windows = max(size.digest_windows, -(-size.replay_cells // size.window))
    cache_dir = _fleet_cache_dir(tag)
    try:
        return fleet.run_phase(pool, seconds, min_windows, cache_dir, tracer)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def run_fleet(seed, size, seconds, outcome: Outcome, probes) -> None:
    from perfbench import workloads

    pool = workloads.FleetPool(seed, size)
    probes.run(probes.count // 2 + 1)  # the rest after the timed phase
    phase = fleet_phase(pool, size, seconds, "timed")
    fleet_end_to_end(outcome, phase, apply_probes(outcome, probes))
    cache = fleet_reference([phase])
    outcome.digest, outcome.counts = check_fleet(outcome, phase, cache, size)


def run_fleet_traced(seed, size, seconds, outcome: Outcome, probes, tracer, layers) -> None:
    from repro.sim.campaign import run_scenario
    from perfbench import layers as layer_mod
    from perfbench import workloads
    from perfbench.fleet import WORKERS

    shared = apply_probes(outcome, probes)
    pool = workloads.FleetPool(seed, size)
    replay_specs = [pool.cell(j) for j in range(size.replay_cells)]
    penalties = cold_penalties(replay_specs, outcome)

    layers.install()
    try:
        phase = fleet_phase(pool, size, seconds, "traced", tracer)
        timed = tracer.phase
        # replay the computed cells of the pool prefix in-process: domain
        # compute time per cell, to split each fleet round trip
        compute = {}

        def replay_cells() -> list:
            records = []
            for spec in replay_specs:
                started = perf_counter()
                records.append(run_scenario(spec))
                compute[spec.key()] = perf_counter() - started
            return records

        replay, replayed = traced_phase(tracer, "replay", replay_cells)
    finally:
        tracer.uninstall()
    untraced = fleet_phase(pool, size, seconds, "untraced")

    cache = fleet_reference([phase, untraced])
    traced_digest, traced_counts = check_fleet(outcome, phase, cache, size)
    outcome.digest, counts = check_fleet(outcome, untraced, cache, size)
    if traced_digest != outcome.digest:
        outcome.fail("the traced fleet stream differs from the untraced one")
    if counts != traced_counts:
        outcome.fail(f"exact counts differ traced vs untraced: {traced_counts} vs {counts}")
    outcome.attempted += len(replay_specs)
    outcome.failed += failed_cells(
        replay_specs, replayed, record_lines([cache.get(spec) for spec in replay_specs]))

    metrics = layer_mod.engine_layer_metrics(replay, 1)
    metrics.update(record_counts(replayed))
    done = [s.summary for client in phase.sent for s in client if s.summary is not None]
    metrics.update(layer_mod.service_layer_metrics(
        timed, WORKERS, compute, layers.rtt, done))
    supervisor = phase.status.get("supervisor", {})
    for name in ("lost", "requeues", "respawns"):
        metrics[f"fleet.{name}"] = supervisor.get(name, 0)
    traced_records = sum(len(s.records) for client in phase.sent for s in client)
    untraced_records = sum(len(s.records) for client in untraced.sent for s in client)
    metrics["trace.overhead_frac"] = ((phase.wall / traced_records)
                                      / (untraced.wall / untraced_records) - 1)
    metrics["trace.unattributed_frac"] = 1 - timed.covered() / timed.wall
    cold_metrics(metrics, shared, penalties)
    outcome.metrics = metrics
    outcome.counts = {**counts, **trace_only_counts(replay, 1)}
    # the two workers' round trips overlap, so shares add up past 100%
    attribution_report(outcome, timed, 1, "fleet timed phase")
    outcome.report.append(
        f"replay of {len(replay_specs)} pool cells in-process: {1e3 * replay.wall:.0f} ms")


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("engine", "cosim", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every workload for the self-test")
    return parser.parse_args(argv)


def catalogue_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def emit(outcome: Outcome, args) -> int:
    wanted = catalogue_metrics(args.trace)
    metrics = {}
    for entry in wanted:
        if entry["name"] not in outcome.metrics:
            outcome.fail(f"metric {entry['name']} was not measured")
        value = float(outcome.metrics.get(entry["name"], 0.0))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    width = max(len(entry["name"]) for entry in wanted)
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace}")
    for line in outcome.report:
        print(f"  {line}")
    for entry in wanted:
        print(f"  {entry['name']:{width}} {metrics[entry['name']]['value']:14.4f} "
              f"{entry['unit']}")
    if not args.trace:
        print(f"  {'guest_mips':{width}} {outcome.metrics['_guest_mips']:14.4f} Minstr/s")
        bus = outcome.metrics.get("_bus_s_per_s")
        print(f"  {'bus_s_per_s':{width}} "
              + (f"{bus:14.4f} bus-s/s" if bus else f"{'n/a':>14} (no bus in this workload)"))
        frac = outcome.failed / outcome.attempted if outcome.attempted else 0.0
        print(f"  {'failed_frac':{width}} {frac:14.4f} ratio "
              f"({outcome.failed} of {outcome.attempted} cells)")
    print(f"  exact counts: {json.dumps(outcome.counts, sort_keys=True)}")
    print(f"  digest {outcome.digest}")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")
    correct = not outcome.problems and outcome.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(outcome.attempted, 1),
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    OUT.mkdir(exist_ok=True)
    from perfbench import workloads
    from perfbench.layers import Layers
    from perfbench.tracer import Tracer

    size = workloads.SIZES[args.size]
    outcome = Outcome()
    cold_specs = []
    if args.workload == "fleet":  # the first record of each fresh worker
        pool = workloads.FleetPool(args.seed, size)
        cold_specs = [pool.cell(0), pool.cell(1)]
    probes = Probes(args.workload, args.seed, args.size, size.probes, cold_specs)
    if args.trace:
        tracer = Tracer()
        layers = Layers(tracer)
        if args.workload == "fleet":
            run_fleet_traced(args.seed, size, args.seconds, outcome, probes, tracer, layers)
        else:
            run_serial_traced(args.workload, args.seed, size, args.seconds, outcome,
                              probes, tracer, layers)
        tracer.write_chrome(OUT / f"trace-{args.workload}-{args.seed}.json")
    elif args.workload == "fleet":
        run_fleet(args.seed, size, args.seconds, outcome, probes)
    else:
        run_serial(args.workload, args.seed, size, args.seconds, outcome, probes)
    check_ledger(outcome, f"{source_hash()}:{args.workload}:{args.seed}:{args.size}")
    return emit(outcome, args)


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
