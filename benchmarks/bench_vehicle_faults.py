"""Fault-campaign throughput and the cost of injection.

Two rates for the ``vehicle_fault`` domain:

* **cells per second** - how fast a campaign host clears fault cells,
  each of which co-simulates the network *twice* (fault-free twin plus
  faulted run) and judges the per-claim verdicts;
* **fault overhead** - what arming a scenario (injected traffic, forced
  error windows, confinement bookkeeping) costs on top of the identical
  fault-free co-simulation, with the faulted guest ns/instruction
  reported.

``REPRO_BENCH_REDUCED=1`` shrinks the horizon and cell count for CI.
"""

from __future__ import annotations

import os
import time

from conftest import report

from repro.sim.campaign import run_scenario
from repro.sim.domains.vehicle import synthesize_network
from repro.sim.domains.vehicle_fault import vehicle_fault_matrix
from repro.sim.rng import DeterministicRng
from repro.vehicle import build_body_network, scenario_for, synthesize_fault

REDUCED = os.environ.get("REPRO_BENCH_REDUCED") == "1"

HORIZON_US = 100_000 if REDUCED else 400_000


def test_fault_campaign_cells_per_second(benchmark):
    specs = vehicle_fault_matrix(seed=2005)
    if REDUCED:
        specs = specs[:3]
    records = []

    def run():
        records.clear()
        records.extend(run_scenario(spec) for spec in specs)
        return records

    benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(r.verified for r in records), [r.label for r in records
                                              if not r.verified]
    seconds = benchmark.stats["mean"]
    report(
        "vehicle_fault campaign throughput"
        + (" [reduced]" if REDUCED else ""),
        [
            f"{len(records)} fault cells (twin + faulted co-sim each), "
            f"kinds: {', '.join(sorted({r.fault_kind for r in records}))}",
            f"{len(records) / seconds:8.2f} cells / second",
            f"{sum(r.errors_injected for r in records):8d} errors injected, "
            f"{sum(r.frames_injected for r in records)} frames injected, "
            f"{sum(r.bus_off_events for r in records)} bus-off events",
        ])
    benchmark.extra_info["cells_per_second"] = round(len(records) / seconds, 2)


def test_fault_injection_overhead_vs_fault_free(benchmark):
    net_spec = synthesize_network(DeterministicRng(11).fork(1), 3,
                                  125_000, 200)
    fault = synthesize_fault(DeterministicRng(11).fork(2), "babbling-idiot",
                             net_spec, HORIZON_US)

    def cosim(faulted: bool):
        network = build_body_network(net_spec)
        if faulted:
            scenario_for(fault).arm(network)
        network.run(horizon_us=HORIZON_US)
        return network

    # the fault-free twin timed outside the benchmark fixture (pytest-
    # benchmark tracks one statistic per test): same spec, same horizon
    begin = time.perf_counter()
    twin = cosim(faulted=False)
    twin_seconds = time.perf_counter() - begin
    assert twin.report().healthy

    built = {}

    def run():
        built["network"] = cosim(faulted=True)
        return built["network"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    network = built["network"]
    assert network.report().bound_violations > 0   # the fault really bit

    seconds = benchmark.stats["mean"]
    instructions = sum(ecu.cpu.instructions_executed
                       for ecu in network.vehicle.ecus)
    ns_per_instruction = seconds * 1e9 / instructions
    overhead = (seconds - twin_seconds) / twin_seconds * 100

    report(
        "fault-injection overhead (babbling idiot)"
        + (" [reduced]" if REDUCED else ""),
        [
            f"horizon {HORIZON_US / 1e6:.2f} simulated bus-seconds, "
            f"{len(network.vehicle.ecus)} ECUs",
            f"fault-free {twin_seconds * 1e3:8.1f} ms, "
            f"faulted {seconds * 1e3:8.1f} ms "
            f"({overhead:+.1f}% wall-clock)",
            f"{instructions:8d} guest instructions "
            f"({ns_per_instruction:.0f} ns/instruction faulted)",
            f"{len(network.vehicle.can.deliveries):8d} CAN frames, "
            f"{network.vehicle.can.errors_injected} errors injected, "
            f"{network.vehicle.frame_conservation()['injected']}"
            f" frames injected",
        ])
    benchmark.extra_info["fault_overhead_pct"] = round(overhead, 1)
