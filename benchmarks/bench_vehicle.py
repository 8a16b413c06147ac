"""Virtual-vehicle co-simulation throughput.

The cycle-coupled multi-ECU layer (3 sensor ECUs + gateway + actuator,
CAN + LIN) in the units the co-sim pump is judged by:

* **host microseconds per simulated millisecond** of ``VirtualVehicle.run``,
  timed *cold* (the first run in the process: fuse compiles included) and
  *warm* (best of N runs after it, each on a freshly built network);
* **scheduler events per 1,000 guest instructions** - the pump and bus
  bookkeeping per unit of real guest work.

``REPRO_BENCH_REDUCED=1`` shrinks the horizon and
the warm rounds for CI smoke.
"""

from __future__ import annotations

import os
from time import perf_counter

from conftest import report

from repro.vehicle import BodyNetworkSpec, SensorNode, build_body_network

REDUCED = os.environ.get("REPRO_BENCH_REDUCED") == "1"

HORIZON_US = 200_000 if REDUCED else 1_000_000
WARM_ROUNDS = 2 if REDUCED else 5

SPEC = BodyNetworkSpec(sensors=(
    SensorNode("wheel", "m3", 80, 0x120, 20_000),
    SensorNode("seat", "arm1156", 160, 0x180, 25_000, raw_salt=7),
    SensorNode("door", "arm7", 48, 0x200, 50_000, raw_salt=3),
))


def _outcome(network) -> tuple:
    """What a run did: scheduler events and per-ECU instructions."""
    return (network.vehicle.scheduler.events_fired,
            tuple(ecu.cpu.instructions_executed
                  for ecu in network.vehicle.ecus))


def test_body_network_cosim_throughput(benchmark):
    start = perf_counter()
    network = build_body_network(SPEC)
    build_s = perf_counter() - start
    start = perf_counter()
    network.run(horizon_us=HORIZON_US)
    cold_s = perf_counter() - start
    outcome = _outcome(network)

    warm = []

    def setup():
        return (build_body_network(SPEC),), {}

    def run(fresh) -> None:
        fresh.run(horizon_us=HORIZON_US)
        warm.append(fresh)

    benchmark.pedantic(run, setup=setup, rounds=WARM_ROUNDS, iterations=1)
    assert all(_outcome(fresh) == outcome for fresh in warm), \
        "warm rounds must repeat the cold run exactly"
    report_data = network.report()
    assert report_data.healthy, "benchmark network must verify end to end"

    warm_s = benchmark.stats["min"]
    sim_ms = HORIZON_US / 1e3
    events, per_ecu = outcome
    instructions = sum(per_ecu)
    cold_us_per_ms = cold_s * 1e6 / sim_ms
    warm_us_per_ms = warm_s * 1e6 / sim_ms
    events_per_kinstr = events * 1e3 / instructions

    report(
        "virtual vehicle co-simulation"
        + (" [reduced]" if REDUCED else ""),
        [
            f"horizon {sim_ms / 1e3:.2f} simulated bus-seconds, "
            f"{len(network.vehicle.ecus)} ECUs "
            f"(m3 + arm7 + arm1156), CAN + LIN",
            f"{cold_us_per_ms:8.1f} host us / simulated ms cold "
            f"(first run in process; build {build_s * 1e3:.0f} ms)",
            f"{warm_us_per_ms:8.1f} host us / simulated ms warm "
            f"(best of {WARM_ROUNDS}, fresh network each)",
            f"{events_per_kinstr:8.1f} scheduler events / 1,000 guest "
            f"instructions ({events} events, {instructions} instructions)",
            f"{len(network.vehicle.can.deliveries):8d} CAN frames, "
            f"{len(network.vehicle.lin.deliveries)} LIN frames",
            f"{report_data.gateway_applied + report_data.actuator_applied}"
            f" signal observations, worst latency "
            f"{report_data.worst_latency_us}us <= bound "
            f"{report_data.worst_bound_us}us",
        ])
    benchmark.extra_info["cold_us_per_sim_ms"] = round(cold_us_per_ms, 1)
    benchmark.extra_info["warm_us_per_sim_ms"] = round(warm_us_per_ms, 1)
    benchmark.extra_info["events_per_kinstr"] = round(events_per_kinstr, 2)
    benchmark.extra_info["guest_instructions"] = instructions
