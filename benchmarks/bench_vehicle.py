"""Virtual-vehicle co-simulation: cold and warm runs agree exactly.

The cycle-coupled multi-ECU layer (3 sensor ECUs + gateway + actuator,
CAN + LIN) run once *cold* (the first run in the process: engine plans
empty, fusion counted from zero) and then *warm* (rounds on freshly built
networks, whose cores enter blocks the cold run made hot fused from
their first dispatch, binding plan code).  Every warm round must repeat
the cold run exactly: scheduler events and, per ECU, instructions,
cycles and IRQs serviced.  The report adds **scheduler events per 1,000
guest instructions** - the pump and bus bookkeeping per unit of real
guest work.  Host time per simulated millisecond is perfbench's
``vehicle.us_per_sim_ms`` (``perfbench/run.py --workload cosim``).

``REPRO_BENCH_REDUCED=1`` shrinks the horizon and
the warm rounds for CI smoke.
"""

from __future__ import annotations

import os

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
    """What a run did: scheduler events, and per ECU its instructions,
    cycles and IRQs serviced."""
    return (network.vehicle.scheduler.events_fired,
            tuple((ecu.cpu.instructions_executed, ecu.cpu.cycles,
                   ecu.controller.stats.serviced)
                  for ecu in network.vehicle.ecus))


def test_body_network_cosim_throughput(benchmark):
    network = build_body_network(SPEC)
    network.run(horizon_us=HORIZON_US)
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

    sim_ms = HORIZON_US / 1e3
    events, per_ecu = outcome
    instructions = sum(ecu[0] for ecu in per_ecu)
    events_per_kinstr = events * 1e3 / instructions

    report(
        "virtual vehicle co-simulation"
        + (" [reduced]" if REDUCED else ""),
        [
            f"horizon {sim_ms / 1e3:.2f} simulated bus-seconds, "
            f"{len(network.vehicle.ecus)} ECUs "
            f"(m3 + arm7 + arm1156), CAN + LIN",
            f"{WARM_ROUNDS} warm rounds on fresh networks repeat the cold "
            f"run exactly (events; per-ECU instructions, cycles, IRQs)",
            f"{events_per_kinstr:8.1f} scheduler events / 1,000 guest "
            f"instructions ({events} events, {instructions} instructions)",
            f"{len(network.vehicle.can.deliveries):8d} CAN frames, "
            f"{len(network.vehicle.lin.deliveries)} LIN frames",
            f"{report_data.gateway_applied + report_data.actuator_applied}"
            f" signal observations, worst latency "
            f"{report_data.worst_latency_us}us <= bound "
            f"{report_data.worst_bound_us}us",
        ])
    benchmark.extra_info["events_per_kinstr"] = round(events_per_kinstr, 2)
    benchmark.extra_info["guest_instructions"] = instructions
