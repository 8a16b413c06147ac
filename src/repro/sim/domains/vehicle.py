"""The vehicle scenario domain: whole-network co-simulation cells.

Each cell synthesizes a body-network fleet (sensor ECUs with cores cycled
over all three models, a gateway, and a LIN window-lift actuator - the
signal matrix's identifiers, periods, and sample salts from
``spec.rng()``), runs it end-to-end on the cycle-coupled co-simulation
(:mod:`repro.vehicle`), and verifies the executed network against the
analytic layers: every observed signal latency at the gateway and the
actuator must respect its composed bound (per-ECU response-time analysis
over measured handler WCETs + Tindell/Davis CAN response times + the LIN
schedule-table worst case), CAN frames must be conserved, and every
applied value must equal the pure-Python mirror of the guest transforms.

Params (via ``ScenarioSpec.params``):

* ``sensors`` - sensor-ECU count (default 2)
* ``bitrate`` - CAN bits per second (default 125_000)
* ``quantum_us`` - co-simulation quantum (default 200)
* ``horizon_us`` - simulated horizon, multiplied by ``spec.scale``
  (default 200_000)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.domains import ScenarioDomain

#: body-network signal periods (microseconds)
PERIOD_POOL_US = (20_000, 25_000, 40_000, 50_000)

#: sensor cores cycle over every model the repo has
CORE_POOL = (("m3", 80), ("arm7", 48), ("arm1156", 160))


@dataclass
class VehicleRecord:
    """Outcome of one co-simulated body network: execution vs analysis."""

    label: str
    seed: int
    scale: int
    sensors: int
    cores: str                  # comma-joined sensor core names
    bitrate: int
    quantum_us: int
    horizon_us: int
    samples_generated: int
    gateway_applied: int
    actuator_applied: int
    frames_queued: int
    frames_delivered: int
    frames_backlog: int
    lin_deliveries: int
    lin_no_response: int
    worst_latency_us: int
    worst_bound_us: int
    bound_violations: int
    value_errors: int
    conservation_ok: bool
    checksum_ok: bool
    guest_instructions: int
    guest_cycles: int
    irqs_serviced: int
    fused_blocks: int
    domain: str = "vehicle"

    @property
    def status(self) -> str:
        """Typed cell status: a computed record is always ``"ok"``."""
        return "ok"

    @property
    def verified(self) -> bool:
        """The executed network respects every analytic bound, conserves
        frames and signal sequences, reproduces the mirrored values, and
        actually ran guest code on the fused trace engine."""
        return (self.gateway_applied > 0 and self.actuator_applied > 0
                and self.bound_violations == 0 and self.value_errors == 0
                and self.conservation_ok and self.checksum_ok
                and self.fused_blocks > 0)


def synthesize_network(rng, sensors: int, bitrate: int, quantum_us: int):
    """A body-network spec: pure function of the rng stream."""
    from repro.vehicle import BodyNetworkSpec, SensorNode

    if sensors < 1:
        raise ValueError(f"need at least one sensor ECU, got {sensors}")
    nodes = []
    for index in range(sensors):
        core, mhz = CORE_POOL[index % len(CORE_POOL)]
        nodes.append(SensorNode(
            name=f"sensor{index}", core=core, mhz=mhz,
            can_id=0x100 + 0x20 * index + rng.randint(0, 7),
            period_us=rng.choice(PERIOD_POOL_US),
            offset_us=1_000 + 500 * index,
            raw_salt=rng.randint(0, 255)))
    return BodyNetworkSpec(
        sensors=tuple(nodes),
        forward_index=rng.randint(0, sensors - 1),
        can_bitrate=bitrate,
        quantum_us=quantum_us)


class VehicleDomain(ScenarioDomain):
    """Synthesized ECU fleets: executed co-simulation vs analytic bounds."""

    name = "vehicle"
    record_class = VehicleRecord

    def build(self, spec):
        sensors = int(spec.param("sensors", 2))
        bitrate = int(spec.param("bitrate", 125_000))
        quantum = int(spec.param("quantum_us", 200))
        return synthesize_network(spec.rng().fork(1), sensors, bitrate,
                                  quantum)

    def execute(self, spec, network_spec):
        from repro.vehicle import build_body_network

        horizon = int(spec.param("horizon_us", 200_000)) * max(spec.scale, 1)
        network = build_body_network(network_spec)
        network.run(horizon_us=horizon)
        report = network.report()
        conservation = network.vehicle.frame_conservation()
        ecus = network.vehicle.ecus
        return VehicleRecord(
            label=spec.label, seed=spec.seed, scale=spec.scale,
            sensors=len(network_spec.sensors),
            cores=",".join(node.core for node in network_spec.sensors),
            bitrate=network_spec.can_bitrate,
            quantum_us=network_spec.quantum_us,
            horizon_us=horizon,
            samples_generated=report.generated,
            gateway_applied=report.gateway_applied,
            actuator_applied=report.actuator_applied,
            frames_queued=conservation["queued"],
            frames_delivered=conservation["delivered"],
            frames_backlog=conservation["backlog"],
            lin_deliveries=report.lin_deliveries,
            lin_no_response=report.lin_no_response,
            worst_latency_us=report.worst_latency_us,
            worst_bound_us=report.worst_bound_us,
            bound_violations=report.bound_violations,
            value_errors=report.value_errors,
            conservation_ok=report.conservation_ok,
            checksum_ok=report.checksum_ok,
            guest_instructions=sum(e.cpu.instructions_executed for e in ecus),
            guest_cycles=sum(e.cpu.cycles for e in ecus),
            irqs_serviced=sum(e.controller.stats.serviced for e in ecus),
            fused_blocks=sum(e.fused_block_count() for e in ecus),
        )


def vehicle_matrix(seed: int = 2005, scale: int = 1) -> list:
    """Fleet sweep: sensor count x bitrate grid plus a fine-quantum cell."""
    from repro.sim.campaign import ScenarioSpec

    cells = [
        ScenarioSpec(label=f"vehicle n={count} {bitrate // 1000}kbps",
                     seed=seed, scale=scale, domain="vehicle",
                     params=(("sensors", count), ("bitrate", bitrate)))
        for count in (1, 2, 3)
        for bitrate in (125_000, 250_000)
    ]
    cells.append(ScenarioSpec(
        label="vehicle fine-quantum", seed=seed, scale=scale,
        domain="vehicle",
        params=(("sensors", 2), ("bitrate", 125_000), ("quantum_us", 50))))
    return cells


DOMAIN = VehicleDomain()
