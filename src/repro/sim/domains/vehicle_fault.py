"""The vehicle-fault scenario domain: co-simulated failure injection.

Each cell synthesizes a body network exactly like the ``vehicle`` domain,
then a fault scenario for it (:func:`repro.vehicle.faults.
synthesize_fault` - babbling idiot, bus-off storm, gateway RX overload,
stuck/dropped LIN slots, or a firmware soft error), runs the *fault-free
twin* and the *faulted* network over the same horizon, and records a
**verdict per safety claim** (:data:`repro.vehicle.faults.VERDICT_CLAIMS`):
latency bounds held, frame conservation, fail-silence of the faulted
node, recovery within the scenario deadline.

A cell *verifies* when the faulted run's verdicts match the cell's
**expected** outcomes (a latency violation under a babbling idiot is the
demonstration, not a failure), the checksum outcome matches (a soft
error must be detected), and the twin is healthy.  Expected outcomes
default per fault kind and are overridable per cell via ``expect_*``
params.  The record carries no engine count: how much of a cell runs
fused depends on what ran earlier in the process, since fusion hotness
is counted per engine plan (``repro.core.cpu``).

Determinism: both runs are pure functions of the spec (network and fault
synthesis draw from forked ``spec.rng()`` streams; injected traffic,
forced error windows, and soft-error flip points are all scheduled in
bus time or settled to WFI boundaries), so records are byte-identical
across engines, quantum sizes, workers, and shards - property-tested
like every other domain.

Params (via ``ScenarioSpec.params``):

* ``kind`` - fault kind (default ``babbling-idiot``)
* ``sensors`` - sensor-ECU count (default 3; ``gateway-overload`` needs 2+)
* ``bitrate`` - CAN bits per second (default 125_000)
* ``quantum_us`` - co-simulation quantum (default 200)
* ``horizon_us`` - simulated horizon x ``spec.scale`` (default 200_000)
* ``expect_latency_bound`` / ``expect_frame_conservation`` /
  ``expect_fail_silence`` / ``expect_recovery`` / ``expect_checksum_ok``
  - per-cell expected outcomes (default per kind)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.domains import ScenarioDomain
from repro.sim.domains.vehicle import synthesize_network
from repro.vehicle.faults import (
    FAULT_KINDS,
    VERDICT_CLAIMS,
    scenario_for,
    synthesize_fault,
)

#: expected per-claim outcomes by fault kind - what fault confinement
#: *specifies* should happen, demonstrated (not merely hoped) per cell
EXPECTED_BY_KIND = {
    "babbling-idiot": {"latency_bound": False, "frame_conservation": True,
                       "fail_silence": False, "recovery": True},
    "bus-off-storm": {"latency_bound": False, "frame_conservation": True,
                      "fail_silence": True, "recovery": True},
    "gateway-overload": {"latency_bound": False, "frame_conservation": False,
                         "fail_silence": True, "recovery": True},
    # a slot outage delays the command's first sight past its end-to-end
    # bound: the latency violation is the specified consequence
    "lin-drop": {"latency_bound": False, "frame_conservation": True,
                 "fail_silence": True, "recovery": True},
    "lin-stuck": {"latency_bound": False, "frame_conservation": True,
                  "fail_silence": True, "recovery": True},
    "soft-error": {"latency_bound": True, "frame_conservation": True,
                   "fail_silence": True, "recovery": True},
}


def _validated_claims(name: str, claims: dict) -> None:
    if set(claims) != set(VERDICT_CLAIMS):
        raise ValueError(
            f"{name} must carry exactly the claims {VERDICT_CLAIMS}, "
            f"got {sorted(claims)}")
    for claim, value in claims.items():
        if not isinstance(value, bool):
            raise ValueError(f"{name}[{claim!r}] must be a bool, "
                             f"got {value!r}")


@dataclass
class VehicleFaultRecord:
    """Outcome of one faulted co-simulation vs its fault-free twin."""

    label: str
    seed: int
    scale: int
    fault_kind: str
    fault_node: str
    fault_start_us: int
    fault_end_us: int
    fault_activations: int
    sensors: int
    cores: str
    bitrate: int
    quantum_us: int
    horizon_us: int
    samples_generated: int
    gateway_applied: int
    actuator_applied: int
    frames_queued: int
    frames_injected: int
    frames_delivered: int
    frames_backlog: int
    errors_injected: int
    bus_off_events: int
    rx_dropped: int
    lin_no_response: int
    worst_latency_us: int
    worst_bound_us: int
    bound_violations: int
    value_errors: int
    conservation_ok: bool
    checksum_ok: bool
    expected_checksum_ok: bool
    twin_worst_latency_us: int
    twin_bound_violations: int
    twin_healthy: bool
    verdicts: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    domain: str = "vehicle_fault"

    def __post_init__(self) -> None:
        _validated_claims("verdicts", self.verdicts)
        _validated_claims("expected", self.expected)

    @property
    def status(self) -> str:
        """Typed cell status: a computed record is always ``"ok"``."""
        return "ok"

    @property
    def verified(self) -> bool:
        """Fault confinement behaved exactly as specified: every claim's
        verdict matches the cell's expectation, the (possibly negative)
        checksum outcome matches, and the fault-free twin passed every
        bound."""
        return (self.twin_healthy
                and self.checksum_ok == self.expected_checksum_ok
                and all(self.verdicts[claim] == self.expected[claim]
                        for claim in VERDICT_CLAIMS))


class VehicleFaultDomain(ScenarioDomain):
    """Injected network/ECU failures with per-cell safety verdicts."""

    name = "vehicle_fault"
    record_class = VehicleFaultRecord

    def _horizon(self, spec) -> int:
        return int(spec.param("horizon_us", 200_000)) * max(spec.scale, 1)

    def build(self, spec):
        kind = str(spec.param("kind", "babbling-idiot"))
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; "
                             f"known: {', '.join(FAULT_KINDS)}")
        sensors = int(spec.param("sensors", 3))
        bitrate = int(spec.param("bitrate", 125_000))
        quantum = int(spec.param("quantum_us", 200))
        network_spec = synthesize_network(spec.rng().fork(1), sensors,
                                          bitrate, quantum)
        fault = synthesize_fault(spec.rng().fork(2), kind, network_spec,
                                 self._horizon(spec))
        return network_spec, fault

    def execute(self, spec, built):
        from repro.vehicle import build_body_network

        network_spec, fault = built
        horizon = self._horizon(spec)

        # the fault-free twin: same cell, same horizon, no scenario
        twin = build_body_network(network_spec)
        twin.run(horizon_us=horizon)
        twin_report = twin.report()

        # the faulted run
        network = build_body_network(network_spec)
        scenario = scenario_for(fault)
        scenario.arm(network)
        network.run(horizon_us=horizon)
        report = network.report()
        verdicts = scenario.verdicts(network, report)

        defaults = EXPECTED_BY_KIND[fault.kind]
        expected = {claim: bool(spec.param(f"expect_{claim}",
                                           defaults[claim]))
                    for claim in VERDICT_CLAIMS}
        expected_checksum = bool(spec.param("expect_checksum_ok",
                                            fault.kind != "soft-error"))

        conservation = network.vehicle.frame_conservation()
        bus = network.vehicle.can
        return VehicleFaultRecord(
            label=spec.label, seed=spec.seed, scale=spec.scale,
            fault_kind=fault.kind,
            fault_node=fault.node,
            fault_start_us=fault.start_us,
            fault_end_us=fault.end_us,
            fault_activations=scenario.activations,
            sensors=len(network_spec.sensors),
            cores=",".join(node.core for node in network_spec.sensors),
            bitrate=network_spec.can_bitrate,
            quantum_us=network_spec.quantum_us,
            horizon_us=horizon,
            samples_generated=report.generated,
            gateway_applied=report.gateway_applied,
            actuator_applied=report.actuator_applied,
            frames_queued=conservation["queued"],
            frames_injected=conservation["injected"],
            frames_delivered=conservation["delivered"],
            frames_backlog=conservation["backlog"],
            errors_injected=bus.errors_injected,
            bus_off_events=bus.bus_off_events,
            rx_dropped=network.gateway_can.fifo.dropped,
            lin_no_response=report.lin_no_response,
            worst_latency_us=report.worst_latency_us,
            worst_bound_us=report.worst_bound_us,
            bound_violations=report.bound_violations,
            value_errors=report.value_errors,
            conservation_ok=report.conservation_ok,
            checksum_ok=report.checksum_ok,
            expected_checksum_ok=expected_checksum,
            twin_worst_latency_us=twin_report.worst_latency_us,
            twin_bound_violations=twin_report.bound_violations,
            twin_healthy=twin_report.healthy,
            verdicts=verdicts,
            expected=expected,
        )


def vehicle_fault_matrix(seed: int = 2005, scale: int = 1) -> list:
    """Fault sweep: every scenario kind, plus a fine-quantum babbler."""
    from repro.sim.campaign import ScenarioSpec

    cells = [
        ScenarioSpec(label=f"fault {kind}", seed=seed, scale=scale,
                     domain="vehicle_fault", params=(("kind", kind),))
        for kind in FAULT_KINDS
    ]
    cells.append(ScenarioSpec(
        label="fault babbling-idiot fine-quantum", seed=seed, scale=scale,
        domain="vehicle_fault",
        params=(("kind", "babbling-idiot"), ("quantum_us", 50))))
    return cells


DOMAIN = VehicleFaultDomain()
