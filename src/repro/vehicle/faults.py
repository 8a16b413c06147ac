"""Deterministic fault scenarios composable onto a virtual vehicle.

Real automotive qualification is about behavior *under faults*: the
healthy sweeps the campaign runs elsewhere say nothing about what a
babbling node or a cosmic-ray upset does to the window lift.  This module
turns the classic automotive failure modes into deterministic, RNG-seeded
scenarios that arm onto any built :class:`~repro.vehicle.vehicle.
BodyNetwork` before its run:

* **babbling idiot** - an off-spec node spamming a high-priority
  identifier for a window, starving every legitimate stream of
  arbitration (the canonical argument for bus guardians);
* **bus-off storm** - a node whose every transmission in a window is
  corrupted, driving its TEC through error-passive to bus-off, recovery,
  and renewed bus-off (exercising the CAN fault-confinement model in
  :mod:`repro.network.can_bus`);
* **gateway RX overload** - the gateway's receive drain stalls for a
  window while an intruder floods an accepted identifier, overflowing
  the RX FIFO (frames drop, counted) until a drain at window end;
* **stuck / dropped LIN slots** - a wedged or dead LIN slave: the slot
  replays its stale response, or answers nothing at all;
* **firmware soft error** - bit flips inside a live ECU's SRAM mid
  co-simulation (composing :class:`~repro.memory.faults.
  SoftErrorInjector` with the co-sim clock), landing at the guest's next
  WFI boundary so the corruption point is a pure function of the
  instruction stream - byte-identical across engines and quanta.

Every scenario computes **per-claim safety verdicts** after the run
(:data:`VERDICT_CLAIMS`): latency bounds held, frame conservation,
fail-silence of the faulted node, and recovery within the scenario's
deadline - the Driverator-style checks the ``vehicle_fault`` campaign
domain records per cell against a fault-free twin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.faults import SoftErrorInjector
from repro.network.can_bus import BUS_OFF_RECOVERY_BITS
from repro.network.can_frame import CanFrame
from repro.sim.rng import DeterministicRng
from repro.vehicle import firmware

#: the safety claims every fault cell carries a verdict for
VERDICT_CLAIMS = ("latency_bound", "frame_conservation", "fail_silence",
                  "recovery")

#: every scenario kind :func:`synthesize_fault` can produce
FAULT_KINDS = ("babbling-idiot", "bus-off-storm", "gateway-overload",
               "lin-drop", "lin-stuck", "soft-error")

#: node labels for traffic the fault layer injects directly on the wire
BABBLER_NODE = "babbler"
INTRUDER_NODE = "intruder"

#: the babbler's identifier: beats every synthesized sensor id (>= 0x100)
BABBLE_CAN_ID = 0x010

_BABBLE_PAYLOAD = b"\xfa\x17\x00\x00"
#: the intruder spoofs a garbage sequence number (0xFFFF) so any frame
#: that survives to the gateway is detectably invalid
_SPOOF_WORD = (0xFFFF << 16) | 0x3FF


@dataclass(frozen=True)
class FaultSpec:
    """Pure-data description of one fault scenario (campaign-cell safe)."""

    kind: str
    node: str = ""              # faulted node's label
    can_id: int = 0             # babble / victim / spoofed / LIN frame id
    start_us: int = 0
    end_us: int = 0
    period_us: int = 0          # injected-traffic period (babble / spam)
    flips: int = 1              # soft-error bit flips
    seed: int = 0               # soft-error rng seed
    recovery_deadline_us: int = 50_000

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.end_us < self.start_us:
            raise ValueError("fault window ends before it starts")


def synthesize_fault(rng: DeterministicRng, kind: str, network_spec,
                     horizon_us: int) -> FaultSpec:
    """A fault spec for one network: pure function of the rng stream.

    The fault window sits in the middle of the horizon (roughly 25%-55%)
    so there is healthy traffic before it and room to observe recovery
    after it; per-kind parameters (babble period, storm victim, spoofed
    identifier, recovery deadline) derive from the network spec.
    """
    start = horizon_us // 4 + rng.randint(0, max(horizon_us // 20, 1))
    end = start + (horizon_us * 3) // 10
    max_period = max(node.period_us for node in network_spec.sensors)
    wire_us = -(-CanFrame(BABBLE_CAN_ID, _BABBLE_PAYLOAD).wire_bits
                * 1_000_000 // network_spec.can_bitrate)
    if kind == "babbling-idiot":
        # one babble frame is always pending when the previous completes,
        # so the babbler wins every arbitration inside the window
        return FaultSpec(kind=kind, node=BABBLER_NODE, can_id=BABBLE_CAN_ID,
                         start_us=start, end_us=end,
                         period_us=max(wire_us - 1, 1),
                         recovery_deadline_us=3 * max_period)
    if kind == "bus-off-storm":
        # the lowest identifier retries straight back into arbitration,
        # so its TEC climbs at wire speed and bus-off is reached in-window
        victim = min(network_spec.sensors, key=lambda node: node.can_id)
        recovery_us = -(-BUS_OFF_RECOVERY_BITS * 1_000_000
                        // network_spec.can_bitrate)
        return FaultSpec(kind=kind, node=victim.name, can_id=victim.can_id,
                         start_us=start, end_us=end,
                         recovery_deadline_us=3 * max_period + 2 * recovery_us)
    if kind == "gateway-overload":
        if len(network_spec.sensors) < 2:
            raise ValueError(
                "gateway-overload needs >= 2 sensors: the intruder spoofs "
                "a non-forwarded identifier so the actuator stays clean")
        spoofed = next(node for index, node in enumerate(network_spec.sensors)
                       if index != network_spec.forward_index)
        return FaultSpec(kind=kind, node=INTRUDER_NODE,
                         can_id=spoofed.can_id,
                         start_us=start, end_us=end, period_us=2 * wire_us,
                         recovery_deadline_us=3 * max_period)
    if kind in ("lin-drop", "lin-stuck"):
        return FaultSpec(kind=kind, node="lin-slave",
                         can_id=network_spec.lin_frame_id,
                         start_us=start, end_us=end,
                         recovery_deadline_us=(3 * max_period
                                               + 3 * network_spec.lin_slot_us))
    if kind == "soft-error":
        return FaultSpec(kind=kind, node="gateway", start_us=start,
                         end_us=start + 1, flips=1,
                         seed=rng.randint(0, 2**31 - 1),
                         recovery_deadline_us=3 * max_period)
    raise ValueError(f"unknown fault kind {kind!r}")


# ----------------------------------------------------------------------
# verdict helpers
# ----------------------------------------------------------------------

def _actuator_clean(network) -> bool:
    """Every value the actuator applied is a genuine mirrored command."""
    spec = network.spec
    forward = spec.sensors[spec.forward_index]
    log = network.generated[forward.name]
    for applied in network.actuator_out.applied:
        if applied.ident != spec.lin_frame_id:
            return False
        seq = applied.word >> 16
        if seq == 0:
            continue    # reset buffer, no command published yet
        if not 1 <= seq <= len(log):
            return False
        if applied.word != network.expected_word(forward, seq,
                                                 transformed=True):
            return False
    return True


def _recovered_by(times, end_us: int, deadline_us: int) -> bool:
    """Normal service observed inside the post-fault recovery window."""
    return any(end_us <= t <= end_us + deadline_us for t in times)


# ----------------------------------------------------------------------
# the scenarios
# ----------------------------------------------------------------------

class FaultScenario:
    """One armed fault: inject before the run, judge claims after it."""

    def __init__(self, fault: FaultSpec) -> None:
        self.fault = fault
        self.activations = 0    # injected frames / faulted slots / flips

    def arm(self, network) -> None:
        raise NotImplementedError

    # -- the four claims ------------------------------------------------
    def verdicts(self, network, report) -> dict:
        conservation = network.vehicle.frame_conservation()
        return {
            "latency_bound": report.bound_violations == 0,
            "frame_conservation": (report.conservation_ok
                                   and conservation["conserved"]),
            "fail_silence": self.fail_silent(network, report),
            "recovery": self.recovered(network, report),
        }

    def fail_silent(self, network, report) -> bool:
        """Default: the fault never surfaced a wrong value at the
        actuator (the faulted component failed without lying)."""
        return _actuator_clean(network)

    def recovered(self, network, report) -> bool:
        """Default: a valid sensor frame reached the gateway application
        within the deadline after the fault window closed."""
        by_id = {node.can_id: node for node in network.spec.sensors}
        times = []
        for applied in network.gateway_tap.applied:
            node = by_id.get(applied.ident)
            if node is None:
                continue
            seq = applied.word >> 16
            if 1 <= seq <= len(network.generated[node.name]):
                times.append(applied.at_us)
        return _recovered_by(times, self.fault.end_us,
                             self.fault.recovery_deadline_us)


class BabblingIdiot(FaultScenario):
    """An off-spec node spamming a high-priority id inside the window."""

    def arm(self, network) -> None:
        bus = network.vehicle.can
        scheduler = bus.scheduler
        fault = self.fault

        def babble() -> None:
            if scheduler.now >= fault.end_us:
                return
            self.activations += 1
            bus.submit(CanFrame(fault.can_id, _BABBLE_PAYLOAD),
                       node=fault.node, injected=True)
            scheduler.after(fault.period_us, babble)

        scheduler.at(fault.start_us, babble)

    def fail_silent(self, network, report) -> bool:
        # a babbling idiot is the textbook fail-silence violation: its
        # frames occupy the bus (no guardian cut it off)
        return not any(d.node == self.fault.node
                       for d in network.vehicle.can.deliveries)

    def recovered(self, network, report) -> bool:
        sensor_ids = {node.can_id for node in network.spec.sensors}
        times = [d.completed_at for d in network.vehicle.can.deliveries
                 if d.can_id in sensor_ids]
        return _recovered_by(times, self.fault.end_us,
                             self.fault.recovery_deadline_us)


class BusOffStorm(FaultScenario):
    """Every transmission of one node fails inside the window."""

    def arm(self, network) -> None:
        network.vehicle.can.force_error_window(
            self.fault.node, self.fault.start_us, self.fault.end_us)

    def fail_silent(self, network, report) -> bool:
        # bus-off is fault confinement working: the node went off and,
        # while off, put nothing on the wire
        state = network.vehicle.can.node_state(self.fault.node)
        if state.bus_off_events == 0:
            return False
        victim = [d for d in network.vehicle.can.deliveries
                  if d.node == self.fault.node]
        return not any(off < d.completed_at < recovered
                       for off, recovered in state.bus_off_log
                       for d in victim)

    def recovered(self, network, report) -> bool:
        times = [d.completed_at for d in network.vehicle.can.deliveries
                 if d.node == self.fault.node]
        return _recovered_by(times, self.fault.end_us,
                             self.fault.recovery_deadline_us)


class GatewayOverload(FaultScenario):
    """The gateway's RX drain stalls while an intruder floods the bus."""

    def arm(self, network) -> None:
        fault = self.fault
        gateway_can = network.gateway_can
        gateway_can.irq_blackouts = ((fault.start_us, fault.end_us),)
        bus = network.vehicle.can
        scheduler = bus.scheduler

        def spam() -> None:
            if scheduler.now >= fault.end_us:
                return
            self.activations += 1
            bus.submit(
                CanFrame(fault.can_id, _SPOOF_WORD.to_bytes(4, "little")),
                node=INTRUDER_NODE, injected=True)
            scheduler.after(fault.period_us, spam)

        scheduler.at(fault.start_us, spam)
        # the stalled drain restarts at window end: one IRQ empties the
        # FIFO (the gateway ISR polls until RXSTAT reads 0)
        number, handler, priority = gateway_can.irq
        scheduler.at(fault.end_us,
                     lambda: network.gateway.raise_irq(
                         number, handler, at_us=fault.end_us,
                         priority=priority))


class LinSlotFault(FaultScenario):
    """A wedged ("stuck") or dead ("drop") LIN slave for a window."""

    def arm(self, network) -> None:
        fault = self.fault
        mode = "drop" if fault.kind == "lin-drop" else "stuck"
        lin = network.vehicle.lin

        def hook(frame_id: int, now_us: int):
            if (frame_id == fault.can_id
                    and fault.start_us <= now_us < fault.end_us):
                self.activations += 1
                return mode
            return None

        lin.slot_fault = hook

    def recovered(self, network, report) -> bool:
        times = [applied.at_us for applied in network.actuator_out.applied
                 if (applied.word >> 16) >= 1]
        return _recovered_by(times, self.fault.end_us,
                             self.fault.recovery_deadline_us)


class FirmwareSoftError(FaultScenario):
    """Bit flips in the gateway's live SRAM, mid co-simulation.

    Flips target the guest's checksum word, so corruption is guaranteed
    detectable (the report's mirrored checksum mismatches) while the
    forwarded command path stays clean - a contained, fail-silent upset.
    The flip lands at the guest's next WFI boundary at or after the
    event time (:meth:`~repro.vehicle.ecu.Ecu.advance_for_event`), the
    unique architectural point every engine reaches identically.
    """

    def __init__(self, fault: FaultSpec) -> None:
        super().__init__(fault)
        self.injector: SoftErrorInjector | None = None

    def arm(self, network) -> None:
        fault = self.fault
        ecu = network.gateway
        bus = ecu.machine.bus
        injector = SoftErrorInjector(DeterministicRng(fault.seed),
                                     rate_per_mcycle=0.0)

        def flip(rng) -> None:
            addr = firmware.GATEWAY_CHECKSUM_ADDR
            word = bus.read_raw(addr, 4) ^ (1 << rng.randint(0, 31))
            bus.device_at(addr).write_raw(addr, word.to_bytes(4, "little"))

        injector.add_target("gateway-checksum", flip, lambda: 32)
        self.injector = injector
        scheduler = network.vehicle.scheduler

        def fire() -> None:
            ecu.advance_for_event(scheduler.now)
            for _ in range(fault.flips):
                injector.inject_one(time=scheduler.now)
                self.activations += 1

        scheduler.at(fault.start_us, fire)


_SCENARIOS = {
    "babbling-idiot": BabblingIdiot,
    "bus-off-storm": BusOffStorm,
    "gateway-overload": GatewayOverload,
    "lin-drop": LinSlotFault,
    "lin-stuck": LinSlotFault,
    "soft-error": FirmwareSoftError,
}


def scenario_for(fault: FaultSpec) -> FaultScenario:
    """The armed-scenario object for a fault spec."""
    return _SCENARIOS[fault.kind](fault)
