"""The virtual vehicle: cycle-coupled multi-ECU co-simulation.

This is the layer where everything the repository models finally executes
*together*: N real CPU-core models (ARM7 / Cortex-M3 / ARM1156, each
running real assembled firmware under the trace engine), the
discrete-event CAN bus, and the LIN sub-bus behind a gateway ECU, all on
one shared :class:`~repro.sim.events.EventScheduler` clock - the paper's
"distributed ECU network as a single compute resource" claim, run rather
than merely analysed.

Composition model
-----------------
* ECUs advance in bounded quanta (:meth:`~repro.vehicle.ecu.Ecu.
  advance_to_us`) on a fixed grid of pump points: the multiples of the
  quantum, then the horizon.  The pump is event-driven.  At a grid point
  it advances only the ECUs with work due by then
  (:meth:`~repro.vehicle.ecu.Ecu.next_work_cycle`): a running core, or a
  core parked on WFI whose earliest eligible queued IRQ asserts by that
  point.  It then re-arms at the first grid point at or after the
  earlier of the next ECU work and the next queued scheduler event, so
  quanta in which every core sleeps cost nothing.  A parked ECU with
  nothing eligible is left behind.  The first thing that touches it
  catches it up: a later pump once its IRQ is raised, the LIN responder,
  :meth:`~repro.vehicle.ecu.Ecu.advance_for_event`, or the final
  advance to the horizon.
* Bus → CPU coupling is interrupt-shaped: a frame arriving at a node's
  CAN/LIN controller raises its VIC/NVIC line with an absolute assert
  cycle derived from the bus time (plus a fixed delivery latency), and
  the engine's event horizon delivers it cycle-exactly.
* CPU → bus coupling is doorbell-shaped: an MMIO store queues a frame at
  the store's guest time plus a fixed transmit delay.
* The LIN master's schedule table reads a slave's response buffer with an
  on-demand advance of the publishing ECU to the slot's bus time, so the
  response is exactly what the guest had published by that instant.

All cross-domain timestamps are pure functions of bus times and guest
instruction streams - never of quantum placement - which makes whole
runs byte-identical across quantum sizes (property-tested).

Why skipping idle work changes no byte
--------------------------------------
Compared with an eager pump that advances every ECU at every grid point
(rebuilt as a test oracle in ``tests/test_vehicle_properties.py``):

* A WFI-parked core with no eligible IRQ up to the target executes
  nothing: the skipped ``advance_to_cycle`` would only have set
  ``cpu.cycles = target``.
* Before a sleeping core's next advance, only the "already past" guards
  of :meth:`~repro.vehicle.ecu.Ecu.raise_irq` and
  :meth:`~repro.vehicle.ecu.Ecu.advance_for_event` read its ``cycles``.
  A core that lags behind can never trip them.  Where the eager counter
  is ahead, it sits at a grid point no later than the current bus time,
  strictly below every assert or event cycle derived from that time
  (the delivery latency is at least one cycle), so the eager guard
  cannot trip either.
* On catch-up, ``_sleep_until`` jumps to ``max(wake, cycles + 1)``.  The
  wake lies past every grid point the eager pump advanced the core to,
  so from either starting point that is the same wake cycle.
* Running ECUs get exactly the eager pump's ``run_until_cycle`` targets,
  in the same list order, so doorbell ``scheduler.at`` calls come in the
  same order.
* The pump stays at priority 9.  Fewer pump events take sequence
  numbers, but ties among the other events keep their order.
* Every event that can wake a core or touch an ECU is a scheduler event
  at or after the queue head the pump peeked at, so no pump that is
  needed gets skipped.  This is conservative lookahead in the
  Chandy-Misra-Bryant sense: nothing can happen to an ECU before the
  earliest pending event, and ECUs affect one another only through
  scheduled bus events (doorbells enter arbitration ``tx_delay_us``
  after the store; deliveries assert ``irq_latency_cycles`` after the
  bus time).
* The eligible-wake test lives in one helper,
  :meth:`~repro.vehicle.ecu.Ecu.next_work_cycle`, which both the pump
  and ``_sleep_until`` call, so the two cannot drift apart.

Quantum-ladder invariance, the eager-pump oracle and the vehicle golden
corpus prove the identity.

The quantum edge itself is sound because the per-block cycle caps that
bound speculative superblock execution are built from *declared* device
timing: every memory device states its worst per-access stall
(``worst_stall`` - see :class:`repro.memory.bus.MemoryDevice`), the bus
aggregates the declarations, and each core folds in its declared worst
dynamic instruction cost (``WORST_DYNAMIC_CYCLES``) - no heuristic
slack anywhere in the bound (:meth:`repro.core.cpu.BaseCpu.
_block_cycle_cap`).

:func:`build_body_network` assembles the canonical three-ECU topology
(sensor ECUs -> CAN -> gateway ECU -> LIN -> window-lift actuator ECU)
and cross-checks every observed end-to-end signal latency against the
composed analytic bound: per-ECU response-time analysis
(:mod:`repro.rtos.analysis`, over measured handler WCETs) chained with
the Tindell/Davis CAN bound (:mod:`repro.network.can_analysis`) and the
LIN schedule-table bound.  :func:`build_round_trip` is the minimal
two-ECU CAN request/response network the conformance corpus pins.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from repro.core.arm1156 import Arm1156Core
from repro.core.machines import (
    DEFAULT_FLASH_SIZE,
    DEFAULT_SRAM_SIZE,
    FLASH_BASE,
    Machine,
    build_arm7,
    build_cortexm3,
)
from repro.core.vic import VicController
from repro.isa import ISA_THUMB, ISA_THUMB2, Program, assemble
from repro.memory.bus import SystemBus
from repro.memory.cache import Cache
from repro.memory.flash import Flash
from repro.memory.sram import Sram
from repro.network.can_analysis import MessageSpec, can_response_times
from repro.network.can_bus import CanBus
from repro.network.lin import LinMaster, ScheduleSlot, frame_bits
from repro.rtos.analysis import AnalysedTask, response_time_analysis
from repro.sim.events import EventScheduler
from repro.vehicle import firmware
from repro.vehicle.controllers import (
    ActuatorDevice,
    CanController,
    LinController,
    SensorDevice,
)
from repro.vehicle.ecu import Ecu

MASK16 = 0xFFFF

#: cycles added on top of a measured handler body for exception entry,
#: exit, and pipeline effects on any of the three cores (M3 hardware
#: stacking is 12 + unstacking 12; the VIC cores 5 + return)
ENTRY_EXIT_ALLOWANCE = 64

#: measured-WCET safety margin (certification-style padding)
WCET_MARGIN = 0.5


def guest_isa(core: str) -> str:
    """The ISA each guest core runs (the harmonized Thumb subset)."""
    return ISA_THUMB if core == "arm7" else ISA_THUMB2


@functools.lru_cache(maxsize=64)
def _assemble_firmware(source: str, isa: str) -> Program:
    """Assemble one guest firmware image, once per process."""
    return assemble(source, isa, base=FLASH_BASE)


def build_guest_machine(core: str, source: str,
                        flash_access_cycles: int | None = None) -> Machine:
    """Assemble firmware and build the matching MCU for one ECU node.

    The assembled program is memoised by (source, ISA): every machine
    running the same firmware - calibration twins included - shares one
    :class:`~repro.isa.Program` and the micro-op table ``predecode``
    caches on it.  A guest machine's program must therefore not be
    patched in place: assemble a private copy with
    :func:`~repro.isa.assemble` to patch one.

    The ARM1156 variant runs with its instruction cache but *no data
    cache*: the data side carries the memory-mapped network controllers,
    and a read-allocating cache in front of volatile device registers
    would serve stale mailbox state - the standard automotive MPU setup
    maps peripheral space device-type (uncached), which a missing dcache
    models exactly.
    """
    program = _assemble_firmware(source, guest_isa(core))
    if core == "arm7":
        return build_arm7(program)
    if core in ("m3", "cortex-m3"):
        return build_cortexm3(program)
    if core != "arm1156":
        raise ValueError(f"unknown guest core {core!r}")
    bus = SystemBus()
    flash = Flash(base=FLASH_BASE, size=DEFAULT_FLASH_SIZE,
                  access_cycles=1 if flash_access_cycles is None
                  else flash_access_cycles,
                  line_bytes=32, prefetch=True)
    from repro.core.machines import SRAM_BASE

    sram = Sram(base=SRAM_BASE, size=DEFAULT_SRAM_SIZE, wait_states=1)
    bus.attach(flash)
    bus.attach(sram)
    bus.load_image(program.base, program.image())
    icache = Cache(bus, sets=64, ways=4, line_bytes=32, fault_tolerant=True)
    cpu = Arm1156Core(program, bus, icache=icache, dcache=None,
                      vic=VicController())
    machine = Machine(cpu=cpu, bus=bus, flash=flash, sram=sram, icache=icache)
    machine.reset_stack()
    return machine


# ----------------------------------------------------------------------
# the orchestrator
# ----------------------------------------------------------------------

class VirtualVehicle:
    """ECUs + CAN + LIN on one deterministic discrete-event clock."""

    def __init__(self, can_bitrate: int = 125_000) -> None:
        self.scheduler = EventScheduler()
        self.can = CanBus(scheduler=self.scheduler, bitrate_bps=can_bitrate)
        self.lin: LinMaster | None = None
        self.ecus: list[Ecu] = []
        self.horizon_us = 0

    def add_ecu(self, ecu: Ecu) -> Ecu:
        self.ecus.append(ecu)
        return ecu

    def add_lin(self, schedule: list[ScheduleSlot],
                baud: int = 19_200) -> LinMaster:
        self.lin = LinMaster(schedule, baud=baud, scheduler=self.scheduler)
        return self.lin

    def attach_lin_publisher(self, ecu: Ecu, controller: LinController,
                             frame_id: int) -> None:
        """Wire a node's LIN response buffer into the master's schedule.

        The responder advances the publishing ECU to the slot's bus time
        first, so the buffer content is bit-exactly the guest's state at
        that instant regardless of quantum placement.
        """

        def responder() -> bytes:
            ecu.advance_to_us(self.scheduler.now)
            return controller.respond()

        self.lin.attach_slave(frame_id, responder)

    def every(self, period_us: int, callback, offset_us: int = 0,
              priority: int = 0) -> None:
        """Schedule ``callback`` periodically (offset, offset+period, ...)."""

        def fire() -> None:
            callback()
            self.scheduler.after(period_us, fire, priority=priority)

        self.scheduler.at(self.scheduler.now + offset_us, fire,
                          priority=priority)

    def run(self, horizon_us: int, quantum_us: int = 200) -> None:
        """Advance the whole network deterministically to the horizon.

        The pump fires on the quantum grid (multiples of ``quantum_us``,
        then the horizon) but skips grid points before the next scheduler
        event or ECU work, and advances only the ECUs with work due.
        Every ECU is caught up to the horizon at the end (see the module
        docstring).
        """
        if quantum_us <= 0:
            raise ValueError("quantum_us must be positive")
        self.horizon_us = horizon_us
        scheduler = self.scheduler
        ecus = self.ecus

        def pump() -> None:
            now = scheduler.now
            due = None  # earliest bus time at which some ECU has work
            for ecu in ecus:
                work = ecu.next_work_cycle()
                if work is not None and work <= ecu.cycle_of_us(now):
                    ecu.advance_to_us(now)
                    work = ecu.next_work_cycle()
                if work is not None:
                    at_us = ecu.us_of_cycle(work)
                    if due is None or at_us < due:
                        due = at_us
            if now >= horizon_us:
                return
            # nothing reaches an ECU before the next scheduler event, so
            # the next pump is due at the first grid point at or after
            # the earlier of that event and the earliest ECU work
            head = scheduler.peek_time()
            if head is not None and (due is None or head < due):
                due = head
            if due is None:
                next_us = horizon_us
            else:
                next_us = max(now + quantum_us,
                              -(-due // quantum_us) * quantum_us)
            scheduler.at(min(next_us, horizon_us), pump, priority=9)

        # priority 9: at any shared timestamp, bus events (deliveries,
        # LIN slots) run first, so a pump sees every IRQ raised at its
        # own grid point
        scheduler.at(min(quantum_us, horizon_us), pump, priority=9)
        if self.lin is not None:
            self.lin.start(offset_us=0)
        scheduler.run(until=horizon_us)
        for ecu in ecus:
            ecu.advance_to_us(horizon_us)

    # ------------------------------------------------------------------
    def frame_conservation(self) -> dict:
        """CAN frame accounting across controllers, scheduler, and wire.

        Exactly-once under faults too: frames injected by the fault layer
        (no controller TX path) and frames parked behind a bus-off node
        are both in the ledger, and injected-error accounting must be
        coherent (every error frame attributed to exactly one message).
        """
        queued = submitted = 0
        for ecu in self.ecus:
            for device in ecu.devices:
                if isinstance(device, CanController):
                    queued += device.frames_queued
                    submitted += device.frames_submitted
        delivered = len(self.can.deliveries)
        in_tx_path = queued - submitted
        sourced = queued + self.can.frames_injected
        errors = self.can.error_accounting()
        return {
            "queued": queued,
            "injected": self.can.frames_injected,
            "delivered": delivered,
            "backlog": self.can.backlog + in_tx_path,
            "errors_injected": errors["errors_injected"],
            "conserved": (sourced == delivered + self.can.backlog + in_tx_path
                          and errors["coherent"]),
        }


# ----------------------------------------------------------------------
# the canonical body network: sensors -> CAN -> gateway -> LIN -> actuator
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SensorNode:
    """One sensor ECU publishing a periodic CAN signal."""

    name: str
    core: str            # 'arm7' | 'm3' | 'arm1156'
    mhz: int
    can_id: int
    period_us: int
    offset_us: int = 1_000
    raw_salt: int = 0    # parameterizes the deterministic sample sequence


@dataclass(frozen=True)
class BodyNetworkSpec:
    """Pure-data description of a whole body network (campaign-cell safe)."""

    sensors: tuple[SensorNode, ...]
    gateway_core: str = "m3"
    gateway_mhz: int = 80
    actuator_core: str = "arm7"
    actuator_mhz: int = 24
    forward_index: int = 0          # which sensor's signal rides to LIN
    lin_frame_id: int = 0x21
    lin_baud: int = 19_200
    lin_slot_us: int = 10_000
    can_bitrate: int = 125_000
    quantum_us: int = 200
    irq_latency_cycles: int = 256
    tx_delay_us: int = 500


@dataclass
class GeneratedSample:
    seq: int
    raw: int
    at_us: int


@dataclass
class SignalObservation:
    """One observed hop of a signal instance (gateway tap or actuator)."""

    signal: str
    seq: int
    latency_us: int
    bound_us: int
    value_ok: bool

    @property
    def within_bound(self) -> bool:
        return self.latency_us <= self.bound_us


@dataclass
class BodyNetworkReport:
    """Everything a campaign record (or a test) wants to know."""

    observations: list[SignalObservation] = field(default_factory=list)
    generated: int = 0
    gateway_applied: int = 0
    actuator_applied: int = 0
    bound_violations: int = 0
    value_errors: int = 0
    conservation_ok: bool = True
    checksum_ok: bool = True
    worst_latency_us: int = 0
    worst_bound_us: int = 0
    lin_deliveries: int = 0
    lin_no_response: int = 0

    @property
    def healthy(self) -> bool:
        return (self.gateway_applied > 0 and self.actuator_applied > 0
                and self.bound_violations == 0 and self.value_errors == 0
                and self.conservation_ok and self.checksum_ok)


def sample_raw(salt: int, seq: int) -> int:
    """The deterministic sensor sample sequence (10-bit ADC-ish)."""
    return ((seq * 2654435761 + salt * 97) >> 7) & 0x3FF


class BodyNetwork:
    """A built three-ECU body network plus its measurement machinery."""

    def __init__(self, spec: BodyNetworkSpec) -> None:
        if not spec.sensors:
            raise ValueError("a body network needs at least one sensor ECU")
        if not 0 <= spec.forward_index < len(spec.sensors):
            raise ValueError("forward_index out of range")
        self.spec = spec
        self.vehicle = VirtualVehicle(can_bitrate=spec.can_bitrate)
        self.generated: dict[str, list[GeneratedSample]] = {}

        forward = spec.sensors[spec.forward_index]
        self.forward_id = forward.can_id
        lat = spec.irq_latency_cycles
        txd = spec.tx_delay_us

        # -- sensor ECUs -------------------------------------------------
        self.sensor_ecus: list[Ecu] = []
        self.sensor_devices: list[SensorDevice] = []
        for node in spec.sensors:
            machine = build_guest_machine(node.core,
                                          firmware.sensor_source(node.can_id))
            ecu = Ecu(node.name, machine, clock_mhz=node.mhz,
                      irq_latency_cycles=lat, tx_delay_us=txd)
            sensor = SensorDevice()
            can_cell = CanController()
            ecu.attach_device(sensor)
            ecu.attach_device(can_cell)
            can_cell.bind(ecu, self.vehicle.can, node=node.name, accept=())
            self.vehicle.add_ecu(ecu)
            self.sensor_ecus.append(ecu)
            self.sensor_devices.append(sensor)
            self.generated[node.name] = []

        # -- gateway ECU -------------------------------------------------
        machine = build_guest_machine(
            spec.gateway_core, firmware.gateway_source(self.forward_id))
        self.gateway = Ecu("gateway", machine, clock_mhz=spec.gateway_mhz,
                           irq_latency_cycles=lat, tx_delay_us=txd)
        self.gateway_can = CanController()
        self.gateway_lin = LinController()
        self.gateway_tap = ActuatorDevice()
        self.gateway.attach_device(self.gateway_can)
        self.gateway.attach_device(self.gateway_lin)
        self.gateway.attach_device(self.gateway_tap)
        handlers = machine.cpu.program.symbols
        self.gateway_can.bind(
            self.gateway, self.vehicle.can, node="gateway",
            accept=[n.can_id for n in spec.sensors],
            irq=(2, handlers["can_rx_isr"], 1))
        self.vehicle.add_ecu(self.gateway)

        # -- LIN leg -----------------------------------------------------
        slot_us = max(spec.lin_slot_us,
                      -(-frame_bits(4) * 1_000_000 // spec.lin_baud) + 100)
        self.vehicle.add_lin([ScheduleSlot(spec.lin_frame_id, 4, slot_us)],
                             baud=spec.lin_baud)
        self.gateway_lin.bind(self.gateway, self.vehicle.lin, accept=())
        self.vehicle.attach_lin_publisher(self.gateway, self.gateway_lin,
                                          spec.lin_frame_id)

        # -- actuator ECU ------------------------------------------------
        machine = build_guest_machine(spec.actuator_core,
                                      firmware.actuator_source())
        self.actuator = Ecu("actuator", machine, clock_mhz=spec.actuator_mhz,
                            irq_latency_cycles=lat, tx_delay_us=txd)
        self.actuator_lin = LinController()
        self.actuator_out = ActuatorDevice()
        self.actuator.attach_device(self.actuator_lin)
        self.actuator.attach_device(self.actuator_out)
        handlers = machine.cpu.program.symbols
        self.actuator_lin.bind(self.actuator, self.vehicle.lin,
                               accept=[spec.lin_frame_id],
                               irq=(3, handlers["lin_rx_isr"], 1))
        self.vehicle.add_ecu(self.actuator)

        self._arm_samplers()

    # ------------------------------------------------------------------
    def _arm_samplers(self) -> None:
        for node, ecu, device in zip(self.spec.sensors, self.sensor_ecus,
                                     self.sensor_devices):
            handler = ecu.cpu.program.symbols["timer_isr"]

            def sample(node=node, ecu=ecu, device=device,
                       handler=handler) -> None:
                log = self.generated[node.name]
                seq = len(log) + 1
                raw = sample_raw(node.raw_salt, seq)
                now = self.vehicle.scheduler.now
                word = ((seq & MASK16) << 16) | raw
                device.latch(word, visible_from=ecu.cycle_of_us(now))
                ecu.raise_irq(1, handler, at_us=now, priority=0)
                log.append(GeneratedSample(seq=seq, raw=raw, at_us=now))

            self.vehicle.every(node.period_us, sample,
                               offset_us=node.offset_us)

    def run(self, horizon_us: int, quantum_us: int | None = None) -> None:
        self.vehicle.run(horizon_us,
                         quantum_us=quantum_us or self.spec.quantum_us)

    # ------------------------------------------------------------------
    # analytic bounds (calibration twin + RTA + CAN + LIN composition)
    # ------------------------------------------------------------------
    def analytic_bounds(self) -> dict[str, dict]:
        """Per-signal end-to-end bounds composed from the layer analyses.

        Handler WCETs are measured on a *calibration twin* of this very
        network (measurement-based timing analysis, padded by
        ``WCET_MARGIN`` like :mod:`repro.rtos.wcet`), per-ECU responses
        come from :func:`~repro.rtos.analysis.response_time_analysis`,
        the CAN leg from :func:`~repro.network.can_analysis.
        can_response_times` (sensor-side processing folded in as release
        jitter), and the LIN leg from the schedule-table worst case.
        """
        spec = self.spec
        twin = BodyNetwork(spec)
        lat = spec.irq_latency_cycles

        def leg_us(ecu: Ecu, response_cycles: int) -> int:
            return -(-(lat + 1 + response_cycles) // ecu.mhz) + 1

        # sensor legs: sample event -> frame queued at the bus
        sensor_leg = {}
        for node, ecu, twin_ecu, twin_dev in zip(
                spec.sensors, self.sensor_ecus, twin.sensor_ecus,
                twin.sensor_devices):
            worst = 0
            for raw in (0, 0x3FF):
                twin_dev.latch(((1 & MASK16) << 16) | raw, visible_from=0)
                before = twin_ecu.cpu.cycles
                twin_ecu.machine.call("timer_isr")
                worst = max(worst, twin_ecu.cpu.cycles - before)
            wcet = int(math.ceil(worst * (1 + WCET_MARGIN)))
            task = AnalysedTask(name="timer_isr",
                                wcet=wcet + ENTRY_EXIT_ALLOWANCE,
                                period=node.period_us * ecu.mhz)
            response = response_time_analysis([task]).response_of(
                "timer_isr").response
            sensor_leg[node.name] = (leg_us(ecu, response)
                                     + spec.tx_delay_us + 1)

        # CAN leg: queued -> delivered, with sensor legs as release jitter
        streams = [
            MessageSpec(can_id=node.can_id, payload_bytes=4,
                        period_us=node.period_us,
                        jitter_us=sensor_leg[node.name])
            for node in spec.sensors
        ]
        analysis = can_response_times(streams, bitrate_bps=spec.can_bitrate)

        # gateway leg: delivery -> tap/publish (worst of both ISR paths)
        worst = 0
        for ident in (self.forward_id,
                      *(n.can_id for n in spec.sensors
                        if n.can_id != self.forward_id)):
            twin.gateway_can.fifo.push(ident, (1 << 16) | 0x123,
                                       visible_from=0)
            before = twin.gateway.cpu.cycles
            twin.gateway.machine.call("can_rx_isr")
            worst = max(worst, twin.gateway.cpu.cycles - before)
        wcet = int(math.ceil(worst * (1 + WCET_MARGIN)))
        min_period = min(n.period_us for n in spec.sensors)
        task = AnalysedTask(name="can_rx_isr",
                            wcet=wcet + ENTRY_EXIT_ALLOWANCE,
                            period=min_period * self.gateway.mhz)
        response = response_time_analysis([task]).response_of(
            "can_rx_isr").response
        gateway_leg = leg_us(self.gateway, response)

        # LIN leg: publish -> frame completion at the slave
        lin_leg = self.vehicle.lin.worst_case_latency_us(spec.lin_frame_id)

        # actuator leg: frame completion -> actuator register write
        twin.actuator_lin.fifo.push(spec.lin_frame_id, (1 << 16) | 0x123,
                                    visible_from=0)
        before = twin.actuator.cpu.cycles
        twin.actuator.machine.call("lin_rx_isr")
        wcet = int(math.ceil((twin.actuator.cpu.cycles - before)
                             * (1 + WCET_MARGIN)))
        task = AnalysedTask(name="lin_rx_isr",
                            wcet=wcet + ENTRY_EXIT_ALLOWANCE,
                            period=self.vehicle.lin.cycle_us
                            * self.actuator.mhz)
        response = response_time_analysis([task]).response_of(
            "lin_rx_isr").response
        actuator_leg = leg_us(self.actuator, response)

        bounds = {}
        for node in spec.sensors:
            can_bound = analysis.response_of(node.can_id).response_us
            if can_bound is None:
                raise ValueError(
                    f"CAN analysis did not converge for id {node.can_id:#x}; "
                    f"the synthesized matrix overloads the bus")
            to_gateway = can_bound + 1 + gateway_leg
            entry = {
                "can_analysis_us": can_bound,
                "to_gateway_us": to_gateway,
                "schedulable": analysis.schedulable,
            }
            if node.can_id == self.forward_id:
                entry["end_to_end_us"] = to_gateway + lin_leg + actuator_leg
            bounds[node.name] = entry
        return bounds

    # ------------------------------------------------------------------
    # observation / verification
    # ------------------------------------------------------------------
    def expected_word(self, node: SensorNode, seq: int,
                      transformed: bool) -> int:
        value = firmware.sensor_filter(sample_raw(node.raw_salt, seq))
        if transformed:
            value = firmware.gateway_transform(value)
        return ((seq & MASK16) << 16) | value

    def report(self) -> BodyNetworkReport:
        spec = self.spec
        bounds = self.analytic_bounds()
        by_id = {node.can_id: node for node in spec.sensors}
        report = BodyNetworkReport()
        report.generated = sum(len(log) for log in self.generated.values())
        report.lin_deliveries = len(self.vehicle.lin.deliveries)
        report.lin_no_response = self.vehicle.lin.no_response
        conservation = self.vehicle.frame_conservation()
        report.conservation_ok = conservation["conserved"]

        def observe(signal: str, seq: int, at_us: int, t0_us: int,
                    bound_us: int, ok: bool) -> None:
            obs = SignalObservation(signal=signal, seq=seq,
                                    latency_us=at_us - t0_us,
                                    bound_us=bound_us, value_ok=ok)
            report.observations.append(obs)
            report.worst_latency_us = max(report.worst_latency_us,
                                          obs.latency_us)
            report.worst_bound_us = max(report.worst_bound_us, bound_us)
            if not obs.within_bound:
                report.bound_violations += 1
            if not ok:
                report.value_errors += 1

        # gateway taps: one per received frame, in processing order
        seen_gateway: dict[str, int] = {name: 0 for name in self.generated}
        for applied in self.gateway_tap.applied:
            node = by_id.get(applied.ident)
            if node is None:
                report.value_errors += 1
                continue
            seq = applied.word >> 16
            log = self.generated[node.name]
            if not 1 <= seq <= len(log):
                report.value_errors += 1
                continue
            # per-signal order: seqs arrive strictly ascending
            if seq != seen_gateway[node.name] + 1:
                report.conservation_ok = False
            seen_gateway[node.name] = seq
            expected = self.expected_word(
                node, seq, transformed=applied.ident == self.forward_id)
            observe(node.name, seq, applied.at_us, log[seq - 1].at_us,
                    bounds[node.name]["to_gateway_us"],
                    applied.word == expected)
            report.gateway_applied += 1

        # actuator applications: duplicates legal (the LIN schedule
        # re-broadcasts the current command); latency on first sight
        forward_node = spec.sensors[spec.forward_index]
        last_seq = 0
        for applied in self.actuator_out.applied:
            seq = applied.word >> 16
            if applied.ident != spec.lin_frame_id:
                report.value_errors += 1
                continue
            if seq == 0:
                continue  # no command published yet: the reset buffer
            log = self.generated[forward_node.name]
            if not 1 <= seq <= len(log) or seq < last_seq:
                report.conservation_ok = False
                continue
            first_sight = seq > last_seq
            last_seq = max(last_seq, seq)
            if not first_sight:
                continue
            expected = self.expected_word(forward_node, seq, transformed=True)
            observe(f"{forward_node.name}->lin", seq, applied.at_us,
                    log[seq - 1].at_us,
                    bounds[forward_node.name]["end_to_end_us"],
                    applied.word == expected)
            report.actuator_applied += 1

        # every generated sample except a bounded in-flight tail made it
        for node in spec.sensors:
            log = self.generated[node.name]
            tail = (bounds[node.name]["to_gateway_us"]
                    // node.period_us) + 2
            if seen_gateway[node.name] < len(log) - tail:
                report.conservation_ok = False

        # gateway checksum: fold the non-forwarded taps exactly as the
        # guest did and compare against its SRAM word
        checksum = 0
        for applied in self.gateway_tap.applied:
            if applied.ident != self.forward_id:
                checksum = firmware.gateway_checksum(checksum, applied.word)
        observed = self.gateway.machine.bus.read_raw(
            firmware.GATEWAY_CHECKSUM_ADDR, 4)
        report.checksum_ok = checksum == observed
        return report


def build_body_network(spec: BodyNetworkSpec) -> BodyNetwork:
    """Compose the canonical sensor -> gateway -> actuator vehicle."""
    return BodyNetwork(spec)


# ----------------------------------------------------------------------
# the minimal two-ECU round trip (conformance-corpus shape)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RoundTripSpec:
    """Two ECUs ping-ponging over CAN: requester timer -> responder."""

    requester_core: str = "m3"
    requester_mhz: int = 80
    responder_core: str = "arm7"
    responder_mhz: int = 48
    request_id: int = 0x100
    response_id: int = 0x101
    period_us: int = 5_000
    offset_us: int = 1_000
    can_bitrate: int = 250_000
    quantum_us: int = 100
    irq_latency_cycles: int = 256
    tx_delay_us: int = 500


class RoundTrip:
    """A built round-trip network (golden-corpus and property-test rig)."""

    def __init__(self, spec: RoundTripSpec) -> None:
        self.spec = spec
        self.vehicle = VirtualVehicle(can_bitrate=spec.can_bitrate)

        machine = build_guest_machine(
            spec.requester_core, firmware.requester_source(spec.request_id))
        self.requester = Ecu("requester", machine,
                             clock_mhz=spec.requester_mhz,
                             irq_latency_cycles=spec.irq_latency_cycles,
                             tx_delay_us=spec.tx_delay_us)
        self.requester_can = CanController()
        self.requester.attach_device(self.requester_can)
        symbols = machine.cpu.program.symbols
        self.requester_can.bind(self.requester, self.vehicle.can,
                                node="requester",
                                accept=[spec.response_id],
                                irq=(2, symbols["can_rx_isr"], 1))
        self._timer_handler = symbols["timer_isr"]
        self.vehicle.add_ecu(self.requester)

        machine = build_guest_machine(
            spec.responder_core, firmware.responder_source(spec.response_id))
        self.responder = Ecu("responder", machine,
                             clock_mhz=spec.responder_mhz,
                             irq_latency_cycles=spec.irq_latency_cycles,
                             tx_delay_us=spec.tx_delay_us)
        self.responder_can = CanController()
        self.responder.attach_device(self.responder_can)
        symbols = machine.cpu.program.symbols
        self.responder_can.bind(self.responder, self.vehicle.can,
                                node="responder",
                                accept=[spec.request_id],
                                irq=(2, symbols["can_rx_isr"], 1))
        self.vehicle.add_ecu(self.responder)

        self.vehicle.every(
            spec.period_us,
            lambda: self.requester.raise_irq(
                1, self._timer_handler, at_us=self.vehicle.scheduler.now),
            offset_us=spec.offset_us)

    def run(self, horizon_us: int, quantum_us: int | None = None) -> None:
        self.vehicle.run(horizon_us,
                         quantum_us=quantum_us or self.spec.quantum_us)

    # ------------------------------------------------------------------
    def expected_state(self) -> tuple[int, int, int]:
        """(requests, responses, accumulator) mirrored in pure Python."""
        requests = self.requester_can.frames_queued
        responses = [d for d in self.vehicle.can.deliveries
                     if d.can_id == self.spec.response_id]
        acc = 0
        count = self.requester.machine.bus.read_raw(
            firmware.ROUNDTRIP_ACC_ADDR + 4, 4)
        for seq in range(1, count + 1):
            acc = firmware.requester_accumulate(acc, seq + 1)
        return requests, len(responses), acc

    def fingerprint(self) -> dict:
        """Registers + bus stats + frame log: the golden-corpus payload.

        Deliberately excludes host-side artifacts (scheduler event
        counts, fused-block tallies) that vary with quantum size: what is
        pinned is exactly the architectural and wire-level state.
        """
        out = {"frames": [
            {"id": d.can_id, "node": d.node, "queued": d.queued_at,
             "completed": d.completed_at, "attempts": d.attempts}
            for d in self.vehicle.can.deliveries
        ]}
        for ecu in (self.requester, self.responder):
            cpu = ecu.cpu
            machine = ecu.machine
            out[ecu.name] = {
                "regs": list(cpu.regs.snapshot()),
                "apsr": str(cpu.apsr),
                "cycles": cpu.cycles,
                "instructions": cpu.instructions_executed,
                "irqs": ecu.controller.stats.serviced,
                "bus_reads": machine.bus.reads,
                "bus_writes": machine.bus.writes,
                "bus_stalls": machine.bus.total_stalls,
                "sram": bytes(machine.sram.data[:0x40]).hex(),
            }
        return out


def build_round_trip(spec: RoundTripSpec | None = None) -> RoundTrip:
    return RoundTrip(spec or RoundTripSpec())
