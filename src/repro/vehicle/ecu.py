"""The ECU wrapper: one real CPU core advanced in bounded time quanta.

An :class:`Ecu` owns a complete simulated MCU (core + flash + SRAM +
memory-mapped network controllers), runs real assembled firmware, and is
advanced by the :class:`~repro.vehicle.vehicle.VirtualVehicle` clock in
*quanta*: ``advance_to_us(T)`` runs the guest - under whichever execution
engine the core is configured for, the trace engine by default - until
its cycle counter reaches ``T`` on its own clock.  The clock advances an
ECU only while it has work (:meth:`Ecu.next_work_cycle`); a core parked
on WFI with no eligible interrupt queued is left behind and caught up by
the next advance that reaches it.

Determinism contract
--------------------
The co-simulation is byte-identical across quantum sizes because nothing
about a quantum boundary is architecturally observable:

* :meth:`~repro.core.cpu.BaseCpu.run_until_cycle` stops at the first
  instruction boundary at or past the target, so any sequence of targets
  executes the same instruction stream;
* interrupts raised by bus events carry an *absolute* assert cycle
  derived from the bus time plus a fixed delivery latency
  (``irq_latency_cycles``), never from where the host happened to pause
  the core - the engine's event horizon then delivers them cycle-exactly;
* device state deposited at bus time T is visibility-gated to the
  corresponding guest cycle (see :mod:`repro.vehicle.controllers`);
* idle time (the guest parked on WFI) fast-forwards in O(1) with the
  exact semantics of the reference sleep loop (one poll per cycle), and
  lands on the same wake cycle however far behind the bus clock the
  parked core was left.

:meth:`raise_irq` *verifies* the contract: the delivery latency must
exceed the core's quantum overrun (bounded by one instruction / one fused
loop iteration), and a violation raises :class:`CosimDeterminismError`
instead of silently producing quantum-dependent runs.
"""

from __future__ import annotations

from repro.core.cpu import HALT_ADDRESS

#: default interrupt delivery latency, in guest cycles: must exceed the
#: worst quantum overrun (one instruction, or one fused loop iteration of
#: guest firmware), which the raise-time guard enforces loudly
IRQ_DELIVERY_CYCLES = 256

#: default CAN transmit-path delay, in bus microseconds: a doorbell's
#: frame enters arbitration this long after the store's guest time, which
#: must exceed the co-simulation quantum (the host clock runs at most one
#: quantum ahead of the replayed guest time)
TX_DELAY_US = 500

#: runaway guard of one bounded advance, in guest instructions
MAX_INSTRUCTIONS_PER_ADVANCE = 50_000_000

#: instructions the guest may run after a state-mutation event before it
#: must park on WFI (:meth:`Ecu.advance_for_event`)
SETTLE_INSTRUCTIONS = 1_000_000


class CosimDeterminismError(RuntimeError):
    """A bus event would land in a guest core's architectural past."""


class Ecu:
    """One vehicle processor node: a machine plus clock-domain glue."""

    def __init__(self, name: str, machine, entry: str = "main",
                 clock_mhz: int = 80,
                 irq_latency_cycles: int = IRQ_DELIVERY_CYCLES,
                 tx_delay_us: int = TX_DELAY_US) -> None:
        if clock_mhz <= 0:
            raise ValueError("clock_mhz must be a positive integer")
        self.name = name
        self.machine = machine
        self.cpu = machine.cpu
        self.mhz = int(clock_mhz)
        self.irq_latency = int(irq_latency_cycles)
        self.tx_delay_us = int(tx_delay_us)
        self.controller = self.cpu._irq_controller
        program = self.cpu.program
        if entry not in program.symbols:
            raise KeyError(f"no entry symbol {entry!r} in {name}'s firmware")
        self.cpu.regs.sp = machine.stack_top
        self.cpu.regs.lr = HALT_ADDRESS
        self.cpu.regs.pc = program.symbols[entry]
        self.devices: list = []

    # ------------------------------------------------------------------
    # clock-domain conversion (exact integer arithmetic)
    # ------------------------------------------------------------------
    def cycle_of_us(self, us: int) -> int:
        """The guest cycle corresponding to bus time ``us``."""
        return int(us) * self.mhz

    def us_of_cycle(self, cycle: int) -> int:
        """Bus time at which guest cycle ``cycle`` completes (ceiling)."""
        return -(-int(cycle) // self.mhz)

    # ------------------------------------------------------------------
    def attach_device(self, device) -> None:
        """Map an MMIO device into the ECU's address space."""
        device.ecu = self
        self.machine.bus.attach(device)
        self.devices.append(device)

    def raise_irq(self, number: int, handler: int, at_us: int,
                  priority: int = 0, nmi: bool = False) -> None:
        """Assert an interrupt for a bus event at time ``at_us``.

        The assert cycle is ``at_us`` converted to this ECU's clock plus
        the fixed delivery latency - a pure function of the bus time, so
        service timing cannot depend on quantum placement.  Raises
        :class:`CosimDeterminismError` if the core has already executed
        past that cycle (quantum overrun exceeded the delivery latency:
        enlarge ``irq_latency_cycles`` or shrink the firmware's fused
        loops, do not ignore it).
        """
        assert_cycle = self.cycle_of_us(at_us) + self.irq_latency
        if assert_cycle < self.cpu.cycles:
            raise CosimDeterminismError(
                f"{self.name}: interrupt for bus time {at_us}us would "
                f"assert at cycle {assert_cycle}, but the core has "
                f"already reached cycle {self.cpu.cycles}; increase "
                f"irq_latency_cycles above the quantum overrun")
        self.controller.raise_irq(number, handler=handler,
                                  at_cycle=assert_cycle, priority=priority,
                                  nmi=nmi)

    # ------------------------------------------------------------------
    # bounded advancement
    # ------------------------------------------------------------------
    def advance_to_us(self, us: int) -> None:
        self.advance_to_cycle(self.cycle_of_us(us))

    def advance_to_cycle(self, target: int) -> None:
        """Run the guest until its cycle counter reaches ``target``.

        Busy execution goes through the engine's cycle-coupled entry
        (fused trace superblocks included); WFI idle time fast-forwards
        in O(1) per advance with reference sleep-loop semantics.
        """
        cpu = self.cpu
        while not cpu.halted and cpu.cycles < target:
            if cpu.sleeping:
                self._sleep_until(target)
                continue
            cpu.run_until_cycle(target,
                                max_instructions=MAX_INSTRUCTIONS_PER_ADVANCE)

    def advance_for_event(self, at_us: int) -> int:
        """Advance the guest to the exact architectural point for a
        direct state mutation (e.g. a soft-error flip) at bus time
        ``at_us``, and return the cycle the mutation lands at.

        An IRQ needs no such care - the engine delivers it cycle-exactly
        wherever the host paused - but a raw memory write is only
        quantum- and engine-invariant if it lands at a *unique*
        architectural point.  Busy execution stops at engine-dependent
        boundaries (a fused loop iteration may overrun where the
        reference interpreter would pause), so after advancing to the
        event cycle we *settle*: run until the guest parks on WFI (or
        halts).  No engine can overrun past a WFI, and cycle accounting
        is bit-identical across engines, so both reach the same sleep
        point - the mutation is then a pure function of the instruction
        stream.  Raises :class:`CosimDeterminismError` if the core has
        already executed past the event cycle, and ``RuntimeError`` if
        the firmware never sleeps within :data:`SETTLE_INSTRUCTIONS`.
        """
        target = self.cycle_of_us(at_us) + self.irq_latency
        cpu = self.cpu
        if target < cpu.cycles:
            raise CosimDeterminismError(
                f"{self.name}: state mutation for bus time {at_us}us would "
                f"land at cycle {target}, but the core has already reached "
                f"cycle {cpu.cycles}")
        self.advance_to_cycle(target)
        executed = cpu.instructions_executed
        while not cpu.halted and not cpu.sleeping:
            if cpu.instructions_executed - executed > SETTLE_INSTRUCTIONS:
                raise RuntimeError(
                    f"{self.name}: firmware never reached WFI within "
                    f"{SETTLE_INSTRUCTIONS} instructions of the event at "
                    f"{at_us}us; cannot place a deterministic mutation")
            cpu.run_until_cycle(cpu.cycles + self.mhz * 1_000,
                                max_instructions=MAX_INSTRUCTIONS_PER_ADVANCE)
        return cpu.cycles

    def next_work_cycle(self) -> int | None:
        """The smallest target cycle at which :meth:`advance_to_cycle`
        would execute anything, or None if no target would.

        A running core works at any target past its cycle counter.  A
        core parked on WFI works only once its earliest *eligible* queued
        interrupt (NMI, or any request while interrupts are unmasked)
        asserts, and never before its next poll; below that cycle an
        advance merely sets ``cycles = target``.  A halted core, or a
        parked one with nothing eligible queued, never works.  The
        vehicle's pump and :meth:`_sleep_until` share this one test.
        """
        cpu = self.cpu
        if cpu.halted:
            return None
        if not cpu.sleeping:
            return cpu.cycles + 1
        masked = not cpu.interrupts_enabled
        wake = min((request.assert_cycle for request in self.controller.queue
                    if request.nmi or not masked), default=None)
        if wake is None:
            return None
        return max(wake, cpu.cycles + 1)

    def _sleep_until(self, target: int) -> None:
        """Fast-forward WFI sleep: the reference loop charges one cycle
        per poll, and below the earliest eligible assert every poll is
        provably a no-op - so jump straight to the wake-up (or the
        target) and poll once, which is bit-identical to stepping."""
        cpu = self.cpu
        wake = self.next_work_cycle()
        if wake is None or wake > target:
            cpu.cycles = target
            return
        cpu.cycles = wake
        cpu.check_interrupts()
        # if the poll had no effect (e.g. priority-blocked on the NVIC)
        # the loop in advance_to_cycle retries from one cycle later,
        # degrading gracefully to the reference one-poll-per-cycle pace

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def fused_block_count(self) -> int:
        """How many of this core's superblock entries hold fused code.

        Introspection only, never a record field: hotness is counted per
        engine plan (``repro.core.cpu``), so a core fuses a block on its
        first dispatch when earlier cores in the process made it hot, and
        the count depends on what ran before, not on the spec alone."""
        return sum(1 for entry in self.cpu._sb_blocks.values()
                   if entry[2] is not None)

    def stats(self) -> dict:
        cpu = self.cpu
        return {
            "name": self.name,
            "core": cpu.name,
            "mhz": self.mhz,
            "cycles": cpu.cycles,
            "instructions": cpu.instructions_executed,
            "irqs_serviced": self.controller.stats.serviced,
            "fused_blocks": self.fused_block_count(),
        }
