"""Classic ARM7/ARM9-style vectored interrupt controller and the
exception scheme of the cores that use it (ARM7 and ARM1156).

Interrupt entry is largely a *software* affair on these cores: the hardware
only swaps the PC and banks LR (the banking folded into the core's fixed
``ENTRY_OVERHEAD``); saving and restoring the working registers is the
handler's job - the "preamble/postamble" the paper's section 3.2.1 contrasts
with the Cortex-M3's hardware scheme (:mod:`repro.core.nvic`).  Entry also
banks the flags, as CPSR goes to SPSR_irq.  The return is a branch to the
interrupted PC, which un-banks LR, restores the flags and clears the I-bit.
"""

from __future__ import annotations

from repro.core.cpu import HALT_ADDRESS, BaseCpu
from repro.core.exceptions import InterruptRecord, InterruptRequest, RequestQueue
from repro.isa.assembler import Program
from repro.isa.registers import MASK32, Apsr
from repro.memory.bus import SystemBus
from repro.sim.trace import TraceRecorder


class VicController(RequestQueue):
    """Pending-request bookkeeping for the classic interrupt scheme:
    requests are serviced in :meth:`~RequestQueue._service_order`, equal
    ones in the order they were raised."""

    def pending_at(self, cycle: int, masked: bool) -> InterruptRequest | None:
        """Highest-priority request asserted by ``cycle``.

        When ``masked`` (CPSR I-bit set / CPSID executed) only NMI requests
        are eligible - the paper's section 3.1.2 non-maskable FIQ.
        """
        for request in self.queue:
            if request.assert_cycle > cycle:
                continue
            if masked and not request.nmi:
                continue
            return request
        return None


class VicCore(BaseCpu):
    """A core on the system bus that takes interrupts through a
    :class:`VicController`: entry swaps the PC, banks LR and the flags and
    sets the I-bit after the core's fixed ``ENTRY_OVERHEAD`` cycles (each
    core declares its own); a branch back to the interrupted PC returns."""

    def __init__(self, program: Program, bus: SystemBus,
                 vic: VicController | None = None,
                 trace: TraceRecorder | None = None) -> None:
        super().__init__(program, trace)
        self.bus = bus
        self.vic = vic or VicController()
        #: (record, interrupted pc, banked LR, banked flags) per active
        #: handler
        self._return_stack: list[tuple[InterruptRecord, int, int, Apsr]] = []

    @property
    def _irq_controller(self):
        return self.vic

    def check_interrupts(self) -> bool:
        request = self.vic.pending_at(self.cycles, masked=not self.interrupts_enabled)
        if request is None:
            return False
        self.vic.acknowledge(request)
        self.sleeping = False
        return_addr = self.regs.pc
        banked_lr = self.regs.lr          # LR is banked per mode
        self.regs.lr = return_addr        # hardware leaves the return in LR_irq
        self.cycles += self.ENTRY_OVERHEAD
        record = InterruptRecord(number=request.number,
                                 assert_cycle=request.assert_cycle,
                                 entry_cycle=self.cycles)
        self.vic.stats.records.append(record)
        self._return_stack.append((record, return_addr, banked_lr,
                                   self.apsr.copy()))  # CPSR -> SPSR_irq
        self.interrupts_enabled = False   # I-bit set on entry
        self.regs.pc = request.handler
        self.trace.emit(self.cycles, "irq", "enter", number=request.number,
                        latency=record.latency)
        return True

    def branch(self, target: int) -> None:
        super().branch(target)
        if self._return_stack and target == self._return_stack[-1][1]:
            record, _, banked_lr, spsr = self._return_stack.pop()
            record.exit_cycle = self.cycles
            self.regs.lr = banked_lr        # un-bank the user-mode LR
            flags = self.apsr               # CPSR restored from SPSR_irq
            flags.n, flags.z, flags.c, flags.v = spsr.n, spsr.z, spsr.c, spsr.v
            self.interrupts_enabled = True  # with the I-bit clear
            self.trace.emit(self.cycles, "irq", "exit", number=record.number)

    def _branch_inline(self, target: int) -> list[str] | None:
        """A constant-target ``branch()``: a plain PC write, with the rare
        return-stack unwind routed through the real method (re-running its
        PC write is idempotent)."""
        target &= MASK32
        if target == HALT_ADDRESS:
            return None
        return [f"rvals[15] = {target}",
                "rs = cpu._return_stack",
                f"if rs and rs[-1][1] == {target}:",
                f"    BR({target})"]
