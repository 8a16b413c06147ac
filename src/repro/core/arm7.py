"""ARM7TDMI-like core model: 3-stage, von Neumann, software interrupt entry.

This is the Table 1 baseline.  Key timing properties reproduced:

* a **single bus port** shared by instruction fetch and data access - a
  data access (e.g. a literal-pool load) lands on the same flash device as
  the instruction stream and breaks its sequential prefetch (section 2.2);
* multi-cycle loads/stores and multiplies (the published ARM7TDMI cycle
  counts);
* interrupt entry only swaps the PC; saving registers is the handler's
  software preamble (contrast: :mod:`repro.core.nvic`).

The same core runs both the ARM and Thumb instruction sets (the program's
ISA decides), which is exactly how the paper's ARM7 rows differ.
"""

from __future__ import annotations

from repro.core.cpu import BaseCpu, return_stack_branch_inline
from repro.core.exceptions import InterruptRecord
from repro.core.vic import VicController
from repro.isa.assembler import Program
from repro.isa.instructions import Instruction
from repro.isa.semantics import Outcome
from repro.memory.bus import SystemBus
from repro.sim.trace import TraceRecorder


class Arm7Core(BaseCpu):
    """ARM7TDMI-style timing on the shared system bus."""

    name = "arm7"

    #: fixed interrupt entry overhead: synchronisation + pipeline refill
    ENTRY_OVERHEAD = 5

    def __init__(self, program: Program, bus: SystemBus,
                 vic: VicController | None = None,
                 trace: TraceRecorder | None = None) -> None:
        super().__init__(program, trace)
        self.bus = bus
        self.vic = vic or VicController()
        self._return_stack: list[tuple[InterruptRecord, int, int]] = []

    @property
    def _irq_controller(self):
        return self.vic

    # ------------------------------------------------------------------
    # memory paths: one port, I and D interleave on the same devices
    # ------------------------------------------------------------------
    _bus_fetch = True  # fetch_stalls is a plain bus delegation

    def fetch_stalls(self, addr: int, size: int) -> int:
        return self.bus.fetch_stalls(addr, size)

    def _data_inline_plan(self) -> str:
        return "direct"  # data path is the bare bus: no per-access checks

    def data_read(self, addr: int, size: int) -> tuple[int, int]:
        return self.bus.read(addr, size, side="D")

    def data_write(self, addr: int, size: int, value: int) -> int:
        return self.bus.write(addr, size, value, side="D")

    # Collapse the read/write -> data_read/data_write delegation: loads and
    # stores are the hottest non-fetch path, and the extra frame per access
    # is pure interpreter overhead.  Identical statistics and timing.
    def read(self, addr: int, size: int) -> int:
        value, stalls = self.bus.read(addr, size, "D")
        self._data_stalls += stalls
        return value

    def write(self, addr: int, size: int, value: int) -> None:
        self._data_stalls += self.bus.write(addr, size, value, "D")

    # ------------------------------------------------------------------
    # published ARM7TDMI cycle counts (S/N/I cycles folded together)
    # ------------------------------------------------------------------
    def instruction_cycles(self, ins: Instruction, outcome: Outcome) -> int:
        if outcome.skipped:
            return 1
        m = ins.mnemonic
        cycles = 1
        if outcome.taken:
            cycles += 2  # pipeline flush + refill
        if m in ("LDR", "LDRB", "LDRH", "LDRSB", "LDRSH"):
            cycles += 2
        elif m in ("STR", "STRB", "STRH"):
            cycles += 1
        elif m in ("LDM", "POP"):
            cycles += outcome.regs_transferred + 1
        elif m in ("STM", "PUSH"):
            cycles += outcome.regs_transferred
        elif m == "MUL":
            cycles += 2
        elif m == "MLA":
            cycles += 3
        elif m in ("UMULL", "SMULL"):
            cycles += 4
        elif m == "SVC":
            cycles += 2
        if ins.rm is not None and ins.shift is None and m in ("LSL", "LSR", "ASR", "ROR"):
            cycles += 1  # register-controlled shift adds an I-cycle
        return cycles

    def compile_cycles(self, ins: Instruction):
        """Prebind the (static) ARM7 cycle cost for the fast path."""
        m = ins.mnemonic
        extra = 0
        if m in ("LDR", "LDRB", "LDRH", "LDRSB", "LDRSH"):
            extra = 2
        elif m in ("STR", "STRB", "STRH"):
            extra = 1
        elif m in ("LDM", "POP"):
            extra = len(ins.reglist) + 1
        elif m in ("STM", "PUSH"):
            extra = len(ins.reglist)
        elif m == "MUL":
            extra = 2
        elif m == "MLA":
            extra = 3
        elif m in ("UMULL", "SMULL"):
            extra = 4
        elif m == "SVC":
            extra = 2
        if ins.rm is not None and ins.shift is None and m in ("LSL", "LSR", "ASR", "ROR"):
            extra += 1
        return self._static_cycle_fn(1 + extra, 3 + extra)

    # ------------------------------------------------------------------
    # classic interrupt scheme: hardware swaps PC, software saves state
    # ------------------------------------------------------------------
    def check_interrupts(self) -> bool:
        request = self.vic.pending_at(self.cycles, masked=not self.interrupts_enabled)
        if request is None:
            return False
        self.vic.acknowledge(request)
        self.sleeping = False
        return_addr = self.regs.pc
        banked_lr = self.regs.lr          # LR is banked per mode on ARM7
        self.regs.lr = return_addr        # hardware leaves the return in LR_irq
        self.cycles += self.ENTRY_OVERHEAD
        record = InterruptRecord(number=request.number,
                                 assert_cycle=request.assert_cycle,
                                 entry_cycle=self.cycles)
        self.vic.stats.records.append(record)
        self._return_stack.append((record, return_addr, banked_lr))
        self.interrupts_enabled = False   # I-bit set on entry
        self.regs.pc = request.handler
        self.trace.emit(self.cycles, "irq", "enter", number=request.number,
                        latency=record.latency)
        return True

    def branch(self, target: int) -> None:
        super().branch(target)
        if self._return_stack and target == self._return_stack[-1][1]:
            record, _, banked_lr = self._return_stack.pop()
            record.exit_cycle = self.cycles
            self.regs.lr = banked_lr        # un-bank the user-mode LR
            self.interrupts_enabled = True  # CPSR restored on return
            self.trace.emit(self.cycles, "irq", "exit", number=record.number)

    def _branch_inline(self, target: int):
        return return_stack_branch_inline(target)
