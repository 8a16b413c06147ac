"""Cortex-M3-like core model (paper section 3.2).

Timing properties reproduced:

* Harvard fetch/data paths, but literals still come from the single-ported
  flash and disturb its prefetch stream (section 2.2);
* single-cycle multiply, early-terminating hardware divide (section 2.1);
* NVIC hardware preamble/postamble: 8-word stacking with the vector fetch
  in parallel, 12 cycles on zero-wait memory; tail-chaining back-to-back
  interrupts in 6 cycles (section 3.2.1, figure 4);
* bit-band accesses are ordinary loads/stores to the alias region - the
  atomicity win is architectural, not a timing special case
  (section 3.2.3, figure 5).
"""

from __future__ import annotations

from repro.core.cpu import BaseCpu
from repro.core.exceptions import InterruptRecord
from repro.core.nvic import (
    ENTRY_STACKING_WORDS,
    PIPELINE_REFILL_CYCLES,
    TAIL_CHAIN_CYCLES,
    VECTOR_FETCH_CYCLES,
    NvicController,
)
from repro.isa.assembler import Program
from repro.isa.registers import R12, MASK32, Apsr
from repro.memory.bus import SystemBus
from repro.memory.mpu import Mpu
from repro.sim.trace import TraceRecorder

EXC_RETURN = 0xFFFFFFF9


class CortexM3Core(BaseCpu):
    """Cortex-M3-style timing, NVIC, and exception model."""

    name = "cortex-m3"

    def __init__(self, program: Program, bus: SystemBus,
                 nvic: NvicController | None = None,
                 mpu: Mpu | None = None,
                 trace: TraceRecorder | None = None) -> None:
        super().__init__(program, trace)
        self.bus = bus
        self.nvic = nvic or NvicController()
        self.mpu = mpu
        self._record_stack: list[InterruptRecord] = []
        self._frame_stack: list[tuple[int, int]] = []  # (sp at entry, frame addr)

    @property
    def _irq_controller(self):
        return self.nvic

    # ------------------------------------------------------------------
    # memory paths
    # ------------------------------------------------------------------
    def fetch_stalls(self, addr: int, size: int) -> int:
        return self.bus.fetch_stalls(addr, size)

    def _data_inline_plan(self) -> str:
        # fused accesses stay inline with an MPU attached: the emitted
        # code consults cpu.mpu per access (read dynamically, so an MPU
        # attached after fusion is honoured) and faults bit-exactly
        return "mpu"

    def _exception_return_static(self, target: int) -> bool:
        # the hook only fires on the EXC_RETURN magic value; any other
        # constant target can be written to the PC directly
        return target != (EXC_RETURN & ~1)

    # the MPU consultation stays per-access, skipping a frame when absent
    def read(self, addr: int, size: int) -> int:
        if self.mpu is not None:
            self._mpu_check(addr, size, is_write=False)
        value, stalls = self.bus.read(addr, size, "D")
        self._data_stalls += stalls
        return value

    def write(self, addr: int, size: int, value: int) -> None:
        if self.mpu is not None:
            self._mpu_check(addr, size, is_write=True)
        self._data_stalls += self.bus.write(addr, size, value, "D")

    # ------------------------------------------------------------------
    # Cortex-M3 cycle counts
    # ------------------------------------------------------------------
    TAKEN_PENALTY = 1  # 3-stage pipeline reload (fetch stalls come on top)
    EXTRA_CYCLES = {
        "LDR": 1, "LDRB": 1, "LDRH": 1, "LDRSB": 1, "LDRSH": 1,
        "TBB": 2, "TBH": 2,
        "UMULL": 1, "SMULL": 1, "MLA": 1, "MLS": 1,
    }  # MUL, MOVW/MOVT, bitfield ops, CLZ, RBIT: single cycle
    EARLY_EXIT_DIVIDER = True  # 2..12 cycles depending on result width

    # ------------------------------------------------------------------
    # NVIC exception scheme: hardware preamble/postamble + tail-chaining
    # ------------------------------------------------------------------
    def check_interrupts(self) -> bool:
        request = self.nvic.pending_at(self.cycles, masked=not self.interrupts_enabled)
        if request is None:
            return False
        self.nvic.take(request)
        self._enter_exception(request, tail_chained=False)
        return True

    def _enter_exception(self, request, tail_chained: bool) -> None:
        self.sleeping = False
        if tail_chained:
            # skip the pop+push pair entirely
            self.cycles += TAIL_CHAIN_CYCLES
        else:
            # hardware stacking of r0-r3, r12, lr, pc, xPSR (D-side writes)
            # while the vector is fetched on the I-side in parallel
            frame = [
                self.regs.read(0), self.regs.read(1),
                self.regs.read(2), self.regs.read(3),
                self.regs.read(R12), self.regs.lr,
                self.regs.pc, self.apsr.to_word(),
            ]
            sp = (self.regs.sp - 32) & MASK32
            stalls = 0
            for index, value in enumerate(frame):
                self._mpu_check(sp + 4 * index, 4, is_write=True)
                stalls += self.bus.write(sp + 4 * index, 4, value, "D")
            self._frame_stack.append((self.regs.sp, sp))
            self.regs.sp = sp
            self.cycles += (ENTRY_STACKING_WORDS + VECTOR_FETCH_CYCLES
                            + PIPELINE_REFILL_CYCLES + stalls)
        record = InterruptRecord(number=request.number,
                                 assert_cycle=request.assert_cycle,
                                 entry_cycle=self.cycles,
                                 tail_chained=tail_chained)
        self.nvic.stats.records.append(record)
        self._record_stack.append(record)
        self.regs.lr = EXC_RETURN
        self.regs.pc = request.handler
        self.trace.emit(self.cycles, "irq", "enter", number=request.number,
                        latency=record.latency, tail_chained=tail_chained)

    def _exception_return_hook(self, target: int) -> bool:
        if target != (EXC_RETURN & ~1):
            return False
        if self._record_stack:
            record = self._record_stack.pop()
            record.exit_cycle = self.cycles
            self.trace.emit(self.cycles, "irq", "exit", number=record.number)
        successor = self.nvic.complete(self.cycles, masked=not self.interrupts_enabled)
        if successor is not None:
            self._enter_exception(successor, tail_chained=True)
            return True
        # hardware unstacking (postamble)
        if not self._frame_stack:
            self.halted = True  # return with no frame: treat as program end
            return True
        old_sp, frame_addr = self._frame_stack.pop()
        stalls = 0
        values = []
        for index in range(8):
            self._mpu_check(frame_addr + 4 * index, 4, is_write=False)
            value, s = self.bus.read(frame_addr + 4 * index, 4, "D")
            values.append(value)
            stalls += s
        r0, r1, r2, r3, r12, lr, pc, apsr_word = values
        for reg, value in ((0, r0), (1, r1), (2, r2), (3, r3), (R12, r12)):
            self.regs.write(reg, value)
        self.regs.lr = lr
        self.regs.sp = old_sp
        self.apsr = Apsr.from_word(apsr_word)
        self.cycles += ENTRY_STACKING_WORDS + PIPELINE_REFILL_CYCLES + 1 + stalls
        self.regs.pc = pc
        return True
