"""ARM1156T2(F)-S-like core model (paper section 3.1).

A high-end cached core intended for >200 MHz operation.  Features
reproduced for the experiments:

* **caches** on both sides with parity protection
  (:class:`~repro.memory.cache.Cache`), including fault-tolerant recovery
  (section 3.1.3 / experiment E7);
* **fine-grained MPU** consulted on every data access
  (section 3.1.1 / experiment E5);
* **interruptible, re-startable LDM/STM** (section 3.1.2 / experiment E6):
  when an interrupt arrives while a multiple transfer is mid-flight
  (potentially dragging in several cache-line misses), the transfer is
  abandoned, the interrupt is taken, and the instruction re-executes from
  scratch after return.  Loads and ascending stores are idempotent, so
  restart is architecturally safe;
* **non-maskable FIQ** via :class:`~repro.core.vic.VicController` NMI
  requests (section 3.1.2);
* low-latency exception entry (new instructions for exception entry/exit).
"""

from __future__ import annotations

from repro.core.exceptions import ExecutionError
from repro.core.vic import VicController, VicCore
from repro.isa.assembler import Program
from repro.isa.instructions import BLOCK_OPS
from repro.memory.cache import Cache
from repro.memory.mpu import Mpu
from repro.memory.bus import SystemBus
from repro.sim.trace import TraceRecorder


class Arm1156Core(VicCore):
    """ARM1156-style timing with caches, MPU, and restartable LDM/STM."""

    name = "arm1156"

    #: low-latency exception entry (the new entry/exit instructions)
    ENTRY_OVERHEAD = 5
    #: cycles charged when a block transfer is abandoned for an interrupt
    ABANDON_PENALTY = 1

    def __init__(self, program: Program, bus: SystemBus,
                 icache: Cache | None = None, dcache: Cache | None = None,
                 vic: VicController | None = None, mpu: Mpu | None = None,
                 interruptible_ldm: bool = True,
                 trace: TraceRecorder | None = None) -> None:
        if icache is not None and icache is dcache:
            # Harvard caches: fused code relies on data accesses never
            # touching the I-cache (superblock line runs)
            raise ValueError("the I- and D-caches must be separate Cache objects")
        if dcache is not None and dcache.backing is not bus:
            # fused stores write through the core's bus, then update the
            # D-cache, as Cache.write does through its backing
            raise ValueError("the D-cache must write through the core's bus")
        super().__init__(program, bus, vic, trace)
        self.icache = icache
        self.dcache = dcache
        self.mpu = mpu
        self.interruptible_ldm = interruptible_ldm
        self.abandoned_transfers = 0

    # ------------------------------------------------------------------
    # memory paths (through the caches when present)
    # ------------------------------------------------------------------
    def fetch_stalls(self, addr: int, size: int) -> int:
        if self.icache is not None:
            _, stalls = self.icache.read(addr, size, "I")
            return stalls
        return self.bus.fetch_stalls(addr, size)

    @property
    def _bus_fetch(self) -> bool:
        # a plain bus delegation only when the I-cache is absent
        return self.icache is None

    def _fetch_port(self):
        if self.icache is None:
            return self.bus.fetch_stalls
        icache_read = self.icache.read

        def fetch(addr: int, size: int) -> int:
            return icache_read(addr, size, "I")[1]
        return fetch

    def _fetch_thunk(self, address: int, size: int):
        if self.icache is None:
            return self.bus.fetch_thunk(address, size)
        icache_read = self.icache.read

        def thunk(addr=address, size=size):
            return icache_read(addr, size, "I")[1]
        return thunk

    def _data_inline_plan(self) -> str:
        # cpu.mpu is consulted per access, so an MPU attached after fusion
        # is honoured; with a D-cache, accesses take its clean path inline
        # and everything else through read()/write()
        return "mpu"

    def _fetch_cache(self):
        # lets the fuser emit the cached fetch inline (hit/miss/parity
        # accounting transcribed from Cache.read) instead of a per
        # instruction closure-call thunk
        return self.icache

    def _data_cache(self):
        return self.dcache

    def read(self, addr: int, size: int) -> int:
        if self.mpu is not None:
            self._mpu_check(addr, size, is_write=False)
        port = self.dcache
        if port is None:
            port = self.bus
        value, stalls = port.read(addr, size, "D")
        self._data_stalls += stalls
        return value

    def write(self, addr: int, size: int, value: int) -> None:
        if self.mpu is not None:
            self._mpu_check(addr, size, is_write=True)
        port = self.dcache
        if port is None:
            port = self.bus
        self._data_stalls += port.write(addr, size, value, "D")

    # ------------------------------------------------------------------
    # cycle model: 9-stage, 64-bit datapath, static prediction
    # ------------------------------------------------------------------
    TAKEN_PENALTY = 2  # mispredict/refill on the deeper pipeline
    EXTRA_CYCLES = {
        "LDR": 1, "LDRB": 1, "LDRH": 1, "LDRSB": 1, "LDRSH": 1,
        "MUL": 1, "MLA": 2, "MLS": 2, "UMULL": 2, "SMULL": 2,
    }
    REGS_PER_CYCLE = 2  # the 64-bit datapath moves two registers per cycle
    EARLY_EXIT_DIVIDER = True

    def worst_access_stall(self) -> int:
        """Fold the optional cache ports into the bus's declared bound.

        Fetches go through the I-cache and data through the D-cache when
        configured; either can stall worse than the raw bus (a fill or a
        parity-recovery refill), so the block cycle cap must honour the
        caches' own declared contracts too.
        """
        worst = self.bus.worst_stall
        if self.icache is not None:
            worst = max(worst, self.icache.worst_stall)
        if self.dcache is not None:
            worst = max(worst, self.dcache.worst_stall)
        return worst

    @property
    def _split_block_ops(self) -> bool:
        # Block transfers must head their own superblock so _fastpath_defer
        # can inspect every one before it executes.
        return self.interruptible_ldm

    def _fastpath_defer(self) -> bool:
        # Restartable LDM/STM semantics depend on interrupts arriving
        # mid-transfer: with anything queued (even a far-future assert,
        # whose window position we cannot bound cheaply), block transfers
        # take the reference _step_restartable path so abandonment timing
        # is modelled identically.  Every other instruction only interacts
        # with interrupts at step boundaries, which the fast loop's event
        # horizon reproduces exactly - so unlike the PR 1 engine, a queued
        # future IRQ no longer demotes whole runs to step().
        if not self.interruptible_ldm or not self.vic.queue:
            return False
        ins = self.program.instruction_at(self.regs.values[15])
        return ins is None or ins.mnemonic in BLOCK_OPS

    # ------------------------------------------------------------------
    # restartable block transfers (experiment E6)
    # ------------------------------------------------------------------
    def step(self) -> bool:
        if (self.interruptible_ldm and not self.halted and not self.sleeping
                and self.vic.has_pending()):
            ins = self.program.instruction_at(self.regs.pc)
            if ins is not None and ins.mnemonic in BLOCK_OPS:
                return self._step_restartable()
        return super().step()

    def _step_restartable(self) -> bool:
        # service anything already pending first (as the base loop would):
        # this is the step's one poll, so whatever instruction the PC now
        # holds executes without a second one
        self.check_interrupts()
        if self.halted:
            return False
        pc = self.regs.pc
        ins = self.program.instruction_at(pc)
        if ins is None:
            raise ExecutionError(f"no instruction at pc={pc:#010x} ({self.name})")
        if ins.mnemonic not in BLOCK_OPS:
            return self._retire(pc, ins, *self._execute_one(pc, ins))
        if 15 in ins.reglist:
            # PC-popping transfers are NON-restartable: popping the PC
            # runs the interrupt-return unwind in branch() (return-stack
            # pop, I-bit restore), a side effect that cannot be rolled
            # back by the register snapshot below.  The transfer commits
            # atomically and a mid-flight assert is taken at the next
            # instruction boundary instead - the semantics pinned by
            # test_arm1156_pop_pc_is_not_restartable.
            return self._retire(pc, ins, *self._execute_one(pc, ins))
        # snapshot architectural state so the transfer can be abandoned
        regs_snapshot = self.regs.snapshot()
        apsr_snapshot = self.apsr.copy()
        it_snapshot = list(self._it_queue)
        halted_snapshot = self.halted
        outcome, cost = self._execute_one(pc, ins)
        start = self.cycles
        arrival = self.vic.earliest_assert_in(start, start + cost,
                                              masked=not self.interrupts_enabled)
        if arrival is None:
            # no interrupt landed mid-transfer: commit normally
            return self._retire(pc, ins, outcome, cost)
        # abandon: roll back and leave PC pointing at the transfer so it
        # restarts from scratch after the interrupt returns
        self.regs.values[:] = list(regs_snapshot)
        self.apsr = apsr_snapshot
        self._it_queue = it_snapshot
        self.halted = halted_snapshot
        self.abandoned_transfers += 1
        self.cycles = arrival + self.ABANDON_PENALTY
        self.trace.emit(self.cycles, "ldm", "abandoned", pc=pc, cost=cost)
        return True
