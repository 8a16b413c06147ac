"""Engine plans: fresh cores bind cached blocks, caps and fused code.

An engine plan (``repro.core.cpu.EnginePlan``) is shared by every core
that runs one program's instructions under one plan key - programs with
equal instructions share plans whatever data they embed.  These tests
pin both halves of its contract: cores whose configurations differ in a
key input never share a plan, and a block bound from a plan leaves a
second core bit-identical to the reference interpreter - and so campaign
records stay byte-identical however warm the plans are.  Compiled kernel
programs are memoised so kernel cells share plans too.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.core import FLASH_BASE, SRAM_BASE, Machine, build_arm7, build_cortexm3, superblock
from repro.core.arm1156 import Arm1156Core
from repro.core.cortexm3 import CortexM3Core
from repro.core.cpu import _PLAN_TABLES, loop_regions
from repro.core.exceptions import DataAbort
from repro.core.machines import DEFAULT_FLASH_SIZE, DEFAULT_SRAM_SIZE
from repro.isa import ISA_THUMB, ISA_THUMB2, Mem, Shift, assemble, instr
from repro.isa.predecode import predecode, uop_kind
from repro.isa.registers import PC
from repro.memory.bus import SystemBus
from repro.memory.cache import Cache
from repro.memory.flash import Flash
from repro.memory.mpu import Mpu
from repro.memory.sram import Sram
from repro.sim.campaign import CampaignRequest, InterruptProfile, ScenarioSpec, execute_request
from repro.sim.campaign import main as campaign_main
from repro.vehicle.vehicle import build_guest_machine

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: a hot loop over flash literal-pool loads, SRAM loads and stores, and
#: block transfers, in the Thumb subset every core assembles
HOT_LOOP = """
main:
    push {r4, r5, lr}
    ldr r4, =0x20000100
    movs r5, #40
loop:
    ldr r0, =0x00012345
    ldr r1, [r4, #0]
    adds r1, r1, r0
    str r1, [r4, #0]
    push {r0, r1}
    pop {r0, r1}
    subs r5, r5, #1
    bne loop
    ldr r0, [r4, #0]
    pop {r4, r5, pc}
"""

#: (sets, ways, line) of the caches below; fill penalty and backing store
#: decide a cache's declared worst stall
GEOMETRY = {"sets": 64, "ways": 4, "line_bytes": 32}


def _fusions(source: str) -> int:
    series = obs.snapshot()["counters"].get("engine.superblocks.fused", {})
    return series.get(f"source={source}", 0)


def _machine(program, core: str, *, flash_access_cycles: int = 4,
             sram_wait_states: int = 1, icache: dict | None = None,
             dcache: dict | None = None, interruptible_ldm: bool = True,
             mpu: bool = False) -> Machine:
    """``core`` ("m3" or "arm1156") over a flash + SRAM bus; ``icache`` and
    ``dcache`` are :class:`Cache` keyword arguments (``None``: no cache)
    and ``mpu`` attaches an all-permitting MPU before the first run."""
    bus = SystemBus()
    flash = Flash(FLASH_BASE, DEFAULT_FLASH_SIZE,
                  access_cycles=flash_access_cycles, line_bytes=32)
    sram = Sram(SRAM_BASE, DEFAULT_SRAM_SIZE, wait_states=sram_wait_states)
    bus.attach(flash)
    bus.attach(sram)
    bus.load_image(program.base, program.image())
    icache = None if icache is None else Cache(bus, **icache)
    dcache = None if dcache is None else Cache(bus, **dcache)
    protection = Mpu(background_perms="rw") if mpu else None
    if core == "m3":
        cpu = CortexM3Core(program, bus, mpu=protection)
    else:
        cpu = Arm1156Core(program, bus, icache=icache, dcache=dcache,
                          mpu=protection, interruptible_ldm=interruptible_ldm)
    machine = Machine(cpu=cpu, bus=bus, flash=flash, sram=sram,
                      icache=icache, dcache=dcache)
    machine.reset_stack()
    return machine


def _state(machine) -> dict:
    cpu = machine.cpu
    return {
        "regs": cpu.regs.snapshot(),
        "apsr": str(cpu.apsr),
        "cycles": cpu.cycles,
        "executed": cpu.instructions_executed,
        "skipped": cpu.instructions_skipped,
        "branches": cpu.branches_taken,
        "halted": cpu.halted,
        "sram": bytes(machine.sram.data[:0x200]),
        "bus": (machine.bus.reads, machine.bus.writes, machine.bus.total_stalls),
        "flash": machine.flash.stats(),
        "caches": [vars(cache.stats) for cache in (machine.icache, machine.dcache)
                   if cache is not None],
        "mpu_faults": None if getattr(cpu, "mpu", None) is None else cpu.mpu.faults,
    }


def _fused(cpu) -> list[int]:
    """Entry pcs of the blocks this core has fused."""
    return [pc for pc, entry in cpu._sb_blocks.items() if entry[2] is not None]


def _callables(cpu) -> int:
    """The fused callables this core has bound: one per block fused
    alone, one per loop region however many of its members it entered."""
    return len({id(entry[2]) for entry in cpu._sb_blocks.values()
                if entry[2] is not None})


def _config(core: str, **options):
    return lambda program: _machine(program, core, **options)


def _guest(core: str):
    return lambda program: build_guest_machine(core, HOT_LOOP)


#: pairs of configurations that differ in exactly one plan-key input;
#: core-class, icache-geometry, dcache-geometry, interruptible-ldm, mpu,
#: sram-wait-states and cache-fill-penalty each differ in one key part
#: only, so dropping any part from the key makes one pair share a plan
PAIRS = {
    # one firmware, shared through the guest-firmware cache
    "m3-vs-arm1156-guest": (_guest("m3"), _guest("arm1156")),
    "core-class": (_config("m3"), _config("arm1156", interruptible_ldm=False)),
    "icache": (_config("arm1156"), _config("arm1156", icache=GEOMETRY)),
    "icache-geometry": (_config("arm1156", icache=GEOMETRY),
                        _config("arm1156", icache=dict(GEOMETRY, sets=16))),
    # equal I- and D-cache worst stalls: only the data cache differs
    "dcache": (_config("arm1156", icache=GEOMETRY),
               _config("arm1156", icache=GEOMETRY, dcache=GEOMETRY)),
    # one declared worst stall (sets do not change a fill): only the
    # data-cache geometry differs
    "dcache-geometry": (_config("arm1156", icache=GEOMETRY, dcache=GEOMETRY),
                        _config("arm1156", icache=GEOMETRY,
                                dcache=dict(GEOMETRY, sets=16))),
    "interruptible-ldm": (_config("arm1156"),
                          _config("arm1156", interruptible_ldm=False)),
    "mpu": (_config("m3"), _config("m3", mpu=True)),
    "flash-access-cycles": (_config("m3", flash_access_cycles=1),
                            _config("m3", flash_access_cycles=4)),
    # the flash's worst stall dominates both: only the device timing differs
    "sram-wait-states": (_config("m3", sram_wait_states=0),
                         _config("m3", sram_wait_states=1)),
    # one geometry: only the declared worst stall (the cycle cap) differs
    "cache-fill-penalty": (_config("arm1156", icache=GEOMETRY),
                           _config("arm1156", icache=dict(GEOMETRY, fill_penalty=3))),
}


@pytest.mark.parametrize("pair", list(PAIRS))
def test_plans_never_cross_a_layout(pair):
    """One Program on two cores that differ in one key input: each core
    gets its own plan, and each ends bit-identical to its own reference
    run even though the second runs after the first fused the loop."""
    program = assemble(HOT_LOOP, ISA_THUMB2, base=FLASH_BASE)
    cores = []
    for build in PAIRS[pair]:
        machine = build(program)
        machine.call("main")
        assert _fused(machine.cpu), "the hot loop never fused"
        reference = build(program)
        reference.cpu.fastpath = False
        reference.call("main")
        assert _state(machine) == _state(reference)
        cores.append(machine.cpu)
    first, second = cores
    assert first.program is second.program
    assert first._plan is not second._plan
    assert first._plan.key != second._plan.key


def _second_core_binds(build, run) -> tuple:
    """Core A fuses with ``run``; then a fresh core B (same Program and
    layout) runs the same and must bind everything it fuses from the
    plan, once per fused callable.  Returns B and a reference-engine
    machine that ran the same."""
    first = build()
    run(first)
    assert _fused(first.cpu), "core A never fused the hot block"
    emitted, planned = _fusions("emitted"), _fusions("plan")
    second = build()
    run(second)
    assert second.cpu.program is first.cpu.program
    assert second.cpu._plan is first.cpu._plan
    assert _fusions("emitted") == emitted
    assert _fusions("plan") - planned == _callables(second.cpu) > 0
    reference = build()
    reference.cpu.fastpath = False
    run(reference)
    return second, reference


def _arm7_thumb():
    # the VIC return-stack branch inline in fused gotos and back-edges
    program = assemble(HOT_LOOP, ISA_THUMB, base=FLASH_BASE)
    return lambda: build_arm7(program)


def _arm1156_guest():
    # the cosim ARM1156 shape: cached fetch, and flash literal-pool loads
    # folded inline with no D-cache
    return lambda: build_guest_machine("arm1156", HOT_LOOP)


@pytest.mark.parametrize("builder", [_arm7_thumb, _arm1156_guest],
                         ids=["arm7-thumb", "arm1156-guest"])
def test_block_bound_from_a_plan_is_exact_on_a_second_core(obs_enabled, builder):
    second, reference = _second_core_binds(builder(), lambda m: m.call("main"))
    assert _state(second) == _state(reference)


#: walks a pointer over SRAM: an MPU region edge lands mid-loop
WALK_LOOP = """
main:
    movs r2, #0
loop:
    str r2, [r0, #0]
    ldr r3, [r0, #0]
    adds r0, r0, #4
    adds r2, r2, #1
    cmp r2, r1
    bne loop
    bx lr
"""


def test_mpu_attached_after_a_plan_bind_faults_exactly(obs_enabled):
    """An MPU attached to core B after B bound the loop from A's plan (whose
    key has no MPU) still faults bit-exactly inside the fused loop."""
    program = assemble(WALK_LOOP, ISA_THUMB2, base=FLASH_BASE)

    def run(machine) -> None:
        machine.call("main", SRAM_BASE, 60)

    second, reference = _second_core_binds(lambda: _machine(program, "m3"), run)
    states = []
    for machine in (second, reference):
        mpu = Mpu(background_perms="none")
        mpu.configure(0, SRAM_BASE, 0x1000, perms="rw")
        machine.cpu.mpu = mpu
        with pytest.raises(DataAbort):
            # 30 iterations stay inside the region, the 31st store leaves it
            machine.call("main", SRAM_BASE + 0x1000 - 4 * 30, 60)
        states.append(_state(machine))
    assert states[0] == states[1]
    assert states[0]["mpu_faults"] == 1
    assert states[0]["regs"][2] == 30


#: walks a pointer over SRAM loading each word before storing it, so the
#: first access past an MPU region edge is a load
LOAD_WALK_LOOP = """
main:
    movs r2, #0
loop:
    ldr r3, [r0, #0]
    str r2, [r0, #0]
    adds r0, r0, #4
    adds r2, r2, #1
    cmp r2, r1
    bne loop
    bx lr
"""


@pytest.mark.parametrize("source", [WALK_LOOP, LOAD_WALK_LOOP],
                         ids=["store-first", "load-first"])
def test_mpu_attached_after_fusion_on_a_dcache_core_faults_exactly(source):
    """An ARM1156 with a D-cache fuses a walk loop with no MPU in its plan
    key, and that first call caches every line of the walk.  An MPU
    attached afterwards is consulted by the fused loop's inline accesses:
    the same walk faults at the region edge, 30 iterations in, on a store
    or on a load that hits in the D-cache, leaving the full state - both
    caches included - equal to the reference's."""
    program = assemble(source, ISA_THUMB2, base=FLASH_BASE)
    start = SRAM_BASE + 0x1000 - 4 * 30
    states = []
    for fastpath in (True, False):
        machine = _machine(program, "arm1156", icache=GEOMETRY, dcache=GEOMETRY)
        machine.cpu.fastpath = fastpath
        machine.call("main", start, 60)
        if fastpath:
            assert machine.cpu._plan.key.data_cache is not None
            assert not machine.cpu._plan.key.mpu
            assert _fused(machine.cpu), "the loop never fused"
        mpu = Mpu(background_perms="none")
        mpu.configure(0, SRAM_BASE, 0x1000, perms="rw")
        machine.cpu.mpu = mpu
        with pytest.raises(DataAbort):
            machine.call("main", start, 60)
        states.append(_state(machine))
    assert states[0] == states[1]
    assert states[0]["mpu_faults"] == 1
    assert states[0]["regs"][2] == 30


def test_arm1156_refuses_caches_fused_code_cannot_follow():
    """Fused code relies on Harvard caches (no data access can evict the
    line a run of cached fetches hits) and on a D-cache that writes
    through the core's bus (fused stores write there, then update the
    cache, as ``Cache.write`` does through its backing): an ARM1156 built
    with a unified cache, or with a D-cache over another store, is
    refused."""
    program = assemble(HOT_LOOP, ISA_THUMB2, base=FLASH_BASE)
    bus = SystemBus()
    sram = Sram(SRAM_BASE, DEFAULT_SRAM_SIZE)
    bus.attach(sram)
    unified = Cache(bus, **GEOMETRY)
    with pytest.raises(ValueError, match="separate"):
        Arm1156Core(program, bus, icache=unified, dcache=unified)
    with pytest.raises(ValueError, match="bus"):
        Arm1156Core(program, bus, dcache=Cache(sram, **GEOMETRY))


def test_barrier_store_faults_exactly_inside_a_fused_loop():
    """An M3 whose MPU is attached at build has an MPU in its plan key, so
    the fused loop's store takes the barrier form (the MPU check in front
    of the span-cache access).  The region edge lands 30 iterations in,
    past the fusion threshold: the store faults inside fused code and the
    full state equals the reference's."""
    program = assemble(WALK_LOOP, ISA_THUMB2, base=FLASH_BASE)
    states = []
    for fastpath in (True, False):
        mpu = Mpu(background_perms="none")
        mpu.configure(0, SRAM_BASE, 0x1000, perms="rw")
        machine = build_cortexm3(program, mpu=mpu)
        machine.cpu.fastpath = fastpath
        with pytest.raises(DataAbort):
            machine.call("main", SRAM_BASE + 0x1000 - 4 * 30, 60)
        if fastpath:
            assert machine.cpu._plan.key.mpu
            assert _fused(machine.cpu), "the loop never fused"
        states.append(_state(machine))
    assert states[0] == states[1]
    assert states[0]["mpu_faults"] == 1
    assert states[0]["regs"][2] == 30


#: pushes three registers, stores them at r0 and pops them back, r1
#: times: the loop's PUSH and STM each move a three-register list
BLOCK_LOOP = """
main:
    movs r2, #0
    movs r4, #4
    movs r5, #5
    movs r6, #6
loop:
    push {r4, r5, r6}
    stm r0, {r4, r5, r6}
    pop {r4, r5, r6}
    adds r2, r2, #1
    cmp r2, r1
    bne loop
    bx lr
"""


@pytest.mark.parametrize("transfer", ["push", "stm"])
def test_block_transfer_faults_exactly_on_a_middle_register(transfer):
    """An M3 whose MPU is attached at build runs the loop fused; then a
    32-byte hole denies the second slot of its PUSH (the hole at SP - 8)
    or of its STM (at r0 + 4), and the loop, entered again at its head
    with new register values, faults inside fused code on the middle
    register: the first register's word is written, the second is not,
    the PUSH does not write SP back, and registers, memory, bus
    statistics and the fault count equal the reference's."""
    program = assemble(BLOCK_LOOP, ISA_THUMB2, base=FLASH_BASE)
    hole = SRAM_BASE + 0x100
    if transfer == "push":
        sp, base, first = hole + 8, SRAM_BASE + 0x40, hole - 4
    else:
        sp, base, first = SRAM_BASE + 0x1C0, hole - 4, hole - 4
    # SP after the fault: the PUSH's own fault leaves it, the STM's
    # follows the PUSH that ran first
    fault_sp = sp if transfer == "push" else sp - 12
    states = []
    for fastpath in (True, False):
        mpu = Mpu(min_region_size=32, background_perms="none")
        mpu.configure(0, SRAM_BASE, 0x1000, perms="rw")
        machine = build_cortexm3(program, mpu=mpu)
        cpu = machine.cpu
        cpu.fastpath = fastpath
        cpu.call("main", base, 40, sp=sp)
        if fastpath:
            assert cpu._plan.key.mpu
            assert program.symbols["loop"] in _fused(cpu), "the loop never fused"
        mpu.configure(1, hole, 32, perms="none")
        for reg in (4, 5, 6):
            cpu.regs.write(reg, 0x40 + reg)
        with pytest.raises(DataAbort):
            cpu.call("loop", base, 40, sp=sp)
        states.append(_state(machine))
    assert states[0] == states[1]
    assert states[0]["mpu_faults"] == 1
    assert states[0]["regs"][13] == fault_sp
    offset = first - SRAM_BASE
    assert states[0]["sram"][offset:offset + 8] == bytes([0x44, 0, 0, 0, 5, 0, 0, 0])


@pytest.mark.parametrize("ins,kind", [
    # the PC in each operand position, and in a register list
    (instr("ADD", rd=PC, rn=1, rm=2), "ctl"),
    (instr("ADD", rd=1, rn=PC, imm=4), "ctl"),
    (instr("ADD", rd=1, rn=2, rm=PC), "ctl"),
    (instr("MLA", rd=1, rn=2, rm=3, ra=PC), "ctl"),
    (instr("LDR", rd=PC, mem=Mem(rn=1)), "ctl"),
    (instr("LDR", rd=1, mem=Mem(rn=2, rm=PC)), "ctl"),
    (instr("LDR", rd=1, mem=Mem(rn=PC, rm=2)), "ctl"),
    (instr("LDR", rd=1, mem=Mem(rn=PC, offset=4, writeback=True)), "ctl"),
    (instr("LDR", rd=1, mem=Mem(rn=PC, offset=4, postindex=True)), "ctl"),
    (instr("STR", rd=1, mem=Mem(rn=PC, offset=4)), "ctl"),
    (instr("POP", reglist=(4, PC)), "ctl"),
    (instr("LDM", rn=1, reglist=(2, PC)), "ctl"),
    (instr("ADR", rd=PC, imm=4), "ctl"),
    # the control and system mnemonics
    (instr("B", target=0x100), "ctl"),
    (instr("BX", rm=14), "ctl"),
    (instr("TBB", rn=1, rm=2), "ctl"),
    (instr("WFI"), "ctl"),
    (instr("CPSID"), "ctl"),
    # a literal load's base is the one PC a chainable micro-op names
    (instr("LDR", rd=1, mem=Mem(rn=PC, offset=8)), "mem"),
    (instr("LDRSH", rd=1, mem=Mem(rn=PC, offset=8)), "mem"),
    (instr("PUSH", reglist=(4, 14)), "mem"),
    (instr("STM", rn=1, reglist=(2, 3), writeback=True), "mem"),
    (instr("STR", rd=1, mem=Mem(rn=2, offset=4, writeback=True)), "mem"),
    (instr("ADR", rd=1, imm=8), "alu"),
    (instr("ADC", rd=1, rn=2, rm=3, shift=Shift("LSL", 3)), "alu"),
    (instr("CMP", rn=1, rm=2, shift=Shift("ASR", 4)), "alu"),
    (instr("LSL", rd=1, rn=1, rm=3, setflags=True), "alu"),
    (instr("NOP"), "alu"),
], ids=repr)
def test_micro_op_kind_rule(ins, kind):
    """One rule gives a micro-op its kind: ``ctl`` for the control and
    system mnemonics and anything that names the PC (a literal load's base
    excepted), ``mem`` for loads, stores and block transfers, ``alu`` for
    the rest."""
    assert uop_kind(ins) == kind


#: the loop rings a doorbell every iteration; one ring queues an IRQ
#: while the fused loop runs, and ``tick`` counts it in SRAM
DOORBELL_LOOP = """
main:
    ldr r0, =0x40000000
    movs r1, #0
loop:
    adds r1, r1, #1
    str r1, [r0, #0]
    cmp r1, #40
    bne loop
    bx lr
tick:
    ldr r0, =0x20000100
    ldr r1, [r0, #0]
    adds r1, r1, #1
    str r1, [r0, #0]
    bx lr
"""


#: the same doorbell in a loop with a diamond: odd trips ring it from one
#: member of the loop's region, even trips write the next word from
#: another, so the ring that queues the IRQ is followed by transitions
BRANCHY_DOORBELL_LOOP = """
main:
    ldr r0, =0x40000000
    movs r1, #0
loop:
    adds r1, r1, #1
    movs r2, #1
    ands r2, r2, r1
    cmp r2, #0
    beq even
    str r1, [r0, #0]
    b next
even:
    str r1, [r0, #4]
next:
    cmp r1, #40
    bne loop
    bx lr
tick:
    ldr r0, =0x20000100
    ldr r1, [r0, #0]
    adds r1, r1, #1
    str r1, [r0, #0]
    bx lr
"""


class Doorbell:
    """An MMIO word whose ``ring``-th write queues IRQ 1 on its core's NVIC
    - from inside the fused loop that wrote it - asserting a few loop
    iterations later (a delivery latency, as the co-simulation's devices
    keep one)."""

    base = 0x4000_0000
    size = 0x100
    worst_stall = 0

    def __init__(self, cpu, ring: int) -> None:
        self.cpu = cpu
        self.ring = ring

    def read(self, addr: int, size: int, side: str = "D") -> tuple[int, int]:
        return 0, 0

    def write(self, addr: int, size: int, value: int, side: str = "D") -> int:
        if value == self.ring:
            cpu = self.cpu
            cpu.nvic.raise_irq(1, handler=cpu.program.symbols["tick"],
                               at_cycle=cpu.cycles + 64)
        return 0


def _rings_its_own_irq(source: str) -> None:
    """Core B binds ``source``'s fused code from core A's plan; B's
    doorbell queues an IRQ mid-loop, and the handler must enter exactly
    when the reference takes it."""
    program = assemble(source, ISA_THUMB2, base=FLASH_BASE)

    def build() -> Machine:
        machine = _machine(program, "m3", mpu=True)
        machine.bus.attach(Doorbell(machine.cpu, ring=25))
        return machine

    def irqs(machine) -> list:
        return [(r.number, r.assert_cycle, r.entry_cycle, r.exit_cycle)
                for r in machine.cpu.nvic.stats.records]

    second, reference = _second_core_binds(build, lambda m: m.call("main"))
    assert _state(second) == _state(reference)
    assert irqs(second) == irqs(reference)
    assert len(irqs(second)) == 1
    assert second.sram.data[0x100] == 1


def test_fused_loop_bound_from_a_plan_sees_its_own_irq_queue(obs_enabled):
    """A fused loop bound on core B must test B's interrupt queue.  With
    the MPU attached before the first run, the doorbell store is inline
    and the loop keeps looping, so only the horizon test of its back-edge
    transition can stop it before the assert cycle."""
    _rings_its_own_irq(DOORBELL_LOOP)


def test_loop_region_bound_from_a_plan_sees_its_own_irq_queue(obs_enabled):
    """The same doorbell in a loop region of several members: only the
    horizon test of the transitions between them can stop the region
    before the assert cycle."""
    _rings_its_own_irq(BRANCHY_DOORBELL_LOOP)


#: a loop nest (a while-shaped inner loop inside an outer loop) and a
#: self-loop after it
LOOP_NEST = """
main:
    movs r0, #0
    movs r2, #0
outer:
    movs r1, #5
inner:
    cmp r1, #0
    beq inner_done
inner_body:
    subs r1, r1, #1
    adds r2, r2, #1
    b inner
inner_done:
    adds r0, r0, #1
    cmp r0, #4
    bne outer
tail:
    subs r2, r2, #1
    bne tail
    mov r0, r2
    bx lr
"""


def test_loop_regions_merge_nested_loops_and_drop_an_outer_loop_over_the_cap():
    """``loop_regions`` merges a loop nest into one region whose members
    are the outer head, the inner head, the branch targets and the
    instructions after non-chainable micro-ops inside the range; a nest
    whose member blocks hold more positions than the cap drops its outer
    loop and keeps the inner loop as a region.  The self-loop after the
    nest is a one-member region either way."""
    program = assemble(LOOP_NEST, ISA_THUMB, base=FLASH_BASE)
    at = {name: program.symbols[name]
          for name in ("outer", "inner", "inner_body", "inner_done", "tail")}
    table = predecode(program)

    def members(cap):
        regions = loop_regions(table, False, lambda pc: 10, cap)
        return sorted({region.members for region in regions.values()})

    nest = (at["outer"], at["inner"], at["inner_body"], at["inner_done"])
    assert members(40) == [nest, (at["tail"],)]
    regions = loop_regions(table, False, lambda pc: 10, 40)
    assert all(regions[pc] is regions[at["outer"]] for pc in nest)
    assert members(39) == [(at["inner"], at["inner_body"]), (at["tail"],)]
    assert members(9) == []


@pytest.mark.parametrize("matrix", ["vehicle-smoke", "vehicle-fault"])
def test_records_do_not_depend_on_plan_warmth(obs_enabled, matrix, tmp_path,
                                              monkeypatch):
    """A fresh interpreter (cold plans) and a second in-process run (every
    plan warm) stream the same bytes.  Warmth changes when a core fuses a
    block - a warm core enters a hot block fused from its first dispatch,
    so it may build other blocks - never what the core computes, and no
    record carries an engine count.  Each plan block's code is emitted at
    most once per process."""
    cold = tmp_path / "cold.jsonl"
    result = subprocess.run(
        [sys.executable, "-m", "repro.sim.campaign", "--matrix", matrix,
         "--stream", str(cold)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=300)
    assert result.returncode == 0, result.stderr
    emissions = []
    emit_block = superblock._emit_block

    def recording(cpu, blocks, region):
        emissions.append((cpu._plan, blocks[0].uops[0].address))
        return emit_block(cpu, blocks, region)

    monkeypatch.setattr(superblock, "_emit_block", recording)
    first, warm = tmp_path / "first.jsonl", tmp_path / "warm.jsonl"
    assert campaign_main(["--matrix", matrix, "--stream", str(first)]) == 0
    planned = _fusions("plan")
    assert campaign_main(["--matrix", matrix, "--stream", str(warm)]) == 0
    assert _fusions("plan") > planned, "the warm run bound nothing from a plan"
    blocks = [(id(plan), pc) for plan, pc in emissions]
    assert len(blocks) == len(set(blocks)), "a plan block was emitted twice"
    assert '"fused_blocks"' not in warm.read_text()
    assert warm.read_bytes() == cold.read_bytes() == first.read_bytes()


#: one superblock, ``add`` then its return, that fused code runs with no
#: bound step (both positions have an inline form)
ADD_ONE = """
add:
    adds r0, r0, #1
    bx lr
"""


def test_hotness_is_counted_per_plan(dispatches):
    """Fusion hotness belongs to the engine plan.  Two fresh cores over one
    Program dispatch a block 8 times each through the list path: the
    block fuses on the 16th list dispatch overall (the second core's
    8th), and a third core's first dispatch of it already runs fused,
    with no list dispatch.  A block run through the list path binds its
    steps once; the third core, which only ever runs the block fused,
    binds no step for it at all."""
    _PLAN_TABLES.clear()  # a live program with the same code shares plans
    program = assemble(ADD_ONE, ISA_THUMB2, base=FLASH_BASE)
    entry = program.symbols["add"]
    cores = []
    for calls in (8, 8):
        machine = build_cortexm3(program)
        cpu = machine.cpu
        binds = []

        def recording(uop, bind_uop=cpu._bind_uop, binds=binds):
            binds.append(uop.address)
            return bind_uop(uop)

        cpu._bind_uop = recording
        for call in range(calls):
            lists, emitted = dispatches("list"), _fusions("emitted")
            assert machine.call("add", call) == call + 1
            assert dispatches("list") == lists + 1
            hot = len(cores) == 1 and call == calls - 1
            assert _fusions("emitted") == emitted + hot
            assert (cpu._sb_blocks[entry][2] is not None) == hot
        block = cpu._plan.blocks[entry]
        assert binds == [uop.address for uop in block.uops]
        assert cpu._sb_blocks[entry][1] == [cpu._fast_table[pc] for pc in binds]
        cores.append(cpu)
    assert block.countdown == 0 and block.code is not None
    third = build_cortexm3(program)
    lists, fused, planned = (dispatches("list"), dispatches("fused"),
                             _fusions("plan"))
    assert third.call("add", 41) == 42
    assert (dispatches("list"), dispatches("fused"), _fusions("plan")) == (
        lists, fused + 1, planned + 1)
    assert third.cpu._sb_blocks[entry][1] is None
    assert not third.cpu._fast_table.keys() & {uop.address for uop in block.uops}
    assert third.cpu._plan is cores[0]._plan


#: a literal-pool load: programs differing only in ``value`` have equal
#: instructions and different data
LITERAL = """
main:
    ldr r0, ={value}
    adds r0, r0, #{add}
    bx lr
"""


def test_programs_with_equal_code_share_plans(dispatches):
    """A plan reads a program's instructions, never its data.  Two programs
    that differ only in a literal-pool value share one plan, so a core of
    the second enters the block the first made hot fused from its first
    call - and still loads its own value, at run time.  Programs whose
    instructions differ do not share."""
    _PLAN_TABLES.clear()

    def program(value: int, add: int = 1):
        return assemble(LITERAL.format(value=value, add=add), ISA_THUMB2,
                        base=FLASH_BASE)

    hot = build_cortexm3(program(0x1234_5678))
    for _ in range(superblock.FUSE_THRESHOLD):
        assert hot.call("main") == 0x1234_5679
    assert _fused(hot.cpu), "the block never fused"
    twin = build_cortexm3(program(0x0BAD_F00D))
    lists, fused = dispatches("list"), dispatches("fused")
    assert twin.call("main") == 0x0BAD_F00E
    assert (dispatches("list"), dispatches("fused")) == (lists, fused + 1)
    assert twin.cpu._plan is hot.cpu._plan
    reference = build_cortexm3(program(0x0BAD_F00D))
    reference.cpu.fastpath = False
    reference.call("main")
    assert _state(twin) == _state(reference)
    other = build_cortexm3(program(0x1234_5678, add=2))
    assert other.call("main") == 0x1234_567A
    assert other.cpu._plan is not hot.cpu._plan
    assert other.cpu._plan.key == hot.cpu._plan.key


#: a load from flash: not an SRAM span hit, so fused code takes the load's
#: escape arm and returns to the engine at the next instruction
ESCAPE = """
main:
    adds r2, r2, #1
    ldr r1, [r0, #0]
    adds r2, r2, #1
    bx lr
"""


def test_block_entered_at_an_escape_exit_starts_hot(dispatches):
    """Fused code that leaves a hot block at an escape arm returns to the
    engine mid-block; the block entered there is as hot as the one that
    escaped, so it runs fused from its first dispatch instead of counting
    down list dispatches of its own."""
    _PLAN_TABLES.clear()
    program = assemble(ESCAPE, ISA_THUMB2, base=FLASH_BASE)
    main = program.symbols["main"]
    machine = build_cortexm3(program)
    for _ in range(superblock.FUSE_THRESHOLD):
        machine.call("main", main)
    plan = machine.cpu._plan
    exit_pc = main + 4  # after the load
    assert plan.exits == {exit_pc} and exit_pc not in plan.blocks
    lists, fused = dispatches("list"), dispatches("fused")
    machine.call("main", main)
    assert (dispatches("list"), dispatches("fused")) == (lists, fused + 2)
    assert plan.blocks[exit_pc].countdown == 0
    assert exit_pc in _fused(machine.cpu)
    reference = build_cortexm3(program)
    reference.cpu.fastpath = False
    for _ in range(superblock.FUSE_THRESHOLD + 1):
        reference.call("main", main)
    assert _state(machine) == _state(reference)


def test_kernel_cells_share_one_program_per_configuration(monkeypatch, tmp_path):
    """Two passes of a kernel matrix build every machine over the same
    (memoised) Program object and stream identical bytes."""
    import repro.core

    programs: list = []
    build_machine = repro.core.build_machine

    def recording(core, program, **kwargs):
        programs.append(program)
        return build_machine(core, program, **kwargs)

    specs = tuple(
        ScenarioSpec(label=f"memo {core} {workload}", core=core, isa=isa,
                     workload=workload, seed=3, scale=1, interrupts=irq)
        for core, isa, irq in (("arm7", "thumb", None), ("m3", "thumb2", None),
                               ("m3", "thumb2", InterruptProfile(count=3, mean_gap=500)))
        for workload in ("tblook", "canrdr"))
    monkeypatch.setattr(repro.core, "build_machine", recording)
    streams = []
    for index in range(2):
        stream = tmp_path / f"pass{index}.jsonl"
        execute_request(CampaignRequest(specs=specs), stream_path=stream)
        streams.append(stream.read_bytes())
    assert streams[0] == streams[1]
    assert len(programs) == 2 * len(specs)
    first, second = programs[:len(specs)], programs[len(specs):]
    assert all(a is b for a, b in zip(first, second))
    # the IRQ-tick variant links a second function: a distinct Program
    assert first[2] is not first[4]
