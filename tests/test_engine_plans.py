"""Engine plans: fresh cores bind cached blocks, caps and fused code.

An engine plan (``repro.core.cpu.EnginePlan``) is shared by every core
that runs one ``Program`` under one plan key.  These tests pin both halves
of its contract: cores whose configurations differ in a key input never
share a plan, and a block bound from a plan leaves a second core
bit-identical to the reference interpreter - and so campaign records stay
byte-identical however warm the plans are.  Compiled kernel programs are
memoised so kernel cells share plans too.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.core import FLASH_BASE, SRAM_BASE, Machine, build_arm7
from repro.core.arm1156 import Arm1156Core
from repro.core.cortexm3 import CortexM3Core
from repro.core.exceptions import DataAbort
from repro.core.machines import DEFAULT_FLASH_SIZE, DEFAULT_SRAM_SIZE
from repro.isa import ISA_THUMB, ISA_THUMB2, assemble
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
    return [pc for pc, entry in cpu._sb_blocks.items() if entry[3] is not None]


def _config(core: str, **options):
    return lambda program: _machine(program, core, **options)


def _guest(core: str):
    return lambda program: build_guest_machine(core, HOT_LOOP)


#: pairs of configurations that differ in exactly one plan-key input;
#: core-class, icache-geometry, dcache, interruptible-ldm, mpu,
#: sram-wait-states and cache-fill-penalty each differ in one key part
#: only, so dropping any part from the key makes one pair share a plan
PAIRS = {
    # one firmware, shared through the guest-firmware cache
    "m3-vs-arm1156-guest": (_guest("m3"), _guest("arm1156")),
    "core-class": (_config("m3"), _config("arm1156", interruptible_ldm=False)),
    "icache": (_config("arm1156"), _config("arm1156", icache=GEOMETRY)),
    "icache-geometry": (_config("arm1156", icache=GEOMETRY),
                        _config("arm1156", icache=dict(GEOMETRY, sets=16))),
    # equal I- and D-cache worst stalls: only the data-inline plan differs
    "dcache": (_config("arm1156", icache=GEOMETRY),
               _config("arm1156", icache=GEOMETRY, dcache=GEOMETRY)),
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
    layout) runs the same and must bind every block it fuses from the
    plan.  Returns B and a reference-engine machine that ran the same."""
    first = build()
    run(first)
    assert _fused(first.cpu), "core A never fused the hot block"
    emitted, planned = _fusions("emitted"), _fusions("plan")
    second = build()
    run(second)
    assert second.cpu.program is first.cpu.program
    assert second.cpu._plan is first.cpu._plan
    assert _fusions("emitted") == emitted
    assert _fusions("plan") - planned == len(_fused(second.cpu)) > 0
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


def test_fused_loop_bound_from_a_plan_sees_its_own_irq_queue(obs_enabled):
    """A fused loop bound on core B must test B's interrupt queue: B's
    doorbell queues an IRQ mid-loop, and the handler must enter exactly
    when the reference takes it.  With the MPU attached before the first
    run, the doorbell store is inline and the loop keeps looping, so only
    the loop guard's queue test can stop it before the assert cycle."""
    program = assemble(DOORBELL_LOOP, ISA_THUMB2, base=FLASH_BASE)

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


@pytest.mark.parametrize("matrix", ["vehicle-smoke", "vehicle-fault"])
def test_records_do_not_depend_on_plan_warmth(obs_enabled, matrix, tmp_path):
    """A fresh interpreter (cold plans) and a second in-process run (every
    plan warm) stream the same bytes, ``fused_blocks`` included: plans skip
    emission, never a core's own fusion countdown."""
    cold = tmp_path / "cold.jsonl"
    result = subprocess.run(
        [sys.executable, "-m", "repro.sim.campaign", "--matrix", matrix,
         "--stream", str(cold)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=300)
    assert result.returncode == 0, result.stderr
    first, warm = tmp_path / "first.jsonl", tmp_path / "warm.jsonl"
    assert campaign_main(["--matrix", matrix, "--stream", str(first)]) == 0
    emitted, planned = _fusions("emitted"), _fusions("plan")
    assert campaign_main(["--matrix", matrix, "--stream", str(warm)]) == 0
    assert _fusions("plan") > planned, "the warm run bound nothing from a plan"
    assert _fusions("emitted") == emitted, "the warm run emitted a block"
    assert '"fused_blocks":' in warm.read_text()
    assert warm.read_bytes() == cold.read_bytes() == first.read_bytes()


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
