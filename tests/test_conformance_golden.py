"""Cross-engine conformance against a committed golden corpus.

The property tests in ``test_fastpath_properties.py`` prove the two
execution engines agree with *each other*; this corpus pins both to
committed fingerprints (registers, flags, cycle counts, bus statistics,
scratch memory) for representative programs on all three cores, so future
engine work - new fused shapes, an ARM1156 fused icache path - cannot
silently drift the absolute scenario results either.

The corpus lives in ``tests/golden/conformance_<core>_<isa>.json``.  To
regenerate after an *intentional* timing-model change::

    PYTHONPATH=src python tests/test_conformance_golden.py

then review the diff like any other code change: every altered number is
a behaviour change across every campaign domain that runs on the cores.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.codegen import compile_program
from repro.core import FLASH_BASE, SRAM_BASE, build_machine
from repro.isa import assemble
from repro.sim.rng import DeterministicRng
from repro.workloads.kernels import WORKLOADS_BY_NAME

GOLDEN_DIR = Path(__file__).parent / "golden"

#: (core, isa) pairs: all three cores, every ISA each one runs.
CONFIGS = (
    ("arm7", "arm"),
    ("arm7", "thumb"),
    ("m3", "thumb2"),
    ("arm1156", "thumb2"),
)

#: (label, fastpath) - the reference interpreter and the trace engine
#: (see repro/core/cpu.py).
ENGINES = (
    ("reference", False),
    ("trace", True),
)

#: AutoIndy kernels in the corpus: table-driven, bit-twiddling, and
#: control-heavy shapes (the golden seed/scale match the Table 1 harness).
KERNEL_PROGRAMS = ("ttsprk", "tblook", "canrdr", "bitmnp")
KERNEL_SEED = 2005
KERNEL_SCALE = 1

#: Hand-written programs covering engine-sensitive shapes the kernels
#: don't force: tight backward-branch loops (superblock re-entry and
#: trace-engine loop fusion), LDM/STM with write-back (specialised
#: predecode), IT predication (Thumb-2 only), IRQs landing on loop
#: back-edges, the ARM1156 cached fetch path, and Cortex-M3 literal-pool
#: loads under an MPU.
ASM_ALU_LOOP = """
main:
    push {r4, r5, r6, r7}
    movs r4, #0
    movs r5, #25
loop:
    adds r4, r4, r5
    eors r4, r4, r5
    lsls r6, r4, #1
    lsrs r6, r6, #3
    subs r5, r5, #1
    bne loop
    str r4, [r0, #0]
    ldr r6, [r0, #0]
    adds r0, r4, r6
    pop {r4, r5, r6, r7}
    bx lr
"""

ASM_BLOCK_COPY = """
main:
    push {r4, r5, r6, r7}
    movs r4, #17
    movs r5, #99
    movs r6, #3
    movs r7, #250
    mov r3, r0
    stm r3!, {r4, r5, r6, r7}
    mov r3, r0
    ldm r3!, {r5, r6}
    str r3, [r0, #16]
    adds r0, r5, r6
    pop {r4, r5, r6, r7}
    bx lr
"""

ASM_IT_BLOCKS = """
main:
    movs r4, #0
    cmp r1, r2
    itte ge
    addge r4, r4, #7
    addge r4, r4, #1
    addlt r4, r4, #3
    cmp r2, r1
    it lt
    addlt r4, r4, #16
    mov r0, r4
    bx lr
"""

ASM_COUNTED_LOOP = """
main:
    movs r2, #0
    movs r3, #200
loop:
    adds r2, r2, r3
    eors r2, r2, r3
    adds r2, r2, #7
    subs r3, r3, #1
    bne loop
    str r2, [r0, #0]
    ldr r3, [r0, #0]
    adds r0, r2, r3
    bx lr
"""

# The handler restores scratch registers with a plain pop and returns via
# bx lr: restart-safe on the ARM1156 (a pop-to-PC return could be
# abandoned mid-transfer after its unwind side effects) and a valid
# EXC_RETURN path on the M3.  The counter word sits inside the
# fingerprinted scratch window.
ASM_LOOP_IRQ_BACKEDGE = """
main:
    movs r0, #0
    movs r2, #0
loop:
    adds r2, r2, #3
    eors r2, r2, r0
    adds r0, r0, #1
    cmp r0, #150
    bne loop
    mov r0, r2
    bx lr
handler:
    push {r1, r2}
    ldr r1, =0x20000030
    ldr r2, [r1]
    adds r2, r2, #1
    str r2, [r1]
    pop {r1, r2}
    bx lr
"""

#: a loop body long enough to span several 32-byte icache lines, so the
#: ARM1156's cached-fetch inline path sees hits, sequential misses, and
#: the back-edge's non-sequential re-fetch every iteration
ASM_ICACHE_LOOP = """
main:
    movs r0, #0
    movs r2, #0
    movs r3, #7
loop:
    adds r2, r2, r3
    eors r2, r2, r0
    lsls r4, r2, #3
    lsrs r5, r2, #2
    adds r4, r4, r5
    subs r4, r4, #1
    ands r2, r2, r4
    orrs r2, r2, r3
    adds r2, r2, #13
    rev r5, r2
    eors r2, r2, r5
    uxth r2, r2
    adds r0, r0, #1
    cmp r0, #90
    bne loop
    mov r0, r2
    bx lr
"""

#: literal-pool loads (constant flash addresses) inside a hot loop, with
#: SRAM traffic alongside - run on the M3 under a configured MPU, every
#: access pays the protection check, fused superblocks included
ASM_LITERAL_MPU_LOOP = """
main:
    movs r2, #0
    movs r4, #0
loop:
    ldr r5, =0x12345678
    adds r4, r4, r5
    ldr r6, =0xCAFE0000
    eors r4, r4, r6
    str r4, [r0, #8]
    ldr r7, [r0, #8]
    adds r4, r4, r7
    adds r2, r2, #1
    cmp r2, #80
    bne loop
    mov r0, r4
    bx lr
"""


def _golden_mpu():
    from repro.core.machines import DEFAULT_FLASH_SIZE, DEFAULT_SRAM_SIZE
    from repro.memory.mpu import Mpu

    mpu = Mpu(num_regions=8, min_region_size=4096, background_perms="none")
    mpu.configure(0, FLASH_BASE, DEFAULT_FLASH_SIZE, perms="ro")
    mpu.configure(1, SRAM_BASE, DEFAULT_SRAM_SIZE, perms="rw")
    return mpu


ASM_PROGRAMS: dict[str, dict] = {
    # name -> source, extra args after the scratch pointer, isas, and
    # optionally: cores (restrict configs), irqs ((number, cycle) pairs
    # raised on the core's controller against the "handler" symbol), and
    # mpu (factory for a machine-kwarg MPU)
    "alu_loop": {"source": ASM_ALU_LOOP, "args": (),
                 "isas": ("arm", "thumb", "thumb2")},
    "block_copy": {"source": ASM_BLOCK_COPY, "args": (),
                   "isas": ("arm", "thumb", "thumb2")},
    "it_blocks": {"source": ASM_IT_BLOCKS, "args": (9, 4),
                  "isas": ("thumb2",)},
    "counted_loop": {"source": ASM_COUNTED_LOOP, "args": (),
                     "isas": ("arm", "thumb", "thumb2")},
    # assert cycles 60/66 are exact back-edge execution cycles on the M3
    # timeline (the loop branch runs every 6 cycles from 6), and land
    # mid-loop on the other cores; 800 sits in the storm-free tail - the
    # trace engine's fused loop must bail out of its generated while-loop
    # at exactly these points
    "loop_irq_backedge": {"source": ASM_LOOP_IRQ_BACKEDGE, "args": (),
                          "isas": ("arm", "thumb", "thumb2"),
                          "irqs": ((1, 60), (2, 66), (3, 800))},
    "icache_loop": {"source": ASM_ICACHE_LOOP, "args": (),
                    "isas": ("thumb2",), "cores": ("arm1156",)},
    "literal_mpu_loop": {"source": ASM_LITERAL_MPU_LOOP, "args": (),
                         "isas": ("thumb2",), "cores": ("m3",),
                         "mpu": _golden_mpu},
}

SCRATCH_BYTES = 64


def golden_path(core: str, isa: str) -> Path:
    return GOLDEN_DIR / f"conformance_{core}_{isa}.json"


def _fingerprint(machine, result: int) -> dict:
    cpu = machine.cpu
    return {
        "result": result,
        "regs": list(cpu.regs.snapshot()),
        "apsr": str(cpu.apsr),
        "cycles": cpu.cycles,
        "instructions": cpu.instructions_executed,
        "skipped": cpu.instructions_skipped,
        "branches": cpu.branches_taken,
        "bus_reads": machine.bus.reads,
        "bus_writes": machine.bus.writes,
        "bus_stalls": machine.bus.total_stalls,
        "sram": bytes(machine.sram.data[:SCRATCH_BYTES]).hex(),
    }


def _run_kernel(core: str, isa: str, name: str, fastpath: bool) -> dict:
    workload = WORKLOADS_BY_NAME[name]
    fn = workload.build()
    program = compile_program([fn], isa, base=FLASH_BASE)
    machine = build_machine(core, program)
    machine.cpu.fastpath = fastpath
    prepared = workload.make_input(DeterministicRng(KERNEL_SEED), KERNEL_SCALE)
    machine.load_data(SRAM_BASE, prepared.data)
    result = machine.call(fn.name, *prepared.args(SRAM_BASE))
    assert result == workload.reference(prepared.data, *prepared.args(0))
    return _fingerprint(machine, result)


def _run_asm(core: str, isa: str, name: str, fastpath: bool) -> dict:
    spec = ASM_PROGRAMS[name]
    program = assemble(spec["source"], isa, base=FLASH_BASE)
    kwargs = {}
    if "mpu" in spec:
        kwargs["mpu"] = spec["mpu"]()
    machine = build_machine(core, program, **kwargs)
    machine.cpu.fastpath = fastpath
    for number, cycle in spec.get("irqs", ()):
        controller = getattr(machine.cpu, "nvic", None)
        if controller is None:
            controller = machine.cpu.vic
        controller.raise_irq(number, handler=program.symbols["handler"],
                             at_cycle=cycle)
    result = machine.call("main", SRAM_BASE, *spec["args"],
                          max_instructions=100_000)
    return _fingerprint(machine, result)


def corpus_programs(core: str, isa: str) -> list[str]:
    names = list(KERNEL_PROGRAMS)
    names += [name for name, spec in ASM_PROGRAMS.items()
              if isa in spec["isas"] and core in spec.get("cores", (core,))]
    return names


def compute_fingerprints(core: str, isa: str, fastpath: bool) -> dict:
    fingerprints = {}
    for name in corpus_programs(core, isa):
        if name in ASM_PROGRAMS:
            fingerprints[name] = _run_asm(core, isa, name, fastpath)
        else:
            fingerprints[name] = _run_kernel(core, isa, name, fastpath)
    return fingerprints


@pytest.fixture(scope="module")
def golden() -> dict:
    corpora = {}
    for core, isa in CONFIGS:
        path = golden_path(core, isa)
        if not path.exists():
            pytest.fail(
                f"missing golden corpus {path}; regenerate with "
                f"'PYTHONPATH=src python tests/test_conformance_golden.py'")
        with open(path, encoding="utf-8") as stream:
            corpora[(core, isa)] = json.load(stream)
    return corpora


@pytest.mark.parametrize("engine,fastpath", ENGINES,
                         ids=[e[0] for e in ENGINES])
@pytest.mark.parametrize("core,isa", CONFIGS,
                         ids=[f"{c}-{i}" for c, i in CONFIGS])
def test_engine_matches_golden_corpus(golden, core, isa, engine, fastpath):
    """Both engines on every core must reproduce the committed corpus."""
    expected = golden[(core, isa)]["programs"]
    computed = compute_fingerprints(core, isa, fastpath)
    assert sorted(computed) == sorted(expected), (
        f"{core}/{isa}: corpus program set changed; regenerate the corpus")
    for name, fingerprint in computed.items():
        drift = {key: (fingerprint[key], expected[name][key])
                 for key in fingerprint if fingerprint[key] != expected[name][key]}
        assert fingerprint == expected[name], (
            f"{engine} engine drifted from golden corpus on "
            f"{core}/{isa}/{name}: {drift}")


def test_corpus_covers_all_cores_and_isas(golden):
    """The corpus spans all three cores and all three ISAs."""
    cores = {core for core, _ in golden}
    isas = {isa for _, isa in golden}
    assert cores == {"arm7", "m3", "arm1156"}
    assert isas == {"arm", "thumb", "thumb2"}
    for (core, isa), corpus in golden.items():
        assert sorted(corpus["programs"]) == sorted(corpus_programs(core, isa))


def _corpus_instructions(core: str, isa: str):
    """Every (machine, instruction) the golden corpus executes on a core."""
    for name in corpus_programs(core, isa):
        if name in ASM_PROGRAMS:
            spec = ASM_PROGRAMS[name]
            program = assemble(spec["source"], isa, base=FLASH_BASE)
            kwargs = {"mpu": spec["mpu"]()} if "mpu" in spec else {}
        else:
            fn = WORKLOADS_BY_NAME[name].build()
            program = compile_program([fn], isa, base=FLASH_BASE)
            kwargs = {}
        machine = build_machine(core, program, **kwargs)
        for ins in program.instructions:
            yield machine, ins


@pytest.mark.parametrize("core,isa", CONFIGS,
                         ids=[f"{c}-{i}" for c, i in CONFIGS])
def test_block_cap_covers_golden_corpus(core, isa):
    """The ``_block_cycle_cap`` protocol covers the whole golden corpus:
    every instruction's compiled cycle model either declares its static
    taken-path cost (``static_taken``), or - for the few dynamic models -
    its worst outcome stays within the core's declared
    ``WORST_DYNAMIC_CYCLES``.  A new dynamic cycle model without a raised
    declaration fails here before it can under-cap a fused block."""
    from repro.isa.semantics import Outcome

    static_seen = 0
    dynamic_mnemonics = set()
    for machine, ins in _corpus_instructions(core, isa):
        cpu = machine.cpu
        cycle_fn = cpu.compile_cycles(ins)
        if cycle_fn is not None and getattr(cycle_fn, "static_taken", None) is not None:
            static_seen += 1
            continue
        dynamic_mnemonics.add(ins.mnemonic)
        regs = len(ins.reglist) if getattr(ins, "reglist", None) else 0
        worst = max(
            cpu.instruction_cycles(ins, Outcome(
                taken=taken, regs_transferred=regs, div_early_exit=width))
            for taken in (False, True)
            for width in range(33))
        assert worst <= cpu.WORST_DYNAMIC_CYCLES, (
            f"{core}/{isa}: dynamic cycle model for {ins.mnemonic} can cost "
            f"{worst} cycles but WORST_DYNAMIC_CYCLES declares only "
            f"{cpu.WORST_DYNAMIC_CYCLES}")
        if cycle_fn is not None:
            closure_worst = max(
                cycle_fn(Outcome(taken=taken, regs_transferred=regs,
                                 div_early_exit=width))
                for taken in (False, True)
                for width in range(33))
            assert closure_worst <= cpu.WORST_DYNAMIC_CYCLES
    assert static_seen > 0, f"{core}/{isa}: corpus exercised no static models"
    # only the early-exit dividers lack a static declaration today; any
    # new dynamic model must raise the core's declared worst case too
    assert dynamic_mnemonics <= {"SDIV", "UDIV"}, (
        f"{core}/{isa}: unexpected dynamic cycle models {dynamic_mnemonics}")


def regenerate() -> None:
    """Recompute the corpus from the reference interpreter and write it."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for core, isa in CONFIGS:
        payload = {
            "_comment": (
                "Golden cross-engine conformance fingerprints; regenerate "
                "with 'PYTHONPATH=src python tests/test_conformance_golden.py' "
                "and review every changed number as a behaviour change."),
            "core": core,
            "isa": isa,
            "seed": KERNEL_SEED,
            "scale": KERNEL_SCALE,
            "programs": compute_fingerprints(core, isa, fastpath=False),
        }
        path = golden_path(core, isa)
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, indent=1, sort_keys=True)
            stream.write("\n")
        print(f"wrote {path} ({len(payload['programs'])} programs)")


if __name__ == "__main__":
    regenerate()
