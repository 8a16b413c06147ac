"""Property tests: the trace engine == the reference interpreter.

The trace engine (:mod:`repro.isa.predecode` + ``BaseCpu.run``, see the
execution-engines section of :mod:`repro.core.cpu`) must be
*architecturally indistinguishable* from single-stepping the reference
interpreter: same
registers, flags, memory, cycle counts, bus statistics, and trace - on
every core, for arbitrary programs, with and without interrupts.  These
tests generate randomised programs (hypothesis) including LDM/STM,
write-back addressing, predicated skips, and loopy control flow
(back-edges, inner while loops, switches, loop-carried flags, IT blocks
inside loops - fused as multi-member loop regions), and run curated
worst cases (IT blocks, WFI, interrupt storms landing mid-superblock and
exactly on every member ender of a fused loop region, the instruction
budget running out inside one, restartable LDM windows, access-record
streams), executing each on both engines and diffing the complete
machine state.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import (
    FLASH_BASE,
    HALT_ADDRESS,
    SRAM_BASE,
    build_arm7,
    build_arm1156,
    build_cortexm3,
)
from repro.core.superblock import FUSE_THRESHOLD
from repro.isa import (
    ISA_ARM,
    ISA_THUMB,
    ISA_THUMB2,
    AssemblyError,
    EncodingError,
    assemble,
)
from repro.memory.mpu import Mpu
from repro.sim.trace import TraceRecorder
from repro.workloads import TABLE1_CONFIGS
from repro.workloads.harness import compiled_kernel, run_compiled
from repro.workloads.kernels import AUTOINDY_SUITE

SCRATCH_BYTES = 64


def _build_machine(isa: str, source: str, core: str = "", trace: bool = False):
    """A machine for ``source``: ``core`` "" picks the ISA's default core
    (ARM7 for ARM and Thumb, M3 for Thumb-2); "arm1156" the ARM1156;
    "m3-mpu" an M3 with an all-permitting MPU attached at build, so the
    plan key holds an MPU; "arm1156-thrash" an ARM1156 with 1-set, 1-way
    caches, so fused fetches miss; "arm1156-flipped" an ARM1156 whose
    caches hold the code and the scratch words and have each taken a bit
    flip before the first call (:func:`_flip_caches`), so fused fetches,
    loads and stores take the verifying arm."""
    program = assemble(source, isa, base=FLASH_BASE)
    recorder = TraceRecorder(enabled=trace)
    if core == "m3-mpu":
        return build_cortexm3(program, mpu=Mpu(background_perms="rw"),
                              trace=recorder)
    if core == "arm1156-thrash":
        return build_arm1156(program, cache_sets=1, cache_ways=1,
                             trace=recorder)
    if core == "arm1156-flipped":
        machine = build_arm1156(program, trace=recorder)
        _flip_caches(machine)
        return machine
    if isa == ISA_THUMB2 and core != "arm1156":
        return build_cortexm3(program, trace=recorder)
    if core == "arm1156":
        return build_arm1156(program, trace=recorder)
    return build_arm7(program, trace=recorder)


def _flip_caches(machine) -> None:
    """Warm the program into the I-cache and the scratch words into the
    D-cache, then flip one data bit in each: in the line of the program's
    first word and in the line of scratch word 1."""
    program = machine.cpu.program
    icache, dcache = machine.icache, machine.dcache
    icache.warm(program.base, len(program.image()), "I")
    dcache.warm(SRAM_BASE, SCRATCH_BYTES, "D")
    for cache, address in ((icache, program.base), (dcache, SRAM_BASE + 4)):
        tag, set_index, offset, ways = cache.lookup_plan(address, 4)
        way = next(index for index, line in enumerate(ways)
                   if line.valid and line.tag == tag)
        cache.flip_data_bit(set_index, way, 8 * offset + 5)
        assert cache.flipped


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
        "svc": tuple(cpu.svc_log),
        "scratch": bytes(machine.sram.data[:SCRATCH_BYTES]),
        "bus_reads": machine.bus.reads,
        "bus_writes": machine.bus.writes,
        "bus_stalls": machine.bus.total_stalls,
        "caches": tuple(cache.snapshot()
                        for cache in (machine.icache, machine.dcache)
                        if cache is not None),
        "mpu_faults": None if getattr(cpu, "mpu", None) is None else cpu.mpu.faults,
        "trace": tuple(cpu.trace.records),
    }


#: (label, fastpath) for the two engines
ENGINES = (
    ("trace", True),
    ("reference", False),
)


def run_engines(isa: str, source: str, args=(), core: str = "",
                trace: bool = False, calls: int = 1) -> list[dict]:
    """Run ``source`` through both engines, ``calls`` calls of ``main`` on
    one machine per engine; return the final states."""
    states = []
    for _, fastpath in ENGINES:
        machine = _build_machine(isa, source, core=core, trace=trace)
        machine.cpu.fastpath = fastpath
        for _ in range(calls):
            machine.call("main", *args, max_instructions=200_000)
        states.append(_state(machine))
    return states


def assert_equivalent(isa: str, source: str, args=(), core: str = "",
                      trace: bool = False, calls: int = 1) -> None:
    states = run_engines(isa, source, args=args, core=core, trace=trace,
                         calls=calls)
    reference = states[-1]
    for (label, _), state in zip(ENGINES, states):
        assert state == reference, (
            f"{label} engine diverged on {core or isa}: "
            f"{ {k: (state[k], reference[k]) for k in state if state[k] != reference[k]} }")


# ----------------------------------------------------------------------
# randomised program generation
# ----------------------------------------------------------------------

REG = st.integers(min_value=1, max_value=7)   # r0 is the scratch pointer
IMM8 = st.integers(min_value=0, max_value=255)
SHIFT = st.integers(min_value=1, max_value=31)
WOFF = st.integers(min_value=0, max_value=(SCRATCH_BYTES // 4) - 1)
REGLIST = st.lists(st.sampled_from([4, 5, 6, 7]), min_size=1, max_size=4,
                   unique=True)
COND = st.sampled_from(["eq", "ne", "cs", "cc", "mi", "pl", "ge", "lt",
                        "gt", "le", "hi", "ls"])

#: (isa, core) pairs the random-program tests run on: the four default
#: cores, an M3 whose MPU is attached at build (fused loads and stores
#: take the barrier form behind the MPU check), an ARM1156 whose 1-set,
#: 1-way caches make fused fetches and loads miss, and an ARM1156 whose
#: caches took a bit flip before the first call (fused fetches, loads and
#: stores take the verifying arm)
RANDOM_CONFIGS = ((ISA_ARM, ""), (ISA_THUMB, ""), (ISA_THUMB2, ""),
                  (ISA_THUMB2, "arm1156"), (ISA_THUMB2, "m3-mpu"),
                  (ISA_THUMB2, "arm1156-thrash"),
                  (ISA_THUMB2, "arm1156-flipped"))


def _predicated_ops(woff):
    """Conditionally executed data-processing, load and store ops; only
    the ARM ISA predicates them (:func:`_render_predicated` drops the
    condition elsewhere)."""
    return (
        st.tuples(st.just("pred_alu"),
                  st.sampled_from(["add", "sub", "eor", "orr", "adds", "subs"]),
                  COND, REG, REG, REG),
        st.tuples(st.just("pred_mem"),
                  st.sampled_from(["ldr", "ldrb", "ldrh", "str", "strb", "strh"]),
                  COND, REG, woff),
    )


#: a shift amount register's value: 0 passes the carry in through, 32 and
#: 33 shift everything out, 255 is the most its low byte holds
SHIFT_BY = st.one_of(st.just(0), st.integers(min_value=1, max_value=31),
                     st.sampled_from([32, 33, 255]))
#: an operand shift (kind, amount) every ISA with shifted operands encodes
OPERAND_SHIFT = st.one_of(
    st.tuples(st.sampled_from(["lsl", "ror"]), st.integers(min_value=1, max_value=31)),
    st.tuples(st.sampled_from(["lsr", "asr"]), st.integers(min_value=1, max_value=32)))
#: a PUSH list and a POP list of the same length (registers r1-r7)
PUSH_POP = st.lists(REG, min_size=1, max_size=4, unique=True).flatmap(
    lambda pushed: st.tuples(st.just(tuple(pushed)), st.lists(
        REG, min_size=len(pushed), max_size=len(pushed), unique=True).map(tuple)))


#: chainable shapes that fused code writes out inline or runs through
#: the reference handler: register-controlled shifts, the carry ops
#: (ADC/SBC/RSB), shifted operands and compares, MVN/TEQ/ORN, the long
#: multiplies and dividers, bitfields, MOVW/MOVT, ADR and PUSH/POP;
#: :func:`_render_shape` drops a form the ISA does not encode
_SHAPES = (
    st.tuples(st.just("shift_reg"), st.sampled_from(["lsl", "lsr", "asr", "ror"]),
              st.booleans(), REG, REG, SHIFT_BY),
    st.tuples(st.just("carry"), st.sampled_from(["adc", "sbc", "rsb"]),
              st.booleans(), REG, REG, REG, st.none() | OPERAND_SHIFT),
    st.tuples(st.just("shifted"),
              st.sampled_from(["add", "sub", "and", "orr", "eor", "bic",
                               "mov", "mvn", "orn"]),
              st.booleans(), REG, REG, REG, OPERAND_SHIFT),
    st.tuples(st.just("shifted_cmp"), st.sampled_from(["cmp", "cmn", "tst", "teq"]),
              REG, REG, OPERAND_SHIFT),
    st.tuples(st.just("logic2"), st.sampled_from(["mvns", "teq", "orn"]),
              REG, REG, REG),
    st.tuples(st.just("mul_long"),
              st.sampled_from(["mla", "mls", "umull", "smull", "sdiv", "udiv"]),
              REG, REG, REG, REG),
    st.tuples(st.just("bitfield"), st.sampled_from(["bfi", "bfc", "ubfx", "sbfx"]),
              REG, REG, st.integers(min_value=0, max_value=31),
              st.integers(min_value=1, max_value=32)),
    st.tuples(st.just("movw_movt"), st.sampled_from(["movw", "movt"]), REG,
              st.integers(min_value=0, max_value=0xFFFF)),
    st.tuples(st.just("adr"), REG),
    st.tuples(st.just("push_pop"), PUSH_POP),
)


#: what each ISA encodes of the shapes above (16-bit Thumb: two-operand
#: flag-setting forms only; the ARM subset: no Thumb-2 additions)
_THUMB2_ONLY = {"orn", "mls", "sdiv", "udiv", "bitfield", "movw_movt", "adr"}
_THUMB_SHAPES = {"shift_reg", "carry", "mvns", "push_pop"}


#: folds C into r8 at once (an ADC is a barrier: it reads C); no other
#: op writes r8, so the final state holds every carry this observed
_CARRY_INTO_R8 = ["    movs r3, #0", "    adcs r3, r3", "    add r8, r3"]


def _render_shape(op, isa: str) -> list[str]:
    """One shape of ``_SHAPES`` as assembly lines, or none
    when ``isa`` lacks it.

    A register-controlled shift opens with a shift by 0, which passes C
    through: an ADC leaves C clear, a compare sets it, and the shift's
    carry is folded into r8 at once - a shift deferred into the span,
    where the dead-flag pass drops the compare's C write, reads the stale
    one.  The shift by the drawn amount follows, its carry folded in too.
    ADR accumulates its value in r9, which no other op writes."""
    kind, mnem = op[0], op[1]
    if isa != ISA_THUMB2 and (kind in _THUMB2_ONLY or mnem in _THUMB2_ONLY):
        return []
    if isa == ISA_THUMB and kind not in _THUMB_SHAPES and mnem not in _THUMB_SHAPES:
        return []
    if kind == "shift_reg":
        _, mnem, flags, rd, rn, amount = op
        if isa == ISA_THUMB:
            by_zero = drawn = f"{mnem}s r{rd}, r3"
        else:
            by_zero = f"{mnem}s r{rd}, r{rn}, r3"
            drawn = f"{mnem}{'s' if flags else ''} r{rd}, r{rn}, r3"
        return ["    movs r3, #0", "    adcs r3, r3", "    movs r3, #0",
                "    cmp r3, r3", f"    {by_zero}", *_CARRY_INTO_R8,
                f"    movs r3, #{amount}", f"    {drawn}", *_CARRY_INTO_R8]
    if kind == "carry":
        _, mnem, flags, rd, rn, rm, shift = op
        if isa == ISA_THUMB:
            if mnem == "rsb":
                return [f"    rsbs r{rd}, r{rn}, #0"]
            return [f"    {mnem}s r{rd}, r{rm}"]
        operand = f", {shift[0]} #{shift[1]}" if shift else ""
        return [f"    {mnem}{'s' if flags else ''} r{rd}, r{rn}, r{rm}{operand}"]
    if kind == "shifted":
        _, mnem, flags, rd, rn, rm, (shift, amount) = op
        sources = f"r{rm}" if mnem in ("mov", "mvn") else f"r{rn}, r{rm}"
        return [f"    {mnem}{'s' if flags else ''} r{rd}, {sources}, {shift} #{amount}"]
    if kind == "shifted_cmp":
        _, mnem, rn, rm, (shift, amount) = op
        return [f"    {mnem} r{rn}, r{rm}, {shift} #{amount}"]
    if kind == "logic2":
        _, mnem, rd, rn, rm = op
        operands = {"mvns": f"r{rd}, r{rm}", "teq": f"r{rn}, r{rm}",
                    "orn": f"r{rd}, r{rn}, r{rm}"}[mnem]
        return [f"    {mnem} {operands}"]
    if kind == "mul_long":
        _, mnem, rd, ra, rn, rm = op
        if mnem in ("sdiv", "udiv"):
            return [f"    {mnem} r{rd}, r{rn}, r{rm}"]
        if mnem in ("umull", "smull") and ra == rd:
            ra = rd % 7 + 1  # distinct low and high halves
        return [f"    {mnem} r{rd}, r{ra}, r{rn}, r{rm}"]
    if kind == "bitfield":
        _, mnem, rd, rn, lsb, width = op
        width = min(width, 32 - lsb)
        source = "" if mnem == "bfc" else f"r{rn}, "
        return [f"    {mnem} r{rd}, {source}#{lsb}, #{width}"]
    if kind == "movw_movt":
        _, mnem, rd, imm = op
        return [f"    {mnem} r{rd}, #{imm}"]
    if kind == "adr":
        return [f"    adr r{op[1]}, main", f"    add r9, r{op[1]}"]
    pushed, popped = op[1]  # push_pop
    return [f"    push {{{', '.join(f'r{r}' for r in sorted(pushed))}}}",
            f"    pop {{{', '.join(f'r{r}' for r in sorted(popped))}}}"]


def _render_predicated(op, isa: str) -> str:
    """One predicated op: its condition suffix in the ARM ISA only."""
    kind = op[0]
    cond = op[2] if isa == ISA_ARM else ""
    if kind == "pred_alu":
        _, mnem, _, rd, rn, rm = op
        if isa != ISA_ARM and not mnem.endswith("s"):
            mnem += "s"  # 16-bit Thumb has only the flag-setting forms
        return f"    {mnem}{cond} r{rd}, r{rn}, r{rm}"
    _, mnem, _, rd, word = op
    return f"    {mnem}{cond} r{rd}, [r0, #{word * 4}]"


_OPS = st.one_of(
    st.tuples(st.just("alu3"),
              st.sampled_from(["adds", "subs", "ands", "orrs", "eors", "bics"]),
              REG, REG, REG),
    st.tuples(st.just("alu_imm"),
              st.sampled_from(["adds", "subs"]), REG, REG, IMM8),
    st.tuples(st.just("mov_imm"), st.just("movs"), REG, IMM8),
    st.tuples(st.just("shift"),
              st.sampled_from(["lsls", "lsrs", "asrs"]), REG, REG, SHIFT),
    st.tuples(st.just("mul"), st.just("mul"), REG, REG, REG),
    st.tuples(st.just("unary"),
              st.sampled_from(["clz", "rev", "rev16", "uxtb", "uxth",
                               "sxtb", "sxth", "rbit"]), REG, REG),
    st.tuples(st.just("cmp_reg"), st.sampled_from(["cmp", "cmn", "tst"]),
              REG, REG),
    st.tuples(st.just("cmp_imm"), st.just("cmp"), REG, IMM8),
    st.tuples(st.just("store"), st.sampled_from(["str", "strb", "strh"]),
              REG, WOFF),
    st.tuples(st.just("load"),
              st.sampled_from(["ldr", "ldrb", "ldrh", "ldrsb", "ldrsh"]),
              REG, WOFF),
    st.tuples(st.just("skip"),
              st.sampled_from(["beq", "bne", "bcs", "bcc", "bge", "blt",
                               "bgt", "ble", "bmi", "bpl"]),
              st.sampled_from(["adds", "subs", "eors"]), REG, REG, REG),
    # block transfers (inline in fused code), +/- base write-back
    st.tuples(st.just("block"), st.sampled_from(["ldm", "stm"]),
              REGLIST, st.booleans()),
    # pre-/post-indexed addressing (the reference handler in fused code)
    st.tuples(st.just("ldr_wb"),
              st.sampled_from(["ldr", "ldrb", "ldrh", "ldrsb", "ldrsh"]),
              REG, WOFF, st.booleans()),
    st.tuples(st.just("str_wb"), st.sampled_from(["str", "strb", "strh"]),
              REG, WOFF, st.booleans()),
    *_predicated_ops(WOFF),
)


def render(ops: list[tuple], isa: str = ISA_ARM) -> str:
    lines = ["main:", "    push {r4, r5, r6, r7}"]
    for index, op in enumerate(ops):
        kind = op[0]
        if kind == "alu3":
            _, mnem, rd, rn, rm = op
            lines.append(f"    {mnem} r{rd}, r{rn}, r{rm}")
        elif kind == "alu_imm":
            _, mnem, rd, rn, imm = op
            lines.append(f"    {mnem} r{rd}, r{rn}, #{imm}")
        elif kind == "mov_imm":
            _, mnem, rd, imm = op
            lines.append(f"    {mnem} r{rd}, #{imm}")
        elif kind == "shift":
            _, mnem, rd, rn, amount = op
            lines.append(f"    {mnem} r{rd}, r{rn}, #{amount}")
        elif kind == "mul":
            _, mnem, rd, rn, rm = op
            lines.append(f"    {mnem} r{rd}, r{rn}, r{rm}")
        elif kind == "unary":
            _, mnem, rd, rm = op
            lines.append(f"    {mnem} r{rd}, r{rm}")
        elif kind in ("cmp_reg",):
            _, mnem, rn, rm = op
            lines.append(f"    {mnem} r{rn}, r{rm}")
        elif kind == "cmp_imm":
            _, mnem, rn, imm = op
            lines.append(f"    {mnem} r{rn}, #{imm}")
        elif kind == "store":
            _, mnem, rd, word = op
            lines.append(f"    {mnem} r{rd}, [r0, #{word * 4}]")
        elif kind == "load":
            _, mnem, rd, word = op
            lines.append(f"    {mnem} r{rd}, [r0, #{word * 4}]")
        elif kind == "skip":
            _, branch, mnem, rd, rn, rm = op
            lines.append(f"    {branch} skip_{index}")
            lines.append(f"    {mnem} r{rd}, r{rn}, r{rm}")
            lines.append(f"skip_{index}:")
        elif kind == "block":
            _, mnem, regs, writeback = op
            reglist = ", ".join(f"r{r}" for r in sorted(regs))
            lines.append("    mov r3, r0")
            wb = "!" if writeback else ""
            lines.append(f"    {mnem} r3{wb}, {{{reglist}}}")
        elif kind in ("ldr_wb", "str_wb"):
            _, mnem, rd, word, post = op
            lines.append("    mov r3, r0")
            if post:
                lines.append(f"    {mnem} r{rd}, [r3], #{word * 4}")
            else:
                lines.append(f"    {mnem} r{rd}, [r3, #{word * 4}]!")
        elif kind in ("pred_alu", "pred_mem"):
            lines.append(_render_predicated(op, isa))
        else:
            lines += _render_shape(op, isa)
    lines.append("    pop {r4, r5, r6, r7}")
    lines.append("    bx lr")
    return "\n".join(lines)


#: one of every chainable shape, with random operands, shuffled among a
#: few random ops
SHAPE_PROGRAMS = st.tuples(st.tuples(*_SHAPES),
                           st.lists(_OPS, max_size=6)).flatmap(
    lambda drawn: st.permutations([*drawn[0], *drawn[1]]))


@given(st.lists(_OPS, min_size=1, max_size=24),
       st.tuples(IMM8, IMM8, IMM8))
@settings(max_examples=40, deadline=None)
def test_random_programs_bit_identical(ops, args):
    """Random straight-line programs with predicated skips and predicated
    ops: every ISA/core pair must produce identical state on both
    execution paths.  Each program is called ``FUSE_THRESHOLD + 1`` times
    on one machine, so its blocks fuse and the last call runs fused."""
    r1, r2, r3 = args
    for isa, core in RANDOM_CONFIGS:
        source = render(ops, isa)
        try:
            assemble(source, isa, base=FLASH_BASE)
        except (AssemblyError, EncodingError):
            continue  # e.g. a wide-only op in 16-bit Thumb: not this test's concern
        assert_equivalent(isa, source, args=(SRAM_BASE, r1, r2, r3), core=core,
                          calls=FUSE_THRESHOLD + 1)


@given(SHAPE_PROGRAMS, st.tuples(IMM8, IMM8, IMM8))
@settings(max_examples=25, deadline=None)
def test_random_programs_reach_every_chainable_shape(ops, args):
    """Every program holds each shape of ``_SHAPES`` once -
    those fused code writes out inline (register shifts, PUSH/POP, ADR,
    MOVW/MOVT, most shifted operands) and those it runs through the
    reference handler (the carry ops, the long multiplies and dividers,
    most bitfields) - so each runs inside fused code on every core whose
    ISA encodes it, and leaves the reference's state there."""
    r1, r2, r3 = args
    for isa, core in RANDOM_CONFIGS:
        source = render(ops, isa)
        try:
            assemble(source, isa, base=FLASH_BASE)
        except (AssemblyError, EncodingError):
            continue  # a random op the ISA lacks: not this test's concern
        assert_equivalent(isa, source, args=(SRAM_BASE, r1, r2, r3), core=core,
                          calls=FUSE_THRESHOLD + 1)


# ----------------------------------------------------------------------
# loopy control flow: back-edges, loop-carried flags, IT inside loops
# ----------------------------------------------------------------------

#: body ops for loop programs keep scratch word 14 (the trip counter at
#: [r0, #56]) out of reach so the loop always terminates
WOFF_LOOP = st.integers(min_value=0, max_value=12)

_LOOP_OPS = st.one_of(
    st.tuples(st.just("alu3"),
              st.sampled_from(["adds", "subs", "ands", "orrs", "eors", "bics"]),
              REG, REG, REG),
    st.tuples(st.just("alu_imm"),
              st.sampled_from(["adds", "subs"]), REG, REG, IMM8),
    st.tuples(st.just("mov_imm"), st.just("movs"), REG, IMM8),
    st.tuples(st.just("shift"),
              st.sampled_from(["lsls", "lsrs", "asrs"]), REG, REG, SHIFT),
    st.tuples(st.just("mul"), st.just("mul"), REG, REG, REG),
    st.tuples(st.just("cmp_reg"), st.sampled_from(["cmp", "cmn", "tst"]),
              REG, REG),
    st.tuples(st.just("store"), st.sampled_from(["str", "strb", "strh"]),
              REG, WOFF_LOOP),
    st.tuples(st.just("load"),
              st.sampled_from(["ldr", "ldrb", "ldrh", "ldrsb", "ldrsh"]),
              REG, WOFF_LOOP),
    st.tuples(st.just("skip"),
              st.sampled_from(["beq", "bne", "bcs", "bcc", "bge", "blt",
                               "bgt", "ble", "bmi", "bpl"]),
              st.sampled_from(["adds", "subs", "eors"]), REG, REG, REG),
    # an IT block inside the loop (thumb2 only; other ISAs skip via the
    # assembly try/except) - predication forces the engines' step() path
    st.tuples(st.just("it"), st.sampled_from(["eq", "ne", "ge", "lt"]),
              REG, REG, REG),
    # a while-shaped inner loop: the exit test at its head, an
    # unconditional back-edge (the shape of bitmnp's bit scan on ARMv4T)
    st.tuples(st.just("while"), st.integers(min_value=0, max_value=5), REG,
              st.sampled_from(["adds", "subs"]), REG, REG, REG),
    # a switch written as a compare chain into cases that branch to one
    # join (the shape of puwmod's mode switch in 16-bit Thumb)
    st.tuples(st.just("switch"), REG, REG, REG, REG, REG, REG, REG),
    *_predicated_ops(WOFF_LOOP),
)


def render_loop(ops: list[tuple], trips: int, isa: str = ISA_ARM) -> str:
    """A counted loop whose body is the generated ops: the trip counter
    lives in scratch memory (word 14) so arbitrary body ops cannot
    clobber it, and the back-edge flags are loop-carried state the trace
    engine's guard must revalidate every iteration.  Skips, inner while
    loops and switches make the loop's fused region a multi-member one,
    whose members hand over through a branch arm to a constant member or
    a fall-through into a member head; after an IT block's ``IT`` (an
    opaque ender) the transition reads the pc it left and must return
    to the engine, which steps the predicated instructions."""
    lines = ["main:", "    push {r4, r5, r6, r7}",
             f"    movs r1, #{trips}",
             "    str r1, [r0, #56]",
             "loop:"]
    for index, op in enumerate(ops):
        kind = op[0]
        if kind == "alu3":
            _, mnem, rd, rn, rm = op
            lines.append(f"    {mnem} r{rd}, r{rn}, r{rm}")
        elif kind == "alu_imm":
            _, mnem, rd, rn, imm = op
            lines.append(f"    {mnem} r{rd}, r{rn}, #{imm}")
        elif kind == "mov_imm":
            _, mnem, rd, imm = op
            lines.append(f"    {mnem} r{rd}, #{imm}")
        elif kind == "shift":
            _, mnem, rd, rn, amount = op
            lines.append(f"    {mnem} r{rd}, r{rn}, #{amount}")
        elif kind == "mul":
            _, mnem, rd, rn, rm = op
            lines.append(f"    {mnem} r{rd}, r{rn}, r{rm}")
        elif kind == "cmp_reg":
            _, mnem, rn, rm = op
            lines.append(f"    {mnem} r{rn}, r{rm}")
        elif kind in ("store", "load"):
            _, mnem, rd, word = op
            lines.append(f"    {mnem} r{rd}, [r0, #{word * 4}]")
        elif kind == "skip":
            _, branch, mnem, rd, rn, rm = op
            lines.append(f"    {branch} lskip_{index}")
            lines.append(f"    {mnem} r{rd}, r{rn}, r{rm}")
            lines.append(f"lskip_{index}:")
        elif kind == "it":
            _, cond, rn, rm, rd = op
            from repro.isa import Condition

            inverse = Condition.parse(cond).inverse.name.lower()
            lines.append(f"    cmp r{rn}, r{rm}")
            lines.append(f"    ite {cond}")
            lines.append(f"    add{cond} r{rd}, r{rd}, #1")
            lines.append(f"    add{inverse} r{rd}, r{rd}, #3")
        elif kind == "while":
            _, count, rc, mnem, rd, rn, rm = op
            if rd == rc:
                rd = rc % 7 + 1  # the body must not write the counter
            lines += [f"    movs r{rc}, #{count}",
                      f"wloop_{index}:",
                      f"    cmp r{rc}, #0",
                      f"    beq wdone_{index}",
                      f"    {mnem} r{rd}, r{rn}, r{rm}",
                      f"    subs r{rc}, r{rc}, #1",
                      f"    b wloop_{index}",
                      f"wdone_{index}:"]
        elif kind == "switch":
            _, rs, rsrc, d0, d1, n1, d2, n2 = op
            lines += [f"    movs r{rs}, #3",
                      f"    ands r{rs}, r{rs}, r{rsrc}",
                      f"    cmp r{rs}, #0",
                      f"    beq case0_{index}",
                      f"    cmp r{rs}, #1",
                      f"    beq case1_{index}",
                      f"    adds r{d2}, r{n2}, r{rs}",
                      f"    b join_{index}",
                      f"case0_{index}:",
                      f"    adds r{d0}, r{d0}, #1",
                      f"    b join_{index}",
                      f"case1_{index}:",
                      f"    subs r{d1}, r{n1}, r{rs}",
                      f"join_{index}:"]
        elif kind in ("pred_alu", "pred_mem"):
            lines.append(_render_predicated(op, isa))
    lines += [
        "    ldr r1, [r0, #56]",
        "    subs r1, r1, #1",
        "    str r1, [r0, #56]",
        "    bne loop",
        "    pop {r4, r5, r6, r7}",
        "    bx lr",
    ]
    return "\n".join(lines)


#: loop trip counts: mostly past ``FUSE_THRESHOLD`` (a loop's blocks fuse
#: on trip 16 and fused code runs from trip 17), some below it
TRIPS = st.one_of(st.integers(min_value=FUSE_THRESHOLD + 1, max_value=64),
                  st.integers(min_value=1, max_value=FUSE_THRESHOLD))


@given(st.lists(_LOOP_OPS, min_size=1, max_size=12), TRIPS,
       st.tuples(IMM8, IMM8, IMM8))
@settings(max_examples=40, deadline=None)
def test_random_loop_programs_bit_identical(ops, trips, args):
    """Random counted loops - the trace engine fuses each into one loop
    region, whose members hand over inside the generated function - must
    leave identical machine state on every core and engine, for every
    loop body shape and trip count."""
    r1, r2, r3 = args
    for isa, core in RANDOM_CONFIGS:
        source = render_loop(ops, trips, isa)
        try:
            assemble(source, isa, base=FLASH_BASE)
        except (AssemblyError, EncodingError):
            continue  # e.g. IT blocks outside Thumb-2: not this test's concern
        assert_equivalent(isa, source, args=(SRAM_BASE, r1, r2, r3), core=core)


def _loop_enders(program, members: bool) -> set[int]:
    """The addresses of the ``loop`` label's back-edge branch or, with
    ``members``, of every branch (a table branch too) from the loop head
    to the back-edge: the enders of the members of the loop's fused
    region (and the gotos a member's trace runs through)."""
    head = program.symbols["loop"]
    backedge = max(address for address, ins in program._by_address.items()
                   if ins.mnemonic == "B" and ins.target == head)
    if not members:
        return {backedge}
    return {address for address, ins in program._by_address.items()
            if head <= address <= backedge and ins.mnemonic in ("B", "TBB")}


def _ender_storm(isa: str, source: str, core: str, members: bool,
                 stride: int, offset: int, count: int,
                 priorities: bool) -> list[int]:
    """The assert cycles of an IRQ storm recorded on the reference
    interpreter running ``main``: past a warm-up of about 20 loop
    iterations (25 visits of a back-edge, 120 of a branchy loop's enders;
    the trace engine has fused the loop by then), every ``stride``-th
    time it sits at one of the loop's enders (:func:`_loop_enders`), about
    to run it, one IRQ asserts ``offset - 1`` cycles from there - up to
    ``count`` of them, IRQ ``n`` at priority ``n % 3`` when
    ``priorities``.  Raised on the same core before the run, the storm
    replays that timeline, so with ``offset`` 1 every IRQ asserts exactly
    as its ender is about to execute, once the earlier ones were taken."""
    machine = _build_machine(isa, source, core=core)
    cpu = machine.cpu
    cpu.fastpath = False
    controller = cpu.nvic if hasattr(cpu, "nvic") else cpu.vic
    handler = cpu.program.symbols["handler"]
    enders = _loop_enders(cpu.program, members)
    warm = 120 if members else 25
    cpu.regs.lr = HALT_ADDRESS
    cpu.regs.pc = cpu.program.symbols["main"]
    asserts, visits = [], 0
    while not cpu.halted:
        assert cpu.instructions_executed < 100_000, "main never returned"
        if cpu.regs.pc in enders and len(asserts) < count:
            if visits >= warm and (visits - warm) % stride == 0:
                asserts.append(cpu.cycles + offset - 1)
                number = len(asserts)
                extra = {"priority": number % 3} if priorities else {}
                controller.raise_irq(number, handler=handler,
                                     at_cycle=asserts[-1], **extra)
            visits += 1
        cpu.step()
    return asserts


def _storm_states(isa: str, source: str, core: str, asserts: list[int],
                  priorities: bool) -> list[dict]:
    """Each engine's final state after ``main`` under the storm
    ``asserts`` (IRQ ``n`` at ``asserts[n - 1]``, at priority ``n % 3``
    when ``priorities``), with the controller's delivery records."""
    states = []
    for _, fastpath in ENGINES:
        machine = _build_machine(isa, source, core=core, trace=True)
        cpu = machine.cpu
        cpu.fastpath = fastpath
        controller = cpu.nvic if hasattr(cpu, "nvic") else cpu.vic
        handler = cpu.program.symbols["handler"]
        for number, cycle in enumerate(asserts, start=1):
            extra = {"priority": number % 3} if priorities else {}
            controller.raise_irq(number, handler=handler, at_cycle=cycle,
                                 **extra)
        machine.call("main")
        state = _state(machine)
        state["irq_records"] = [
            (r.number, r.assert_cycle, r.entry_cycle, r.exit_cycle,
             getattr(r, "tail_chained", None))
            for r in controller.stats.records
        ]
        states.append(state)
    return states


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2))
@settings(max_examples=20, deadline=None)
def test_irq_storms_exactly_on_backedge_cycles(stride, offset):
    """IRQ storms whose assert cycles land *exactly* on the cycles at
    which a fused loop's back-edge - and, in a loop with a switch (a
    compare chain, or a table branch) and an inner while loop, each member
    ender of its region - is about to execute (and one cycle around them)
    must be taken at the same
    instruction boundary with identical latency records on every engine:
    the region has to return from its generated function, or not enter
    the next member, at precisely those points."""
    for source, members in ((STRAIGHTLINE_LOOP_SOURCE, False),
                            (BRANCHY_LOOP_SOURCE, True),
                            (TBB_LOOP_SOURCE, True)):
        asserts = _ender_storm(ISA_THUMB2, source, "", members, stride,
                               offset, 12, True)
        assert len(asserts) == 12
        states = _storm_states(ISA_THUMB2, source, "", asserts, True)
        assert states[0] == states[1], (members, stride, offset)
        assert len(states[0]["irq_records"]) == 12


def test_vic_irqs_on_backedge_cycles_bit_identical():
    """The same ender-exact storms on the VIC cores (ARM7 and the
    cached-fetch ARM1156), whose handlers carry the software preamble:
    on the back-edge of a single-block loop, and on every member ender of
    a branchy loop's region.  The handler sets flags and lands between a
    compare and its branch; the core banks the flags on entry and
    restores them on return, so the stormed loop computes its IRQ-free
    result."""
    for isa, core in ((ISA_THUMB, ""), (ISA_THUMB2, "arm1156")):
        for source, members in ((VIC_LOOP_SOURCE, False),
                                (BRANCHY_VIC_LOOP_SOURCE, True)):
            quiet = _build_machine(isa, source, core=core).call("main")
            asserts = _ender_storm(isa, source, core, members, 4, 1, 8, False)
            assert len(asserts) == 8
            states = _storm_states(isa, source, core, asserts, False)
            assert states[0] == states[1], (isa, core, members)
            assert len(states[0]["irq_records"]) == 8
            assert states[0]["regs"][0] == quiet, (isa, core, members)


@pytest.mark.parametrize("isa,core", [(ISA_THUMB, ""), (ISA_THUMB2, ""),
                                      (ISA_THUMB2, "arm1156")],
                         ids=["arm7-thumb", "m3", "arm1156"])
def test_instruction_budget_runs_out_inside_a_region(isa, core):
    """A run whose instruction budget runs out inside a fused loop region
    - at each of 24 consecutive budgets, so inside members and at
    transitions alike - raises at the reference's instruction count and
    leaves the reference's state: a transition enters a member only when
    the whole member fits the budget, and the engine runs the allowed
    prefix of the member it would not enter."""
    from repro.core.exceptions import ExecutionError

    for budget in range(900, 924):
        states = []
        for _, fastpath in ENGINES:
            machine = _build_machine(isa, BRANCHY_LOOP, core=core)
            machine.cpu.fastpath = fastpath
            with pytest.raises(ExecutionError, match="exceeded"):
                machine.call("main", max_instructions=budget)
            if fastpath:
                assert machine.cpu._sb_regions, "the loop never fused"
            states.append(_state(machine))
        assert states[0] == states[1], budget
        assert states[0]["executed"] == budget


# The software-preamble handler restores its scratch registers with a
# plain (restart-safe) pop and returns via bx lr: a pop-to-PC interrupt
# return could itself be abandoned mid-transfer on the ARM1156 after its
# return-unwind side effects, which real handlers avoid for this reason.
VIC_HANDLER = """
handler:
    push {r1, r2}
    ldr r1, =0x20000030
    ldr r2, [r1]
    adds r2, r2, #1
    str r2, [r1]
    pop {r1, r2}
    bx lr
"""

VIC_LOOP_SOURCE = """
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
""" + VIC_HANDLER

#: a loop whose region has many members: a switch written as a compare
#: chain into cases that branch to one join, then a while-shaped inner
#: loop (exit test at its head, unconditional back-edge) of 0 to 3 trips
BRANCHY_LOOP = """
main:
    movs r0, #0
    movs r2, #0
loop:
    adds r2, r2, #3
    movs r3, #3
    ands r3, r3, r0
    cmp r3, #0
    beq case0
    cmp r3, #1
    beq case1
    eors r2, r2, r0
    b join
case0:
    adds r2, r2, #7
    b join
case1:
    lsls r4, r2, #1
    adds r2, r2, r4
join:
    movs r4, r3
scan:
    cmp r4, #0
    beq done
    adds r2, r2, #1
    subs r4, r4, #1
    b scan
done:
    adds r0, r0, #1
    cmp r0, #80
    bne loop
    mov r0, r2
    bx lr
"""

BRANCHY_VIC_LOOP_SOURCE = BRANCHY_LOOP + VIC_HANDLER


_IT_CONDS = ["eq", "ne", "cs", "cc", "ge", "lt", "gt", "le"]


@given(st.sampled_from(_IT_CONDS),
       st.sampled_from(["", "t", "e", "tt", "te", "et", "ee"]),
       st.tuples(IMM8, IMM8))
@settings(max_examples=30, deadline=None)
def test_it_blocks_bit_identical(cond, mask, args):
    """IT-predicated sequences force the fast loop's slow-path fallback;
    results must still be bit-identical."""
    from repro.isa import Condition

    first = Condition.parse(cond)
    inverse = first.inverse.name.lower()
    body = []
    for ch in mask:
        chosen = cond if ch == "t" else inverse
        body.append(f"    add{chosen} r4, r4, #1")
    source = "\n".join([
        "main:",
        "    movs r4, #0",
        "    cmp r1, r2",
        f"    it{mask} {cond}",
        f"    add{cond} r4, r4, #7",
        *body,
        "    mov r0, r4",
        "    bx lr",
    ])
    assert_equivalent(ISA_THUMB2, source, args=(0, args[0], args[1]))


# ----------------------------------------------------------------------
# curated equivalence cases
# ----------------------------------------------------------------------

#: every core configuration the kernels run on: the Table 1 three and
#: the ARM1156 (the ``engine`` benchmark's four)
KERNEL_CONFIGS = (*((core, isa) for _, core, isa in TABLE1_CONFIGS),
                  ("arm1156", ISA_THUMB2))


def test_autoindy_suite_bit_identical():
    """Every kernel on every core configuration: the trace engine leaves
    the reference's full machine state - registers, flags, counters, bus
    statistics, caches, scratch memory and the kernel's whole input image
    in SRAM - and both verify against the kernel's reference answer."""
    for core, isa in KERNEL_CONFIGS:
        for workload in AUTOINDY_SUITE:
            program = compiled_kernel(workload, isa)
            states = []
            for _, fastpath in ENGINES:
                outcome = run_compiled(core, program, workload, seed=7,
                                       scale=2, fastpath=fastpath)
                assert outcome.result == outcome.expected
                state = _state(outcome.machine)
                state["image"] = bytes(
                    outcome.machine.sram.data[:len(outcome.data)])
                states.append(state)
            assert states[0] == states[1], (core, isa, workload.name)


INTERRUPT_SOURCE = """
main:
    movs r0, #0
loop:
    adds r0, r0, #1
    cmp r0, #400
    bne loop
    bx lr
handler:
    ldr r1, =0x20000100
    ldr r2, [r1]
    adds r2, r2, #1
    str r2, [r1]
    bx lr
"""


def test_m3_interrupt_storm_bit_identical():
    """NVIC stacking, tail-chaining, and EXC_RETURN through the fast loop."""
    states = []
    for _, fastpath in ENGINES:
        machine = _build_machine(ISA_THUMB2, INTERRUPT_SOURCE, trace=True)
        machine.cpu.fastpath = fastpath
        handler = machine.cpu.program.symbols["handler"]
        for number, cycle in ((1, 60), (2, 60), (3, 200), (4, 205)):
            machine.cpu.nvic.raise_irq(number, handler=handler,
                                       at_cycle=cycle, priority=number)
        assert machine.call("main") == 400
        state = _state(machine)
        state["irq_records"] = [
            (r.number, r.assert_cycle, r.entry_cycle, r.exit_cycle, r.tail_chained)
            for r in machine.cpu.nvic.stats.records
        ]
        states.append(state)
    assert all(state == states[0] for state in states)
    assert states[0]["irq_records"], "storm never delivered"


@given(st.lists(st.integers(min_value=10, max_value=3000), min_size=1,
                max_size=12))
@settings(max_examples=25, deadline=None)
def test_irq_asserts_land_mid_superblock(cycles):
    """IRQs asserting at arbitrary cycles - including in the middle of a
    straight-line run the trace engine would otherwise chain through -
    must be taken at exactly the same instruction boundary on every
    engine (the event-horizon guarantee)."""
    states = []
    for _, fastpath in ENGINES:
        machine = _build_machine(ISA_THUMB2, STRAIGHTLINE_LOOP_SOURCE,
                                 trace=True)
        machine.cpu.fastpath = fastpath
        handler = machine.cpu.program.symbols["handler"]
        for number, cycle in enumerate(cycles, start=1):
            machine.cpu.nvic.raise_irq(number, handler=handler,
                                       at_cycle=cycle,
                                       priority=number % 3)
        machine.call("main")
        state = _state(machine)
        state["irq_records"] = [
            (r.number, r.assert_cycle, r.entry_cycle, r.exit_cycle,
             r.tail_chained)
            for r in machine.cpu.nvic.stats.records
        ]
        states.append(state)
    assert all(state == states[0] for state in states)


M3_HANDLER = """
handler:
    ldr r1, =0x20000100
    ldr r2, [r1]
    adds r2, r2, #1
    str r2, [r1]
    bx lr
"""

BRANCHY_LOOP_SOURCE = BRANCHY_LOOP + M3_HANDLER

#: a loop whose switch is the table branch: ``TBB`` runs inline, but the
#: pc it leaves comes from a table entry read at run time (through
#: ``cpu.branch``), so the region enters each case through a dynamic
#: transition; a dead ``b join`` after the table makes the first case a
#: member head like the others
TBB_LOOP_SOURCE = """
main:
    movs r0, #0
    movs r2, #0
loop:
    adds r2, r2, #3
    movs r3, #3
    ands r3, r3, r0
    tbb [pc, r3]
    .byte 3, 5, 7, 9
    b join
    adds r2, r2, #7
    b join
    adds r2, r2, #1
    b join
    eors r2, r2, r0
    b join
    subs r2, r2, #2
join:
    adds r0, r0, #1
    cmp r0, #80
    bne loop
    mov r0, r2
    bx lr
""" + M3_HANDLER

STRAIGHTLINE_LOOP_SOURCE = """
main:
    movs r0, #0
    movs r2, #0
loop:
    adds r2, r2, #3
    eors r2, r2, r0
    adds r2, r2, #5
    lsls r4, r2, #1
    lsrs r5, r2, #1
    adds r4, r4, r5
    subs r4, r4, #1
    adds r0, r0, #1
    cmp r0, #120
    bne loop
    mov r0, r2
    bx lr
handler:
    ldr r1, =0x20000100
    ldr r2, [r1]
    adds r2, r2, #1
    str r2, [r1]
    bx lr
"""


def test_arm7_interrupts_bit_identical():
    states = []
    for _, fastpath in ENGINES:
        machine = _build_machine(ISA_THUMB, ARM7_IRQ_SOURCE, trace=True)
        machine.cpu.fastpath = fastpath
        handler = machine.cpu.program.symbols["handler"]
        machine.cpu.vic.raise_irq(1, handler=handler, at_cycle=80)
        machine.cpu.vic.raise_irq(2, handler=handler, at_cycle=90, priority=1)
        assert machine.call("main") == 200
        states.append(_state(machine))
    assert all(state == states[0] for state in states)


ARM7_IRQ_SOURCE = """
main:
    movs r0, #0
loop:
    adds r0, r0, #1
    cmp r0, #200
    bne loop
    bx lr
handler:
    push {r1, r2, lr}
    ldr r1, =0x20000100
    ldr r2, [r1]
    adds r2, r2, #1
    str r2, [r1]
    pop {r1, r2, pc}
"""


WFI_SOURCE = """
main:
    movs r0, #0
    wfi
    adds r0, r0, #1
    bx lr
handler:
    bx lr
"""


def test_wfi_wakeup_bit_identical():
    """Sleep ticks take the reference path inside run(); the wake-up and
    subsequent fast dispatch must agree with pure slow-path execution."""
    states = []
    for _, fastpath in ENGINES:
        machine = _build_machine(ISA_THUMB2, WFI_SOURCE)
        machine.cpu.fastpath = fastpath
        handler = machine.cpu.program.symbols["handler"]
        machine.cpu.nvic.raise_irq(1, handler=handler, at_cycle=40)
        assert machine.call("main") == 1
        states.append(_state(machine))
    assert all(state == states[0] for state in states)


LDM_SOURCE = """
main:
    ldr r0, =0x20000000
    movs r5, #0
    movs r6, #12
outer:
    ldm r0, {r1, r2, r3, r4}
    adds r5, r5, r1
    adds r5, r5, r2
    adds r5, r5, r3
    adds r5, r5, r4
    subs r6, r6, #1
    bne outer
    mov r0, r5
    bx lr
handler:
    bx lr
"""


def test_arm1156_restartable_ldm_bit_identical():
    """With IRQs pending, 1156 block transfers must take the reference
    _step_restartable path so abandoned-transfer timing is modelled
    identically - while every other instruction stays on the fast path
    (the event horizon replaces the old defer-everything rule).  A
    far-future IRQ left in the queue exercises exactly that split."""
    states = []
    for _, fastpath in ENGINES:
        machine = _build_machine(ISA_THUMB2, LDM_SOURCE, core="arm1156")
        machine.cpu.fastpath = fastpath
        machine.load_data(SRAM_BASE, bytes(range(16)))
        handler = machine.cpu.program.symbols["handler"]
        machine.cpu.vic.raise_irq(1, handler=handler, at_cycle=70)
        machine.cpu.vic.raise_irq(2, handler=handler, at_cycle=260)
        # never delivered: keeps the queue non-empty for the whole run
        machine.cpu.vic.raise_irq(3, handler=handler, at_cycle=10_000_000)
        machine.call("main")
        state = _state(machine)
        state["abandoned"] = machine.cpu.abandoned_transfers
        states.append(state)
    assert all(state == states[0] for state in states)


def test_kernel_and_isr_in_one_program_match_across_engines():
    """A kernel and its ISR assembled as one program (the way
    engine_ecu.py links its crank handler): an IRQ entering the handler
    mid-loop leaves identical machine state under both engines."""
    program = assemble(
        """
        main:
            movs r0, #0
        loop:
            adds r0, r0, #1
            cmp r0, #100
            bne loop
            bx lr
        crank_isr:
            ldr r1, =0x20000180
            ldr r2, [r1]
            adds r2, r2, #1
            str r2, [r1]
            bx lr
        """,
        ISA_THUMB2, base=FLASH_BASE,
    )
    states = []
    for _, fastpath in ENGINES:
        machine = build_cortexm3(program)
        machine.cpu.fastpath = fastpath
        machine.cpu.nvic.raise_irq(1, handler=program.symbols["crank_isr"],
                                   at_cycle=30)
        assert machine.call("main") == 100
        assert machine.cpu.nvic.stats.serviced == 1
        states.append(_state(machine))
    assert all(state == states[0] for state in states)


def test_compile_cycles_agrees_with_instruction_cycles_everywhere():
    """Anti-drift guard: the prebound cycle closures must equal the
    reference instruction_cycles for every mnemonic and outcome shape, on
    every core.  Both are derived from one per-core cycle model; a change
    to one derivation only fails here before any program-level test has to
    stumble on it."""
    from itertools import product

    from repro.isa import Outcome, Shift, instr
    from repro.isa.instructions import ALL_MNEMONICS

    program = assemble("main:\n    bx lr\n", ISA_THUMB2, base=FLASH_BASE)
    cores = [build_cortexm3(program).cpu,
             build_arm1156(program).cpu,
             build_arm7(assemble("main:\n    bx lr\n", ISA_THUMB,
                                 base=FLASH_BASE)).cpu]
    outcomes = []
    for taken, skipped, regs_t, div_bits in product(
            (False, True), (False, True), (0, 1, 3, 8), (1, 7, 17, 32)):
        outcomes.append(Outcome(taken=taken, skipped=skipped,
                                regs_transferred=regs_t,
                                div_early_exit=div_bits))
    for mnemonic in sorted(ALL_MNEMONICS):
        variants = [instr(mnemonic), instr(mnemonic, reglist=(0, 1, 2)),
                    instr(mnemonic, rm=1), instr(mnemonic, rm=1, shift=Shift("LSL", 2))]
        for cpu, ins, outcome in product(cores, variants, outcomes):
            if (mnemonic in ("LDM", "STM", "PUSH", "POP")
                    and outcome.regs_transferred != len(ins.reglist)):
                continue  # unreachable: the handler always sets rt=len(reglist)
            fast = cpu.compile_cycles(ins)
            assert fast is not None, (cpu.name, ins.mnemonic)
            assert fast(outcome) == cpu.instruction_cycles(ins, outcome), (
                cpu.name, ins.mnemonic, outcome)


RECORDED_SOURCE = """
main:
    movs r2, #0
    movs r4, #0
loop:
    ldr r5, [r0, #0]
    ldr r6, =0x12345678
    adds r5, r5, r6
    str r5, [r0, #4]
    ldrh r6, [r0, #8]
    strb r6, [r0, #12]
    ldm r0, {r5, r6}
    adds r4, r4, r5
    adds r2, r2, #1
    cmp r2, #40
    bne loop
    mov r0, r4
    bx lr
"""


@pytest.mark.parametrize("core", ["", "arm1156", "arm1156-thrash"],
                         ids=["m3", "arm1156", "arm1156-thrash"])
def test_access_records_bit_identical(core):
    """With bus recording on, the exact access stream (address, size,
    kind, side, stalls - fetches and data interleaved, cache fills and
    write-throughs included) must be identical on every engine, fused
    superblocks included, and so must the rest of the machine state."""
    streams, states = [], []
    for _, fastpath in ENGINES:
        machine = _build_machine(ISA_THUMB2, RECORDED_SOURCE, core=core)
        machine.cpu.fastpath = fastpath
        machine.bus.record = True
        machine.call("main", SRAM_BASE)
        streams.append([(a.addr, a.size, a.kind, a.side, a.stalls)
                        for a in machine.bus.accesses])
        states.append(_state(machine))
    assert all(stream == streams[0] for stream in streams)
    assert all(state == states[0] for state in states)
    assert any(side == "D" for _, _, _, side, _ in streams[0])


def test_fused_blx_through_lr_reads_target_before_linking():
    """Regression: a fused `blx lr` must branch to the OLD link register,
    not the just-written return address - the target read has to precede
    the LR write, exactly as in the reference handler.  The loop runs well
    past the fusion threshold so the generated-code path is exercised."""
    source = """
    main:
        mov r5, lr
        movs r0, #0
        movs r4, #0
        ldr r6, =helper
    loop:
        mov lr, r6
        adds r4, r4, #1
        blx lr
        adds r0, r0, #1
        cmp r0, #50
        bne loop
        mov r0, r4
        bx r5
    helper:
        adds r4, r4, #1
        bx lr
    """
    states = []
    for _, fastpath in ENGINES:
        machine = _build_machine(ISA_THUMB2, source)
        machine.cpu.fastpath = fastpath
        assert machine.call("main") == 100
        states.append(_state(machine))
    assert all(state == states[0] for state in states)


def test_mpu_faults_identical_across_engines():
    """An MPU on the core must keep every data access on the checked path
    - including inside already-fused superblocks (the inline bus fast path
    is guarded on ``cpu.mpu is None``) - and a denied access must leave
    identical partial state on every engine."""
    from repro.core.exceptions import DataAbort
    from repro.isa.assembler import assemble as _asm
    from repro.memory.mpu import Mpu

    source = """
    main:
        movs r2, #0
    loop:
        str r2, [r0, #0]
        ldr r3, [r0, #4]
        adds r2, r2, #1
        cmp r2, #60
        bne loop
        str r2, [r1, #0]
        bx lr
    """
    program = _asm(source, ISA_THUMB2, base=FLASH_BASE)
    states = []
    for _, fastpath in ENGINES:
        mpu = Mpu(background_perms="none")
        mpu.configure(0, SRAM_BASE, 0x1000, perms="rw")
        machine = build_cortexm3(program, mpu=mpu)
        machine.cpu.fastpath = fastpath
        with pytest.raises(DataAbort):
            # the hot loop (fused well before iteration 60) stays legal;
            # the post-loop store hits unmapped MPU space and aborts
            machine.call("main", SRAM_BASE, SRAM_BASE + 0x10000)
        state = _state(machine)
        state["mpu_faults"] = mpu.faults
        states.append(state)
    assert all(state == states[0] for state in states)
    assert states[0]["mpu_faults"] == 1


def test_hot_superblocks_fuse():
    """A hot loop must actually cross the fusion threshold (guards the
    threshold plumbing against silent regressions) and still match the
    reference bit for bit - which assert_equivalent already checked for
    this source shape; here we check the machinery engaged."""
    machine = _build_machine(ISA_THUMB2, RECORDED_SOURCE)
    machine.call("main", SRAM_BASE)
    blocks = machine.cpu._sb_blocks.values()
    assert any(entry[2] is not None for entry in blocks), \
        "no superblock was fused on a 40-iteration loop"


def test_call_and_cycle_ladder_share_one_engine():
    """One CPU alternating both public entries - ``call()`` to halt and a
    ``run_until_cycle`` ladder through the same routine - with IRQs queued
    mid-run ends bit-identical to the reference interpreter doing the
    same, rung for rung.  Both entries run one dispatch loop over one
    block cache, so the fused blocks survive every switch as the very
    same objects."""

    def fused_blocks(cpu) -> dict:
        return {pc: entry[2] for pc, entry in cpu._sb_blocks.items()
                if entry[2] is not None}

    def drive(fastpath: bool):
        machine = _build_machine(ISA_THUMB2, STRAIGHTLINE_LOOP_SOURCE,
                                 trace=True)
        cpu = machine.cpu
        cpu.fastpath = fastpath
        handler = cpu.program.symbols["handler"]
        rungs = []
        fused = []
        raised = 0
        for round_ in range(3):
            cpu.nvic.raise_irq(5, handler=handler, at_cycle=cpu.cycles + 700)
            raised += 1
            machine.call("main")
            fused.append(fused_blocks(cpu))
            cpu.regs.lr = HALT_ADDRESS
            cpu.regs.pc = cpu.program.symbols["main"]
            cpu.halted = False
            until = cpu.cycles
            while not cpu.halted:
                until += 97 + 31 * round_
                if len(rungs) % 3 == 1:
                    cpu.nvic.raise_irq(1 + len(rungs) % 4, handler=handler,
                                       at_cycle=until + 13,
                                       priority=len(rungs) % 3)
                    raised += 1
                cpu.run_until_cycle(until)
                rungs.append((cpu.cycles, cpu.instructions_executed,
                              cpu.regs.pc))
            fused.append(fused_blocks(cpu))
        state = _state(machine)
        state["rungs"] = rungs
        state["irqs"] = [(r.number, r.assert_cycle, r.entry_cycle,
                          r.exit_cycle, r.tail_chained)
                         for r in cpu.nvic.stats.records]
        state["handled"] = machine.sram.data[0x100]
        state["raised"] = raised
        return state, fused

    trace, fused = drive(fastpath=True)
    reference, _ = drive(fastpath=False)
    assert trace == reference
    # every queued request was taken, and its handler ran once
    assert len(trace["irqs"]) == trace["handled"] == trace["raised"] == 15
    assert fused[0], "the first call() never fused its hot loop"
    for before, after in zip(fused, fused[1:]):
        for pc, block in before.items():
            assert after[pc] is block, (
                f"fused block at {pc:#x} was rebuilt across an entry switch")


PENDING_IRQ_LOOP_SOURCE = """
main:
    movs r0, #0
    ldr r5, =2000
loop:
    adds r0, r0, #1
    cmp r0, r5
    bne loop
    bx lr
handler:
    ldr r1, =0x20000100
    ldr r2, [r1]
    adds r2, r2, #1
    str r2, [r1]
    bx lr
"""


def _dispatches() -> dict:
    """The trace engine's dispatch counts so far, by mode."""
    series = obs.snapshot()["counters"].get("engine.superblock.dispatches", {})
    return {mode: series.get(f"mode={mode}", 0)
            for mode in ("fused", "list", "step", "poll")}


def test_trace_engine_fuses_below_a_pending_interrupt(obs_enabled):
    """One IRQ pending far in the future does not demote the M3 loop below
    it to per-step dispatch: until the assert cycle the loop runs fused,
    and per-step dispatch is confined to the last block cycle cap before
    it, however many iterations come first.  The handler enters at the
    reference's cycle, and the machine ends identical."""
    assert_cycle = 5000

    def drive(fastpath: bool):
        machine = _build_machine(ISA_THUMB2, PENDING_IRQ_LOOP_SOURCE)
        cpu = machine.cpu
        cpu.fastpath = fastpath
        cpu.nvic.raise_irq(1, handler=cpu.program.symbols["handler"],
                           at_cycle=assert_cycle)
        cpu.regs.pc = cpu.program.symbols["main"]
        before = _dispatches()
        cpu.run_until_cycle(assert_cycle)
        below = {mode: count - before[mode]
                 for mode, count in _dispatches().items()}
        assert not cpu.nvic.stats.records, "entered before the assert cycle"
        cpu.run()
        state = _state(machine)
        state["irqs"] = [(r.number, r.assert_cycle, r.entry_cycle, r.exit_cycle)
                         for r in cpu.nvic.stats.records]
        state["handled"] = machine.sram.data[0x100]
        return state, below

    trace, below = drive(fastpath=True)
    reference, _ = drive(fastpath=False)
    assert trace == reference
    assert trace["regs"][0] == 2000 and trace["handled"] == 1
    assert len(trace["irqs"]) == 1 and trace["irqs"][0][2] >= assert_cycle
    assert below["fused"] > 0, "the loop never ran fused below the horizon"
    assert below["step"] <= 4, f"per-step dispatch below the horizon: {below}"
    assert below["poll"] == 0


UPSET_LOOP_SOURCE = """
main:
    movs r0, #0
    ldr r4, =0x20000100
    ldr r5, =3000
    nop
loop:
    ldr r1, [r4, #0]
    adds r1, r1, r0
    str r1, [r4, #0]
    adds r0, r0, #1
    cmp r0, r5
edge:
    bne loop
    ldr r0, [r4, #0]
    bx lr
"""


def _icache_line(icache, address: int) -> tuple[int, int, int]:
    """``(set, way, bit)``: the valid I-cache line holding ``address`` and
    the number of the first data bit of its byte there."""
    tag, set_index, offset, ways = icache.lookup_plan(address, 2)
    way = next(index for index, line in enumerate(ways)
               if line.valid and line.tag == tag)
    return set_index, way, 8 * offset


def test_fused_cached_fetch_after_upsets_matches_reference():
    """A fused ARM1156 loop keeps fetching through its I-cache while bits
    flip there between bounded runs: a data bit in the word of the
    back-edge, then a tag bit of the loop's line, then a data bit in the
    word of the loop head.  Once the cache has taken a flip, fused
    fetches verify tags and parity as the reference's do: the trace
    engine ends bit-identical, both caches' statistics included.  The
    head's word holds loop instructions only, the last bounded run stops
    past it, and the final run is unbounded, so after the third flip only
    fused code fetches that word: a fused fetch that skipped verification
    would never see the third upset."""

    def drive(fastpath: bool):
        machine = _build_machine(ISA_THUMB2, UPSET_LOOP_SOURCE, core="arm1156")
        cpu, icache = machine.cpu, machine.icache
        cpu.fastpath = fastpath
        symbols = cpu.program.symbols
        loop, edge = symbols["loop"], symbols["edge"]
        assert loop % 4 == 0 and loop // 4 != edge // 4

        def flip_data(address: int) -> None:
            set_index, way, bit = _icache_line(icache, address)
            icache.flip_data_bit(set_index, way, bit + 3)

        def flip_tag(address: int) -> None:
            set_index, way, _ = _icache_line(icache, address)
            icache.flip_tag_bit(set_index, way, 3)

        cpu.regs.pc = symbols["main"]
        fused = []
        for rung, upset in enumerate((lambda: flip_data(edge),
                                      lambda: flip_tag(loop),
                                      lambda: flip_data(loop)), start=1):
            cpu.run_until_cycle(3000 * rung)
            fused.append(loop in cpu._sb_blocks
                         and cpu._sb_blocks[loop][2] is not None)
            upset()
        assert cpu.regs.pc // 4 != loop // 4
        cpu.run()
        state = _state(machine)
        state["icache"] = vars(icache.stats)
        state["dcache"] = vars(machine.dcache.stats)
        return state, fused

    trace, fused = drive(fastpath=True)
    reference, _ = drive(fastpath=False)
    assert fused == [True, True, True], "the loop was not fused at every upset"
    assert trace == reference
    assert trace["regs"][0] == sum(range(3000))
    icache = trace["icache"]
    assert (icache["parity_errors"], icache["tag_errors"],
            icache["recoveries"]) == (2, 1, 2)


#: a loop whose body (20 16-bit instructions, 40 bytes) spans two 32-byte
#: I-cache lines wherever it is placed
THRASH_LOOP_SOURCE = """
main:
    movs r2, #0
loop:
""" + "    adds r3, r3, #1\n" * 17 + """    adds r2, r2, #1
    cmp r2, r1
    bne loop
    bx lr
"""


def test_fused_fetches_that_miss_match_reference():
    """A fused ARM1156 loop over a 1-set, 1-way I-cache: its two lines
    evict each other every iteration, so fused fetches take the miss arm
    (a fill per miss).  Cycles, bus statistics and both caches' counters
    equal the reference's, and the I-cache misses more often than the
    loop iterates."""
    trips = 60
    states = []
    for fastpath in (True, False):
        machine = _build_machine(ISA_THUMB2, THRASH_LOOP_SOURCE,
                                 core="arm1156-thrash")
        cpu = machine.cpu
        cpu.fastpath = fastpath
        machine.call("main", 0, trips)
        if fastpath:
            loop = cpu.program.symbols["loop"]
            assert cpu._sb_blocks[loop][2] is not None, "the loop never fused"
        states.append(_state(machine))
    trace, reference = states
    assert trace == reference
    assert trace["regs"][2] == trips
    icache = dict(trace["caches"][0][0])  # the I-cache's statistics
    assert icache["misses"] > trips


#: a fused ARM1156 loop whose trace leaves its head's I-cache line A by a
#: goto to a 32-bit ``b.w`` that straddles lines B and B + 1, which gotos
#: back into line A (``tail``); its back-edge ends line A, so the code
#: after the loop starts a fourth line
LINE_RUN_STRADDLE_SOURCE = """
main:
    movs r2, #0
    b loop
    .align 32
loop:
    adds r2, r2, #1
    b far
tail:
    cmp r2, r1
""" + "    nop\n" * 12 + """edge:
    bne loop
    bx lr
    .align 32
    .space 30
far:
    b.w tail
"""


def test_line_run_ends_at_a_straddling_fetch():
    """A line run never survives a thunk fetch.  The fused loop fetches
    ``adds`` and ``b far`` in line A, then the straddling ``b.w`` through
    its thunk, then ``cmp`` back in line A.  On a 1-set, 1-way I-cache
    the straddle evicts A, so that fetch must scan and miss; a run kept
    across the thunk would count a hit on the evicted line (and move the
    miss to the next iteration's head, but not past the loop's exit).
    The full state, both caches included, equals the reference's."""
    trips = 60
    states = []
    for fastpath in (True, False):
        machine = _build_machine(ISA_THUMB2, LINE_RUN_STRADDLE_SOURCE,
                                 core="arm1156-thrash")
        cpu = machine.cpu
        cpu.fastpath = fastpath
        symbols = cpu.program.symbols
        line = machine.icache.line_bytes
        assert symbols["loop"] % line == 0
        assert symbols["edge"] == symbols["loop"] + line - 2
        assert symbols["far"] % line == line - 2
        assert cpu.program.instruction_at(symbols["far"]).size == 4
        machine.call("main", 0, trips)
        if fastpath:
            assert cpu._sb_blocks[symbols["loop"]][2] is not None, \
                "the loop never fused"
        states.append(_state(machine))
    trace, reference = states
    assert trace == reference
    assert trace["regs"][2] == trips
    icache = dict(trace["caches"][0][0])  # the I-cache's statistics
    assert icache["misses"] >= 3 * trips


@pytest.mark.parametrize("core", ["", "arm1156"], ids=["m3", "arm1156"])
def test_wide_branch_to_a_near_label(core):
    """``b.w`` to a label a 16-bit B would reach keeps its 32-bit
    encoding through layout, and both engines run it alike, fused too."""
    source = "main:\n    b.w near\n    nop\nnear:\n    bx lr\n"
    program = assemble(source, ISA_THUMB2, base=FLASH_BASE)
    branch = program.instructions[0]
    assert (branch.size, branch.target) == (4, program.symbols["near"])
    assert_equivalent(ISA_THUMB2, source, core=core, calls=FUSE_THRESHOLD + 1)


#: a loop whose word load straddles the D-cache line boundary at scratch
#: byte 32 (bytes 30..33), whose word store straddles the one at 64 and
#: whose halfword store and load straddle the one at 96
STRADDLE_LOOP_SOURCE = """
main:
    movs r2, #0
    movs r5, #0
loop:
    ldr r3, [r0, #30]
    adds r3, r3, r2
    str r3, [r0, #62]
    strh r3, [r0, #95]
    ldrh r4, [r0, #95]
    adds r5, r5, r4
    adds r2, r2, #1
    cmp r2, r1
    bne loop
    mov r0, r5
    bx lr
"""

#: a loop that stores to a cached line and reads the word (and a byte of
#: another word) back in the same iteration; its unaligned halfword and
#: word stores of ``r7`` each cover two words of the line
READBACK_LOOP_SOURCE = """
main:
    movs r2, #0
    movs r5, #0
loop:
    ldr r3, [r0, #8]
    adds r3, r3, r2
    str r3, [r0, #8]
    ldr r4, [r0, #8]
    strb r4, [r0, #13]
    ldrb r6, [r0, #13]
    lsls r7, r4, #7
    strh r7, [r0, #19]
    str r7, [r0, #27]
    adds r5, r5, r4
    adds r5, r5, r6
    adds r2, r2, #1
    cmp r2, r1
    bne loop
    mov r0, r5
    bx lr
"""


def _readback_result(trips: int) -> int:
    """What ``READBACK_LOOP_SOURCE`` returns from zeroed scratch memory."""
    word = total = 0
    for trip in range(trips):
        word += trip
        total += word + (word & 0xFF)
    return total & 0xFFFF_FFFF


def _dcache_runs(source: str, trips: int, between=None) -> list[dict]:
    """The final state of an ARM1156 running ``source``'s ``main`` over
    the scratch words on each engine: one call of ``trips`` iterations,
    then - when ``between(machine)`` is given - that hook and a second
    call.  The trace engine's loop must have fused in the first call."""
    states = []
    for _, fastpath in ENGINES:
        machine = _build_machine(ISA_THUMB2, source, core="arm1156")
        cpu = machine.cpu
        cpu.fastpath = fastpath
        machine.call("main", SRAM_BASE, trips)
        if fastpath:
            loop = cpu.program.symbols["loop"]
            assert cpu._sb_blocks[loop][2] is not None, "the loop never fused"
        if between is not None:
            between(machine)
            machine.call("main", SRAM_BASE, trips)
        state = _state(machine)
        state["sram"] = bytes(machine.sram.data[:128])
        states.append(state)
    return states


def test_fused_dcache_accesses_that_straddle_lines_match_reference():
    """A fused ARM1156 loop whose load and stores straddle D-cache lines:
    each takes the mediated arm (``Cache.read`` and ``Cache._update``
    split at the boundary), and every state - both caches' lines and the
    memory past the scratch words included - equals the reference's."""
    trace, reference = _dcache_runs(STRADDLE_LOOP_SOURCE, 40)
    assert trace == reference
    assert dict(trace["caches"][1][0])["hits"] > 0


def test_fused_store_read_back_from_its_cached_line_matches_reference():
    """A fused ARM1156 loop stores to a D-cache line it has just read and
    reads the stored word and byte back: the inline store updates the
    cached line (data, the parity of every word it covers, LRU) so the
    inline loads that follow hit on the new value."""
    trips = 41
    trace, reference = _dcache_runs(READBACK_LOOP_SOURCE, trips)
    assert trace == reference
    assert trace["regs"][0] == _readback_result(trips)
    dcache = dict(trace["caches"][1][0])
    assert (dcache["misses"], dcache["hits"]) == (1, 3 * trips - 1)


def test_dcache_disabled_after_fusion_matches_reference():
    """Disabling the D-cache after the loop fused sends its loads and
    stores around the cache (the clean path tests ``enabled``): the second
    call leaves the cache untouched and the machine equal to the
    reference's."""
    counts = []

    def disable(machine) -> None:
        counts.append(vars(machine.dcache.stats).copy())
        machine.dcache.enabled = False

    trace, reference = _dcache_runs(READBACK_LOOP_SOURCE, 41, disable)
    assert trace == reference
    assert dict(trace["caches"][1][0]) == counts[0] == counts[1]


def _asr_at(isa: str, position: int) -> str:
    """A straight-line ``main`` whose step at ``position`` (0-based) shifts
    a register arithmetically right: ``asrs`` in Thumb-2, an ``asr #3``
    operand in ARM.  Every other step is a one-register add."""
    asr = ("    add r1, r3, r2, asr #3" if isa == ISA_ARM
           else "    asrs r1, r2, #3")
    body = ["    adds r3, r3, #1"] * 40
    body[position] = asr
    return "\n".join(["main:", *body, "    bx lr"])


def test_fused_asr_at_step_32_keeps_its_fetch_stall():
    """Fused code keeps each position's fetch stall in a local named after
    the position; an ASR's sign temporary must never share that name.  Step
    32 is an ASR on an ARM1156 (every fetch is cached, so every step runs
    in place), and step 33 follows a dynamic flash fetch at step 32 in the
    same span on an M3 and an ARM7.  The last of ``FUSE_THRESHOLD + 1``
    calls runs fused, and its state, cycles included, equals the
    reference's for a negative and a positive operand."""
    for isa, core, position in ((ISA_THUMB2, "arm1156", 32),
                                (ISA_THUMB2, "", 33), (ISA_ARM, "", 33)):
        source = _asr_at(isa, position)
        for operand in (0x8000_0100, 0x7654_3210):
            assert_equivalent(isa, source, args=(0, 0, operand), core=core,
                              calls=FUSE_THRESHOLD + 1)
        machine = _build_machine(isa, source, core=core)
        for _ in range(FUSE_THRESHOLD + 1):
            machine.call("main", 0, 0, 1)
        main = machine.cpu.program.symbols["main"]
        assert machine.cpu._sb_blocks[main][2] is not None, "main never fused"


def test_cond_checks_agree_with_condition_passed_exhaustively():
    """Anti-drift guard: the predecoded condition predicates must equal
    condition_passed() for every condition and every N/Z/C/V combination."""
    from itertools import product

    from repro.isa import Apsr, Condition, condition_passed
    from repro.isa.predecode import COND_CHECKS

    for cond in Condition:
        for n, z, c, v in product((False, True), repeat=4):
            apsr = Apsr(n=n, z=z, c=c, v=v)
            reference = condition_passed(cond, apsr)
            if cond == Condition.AL:
                assert cond not in COND_CHECKS  # represented as "no check"
                continue
            assert bool(COND_CHECKS[cond](apsr)) == reference, (cond, str(apsr))
