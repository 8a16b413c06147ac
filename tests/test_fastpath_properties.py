"""Property tests: the trace engine == the reference interpreter.

The trace engine (:mod:`repro.isa.predecode` + ``BaseCpu.run``, see the
execution-engines section of :mod:`repro.core.cpu`) must be
*architecturally indistinguishable* from single-stepping the reference
interpreter: same
registers, flags, memory, cycle counts, bus statistics, and trace - on
every core, for arbitrary programs, with and without interrupts.  These
tests generate randomised programs (hypothesis) including LDM/STM,
write-back addressing, predicated skips, and loopy control flow
(back-edges, loop-carried flags, IT blocks inside loops), and run curated
worst cases (IT blocks, WFI, interrupt storms landing mid-superblock and
exactly on loop back-edge cycles, restartable LDM windows, access-record
streams), executing each on both engines and diffing the complete
machine state.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FLASH_BASE,
    HALT_ADDRESS,
    SRAM_BASE,
    build_arm7,
    build_arm1156,
    build_cortexm3,
)
from repro.isa import (
    ISA_ARM,
    ISA_THUMB,
    ISA_THUMB2,
    AssemblyError,
    EncodingError,
    assemble,
)
from repro.sim.trace import TraceRecorder
from repro.workloads import TABLE1_CONFIGS, run_kernel
from repro.workloads.kernels import AUTOINDY_SUITE

SCRATCH_BYTES = 64


def _build_machine(isa: str, source: str, core: str = "", trace: bool = False):
    program = assemble(source, isa, base=FLASH_BASE)
    recorder = TraceRecorder(enabled=trace)
    if isa == ISA_THUMB2 and core != "arm1156":
        return build_cortexm3(program, trace=recorder)
    if core == "arm1156":
        return build_arm1156(program, trace=recorder)
    return build_arm7(program, trace=recorder)


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
        "trace": tuple(cpu.trace.records),
    }


#: (label, fastpath) for the two engines
ENGINES = (
    ("trace", True),
    ("reference", False),
)


def run_engines(isa: str, source: str, args=(), core: str = "",
                trace: bool = False) -> list[dict]:
    """Run ``source`` through both engines; return the final states."""
    states = []
    for _, fastpath in ENGINES:
        machine = _build_machine(isa, source, core=core, trace=trace)
        machine.cpu.fastpath = fastpath
        machine.call("main", *args, max_instructions=200_000)
        states.append(_state(machine))
    return states


def assert_equivalent(isa: str, source: str, args=(), core: str = "",
                      trace: bool = False) -> None:
    states = run_engines(isa, source, args=args, core=core, trace=trace)
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
    # block transfers (specialised LDM/STM predecode), +/- base write-back
    st.tuples(st.just("block"), st.sampled_from(["ldm", "stm"]),
              REGLIST, st.booleans()),
    # pre-/post-indexed addressing (write-back load/store predecode)
    st.tuples(st.just("ldr_wb"),
              st.sampled_from(["ldr", "ldrb", "ldrh", "ldrsb", "ldrsh"]),
              REG, WOFF, st.booleans()),
    st.tuples(st.just("str_wb"), st.sampled_from(["str", "strb", "strh"]),
              REG, WOFF, st.booleans()),
)


def render(ops: list[tuple]) -> str:
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
    lines.append("    pop {r4, r5, r6, r7}")
    lines.append("    bx lr")
    return "\n".join(lines)


@given(st.lists(_OPS, min_size=1, max_size=24),
       st.tuples(IMM8, IMM8, IMM8))
@settings(max_examples=40, deadline=None)
def test_random_programs_bit_identical(ops, args):
    """Random straight-line programs with predicated skips: every ISA/core
    pair must produce identical state on both execution paths."""
    source = render(ops)
    r1, r2, r3 = args
    for isa, core in ((ISA_ARM, ""), (ISA_THUMB, ""),
                      (ISA_THUMB2, ""), (ISA_THUMB2, "arm1156")):
        try:
            assemble(source, isa, base=FLASH_BASE)
        except (AssemblyError, EncodingError):
            continue  # e.g. a wide-only op in 16-bit Thumb: not this test's concern
        assert_equivalent(isa, source, args=(SRAM_BASE, r1, r2, r3), core=core)


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
)


def render_loop(ops: list[tuple], trips: int) -> str:
    """A counted loop whose body is the generated ops: the trip counter
    lives in scratch memory (word 14) so arbitrary body ops cannot
    clobber it, and the back-edge flags are loop-carried state the trace
    engine's guard must revalidate every iteration."""
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
    lines += [
        "    ldr r1, [r0, #56]",
        "    subs r1, r1, #1",
        "    str r1, [r0, #56]",
        "    bne loop",
        "    pop {r4, r5, r6, r7}",
        "    bx lr",
    ]
    return "\n".join(lines)


@given(st.lists(_LOOP_OPS, min_size=1, max_size=12),
       st.integers(min_value=1, max_value=24),
       st.tuples(IMM8, IMM8, IMM8))
@settings(max_examples=40, deadline=None)
def test_random_loop_programs_bit_identical(ops, trips, args):
    """Random counted loops - the trace engine fuses the back-edge into a
    generated while-loop - must leave identical machine state on every
    core and engine, for every loop body shape and trip count."""
    source = render_loop(ops, trips)
    r1, r2, r3 = args
    for isa, core in ((ISA_ARM, ""), (ISA_THUMB, ""),
                      (ISA_THUMB2, ""), (ISA_THUMB2, "arm1156")):
        try:
            assemble(source, isa, base=FLASH_BASE)
        except (AssemblyError, EncodingError):
            continue  # e.g. IT blocks outside Thumb-2: not this test's concern
        assert_equivalent(isa, source, args=(SRAM_BASE, r1, r2, r3), core=core)


def _backedge_cycles(isa: str, source: str, core: str = "",
                     args=()) -> list[int]:
    """The cycle counts at which the reference interpreter sits at the
    loop's back-edge branch, about to execute it."""
    machine = _build_machine(isa, source, core=core)
    cpu = machine.cpu
    machine.cpu.fastpath = False
    program = cpu.program
    loop_head = program.symbols["loop"]
    backedge = None
    for address, ins in program._by_address.items():
        if ins.mnemonic == "B" and ins.target == loop_head:
            backedge = address
    assert backedge is not None, "no back-edge branch found"
    # drive the reference interpreter by hand, sampling at the back-edge
    cpu.regs.write(0, SRAM_BASE)
    for register, value in enumerate(args, start=1):
        cpu.regs.write(register, value)
    cpu.regs.pc = program.symbols["main"]
    cycles = []
    while not cpu.halted:
        if cpu.regs.pc == backedge:
            cycles.append(cpu.cycles)
        cpu.step()
    return cycles


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2))
@settings(max_examples=20, deadline=None)
def test_irq_storms_exactly_on_backedge_cycles(stride, offset):
    """IRQ storms whose assert cycles land *exactly* on the cycles at
    which the loop's back-edge executes (and one cycle around them) must
    be taken at the same instruction boundary with identical latency
    records on every engine - the trace engine's fused loop has to bail
    out of its generated while-loop at precisely those points."""
    edges = _backedge_cycles(ISA_THUMB2, STRAIGHTLINE_LOOP_SOURCE)
    asserts = [cycle + offset - 1 for cycle in edges[::stride]][:12]
    states = []
    for _, fastpath in ENGINES:
        machine = _build_machine(ISA_THUMB2, STRAIGHTLINE_LOOP_SOURCE,
                                 trace=True)
        machine.cpu.fastpath = fastpath
        handler = machine.cpu.program.symbols["handler"]
        for number, cycle in enumerate(asserts, start=1):
            machine.cpu.nvic.raise_irq(number, handler=handler,
                                       at_cycle=cycle, priority=number % 3)
        machine.call("main")
        state = _state(machine)
        state["irq_records"] = [
            (r.number, r.assert_cycle, r.entry_cycle, r.exit_cycle,
             r.tail_chained)
            for r in machine.cpu.nvic.stats.records
        ]
        states.append(state)
    assert all(state == states[0] for state in states)
    assert states[0]["irq_records"], "storm never delivered"


def test_vic_irqs_on_backedge_cycles_bit_identical():
    """The same back-edge-exact storm on the VIC cores (ARM7 and the
    cached-fetch ARM1156), whose handlers carry the software preamble."""
    for isa, core in ((ISA_THUMB, ""), (ISA_THUMB2, "arm1156")):
        edges = _backedge_cycles(isa, VIC_LOOP_SOURCE, core=core)
        asserts = [cycle for cycle in edges[::4]][:8]
        states = []
        for _, fastpath in ENGINES:
            machine = _build_machine(isa, VIC_LOOP_SOURCE, core=core,
                                     trace=True)
            machine.cpu.fastpath = fastpath
            handler = machine.cpu.program.symbols["handler"]
            for number, cycle in enumerate(asserts, start=1):
                machine.cpu.vic.raise_irq(number, handler=handler,
                                          at_cycle=cycle)
            machine.call("main")
            states.append(_state(machine))
        assert all(state == states[0] for state in states), (isa, core)


# The software-preamble handler restores its scratch registers with a
# plain (restart-safe) pop and returns via bx lr: a pop-to-PC interrupt
# return could itself be abandoned mid-transfer on the ARM1156 after its
# return-unwind side effects, which real handlers avoid for this reason.
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
handler:
    push {r1, r2}
    ldr r1, =0x20000030
    ldr r2, [r1]
    adds r2, r2, #1
    str r2, [r1]
    pop {r1, r2}
    bx lr
"""


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

def test_autoindy_suite_bit_identical():
    """Every Table 1 cell: fast and reference runs agree exactly."""
    for _, core, isa in TABLE1_CONFIGS:
        for workload in AUTOINDY_SUITE:
            fast = run_kernel(workload, core, isa, seed=7, scale=2)
            slow = run_kernel(workload, core, isa, seed=7, scale=2,
                              machine_kwargs={})
            assert fast == slow  # sanity: determinism of the harness itself
            # now force the reference path for the comparison run
            from repro.codegen import compile_program
            from repro.core import build_machine
            from repro.sim.rng import DeterministicRng

            fn = workload.build()
            program = compile_program([fn], isa, base=FLASH_BASE)
            prepared = workload.make_input(DeterministicRng(7), 2)
            machine = build_machine(core, program)
            machine.cpu.fastpath = False
            machine.load_data(SRAM_BASE, prepared.data)
            result = machine.call(fn.name, *prepared.args(SRAM_BASE))
            assert (result, machine.cpu.cycles,
                    machine.cpu.instructions_executed) == (
                fast.result, fast.cycles, fast.instructions), workload.name


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


def test_merged_program_images_use_lazy_predecode():
    """engine_ecu.py merges a second program's instructions into the
    execution index after machine construction; the fast loop must
    predecode those addresses on first dispatch, not fault on them."""
    kernel = assemble(
        """
        main:
            movs r0, #0
        loop:
            adds r0, r0, #1
            cmp r0, #100
            bne loop
            bx lr
        """,
        ISA_THUMB2, base=FLASH_BASE,
    )
    isr = assemble(
        """
        crank_isr:
            ldr r1, =0x20000180
            ldr r2, [r1]
            adds r2, r2, #1
            str r2, [r1]
            bx lr
        """,
        ISA_THUMB2, base=FLASH_BASE + 0x4000,
    )
    states = []
    for _, fastpath in ENGINES:
        machine = build_cortexm3(kernel)
        machine.cpu.fastpath = fastpath
        machine.load_program(isr)
        merged = dict(kernel._by_address)
        merged.update(isr._by_address)
        machine.cpu.program._by_address = merged
        machine.cpu.nvic.raise_irq(1, handler=isr.symbols["crank_isr"],
                                   at_cycle=30)
        assert machine.call("main") == 100
        states.append(_state(machine))
    assert all(state == states[0] for state in states)


def test_compile_cycles_agrees_with_instruction_cycles_everywhere():
    """Anti-drift guard: the prebound cycle closures must equal the
    reference instruction_cycles for every mnemonic and outcome shape, on
    every core.  A cycle-model tweak applied to one side only fails here
    before any program-level test has to stumble on it."""
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
            if fast is None:
                continue
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


def test_access_records_bit_identical():
    """With bus recording on, the exact access stream (address, size,
    kind, side, stalls - fetches and data interleaved) must be identical
    on every engine, fused superblocks included."""
    streams = []
    for _, fastpath in ENGINES:
        machine = _build_machine(ISA_THUMB2, RECORDED_SOURCE)
        machine.cpu.fastpath = fastpath
        machine.bus.record = True
        machine.call("main", SRAM_BASE)
        streams.append([(a.addr, a.size, a.kind, a.side, a.stalls)
                        for a in machine.bus.accesses])
    assert all(stream == streams[0] for stream in streams)
    assert any(side == "D" for _, _, _, side, _ in streams[0])


def test_fused_blx_through_lr_reads_target_before_linking():
    """Regression: a fused `blx lr` must branch to the OLD link register,
    not the just-written return address - the target read has to precede
    the LR write, exactly as in the predecode closure.  The loop runs well
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
    import pytest

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
    assert any(entry[3] is not None for entry in blocks), \
        "no superblock was fused on a 40-iteration loop"


def test_call_and_cycle_ladder_share_one_engine():
    """One CPU alternating both public entries - ``call()`` to halt and a
    ``run_until_cycle`` ladder through the same routine - with IRQs queued
    mid-run ends bit-identical to the reference interpreter doing the
    same, rung for rung.  Both entries run one dispatch loop over one
    block cache, so the fused blocks survive every switch as the very
    same objects."""

    def fused_blocks(cpu) -> dict:
        return {pc: entry[3] for pc, entry in cpu._sb_blocks.items()
                if entry[3] is not None}

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
