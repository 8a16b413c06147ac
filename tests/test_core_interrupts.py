"""Interrupt-architecture tests: VIC software entry, NVIC hardware entry,
tail-chaining, NMI, and the ARM1156 restartable LDM."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FLASH_BASE, SRAM_BASE, build_arm7, build_arm1156, build_cortexm3
from repro.core.nvic import NvicController
from repro.core.vic import VicController
from repro.isa import ISA_THUMB, ISA_THUMB2, assemble

# Main program: count r0 up to 200 then return.  The handler increments a
# counter in SRAM.
M3_SOURCE = """
main:
    movs r0, #0
loop:
    adds r0, r0, #1
    cmp r0, #200
    bne loop
    bx lr

handler:                     ; plain C-style handler: no preamble needed
    ldr r1, =0x20000100
    ldr r2, [r1]
    adds r2, r2, #1
    str r2, [r1]
    bx lr                    ; EXC_RETURN -> hardware postamble
"""

ARM7_SOURCE = """
main:
    movs r0, #0
loop:
    adds r0, r0, #1
    cmp r0, #200
    bne loop
    bx lr

handler:                     ; software preamble required on ARM7
    push {r1, r2, lr}
    ldr r1, =0x20000100
    ldr r2, [r1]
    adds r2, r2, #1
    str r2, [r1]
    pop {r1, r2, pc}         ; software postamble + return
"""

BAD_HANDLER_ARM7 = """
main:
    movs r0, #0
    movs r3, #7
loop:
    adds r0, r0, #1
    cmp r0, #50
    bne loop
    movs r0, #0
    adds r0, r0, r3
    bx lr

handler:                     ; clobbers r3 without saving it
    movs r3, #99
    bx lr
"""


def test_m3_interrupt_serviced_and_state_restored():
    program = assemble(M3_SOURCE, ISA_THUMB2, base=FLASH_BASE)
    machine = build_cortexm3(program)
    machine.cpu.nvic.raise_irq(3, handler=program.symbols["handler"], at_cycle=100)
    result = machine.call("main")
    assert result == 200                      # main's registers untouched
    assert machine.cpu.nvic.stats.serviced == 1
    counter = machine.bus.read_raw(0x2000_0100, 4)
    assert counter == 1


def test_m3_entry_latency_is_stacking_dominated():
    program = assemble(M3_SOURCE, ISA_THUMB2, base=FLASH_BASE)
    machine = build_cortexm3(program)
    machine.cpu.nvic.raise_irq(3, handler=program.symbols["handler"], at_cycle=50)
    machine.call("main")
    record = machine.cpu.nvic.stats.records[0]
    # 12 cycles of hardware preamble + at most a couple of cycles finishing
    # the interrupted instruction
    assert 12 <= record.latency <= 20


def test_m3_tail_chaining_back_to_back():
    program = assemble(M3_SOURCE, ISA_THUMB2, base=FLASH_BASE)
    machine = build_cortexm3(program, tail_chaining=True)
    handler = program.symbols["handler"]
    machine.cpu.nvic.raise_irq(1, handler=handler, at_cycle=50, priority=1)
    machine.cpu.nvic.raise_irq(2, handler=handler, at_cycle=50, priority=2)
    machine.call("main")
    records = machine.cpu.nvic.stats.records
    assert len(records) == 2
    assert not records[0].tail_chained
    assert records[1].tail_chained
    assert machine.cpu.nvic.stats.tail_chained == 1
    assert machine.bus.read_raw(0x2000_0100, 4) == 2


def test_m3_back_to_back_faster_with_tail_chaining():
    def run(tail_chaining):
        program = assemble(M3_SOURCE, ISA_THUMB2, base=FLASH_BASE)
        machine = build_cortexm3(program, tail_chaining=tail_chaining)
        handler = program.symbols["handler"]
        machine.cpu.nvic.raise_irq(1, handler=handler, at_cycle=50, priority=1)
        machine.cpu.nvic.raise_irq(2, handler=handler, at_cycle=50, priority=2)
        machine.call("main")
        return machine.cpu.cycles

    assert run(True) < run(False)


def test_m3_priority_preemption():
    source = M3_SOURCE + """
slow_handler:
    ldr r1, =0x20000200
    movs r2, #0
slow_loop:
    adds r2, r2, #1
    cmp r2, #50
    bne slow_loop
    str r2, [r1]
    bx lr
"""
    program = assemble(source, ISA_THUMB2, base=FLASH_BASE)
    machine = build_cortexm3(program)
    machine.cpu.nvic.raise_irq(5, handler=program.symbols["slow_handler"],
                               at_cycle=40, priority=5)
    # urgent interrupt arrives while the slow handler runs
    machine.cpu.nvic.raise_irq(1, handler=program.symbols["handler"],
                               at_cycle=80, priority=1)
    machine.call("main")
    records = machine.cpu.nvic.stats.records
    assert len(records) == 2
    assert machine.cpu.nvic.nesting_depth == 0
    # the urgent one entered while the slow one was active (preemption)
    urgent = next(r for r in records if r.number == 1)
    slow = next(r for r in records if r.number == 5)
    assert urgent.entry_cycle < slow.exit_cycle


def test_arm7_interrupt_with_software_preamble():
    program = assemble(ARM7_SOURCE, ISA_THUMB, base=FLASH_BASE)
    machine = build_arm7(program)
    machine.cpu.vic.raise_irq(0, handler=program.symbols["handler"], at_cycle=60)
    result = machine.call("main")
    assert result == 200
    assert machine.bus.read_raw(0x2000_0100, 4) == 1
    record = machine.cpu.vic.stats.records[0]
    assert record.exit_cycle is not None
    assert record.latency >= 5


def test_arm7_handler_without_preamble_corrupts_state():
    """The hazard hardware stacking removes: an ARM7 handler that skips
    the software preamble clobbers the interrupted context."""
    program = assemble(BAD_HANDLER_ARM7, ISA_THUMB, base=FLASH_BASE)
    machine = build_arm7(program)
    machine.cpu.vic.raise_irq(0, handler=program.symbols["handler"], at_cycle=30)
    result = machine.call("main")
    assert result == 99   # r3 was clobbered; correct result would be 7


def test_m3_handler_needs_no_preamble():
    """Same shape of handler on the M3: hardware stacking preserves it...
    for the caller-saved set (r3 is stacked by hardware)."""
    source = """
main:
    movs r0, #0
    movs r3, #7
loop:
    adds r0, r0, #1
    cmp r0, #50
    bne loop
    movs r0, #0
    adds r0, r0, r3
    bx lr

handler:
    movs r3, #99            ; hardware stacked r3: safe to clobber
    bx lr
"""
    program = assemble(source, ISA_THUMB2, base=FLASH_BASE)
    machine = build_cortexm3(program)
    machine.cpu.nvic.raise_irq(0, handler=program.symbols["handler"], at_cycle=30)
    assert machine.call("main") == 7


def test_nmi_fires_even_when_masked():
    source = """
main:
    cpsid i
    movs r0, #0
loop:
    adds r0, r0, #1
    cmp r0, #100
    bne loop
    bx lr
handler:
    ldr r1, =0x20000100
    movs r2, #1
    str r2, [r1]
    bx lr
"""
    program = assemble(source, ISA_THUMB2, base=FLASH_BASE)

    masked = build_cortexm3(program)
    masked.cpu.nvic.raise_irq(7, handler=program.symbols["handler"], at_cycle=40)
    masked.call("main")
    assert masked.bus.read_raw(0x2000_0100, 4) == 0   # ordinary IRQ blocked

    nmi = build_cortexm3(program)
    nmi.cpu.nvic.raise_irq(7, handler=program.symbols["handler"], at_cycle=40, nmi=True)
    nmi.call("main")
    assert nmi.bus.read_raw(0x2000_0100, 4) == 1      # NMI punches through


def test_wfi_wakes_on_interrupt():
    source = """
main:
    wfi
    movs r0, #42
    bx lr
handler:
    bx lr
"""
    program = assemble(source, ISA_THUMB2, base=FLASH_BASE)
    machine = build_cortexm3(program)
    machine.cpu.nvic.raise_irq(0, handler=program.symbols["handler"], at_cycle=500)
    assert machine.call("main") == 42
    assert machine.cpu.cycles >= 500


# ----------------------------------------------------------------------
# ARM1156 restartable LDM (experiment E6 mechanism)
# ----------------------------------------------------------------------

LDM_SOURCE = """
main:
    movw r1, #0x0000
    movt r1, #0x2000          ; r1 = SRAM base
    ldm r1, {r2, r3, r4, r5, r6, r7, r8, r9, r10, r11}
    movs r0, #1
    bx lr
handler:
    push {r1, lr}
    movw r1, #0x0200
    movt r1, #0x2000
    str r1, [r1]
    pop {r1, pc}
"""


def _run_1156(interruptible, at_cycle):
    program = assemble(LDM_SOURCE, ISA_THUMB2, base=FLASH_BASE)
    machine = build_arm1156(program, interruptible_ldm=interruptible,
                            flash_access_cycles=4, sram_wait_states=2)
    machine.cpu.vic.raise_irq(0, handler=program.symbols["handler"],
                              at_cycle=at_cycle)
    result = machine.call("main")
    assert result == 1
    return machine


def _ldm_window(interruptible):
    """Find the cycle range during which the LDM executes (no interrupts)."""
    program = assemble(LDM_SOURCE, ISA_THUMB2, base=FLASH_BASE)
    machine = build_arm1156(program, interruptible_ldm=interruptible,
                            flash_access_cycles=4, sram_wait_states=2)
    cpu = machine.cpu
    cpu.regs.sp = machine.stack_top
    cpu.regs.lr = 0xFFFFFFFE
    cpu.regs.pc = program.symbols["main"]
    ldm_addr = None
    for ins in program.instructions:
        if ins.mnemonic == "LDM":
            ldm_addr = ins.address
    start = end = None
    while not cpu.halted:
        if cpu.regs.pc == ldm_addr and start is None:
            start = cpu.cycles
        elif start is not None and end is None and cpu.regs.pc != ldm_addr:
            end = cpu.cycles
        cpu.step()
    return start, end


def test_ldm_with_cold_cache_is_long():
    start, end = _ldm_window(interruptible=False)
    assert end - start > 20  # cold-cache 10-word LDM drags in line fills


def test_restartable_ldm_cuts_interrupt_latency():
    start, end = _ldm_window(interruptible=False)
    mid = (start + end) // 2

    blocking = _run_1156(interruptible=False, at_cycle=mid)
    restartable = _run_1156(interruptible=True, at_cycle=mid)

    lat_blocking = blocking.cpu.vic.stats.records[0].latency
    lat_restartable = restartable.cpu.vic.stats.records[0].latency
    assert restartable.cpu.abandoned_transfers >= 1
    assert lat_restartable < lat_blocking


def test_restartable_ldm_still_produces_correct_values():
    program = assemble(LDM_SOURCE, ISA_THUMB2, base=FLASH_BASE)
    machine = build_arm1156(program, interruptible_ldm=True,
                            flash_access_cycles=4, sram_wait_states=2)
    payload = b"".join(i.to_bytes(4, "little") for i in range(100, 110))
    machine.load_data(SRAM_BASE, payload)
    start, end = _ldm_window(interruptible=True)
    machine.cpu.vic.raise_irq(0, handler=program.symbols["handler"],
                              at_cycle=(start + end) // 2)
    machine.call("main")
    # registers r2..r11 must hold the loaded values despite the restart
    for index, reg in enumerate(range(2, 12)):
        assert machine.cpu.regs.read(reg) == 100 + index


# ----------------------------------------------------------------------
# ARM1156 PC-popping transfers are non-restartable (pinned semantics)
# ----------------------------------------------------------------------

# The handler returns via ``pop {..., pc}``: the pop's PC write runs the
# interrupt-return unwind in branch() (return-stack pop, I-bit restore),
# a side effect a register-snapshot rollback cannot undo.  The pinned
# semantics: a PC-popping transfer commits atomically - an NMI asserting
# mid-transfer is taken at the next instruction boundary instead of
# abandoning the pop.  The handler's ``push`` stays restartable.
ARM1156_POP_PC_RETURN = """
main:
    movs r0, #0
loop:
    adds r0, r0, #1
    cmp r0, #120
    bne loop
    bx lr

handler:
    push {r1, r2, lr}
    ldr r1, =0x20000040
    ldr r2, [r1]
    adds r2, r2, #1
    str r2, [r1]
    pop {r1, r2, pc}

nmi_handler:
    push {r1, r2, lr}
    ldr r1, =0x20000048
    ldr r2, [r1]
    adds r2, r2, #1
    str r2, [r1]
    pop {r1, r2, pc}
"""


def _pop_pc_machine(nmi_cycle: int):
    from repro.sim.trace import TraceRecorder

    program = assemble(ARM1156_POP_PC_RETURN, ISA_THUMB2, base=FLASH_BASE)
    trace = TraceRecorder(enabled=True, categories={"ldm", "irq"})
    machine = build_arm1156(program, interruptible_ldm=True, trace=trace)
    machine.cpu.vic.raise_irq(1, handler=program.symbols["handler"], at_cycle=40)
    machine.cpu.vic.raise_irq(2, handler=program.symbols["nmi_handler"],
                              at_cycle=nmi_cycle, nmi=True)
    pop_addr = next(ins.address for ins in program.instructions
                    if ins.mnemonic == "POP" and 15 in ins.reglist)
    return machine, trace, pop_addr


def _pop_pc_step_window():
    """(start, end] cycles of the first handler activation's ``pop {..,pc}``
    as its own reference step (NMI parked far in the future keeps the
    restartable machinery engaged without firing)."""
    machine, trace, pop_addr = _pop_pc_machine(10**9)
    cpu = machine.cpu
    cpu.fastpath = False
    cpu.regs.sp = machine.stack_top
    cpu.regs.lr = 0xFFFFFFFE
    cpu.regs.pc = cpu.program.symbols["main"]
    while not cpu.halted:
        before = cpu.cycles
        at_pop = cpu.regs.pc == pop_addr
        cpu.step()
        if at_pop:
            return before, cpu.cycles
    raise AssertionError("pop {.., pc} never executed")


def test_arm1156_pop_pc_is_not_restartable():
    """An NMI asserting anywhere inside the ``pop {..., pc}`` execution
    window must NOT abandon the transfer (the PC write runs the
    interrupt-return unwind, which a snapshot rollback cannot undo): the
    pop commits atomically and the NMI is taken at the very next
    instruction boundary."""
    from repro.core.arm1156 import Arm1156Core

    start, end = _pop_pc_step_window()
    assert end - start >= 2, "window too narrow to place an NMI inside"
    for nmi_cycle in range(start + 1, end + 1):
        machine, trace, pop_addr = _pop_pc_machine(nmi_cycle)
        result = machine.call("main")
        assert result == 120, nmi_cycle
        assert machine.cpu.abandoned_transfers == 0, nmi_cycle
        assert not trace.by_category("ldm"), nmi_cycle
        assert machine.bus.read_raw(0x2000_0040, 4) == 1, nmi_cycle
        assert machine.bus.read_raw(0x2000_0048, 4) == 1, nmi_cycle
        assert machine.cpu.vic.stats.serviced == 2, nmi_cycle
        # the NMI waited for the transfer to commit, then entered at the
        # next boundary: entry = pop end + the fixed entry overhead
        nmi_entry = [r for r in trace.by_category("irq")
                     if r.label == "enter" and r.data["number"] == 2]
        assert len(nmi_entry) == 1, nmi_cycle
        assert nmi_entry[0].time == end + Arm1156Core.ENTRY_OVERHEAD, nmi_cycle


ARM1156_SKIPPED_PUSH = """
main:
    movs r0, #1
    cmp r0, #0
    it eq
    pusheq {r4}
    movs r0, #2
    bx lr
"""


@pytest.mark.parametrize("fastpath", [False, True], ids=["reference", "trace"])
@pytest.mark.parametrize("queued", [None, 10**9], ids=["idle", "irq-queued"])
def test_arm1156_skipped_block_transfer_counts_as_skipped(fastpath, queued):
    """A block transfer its IT condition skips counts in
    ``instructions_skipped`` also while an IRQ is queued, when it takes
    the restartable-transfer step (an IRQ far in the future never fires)."""
    program = assemble(ARM1156_SKIPPED_PUSH, ISA_THUMB2, base=FLASH_BASE)
    machine = build_arm1156(program, interruptible_ldm=True)
    machine.cpu.fastpath = fastpath
    if queued is not None:
        machine.cpu.vic.raise_irq(1, handler=program.symbols["main"], at_cycle=queued)
    assert machine.call("main") == 2
    assert machine.cpu.instructions_executed == 6
    assert machine.cpu.instructions_skipped == 1
    assert machine.cpu.vic.stats.serviced == 0


#: controller operations: raise a request, remove the queued one at an
#: index, service whatever is pending at a cycle, and (NVIC) complete the
#: active handler, which tail-chains the next pending request
CONTROLLER_OPS = st.lists(st.one_of(
    st.tuples(st.just("raise"), st.integers(min_value=0, max_value=60),
              st.integers(min_value=0, max_value=3), st.booleans()),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("service"), st.integers(min_value=0, max_value=60)),
    st.tuples(st.just("complete"), st.integers(min_value=0, max_value=60)),
), max_size=40)


@pytest.mark.parametrize("controller_class", [NvicController, VicController])
@given(ops=CONTROLLER_OPS)
@settings(max_examples=150, deadline=None)
def test_controller_horizon_is_the_earliest_queued_assert(controller_class, ops):
    """After any sequence of raises and removals, a controller's event
    horizon is the minimum ``assert_cycle`` in its queue, or None when the
    queue is empty (the trace engine reads it instead of scanning), and
    the queue holds the same requests in the same order as appending each
    raise and stable-sorting by the service order: equal requests stay in
    raise order."""
    controller = controller_class()
    nvic = controller_class is NvicController
    remove = controller.take if nvic else controller.acknowledge
    model: list = []
    for number, op in enumerate(ops, start=1):
        kind, value = op[0], op[1]
        if kind == "raise":
            model.append(controller.raise_irq(number, handler=0, at_cycle=value,
                                              priority=op[2], nmi=op[3]))
            model.sort(key=controller._service_order)
        elif kind == "remove" and controller.queue:
            request = controller.queue[value % len(controller.queue)]
            remove(request)
            model.remove(request)
        elif kind == "service":
            request = controller.pending_at(value, masked=False)
            if request is not None:
                remove(request)
                model.remove(request)
        elif kind == "complete" and nvic:
            successor = controller.complete(value, masked=False)
            if successor is not None:
                model.remove(successor)
        assert controller.horizon == min(
            (request.assert_cycle for request in controller.queue), default=None)
        assert len(controller.queue) == len(model)
        assert all(a is b for a, b in zip(controller.queue, model))


#: ``{x}`` is the instruction the first NMI interrupts
TWO_NMI_SOURCE = """
main:
    movs r0, #1
    {x}
    movs r1, #2
    bx lr
handler:
    movs r3, #7
    adds r3, r3, #1
    bx lr
"""


@pytest.mark.parametrize("fastpath", [False, True], ids=["reference", "trace"])
@pytest.mark.parametrize("x", ["push {r4}", "movs r2, #0"], ids=["push", "movs"])
def test_arm1156_restartable_step_polls_once(x, fastpath):
    """Two NMIs due at cycle 1 on an ARM1156: the first enters before the
    second instruction of ``main``, and its handler's first instruction
    runs before the second NMI enters - also when the interrupted
    instruction is a block transfer, whose restartable step polls for
    itself.  All four cases enter at the same cycles."""
    program = assemble(TWO_NMI_SOURCE.format(x=x), ISA_THUMB2, base=FLASH_BASE)
    machine = build_arm1156(program, interruptible_ldm=True)
    machine.cpu.fastpath = fastpath
    handler = program.symbols["handler"]
    for number in (1, 2):
        machine.cpu.vic.raise_irq(number, handler=handler, at_cycle=1, nmi=True)
    assert machine.call("main") == 1
    records = machine.cpu.vic.stats.records
    assert [(r.number, r.entry_cycle) for r in records] == [(1, 19), (2, 25)]
