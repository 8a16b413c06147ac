"""Engine-controller scenario: tooth-to-spark on the high-end core.

The paper's running automotive example (section 3.1.2): the tooth-to-spark
function needs "regular and timely action" even on a cached, 200 MHz-class
core.  This example runs the ttsprk kernel on the ARM1156 model, fires a
crank-synchronous interrupt at it, and shows how the interruptible LDM
keeps worst-case latency bounded while caches stay enabled.

Run:  python examples/engine_ecu.py
"""

from repro.codegen import compile_functions
from repro.core import FLASH_BASE, SRAM_BASE, build_arm1156
from repro.isa import ISA_THUMB2
from repro.isa.assembler import assemble_items, parse_line
from repro.sim import DeterministicRng
from repro.workloads import WORKLOADS_BY_NAME

CRANK_HANDLER = """
crank_isr:
    push {r0, r1, lr}      ; software preamble: save EVERYTHING we touch
    movw r1, #0x0800
    movt r1, #0x2000
    ldr r0, [r1]
    adds r0, r0, #1
    str r0, [r1]
    pop {r0, r1, pc}       ; software postamble + return
"""


def run(interruptible_ldm: bool) -> tuple[int, int]:
    workload = WORKLOADS_BY_NAME["ttsprk"]
    fn = workload.build()
    # link the compiled kernel and the hand-written handler into one image
    items = compile_functions([fn], ISA_THUMB2)
    for line in CRANK_HANDLER.splitlines():
        items.extend(parse_line(line))
    program = assemble_items(items, ISA_THUMB2, base=FLASH_BASE)
    machine = build_arm1156(program, interruptible_ldm=interruptible_ldm,
                            flash_access_cycles=4, sram_wait_states=2)

    prepared = workload.make_input(DeterministicRng(7), scale=4)
    machine.load_data(SRAM_BASE, prepared.data)
    machine.cpu.vic.raise_irq(0, handler=program.symbols["crank_isr"],
                              at_cycle=400)
    result = machine.call(fn.name, *prepared.args(SRAM_BASE))
    expected = workload.reference(prepared.data, *prepared.args(0))
    assert result == expected, "kernel corrupted by interrupt handling!"
    latency = machine.cpu.vic.stats.records[0].latency
    return machine.cpu.cycles, latency


def main() -> None:
    print("engine ECU: ttsprk under a crank-synchronous interrupt (ARM1156)")
    for interruptible in (False, True):
        cycles, latency = run(interruptible)
        mode = "restartable LDM/STM" if interruptible else "blocking LDM/STM  "
        print(f"  {mode}: kernel={cycles} cycles, "
              f"crank IRQ latency={latency} cycles")
    print("the spark advance result is identical either way - the paper's")
    print("predictability feature changes *when*, never *what*.")
    print("(ttsprk has no long LDMs, so latencies match here; the worst-case")
    print(" contrast is measured in benchmarks/bench_ldm_latency.py)")


if __name__ == "__main__":
    main()
