"""The CPU-kernel scenario domain: AutoIndy kernels on the core models.

The original campaign axis (Table 1 / Figure 4): compile a kernel for a
(core, ISA) configuration, run it on the matching core model with a
deterministic input, verify against the pure-Python reference, and record
cycles and code size - optionally under a deterministic IRQ storm.

Interrupt profiles
------------------
A scenario may carry an :class:`~repro.sim.campaign.InterruptProfile`: a
deterministic storm of IRQs raised against the NVIC while the kernel
runs.  Profiles are limited to the Cortex-M3, and that restriction is the
paper's own section 3.2.1 point: hardware stacking makes handlers plain
compiled functions, so a C-level ``irq_tick`` can preempt an arbitrary
kernel without corrupting it.  On the VIC cores a compiled handler would
clobber caller-saved registers (the software preamble the paper
contrasts), so asking for a profile there raises ``ValueError`` rather
than silently mis-executing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.campaign import IRQ_COUNTER_OFFSET, ScenarioRecord
from repro.sim.domains import ScenarioDomain


@dataclass
class KernelOutcome:
    """One verified machine execution (shared with the soft_error domain)."""

    result: int
    expected: int
    cycles: int
    instructions: int
    code_bytes: int
    total_bytes: int
    machine: object
    program: object
    data: bytes


def _run_compiled(core: str, program, workload, seed: int,
                  scale: int, machine_kwargs: tuple = (),
                  fastpath: bool = True, data: bytes | None = None,
                  before_call=None) -> KernelOutcome:
    """The one compile-free half of the kernel pipeline: build a machine
    for an already-compiled program, load the seeded input exactly as the
    Table 1 harness does (one memoised input and reference answer per
    kernel, seed and scale: :func:`~repro.workloads.harness.seeded_input`),
    run the kernel's entry (its workload name), and verify against the
    pure-Python reference.

    ``data`` overrides the seeded input blob (same length) - the
    soft_error domain uses this to run the CPU on an upset-corrupted
    image while ``expected`` still reflects the loaded bytes (the
    reference is computed for that image).
    ``before_call(machine)`` runs after loading, before execution (the
    kernel domain schedules its IRQ storm there).
    """
    from repro.core import SRAM_BASE, build_machine
    from repro.workloads.harness import seeded_input

    machine = build_machine(core, program, **dict(machine_kwargs))
    machine.cpu.fastpath = fastpath
    prepared, expected = seeded_input(workload, seed, scale)
    blob = prepared.data if data is None else data
    if len(blob) != len(prepared.data):
        raise ValueError("data override must match the seeded input length")
    machine.load_data(SRAM_BASE, blob)
    if before_call is not None:
        before_call(machine)
    result = machine.call(workload.name, *prepared.args(SRAM_BASE))
    if data is not None:
        expected = workload.reference(blob, *prepared.args(0))
    return KernelOutcome(
        result=result, expected=expected,
        cycles=machine.cpu.cycles,
        instructions=machine.cpu.instructions_executed,
        code_bytes=program.code_bytes,
        total_bytes=program.code_bytes + program.literal_bytes,
        machine=machine, program=program, data=blob,
    )


def execute_workload(core: str, isa: str, workload_name: str, seed: int,
                     scale: int, machine_kwargs: tuple = (),
                     fastpath: bool = True,
                     data: bytes | None = None) -> KernelOutcome:
    """Compile (once per process) and run one AutoIndy kernel on a real
    core model."""
    # Imports are local so the module stays import-light for worker spawn.
    from repro.workloads.harness import compiled_kernel
    from repro.workloads.kernels import WORKLOADS_BY_NAME

    if workload_name not in WORKLOADS_BY_NAME:
        raise KeyError(f"unknown workload {workload_name!r}")
    workload = WORKLOADS_BY_NAME[workload_name]
    program = compiled_kernel(workload, isa)
    return _run_compiled(core, program, workload, seed, scale,
                         machine_kwargs=machine_kwargs, fastpath=fastpath,
                         data=data)


def _build_irq_tick():
    """A compiled handler: bump a counter word.  Safe to enter from any
    kernel instruction *on the Cortex-M3 only* (hardware stacking)."""
    from repro.codegen import IrBuilder
    from repro.core import SRAM_BASE

    b = IrBuilder("irq_tick", num_params=0)
    addr = b.const(SRAM_BASE + IRQ_COUNTER_OFFSET)
    b.store(b.add(b.load(addr, 0), 1), addr, 0)
    b.ret(b.const(0))
    return b.build()


class KernelDomain(ScenarioDomain):
    """AutoIndy kernels on the core models, optionally under IRQ storms."""

    name = "kernel"
    record_class = ScenarioRecord

    def build(self, spec):
        from repro.workloads.harness import compiled_kernel
        from repro.workloads.kernels import WORKLOADS_BY_NAME

        if not (spec.core and spec.isa and spec.workload):
            raise ValueError(
                f"kernel domain needs core/isa/workload, got {spec!r}")
        if spec.workload not in WORKLOADS_BY_NAME:
            raise KeyError(f"unknown workload {spec.workload!r}")
        if spec.interrupts is not None and spec.core not in ("m3", "cortex-m3"):
            raise ValueError(
                "interrupt profiles require the Cortex-M3's hardware stacking; "
                f"core {spec.core!r} would corrupt caller-saved registers")
        workload = WORKLOADS_BY_NAME[spec.workload]
        handler = _build_irq_tick if spec.interrupts is not None else None
        return workload, compiled_kernel(workload, spec.isa, handler)

    def execute(self, spec, built):
        from repro.core import SRAM_BASE

        workload, program = built

        def schedule_storm(machine) -> None:
            if spec.interrupts is None:
                return
            handler = program.symbols["irq_tick"]
            for number, cycle, priority in spec.interrupts.schedule(spec.rng()):
                machine.cpu.nvic.raise_irq(number, handler=handler,
                                           at_cycle=cycle, priority=priority)

        # Inputs are seeded exactly as the Table 1 harness seeds them, so a
        # campaign over the same matrix reproduces run_kernel()
        # cycle-for-cycle; the scenario-private stream (spec.rng) drives
        # the stochastic extras.
        outcome = _run_compiled(spec.core, program, workload,
                                spec.seed, spec.scale,
                                machine_kwargs=spec.machine_kwargs,
                                fastpath=spec.fastpath,
                                before_call=schedule_storm)

        serviced = tail_chained = irq_ticks = 0
        if spec.interrupts is not None:
            stats = outcome.machine.cpu.nvic.stats
            serviced = stats.serviced
            tail_chained = stats.tail_chained
            irq_ticks = outcome.machine.bus.read_raw(
                SRAM_BASE + IRQ_COUNTER_OFFSET, 4)

        return ScenarioRecord(
            label=spec.label, core=spec.core, isa=spec.isa,
            workload=spec.workload, seed=spec.seed, scale=spec.scale,
            result=outcome.result, expected=outcome.expected,
            cycles=outcome.cycles, instructions=outcome.instructions,
            code_bytes=outcome.code_bytes, total_bytes=outcome.total_bytes,
            irqs_serviced=serviced, irqs_tail_chained=tail_chained,
            irq_ticks=irq_ticks,
        )


DOMAIN = KernelDomain()
