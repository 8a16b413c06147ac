"""Measurement harness over the AutoIndy-style suite.

Provides the machinery behind Table 1 / Figure 1: compile each kernel for
a (core, ISA) configuration, run it on the matching core model with a
deterministic input, verify the result against the pure-Python reference,
and report cycles and code size.  The headline metric mirrors the paper's
"Scaled GM/MHz": kernel iterations per million cycles, geometric-mean'd
across the suite (clock frequency divides out, exactly as in GM/MHz).

Two memos make a campaign's many cells share what does not depend on the
core: :func:`compiled_kernel` (one Program per kernel, ISA and build
options) and :func:`seeded_input` (one input and reference answer per
kernel, seed and scale).  Both are bounded and per process.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from repro.codegen import compile_program
from repro.core import FLASH_BASE, SRAM_BASE, build_arm7, build_cortexm3
from repro.isa import ISA_ARM, ISA_THUMB, ISA_THUMB2, Program
from repro.sim.rng import DeterministicRng
from repro.workloads.kernels import AUTOINDY_SUITE, Workload, WorkloadInput

#: The paper's Table 1 rows: (label, core builder, ISA).
TABLE1_CONFIGS = (
    ("ARM7 (ARM)", "arm7", ISA_ARM),
    ("ARM7 (Thumb)", "arm7", ISA_THUMB),
    ("Cortex-M3 (Thumb-2)", "m3", ISA_THUMB2),
)


@dataclass
class KernelRun:
    """One verified kernel execution."""

    workload: str
    isa: str
    core: str
    result: int
    expected: int
    cycles: int
    instructions: int
    code_bytes: int
    total_bytes: int

    @property
    def verified(self) -> bool:
        return self.result == self.expected

    @property
    def iterations_per_mcycle(self) -> float:
        return 1_000_000 / self.cycles if self.cycles else 0.0


@dataclass
class SuiteResult:
    """All kernels for one (core, ISA) configuration."""

    label: str
    core: str
    isa: str
    runs: list[KernelRun] = field(default_factory=list)
    suite_code_bytes: int = 0  # one combined build: helpers linked once

    @property
    def geometric_mean(self) -> float:
        """GM of iterations/Mcycle across the suite (the GM/MHz analogue)."""
        values = [r.iterations_per_mcycle for r in self.runs]
        if not values or any(v <= 0 for v in values):
            return 0.0
        return math.exp(sum(math.log(v) for v in values) / len(values))

    @property
    def code_size(self) -> int:
        """Code bytes for the suite built as one program (shared helpers),
        the way a real firmware image would link it."""
        if self.suite_code_bytes:
            return self.suite_code_bytes
        return sum(r.total_bytes for r in self.runs)

    @property
    def all_verified(self) -> bool:
        return all(r.verified for r in self.runs)


@functools.lru_cache(maxsize=128)
def compiled_kernel(workload: Workload, isa: str, handler=None,
                    backend_options: tuple = ()) -> Program:
    """One kernel compiled for ``isa`` at ``FLASH_BASE``, once per process.

    Memoised by (kernel, ISA, handler, backend options): ``handler`` is an
    optional zero-argument builder of a second IR function linked after
    the kernel (the kernel domain's IRQ tick), ``backend_options`` the
    ``compile_program`` options as sorted ``(name, value)`` pairs.  Every
    machine running the same configuration shares one
    :class:`~repro.isa.Program`, and with it the micro-op table
    ``predecode`` caches on it and the trace engine's plans.  The Program
    is therefore immutable: never patch it in place - compile a private
    copy with :func:`~repro.codegen.compile_program` to patch one.  The
    kernel's entry symbol is its workload name.
    """
    functions = [workload.build()]
    if handler is not None:
        functions.append(handler())
    return compile_program(functions, isa, base=FLASH_BASE,
                           **dict(backend_options))


@functools.lru_cache(maxsize=128)
def seeded_input(workload: Workload, seed: int,
                 scale: int) -> tuple[WorkloadInput, int]:
    """One kernel's seeded input and its reference answer, once per process.

    Memoised by (kernel, seed, scale), beside :func:`compiled_kernel`:
    every core configuration that runs the kernel on that input loads the
    same (frozen) :class:`~repro.workloads.kernels.WorkloadInput` and is
    checked against the same pure-Python answer, so neither the seeded
    generation nor the reference is repeated per machine.  A run on any
    other image (the soft-error domain's corrupted copy) computes the
    reference for that image itself.
    """
    prepared = workload.make_input(DeterministicRng(seed), scale)
    return prepared, workload.reference(prepared.data, *prepared.args(0))


def _build_machine(core: str, program, **kwargs):
    if core == "arm7":
        return build_arm7(program, **kwargs)
    if core in ("m3", "cortex-m3"):
        return build_cortexm3(program, **kwargs)
    raise ValueError(f"unknown core {core!r}")


def run_kernel(workload: Workload, core: str, isa: str, seed: int = 2005,
               scale: int = 1, machine_kwargs: dict | None = None,
               backend_options: dict | None = None) -> KernelRun:
    """Compile, execute, and verify one kernel on one configuration."""
    program = compiled_kernel(
        workload, isa, backend_options=tuple(sorted((backend_options or {}).items())))
    machine = _build_machine(core, program, **(machine_kwargs or {}))
    prepared, expected = seeded_input(workload, seed, scale)
    machine.load_data(SRAM_BASE, prepared.data)
    result = machine.call(workload.name, *prepared.args(SRAM_BASE))
    return KernelRun(
        workload=workload.name, isa=isa, core=core,
        result=result, expected=expected,
        cycles=machine.cpu.cycles,
        instructions=machine.cpu.instructions_executed,
        code_bytes=program.code_bytes,
        total_bytes=program.code_bytes + program.literal_bytes,
    )


def _combined_code_size(isa: str, backend_options: dict | None = None) -> int:
    """Code+literal bytes of the suite linked as one image (shared helpers)."""
    combined = compile_program([w.build() for w in AUTOINDY_SUITE], isa,
                               base=FLASH_BASE, **(backend_options or {}))
    return combined.code_bytes + combined.literal_bytes


def run_suite(label: str, core: str, isa: str, seed: int = 2005, scale: int = 1,
              machine_kwargs: dict | None = None,
              backend_options: dict | None = None) -> SuiteResult:
    """Run the whole suite on one configuration."""
    suite = SuiteResult(label=label, core=core, isa=isa)
    for workload in AUTOINDY_SUITE:
        suite.runs.append(run_kernel(workload, core, isa, seed=seed, scale=scale,
                                     machine_kwargs=machine_kwargs,
                                     backend_options=backend_options))
    suite.suite_code_bytes = _combined_code_size(isa, backend_options)
    return suite


def table1(seed: int = 2005, scale: int = 1,
           machine_kwargs: dict | None = None,
           workers: int | None = None) -> list[SuiteResult]:
    """Reproduce the paper's Table 1: three configurations over the suite.

    ``workers`` > 1 fans the 18-cell scenario matrix across processes via
    the campaign runner (:mod:`repro.sim.campaign`); the aggregated result
    is identical to the serial run for any worker count.
    """
    if workers is None or workers <= 1:
        return [run_suite(label, core, isa, seed=seed, scale=scale,
                          machine_kwargs=machine_kwargs)
                for label, core, isa in TABLE1_CONFIGS]

    from repro.sim.campaign import CampaignRequest, execute_request, table1_matrix

    kwargs_tuple = tuple(sorted((machine_kwargs or {}).items()))
    specs = table1_matrix(seed=seed, scale=scale, machine_kwargs=kwargs_tuple)
    campaign = execute_request(
        CampaignRequest(specs=tuple(specs), workers=workers))
    results: list[SuiteResult] = []
    records = iter(campaign.records)
    for label, core, isa in TABLE1_CONFIGS:
        suite = SuiteResult(label=label, core=core, isa=isa)
        for _ in AUTOINDY_SUITE:
            suite.runs.append(next(records).to_kernel_run())
        suite.suite_code_bytes = _combined_code_size(isa)
        results.append(suite)
    return results


def format_table1(results: list[SuiteResult]) -> str:
    """Render results in the paper's Table 1 layout (baseline = first row)."""
    base_perf = results[0].geometric_mean
    base_size = results[0].code_size
    lines = ["Processor Core        Scaled GM (iters/Mcycle)"]
    for suite in results:
        pct = 100.0 * suite.geometric_mean / base_perf if base_perf else 0.0
        lines.append(f"{suite.label:<22}{suite.geometric_mean:10.1f}  ({pct:5.1f}%)")
    lines.append("")
    lines.append("Processor Core        Code Size (bytes)")
    for suite in results:
        pct = 100.0 * suite.code_size / base_size if base_size else 0.0
        lines.append(f"{suite.label:<22}{suite.code_size:10d}  ({pct:5.1f}%)")
    return "\n".join(lines)
