"""Integration tests: every kernel, every ISA, cross-checked four ways."""

import dataclasses

import pytest

from repro.codegen import IrInterpreter, IrMemory, compile_program
from repro.core import FLASH_BASE, SRAM_BASE
from repro.isa import ISA_ARM, ISA_THUMB, ISA_THUMB2
from repro.sim import DeterministicRng
from repro.workloads import AUTOINDY_SUITE, WORKLOADS_BY_NAME, run_kernel, run_suite, table1
from repro.workloads.harness import seeded_input

ALL_ISAS = (ISA_ARM, ISA_THUMB, ISA_THUMB2)
CORE_FOR = {ISA_ARM: "arm7", ISA_THUMB: "arm7", ISA_THUMB2: "m3"}


@pytest.mark.parametrize("workload", AUTOINDY_SUITE, ids=lambda w: w.name)
def test_reference_matches_ir_interpreter(workload):
    prepared = workload.make_input(DeterministicRng(7), 1)
    interp = IrInterpreter(IrMemory(size=0x20000, base=SRAM_BASE))
    interp.memory.load_bytes(SRAM_BASE, prepared.data)
    got = interp.run(workload.build(), *prepared.args(SRAM_BASE))
    expected = workload.reference(prepared.data, *prepared.args(0))
    assert got == expected


@pytest.mark.parametrize("workload", AUTOINDY_SUITE, ids=lambda w: w.name)
@pytest.mark.parametrize("isa", ALL_ISAS)
def test_kernel_on_hardware_model(workload, isa):
    run = run_kernel(workload, CORE_FOR[isa], isa, seed=11)
    assert run.verified, (
        f"{workload.name}/{isa}: got {run.result:#x}, expected {run.expected:#x}")
    assert run.cycles > 0
    assert run.instructions > 0


@pytest.mark.parametrize("workload", AUTOINDY_SUITE, ids=lambda w: w.name)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernels_agree_across_isas_random_inputs(workload, seed):
    results = {isa: run_kernel(workload, CORE_FOR[isa], isa, seed=seed).result
               for isa in ALL_ISAS}
    assert len(set(results.values())) == 1, results


@pytest.mark.parametrize("workload", AUTOINDY_SUITE, ids=lambda w: w.name)
def test_kernel_code_density_shape(workload):
    """Thumb and Thumb-2 must be meaningfully denser than ARM per kernel."""
    sizes = {}
    for isa in ALL_ISAS:
        program = compile_program([workload.build()], isa, base=FLASH_BASE)
        sizes[isa] = program.code_bytes + program.literal_bytes
    assert sizes[ISA_THUMB] < sizes[ISA_ARM], sizes
    assert sizes[ISA_THUMB2] < sizes[ISA_ARM], sizes


def test_suite_result_aggregates():
    suite = run_suite("ARM7 (ARM)", "arm7", ISA_ARM, seed=5)
    assert suite.all_verified
    assert suite.geometric_mean > 0
    assert suite.code_size > 0
    assert len(suite.runs) == 6


def test_table1_shape():
    """The paper's Table 1 shape: Thumb slower than ARM, Thumb-2 faster
    than both; Thumb/Thumb-2 code roughly 55-75% of ARM."""
    results = table1(seed=2005)
    arm, thumb, thumb2 = results
    assert all(s.all_verified for s in results)

    # performance shape (paper: 100% / 79% / 137%)
    assert thumb.geometric_mean < arm.geometric_mean
    assert thumb2.geometric_mean > arm.geometric_mean

    # code size shape (paper: 100% / 57% / 57%)
    assert thumb.code_size < 0.8 * arm.code_size
    assert thumb2.code_size < 0.8 * arm.code_size


def test_workloads_registry():
    assert set(WORKLOADS_BY_NAME) == {"ttsprk", "tblook", "canrdr",
                                      "bitmnp", "rspeed", "puwmod"}


def test_scaled_inputs_scale_cycles():
    workload = WORKLOADS_BY_NAME["canrdr"]
    small = run_kernel(workload, "m3", ISA_THUMB2, seed=3, scale=1)
    large = run_kernel(workload, "m3", ISA_THUMB2, seed=3, scale=4)
    assert large.verified and small.verified
    assert large.cycles > 2 * small.cycles


def test_seeded_input_is_one_object_per_key():
    """Every run of a kernel on one (seed, scale) shares one memoised,
    frozen input and its reference answer; another seed or scale is
    another entry."""
    workload = WORKLOADS_BY_NAME["tblook"]
    first = seeded_input(workload, 5, 2)
    assert seeded_input(workload, 5, 2) is first
    assert seeded_input(workload, 6, 2) is not first
    assert seeded_input(workload, 5, 3) is not first
    prepared, answer = first
    fresh = workload.make_input(DeterministicRng(5), 2)
    assert prepared == fresh
    assert answer == workload.reference(fresh.data, *fresh.args(0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        prepared.data = b""


def test_data_override_is_checked_against_its_own_image():
    """A run on an overridden image (the soft-error domain's corrupted
    copy) is verified against the reference for that image, not the
    memoised answer of the seeded one."""
    from repro.sim.domains.kernel import execute_workload

    workload = WORKLOADS_BY_NAME["canrdr"]
    prepared, answer = seeded_input(workload, 9, 1)
    image = bytes([prepared.data[0] ^ 0x10]) + prepared.data[1:]
    outcome = execute_workload("m3", ISA_THUMB2, "canrdr", 9, 1, data=image)
    assert outcome.expected == workload.reference(image, *prepared.args(0))
    assert outcome.expected != answer
    assert outcome.result == outcome.expected
    assert seeded_input(workload, 9, 1)[1] == answer
