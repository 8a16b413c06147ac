"""Shared fixtures: a minimal ExecutionContext for ISA-level tests, and
the process telemetry registry switched on for one test."""

from __future__ import annotations

import pytest

from repro import obs
from repro.isa import Apsr, Condition, RegisterFile


class FakeCpu:
    """Just enough CPU for exercising instruction semantics directly.

    Flat byte-addressable memory, no timing, Thumb-style PC offset
    (``pc + 4``) unless constructed with ``arm_state=True``.
    """

    def __init__(self, arm_state: bool = False, mem_size: int = 0x10000):
        self.regs = RegisterFile()
        self.apsr = Apsr()
        self.memory = bytearray(mem_size)
        self.arm_state = arm_state
        self.branched_to: int | None = None
        self.interrupts_enabled = True
        self.it_blocks: list[tuple[Condition, str]] = []
        self.svc_calls: list[int] = []
        self.sleeping = False
        self.current_address = 0
        self.current_size = 4

    # -- ExecutionContext protocol ------------------------------------
    def read(self, addr: int, size: int) -> int:
        return int.from_bytes(self.memory[addr:addr + size], "little")

    def write(self, addr: int, size: int, value: int) -> None:
        self.memory[addr:addr + size] = value.to_bytes(size, "little")

    def branch(self, target: int) -> None:
        self.branched_to = target
        self.regs.pc = target

    def pc_read_value(self) -> int:
        return self.current_address + (8 if self.arm_state else 4)

    def set_interrupts_enabled(self, enabled: bool) -> None:
        self.interrupts_enabled = enabled

    def begin_it_block(self, firstcond: Condition, mask: str) -> None:
        self.it_blocks.append((firstcond, mask))

    def software_interrupt(self, number: int) -> None:
        self.svc_calls.append(number)

    def wait_for_interrupt(self) -> None:
        self.sleeping = True


@pytest.fixture
def cpu() -> FakeCpu:
    return FakeCpu()


@pytest.fixture
def arm_cpu() -> FakeCpu:
    return FakeCpu(arm_state=True)


@pytest.fixture
def obs_enabled():
    """Run one test with the process registry enabled, then restore."""
    was = obs.enabled()
    obs.enable()
    try:
        yield
    finally:
        (obs.enable if was else obs.disable)()
