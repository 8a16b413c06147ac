"""ARM7TDMI-like core model: 3-stage, von Neumann, software interrupt entry.

This is the Table 1 baseline.  Key timing properties reproduced:

* a **single bus port** shared by instruction fetch and data access - a
  data access (e.g. a literal-pool load) lands on the same flash device as
  the instruction stream and breaks its sequential prefetch (section 2.2);
* multi-cycle loads/stores and multiplies (the published ARM7TDMI cycle
  counts);
* interrupt entry only swaps the PC; saving registers is the handler's
  software preamble (:class:`~repro.core.vic.VicCore`; contrast
  :mod:`repro.core.nvic`).

The same core runs both the ARM and Thumb instruction sets (the program's
ISA decides), which is exactly how the paper's ARM7 rows differ.
"""

from __future__ import annotations

from repro.core.vic import VicCore


class Arm7Core(VicCore):
    """ARM7TDMI-style timing on the shared system bus."""

    name = "arm7"

    #: fixed interrupt entry overhead: synchronisation + pipeline refill
    ENTRY_OVERHEAD = 5

    # ------------------------------------------------------------------
    # memory paths: one port, I and D interleave on the same devices
    # ------------------------------------------------------------------
    _bus_fetch = True  # fetch_stalls is a plain bus delegation

    def fetch_stalls(self, addr: int, size: int) -> int:
        return self.bus.fetch_stalls(addr, size)

    def _data_inline_plan(self) -> str:
        return "direct"  # data path is the bare bus: no per-access checks

    def read(self, addr: int, size: int) -> int:
        value, stalls = self.bus.read(addr, size, "D")
        self._data_stalls += stalls
        return value

    def write(self, addr: int, size: int, value: int) -> None:
        self._data_stalls += self.bus.write(addr, size, value, "D")

    # ------------------------------------------------------------------
    # published ARM7TDMI cycle counts (S/N/I cycles folded together)
    # ------------------------------------------------------------------
    TAKEN_PENALTY = 2  # pipeline flush + refill
    EXTRA_CYCLES = {
        "LDR": 2, "LDRB": 2, "LDRH": 2, "LDRSB": 2, "LDRSH": 2,
        "STR": 1, "STRB": 1, "STRH": 1,
        "LDM": 1, "POP": 1,  # plus one cycle per register transferred
        "MUL": 2, "MLA": 3, "UMULL": 4, "SMULL": 4,
        "SVC": 2,
    }
    REGISTER_SHIFT_CYCLE = True  # a register-controlled shift adds an I-cycle
