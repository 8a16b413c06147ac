"""Every core's cycle costs, pinned to a committed table.

Each core declares its cycle model once, and ``BaseCpu`` derives two
views of it: ``instruction_cycles(ins, outcome)`` for the reference
``step()`` and ``compile_cycles(ins)`` for the trace engine (a closure
whose ``static_base``/``static_taken`` the fused-code emitters fold in as
constants and the block caps bound with).  This test pins both views for
every mnemonic, four operand variants and 64 outcome shapes on all three
cores, so a cycle-model edit shows up as a table diff rather than as a
drifted campaign record, and the two derivations cannot drift apart.

The table lives in ``tests/golden/cycle_costs.json``: the distinct cost
rows once (``[static_base, static_taken, [cost per outcome]]``), and a
row id per core, mnemonic and variant.  To regenerate after an
*intentional* timing-model change::

    PYTHONPATH=src python tests/test_cycle_table.py

then review the diff: every altered number changes the cycle counts of
every program that runs the instruction.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

from repro.core import FLASH_BASE, build_arm7, build_arm1156, build_cortexm3
from repro.isa import ISA_THUMB, ISA_THUMB2, Outcome, Shift, assemble, instr
from repro.isa.instructions import ALL_MNEMONICS, BLOCK_OPS

TABLE_PATH = Path(__file__).parent / "golden" / "cycle_costs.json"

#: (taken, skipped, regs_transferred, div_early_exit) shapes, in table order
OUTCOMES = tuple(product((False, True), (False, True), (0, 1, 3, 8), (1, 7, 17, 32)))

#: the operand variants each mnemonic is costed under, in table order
VARIANTS = (
    ("plain", {}),
    ("reglist=r0-r2", {"reglist": (0, 1, 2)}),
    ("rm=r1", {"rm": 1}),
    ("rm=r1, LSL #2", {"rm": 1, "shift": Shift("LSL", 2)}),
)


def _cores() -> dict:
    thumb2 = assemble("main:\n    bx lr\n", ISA_THUMB2, base=FLASH_BASE)
    thumb = assemble("main:\n    bx lr\n", ISA_THUMB, base=FLASH_BASE)
    return {"arm7": build_arm7(thumb).cpu,
            "arm1156": build_arm1156(thumb2).cpu,
            "m3": build_cortexm3(thumb2).cpu}


def _outcome(shape) -> Outcome:
    taken, skipped, regs, div = shape
    return Outcome(taken=taken, skipped=skipped, regs_transferred=regs,
                   div_early_exit=div)


def _reachable(ins, shape) -> bool:
    """A block transfer's handler always sets ``regs_transferred`` to the
    register count, so the prebound closure is only defined there."""
    return ins.mnemonic not in BLOCK_OPS or shape[2] == len(ins.reglist)


def compute_table() -> dict:
    """Both derivations of every core's cycle model over the sweep."""
    rows: list = []
    row_ids: dict = {}
    cores = {}
    for name, cpu in _cores().items():
        per_mnemonic = {}
        for mnemonic in sorted(ALL_MNEMONICS):
            ids = []
            for _, kwargs in VARIANTS:
                ins = instr(mnemonic, **kwargs)
                fn = cpu.compile_cycles(ins)
                row = (getattr(fn, "static_base", None),
                       getattr(fn, "static_taken", None),
                       tuple(cpu.instruction_cycles(ins, _outcome(shape))
                             for shape in OUTCOMES))
                if row not in row_ids:
                    row_ids[row] = len(rows)
                    rows.append(row)
                ids.append(row_ids[row])
            per_mnemonic[mnemonic] = ids
        cores[name] = per_mnemonic
    return {"rows": rows, "cores": cores}


def test_both_derivations_reproduce_the_pinned_cycle_table():
    pinned = json.loads(TABLE_PATH.read_text(encoding="utf-8"))
    assert [tuple(shape) for shape in pinned["outcomes"]] == list(OUTCOMES)
    assert pinned["variants"] == [label for label, _ in VARIANTS]
    rows = pinned["rows"]
    checked = 0
    for name, cpu in _cores().items():
        assert sorted(pinned["cores"][name]) == sorted(ALL_MNEMONICS), name
        for mnemonic, ids in pinned["cores"][name].items():
            for (label, kwargs), row_id in zip(VARIANTS, ids):
                ins = instr(mnemonic, **kwargs)
                base, taken, costs = rows[row_id]
                where = (name, mnemonic, label)
                fn = cpu.compile_cycles(ins)
                assert getattr(fn, "static_base", None) == base, where
                assert getattr(fn, "static_taken", None) == taken, where
                for shape, cost in zip(OUTCOMES, costs):
                    outcome = _outcome(shape)
                    assert cpu.instruction_cycles(ins, outcome) == cost, (where, shape)
                    if _reachable(ins, shape):
                        assert fn(outcome) == cost, (where, shape)
                    checked += 1
    assert checked == 3 * len(ALL_MNEMONICS) * len(VARIANTS) * len(OUTCOMES)


def regenerate() -> None:
    """Recompute the table from the live cycle models and write it."""
    table = compute_table()
    lines = [
        "{",
        ' "_comment": ' + json.dumps(
            "Pinned cycle costs per core, mnemonic and operand variant; "
            "regenerate with 'PYTHONPATH=src python tests/test_cycle_table.py' "
            "and review every changed number as a timing-model change.") + ",",
        ' "outcomes": ' + json.dumps([list(shape) for shape in OUTCOMES]) + ",",
        ' "variants": ' + json.dumps([label for label, _ in VARIANTS]) + ",",
        ' "rows": [',
        ",\n".join("  " + json.dumps([base, taken, list(costs)])
                   for base, taken, costs in table["rows"]),
        " ],",
        ' "cores": {',
    ]
    cores = table["cores"]
    for position, name in enumerate(sorted(cores)):
        lines.append(f"  {json.dumps(name)}: {{")
        lines.append(",\n".join(f"   {json.dumps(m)}: {json.dumps(ids)}"
                                for m, ids in sorted(cores[name].items())))
        lines.append("  }" + ("," if position < len(cores) - 1 else ""))
    lines += [" }", "}"]
    TABLE_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {TABLE_PATH} ({len(table['rows'])} distinct rows)")


if __name__ == "__main__":
    regenerate()
