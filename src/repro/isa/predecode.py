"""Predecode pass: each instruction once into a micro-op.

The reference interpreter (:func:`repro.isa.semantics.execute`) resolves
the condition code and the semantics handler on every single step.  This
module does both **once** per instruction: a :class:`MicroOp` is an
instruction, its predicate, its reference handler prebound to it, and its
kind.

* the condition check is hoisted into a prebound predicate (``None`` for
  unconditional instructions, so the hot loop pays nothing for AL);
* ``exec(cpu, outcome)`` is the instruction's handler from
  :mod:`repro.isa.semantics` with the instruction bound in, so per-step
  execution runs the reference semantics themselves and is
  *architecturally identical* to the slow path by construction;
* the kind - ``"alu"`` (pure register state), ``"mem"`` (touches the data
  bus, cannot branch) or ``"ctl"`` (may branch, halt, sleep, predicate or
  mask interrupts) - comes from one rule over the instruction
  (:func:`uop_kind`), with a derived ``chainable`` flag.

The trace engine (``BaseCpu._run_trace``) links chainable micro-ops to
their fall-through successor into superblocks; ``ctl`` micro-ops end one.
Hot superblocks run as generated code (:mod:`repro.core.superblock`),
which writes the hot shapes out inline and calls ``exec`` for the rest.

The table is keyed by program address and cached on the
:class:`~repro.isa.assembler.Program`, so every core model running the same
program shares one predecode.  Per-core *timing* is bound separately (see
``BaseCpu._bind_uop``); this module is timing-free, like the rest of
:mod:`repro.isa`.
"""

from __future__ import annotations

from typing import Callable

from repro.isa.conditions import Condition
from repro.isa.instructions import BLOCK_OPS, LOAD_OPS, STORE_OPS, Instruction
from repro.isa.registers import MASK32, PC
from repro.isa.semantics import _DISPATCH, Outcome, UndefinedInstruction

ExecFn = Callable[[object, Outcome], None]

#: Per-condition flag predicates (AL is represented as ``None``: no check).
COND_CHECKS: dict[Condition, Callable] = {
    Condition.EQ: lambda f: f.z,
    Condition.NE: lambda f: not f.z,
    Condition.CS: lambda f: f.c,
    Condition.CC: lambda f: not f.c,
    Condition.MI: lambda f: f.n,
    Condition.PL: lambda f: not f.n,
    Condition.VS: lambda f: f.v,
    Condition.VC: lambda f: not f.v,
    Condition.HI: lambda f: f.c and not f.z,
    Condition.LS: lambda f: not (f.c and not f.z),
    Condition.GE: lambda f: f.n == f.v,
    Condition.LT: lambda f: f.n != f.v,
    Condition.GT: lambda f: not f.z and f.n == f.v,
    Condition.LE: lambda f: f.z or f.n != f.v,
}

#: mnemonics that may branch, sleep, predicate, or mask IRQs
_CTL_OPS = frozenset({"B", "BL", "BX", "BLX", "TBB", "TBH", "IT",
                      "WFI", "CPSID", "CPSIE", "SVC"})
#: mnemonics that touch the data bus
_MEM_OPS = LOAD_OPS | STORE_OPS | BLOCK_OPS


def _names_pc(ins: Instruction) -> bool:
    """True when any operand of ``ins`` is the PC, but for the base of a
    literal load (``ldr rX, [pc, #imm]``: no index, no write-back)."""
    mem = ins.mem
    regs = [ins.rd, ins.rn, ins.rm, ins.ra, *ins.reglist]
    if mem is not None:
        regs.append(mem.rm)
        literal = (ins.mnemonic in LOAD_OPS and mem.rm is None
                   and not mem.writeback and not mem.postindex)
        if not literal:
            regs.append(mem.rn)
    return PC in regs


def uop_kind(ins: Instruction) -> str:
    """The micro-op kind of ``ins``: ``"ctl"`` for the control and system
    mnemonics, a mnemonic with no handler, and any instruction that names
    the PC (a literal load's base excepted); ``"mem"`` for loads, stores
    and block transfers; ``"alu"`` for everything else."""
    op = ins.mnemonic
    if op in _CTL_OPS or op not in _DISPATCH or _names_pc(ins):
        return "ctl"
    return "mem" if op in _MEM_OPS else "alu"


def _prebound(ins: Instruction) -> ExecFn:
    """``exec(cpu, outcome)``: the reference handler of ``ins``, prebound
    (so the dispatch dict lookup disappears), or a raise for a mnemonic
    with none."""
    handler = _DISPATCH.get(ins.mnemonic)
    if handler is None:
        def ex(cpu, outcome, op=ins.mnemonic):
            raise UndefinedInstruction(op)
        return ex

    def ex(cpu, outcome, handler=handler, ins=ins):
        handler(cpu, ins, outcome)
    return ex


class MicroOp:
    """One predecoded instruction, ready for the fast execution loop.

    ``exec`` is the instruction's reference handler, prebound.  ``kind``
    (:func:`uop_kind`) classifies it for the trace engine:

    * ``"alu"``  - mutates registers/flags only; cannot branch, halt,
      sleep, touch memory, or start an IT block;
    * ``"mem"``  - additionally performs data-side accesses (so the
      executor must account ``_data_stalls``), still cannot branch;
    * ``"ctl"``  - everything else: branches, IT, WFI, SVC, CPS, and
      anything that names the PC.

    Only ``alu``/``mem`` micro-ops are ``chainable`` into superblocks.

    ``branch_target`` is the statically resolved branch destination for
    direct ``B``/``BL`` micro-ops (``None`` otherwise), and
    ``is_back_edge`` marks a direct ``B`` whose target is at or before its
    own address - the back-edge that closes a natural loop, whose range
    the trace engine fuses as one region (``repro.core.cpu.loop_regions``).
    """

    __slots__ = ("ins", "address", "size", "next_pc", "cond_check", "exec",
                 "is_it", "kind", "chainable", "is_block_op",
                 "branch_target", "is_back_edge")

    def __init__(self, ins: Instruction) -> None:
        self.ins = ins
        self.address = ins.address
        self.size = ins.size
        self.next_pc = ins.address + ins.size
        self.is_it = ins.mnemonic == "IT"
        cond = ins.cond
        if self.is_it or cond == Condition.AL:
            self.cond_check = None
        else:
            self.cond_check = COND_CHECKS[cond]
        self.exec = _prebound(ins)
        self.kind = uop_kind(ins)
        self.is_block_op = ins.mnemonic in BLOCK_OPS
        self.chainable = self.kind != "ctl"
        if ins.mnemonic in ("B", "BL") and ins.target is not None and ins.rm is None:
            self.branch_target = ins.target & MASK32
        else:
            self.branch_target = None
        self.is_back_edge = (self.branch_target is not None
                             and ins.mnemonic == "B"
                             and self.branch_target <= self.address)


def predecode(program) -> dict[int, MicroOp]:
    """Predecode every instruction of ``program`` into a micro-op table.

    The table is built from the program's execution index (the same map
    ``instruction_at`` consults) and cached on the program object: all
    cores executing the same program (e.g. a whole campaign's worth of CPU
    instances) share one pass.  A program is immutable once assembled, so
    the table is never rebuilt: to run two images on one core, assemble
    them as one program; to patch code, patch bytes (the FPB route).

    This table is the first of two per-Program caches.  The second is the
    trace engine's plans (``repro.core.cpu.engine_plan``): per core
    configuration, the superblocks built over these micro-ops, their cycle
    caps and fused code.
    """
    table = getattr(program, "_uop_table", None)
    if table is None:
        table = program._uop_table = {
            address: MicroOp(ins) for address, ins in program._by_address.items()
        }
    return table
