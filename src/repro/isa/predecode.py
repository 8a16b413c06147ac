"""Predecode pass: compile instructions into bound micro-op closures.

The baseline interpreter (:func:`repro.isa.semantics.execute`) re-resolves
the condition code, the operand shape, and the semantics handler on every
single step, which makes large campaign runs (Table 1 sweeps, Figure 4
interrupt storms) interpreter-bound rather than model-bound.  This module
compiles each :class:`~repro.isa.instructions.Instruction` **once** into a
:class:`MicroOp`:

* the condition check is hoisted into a prebound predicate (``None`` for
  unconditional instructions, so the hot loop pays nothing for AL);
* operand decode is folded at compile time - immediates are pre-masked,
  PC-relative literal addresses become constants, register numbers become
  captured locals indexing ``cpu.regs.values`` directly;
* the semantics dispatch dict lookup disappears: each micro-op carries a
  specialised closure ``exec(cpu, outcome)``.

Anything the specialiser does not recognise (data ops targeting the PC,
table branches, block transfers touching the PC) falls back to a thin
wrapper around the interpreter's own handler, so predecoded execution is
*architecturally identical* to the slow path by construction; the property
tests in ``tests/test_fastpath_properties.py`` assert bit-equality of
registers, flags, cycles, and traces on randomised programs.  LDM/STM and
write-back addressing modes are specialised here (not fallback), so block
copies and pointer-walking loops stay on the fast path.

Each micro-op also carries a *kind* - ``"alu"`` (pure register state),
``"mem"`` (touches the data bus, cannot branch) or ``"ctl"`` (may branch,
halt, sleep, predicate, or is a fallback whose behaviour is unknown) - and
a derived ``chainable`` flag.  The trace engine (``BaseCpu._run_trace``)
links chainable micro-ops to their fall-through successor and executes
straight-line runs as a single Python loop with no per-step dispatch;
``ctl`` micro-ops terminate a superblock.

The table is keyed by program address and cached on the
:class:`~repro.isa.assembler.Program`, so every core model running the same
program shares one predecode.  Per-core *timing* is bound separately (see
``BaseCpu._bind_uop``); this module is timing-free, like the rest of
:mod:`repro.isa`.
"""

from __future__ import annotations

from typing import Callable

from repro.isa.conditions import Condition
from repro.isa.instructions import ISA_ARM, Instruction
from repro.isa.registers import MASK32, PC
from repro.isa.semantics import (
    _DISPATCH,
    _LOAD_SIZES,
    _SIGNED_LOADS,
    _STORE_SIZES,
    Outcome,
    UndefinedInstruction,
    _sign_extend,
    add_with_carry,
    bit_reverse32,
    byte_reverse32,
    byte_reverse_halves,
    count_leading_zeros,
    shift_c,
    to_signed,
)

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


class MicroOp:
    """One predecoded instruction, ready for the fast execution loop.

    ``kind`` classifies the bound closure for the trace engine:

    * ``"alu"``  - mutates registers/flags only; cannot branch, halt,
      sleep, touch memory, or start an IT block;
    * ``"mem"``  - additionally performs data-side accesses (so the
      executor must account ``_data_stalls``), still cannot branch;
    * ``"ctl"``  - everything else: branches, IT, WFI, SVC, CPS, POP-to-PC
      and every generic fallback (whose behaviour is not statically known).

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

    def __init__(self, ins: Instruction, exec_fn: ExecFn, kind: str = "ctl") -> None:
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
        self.exec = exec_fn
        self.kind = kind
        self.is_block_op = ins.mnemonic in ("LDM", "STM", "PUSH", "POP")
        self.chainable = kind != "ctl"
        if ins.mnemonic in ("B", "BL") and ins.target is not None and ins.rm is None:
            self.branch_target = ins.target & MASK32
        else:
            self.branch_target = None
        self.is_back_edge = (self.branch_target is not None
                             and ins.mnemonic == "B"
                             and self.branch_target <= self.address)


# ----------------------------------------------------------------------
# specialisers: each returns a closure or None (None -> generic fallback)
# ----------------------------------------------------------------------

_SIGN_BIT = 0x8000_0000


def _no_pc(*regs: int | None) -> bool:
    return all(r is None or r != PC for r in regs)


def _compile_mov(ins: Instruction):
    rd, rm = ins.rd, ins.rm
    if not _no_pc(rd, rm) or rd is None:
        return None
    mvn = ins.mnemonic == "MVN"
    setflags = ins.setflags
    if rm is None:
        if ins.imm is None:
            return None
        value = ins.imm & MASK32
        if mvn:
            value = (~value) & MASK32
        if not setflags:
            def ex(cpu, outcome, rd=rd, value=value):
                cpu.regs.values[rd] = value
            return ex
        n, z = value >= _SIGN_BIT, value == 0

        def ex(cpu, outcome, rd=rd, value=value, n=n, z=z):
            cpu.regs.values[rd] = value
            apsr = cpu.apsr
            apsr.n = n
            apsr.z = z
        return ex
    shift = ins.shift
    if shift is None:
        def ex(cpu, outcome, rd=rd, rm=rm, mvn=mvn, setflags=setflags):
            value = cpu.regs.values[rm]
            if mvn:
                value = (~value) & MASK32
            cpu.regs.values[rd] = value
            if setflags:
                apsr = cpu.apsr
                apsr.n = value >= _SIGN_BIT
                apsr.z = value == 0
        return ex
    kind, amount = shift.kind, shift.amount

    def ex(cpu, outcome, rd=rd, rm=rm, kind=kind, amount=amount,
           mvn=mvn, setflags=setflags):
        apsr = cpu.apsr
        value, carry = shift_c(cpu.regs.values[rm], kind, amount, apsr.c)
        if mvn:
            value = (~value) & MASK32
        cpu.regs.values[rd] = value
        if setflags:
            apsr.n = value >= _SIGN_BIT
            apsr.z = value == 0
            apsr.c = carry
    return ex


def _compile_arith(ins: Instruction):
    op = ins.mnemonic
    rd, rn, rm = ins.rd, ins.rn, ins.rm
    if not _no_pc(rd, rn, rm) or rd is None or rn is None:
        return None
    if rm is not None and ins.shift is not None:
        if op not in ("ADD", "SUB"):
            return None  # shifted ADC/SBC/RSB: keep the generic path
        # shifted-operand ADD/SUB: the shifter carry is discarded (flags
        # come from the adder), exactly as _exec_arith computes it
        kind, amount = ins.shift.kind, ins.shift.amount
        sub = op == "SUB"

        def ex(cpu, outcome, rd=rd, rn=rn, rm=rm, kind=kind, amount=amount,
               sub=sub, setflags=ins.setflags):
            rv = cpu.regs.values
            apsr = cpu.apsr
            y, _ = shift_c(rv[rm], kind, amount, apsr.c)
            x = rv[rn]
            if sub:
                unsigned_sum = x + (y ^ MASK32) + 1
                overflow = ((x ^ y) & (x ^ (unsigned_sum & MASK32)) & _SIGN_BIT) != 0
            else:
                unsigned_sum = x + y
                overflow = ((~(x ^ y)) & (x ^ (unsigned_sum & MASK32)) & _SIGN_BIT) != 0
            result = unsigned_sum & MASK32
            rv[rd] = result
            if setflags:
                apsr.n = result >= _SIGN_BIT
                apsr.z = result == 0
                apsr.c = unsigned_sum > MASK32
                apsr.v = overflow
        return ex
    if rm is None and ins.imm is None:
        return None
    imm = None if rm is not None else ins.imm & MASK32
    setflags = ins.setflags
    if op == "ADD":
        if not setflags:
            def ex(cpu, outcome, rd=rd, rn=rn, rm=rm, imm=imm):
                rv = cpu.regs.values
                rv[rd] = (rv[rn] + (imm if rm is None else rv[rm])) & MASK32
            return ex

        def ex(cpu, outcome, rd=rd, rn=rn, rm=rm, imm=imm):
            rv = cpu.regs.values
            x = rv[rn]
            y = imm if rm is None else rv[rm]
            unsigned_sum = x + y
            result = unsigned_sum & MASK32
            rv[rd] = result
            apsr = cpu.apsr
            apsr.n = result >= _SIGN_BIT
            apsr.z = result == 0
            apsr.c = unsigned_sum > MASK32
            apsr.v = ((~(x ^ y)) & (x ^ result) & _SIGN_BIT) != 0
        return ex
    if op == "SUB":
        if not setflags:
            def ex(cpu, outcome, rd=rd, rn=rn, rm=rm, imm=imm):
                rv = cpu.regs.values
                rv[rd] = (rv[rn] - (imm if rm is None else rv[rm])) & MASK32
            return ex

        def ex(cpu, outcome, rd=rd, rn=rn, rm=rm, imm=imm):
            rv = cpu.regs.values
            x = rv[rn]
            y = imm if rm is None else rv[rm]
            unsigned_sum = x + (y ^ MASK32) + 1
            result = unsigned_sum & MASK32
            rv[rd] = result
            apsr = cpu.apsr
            apsr.n = result >= _SIGN_BIT
            apsr.z = result == 0
            apsr.c = unsigned_sum > MASK32
            apsr.v = ((x ^ y) & (x ^ result) & _SIGN_BIT) != 0
        return ex
    # ADC / SBC / RSB: rarer - reuse the reference helper, still prebound.

    def ex(cpu, outcome, op=op, rd=rd, rn=rn, rm=rm, imm=imm, setflags=setflags):
        rv = cpu.regs.values
        x = rv[rn]
        y = imm if rm is None else rv[rm]
        apsr = cpu.apsr
        if op == "ADC":
            result, c, v = add_with_carry(x, y, int(apsr.c))
        elif op == "SBC":
            result, c, v = add_with_carry(x, (~y) & MASK32, int(apsr.c))
        else:  # RSB
            result, c, v = add_with_carry((~x) & MASK32, y, 1)
        rv[rd] = result
        if setflags:
            apsr.n = result >= _SIGN_BIT
            apsr.z = result == 0
            apsr.c = c
            apsr.v = v
    return ex


def _compile_logic(ins: Instruction):
    op = ins.mnemonic
    rd, rn, rm = ins.rd, ins.rn, ins.rm
    if not _no_pc(rd, rn, rm) or rd is None or rn is None:
        return None
    if rm is None and ins.imm is None:
        return None
    shift = ins.shift
    if rm is not None and shift is not None:
        kind, amount = shift.kind, shift.amount

        def ex(cpu, outcome, op=op, rd=rd, rn=rn, rm=rm, kind=kind,
               amount=amount, setflags=ins.setflags):
            rv = cpu.regs.values
            apsr = cpu.apsr
            y, carry = shift_c(rv[rm], kind, amount, apsr.c)
            x = rv[rn]
            if op == "AND":
                result = x & y
            elif op == "ORR":
                result = x | y
            elif op == "EOR":
                result = x ^ y
            elif op == "BIC":
                result = x & ~y
            else:  # ORN
                result = x | (~y & MASK32)
            result &= MASK32
            rv[rd] = result
            if setflags:
                apsr.n = result >= _SIGN_BIT
                apsr.z = result == 0
                apsr.c = carry
        return ex
    imm = None if rm is not None else ins.imm & MASK32

    def ex(cpu, outcome, op=op, rd=rd, rn=rn, rm=rm, imm=imm, setflags=ins.setflags):
        rv = cpu.regs.values
        x = rv[rn]
        y = imm if rm is None else rv[rm]
        if op == "AND":
            result = x & y
        elif op == "ORR":
            result = x | y
        elif op == "EOR":
            result = x ^ y
        elif op == "BIC":
            result = x & ~y
        else:  # ORN
            result = x | (~y & MASK32)
        result &= MASK32
        rv[rd] = result
        if setflags:
            apsr = cpu.apsr
            apsr.n = result >= _SIGN_BIT
            apsr.z = result == 0
    return ex


def _compile_shift_op(ins: Instruction):
    op = ins.mnemonic
    rd, rn, rm = ins.rd, ins.rn, ins.rm
    if not _no_pc(rd, rn, rm) or rd is None or rn is None:
        return None
    if rm is None and ins.imm is None:
        return None
    amount_const = None if rm is not None else ins.imm

    def ex(cpu, outcome, op=op, rd=rd, rn=rn, rm=rm, amount_const=amount_const,
           setflags=ins.setflags):
        rv = cpu.regs.values
        apsr = cpu.apsr
        amount = amount_const if rm is None else rv[rm] & 0xFF
        result, carry = shift_c(rv[rn], op, amount, apsr.c)
        rv[rd] = result
        if setflags:
            apsr.n = result >= _SIGN_BIT
            apsr.z = result == 0
            apsr.c = carry
    return ex


def _compile_compare(ins: Instruction):
    op = ins.mnemonic
    rn, rm = ins.rn, ins.rm
    if not _no_pc(rn, rm) or rn is None:
        return None
    if rm is not None and ins.shift is not None:
        return None
    if rm is None and ins.imm is None:
        return None
    imm = None if rm is not None else ins.imm & MASK32
    if op == "CMP":
        def ex(cpu, outcome, rn=rn, rm=rm, imm=imm):
            rv = cpu.regs.values
            x = rv[rn]
            y = imm if rm is None else rv[rm]
            unsigned_sum = x + (y ^ MASK32) + 1
            result = unsigned_sum & MASK32
            apsr = cpu.apsr
            apsr.n = result >= _SIGN_BIT
            apsr.z = result == 0
            apsr.c = unsigned_sum > MASK32
            apsr.v = ((x ^ y) & (x ^ result) & _SIGN_BIT) != 0
        return ex
    if op == "CMN":
        def ex(cpu, outcome, rn=rn, rm=rm, imm=imm):
            rv = cpu.regs.values
            x = rv[rn]
            y = imm if rm is None else rv[rm]
            unsigned_sum = x + y
            result = unsigned_sum & MASK32
            apsr = cpu.apsr
            apsr.n = result >= _SIGN_BIT
            apsr.z = result == 0
            apsr.c = unsigned_sum > MASK32
            apsr.v = ((~(x ^ y)) & (x ^ result) & _SIGN_BIT) != 0
        return ex

    def ex(cpu, outcome, op=op, rn=rn, rm=rm, imm=imm):
        rv = cpu.regs.values
        x = rv[rn]
        y = imm if rm is None else rv[rm]
        result = (x & y) if op == "TST" else (x ^ y)
        apsr = cpu.apsr
        apsr.n = (result & _SIGN_BIT) != 0
        apsr.z = (result & MASK32) == 0
    return ex


def _compile_mul(ins: Instruction):
    op = ins.mnemonic
    rd, rn, rm, ra = ins.rd, ins.rn, ins.rm, ins.ra
    if not _no_pc(rd, rn, rm, ra) or rd is None or rn is None or rm is None:
        return None
    if op == "MUL":
        def ex(cpu, outcome, rd=rd, rn=rn, rm=rm, setflags=ins.setflags):
            rv = cpu.regs.values
            result = (rv[rn] * rv[rm]) & MASK32
            rv[rd] = result
            if setflags:
                apsr = cpu.apsr
                apsr.n = result >= _SIGN_BIT
                apsr.z = result == 0
        return ex
    if op in ("MLA", "MLS"):
        if ra is None:
            return None
        mls = op == "MLS"

        def ex(cpu, outcome, rd=rd, rn=rn, rm=rm, ra=ra, mls=mls):
            rv = cpu.regs.values
            product = rv[rn] * rv[rm]
            acc = rv[ra]
            rv[rd] = ((acc - product) if mls else (product + acc)) & MASK32
        return ex
    if op in ("UMULL", "SMULL"):
        if ra is None:
            return None
        signed = op == "SMULL"

        def ex(cpu, outcome, rd=rd, rn=rn, rm=rm, ra=ra, signed=signed):
            rv = cpu.regs.values
            x, y = rv[rn], rv[rm]
            if signed:
                product = to_signed(x) * to_signed(y)
            else:
                product = x * y
            product &= (1 << 64) - 1
            rv[rd] = product & MASK32
            rv[ra] = (product >> 32) & MASK32
        return ex
    # SDIV / UDIV
    signed = op == "SDIV"

    def ex(cpu, outcome, rd=rd, rn=rn, rm=rm, signed=signed):
        rv = cpu.regs.values
        x, y = rv[rn], rv[rm]
        if y == 0:
            result = 0
        elif signed:
            sx, sy = to_signed(x), to_signed(y)
            quotient = abs(sx) // abs(sy)
            if (sx < 0) != (sy < 0):
                quotient = -quotient
            result = quotient & MASK32
        else:
            result = x // y
        outcome.div_early_exit = max(result.bit_length(), 1)
        rv[rd] = result
    return ex


_UNARY_FUNCS = {
    "CLZ": count_leading_zeros,
    "RBIT": bit_reverse32,
    "REV": byte_reverse32,
    "REV16": byte_reverse_halves,
}


def _compile_unary(ins: Instruction):
    op = ins.mnemonic
    rd = ins.rd
    src = ins.rm if ins.rm is not None else ins.rn
    if not _no_pc(rd, src) or rd is None or src is None:
        return None
    if op in _UNARY_FUNCS:
        fn = _UNARY_FUNCS[op]

        def ex(cpu, outcome, rd=rd, src=src, fn=fn):
            rv = cpu.regs.values
            rv[rd] = fn(rv[src])
        return ex
    if op in ("SXTB", "SXTH"):
        bits = 8 if op == "SXTB" else 16
        mask = (1 << bits) - 1

        def ex(cpu, outcome, rd=rd, src=src, bits=bits, mask=mask):
            rv = cpu.regs.values
            rv[rd] = _sign_extend(rv[src] & mask, bits)
        return ex
    mask = 0xFF if op == "UXTB" else 0xFFFF

    def ex(cpu, outcome, rd=rd, src=src, mask=mask):
        rv = cpu.regs.values
        rv[rd] = rv[src] & mask
    return ex


def _compile_bitfield(ins: Instruction):
    op = ins.mnemonic
    rd, rn = ins.rd, ins.rn
    lsb, width = ins.bf_lsb, ins.bf_width
    if not _no_pc(rd, rn) or rd is None:
        return None
    if lsb is None or width is None or not 0 < width <= 32 - lsb:
        return None  # generic path raises UndefinedInstruction at runtime
    mask = ((1 << width) - 1) << lsb
    if op == "BFC":
        inv = (~mask) & MASK32

        def ex(cpu, outcome, rd=rd, inv=inv):
            rv = cpu.regs.values
            rv[rd] = rv[rd] & inv
        return ex
    if rn is None:
        return None
    if op == "BFI":
        inv = (~mask) & MASK32

        def ex(cpu, outcome, rd=rd, rn=rn, lsb=lsb, mask=mask, inv=inv):
            rv = cpu.regs.values
            rv[rd] = (rv[rd] & inv) | ((rv[rn] << lsb) & mask)
        return ex
    if op == "UBFX":
        def ex(cpu, outcome, rd=rd, rn=rn, lsb=lsb, mask=mask):
            rv = cpu.regs.values
            rv[rd] = (rv[rn] & mask) >> lsb
        return ex
    # SBFX

    def ex(cpu, outcome, rd=rd, rn=rn, lsb=lsb, mask=mask, width=width):
        rv = cpu.regs.values
        rv[rd] = _sign_extend((rv[rn] & mask) >> lsb, width)
    return ex


def _compile_load_wb(ins: Instruction):
    """Pre-indexed (``[rn, #off]!``) and post-indexed (``[rn], #off``) loads.

    Matches ``_exec_load`` exactly: the base register is written *before*
    the destination, so ``ldr rX, [rX], #4`` leaves the loaded value in rX.
    """
    mem = ins.mem
    rd, rn = ins.rd, mem.rn
    if rn == PC or (mem.rm is not None and mem.rm == PC):
        return None
    size = _LOAD_SIZES[ins.mnemonic]
    sign_bits = _SIGNED_LOADS.get(ins.mnemonic)
    rm, lshift, offset = mem.rm, mem.shift, mem.offset
    postindex = mem.postindex

    def ex(cpu, outcome, rd=rd, rn=rn, rm=rm, lshift=lshift, offset=offset,
           size=size, sign_bits=sign_bits, postindex=postindex):
        rv = cpu.regs.values
        base = rv[rn]
        if rm is not None:
            offset = (rv[rm] << lshift) & MASK32
        offset_addr = (base + offset) & MASK32
        address = base if postindex else offset_addr
        value = cpu.read(address, size)
        outcome.reads += 1
        if sign_bits is not None:
            value = _sign_extend(value, sign_bits)
        rv[rn] = offset_addr
        rv[rd] = value & MASK32
    return ex


def _compile_store_wb(ins: Instruction):
    """Pre/post-indexed stores; base write-back happens after the store."""
    mem = ins.mem
    rd, rn = ins.rd, mem.rn
    if rn == PC or (mem.rm is not None and mem.rm == PC):
        return None
    size = _STORE_SIZES[ins.mnemonic]
    vmask = {1: 0xFF, 2: 0xFFFF, 4: MASK32}[size]
    rm, lshift, offset = mem.rm, mem.shift, mem.offset
    postindex = mem.postindex

    def ex(cpu, outcome, rd=rd, rn=rn, rm=rm, lshift=lshift, offset=offset,
           size=size, vmask=vmask, postindex=postindex):
        rv = cpu.regs.values
        base = rv[rn]
        if rm is not None:
            offset = (rv[rm] << lshift) & MASK32
        offset_addr = (base + offset) & MASK32
        cpu.write(base if postindex else offset_addr, size, rv[rd] & vmask)
        outcome.writes += 1
        rv[rn] = offset_addr
    return ex


def _compile_load(ins: Instruction, isa: str):
    mem = ins.mem
    rd = ins.rd
    if mem is None or rd is None or rd == PC:
        return None
    if mem.writeback or mem.postindex:
        return _compile_load_wb(ins)
    size = _LOAD_SIZES[ins.mnemonic]
    sign_bits = _SIGNED_LOADS.get(ins.mnemonic)
    if mem.rn == PC:
        if mem.rm is not None:
            return None
        pc_off = 8 if isa == ISA_ARM else 4
        address = (((ins.address + pc_off) & ~3) + mem.offset) & MASK32

        def ex(cpu, outcome, rd=rd, address=address, size=size, sign_bits=sign_bits):
            value = cpu.read(address, size)
            outcome.reads += 1
            if sign_bits is not None:
                value = _sign_extend(value, sign_bits)
            cpu.regs.values[rd] = value & MASK32
        return ex
    rn = mem.rn
    if mem.rm is None:
        offset = mem.offset

        def ex(cpu, outcome, rd=rd, rn=rn, offset=offset, size=size,
               sign_bits=sign_bits):
            value = cpu.read((cpu.regs.values[rn] + offset) & MASK32, size)
            outcome.reads += 1
            if sign_bits is not None:
                value = _sign_extend(value, sign_bits)
            cpu.regs.values[rd] = value & MASK32
        return ex
    if mem.rm == PC:
        return None
    rm, lshift = mem.rm, mem.shift

    def ex(cpu, outcome, rd=rd, rn=rn, rm=rm, lshift=lshift, size=size,
           sign_bits=sign_bits):
        rv = cpu.regs.values
        addr = (rv[rn] + ((rv[rm] << lshift) & MASK32)) & MASK32
        value = cpu.read(addr, size)
        outcome.reads += 1
        if sign_bits is not None:
            value = _sign_extend(value, sign_bits)
        rv[rd] = value & MASK32
    return ex


def _compile_store(ins: Instruction):
    mem = ins.mem
    rd = ins.rd
    if mem is None or rd is None or rd == PC or mem.rn == PC:
        return None
    if mem.writeback or mem.postindex:
        return _compile_store_wb(ins)
    size = _STORE_SIZES[ins.mnemonic]
    vmask = {1: 0xFF, 2: 0xFFFF, 4: MASK32}[size]
    rn = mem.rn
    if mem.rm is None:
        offset = mem.offset

        def ex(cpu, outcome, rd=rd, rn=rn, offset=offset, size=size, vmask=vmask):
            rv = cpu.regs.values
            cpu.write((rv[rn] + offset) & MASK32, size, rv[rd] & vmask)
            outcome.writes += 1
        return ex
    if mem.rm == PC:
        return None
    rm, lshift = mem.rm, mem.shift

    def ex(cpu, outcome, rd=rd, rn=rn, rm=rm, lshift=lshift, size=size, vmask=vmask):
        rv = cpu.regs.values
        addr = (rv[rn] + ((rv[rm] << lshift) & MASK32)) & MASK32
        cpu.write(addr, size, rv[rd] & vmask)
        outcome.writes += 1
    return ex


def _compile_push_pop(ins: Instruction):
    regs = tuple(sorted(ins.reglist))
    count = len(regs)
    if ins.mnemonic == "PUSH":
        if PC in regs:
            return None

        def ex(cpu, outcome, regs=regs, count=count):
            outcome.regs_transferred = count
            rv = cpu.regs.values
            base = cpu.regs.sp - 4 * count
            address = base
            write = cpu.write
            for reg in regs:
                write(address, 4, rv[reg])
                address += 4
            outcome.writes += count
            cpu.regs.sp = base
        return ex
    # POP
    pops_pc = PC in regs
    data_regs = tuple(r for r in regs if r != PC)

    def ex(cpu, outcome, regs=data_regs, count=count, pops_pc=pops_pc):
        outcome.regs_transferred = count
        rv = cpu.regs.values
        address = cpu.regs.sp
        read = cpu.read
        for reg in regs:
            rv[reg] = read(address, 4) & MASK32
            address += 4
        if pops_pc:
            target = read(address, 4)
            address += 4
        outcome.reads += count
        cpu.regs.sp = address
        if pops_pc:
            cpu.branch(target & ~1)
            outcome.taken = True
    return ex


def _compile_ldm_stm(ins: Instruction):
    """LDM/STM (IA) without the PC in the transfer list.

    Mirrors ``_exec_block``: registers transfer in ascending order, and an
    LDM that loads its own base register suppresses the write-back (the
    loaded value wins) - that suppression is folded at compile time.
    """
    rn = ins.rn
    regs = tuple(sorted(ins.reglist))
    if rn is None or rn == PC or PC in regs:
        return None
    count = len(regs)
    if ins.mnemonic == "STM":
        writeback = ins.writeback

        def ex(cpu, outcome, rn=rn, regs=regs, count=count, writeback=writeback):
            outcome.regs_transferred = count
            rv = cpu.regs.values
            address = rv[rn]
            write = cpu.write
            for reg in regs:
                write(address, 4, rv[reg])
                address += 4
            outcome.writes += count
            if writeback:
                rv[rn] = address & MASK32
        return ex
    # LDM: write-back is suppressed when the base is in the transfer list
    writeback = ins.writeback and rn not in regs

    def ex(cpu, outcome, rn=rn, regs=regs, count=count, writeback=writeback):
        outcome.regs_transferred = count
        rv = cpu.regs.values
        address = rv[rn]
        read = cpu.read
        for reg in regs:
            rv[reg] = read(address, 4) & MASK32
            address += 4
        outcome.reads += count
        if writeback:
            rv[rn] = address & MASK32
    return ex


def _compile_branch(ins: Instruction):
    op = ins.mnemonic
    if op in ("BX", "BLX") and ins.rm is not None:
        if ins.rm == PC:
            return None
        rm = ins.rm
        if op == "BLX":
            ret = (ins.address + ins.size) & MASK32

            def ex(cpu, outcome, rm=rm, ret=ret):
                target = cpu.regs.values[rm]
                cpu.regs.lr = ret
                cpu.branch(target & ~1)
                outcome.taken = True
            return ex

        def ex(cpu, outcome, rm=rm):
            cpu.branch(cpu.regs.values[rm] & ~1)
            outcome.taken = True
        return ex
    if ins.target is None:
        return None  # unresolved label: generic path raises
    target = ins.target
    if op == "BL":
        ret = (ins.address + ins.size) & MASK32

        def ex(cpu, outcome, target=target, ret=ret):
            cpu.regs.lr = ret
            cpu.branch(target)
            outcome.taken = True
        return ex
    if op == "B":
        def ex(cpu, outcome, target=target):
            cpu.branch(target)
            outcome.taken = True
        return ex
    return None


def _compile_system(ins: Instruction):
    op = ins.mnemonic
    if op in ("NOP", "DSB", "ISB", "BKPT"):
        def ex(cpu, outcome):
            pass
        return ex
    if op in ("CPSID", "CPSIE"):
        enabled = op == "CPSIE"

        def ex(cpu, outcome, enabled=enabled):
            cpu.set_interrupts_enabled(enabled)
        return ex
    if op == "SVC":
        number = ins.imm or 0

        def ex(cpu, outcome, number=number):
            cpu.software_interrupt(number)
        return ex
    if op == "WFI":
        def ex(cpu, outcome):
            cpu.wait_for_interrupt()
        return ex
    return None


def _compile_misc(ins: Instruction, isa: str):
    op = ins.mnemonic
    if op == "MOVW":
        rd = ins.rd
        if rd is None or rd == PC or ins.imm is None:
            return None  # imm=None raises in the reference handler
        value = ins.imm & 0xFFFF

        def ex(cpu, outcome, rd=rd, value=value):
            cpu.regs.values[rd] = value
        return ex
    if op == "MOVT":
        rd = ins.rd
        if rd is None or rd == PC or ins.imm is None:
            return None  # imm=None raises in the reference handler
        high = (ins.imm & 0xFFFF) << 16

        def ex(cpu, outcome, rd=rd, high=high):
            rv = cpu.regs.values
            rv[rd] = high | (rv[rd] & 0xFFFF)
        return ex
    if op == "ADR":
        rd = ins.rd
        if rd is None or rd == PC:
            return None
        pc_off = 8 if isa == ISA_ARM else 4
        value = (((ins.address + pc_off) & ~3) + (ins.imm or 0)) & MASK32

        def ex(cpu, outcome, rd=rd, value=value):
            cpu.regs.values[rd] = value
        return ex
    if op == "IT":
        firstcond, mask = ins.cond, ins.it_mask

        def ex(cpu, outcome, firstcond=firstcond, mask=mask):
            cpu.begin_it_block(firstcond, mask)
        return ex
    return None


_ARITH_OPS = frozenset({"ADD", "ADC", "SUB", "SBC", "RSB"})
_LOGIC_OPS = frozenset({"AND", "ORR", "EOR", "BIC", "ORN"})
_SHIFT_OPS = frozenset({"LSL", "LSR", "ASR", "ROR"})
_COMPARE_OPS = frozenset({"CMP", "CMN", "TST", "TEQ"})
_MUL_OPS = frozenset({"MUL", "MLA", "MLS", "UMULL", "SMULL", "SDIV", "UDIV"})
_UNARY_OPS = frozenset({"CLZ", "RBIT", "REV", "REV16", "SXTB", "SXTH", "UXTB", "UXTH"})
_BITFIELD_OPS = frozenset({"BFI", "BFC", "UBFX", "SBFX"})
_SYSTEM_OPS = frozenset({"NOP", "DSB", "ISB", "BKPT", "CPSID", "CPSIE", "SVC", "WFI"})

#: specialised mnemonics that touch the data bus but never the PC
_MEM_OPS = frozenset({"LDR", "LDRB", "LDRH", "LDRSB", "LDRSH",
                      "STR", "STRB", "STRH", "LDM", "STM", "PUSH", "POP"})
#: specialised mnemonics that may branch, sleep, predicate, or mask IRQs
_CTL_OPS = frozenset({"B", "BL", "BX", "BLX", "TBB", "TBH", "IT",
                      "WFI", "CPSID", "CPSIE", "SVC"})


def compile_exec(ins: Instruction, isa: str) -> tuple[ExecFn, str]:
    """Compile one instruction into ``(exec(cpu, outcome), kind)``.

    Falls back to the interpreter's own handler (prebound, so the dispatch
    dict lookup still disappears) whenever the operand shape is outside the
    specialised fast cases; fallbacks are always classified ``"ctl"``
    because their behaviour is not statically known.
    """
    op = ins.mnemonic
    specialised = None
    if op in ("MOV", "MVN"):
        specialised = _compile_mov(ins)
    elif op in _ARITH_OPS:
        specialised = _compile_arith(ins)
    elif op in _LOGIC_OPS:
        specialised = _compile_logic(ins)
    elif op in _SHIFT_OPS:
        specialised = _compile_shift_op(ins)
    elif op in _COMPARE_OPS:
        specialised = _compile_compare(ins)
    elif op in _MUL_OPS:
        specialised = _compile_mul(ins)
    elif op in _UNARY_OPS:
        specialised = _compile_unary(ins)
    elif op in _BITFIELD_OPS:
        specialised = _compile_bitfield(ins)
    elif op in ("LDR", "LDRB", "LDRH", "LDRSB", "LDRSH"):
        specialised = _compile_load(ins, isa)
    elif op in ("STR", "STRB", "STRH"):
        specialised = _compile_store(ins)
    elif op in ("PUSH", "POP"):
        specialised = _compile_push_pop(ins)
    elif op in ("LDM", "STM"):
        specialised = _compile_ldm_stm(ins)
    elif op in ("B", "BL", "BX", "BLX"):
        specialised = _compile_branch(ins)
    elif op in _SYSTEM_OPS:
        specialised = _compile_system(ins)
    elif op in ("MOVW", "MOVT", "ADR", "IT"):
        specialised = _compile_misc(ins, isa)
    if specialised is not None:
        if op in _CTL_OPS or (op == "POP" and PC in ins.reglist):
            kind = "ctl"
        elif op in _MEM_OPS:
            kind = "mem"
        else:
            kind = "alu"
        return specialised, kind
    handler = _DISPATCH.get(op)
    if handler is None:
        def ex(cpu, outcome, op=op):
            raise UndefinedInstruction(op)
        return ex, "ctl"

    def ex(cpu, outcome, handler=handler, ins=ins):
        handler(cpu, ins, outcome)
    return ex, "ctl"


def compile_uop(ins: Instruction, isa: str) -> MicroOp:
    """Compile one instruction straight into a classified :class:`MicroOp`."""
    exec_fn, kind = compile_exec(ins, isa)
    return MicroOp(ins, exec_fn, kind)


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
            address: compile_uop(ins, program.isa)
            for address, ins in program._by_address.items()
        }
    return table
