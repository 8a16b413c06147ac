"""Superblock fusion: compile a trace-engine superblock into one code object.

The trace engine (``BaseCpu._run_trace``) executes a superblock's chained
micro-op closures in a list loop, which already removes the per-step dict
dispatch and interrupt poll.  This module removes the remaining
per-instruction Python *frames*: once a superblock has been dispatched
enough times to prove hot, :func:`fuse_block` generates a single function
whose body is the block's per-step statement sequences laid out inline -
fetch (through a prebound device thunk, inline SRAM/flash timing, or an
inline transcription of a cached fetch), execute, cycle accounting, PC
update - and compiles it once.  The hottest operand shapes (register
moves and ALU, compares, immediate shifts, immediate/register-offset
loads and stores, MOVW/MOVT, zero/sign extension) are inlined as raw
statements; everything else calls its already-bound step or exec closure,
so partial inlining still wins.  Data accesses inline the bus fast path
(behind a per-access MPU check on protected cores), and runs of
raise-free steps coalesce their accounting (:func:`_flush_span`).

A block terminated by a predictable taken branch - a loop *back-edge*
whose target is the block's own head - does not end fusion at the
branch.  The generated function wraps the body in a loop whose taken path
revalidates the branch condition inline and re-enters the body directly,
so a whole loop iteration is one code object executed N times under the
interrupt event horizon; the guard falls back to the engine (bit-exactly,
at an instruction boundary) on loop exit, on any queued interrupt, at the
cycle ceiling, and at the instruction budget (:func:`_emit_loop_backedge`).
Conditional execution inside fused code costs no closure call either -
condition checks are emitted as flag expressions (``_COND_EXPRS``).

Bit-exactness contract
----------------------
Every emitted statement sequence is a literal transcription of the
corresponding bound-step behaviour (``BaseCpu._bind_uop_slim``) and
predecode closure body (:mod:`repro.isa.predecode`), in the same order:
fetch, predicate, execute, cycle/instruction accounting, PC write.  A
fault raised mid-block (bus fault, MPU abort) therefore leaves registers,
counters, and bus statistics in exactly the state per-step execution
would, and the property tests in ``tests/test_fastpath_properties.py``
diff complete machine state across all engines to keep it that way.

Fused blocks run only below the interrupt event horizon (the engine falls
back to the per-step list when a poll could matter), and are rebuilt
whenever the program's execution index is reassigned, alongside the
micro-op table they were generated from.

Compiled once, bound per core
-----------------------------
Fused code lives in the core's *engine plan* (``repro.core.cpu``), shared
by every core that runs the same program under the same plan key.  An
emitter never stores a core's object: each free name it puts in the
namespace records a *recipe* entry naming which per-core object the name
stands for (the core, its register list, the fetch device at a pc, the
I-cache ways of one set, the bound step at a block position, a fresh
:class:`Outcome`, ...) or a constant that is the same object on every core
(a micro-op's ``exec``, :class:`AccessRecord`, :class:`Sram`,
``int.from_bytes``).  The first core to fuse a block emits and compiles
it and stores the function's code and recipe in the plan block; every
later core - and the first one too - *binds* it: the recipe resolves on
that core into the function's defaults, and ``types.FunctionType`` builds
the callable (the bound names are locals of the generated function; no
core runs ``exec``).

The rule that makes this sound: **emitters read no live state outside the
plan key**.  Everything the generated source depends on - core class,
block-op splitting, the data-inline plan, MPU presence, the bus layout
with the device timing folded in (:func:`device_key`), the fetch cache's
geometry - is part of the key, and MPU presence and the data-inline plan
are read from the key itself, never from the live core.  An MPU attached
after the key was taken is still honoured by the emitted code's dynamic
``cpu.mpu`` check.
"""

from __future__ import annotations

import builtins
from time import perf_counter as _perf_counter
from types import CodeType, FunctionType

from repro import obs
from repro.isa.registers import MASK32, PC
from repro.isa.semantics import _LOAD_SIZES, _SIGNED_LOADS, _STORE_SIZES, Outcome
from repro.memory.bus import AccessRecord
from repro.memory.flash import Flash
from repro.memory.sram import Sram

_SIGN_BIT = 0x8000_0000

#: dispatches of a block through the list path before it is fused
FUSE_THRESHOLD = 16

_STORE_MASKS = {1: 0xFF, 2: 0xFFFF, 4: MASK32}


def device_key(device) -> tuple:
    """A bus device's part of the plan key: its type, base and size, plus
    the timing the emitters fold into generated code (SRAM wait states;
    flash line width, array latency and prefetch mode)."""
    kind = type(device)
    if kind is Sram:
        timing = (device.wait_states,)
    elif kind is Flash:
        timing = (device.line_bytes, device.access_cycles, device.prefetch)
    else:
        timing = ()
    return (kind, device.base, device.size) + timing


#: how each recipe entry resolves on the binding core:
#: ``resolve(cpu, steps, arg)``, with ``steps`` the core's bound steps for
#: the block and ``arg`` the entry's fuse-time argument (an address, an
#: instruction's ``(pc, size)``, a block position, ...)
_RESOLVE = {
    "constant": lambda cpu, steps, value: value,
    "core": lambda cpu, steps, _: cpu,
    "registers": lambda cpu, steps, _: cpu.regs.values,
    "read": lambda cpu, steps, _: cpu.read,
    "write": lambda cpu, steps, _: cpu.write,
    "branch": lambda cpu, steps, _: cpu.branch,
    "mpu_check": lambda cpu, steps, _: cpu._mpu_check,
    "bus": lambda cpu, steps, _: cpu.bus,
    "irq_queue": lambda cpu, steps, _: cpu._irq_queue,
    "fetch_device": lambda cpu, steps, at: cpu._fetch_bus_device(*at),
    "fetch_device_access":
        lambda cpu, steps, at: cpu._fetch_bus_device(*at)._access,
    "literal_device": lambda cpu, steps, address: cpu.bus._lookup(address),
    "literal_access":
        lambda cpu, steps, address: cpu.bus._lookup(address)._access,
    "literal_read": lambda cpu, steps, address: cpu.bus._lookup(address).read,
    "fetch_thunk": lambda cpu, steps, at: cpu._fetch_thunk(*at),
    "fetch_port": lambda cpu, steps, _: cpu._fetch_port(),
    "icache": lambda cpu, steps, _: cpu._fetch_cache(),
    "icache_stats": lambda cpu, steps, _: cpu._fetch_cache().stats,
    "icache_fill": lambda cpu, steps, _: cpu._fetch_cache()._fill,
    "icache_parity": lambda cpu, steps, _: cpu._fetch_cache()._check_parity,
    "icache_ways":
        lambda cpu, steps, at: cpu._fetch_cache().lookup_plan(*at)[3],
    "outcome": lambda cpu, steps, _: Outcome(),
    "cycles": lambda cpu, steps, ins: cpu._cycle_fn(ins),
    "step": lambda cpu, steps, index: steps[index],
}


class _Names:
    """The free names of one fused function, recorded as a binding recipe.

    The emitters' namespace: ``put`` (a plain assignment) and ``default``
    (first writer wins) record, per name, which per-core object or
    constant it stands for (a :data:`_RESOLVE` kind and its argument).  A
    core's objects are never stored, so the recipe holds no core alive
    and binds over any core with the same plan ``key``.  Insertion order
    is the generated function's parameter order.
    """

    __slots__ = ("key", "recipe")

    def __init__(self, key) -> None:
        self.key = key
        self.recipe: dict[str, tuple] = {}

    def put(self, name: str, kind: str, arg=None) -> None:
        self.recipe[name] = (_RESOLVE[kind], arg)

    def default(self, name: str, kind: str, arg=None) -> None:
        if name not in self.recipe:
            self.recipe[name] = (_RESOLVE[kind], arg)


#: per-condition source fragments over ``f = cpu.apsr`` - literal
#: transcriptions of ``repro.isa.predecode.COND_CHECKS`` (the exhaustive
#: agreement test in tests/test_fastpath_properties.py covers the
#: predicates these transcribe), so fused code pays no closure call per
#: predicated instruction or branch
_COND_EXPRS = {
    "EQ": "f.z",
    "NE": "not f.z",
    "CS": "f.c",
    "CC": "not f.c",
    "MI": "f.n",
    "PL": "not f.n",
    "VS": "f.v",
    "VC": "not f.v",
    "HI": "f.c and not f.z",
    "LS": "not (f.c and not f.z)",
    "GE": "f.n == f.v",
    "LT": "f.n != f.v",
    "GT": "not f.z and f.n == f.v",
    "LE": "f.z or f.n != f.v",
}


def _cond_test(ins) -> str:
    """``["f = cpu.apsr", "if <expr>:"]``-ready test for a conditional."""
    return _COND_EXPRS[ins.cond.name]


def _no_pc(*regs):
    return all(r is None or r != PC for r in regs)


def _shift_operand_lines(ins, value_var: str, carry_var: str | None):
    """Statements computing the shifted second operand into ``value_var``
    and the shifter carry (a bool) into ``carry_var``, or ``None``.

    A literal transcription of ``shift_c`` for a constant amount in
    1..31 (amount 0 is the no-shift path and 32 keeps the closure), with
    the register value pre-masked as all ``rvals`` entries are.  A
    ``carry_var`` of ``None`` skips the carry computation (consumers that
    discard the shifter carry, like the adder-flagged ADD/SUB).
    """
    kind, amount = ins.shift.kind, ins.shift.amount
    if not 1 <= amount <= 31 or ins.rm is None or ins.rm == PC:
        return None
    x = f"rvals[{ins.rm}]"
    if kind == "LSL":
        if carry_var is None:
            return [f"{value_var} = ({x} << {amount}) & {MASK32}"]
        return [f"e = {x} << {amount}",
                f"{value_var} = e & {MASK32}",
                f"{carry_var} = (e & {1 << 32}) != 0"]
    if kind == "LSR":
        lines = [f"{value_var} = {x} >> {amount}"]
        if carry_var is not None:
            lines.append(f"{carry_var} = (({x} >> {amount - 1}) & 1) != 0")
        return lines
    if kind == "ASR":
        lines = [f"s32 = {x} - {1 << 32} if {x} >= {_SIGN_BIT} else {x}",
                 f"{value_var} = (s32 >> {amount}) & {MASK32}"]
        if carry_var is not None:
            lines.append(f"{carry_var} = (({x} >> {amount - 1}) & 1) != 0")
        return lines
    # ROR, amount 1..31
    lines = [f"{value_var} = (({x} >> {amount}) | ({x} << {32 - amount}))"
             f" & {MASK32}"]
    if carry_var is not None:
        lines.append(f"{carry_var} = ({value_var} >> 31) != 0")
    return lines


# ----------------------------------------------------------------------
# exec-body emitters: return statement lines or None (-> closure call)
# ----------------------------------------------------------------------

def _emit_mov(ins):
    rd, rm = ins.rd, ins.rm
    if not _no_pc(rd, rm) or rd is None:
        return None
    mvn = ins.mnemonic == "MVN"
    if ins.shift is not None:
        shift = _shift_operand_lines(ins, "v", "c" if ins.setflags else None)
        if shift is None:
            return None
        lines = list(shift)
        if mvn:
            lines.append(f"v = (~v) & {MASK32}")
        lines.append(f"rvals[{rd}] = v")
        if ins.setflags:
            lines += ["f = cpu.apsr",
                      f"f.n = v >= {_SIGN_BIT}",
                      "f.z = v == 0",
                      "f.c = c"]
        return lines
    if rm is None:
        if ins.imm is None:
            return None
        value = ins.imm & MASK32
        if mvn:
            value = (~value) & MASK32
        lines = [f"rvals[{rd}] = {value}"]
        if ins.setflags:
            lines += ["f = cpu.apsr",
                      f"f.n = {value >= _SIGN_BIT}",
                      f"f.z = {value == 0}"]
        return lines
    src = f"rvals[{rm}]"
    if mvn:
        lines = [f"v = (~{src}) & {MASK32}"]
    else:
        lines = [f"v = {src}"]
    lines.append(f"rvals[{rd}] = v")
    if ins.setflags:
        lines += ["f = cpu.apsr",
                  f"f.n = v >= {_SIGN_BIT}",
                  "f.z = v == 0"]
    return lines


def _emit_add_sub(ins):
    op = ins.mnemonic
    rd, rn, rm = ins.rd, ins.rn, ins.rm
    if not _no_pc(rd, rn, rm) or rd is None or rn is None:
        return None
    shift_lines = None
    if rm is not None and ins.shift is not None:
        # the shifter carry is discarded: ADD/SUB flags come from the adder
        shift_lines = _shift_operand_lines(ins, "y", None)
        if shift_lines is None:
            return None
    if rm is None and ins.imm is None:
        return None
    sign = "+" if op == "ADD" else "-"
    if shift_lines is not None:
        if not ins.setflags:
            return shift_lines + [
                f"rvals[{rd}] = (rvals[{rn}] {sign} y) & {MASK32}"]
        lines = shift_lines + [f"x = rvals[{rn}]"]
    else:
        y = f"rvals[{rm}]" if rm is not None else str(ins.imm & MASK32)
        if not ins.setflags:
            return [f"rvals[{rd}] = (rvals[{rn}] {sign} {y}) & {MASK32}"]
        lines = [f"x = rvals[{rn}]", f"y = {y}"]
    if op == "ADD":
        lines += [
            "u = x + y",
            f"r = u & {MASK32}",
            f"rvals[{rd}] = r",
            "f = cpu.apsr",
            f"f.n = r >= {_SIGN_BIT}",
            "f.z = r == 0",
            f"f.c = u > {MASK32}",
            f"f.v = ((~(x ^ y)) & (x ^ r) & {_SIGN_BIT}) != 0",
        ]
    else:
        lines += [
            f"u = x + (y ^ {MASK32}) + 1",
            f"r = u & {MASK32}",
            f"rvals[{rd}] = r",
            "f = cpu.apsr",
            f"f.n = r >= {_SIGN_BIT}",
            "f.z = r == 0",
            f"f.c = u > {MASK32}",
            f"f.v = ((x ^ y) & (x ^ r) & {_SIGN_BIT}) != 0",
        ]
    return lines


_LOGIC_EXPR = {
    "AND": "x & y",
    "ORR": "x | y",
    "EOR": "x ^ y",
    "BIC": "x & ~y",
    "ORN": f"x | (~y & {MASK32})",
}


def _emit_logic(ins):
    rd, rn, rm = ins.rd, ins.rn, ins.rm
    if not _no_pc(rd, rn, rm) or rd is None or rn is None:
        return None
    if rm is not None and ins.shift is not None:
        # shifted operand: flag-setting forms take C from the shifter
        shift = _shift_operand_lines(ins, "y", "c" if ins.setflags else None)
        if shift is None:
            return None
        lines = shift + [f"x = rvals[{rn}]",
                         f"r = ({_LOGIC_EXPR[ins.mnemonic]}) & {MASK32}",
                         f"rvals[{rd}] = r"]
        if ins.setflags:
            lines += ["f = cpu.apsr", f"f.n = r >= {_SIGN_BIT}",
                      "f.z = r == 0", "f.c = c"]
        return lines
    if rm is None and ins.imm is None:
        return None
    y = f"rvals[{rm}]" if rm is not None else str(ins.imm & MASK32)
    lines = [f"x = rvals[{rn}]", f"y = {y}",
             f"r = ({_LOGIC_EXPR[ins.mnemonic]}) & {MASK32}",
             f"rvals[{rd}] = r"]
    if ins.setflags:
        # no-shift logic ops leave C unchanged (shifter carry == carry in)
        lines += ["f = cpu.apsr", f"f.n = r >= {_SIGN_BIT}", "f.z = r == 0"]
    return lines


def _emit_shift(ins):
    op = ins.mnemonic
    rd, rn = ins.rd, ins.rn
    amount = ins.imm
    if (not _no_pc(rd, rn) or rd is None or rn is None or ins.rm is not None
            or amount is None or not 1 <= amount <= 31):
        return None
    lines = [f"x = rvals[{rn}]"]
    if op == "LSL":
        lines += [f"e = x << {amount}",
                  f"r = e & {MASK32}",
                  f"c = (e & {1 << 32}) != 0"]
    elif op == "LSR":
        lines += [f"r = x >> {amount}",
                  f"c = ((x >> {amount - 1}) & 1) != 0"]
    elif op == "ASR":
        lines += [f"s32 = x - {1 << 32} if x >= {_SIGN_BIT} else x",
                  f"r = (s32 >> {amount}) & {MASK32}",
                  f"c = ((x >> {amount - 1}) & 1) != 0"]
    else:  # ROR, amount 1..31
        lines += [f"r = ((x >> {amount}) | (x << {32 - amount})) & {MASK32}",
                  "c = (r >> 31) != 0"]
    lines.append(f"rvals[{rd}] = r")
    if ins.setflags:
        lines += ["f = cpu.apsr", f"f.n = r >= {_SIGN_BIT}", "f.z = r == 0",
                  "f.c = c"]
    return lines


def _emit_compare(ins):
    op = ins.mnemonic
    rn, rm = ins.rn, ins.rm
    if not _no_pc(rn, rm) or rn is None or ins.shift is not None:
        return None
    if rm is None and ins.imm is None:
        return None
    y = f"rvals[{rm}]" if rm is not None else str(ins.imm & MASK32)
    if op == "CMP":
        return [
            f"x = rvals[{rn}]", f"y = {y}",
            f"u = x + (y ^ {MASK32}) + 1",
            f"r = u & {MASK32}",
            "f = cpu.apsr",
            f"f.n = r >= {_SIGN_BIT}",
            "f.z = r == 0",
            f"f.c = u > {MASK32}",
            f"f.v = ((x ^ y) & (x ^ r) & {_SIGN_BIT}) != 0",
        ]
    if op == "CMN":
        return [
            f"x = rvals[{rn}]", f"y = {y}",
            "u = x + y",
            f"r = u & {MASK32}",
            "f = cpu.apsr",
            f"f.n = r >= {_SIGN_BIT}",
            "f.z = r == 0",
            f"f.c = u > {MASK32}",
            f"f.v = ((~(x ^ y)) & (x ^ r) & {_SIGN_BIT}) != 0",
        ]
    expr = "x & y" if op == "TST" else "x ^ y"
    return [
        f"x = rvals[{rn}]", f"y = {y}",
        f"r = {expr}",
        "f = cpu.apsr",
        f"f.n = (r & {_SIGN_BIT}) != 0",
        f"f.z = (r & {MASK32}) == 0",
    ]


def _emit_mul(ins):
    rd, rn, rm = ins.rd, ins.rn, ins.rm
    if not _no_pc(rd, rn, rm) or rd is None or rn is None or rm is None:
        return None
    lines = [f"r = (rvals[{rn}] * rvals[{rm}]) & {MASK32}", f"rvals[{rd}] = r"]
    if ins.setflags:
        lines += ["f = cpu.apsr", f"f.n = r >= {_SIGN_BIT}", "f.z = r == 0"]
    return lines


def _emit_extend(ins):
    op = ins.mnemonic
    rd = ins.rd
    src = ins.rm if ins.rm is not None else ins.rn
    if not _no_pc(rd, src) or rd is None or src is None:
        return None
    if op == "CLZ":
        return [f"rvals[{rd}] = 32 - rvals[{src}].bit_length()"]
    if op in ("UXTB", "UXTH"):
        mask = 0xFF if op == "UXTB" else 0xFFFF
        return [f"rvals[{rd}] = rvals[{src}] & {mask}"]
    bits = 8 if op == "SXTB" else 16
    mask = (1 << bits) - 1
    sign = 1 << (bits - 1)
    ext = MASK32 ^ mask
    return [f"v = rvals[{src}] & {mask}",
            f"rvals[{rd}] = (v | {ext}) if v >= {sign} else v"]


def _emit_movw_movt(ins):
    rd = ins.rd
    if rd is None or rd == PC or ins.imm is None:
        return None
    if ins.mnemonic == "MOVW":
        return [f"rvals[{rd}] = {ins.imm & 0xFFFF}"]
    high = (ins.imm & 0xFFFF) << 16
    return [f"rvals[{rd}] = {high} | (rvals[{rd}] & 0xFFFF)"]


def _emit_ubfx(ins):
    rd, rn = ins.rd, ins.rn
    lsb, width = ins.bf_lsb, ins.bf_width
    if not _no_pc(rd, rn) or rd is None or rn is None:
        return None
    if lsb is None or width is None or not 0 < width <= 32 - lsb:
        return None
    mask = ((1 << width) - 1) << lsb
    return [f"rvals[{rd}] = (rvals[{rn}] & {mask}) >> {lsb}"]


def _load_sign_lines(sign_bits):
    if sign_bits is None:
        return []
    sign = 1 << (sign_bits - 1)
    ext = MASK32 ^ ((1 << sign_bits) - 1)
    return [f"v = (v | {ext}) if v >= {sign} else v"]


def _mpu_preamble(ns, addr_expr: str, size: int, is_write: bool) -> list:
    """The per-access MPU consultation of an ``"mpu"`` inline plan.

    ``cpu.mpu`` is read dynamically (an MPU attached after fusion is
    honoured); the bound ``cpu._mpu_check`` raises the same
    :class:`~repro.core.exceptions.DataAbort` mid-block that the
    ``cpu.read``/``cpu.write`` path would, with identical partial state
    and an identical ``mpu.faults`` count.
    """
    ns.default("MC", "mpu_check")
    return [
        "m = cpu.mpu",
        "if m is not None:",
        f"    MC({addr_expr}, {size}, {is_write})",
    ]


def _emit_load(cpu, ins, isa, index, ns, ftrack):
    mem = ins.mem
    rd = ins.rd
    if mem is None or rd is None or rd == PC or mem.writeback or mem.postindex:
        return None, None
    size = _LOAD_SIZES[ins.mnemonic]
    sign_bits = _SIGNED_LOADS.get(ins.mnemonic)
    plan = ns.key.data_plan
    if mem.rn == PC:
        if mem.rm is not None:
            return None, None
        pc_off = 8 if isa == "arm" else 4
        address = (((ins.address + pc_off) & ~3) + mem.offset) & MASK32
        # literal-pool load: constant address, so the device decode (and
        # the whole bus dispatch) folds at fuse time; an "mpu" plan keeps
        # the per-access protection check in front of the folded access.
        # Plain SRAM and flash devices fold further - the device *read*
        # itself is transcribed (bounds proven at fuse time), so the hot
        # literal fetch pays no Python call at all (flash pays its
        # ``_access`` stream-state call, which is the timing model).
        device = None if plan is None else cpu.bus._lookup(address)
        if (plan is not None and device is not None
                and address + size <= device.base + device.size):
            ns.default("AR", "constant", AccessRecord)
            lines = []
            if plan == "mpu":
                lines += _mpu_preamble(ns, str(address), size, False)
            offset = address - device.base
            if type(device) is Sram:
                ns.put(f"DV{index}", "literal_device", address)
                ns.default("IFB", "constant", int.from_bytes)
                lines += [
                    f"DV{index}.reads += 1",
                    f"v = IFB(DV{index}.data[{offset}:{offset + size}], 'little')",
                    f"ds = {device.wait_states}",
                ]
            elif type(device) is Flash:
                dev = f"DV{index}"
                ns.put(dev, "literal_device", address)
                ns.put(f"DA{index}", "literal_access", address)
                ns.default("IFB", "constant", int.from_bytes)
                # Flash.read opens with the same _access sequence a fetch
                # does (a literal load breaks the instruction stream -
                # that is the timing model), so the fetch forms serve here
                static = _flash_static_parts(device, dev, address, size,
                                             ftrack)
                if static is not None:
                    stmts, counters, stalls = static
                    lines += stmts
                    lines += [f"{name}.{attr} += 1"
                              for name, attr in counters]
                    lines.append(f"ds = {stalls}")
                else:
                    _flash_track_dynamic(device, address, size, ftrack)
                    lines += _flash_fetch_lines(device, dev, f"DA{index}",
                                                address, size, "ds")
                lines.append(
                    f"v = IFB(DV{index}.data[{offset}:{offset + size}], 'little')")
            else:
                ns.put(f"DL{index}", "literal_read", address)
                lines.append(f"v, ds = DL{index}({address}, {size}, 'D')")
            lines += [
                "bus.reads += 1",
                "bus.total_stalls += ds",
                "if bus.record:",
                f"    bus.accesses.append(AR({address}, {size}, 'R', 'D', ds))",
            ]
            lines += _load_sign_lines(sign_bits)
            lines.append(f"rvals[{rd}] = v & {MASK32}")
            return lines, "local"
        ftrack.clear()  # mediated literal read may reach a flash device
        lines = ["cpu._data_stalls = 0", f"v = RD({address}, {size})"]
        lines += _load_sign_lines(sign_bits)
        lines.append(f"rvals[{rd}] = v & {MASK32}")
        return lines, "attr"
    if mem.rm is None:
        addr_expr = f"(rvals[{mem.rn}] + {mem.offset}) & {MASK32}"
    elif mem.rm == PC:
        return None, None
    else:
        addr_expr = (f"(rvals[{mem.rn}] + ((rvals[{mem.rm}] << {mem.shift})"
                     f" & {MASK32})) & {MASK32}")
    ftrack.clear()  # runtime-addressed access: may land on a flash device
    if plan is not None:
        # transcription of SystemBus.read's span-cache hit path, with the
        # SRAM device read itself inlined behind a type test (the span
        # guarantees the bounds, so the inline arm cannot fault); a span
        # miss - or an access overrunning the span's device - falls back
        # to the full cpu.read dispatch, which re-checks the MPU (a pure
        # re-pass, since a denied access raised in MC above) and raises
        # the same faults the reference path would
        ns.default("AR", "constant", AccessRecord)
        ns.default("SRT", "constant", Sram)
        ns.default("IFB", "constant", int.from_bytes)
        lines = [f"a = {addr_expr}"]
        if plan == "mpu":
            lines += _mpu_preamble(ns, "a", size, False)
        lines += [
            "sp = bus._span_d",
            f"if sp[0] <= a and a + {size} <= sp[1]:",
            "    d = sp[2]",
            "    if type(d) is SRT:",
            "        d.reads += 1",
            "        o = a - d.base",
            f"        v = IFB(d.data[o:o + {size}], 'little')",
            "        ds = d.wait_states",
            "    else:",
            f"        v, ds = d.read(a, {size}, 'D')",
            "    bus.reads += 1",
            "    bus.total_stalls += ds",
            "    if bus.record:",
            f"        bus.accesses.append(AR(a, {size}, 'R', 'D', ds))",
            "else:",
            "    cpu._data_stalls = 0",
            f"    v = RD(a, {size})",
            "    ds = cpu._data_stalls",
        ]
        lines += _load_sign_lines(sign_bits)
        lines.append(f"rvals[{rd}] = v & {MASK32}")
        return lines, "local"
    lines = ["cpu._data_stalls = 0", f"v = RD({addr_expr}, {size})"]
    lines += _load_sign_lines(sign_bits)
    lines.append(f"rvals[{rd}] = v & {MASK32}")
    return lines, "attr"


def _emit_store(ins, index, ns, ftrack):
    mem = ins.mem
    rd = ins.rd
    if (mem is None or rd is None or rd == PC or mem.rn == PC
            or mem.writeback or mem.postindex):
        return None, None
    size = _STORE_SIZES[ins.mnemonic]
    vmask = _STORE_MASKS[size]
    if mem.rm is None:
        addr_expr = f"(rvals[{mem.rn}] + {mem.offset}) & {MASK32}"
    elif mem.rm == PC:
        return None, None
    else:
        addr_expr = (f"(rvals[{mem.rn}] + ((rvals[{mem.rm}] << {mem.shift})"
                     f" & {MASK32})) & {MASK32}")
    ftrack.clear()  # runtime-addressed access: may land on a flash device
    plan = ns.key.data_plan
    if plan is not None:
        ns.default("AR", "constant", AccessRecord)
        ns.default("SRT", "constant", Sram)
        lines = [f"a = {addr_expr}"]
        if plan == "mpu":
            lines += _mpu_preamble(ns, "a", size, True)
        lines += [
            "sp = bus._span_d",
            f"if sp[0] <= a and a + {size} <= sp[1]:",
            "    d = sp[2]",
            "    if type(d) is SRT:",
            "        d.writes += 1",
            "        o = a - d.base",
            f"        d.data[o:o + {size}] = (rvals[{rd}] & {vmask})"
            f".to_bytes({size}, 'little')",
            "        ds = d.wait_states",
            "    else:",
            f"        ds = d.write(a, {size}, rvals[{rd}] & {vmask}, 'D')",
            "    bus.writes += 1",
            "    bus.total_stalls += ds",
            "    if bus.record:",
            f"        bus.accesses.append(AR(a, {size}, 'W', 'D', ds))",
            "else:",
            "    cpu._data_stalls = 0",
            f"    WR(a, {size}, rvals[{rd}] & {vmask})",
            "    ds = cpu._data_stalls",
        ]
        return lines, "local"
    return ["cpu._data_stalls = 0",
            f"WR({addr_expr}, {size}, rvals[{rd}] & {vmask})"], "attr"


_NOOP_OPS = frozenset({"NOP", "DSB", "ISB", "BKPT"})


def _emit_exec(cpu, ins, isa, index, ns, ftrack):
    """Inline statements for one exec body: ``(lines, ds_mode)``.

    ``ds_mode`` tells the step emitter where the data-side stalls landed:
    ``None`` (no data access), ``"attr"`` (accumulated in
    ``cpu._data_stalls``, which the emitted lines reset first), or
    ``"local"`` (left in the local ``ds``).  ``lines`` of ``None`` means
    no inline form - the caller keeps the prebound closure, which is
    always correct.
    """
    op = ins.mnemonic
    if op in _NOOP_OPS:
        return [], None
    if op in ("MOV", "MVN"):
        return _emit_mov(ins), None
    if op in ("ADD", "SUB"):
        return _emit_add_sub(ins), None
    if op in _LOGIC_EXPR:
        return _emit_logic(ins), None
    if op in ("LSL", "LSR", "ASR", "ROR"):
        return _emit_shift(ins), None
    if op in ("CMP", "CMN", "TST", "TEQ"):
        return _emit_compare(ins), None
    if op == "MUL":
        return _emit_mul(ins), None
    if op in ("CLZ", "UXTB", "UXTH", "SXTB", "SXTH"):
        return _emit_extend(ins), None
    if op in ("MOVW", "MOVT"):
        return _emit_movw_movt(ins), None
    if op == "UBFX":
        return _emit_ubfx(ins), None
    if op in ("LDR", "LDRB", "LDRH", "LDRSB", "LDRSH"):
        return _emit_load(cpu, ins, isa, index, ns, ftrack)
    if op in ("STR", "STRB", "STRH"):
        return _emit_store(ins, index, ns, ftrack)
    return None, None


# ----------------------------------------------------------------------
# fetch emitters
# ----------------------------------------------------------------------

def _flash_static_parts(device, dev, address, size, ftrack):
    """Statically resolved flash access at ``address``, or ``None``.

    ``ftrack`` maps a flash device to its stream state as known at this
    point of the fused code: ``(buffered_line, streaming)`` with
    ``streaming`` of ``None`` when unknown.  Every fused access leaves the
    stream in a statically known line, so after the first (dynamic) fetch
    the whole rest of the trace resolves each access to exactly one
    ``Flash._access`` arm at fuse time: a same-line hit, a sequential
    stream advance, or a stream break - each a couple of state updates
    plus counter increments with a *constant* stall count.  Returns
    ``(state_stmts, counters, const_stalls)`` where ``counters`` are
    ``(name, attr)`` unit increments the caller may defer; updates
    ``ftrack``.  Accesses straddling a line, or with unknown prior state,
    return ``None`` (the dynamic form then re-establishes the state).
    """
    line = address & ~(device.line_bytes - 1)
    if address + size > line + device.line_bytes:
        return None
    state = ftrack.get(id(device))
    if state is None:
        return None
    known_line, streaming = state
    if known_line == line:
        # hit arm: counters only, stream state untouched
        return [], [(dev, "sequential_hits")], 0
    if known_line + device.line_bytes == line:
        if streaming is not True:
            return None  # adjacent line, unknown streaming: stay dynamic
        ftrack[id(device)] = (line, True)
        stmts = [f"{dev}._buffered_line = {line}"]
        counters = [(dev, "array_accesses")]
        if device.prefetch:
            counters.append((dev, "sequential_hits"))
            return stmts, counters, 0
        return stmts, counters, device.access_cycles
    # non-sequential: statically a stream break (buffered is known set)
    ftrack[id(device)] = (line, True)
    stmts = [f"{dev}._buffered_line = {line}",
             f"{dev}._streaming = True"]
    return (stmts, [(dev, "stream_breaks"), (dev, "array_accesses")],
            device.access_cycles)


def _flash_track_dynamic(device, address, size, ftrack) -> None:
    """Record the stream state a dynamic access at ``address`` leaves."""
    line = address & ~(device.line_bytes - 1)
    if address + size > line + device.line_bytes:
        # the straddle's second _access deterministically misses into the
        # next line, leaving the stream established there
        ftrack[id(device)] = (line + device.line_bytes, True)
    else:
        # hit arm leaves prior streaming state, miss arms set it: unknown
        ftrack[id(device)] = (line, None)


def _flash_fetch_lines(device, dev, da, address, size, stall_var) -> list[str]:
    """The flash instruction-fetch sequence leaving stalls in ``stall_var``.

    The buffered-line hit test is inline, and the miss arm transcribes
    ``Flash._access`` statement for statement - stream-state reads stay
    dynamic, the geometry (line address, line width, array latency,
    prefetch mode) folds at fuse time like the SRAM wait states do - so
    steady-state line crossings pay no Python call.  A fetch straddling
    two lines keeps the bound ``_access`` call (``da``) for its second
    line (rare, and the first access just rewrote the stream state).
    """
    line = address & ~(device.line_bytes - 1)
    straddles = address + size > line + device.line_bytes
    lines = [
        f"if {dev}._buffered_line == {line}:",
        f"    {dev}.sequential_hits += 1",
        f"    {stall_var} = 0",
        "else:",
    ]
    miss = [
        f"b = {dev}._buffered_line",
        f"if {dev}._streaming and b is not None and b == {line - device.line_bytes}:",
        f"    {dev}._buffered_line = {line}",
        f"    {dev}.array_accesses += 1",
    ]
    if device.prefetch:
        miss += [f"    {dev}.sequential_hits += 1",
                 f"    {stall_var} = 0"]
    else:
        miss.append(f"    {stall_var} = {device.access_cycles}")
    miss += [
        "else:",
        "    if b is not None:",
        f"        {dev}.stream_breaks += 1",
        f"    {dev}._buffered_line = {line}",
        f"    {dev}._streaming = True",
        f"    {dev}.array_accesses += 1",
        f"    {stall_var} = {device.access_cycles}",
    ]
    lines += ["    " + stmt for stmt in miss]
    if straddles:
        lines.append(f"{stall_var} += {da}({address + size - 1})")
    return lines


def _parity_fold(var: str) -> list[str]:
    """Statements folding ``var`` to its even-parity bit in bit 0 - a
    literal transcription of :func:`repro.memory.cache.parity32`."""
    return [f"{var} ^= {var} >> 16",
            f"{var} ^= {var} >> 8",
            f"{var} ^= {var} >> 4",
            f"{var} ^= {var} >> 2",
            f"{var} ^= {var} >> 1"]


def _emit_cache_fetch(cpu, cache, address, size, index, ns):
    """Inline one cached instruction fetch, leaving the stalls in ``s``.

    A statement-for-statement transcription of ``Cache.read`` for a
    constant address (geometry folded at fuse time via
    :meth:`~repro.memory.cache.Cache.lookup_plan`): way lookup with
    tag-parity screening, hit/miss counters, fill on miss, data-parity
    verification (the rare mismatch falls back to the bound
    ``_check_parity``, which recounts and recovers exactly as the
    reference would), and the LRU touch.  The value read is dropped -
    instruction fetches are timing-only.  Fetches that straddle a cache
    line, and a disabled cache, fall back to the prebound thunk.
    """
    plan = cache.lookup_plan(address, size)
    if plan is None:
        return None  # line-straddling fetch: keep the closure-call thunk
    if cpu._fetch_thunk(address, size) is None:
        return None
    tag, set_index, offset, _ = plan
    ns.default("IC", "icache")
    ns.default("ICS", "icache_stats")
    ns.default("ICF", "icache_fill")
    ns.default("ICP", "icache_parity")
    ns.put(f"W{index}", "icache_ways", (address, size))
    ns.put(f"F{index}", "fetch_thunk", (address, size))
    ln = f"ln{index}"
    body = [
        f"{ln} = None",
        f"for _c in W{index}:",
        "    if not _c.valid:",
        "        continue",
        "    _t = _c.tag",
    ]
    body += ["    " + stmt for stmt in _parity_fold("_t")]
    body += [
        "    if (_t & 1) != _c.tag_parity:",
        "        ICS.tag_errors += 1",
        "        _c.valid = False",
        "        continue",
        f"    if _c.tag == {tag}:",
        f"        {ln} = _c",
        "        break",
        f"if {ln} is None:",
        "    ICS.misses += 1",
        f"    {ln}, s = ICF({tag}, {set_index}, 'I')",
        "else:",
        "    ICS.hits += 1",
        "    s = 0",
        f"_d = {ln}.data",
    ]
    first_word = offset // 4
    last_word = (offset + size - 1) // 4
    recover = f"s += ICP({ln}, {offset}, {size}, {tag}, {set_index}, 'I')"
    indent = ""
    for word in range(first_word, last_word + 1):
        o = word * 4
        body += [indent + stmt for stmt in (
            [f"_w = _d[{o}] | (_d[{o + 1}] << 8) | (_d[{o + 2}] << 16)"
             f" | (_d[{o + 3}] << 24)"]
            + _parity_fold("_w")
            + [f"if (_w & 1) != {ln}.word_parity[{word}]:",
               "    " + recover]
        )]
        if word != last_word:
            # _check_parity stops at the first mismatch: later words are
            # only verified when the earlier ones were clean
            body.append(indent + "else:")
            indent += "    "
    body += [
        "IC._lru_clock += 1",
        f"{ln}.lru = IC._lru_clock",
    ]
    lines = ["if IC.enabled:"]
    lines += ["    " + stmt for stmt in body]
    lines += ["else:", f"    s = F{index}()"]
    return lines


def _emit_fetch(cpu, uop, index, ns, ftrack):
    """Emit the instruction-fetch sequence assigning stall cycles to ``s``.

    Returns ``(lines, static_stalls)``.  When the core fetches straight
    from the bus and the (statically known) instruction address lands in a
    plain SRAM or flash device, the whole fetch - device decode, stream
    bookkeeping, bus statistics, access record - is emitted inline, so the
    hot path pays no Python call at all (flash pays one ``_access`` call
    per line crossing only).  ``static_stalls`` is the constant stall
    count when it is statically known (SRAM), letting the caller fold it
    into the cycle cost; otherwise ``None`` and the stalls are in ``s``.

    Every inline form is a literal transcription of the corresponding
    ``SystemBus.fetch_stalls`` + device ``fetch_stalls`` pair, in order:
    device timing first, then read counter, stall total, access record.
    Cores that fetch through an instruction cache (``cpu._fetch_cache``)
    get the cached fetch emitted inline instead (:func:`_emit_cache_fetch`).
    """
    address, size = uop.address, uop.size
    device = cpu._fetch_bus_device(address, size)
    if device is not None and type(device) is Sram:
        ws = device.wait_states
        ns.put(f"D{index}", "fetch_device", (address, size))
        ns.default("AR", "constant", AccessRecord)
        lines = [
            f"D{index}.reads += 1",
            "bus.reads += 1",
            f"bus.total_stalls += {ws}",
            "if bus.record:",
            f"    bus.accesses.append(AR({address}, {size}, 'R', 'I', {ws}))",
        ]
        return lines, ws
    if device is not None and type(device) is Flash:
        dev = f"D{index}"
        ns.put(dev, "fetch_device", (address, size))
        ns.put(f"DA{index}", "fetch_device_access", (address, size))
        ns.default("AR", "constant", AccessRecord)
        static = _flash_static_parts(device, dev, address, size, ftrack)
        if static is not None:
            stmts, counters, stalls = static
            lines = list(stmts)
            lines += [f"{name}.{attr} += 1" for name, attr in counters]
            lines += [
                "bus.reads += 1",
                f"bus.total_stalls += {stalls}",
                "if bus.record:",
                f"    bus.accesses.append("
                f"AR({address}, {size}, 'R', 'I', {stalls}))",
            ]
            return lines, stalls
        _flash_track_dynamic(device, address, size, ftrack)
        lines = _flash_fetch_lines(device, dev, f"DA{index}",
                                   address, size, "s")
        lines += [
            "bus.reads += 1",
            "bus.total_stalls += s",
            "if bus.record:",
            f"    bus.accesses.append(AR({address}, {size}, 'R', 'I', s))",
        ]
        return lines, None
    # fetches through caches or opaque ports may reach flash devices
    # behind the scenes: forget any statically tracked stream state
    ftrack.clear()
    cache = cpu._fetch_cache()
    if cache is not None:
        lines = _emit_cache_fetch(cpu, cache, address, size, index, ns)
        if lines is not None:
            return lines, None
    if cpu._fetch_thunk(address, size) is not None:
        ns.put(f"F{index}", "fetch_thunk", (address, size))
        return [f"s = F{index}()"], None
    ns.put(f"F{index}", "fetch_port")
    return [f"s = F{index}({address}, {size})"], None


# ----------------------------------------------------------------------
# block fusion
# ----------------------------------------------------------------------

def _emit_step(cpu, uop, index, ns, isa, ftrack):
    """Emit the full per-step sequence for one chainable micro-op.

    Transcribes ``_bind_uop_slim`` statement for statement: fetch,
    (predicate,) execute, cycle accounting, instruction count, PC write.
    Returns None when the micro-op has no slim form (the caller then calls
    its bound step closure).
    """
    ins = uop.ins
    cycle_fn = cpu.compile_cycles(ins)
    base = getattr(cycle_fn, "static_base", None) if cycle_fn is not None else None
    if uop.cond_check is not None and base is None:
        return None
    fetch_lines, static_stalls = _emit_fetch(cpu, uop, index, ns, ftrack)
    stall_expr = "s" if static_stalls is None else str(static_stalls)
    mem = uop.kind == "mem"
    if uop.cond_check is None:
        body, ds_mode = _emit_exec(cpu, ins, isa, index, ns, ftrack)
    else:
        # a predicated body may or may not run: emit it without static
        # flash-state folding (a throwaway tracker), and treat the device
        # state as unknown afterwards when the body touches memory
        body, ds_mode = _emit_exec(cpu, ins, isa, index, ns, {})
        if mem:
            ftrack.clear()
    if body is None:
        ns.put(f"E{index}", "constant", uop.exec)
        ns.put(f"O{index}", "outcome")
        body = [f"E{index}(cpu, O{index})"]
        ds_mode = "attr" if mem else None
        if mem:
            body.insert(0, "cpu._data_stalls = 0")
            ftrack.clear()  # closure-run accesses may reach flash
    if base is not None:
        if static_stalls is not None:
            cost = str(base + static_stalls)
        else:
            cost = f"{base} + s"
    else:
        ns.put(f"K{index}", "cycles", ins)
        ns.default(f"O{index}", "outcome")
        cost = f"K{index}(O{index}) + {stall_expr}"
    if ds_mode == "attr":
        cost += " + cpu._data_stalls"
    elif ds_mode == "local":
        cost += " + ds"
    lines = list(fetch_lines)
    if uop.cond_check is None:
        lines += body
        lines.append(f"cpu.cycles += {cost}")
    else:
        lines.append("f = cpu.apsr")
        lines.append(f"if {_cond_test(ins)}:")
        lines += ["    " + b for b in body]
        lines.append(f"    cpu.cycles += {cost}")
        lines.append("else:")
        skipped_cost = "1 + s" if static_stalls is None else str(1 + static_stalls)
        lines.append(f"    cpu.cycles += {skipped_cost}")
        lines.append("    cpu.instructions_skipped += 1")
    lines.append("cpu.instructions_executed += 1")
    lines.append(f"rvals[15] = {uop.next_pc}")
    return lines


def _emit_branch_ender(cpu, uop, index, ns, ftrack):
    """Inline a superblock's terminating branch, or None for closure call.

    Covers exactly the shapes ``_compile_branch`` specialises (resolved
    targets, register BX/BLX not via the PC), transcribing the general
    bound step's bookkeeping around them: a taken branch counts in
    ``branches_taken`` and skips the PC advance; a condition-failed branch
    costs 1 cycle, counts as skipped, and falls through.  The
    ``cpu.branch`` call is kept - halt detection and the cores' exception-
    return hooks live there.
    """
    ins = uop.ins
    op = ins.mnemonic
    if op not in ("B", "BL", "BX", "BLX"):
        return None
    cycle_fn = cpu.compile_cycles(ins)
    base = getattr(cycle_fn, "static_base", None) if cycle_fn is not None else None
    taken = getattr(cycle_fn, "static_taken", None) if cycle_fn is not None else None
    if base is None or taken is None:
        return None
    taken_lines = []
    if op in ("BX", "BLX") and ins.rm is not None:
        if ins.rm == PC:
            return None
        if op == "BLX":
            # read the target before writing LR: `blx lr` must branch to
            # the OLD link register (same order as _compile_branch)
            taken_lines.append(f"t = rvals[{ins.rm}]")
            taken_lines.append(f"rvals[14] = {(ins.address + ins.size) & MASK32}")
            taken_lines.append("BR(t & ~1)")
        else:
            taken_lines.append(f"BR(rvals[{ins.rm}] & ~1)")
    elif ins.target is not None:
        if op == "BL":
            taken_lines.append(f"rvals[14] = {(ins.address + ins.size) & MASK32}")
        elif op != "B":
            return None  # BX/BLX without rm: fallback handler raises
        inline = cpu._branch_inline(ins.target)
        if inline is not None:
            taken_lines += inline
        else:
            taken_lines.append(f"BR({ins.target})")
    else:
        return None  # unresolved label: generic path raises
    # always bound: core inline forms route their rare arms through it
    ns.default("BR", "branch")
    fetch_lines, static_stalls = _emit_fetch(cpu, uop, index, ns, ftrack)
    if static_stalls is not None:
        taken_cost = str(taken + static_stalls)
        skip_cost = str(1 + static_stalls)
    else:
        taken_cost = f"{taken} + s"
        skip_cost = "1 + s"
    lines = list(fetch_lines)
    if uop.cond_check is None:
        lines += taken_lines
        lines.append("cpu.branches_taken += 1")
        lines.append(f"cpu.cycles += {taken_cost}")
        lines.append("cpu.instructions_executed += 1")
        return lines
    lines.append("f = cpu.apsr")
    lines.append(f"if {_cond_test(ins)}:")
    lines += ["    " + t for t in taken_lines]
    lines.append("    cpu.branches_taken += 1")
    lines.append(f"    cpu.cycles += {taken_cost}")
    lines.append("else:")
    lines.append(f"    cpu.cycles += {skip_cost}")
    lines.append("    cpu.instructions_skipped += 1")
    lines.append(f"    rvals[15] = {uop.next_pc}")
    lines.append("cpu.instructions_executed += 1")
    return lines


def _backedge_eligible(cpu, uop, entry) -> bool:
    """Whether the block's ender is a fusable loop back-edge: a direct
    branch to the block's own head with a statically known cycle cost."""
    if not uop.is_back_edge or uop.branch_target != entry:
        return False
    cycle_fn = cpu.compile_cycles(uop.ins)
    return (cycle_fn is not None
            and getattr(cycle_fn, "static_base", None) is not None
            and getattr(cycle_fn, "static_taken", None) is not None)


def _emit_loop_backedge(cpu, uop, index, ns, entry, count, ftrack):
    """Inline a loop back-edge that *continues* the enclosing while-loop.

    The looping variant of :func:`_emit_branch_ender` for a direct branch
    whose target is the block's own head: the taken path performs the
    identical branch bookkeeping, then revalidates the conditions the
    engine's dispatch loop would have checked before re-entering the block
    - PC really back at the head and not halted (only when the real
    ``cpu.branch`` had to be called), interrupt queue still empty (the
    event horizon: with an empty queue no poll can have an effect), one
    more full iteration under the cycle ceiling (``_sb_cycle_limit``, one
    block cycle cap below it), and one more full iteration inside the
    instruction budget.  When every guard holds the generated loop
    continues with zero engine dispatch; otherwise the function returns
    with the machine exactly where per-step execution would have left it,
    and the engine takes over.  Returns
    ``None`` when the back-edge has no static-cost inline form (the block
    then fuses as a plain straight-line superblock).
    """
    ins = uop.ins
    if ins.mnemonic != "B" or uop.branch_target != entry:
        return None
    cycle_fn = cpu.compile_cycles(ins)
    base = getattr(cycle_fn, "static_base", None) if cycle_fn is not None else None
    taken = getattr(cycle_fn, "static_taken", None) if cycle_fn is not None else None
    if base is None or taken is None:
        return None
    ns.default("BR", "branch")  # core inline forms use it for rare arms
    inline = cpu._branch_inline(entry)
    if inline is not None:
        # the inline contract: pc ends at the constant target, not halted
        taken_lines = list(inline)
        recheck = []
    else:
        taken_lines = [f"BR({entry})"]
        # a full branch() call may halt or redirect: revalidate before
        # looping
        recheck = [f"if cpu.halted or rvals[15] != {entry}:",
                   "    return"]
    fetch_lines, static_stalls = _emit_fetch(cpu, uop, index, ns, ftrack)
    if static_stalls is not None:
        taken_cost = str(taken + static_stalls)
        skip_cost = str(1 + static_stalls)
    else:
        taken_cost = f"{taken} + s"
        skip_cost = "1 + s"
    taken_lines += [
        "cpu.branches_taken += 1",
        f"cpu.cycles += {taken_cost}",
        "cpu.instructions_executed += 1",
    ]
    taken_lines += recheck
    # IRQQ is the controller queue bound at fuse time (the engine drops
    # all fused blocks if the controller is swapped between runs), so the
    # event-horizon revalidation is one truthiness test per iteration.
    # The cycle test keeps a fused loop looping between co-simulation bus
    # events and returns, bit-exactly at an iteration boundary, when the
    # quantum (minus the block's cycle cap) is reached; unbounded runs set
    # the limit past any reachable cycle.
    guard = ("IRQQ or cpu.cycles >= cpu._sb_cycle_limit"
             f" or cpu.instructions_executed + {count} > cpu._sb_limit")
    taken_lines += [
        f"if {guard}:",
        "    return",
        "continue",
    ]
    lines = list(fetch_lines)
    if uop.cond_check is None:
        return lines + taken_lines
    lines.append("f = cpu.apsr")
    lines.append(f"if {_cond_test(ins)}:")
    lines += ["    " + t for t in taken_lines]
    # every taken path continued or returned: falling through means the
    # branch direction changed (loop exit) - the bit-exact fallback
    lines.append(f"cpu.cycles += {skip_cost}")
    lines.append("cpu.instructions_skipped += 1")
    lines.append("cpu.instructions_executed += 1")
    lines.append(f"rvals[15] = {uop.next_pc}")
    lines.append("return")
    return lines


# ----------------------------------------------------------------------
# span coalescing: deferred accounting across provably raise-free runs
# ----------------------------------------------------------------------

_FLAGS = ("n", "z", "c", "v")

#: mnemonics whose inline exec bodies are pure ALU (registers and flags
#: only - no memory, no calls, nothing that can raise): the only ops a
#: coalesced span may contain
_LEAN_OPS = frozenset({
    "NOP", "DSB", "ISB", "BKPT", "MOV", "MVN", "ADD", "SUB", "LSL", "LSR",
    "ASR", "ROR", "CMP", "CMN", "TST", "TEQ", "MUL", "CLZ", "UXTB", "UXTH",
    "SXTB", "SXTH", "MOVW", "MOVT", "UBFX",
}) | frozenset(_LOGIC_EXPR)


def _lean_step(cpu, uop, index, ns, isa, ftrack):
    """One step prepared for *span coalescing*, or ``None``.

    A lean step is an unconditional chainable micro-op whose inline form
    provably cannot raise: a pure-ALU body (no data access, no closure
    call) fetched straight from a plain SRAM or flash device with a static
    cycle cost.  For a run of such steps nothing outside the CPU's own
    registers can observe the boundaries between them, so the counter
    updates (cycles, instruction count, bus reads/stalls, access records)
    and intermediate PC writes are deferred to the end of the span
    (:func:`_flush_span`) - the sums are identical, and any *barrier* (a
    step that can fault or call out) flushes first, so a mid-block
    exception still observes exactly the per-step state.

    Returns a dict of the step's parts: fetch statements (flash stream
    bookkeeping stays in place - its order against other flash traffic is
    device state), value statements, and per-flag assignments kept
    separate so :func:`_flush_span` can drop writes that are dead within
    the span (overwritten before the span ends; the span end itself is a
    full barrier, so flags that survive to it are always materialised).
    """
    if not uop.chainable or uop.cond_check is not None:
        return None
    ins = uop.ins
    if ins.mnemonic not in _LEAN_OPS:
        return None
    cycle_fn = cpu.compile_cycles(ins)
    base = getattr(cycle_fn, "static_base", None) if cycle_fn is not None else None
    if base is None:
        return None
    body, ds_mode = _emit_exec(cpu, ins, isa, index, ns, ftrack)
    if body is None or ds_mode is not None:
        return None
    entry = _lean_fetch(cpu, uop, index, ns, ftrack, base)
    if entry is None:
        return None
    for stmt in body:
        if stmt == "f = cpu.apsr":
            continue
        if stmt.startswith("f."):
            entry["flags"][stmt[2]] = stmt
        else:
            entry["body"].append(stmt)
    return entry


def _lean_fetch(cpu, uop, index, ns, ftrack, base):
    """A span entry with the fetch parts filled in, or ``None``.

    Only plain SRAM and flash fetches qualify (provably raise-free); the
    flash form uses the statically resolved stream arm when the fuse-time
    tracker knows the state, the dynamic transcription otherwise.
    """
    address, size = uop.address, uop.size
    device = cpu._fetch_bus_device(address, size)
    entry = {
        "fetch": [], "stall_consts": 0, "stall_vars": [], "records": [],
        "counters": (), "reads": 1, "writes": 0, "branches": 0,
        "escape": False, "body": [], "flags": {}, "base": base,
        "next_pc": uop.next_pc,
    }
    if device is not None and type(device) is Sram:
        ns.put(f"D{index}", "fetch_device", (address, size))
        ns.default("AR", "constant", AccessRecord)
        ws = device.wait_states
        entry["stall_consts"] = ws
        entry["counters"] = ((f"D{index}", "reads"),)
        entry["records"].append(f"AR({address}, {size}, 'R', 'I', {ws})")
        return entry
    if device is not None and type(device) is Flash:
        dev = f"D{index}"
        ns.put(dev, "fetch_device", (address, size))
        ns.put(f"DA{index}", "fetch_device_access", (address, size))
        ns.default("AR", "constant", AccessRecord)
        static = _flash_static_parts(device, dev, address, size, ftrack)
        if static is not None:
            stmts, counters, stalls = static
            entry["fetch"] = list(stmts)
            entry["counters"] = tuple(counters)
            entry["stall_consts"] = stalls
            entry["records"].append(f"AR({address}, {size}, 'R', 'I', {stalls})")
        else:
            _flash_track_dynamic(device, address, size, ftrack)
            stall_var = f"s{index}"
            entry["fetch"] = _flash_fetch_lines(device, dev, f"DA{index}",
                                                address, size, stall_var)
            entry["stall_vars"].append(stall_var)
            entry["records"].append(
                f"AR({address}, {size}, 'R', 'I', {stall_var})")
        return entry
    return None


def _lean_mem_step(cpu, uop, index, ns, ftrack, span):
    """A plain load/store prepared for span membership, or ``None``.

    The common path - span-cache hit on an SRAM device (and, for a
    literal pool, a constant SRAM/flash address proven in bounds at fuse
    time) - is raise-free, so the step's accounting defers with the rest
    of the span.  Every rare path (span miss, device overrun, an MPU
    attached after fusion) first materialises the deferred state
    (:func:`_span_accounting` with the step's own fetch as the partial
    contribution - exactly what the per-step engine would have committed
    before the faulting body), then completes the instruction through the
    mediated ``cpu.read``/``cpu.write`` path and returns to the engine;
    a fault raised there observes bit-exact per-step state.  Only fused
    without a fuse-time MPU: a protected core keeps the barrier form,
    whose inline MPU check stays on the fast path.
    """
    if not uop.chainable or uop.cond_check is not None:
        return None
    ins = uop.ins
    op = ins.mnemonic
    if op in _LOAD_SIZES:
        load = True
        size = _LOAD_SIZES[op]
    elif op in _STORE_SIZES:
        load = False
        size = _STORE_SIZES[op]
    else:
        return None
    mem = ins.mem
    rd = ins.rd
    if mem is None or rd is None or rd == PC or mem.writeback or mem.postindex:
        return None
    if mem.rm == PC or (not load and mem.rn == PC):
        return None
    plan = ns.key.data_plan
    if plan is None or (plan == "mpu" and ns.key.mpu):
        return None
    cycle_fn = cpu.compile_cycles(ins)
    base = getattr(cycle_fn, "static_base", None) if cycle_fn is not None else None
    if base is None:
        return None
    sign_bits = _SIGNED_LOADS.get(op) if load else None
    literal_device = None
    literal_address = None
    if load and mem.rn == PC:
        # resolve the literal before any tracker-mutating emission so a
        # rejection leaves the fuse-time stream state untouched
        pc_off = 8 if cpu.program.isa == "arm" else 4
        literal_address = (((ins.address + pc_off) & ~3) + mem.offset) & MASK32
        literal_device = cpu.bus._lookup(literal_address)
        if (literal_device is None
                or literal_address + size > literal_device.base + literal_device.size
                or type(literal_device) not in (Sram, Flash)):
            return None
    entry = _lean_fetch(cpu, uop, index, ns, ftrack, base)
    if entry is None:
        return None
    if entry["stall_vars"]:
        fetch_stalls = entry["stall_vars"][0]
    else:
        fetch_stalls = str(entry["stall_consts"])
    vmask = None if load else _STORE_MASKS[size]

    def completion(access_expr: str) -> list[str]:
        """The mediated rest-of-instruction an escape arm runs."""
        done = ["cpu._data_stalls = 0", access_expr]
        if load:
            done += _load_sign_lines(sign_bits)
            done.append(f"rvals[{rd}] = v & {MASK32}")
        done += [
            f"cpu.cycles += {base} + {fetch_stalls} + cpu._data_stalls",
            "cpu.instructions_executed += 1",
            f"rvals[15] = {uop.next_pc}",
            "return",
        ]
        return done

    body = entry["body"]
    ns.default("AR", "constant", AccessRecord)
    ns.default("IFB", "constant", int.from_bytes)
    if load and mem.rn == PC:
        # literal pool: constant address, device and bounds proven above;
        # only SRAM and flash are known raise-free
        address = literal_address
        device = literal_device
        if plan == "mpu":
            # an MPU attached after fusion reroutes through the mediated
            # path (which consults it and faults bit-exactly)
            entry["escape"] = True
            body.append("if cpu.mpu is not None:")
            body += ["    " + stmt for stmt in
                     _span_accounting(list(span), uop.address, partial=entry)
                     + completion(f"v = RD({address}, {size})")]
        offset = address - device.base
        dev = f"DV{index}"
        ns.put(dev, "literal_device", address)
        if type(device) is Sram:
            entry["counters"] += ((dev, "reads"),)
            entry["stall_consts"] += device.wait_states
            entry["records"].append(
                f"AR({address}, {size}, 'R', 'D', {device.wait_states})")
        else:
            ns.put(f"DAL{index}", "literal_access", address)
            static = _flash_static_parts(device, dev, address, size, ftrack)
            if static is not None:
                stmts, counters, stalls = static
                body += stmts
                entry["counters"] += tuple(counters)
                entry["stall_consts"] += stalls
                entry["records"].append(
                    f"AR({address}, {size}, 'R', 'D', {stalls})")
            else:
                _flash_track_dynamic(device, address, size, ftrack)
                stall_var = f"ds{index}"
                body += _flash_fetch_lines(device, dev, f"DAL{index}",
                                           address, size, stall_var)
                entry["stall_vars"].append(stall_var)
                entry["records"].append(
                    f"AR({address}, {size}, 'R', 'D', {stall_var})")
        body.append(f"v = IFB({dev}.data[{offset}:{offset + size}], 'little')")
        body += _load_sign_lines(sign_bits)
        body.append(f"rvals[{rd}] = v & {MASK32}")
        entry["reads"] += 1
        return entry
    # register-addressed: span-cache hit on an SRAM device is the lean
    # path (the span bounds prove the access in range, SRAM cannot fault,
    # and an SRAM access cannot disturb tracked flash stream state)
    addr = f"a{index}"
    stall_var = f"ds{index}"
    if mem.rn == PC:
        return None
    if mem.rm is None:
        body.append(f"{addr} = (rvals[{mem.rn}] + {mem.offset}) & {MASK32}")
    else:
        body.append(f"{addr} = (rvals[{mem.rn}] + ((rvals[{mem.rm}]"
                    f" << {mem.shift}) & {MASK32})) & {MASK32}")
    ns.default("SRT", "constant", Sram)
    guard = "cpu.mpu is None and " if plan == "mpu" else ""
    entry["escape"] = True
    body.append("sp = bus._span_d")
    body.append(f"if {guard}sp[0] <= {addr} and {addr} + {size} <= sp[1]"
                " and type(sp[2]) is SRT:")
    lean_arm = [
        "d = sp[2]",
        f"d.{'reads' if load else 'writes'} += 1",
        f"o = {addr} - d.base",
    ]
    if load:
        lean_arm.append(f"v = IFB(d.data[o:o + {size}], 'little')")
    else:
        lean_arm.append(f"d.data[o:o + {size}] = "
                        f"(rvals[{rd}] & {vmask}).to_bytes({size}, 'little')")
    lean_arm.append(f"{stall_var} = d.wait_states")
    body += ["    " + stmt for stmt in lean_arm]
    body.append("else:")
    if load:
        access = f"v = RD({addr}, {size})"
    else:
        access = f"WR({addr}, {size}, rvals[{rd}] & {vmask})"
    body += ["    " + stmt for stmt in
             _span_accounting(list(span), uop.address, partial=entry)
             + completion(access)]
    if load:
        body += _load_sign_lines(sign_bits)
        body.append(f"rvals[{rd}] = v & {MASK32}")
        entry["reads"] += 1
        entry["records"].append(f"AR({addr}, {size}, 'R', 'D', {stall_var})")
    else:
        entry["writes"] += 1
        entry["records"].append(f"AR({addr}, {size}, 'W', 'D', {stall_var})")
    entry["stall_vars"].append(stall_var)
    return entry


def _lean_branch_step(cpu, uop, index, ns, ftrack):
    """An unconditional direct goto prepared for span membership, or None.

    A mid-trace ``B`` whose core inlines to a pure constant PC write is
    fully raise-free and observes nothing: the PC write defers with the
    span (subsequent entries' ``next_pc`` values already follow the
    jump) and the taken-branch count joins the deferred accounting.
    Always taken, so the step costs the static taken cycles.
    """
    ins = uop.ins
    if (uop.chainable or uop.cond_check is not None or ins.mnemonic != "B"
            or uop.branch_target is None):
        return None
    cycle_fn = cpu.compile_cycles(ins)
    taken = getattr(cycle_fn, "static_taken", None) if cycle_fn is not None else None
    if taken is None:
        return None
    inline = cpu._branch_inline(uop.branch_target)
    if inline != [f"rvals[15] = {uop.branch_target}"]:
        # only a pure PC write may defer with the span: a core inline form
        # with extra arms (the VIC return-stack unwind reads cpu.cycles)
        # must observe exact per-step state, so those gotos keep the
        # barrier ender - still chained into the trace, just flushed around
        return None
    entry = _lean_fetch(cpu, uop, index, ns, ftrack, taken)
    if entry is None:
        return None
    # the PC write itself is deferred: the span's PC chain continues at
    # the branch target
    entry["next_pc"] = uop.branch_target
    entry["branches"] = 1
    return entry


def _span_accounting(span, pc, partial=None) -> list[str]:
    """The deferred-accounting statements for ``span`` (in emission order:
    device counters, bus counters, access records, cycles, instruction
    count, PC).  With ``partial`` - the escaping step's entry - only that
    step's *fetch-side* contribution joins the bus statistics (the
    reference charges an instruction's cycles after its body, so a body
    that faults has its fetch on the bus but not on the cycle counter),
    and its instruction count/cycles are left to the escape arm."""
    lines = []
    counter_totals: dict[tuple, int] = {}
    entries = span if partial is None else span + [partial]
    for entry in entries:
        for counter in entry["counters"]:
            counter_totals[counter] = counter_totals.get(counter, 0) + 1
    for (dev, attr), count in counter_totals.items():
        lines.append(f"{dev}.{attr} += {count}")
    reads = sum(e["reads"] for e in span)
    writes = sum(e["writes"] for e in span)
    stall_const = sum(e["stall_consts"] for e in span)
    stall_vars = [v for e in span for v in e["stall_vars"]]
    records = [r for e in span for r in e["records"]]
    bus_const, bus_vars = stall_const, list(stall_vars)
    if partial is not None:
        reads += 1  # the escaping step's fetch went out on the bus
        bus_const += partial["stall_consts"]
        bus_vars += partial["stall_vars"]
        records += partial["records"]
    if reads:
        lines.append(f"bus.reads += {reads}")
    if writes:
        lines.append(f"bus.writes += {writes}")
    branches = sum(e["branches"] for e in span)
    if branches:
        lines.append(f"cpu.branches_taken += {branches}")
    bus_tail = "".join(f" + {v}" for v in bus_vars)
    if bus_const or bus_tail:
        lines.append(f"bus.total_stalls += {bus_const}{bus_tail}")
    if records:
        lines.append("if bus.record:")
        lines += [f"    bus.accesses.append({record})" for record in records]
    if span:
        base_total = sum(e["base"] for e in span)
        cycle_tail = "".join(f" + {v}" for v in stall_vars)
        lines.append(f"cpu.cycles += {base_total + stall_const}{cycle_tail}")
        lines.append(f"cpu.instructions_executed += {len(span)}")
    lines.append(f"rvals[15] = {pc}")
    return lines


def _flush_span(span, lines):
    """Emit a coalesced span: bodies in order, then the deferred accounting.

    Flag liveness runs backwards over the span - a flag write is dead only
    when a later step in the *same* span overwrites it before any point
    where the flags are observable: the span end (a full barrier) and
    every escape arm (a memory step's rare fallback exits the function
    mid-span), so entries carrying an escape reset the liveness to "all
    live" for everything before them.  The deferred counters are emitted
    as single aggregated statements, the access records in access order
    under one ``bus.record`` test, and the PC once, at the span's final
    next-PC.
    """
    if not span:
        return
    live = set(_FLAGS)
    for entry in reversed(span):
        entry["dead"] = set(entry["flags"]) - live
        live -= set(entry["flags"])
        if entry["escape"]:
            live = set(_FLAGS)
    flags_bound = False
    for entry in span:
        lines.extend(entry["fetch"])
        lines.extend(entry["body"])
        kept = [stmt for flag, stmt in entry["flags"].items()
                if flag not in entry["dead"]]
        if kept:
            if not flags_bound:
                lines.append("f = cpu.apsr")
                flags_bound = True
            lines.extend(kept)
    lines += _span_accounting(span, span[-1]["next_pc"])
    span.clear()


_SB_FUSED = obs.counter(
    "engine.superblocks.fused",
    "Superblocks fused into a single callable, by where the code came "
    "from: emitted here on an engine-plan miss, or bound from the plan")
_FUSED_EMITTED = _SB_FUSED.labels(source="emitted")
_FUSED_PLAN = _SB_FUSED.labels(source="plan")
_COMPILE_SECONDS = obs.histogram(
    "engine.superblock.compile_seconds",
    "Wall time to fuse one superblock: emit + compile + bind on an "
    "engine-plan miss (code-cache hits included), the bind alone on a "
    "plan hit; binds and cache hits land in the lowest buckets",
    buckets=obs.FAST_SECONDS_BUCKETS)


def fuse_block(cpu, block, steps):
    """Fuse one superblock into a single callable (see
    :func:`_fuse_block`; this wrapper only adds out-of-band telemetry)."""
    if not obs.REGISTRY.enabled:
        return _fuse_block(cpu, block, steps)
    start = _perf_counter()
    fused_from = _FUSED_PLAN if block.code is not None else _FUSED_EMITTED
    fused = _fuse_block(cpu, block, steps)
    fused_from.add()
    _COMPILE_SECONDS.observe(_perf_counter() - start)
    return fused


#: the globals of every fused function: its body reads nothing but its
#: parameters and builtins
_GLOBALS = {"__builtins__": builtins}


def _fuse_block(cpu, block, steps):
    """Fuse one engine-plan block into a single callable bound over ``cpu``.

    ``block`` is the plan's block (its micro-ops, and once any core has
    fused it, the compiled code and binding recipe); ``steps`` are this
    core's bound step closures for it, the list the engine executes
    pre-fusion.  The first fusion of a block emits and compiles it
    (:func:`_emit_block`) and stores code and recipe in the plan; every
    fusion then binds: the recipe resolves on ``cpu`` into the function's
    defaults.
    """
    if block.code is None:
        block.code, block.recipe = _emit_block(cpu, block.uops)
    return FunctionType(block.code, _GLOBALS, "_fused",
                        tuple([resolve(cpu, steps, arg)
                               for resolve, arg in block.recipe]))


def _emit_block(cpu, uops):
    """Emit and compile one superblock: ``(code, recipe)``.

    ``code`` is the generated function's code object and ``recipe`` one
    ``(resolve, arg)`` pair per parameter (:class:`_Names`).  Positions
    that cannot be inlined fall back to calling their bound step, so the
    fused function is behaviourally the list loop with the frames removed.
    Runs of raise-free pure-ALU steps coalesce their accounting
    (:func:`_lean_step` / :func:`_flush_span`); every other position is a
    barrier that flushes first, keeping mid-block faults bit-exact.

    When the block is terminated by a loop back-edge (a direct branch
    back to the block's own head), the whole body is wrapped in a
    ``while True:`` whose taken-branch path continues in place (see
    :func:`_emit_loop_backedge`): a full loop iteration runs as one
    generated code object executed N times, with the per-iteration guard
    limited to the branch condition, the interrupt queue, the cycle
    ceiling, and the instruction budget.
    """
    ns = _Names(cpu._plan.key)
    ns.put("cpu", "core")
    ns.put("rvals", "registers")
    ns.put("RD", "read")
    ns.put("WR", "write")
    ns.put("bus", "bus")
    last = len(uops) - 1
    is_loop = (not uops[last].chainable
               and _backedge_eligible(cpu, uops[last], uops[0].address))
    if is_loop:
        ns.put("IRQQ", "irq_queue")
    lines = []
    span: list = []
    isa = cpu.program.isa
    ftrack: dict = {}
    for index, uop in enumerate(uops):
        if is_loop and index == last:
            _flush_span(span, lines)
            lines.extend(_emit_loop_backedge(cpu, uop, index, ns,
                                             uops[0].address, len(uops),
                                             ftrack))
            continue
        lean = (_lean_step(cpu, uop, index, ns, isa, ftrack)
                or _lean_mem_step(cpu, uop, index, ns, ftrack, span)
                or _lean_branch_step(cpu, uop, index, ns, ftrack))
        if lean is not None:
            span.append(lean)
            continue
        _flush_span(span, lines)
        if uop.chainable:
            emitted = _emit_step(cpu, uop, index, ns, isa, ftrack)
        else:
            emitted = _emit_branch_ender(cpu, uop, index, ns, ftrack)
        if emitted is None:
            ns.put(f"S{index}", "step", index)
            lines.append(f"S{index}()")
            ftrack.clear()  # the bound step fetches/accesses opaquely
        else:
            lines.extend(emitted)
    _flush_span(span, lines)
    if is_loop:
        lines = ["while True:"] + ["    " + stmt for stmt in lines]
    # every bound object becomes a default parameter, so the generated
    # body resolves them as locals (LOAD_FAST) instead of dict lookups
    params = ", ".join(f"{name}={name}" for name in ns.recipe)
    body = "\n    ".join(lines) if lines else "pass"
    source = f"def _fused({params}):\n    {body}\n"
    code = _CODE_CACHE.get(source)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
            _CODE_CACHE.clear()  # crude bound; refilling is cheap
        module = compile(source, f"<superblock@{uops[0].address:#x}>", "exec")
        code = next(const for const in module.co_consts
                    if isinstance(const, CodeType))
        _CODE_CACHE[source] = code
    return code, tuple(ns.recipe.values())


#: fused functions' code objects memoised by generated source: blocks of
#: different programs (or plan keys) that emit the same source - programs
#: differing only in literal values, say - share one ``compile()``, which
#: dwarfs a cold block's execution time.  Only the code is shared; each
#: core binds its own objects as the function's defaults.
_CODE_CACHE: dict[str, CodeType] = {}
_CODE_CACHE_MAX = 4096
