"""Superblock fusion: compile a trace-engine superblock into one code object.

The trace engine (``BaseCpu._run_trace``) executes a superblock's bound
steps in a list loop, which already removes the per-step dict dispatch
and interrupt poll.  This module removes the remaining per-instruction
Python *frames*: once a superblock has been dispatched enough times, on
any cores of its engine plan, to prove hot, :func:`fuse_block` generates
a single function whose body is the block's per-step statement sequences
laid out inline - fetch (inline SRAM/flash timing, the inline clean path
of a cached fetch, or a prebound thunk), execute, cycle accounting, PC
update - and compiles it once.  The hot operand shapes (register moves
and ALU, compares, immediate and register shifts, immediate/register-
offset loads and stores, block transfers, MOVW/MOVT, ADR, extensions and
reversals) are inlined as raw statements; everything else calls its
micro-op's ``exec`` (the prebound reference handler) or its bound step,
so partial inlining still wins.  Data accesses inline the bus fast path
(behind a per-access MPU check on protected cores), or a data cache's
clean path.  Conditional execution costs no closure call either -
condition checks are emitted as flag expressions (``_COND_EXPRS``).

Built once, placed by one rule
------------------------------
Each position of a block is built once into a *step entry*
(:func:`_build_step`): its fetch and the fetch's accounting, for every
fetch kind (:func:`_fetch`), its body and flag writes, its data accesses
(one emitter for loads and stores, :func:`_mem_step`, with the
literal-pool fold and the span-cache access written once each; a fetch
and a folded literal share one SRAM/flash read, :func:`_device_access`),
its cycle cost and its next PC, and whether anything in it can raise or
call out.
The entry is then placed by one rule:

* **deferred** into the current *span* when it is unpredicated, has a
  static cost, nothing in it can raise or call out and its body reads no
  flag (the dead-flag pass below sees only flag writes).  For a run of
  such steps nothing outside the core's registers can observe the
  boundaries between them, so their counters (cycles, instruction count,
  bus reads/writes/stalls, access records, taken gotos) and the
  intermediate PC writes are summed into one flush at the span's end
  (:func:`_flush_span`), and flag writes overwritten later in the span
  are dropped.  A load or store in a span keeps an *escape arm* for its
  rare paths (a span miss, another device, an MPU attached after
  fusion), which materialises the span, runs the step in place and
  returns to the engine (:func:`_join_span`); the block the engine enters
  there starts hot (``repro.core.cpu.EnginePlan.exits``);
* otherwise a **barrier**: it flushes the span, with its own fetch as the
  partial contribution, then runs its body, then adds its data
  accounting, cycles, instruction count and PC (:func:`_in_place`).

A position with no inline form (a predicated op with a dynamic cost, an
ender the emitters do not cover) flushes the span and calls its bound
step.

Loop regions
------------
A hot loop runs as one generated function, a *region*
(``repro.core.cpu.Region``): the plan blocks whose heads lie in a
natural loop's address range, from a ``B`` back-edge's target to the
branch - the loop head, every direct-branch target in the range, and the
instruction after every non-chainable micro-op in it - with overlapping
ranges merged (the outermost wins) while the member blocks hold no more
positions than one superblock may (``BaseCpu._SB_MAX_LEN``).  A
self-loop is the one-member region.  The function wraps its members in a
``while True:`` that selects the member at ``pc`` (:func:`_emit_block`),
and a member's exit to another member - a back-edge, either arm of a
conditional branch, a fall-through into a head, or the pc an opaque
ender (``S{i}()``, ``BR(...)``) left - is a *transition*
(:func:`_transition`): it continues in place only under exactly the
checks the engine's dispatch loop would make before running that member
(the event horizon unchanged since entry, the member's cycle cap - a
folded constant - under the dispatch limit the engine published, its
length inside the instruction budget, and after an opaque ender a core
neither halted nor asleep with no IT block queued).  Any other exit
returns, bit-exactly at an instruction boundary, and so do escape arms.
A block outside every region is fused alone and returns at its end.

Bit-exactness contract
----------------------
Every emitted statement sequence is a literal transcription of the
core's bound step (``BaseCpu._bind_uop``) and the instruction's reference
handler (:mod:`repro.isa.semantics`), in the same order: fetch,
predicate, execute, cycle/instruction accounting, PC write.  A span
reorders only what nothing can observe, and every barrier and escape arm
materialises it first, so a fault raised mid-block (bus fault, MPU
abort) leaves registers, counters, and bus statistics in exactly the
state per-step execution would; the property tests in
``tests/test_fastpath_properties.py`` diff complete machine state across
both engines to keep it that way.

Fused blocks run only below the interrupt event horizon (the engine falls
back to per-step dispatch when a poll could matter).  A program is
immutable once assembled, so the micro-op table they were generated from
never changes under them.

Caches: one clean path, line runs
---------------------------------
A cache is *clean* while it is enabled and no bit flip has landed in it
(``Cache.flipped``; see :mod:`repro.memory.cache`): no parity check can
fire, so an access inside one line is a plain tag scan, then on a hit the
hit count and the LRU touch.  That transcription of ``Cache.read`` is
written once (:func:`_line_scan`, :func:`_clean_hit`, :func:`_touch`) and
shared by the cached instruction fetch (:func:`_emit_cache_fetch`, which
fills inline on a miss) and, on a core with a data cache, the loads and
stores (:func:`_dcache_load`, :func:`_dcache_store`), which run it after
the MPU preamble.  Off the clean path - a flip, a disabled cache, an
access that straddles a line - a fetch calls its prebound thunk, a load
(and a data miss) the mediated ``cpu.read``, and a store
``Cache._update`` (none when the cache is disabled): the reference's own
code, which verifies.

A cached fetch in the line the previous I-cache access of the function
fetched - a *line run* - skips the scan and hits on the line that access
found or filled (``_Names.line_run``).  Nothing between the two can have
touched the I-cache: the other accesses go to the D-cache, a separate
cache (the ARM1156 refuses a unified one), or to the bus, and no device
reaches a cache.  These end a run: a bound-step call ``S{i}()`` (its fetch
is opaque), a fetch that straddles a line (it calls the thunk), and a
region member's head, which other members enter, so each member opens
with a scan (and with no flash stream state tracked).  Every
fetch still tests that the cache is clean.  Every position of a core
with an I-cache stays a barrier: its fetch calls out on a miss.

Compiled once, bound per core
-----------------------------
Fused code lives in the core's *engine plan* (``repro.core.cpu``), shared
by every core that runs the same program under the same plan key.  An
emitter never stores a core's object: each free name it puts in the
namespace records a *recipe* entry naming which per-core object the name
stands for (the core, its register list, a bus device, the I-cache ways
of one set, the core's bound step for a micro-op, a fresh
:class:`Outcome`, ...) or a constant that is the same object on every
core (a micro-op's ``exec``, :class:`AccessRecord`, :class:`Sram`,
``int.from_bytes``); a bus device has one name however many positions
read it.  The core whose list dispatch makes a block hot emits and
compiles it and stores the function's code and recipe in the plan block;
every core - that one too, and every later core from its first dispatch
of the block - *binds* it: the recipe resolves on that core into the
function's defaults, and ``types.FunctionType`` builds the callable (the
bound names are locals of the generated function; no core runs
``exec``).  A core binds a bound step only for the positions that call
one (``S{i}``), so a block it only ever runs fused costs it no step per
instruction.

The rule that makes this sound: **emitters read no live state outside the
plan key**.  Everything the generated source depends on - core class,
block-op splitting, the data-inline plan, MPU presence, the bus layout
with the device timing folded in (:func:`device_key`), the fetch and data
caches' geometry - is part of the key, and MPU presence, the data-inline
plan and the data cache's geometry are read from the key itself, never
from the live core.  An MPU attached after the key was taken is still
honoured by the emitted code's dynamic ``cpu.mpu`` check.
"""

from __future__ import annotations

import builtins
from time import perf_counter as _perf_counter
from types import CodeType, FunctionType
from typing import NamedTuple

from repro import obs
from repro.isa.instructions import BLOCK_OPS
from repro.isa.registers import MASK32, PC
from repro.isa.semantics import _LOAD_SIZES, _SIGNED_LOADS, _STORE_SIZES, Outcome, shift_c
from repro.memory.bus import AccessRecord
from repro.memory.cache import parity32
from repro.memory.flash import Flash
from repro.memory.sram import Sram

_SIGN_BIT = 0x8000_0000

#: list dispatches of an engine-plan block, summed over every core of the
#: plan, before it is fused; from then on every core that enters the block
#: binds its code at once (``repro.core.cpu.PlanBlock``)
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


#: how each recipe entry resolves on the binding core: ``resolve(cpu, arg)``,
#: with ``arg`` the entry's fuse-time argument (an address, an
#: instruction's ``(pc, size)``, a device's base, a micro-op, ...)
_RESOLVE = {
    "constant": lambda cpu, value: value,
    "core": lambda cpu, _: cpu,
    "registers": lambda cpu, _: cpu.regs.values,
    "read": lambda cpu, _: cpu.read,
    "write": lambda cpu, _: cpu.write,
    "branch": lambda cpu, _: cpu.branch,
    "mpu_check": lambda cpu, _: cpu._mpu_check,
    "bus": lambda cpu, _: cpu.bus,
    "irq": lambda cpu, _: cpu._irq_controller,
    "device": lambda cpu, base: cpu.bus._lookup(base),
    "device_access": lambda cpu, base: cpu.bus._lookup(base)._access,
    "literal_read": lambda cpu, address: cpu.bus._lookup(address).read,
    "fetch_thunk": lambda cpu, at: cpu._fetch_thunk(*at),
    "fetch_port": lambda cpu, _: cpu._fetch_port(),
    "icache": lambda cpu, _: cpu._fetch_cache(),
    "icache_stats": lambda cpu, _: cpu._fetch_cache().stats,
    "icache_fill": lambda cpu, _: cpu._fetch_cache()._fill,
    "icache_ways": lambda cpu, at: cpu._fetch_cache().lookup_plan(*at)[3],
    "dcache": lambda cpu, _: cpu._data_cache(),
    "dcache_stats": lambda cpu, _: cpu._data_cache().stats,
    "dcache_sets": lambda cpu, _: cpu._data_cache()._lines,
    "outcome": lambda cpu, _: Outcome(),
    "cycles": lambda cpu, ins: cpu.compile_cycles(ins),
    "step": lambda cpu, uop: cpu._bound_step(uop),
}


class _Names:
    """The free names of one fused function, recorded as a binding recipe.

    The emitters' namespace: ``put`` (a plain assignment) and ``default``
    (first writer wins) record, per name, which per-core object or
    constant it stands for (a :data:`_RESOLVE` kind and its argument).  A
    core's objects are never stored, so the recipe holds no core alive
    and binds over any core with the same plan ``key``.  Insertion order
    is the generated function's parameter order.

    A bus device the function reads inline has one name however many
    positions fetch or load from it (:meth:`device`), resolved through the
    bus by its base address, which the plan key pins.

    ``line_run`` is the one piece of emission state that spans positions:
    ``((tag, set_index), local)`` when the previous I-cache access in the
    function was an inline cached fetch that left that line in ``local``,
    else None (see :func:`_emit_cache_fetch`).
    """

    __slots__ = ("key", "recipe", "devices", "line_run")

    def __init__(self, key) -> None:
        self.key = key
        self.recipe: dict[str, tuple] = {}
        self.devices: dict[int, str] = {}
        self.line_run: tuple | None = None

    def put(self, name: str, kind: str, arg=None) -> None:
        self.recipe[name] = (_RESOLVE[kind], arg)

    def default(self, name: str, kind: str, arg=None) -> None:
        if name not in self.recipe:
            self.recipe[name] = (_RESOLVE[kind], arg)

    def device(self, device, access: bool = False) -> str:
        """The name of bus ``device`` (``D{n}``), or with ``access`` of its
        bound ``_access`` (``DA{n}``)."""
        name = self.devices.get(id(device))
        if name is None:
            name = self.devices[id(device)] = f"D{len(self.devices)}"
            self.put(name, "device", device.base)
        if access:
            name = "DA" + name[1:]
            self.default(name, "device_access", device.base)
        return name


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


def _shift_operand_lines(ins, value_var: str, carry_var: str | None):
    """Statements computing the shifted second operand into ``value_var``
    and the shifter carry (a bool) into ``carry_var``, or ``None``.

    A literal transcription of ``shift_c`` for a constant amount in
    1..31 (amount 0 is the no-shift path and 32 calls the handler), with
    the register value pre-masked as all ``rvals`` entries are.  A
    ``carry_var`` of ``None`` skips the carry computation (consumers that
    discard the shifter carry, like the adder-flagged ADD/SUB).
    """
    kind, amount = ins.shift.kind, ins.shift.amount
    if not 1 <= amount <= 31 or ins.rm is None:
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
        lines = [f"sx = {x} - {1 << 32} if {x} >= {_SIGN_BIT} else {x}",
                 f"{value_var} = (sx >> {amount}) & {MASK32}"]
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
# exec-body emitters: return statement lines or None (-> handler call)
# ----------------------------------------------------------------------

def _emit_mov(ins):
    rd, rm = ins.rd, ins.rm
    if rd is None:
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
    if rd is None or rn is None:
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
    if rd is None or rn is None:
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
    if (rd is None or rn is None or ins.rm is not None
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
        lines += [f"sx = x - {1 << 32} if x >= {_SIGN_BIT} else x",
                  f"r = (sx >> {amount}) & {MASK32}",
                  f"c = ((x >> {amount - 1}) & 1) != 0"]
    else:  # ROR, amount 1..31
        lines += [f"r = ((x >> {amount}) | (x << {32 - amount})) & {MASK32}",
                  "c = (r >> 31) != 0"]
    lines.append(f"rvals[{rd}] = r")
    if ins.setflags:
        lines += ["f = cpu.apsr", f"f.n = r >= {_SIGN_BIT}", "f.z = r == 0",
                  "f.c = c"]
    return lines


def _emit_register_shift(ins, ns):
    """A register-controlled LSL/LSR/ASR/ROR: ``shift_c`` itself, by the
    amount register's low byte.  A shift by 0 passes the carry in
    through, so the flag-setting form reads C."""
    rd, rn = ins.rd, ins.rn
    if rd is None or rn is None:
        return None
    ns.default("SHC", "constant", shift_c)
    carry = "cpu.apsr.c" if ins.setflags else "False"
    lines = [f"r, c = SHC(rvals[{rn}], '{ins.mnemonic}', rvals[{ins.rm}] & 255, {carry})",
             f"rvals[{rd}] = r"]
    if ins.setflags:
        lines += ["f = cpu.apsr", f"f.n = r >= {_SIGN_BIT}", "f.z = r == 0",
                  "f.c = c"]
    return lines


def _emit_compare(ins):
    op = ins.mnemonic
    rn, rm = ins.rn, ins.rm
    if rn is None or ins.shift is not None:
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
    if rd is None or rn is None or rm is None:
        return None
    lines = [f"r = (rvals[{rn}] * rvals[{rm}]) & {MASK32}", f"rvals[{rd}] = r"]
    if ins.setflags:
        lines += ["f = cpu.apsr", f"f.n = r >= {_SIGN_BIT}", "f.z = r == 0"]
    return lines


#: the reversals of ``_exec_unary`` over a pre-masked ``x``:
#: ``byte_reverse32``, ``byte_reverse_halves`` and ``bit_reverse32``
_REVERSE_EXPR = {
    "REV": ("((x & 0xFF) << 24) | ((x & 0xFF00) << 8)"
            " | ((x & 0xFF0000) >> 8) | ((x & 0xFF000000) >> 24)"),
    "REV16": f"(((x & 0x00FF00FF) << 8) | ((x & 0xFF00FF00) >> 8)) & {MASK32}",
    "RBIT": "int(format(x, '032b')[::-1], 2)",
}


def _emit_unary(ins):
    op = ins.mnemonic
    rd = ins.rd
    src = ins.rm if ins.rm is not None else ins.rn
    if rd is None or src is None:
        return None
    if op == "CLZ":
        return [f"rvals[{rd}] = 32 - rvals[{src}].bit_length()"]
    if op in _REVERSE_EXPR:
        return [f"x = rvals[{src}]", f"rvals[{rd}] = {_REVERSE_EXPR[op]}"]
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
    if rd is None or ins.imm is None:
        return None
    if ins.mnemonic == "MOVW":
        return [f"rvals[{rd}] = {ins.imm & 0xFFFF}"]
    high = (ins.imm & 0xFFFF) << 16
    return [f"rvals[{rd}] = {high} | (rvals[{rd}] & 0xFFFF)"]


def _emit_ubfx(ins):
    rd, rn = ins.rd, ins.rn
    lsb, width = ins.bf_lsb, ins.bf_width
    if rd is None or rn is None:
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


_NOOP_OPS = frozenset({"NOP", "DSB", "ISB", "BKPT"})


def _pc_value(cpu, ins) -> int:
    """The PC an instruction reads, as ``BaseCpu.pc_read_value`` gives it:
    its address plus 8 in ARM state, plus 4 in Thumb state."""
    return ins.address + (8 if cpu.program.isa == "arm" else 4)


def _emit_exec(cpu, ins, ns):
    """Inline statements for one data-processing exec body, or ``None``.

    ``None`` means no inline form: the caller calls the micro-op's
    ``exec``, its prebound reference handler - always correct, except
    that fused code never sets ``cpu.current_address``, so a handler that
    reads the PC must have an inline form (ADR here; literal loads in
    :func:`_mem_step`).  A chainable micro-op names no PC
    (``repro.isa.predecode.uop_kind``).  Every form here touches registers
    and flags only, so none can raise or call out; one whose body reads a
    flag is placed as a barrier (:func:`_build_step`).  Their temporaries
    (``x``, ``r``, ``sx``, ...) carry no digits: a position's own locals
    (``s{i}``, ``ds{i}``, ``a{i}``, ``ln{i}``) end in its index and can live
    until the span's flush, so a temporary equal to one of them would
    overwrite a stall still owed.
    """
    op = ins.mnemonic
    if op in _NOOP_OPS:
        return []
    if op in ("MOV", "MVN"):
        return _emit_mov(ins)
    if op in ("ADD", "SUB"):
        return _emit_add_sub(ins)
    if op in _LOGIC_EXPR:
        return _emit_logic(ins)
    if op in ("LSL", "LSR", "ASR", "ROR"):
        return _emit_shift(ins) if ins.rm is None else _emit_register_shift(ins, ns)
    if op in ("CMP", "CMN", "TST", "TEQ"):
        return _emit_compare(ins)
    if op == "MUL":
        return _emit_mul(ins)
    if op in ("CLZ", "UXTB", "UXTH", "SXTB", "SXTH", "REV", "REV16", "RBIT"):
        return _emit_unary(ins)
    if op in ("MOVW", "MOVT"):
        return _emit_movw_movt(ins)
    if op == "UBFX":
        return _emit_ubfx(ins)
    if op == "ADR" and ins.rd is not None:
        # _exec_adr: Align(PC, 4) plus the offset, folded
        value = ((_pc_value(cpu, ins) & ~3) + (ins.imm or 0)) & MASK32
        return [f"rvals[{ins.rd}] = {value}"]
    return None


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


def _flash_fetch_lines(ns, device, address, size, stall_var) -> list[str]:
    """The flash instruction-fetch sequence leaving stalls in ``stall_var``.

    The buffered-line hit test is inline, and the miss arm transcribes
    ``Flash._access`` statement for statement - stream-state reads stay
    dynamic, the geometry (line address, line width, array latency,
    prefetch mode) folds at fuse time like the SRAM wait states do - so
    steady-state line crossings pay no Python call.  A fetch straddling
    two lines keeps the bound ``_access`` call (``DA{n}``) for its second
    line (rare, and the first access just rewrote the stream state).
    """
    dev = ns.device(device)
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
        da = ns.device(device, access=True)
        lines.append(f"{stall_var} += {da}({address + size - 1})")
    return lines


def _line_scan(ways: str, tag, line: str) -> list[str]:
    """A clean cache's tag scan (``Cache._find`` before any flip): leaves
    in ``line`` the valid way of ``ways`` whose tag is ``tag``, or None."""
    return [f"for {line} in {ways}:",
            f"    if {line}.valid and {line}.tag == {tag}:",
            "        break",
            "else:",
            f"    {line} = None"]


def _touch(cache: str, line: str) -> list[str]:
    """``Cache._touch``: the LRU clock ticks and stamps ``line``."""
    return [f"{cache}._lru_clock += 1", f"{line}.lru = {cache}._lru_clock"]


def _clean_hit(cache: str, stats: str, line: str) -> list[str]:
    """``Cache.read``'s hit on ``line`` while the cache is clean: the hit
    count, then the LRU touch (no parity check can fire)."""
    return [f"{stats}.hits += 1", *_touch(cache, line)]


def _emit_cache_fetch(cpu, cache, address, size, index, ns, stall):
    """Inline one cached instruction fetch, leaving the stalls in ``stall``.

    The clean path of ``Cache.read`` for a constant address (geometry
    folded at fuse time via :meth:`~repro.memory.cache.Cache.lookup_plan`):
    a plain tag scan of the set's ways (:func:`_line_scan`), a fill on a
    miss, the hit count on a hit, and the LRU touch.  The value read is
    dropped - instruction fetches are timing-only.  It runs only while the
    cache is enabled and no bit flip has landed in it (``Cache.flipped``),
    when every valid line's parity provably matches; otherwise the fetch
    calls the prebound thunk, whose ``Cache.read`` screens tags and
    verifies word parity.  Fetches that straddle a cache line keep the
    thunk outright.

    A fetch in the line the previous inline fetch left in its local (a
    *line run*, ``ns.line_run``) skips the scan: no I-cache access came
    between them, so that line is still the valid one holding its tag, and
    the fetch is a hit on it.
    """
    plan = cache.lookup_plan(address, size)
    if plan is None:
        return None  # line-straddling fetch: keep the closure-call thunk
    if cpu._fetch_thunk(address, size) is None:
        return None
    tag, set_index, _, _ = plan
    ns.default("IC", "icache")
    ns.default("ICS", "icache_stats")
    ns.put(f"F{index}", "fetch_thunk", (address, size))
    run = ns.line_run
    if run is not None and run[0] == (tag, set_index):
        clean = [*_clean_hit("IC", "ICS", run[1]), f"{stall} = 0"]
    else:
        ln = f"ln{index}"
        ns.default("ICF", "icache_fill")
        ns.put(f"W{index}", "icache_ways", (address, size))
        clean = [*_line_scan(f"W{index}", tag, ln),
                 f"if {ln} is None:",
                 "    ICS.misses += 1",
                 f"    {ln}, {stall} = ICF({tag}, {set_index}, 'I')",
                 *_indent(_touch("IC", ln)),
                 "else:",
                 *_indent(_clean_hit("IC", "ICS", ln)),
                 f"    {stall} = 0"]
        ns.line_run = ((tag, set_index), ln)
    return ["if IC.enabled and not IC.flipped:", *_indent(clean),
            "else:", f"    {stall} = F{index}()"]


_FLAGS = ("n", "z", "c", "v")


# ----------------------------------------------------------------------
# fused steps: built once, placed by one rule
# ----------------------------------------------------------------------

class _Access(NamedTuple):
    """One memory access's share of a step's accounting.

    ``stall`` is a constant or the name of the local holding it.  An
    access with ``reads`` and ``writes`` both 0 is *cycle-only*: a call
    (a fetch thunk, the cached fetch, ``cpu.read``) did its bus
    accounting itself, so its stall reaches ``cpu.cycles`` alone.
    """

    stall: int | str = 0
    reads: int = 0
    writes: int = 0
    counters: tuple = ()
    record: str | None = None


#: cycle-only data stall of an access mediated by ``cpu.read``/``cpu.write``
_MEDIATED = _Access("cpu._data_stalls")

#: where a span member's escape arm goes in its body (see :func:`_join_span`)
_ESCAPE = "<escape>"


def _sum(terms) -> str:
    """``terms`` (constants and expressions) as one sum, constants folded."""
    const = sum(term for term in terms if isinstance(term, int))
    names = [term for term in terms if not isinstance(term, int)]
    if const or not names:
        names.insert(0, str(const))
    return " + ".join(names)


def _indent(lines) -> list[str]:
    return ["    " + stmt for stmt in lines]


def _device_access(ns, device, address, size, side, stall, ftrack):
    """A read of the plain SRAM or flash ``device`` (one name per device,
    :meth:`_Names.device`) at the constant ``address``: ``(stmts,
    access)``, for an instruction fetch (``side`` ``'I'``) or a folded
    literal (``'D'``).

    SRAM has constant wait states and counts a read; flash takes the
    statically resolved stream arm when the fuse-time tracker knows the
    state (:func:`_flash_static_parts`), the dynamic transcription
    otherwise (:func:`_flash_fetch_lines`), which leaves its stalls in the
    local ``stall``.  Both are raise-free.
    """
    dev = ns.device(device)
    ns.default("AR", "constant", AccessRecord)
    if type(device) is Sram:
        stmts, counters, stall = [], [(dev, "reads")], device.wait_states
    elif (static := _flash_static_parts(device, dev, address, size,
                                        ftrack)) is not None:
        stmts, counters, stall = static
    else:
        _flash_track_dynamic(device, address, size, ftrack)
        stmts = _flash_fetch_lines(ns, device, address, size, stall)
        counters = []
    return list(stmts), _Access(
        stall, reads=1, counters=tuple(counters),
        record=f"AR({address}, {size}, 'R', '{side}', {stall})")


def _fetch(cpu, uop, index, ns, ftrack) -> dict:
    """A fused position's step entry, with its instruction fetch filled in.

    The entry's fields:

    * ``fetch``: the statements that perform the fetch, and ``facc``, its
      :class:`_Access`;
    * ``calls``: the fetch calls out (an instruction cache, a prebound
      thunk, the fetch port) and does its own bus accounting, so it must
      run after every earlier access is on the bus;
    * ``body`` and ``flags``: the execute statements, with flag writes
      kept apart for dead-flag elimination, and ``dacc``, the data
      accesses whose accounting the step owes;
    * ``cond``: the predicate expression, or None; ``base``: the cycles
      when the step executes (a branch: when taken), a constant or an
      expression; ``branches``: 1 for a taken branch;
    * ``next_pc``: the PC after the step (None when the body writes it),
      ``fall``: the PC after a skip, and ``target``: for a taken branch
      whose body writes the PC, that PC when it is a constant;
    * ``escape``: for a span member with a rare mediated arm, the entry
      that arm runs in place; ``barrier``: something in the step can
      raise or call out, or it is predicated, so it runs in place.

    Every fetch kind is transcribed here, each literally from its
    ``SystemBus.fetch_stalls`` and device ``fetch_stalls`` pair, in order:
    device timing, read counter, stall total, access record.  A plain
    SRAM or flash fetch is a raise-free device access
    (:func:`_device_access`).  A core that fetches through an instruction
    cache gets the cache's clean path (:func:`_emit_cache_fetch`);
    otherwise the prebound thunk or the fetch port is called.
    """
    address, size = uop.address, uop.size
    entry = {
        "pc": address, "fetch": [], "calls": False, "facc": None,
        "body": [], "flags": {}, "dacc": [], "cond": None, "base": 0,
        "branches": 0, "next_pc": uop.next_pc, "fall": uop.next_pc,
        "target": None, "escape": None, "barrier": False,
    }
    device = cpu._fetch_bus_device(address, size)
    if device is not None and type(device) in (Sram, Flash):
        entry["fetch"], entry["facc"] = _device_access(
            ns, device, address, size, "I", f"s{index}", ftrack)
        return entry
    # fetches through caches or opaque ports may reach flash devices
    # behind the scenes: forget any statically tracked stream state
    ftrack.clear()
    stall = f"s{index}"
    entry["calls"] = True
    entry["facc"] = _Access(stall)
    cache = cpu._fetch_cache()
    if cache is not None:
        lines = _emit_cache_fetch(cpu, cache, address, size, index, ns, stall)
        if lines is not None:
            entry["fetch"] = lines
            return entry
    ns.line_run = None  # an opaque fetch may reach the I-cache anywhere
    if cpu._fetch_thunk(address, size) is not None:
        ns.put(f"F{index}", "fetch_thunk", (address, size))
        entry["fetch"] = [f"{stall} = F{index}()"]
    else:
        ns.put(f"F{index}", "fetch_port")
        entry["fetch"] = [f"{stall} = F{index}({address}, {size})"]
    return entry


def _literal_fold(cpu, address, size, index, ns, ftrack):
    """A literal-pool load at the constant ``address``: ``(stmts, access,
    calls)`` leaving the value in ``v``, or ``None`` when the address is
    unmapped or overruns its device (the mediated read then raises).

    The device decode - the whole bus dispatch - folds at fuse time.  A
    plain SRAM or flash device's read is transcribed too (its bounds are
    proven here, :func:`_device_access`), so the hot literal load pays no
    Python call; flash opens with the same stream sequence a fetch does (a
    literal load breaks the instruction stream - that is the timing
    model).  Any other device is called (``calls``).
    """
    device = cpu.bus._lookup(address)
    if device is None or address + size > device.base + device.size:
        return None
    stall = f"ds{index}"
    if type(device) not in (Sram, Flash):
        ns.default("AR", "constant", AccessRecord)
        ns.put(f"DL{index}", "literal_read", address)
        record = f"AR({address}, {size}, 'R', 'D', {stall})"
        return ([f"v, {stall} = DL{index}({address}, {size}, 'D')"],
                _Access(stall, reads=1, record=record), True)
    stmts, access = _device_access(ns, device, address, size, "D", stall,
                                   ftrack)
    ns.default("IFB", "constant", int.from_bytes)
    offset = address - device.base
    data = f"{ns.device(device)}.data[{offset}:{offset + size}]"
    return stmts + [f"v = IFB({data}, 'little')"], access, False


def _mediated(load, addr, size, rd) -> list[str]:
    """A data access through ``cpu.read``/``cpu.write`` (the MPU, data
    caches and every fault), its stalls left in ``cpu._data_stalls``."""
    if load:
        access = f"v = RD({addr}, {size})"
    else:
        access = f"WR({addr}, {size}, rvals[{rd}] & {_STORE_MASKS[size]})"
    return ["cpu._data_stalls = 0", access]


def _span_cache_access(ns, load, addr, size, rd, stall, deferred, guard="",
                       fallback=None):
    """``SystemBus.read``/``write``'s span-cache hit at ``addr``:
    ``(lines, access)``.

    The SRAM device access itself is inlined behind a type test (the span
    proves the bounds, so the inline arm cannot fault).  ``deferred``: the
    hit on an SRAM device is the only inline arm, its accounting is owed
    to the span (``access``), and anything else takes the escape arm,
    which completes the access mediated and leaves the function.
    Otherwise another span device is called, the bus accounting is done
    in place, and a span miss runs ``fallback``: by default the mediated
    ``cpu.read`` / ``cpu.write``, which raises the same faults the
    reference path would.
    """
    ns.default("AR", "constant", AccessRecord)
    ns.default("SRT", "constant", Sram)
    kind = "R" if load else "W"
    access = _Access(stall, reads=int(load), writes=int(not load),
                     record=f"AR({addr}, {size}, '{kind}', 'D', {stall})")
    if load:
        ns.default("IFB", "constant", int.from_bytes)
        hit = ["d.reads += 1", f"o = {addr} - d.base",
               f"v = IFB(d.data[o:o + {size}], 'little')"]
        call = f"v, {stall} = d.read({addr}, {size}, 'D')"
    else:
        value = f"rvals[{rd}] & {_STORE_MASKS[size]}"
        hit = ["d.writes += 1", f"o = {addr} - d.base",
               f"d.data[o:o + {size}] = ({value}).to_bytes({size}, 'little')"]
        call = f"{stall} = d.write({addr}, {size}, {value}, 'D')"
    hit.append(f"{stall} = d.wait_states")
    span_test = f"sp[0] <= {addr} and {addr} + {size} <= sp[1]"
    if deferred:
        lines = ["sp = bus._span_d",
                 f"if {guard}{span_test} and type(sp[2]) is SRT:",
                 "    d = sp[2]", *_indent(hit),
                 "else:", "    " + _ESCAPE]
        return lines, access
    if fallback is None:
        fallback = [*_mediated(load, addr, size, rd),
                    f"{stall} = cpu._data_stalls"]
    lines = ["sp = bus._span_d",
             f"if {span_test}:",
             "    d = sp[2]",
             "    if type(d) is SRT:", *_indent(_indent(hit)),
             "    else:", f"        {call}",
             *_indent(_bus_accounting([access])),
             "else:",
             *_indent(fallback)]
    return lines, _Access(stall)


def _dcache_line(ns, addr, size):
    """Where an access at ``addr`` (a constant, or the local holding it)
    falls in the D-cache, with the geometry read from the plan key:
    ``(prep, data, fits, scan)``.  ``prep`` computes the in-line offset
    ``co`` of a runtime address; ``data`` slices the access's bytes out of
    a line; ``fits`` is True, False or the test that the access stays
    inside one line; ``scan`` leaves the valid way holding the access's
    line in ``dl`` (:func:`_line_scan`), or None."""
    sets, _, line_bytes = ns.key.data_cache
    ns.default("DS", "dcache_sets")
    line_shift = line_bytes.bit_length() - 1
    tag_shift = line_shift + sets.bit_length() - 1
    if isinstance(addr, int):
        offset = addr & (line_bytes - 1)
        ways = f"DS[{(addr >> line_shift) & (sets - 1)}]"
        return ([], f"dl.data[{offset}:{offset + size}]",
                offset + size <= line_bytes,
                _line_scan(ways, addr >> tag_shift, "dl"))
    ways = f"DS[({addr} >> {line_shift}) & {sets - 1}]"
    fits = True if size == 1 else f"co <= {line_bytes - size}"
    return ([f"co = {addr} & {line_bytes - 1}"], f"dl.data[co:co + {size}]",
            fits, [f"ct = {addr} >> {tag_shift}", *_line_scan(ways, "ct", "dl")])


def _dcache_load(ns, addr, size, rd, stall) -> list[str]:
    """A load through the plan key's data cache, its cycle-only
    stall left in ``stall``: the set's scan on the clean path (the cache
    enabled, no flip landed, the access inside one line), then on a hit
    the MPU preamble and ``Cache.read``'s hit (:func:`_clean_hit`, the
    value from the line).  A miss, and any access off the clean path, is
    the mediated ``cpu.read``, which consults the MPU itself - so the MPU
    is consulted once either way, as ``Arm1156Core.read`` does (the scan
    before it has no effect)."""
    prep, data, fits, scan = _dcache_line(ns, addr, size)
    miss = [*_mediated(True, addr, size, rd), f"{stall} = cpu._data_stalls"]
    if fits is False:
        return miss
    ns.default("DC", "dcache")
    ns.default("DCS", "dcache_stats")
    ns.default("IFB", "constant", int.from_bytes)
    clean = "DC.enabled and not DC.flipped"
    if fits is not True:
        clean = f"{fits} and {clean}"
    hit = [*_mpu_preamble(ns, str(addr), size, False),
           *_clean_hit("DC", "DCS", "dl"),
           f"v = IFB({data}, 'little')",
           f"{stall} = 0"]
    return [*prep, "dl = None", f"if {clean}:", *_indent(scan),
            "if dl is None:", *_indent(miss), "else:", *_indent(hit)]


def _word_parity(word: str) -> str:
    """``Cache._update``'s parity refresh of word ``word`` of line ``dl``."""
    return (f"dl.word_parity[{word}] = "
            f"P32(IFB(dl.data[{word} * 4:{word} * 4 + 4], 'little'))")


def _dcache_store(ns, addr, size, rd, stall) -> list[str]:
    """A store through the plan key's data cache at the runtime
    address in local ``addr``, its cycle-only stall left in ``stall``.

    ``Arm1156Core.write`` then ``Cache.write``, in order: the MPU
    preamble; the write-through on the bus - the inline SRAM span hit,
    else ``bus.write`` (:func:`_span_cache_access`); then, when the cache
    is enabled, ``Cache._update`` - transcribed on the clean path (no flip
    landed, the store inside one line: the data, the parity of the words
    it covers, the LRU touch of the line holding it, if any) and called
    otherwise.
    """
    prep, data, fits, scan = _dcache_line(ns, addr, size)
    ns.default("DC", "dcache")
    ns.default("IFB", "constant", int.from_bytes)
    ns.default("P32", "constant", parity32)
    value = f"rvals[{rd}] & {_STORE_MASKS[size]}"
    write, _ = _span_cache_access(
        ns, False, addr, size, rd, stall, False,
        fallback=[f"{stall} = bus.write({addr}, {size}, {value}, 'D')"])
    update = [f"{data} = ({value}).to_bytes({size}, 'little')",
              "wo = co >> 2", _word_parity("wo")]
    if size > 1:
        update += [f"wl = (co + {size - 1}) >> 2", "if wl != wo:",
                   "    " + _word_parity("wl")]
    update += _touch("DC", "dl")
    clean = "not DC.flipped" if fits is True else f"{fits} and not DC.flipped"
    return [*_mpu_preamble(ns, addr, size, True), *write,
            "if DC.enabled:",
            *_indent([*prep, f"if {clean}:",
                      *_indent([*scan, "if dl is not None:", *_indent(update)]),
                      "else:", f"    DC._update({addr}, {size}, {value})"])]


def _block_transfer(ins) -> list[str]:
    """An LDM/STM/PUSH/POP whose list holds no PC, as ``_exec_block`` runs
    it: one mediated access per register (``RD``/``WR``: the MPU, the data
    cache and every fault), in ascending register order from the base,
    then the base or SP written back - last, so an access that faults
    leaves it unchanged, and an LDM that loads its base keeps the loaded
    value."""
    regs = sorted(ins.reglist)
    op, end = ins.mnemonic, 4 * len(regs)
    rn = 13 if op in ("PUSH", "POP") else ins.rn
    lines = ["cpu._data_stalls = 0",
             f"ba = rvals[13] - {end}" if op == "PUSH" else f"ba = rvals[{rn}]"]
    for slot, reg in enumerate(regs):
        addr = f"ba + {4 * slot}" if slot else "ba"
        if op in ("PUSH", "STM"):
            lines.append(f"WR({addr}, 4, rvals[{reg}])")
        else:
            lines.append(f"rvals[{reg}] = RD({addr}, 4) & {MASK32}")
    if op == "PUSH":
        lines.append(f"rvals[13] = ba & {MASK32}")
    elif op == "POP" or (ins.writeback and not (op == "LDM" and rn in regs)):
        lines.append(f"rvals[{rn}] = (ba + {end}) & {MASK32}")
    return lines


def _mem_step(cpu, uop, index, ns, ftrack, entry, deferrable) -> bool:
    """Fill in ``entry``'s body and data access for a load, a store or a
    block transfer; False when it has no inline form (write-back,
    post-index).

    One emitter, four shapes:

    * **a span member** (``deferrable``, and the plan key has no data
      cache and no fuse-time MPU): a span-cache hit on SRAM, or a
      literal folded from SRAM or flash, with its accounting deferred; its
      escape arm - a span miss, another device, or an MPU attached after
      fusion - runs the step mediated, in place (:func:`_join_span`);
    * **a barrier**: the MPU check first when the plan is ``"mpu"``, then
      the span-cache access with its mediated fallback, or the folded
      literal (:func:`_span_cache_access`, :func:`_literal_fold`);
    * **through the D-cache**, when the plan key has a data cache: a
      barrier whose clean path is inline (:func:`_dcache_load`,
      :func:`_dcache_store`); literal loads read through the cache too;
    * **a block transfer**: a barrier of mediated accesses
      (:func:`_block_transfer`).

    A ``mem`` micro-op names no PC but as a literal load's base
    (``repro.isa.predecode.uop_kind``).
    """
    ins = uop.ins
    op, mem, rd = ins.mnemonic, ins.mem, ins.rd
    if op in BLOCK_OPS:
        ftrack.clear()  # the mediated accesses may reach a flash device
        entry.update(body=_block_transfer(ins), dacc=[_MEDIATED], barrier=True)
        return True
    if mem is None or rd is None or mem.writeback or mem.postindex:
        return False
    load = op in _LOAD_SIZES
    size = _LOAD_SIZES[op] if load else _STORE_SIZES[op]
    plan = ns.key.data_plan
    deferrable = (deferrable and ns.key.data_cache is None
                  and not (plan == "mpu" and ns.key.mpu))
    done = []
    if load:
        done = _load_sign_lines(_SIGNED_LOADS.get(op))
        done.append(f"rvals[{rd}] = v & {MASK32}")

    def mediated(addr) -> list[str]:
        return _mediated(load, addr, size, rd) + done

    def escape(addr) -> dict:
        return dict(entry, body=mediated(addr), flags={}, dacc=[_MEDIATED],
                    escape=None)

    if mem.rn == PC:
        address = ((_pc_value(cpu, ins) & ~3) + mem.offset) & MASK32
    elif mem.rm is None:
        expr = f"(rvals[{mem.rn}] + {mem.offset}) & {MASK32}"
    else:
        expr = (f"(rvals[{mem.rn}] + ((rvals[{mem.rm}] << {mem.shift})"
                f" & {MASK32})) & {MASK32}")
    if ns.key.data_cache is not None:
        # a fill or the write-through may reach flash; a literal load
        # reads through the cache too
        ftrack.clear()
        body = [] if mem.rn == PC else [f"a{index} = {expr}"]
        addr = address if mem.rn == PC else f"a{index}"
        access = _dcache_load if load else _dcache_store
        stall = f"ds{index}"
        entry.update(body=body + access(ns, addr, size, rd, stall) + done,
                     dacc=[_Access(stall)], barrier=True)
        return True
    if mem.rn == PC:
        fold = _literal_fold(cpu, address, size, index, ns, ftrack)
        if fold is None:
            ftrack.clear()  # the mediated read may reach a flash device
            entry.update(body=mediated(address), dacc=[_MEDIATED], barrier=True)
            return True
        stmts, access, calls = fold
        body = []
        if deferrable and not calls:
            if plan == "mpu":
                # an MPU attached after fusion reroutes through the
                # mediated path (which consults it and faults bit-exactly)
                body += ["if cpu.mpu is not None:", "    " + _ESCAPE]
                entry["escape"] = escape(address)
        else:
            entry["barrier"] = True
            if plan == "mpu":
                body += _mpu_preamble(ns, str(address), size, False)
        entry.update(body=body + stmts + done, dacc=[access])
        return True
    addr = f"a{index}"
    body = [f"{addr} = {expr}"]
    if deferrable:
        # a span-cache hit on SRAM cannot disturb tracked flash stream
        # state, and every other access leaves through the escape arm
        guard = "cpu.mpu is None and " if plan == "mpu" else ""
        lines, access = _span_cache_access(ns, load, addr, size, rd,
                                           f"ds{index}", True, guard)
        entry["escape"] = escape(addr)
    else:
        ftrack.clear()  # the span's device may be flash
        if plan == "mpu":
            body += _mpu_preamble(ns, addr, size, not load)
        lines, access = _span_cache_access(ns, load, addr, size, rd,
                                           f"ds{index}", False)
        entry["barrier"] = True
    entry.update(body=body + lines + done, dacc=[access])
    return True


def _branch_lines(cpu, ins) -> tuple[list[str] | None, int | None]:
    """The taken path of a block-ending branch, or None for a bound-step
    call, and the pc it leaves the core at when that is a constant (else
    None).

    Covers the direct branches with a resolved target, register BX/BLX
    not via the PC, and the table branches (:func:`_table_branch_lines`),
    each as ``_exec_branch`` or ``_exec_table_branch`` runs it; the rest
    (an unresolved label raises there) call the bound step.  The
    ``cpu.branch`` call is kept unless the core inlines a constant
    target: halt detection and the cores' exception-return hooks live
    there, so after the call the pc is known only at run time.
    """
    op = ins.mnemonic
    if op in ("TBB", "TBH"):
        return _table_branch_lines(cpu, ins), None
    if op not in ("B", "BL", "BX", "BLX"):
        return None, None
    if op in ("BX", "BLX") and ins.rm is not None:
        if ins.rm == PC:
            return None, None
        if op == "BLX":
            # read the target before writing LR: `blx lr` must branch to
            # the OLD link register (same order as _exec_branch)
            return [f"t = rvals[{ins.rm}]",
                    f"rvals[14] = {(ins.address + ins.size) & MASK32}",
                    "BR(t & ~1)"], None
        return [f"BR(rvals[{ins.rm}] & ~1)"], None
    if ins.target is None:
        return None, None  # unresolved label: generic path raises
    lines = []
    if op == "BL":
        lines.append(f"rvals[14] = {(ins.address + ins.size) & MASK32}")
    elif op != "B":
        return None, None  # BX/BLX without rm: fallback handler raises
    inline = cpu._branch_inline(ins.target)
    if inline is None:
        return lines + [f"BR({ins.target})"], None
    return lines + inline, ins.target & MASK32


def _table_branch_lines(cpu, ins) -> list[str] | None:
    """A ``TBB``/``TBH`` table branch, as ``_exec_table_branch`` runs it:
    the entry read mediated through ``cpu.read`` (``RD``; the MPU, the
    data cache and every fault), then ``cpu.branch`` to the PC value plus
    twice the entry.  The read leaves the bus's data-side span
    (``SystemBus._span_d``, a decode cache) on the table's device - flash,
    for a table in code - so the span it found is put back, and the case's
    SRAM accesses still hit inline.  None for an index register that is
    the PC."""
    if ins.rn is None or ins.rm is None or ins.rm == PC:
        return None
    pc = _pc_value(cpu, ins) & MASK32
    base = str(pc) if ins.rn == PC else f"rvals[{ins.rn}]"
    index = f"rvals[{ins.rm}]" if ins.mnemonic == "TBB" else f"rvals[{ins.rm}] * 2"
    size = 1 if ins.mnemonic == "TBB" else 2
    return ["cpu._data_stalls = 0", "sp = bus._span_d",
            f"t = RD(({base} + {index}) & {MASK32}, {size})",
            "bus._span_d = sp",
            f"BR(({pc} + t * 2) & {MASK32})"]


def _build_step(cpu, uop, index, ns, ftrack):
    """Build one fused position's step entry (see :func:`_fetch`), or
    ``None`` when it has no inline form and calls its bound step.

    A chainable micro-op gets its fetch, then its body: a load, store or
    block transfer (:func:`_mem_step`), an inline data-processing form
    (:func:`_emit_exec`) or a call of its ``exec``, the prebound reference
    handler.  A block-ending branch gets its fetch and its taken path
    (:func:`_branch_lines`); a table branch's path reads its entry
    mediated (:func:`_table_branch_lines`).  The step *defers* into the
    current span when it is unpredicated, has a static cost, fetches
    without calling out, nothing in its body can raise or call out (a
    taken branch only as a pure goto, whose PC write the span absorbs),
    and its body reads no flag (the span's dead-flag pass sees only flag
    writes, so a later reader would let it drop a write the reader
    needs); otherwise it is a barrier.  A predicated step with a dynamic
    cost, and any other block ender, has no inline form.
    """
    ins = uop.ins
    cycle_fn = cpu.compile_cycles(ins)
    base = getattr(cycle_fn, "static_base", None)
    cond = None if uop.cond_check is None else _cond_test(ins)
    if uop.chainable:
        taken_lines = None
        if cond is not None and base is None:
            return None
    else:
        # a branch executes taken: its cost is the taken cost, and a
        # skip's cost must be static too
        taken_lines, target = _branch_lines(cpu, ins)
        base = getattr(cycle_fn, "static_taken", None) if base is not None else None
        if taken_lines is None or base is None:
            return None
    entry = _fetch(cpu, uop, index, ns, ftrack)
    deferrable = cond is None and base is not None and not entry["calls"]
    entry.update(cond=cond, base=base, barrier=not deferrable)
    if taken_lines is not None:
        # always bound: core inline forms route their rare arms through it
        ns.default("BR", "branch")
        entry.update(branches=1, target=target)
        if deferrable and taken_lines == [f"rvals[15] = {uop.branch_target}"]:
            # a pure goto: the span's PC chain continues at the target
            entry["next_pc"] = uop.branch_target
        else:
            entry.update(body=taken_lines, next_pc=None, barrier=True)
        if ins.mnemonic in ("TBB", "TBH"):
            entry["dacc"] = [_MEDIATED]  # the table read's stalls
        return entry
    # a predicated body may or may not run: it gets no static flash-state
    # folding (a throwaway tracker), and the device state is unknown after
    body_track = ftrack if cond is None else {}
    mem = uop.kind == "mem"
    if not (mem and _mem_step(cpu, uop, index, ns, body_track, entry,
                              deferrable)):
        lines = None if mem else _emit_exec(cpu, ins, ns)
        if lines is None:
            ns.put(f"E{index}", "constant", uop.exec)
            ns.put(f"O{index}", "outcome")
            entry.update(body=[f"E{index}(cpu, O{index})"], barrier=True)
            if mem:
                entry["body"].insert(0, "cpu._data_stalls = 0")
                entry["dacc"] = [_MEDIATED]
                body_track.clear()  # handler-run accesses may reach flash
        else:
            for stmt in lines:
                if stmt.startswith("f."):
                    entry["flags"][stmt[2]] = stmt
                elif stmt != "f = cpu.apsr":
                    entry["body"].append(stmt)
                    if "cpu.apsr" in stmt:
                        entry["barrier"] = True  # the body reads a flag
    if mem and cond is not None:
        ftrack.clear()
    if base is None:
        ns.put(f"K{index}", "cycles", ins)
        ns.default(f"O{index}", "outcome")
        entry["base"] = f"K{index}(O{index})"
    return entry


def _bus_accounting(accesses) -> list[str]:
    """The bus's share of ``accesses``, in order: device counters
    (aggregated), bus reads and writes, stall total, access records."""
    lines = []
    totals: dict[tuple, int] = {}
    for access in accesses:
        for counter in access.counters:
            totals[counter] = totals.get(counter, 0) + 1
    lines += [f"{dev}.{attr} += {count}" for (dev, attr), count in totals.items()]
    on_bus = [access for access in accesses if access.reads or access.writes]
    reads = sum(access.reads for access in on_bus)
    writes = sum(access.writes for access in on_bus)
    if reads:
        lines.append(f"bus.reads += {reads}")
    if writes:
        lines.append(f"bus.writes += {writes}")
    stalls = _sum([access.stall for access in on_bus])
    if stalls != "0":
        lines.append(f"bus.total_stalls += {stalls}")
    if on_bus:
        lines.append("if bus.record:")
        lines += [f"    bus.accesses.append({access.record})" for access in on_bus]
    return lines


def _retire(cycles: str, count: int, pc, branches: int = 0,
            skipped: int = 0) -> list[str]:
    """The retire of ``count`` steps: taken branches, cycles, skips,
    instruction count, then the PC (when ``pc`` is not None)."""
    lines = []
    if branches:
        lines.append(f"cpu.branches_taken += {branches}")
    lines.append(f"cpu.cycles += {cycles}")
    if skipped:
        lines.append(f"cpu.instructions_skipped += {skipped}")
    lines.append(f"cpu.instructions_executed += {count}")
    if pc is not None:
        lines.append(f"rvals[15] = {pc}")
    return lines


def _in_place(entry, taken_tail=(), skip_tail=()) -> list[str]:
    """A barrier run in place: its body, its data accounting, its retire.

    The caller has flushed the span, with this step's fetch on the bus
    (:func:`_flush_span`), so the order is the reference's: a body that
    faults sees its fetch accounted and nothing of its own.  A predicated
    step runs all of it only when its condition holds; skipped, it costs
    one cycle plus its fetch.  ``taken_tail`` and ``skip_tail`` end the two
    arms (a region member's transitions).
    """
    run = list(entry["body"])
    if entry["flags"]:
        run += ["f = cpu.apsr", *entry["flags"].values()]
    stall = entry["facc"].stall
    dacc = entry["dacc"]
    run += _bus_accounting(dacc)
    run += _retire(_sum([entry["base"], stall, *(a.stall for a in dacc)]), 1,
                   entry["next_pc"], branches=entry["branches"])
    run += taken_tail
    if entry["cond"] is None:
        return run
    skip = _retire(_sum([1, stall]), 1, entry["fall"], skipped=1)
    return (["f = cpu.apsr", f"if {entry['cond']}:", *_indent(run),
             "else:", *_indent([*skip, *skip_tail])])


def _span_accounting(span, pc, partial=None) -> list[str]:
    """The deferred accounting of ``span``: its bus accounting, then its
    retire, ending at ``pc``.  With ``partial`` - the barrier about to run
    in place - that step's fetch joins the bus accounting (the reference
    charges an instruction's cycles after its body, so a body that faults
    has its fetch on the bus but not on the cycle counter)."""
    accesses = [access for entry in span
                for access in (entry["facc"], *entry["dacc"])]
    lines = _bus_accounting(accesses if partial is None
                            else accesses + [partial["facc"]])
    if span:
        cycles = _sum([entry["base"] for entry in span]
                      + [access.stall for access in accesses])
        lines += _retire(cycles, len(span), pc,
                         branches=sum(entry["branches"] for entry in span))
    return lines


def _join_span(span, entry) -> None:
    """Defer ``entry`` into ``span``.

    Its escape arm, if it has one, is the barrier placement written in:
    the span so far is materialised with this step's fetch as the partial
    contribution, the mediated form runs in place, and the function
    returns to the engine - a fault raised there observes exactly the
    per-step state.
    """
    if entry["escape"] is not None:
        arm = (_span_accounting(span, entry["pc"], partial=entry)
               + _in_place(entry["escape"]) + ["return"])
        body = []
        for stmt in entry["body"]:
            if stmt.endswith(_ESCAPE):
                pad = stmt[:-len(_ESCAPE)]
                body += [pad + line for line in arm]
            else:
                body.append(stmt)
        entry["body"] = body
    span.append(entry)


def _flush_span(span, lines, barrier=None) -> None:
    """Emit a coalesced span: bodies in order, then the deferred accounting.

    Flag liveness runs backwards over the span - a flag write is dead only
    when a later step in the *same* span overwrites it before any point
    where the flags are observable: the span end (a full barrier) and
    every escape arm (a memory step's rare fallback exits the function
    mid-span), so entries carrying an escape reset the liveness to "all
    live" for everything before them.  The deferred counters are emitted
    as single aggregated statements, the access records in access order
    under one ``bus.record`` test, and the PC once.

    With ``barrier``, the span ends where that step starts and its fetch
    joins the accounting: a raise-free fetch runs before it, a fetch that
    calls out after it (the callee then sees every earlier access).
    """
    if span:
        live = set(_FLAGS)
        for entry in reversed(span):
            entry["dead"] = set(entry["flags"]) - live
            live -= set(entry["flags"])
            if entry["escape"] is not None:
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
    if barrier is None:
        if span:
            lines += _span_accounting(span, span[-1]["next_pc"])
    else:
        if not barrier["calls"]:
            lines += barrier["fetch"]
        lines += _span_accounting(span, barrier["pc"], partial=barrier)
        if barrier["calls"]:
            lines += barrier["fetch"]
    span.clear()


def _transition(pc, heads: dict, multi: bool) -> list[str]:
    """The end of a region member's arm that leaves the core at ``pc``: a
    constant, or None when the arm's ender (``S{i}()``, ``BR(...)``) left
    it in ``rvals[15]``.

    The arm continues at the member entered there only under exactly the
    checks the engine's dispatch loop would make before running that
    member whole: the event horizon unchanged since the function was
    entered (``h0``; only a request raised from inside the function, an
    MMIO doorbell, can move it: requests leave the queue only through
    ``check_interrupts`` and exception return, which fused code reaches
    only through an opaque ender, and those are checked here too), the
    member's cycle cap (a folded constant) ending at or below the
    dispatch limit ``top`` the engine published, its length inside the
    instruction budget ``lim``, and - after an opaque ender - the core
    neither halted nor asleep, with no IT block queued.  Anything else
    returns with the machine exactly where the engine takes over.
    """
    if pc is None:
        lines = ["if cpu.halted or cpu.sleeping or cpu._it_queue:", "    return"]
        if multi:
            lines += ["pc = rvals[15]", "m = MB.get(pc)"]
        else:
            lines.append("m = MB.get(rvals[15])")
        return lines + [
            "if (m is None or IRQ.horizon != h0 or cpu.cycles > top - m[0]"
            " or cpu.instructions_executed > lim - m[1]):",
            "    return", "continue"]
    if pc not in heads:
        return ["return"]
    cap, length = heads[pc]
    lines = [f"if (IRQ.horizon != h0 or cpu.cycles > top - {cap}"
             f" or cpu.instructions_executed > lim - {length}):", "    return"]
    if multi:
        lines.append(f"pc = {pc}")
    return lines + ["continue"]


def _dispatch(bodies) -> list[str]:
    """Member ``bodies`` (``(pc, lines)``, ascending) selected by the
    local ``pc``: a binary search on the member pcs.  Only member pcs reach
    it (the engine enters the function at a member, and every transition
    tests its target), so a single candidate needs no test."""
    if len(bodies) == 1:
        return bodies[0][1]
    mid = len(bodies) // 2
    return [f"if pc < {bodies[mid][0]}:", *_indent(_dispatch(bodies[:mid])),
            "else:", *_indent(_dispatch(bodies[mid:]))]


def _emit_member(cpu, uops, base, ns, exits, heads, multi) -> list[str]:
    """One block's statements, its positions numbered from ``base``.

    Each position is built once (:func:`_build_step`) and placed by the
    rule in the module docstring: deferred into the span, or a barrier run
    in place; positions that cannot be inlined call their bound step, so
    the code is behaviourally the list loop with the frames removed.  A
    region member (``heads``: each member pc's cycle cap and length) ends
    every arm that leaves the block with a transition
    (:func:`_transition`).  The block opens with no line run and an empty
    flash tracker: control reaches it from other members as well.
    """
    def leave(pc) -> list[str]:
        return _transition(pc, heads, multi) if heads else []

    ns.line_run = None
    lines: list[str] = []
    span: list = []
    ftrack: dict = {}
    last = len(uops) - 1
    for offset, uop in enumerate(uops):
        index = base + offset
        step = _build_step(cpu, uop, index, ns, ftrack)
        if step is None:
            _flush_span(span, lines)
            ns.put(f"S{index}", "step", uop)
            lines.append(f"S{index}()")
            ftrack.clear()  # the bound step fetches/accesses opaquely
            ns.line_run = None
            if offset == last:
                lines += leave(uop.next_pc if uop.chainable else None)
        elif step["barrier"]:
            _flush_span(span, lines, step)
            if offset == last:
                taken = step["next_pc"]
                if taken is None:
                    taken = step["target"]
                lines += _in_place(step, leave(taken), leave(step["fall"]))
            else:
                lines += _in_place(step)
        else:
            if step["escape"] is not None:
                exits.append(step["escape"]["next_pc"])
            _join_span(span, step)
    if span:
        next_pc = span[-1]["next_pc"]
        _flush_span(span, lines)
        lines += leave(next_pc)
    return lines


_SB_FUSED = obs.counter(
    "engine.superblocks.fused",
    "Superblocks and loop regions fused into a single callable, by where "
    "the code came from: emitted here on an engine-plan miss, or bound "
    "from the plan")
_FUSED_EMITTED = _SB_FUSED.labels(source="emitted")
_FUSED_PLAN = _SB_FUSED.labels(source="plan")
_COMPILE_SECONDS = obs.histogram(
    "engine.superblock.compile_seconds",
    "Wall time to fuse one superblock or region: emit + compile + bind on "
    "an engine-plan miss (code-cache hits included), the bind alone on a "
    "plan hit; binds and cache hits land in the lowest buckets",
    buckets=obs.FAST_SECONDS_BUCKETS)


def fuse_block(cpu, block):
    """Fuse one superblock, or the region it is a member of, into a single
    callable (see :func:`_fuse_block`; this wrapper only adds out-of-band
    telemetry)."""
    if not obs.REGISTRY.enabled:
        return _fuse_block(cpu, block)
    start = _perf_counter()
    fused_from = _FUSED_PLAN if block.code is not None else _FUSED_EMITTED
    fused = _fuse_block(cpu, block)
    fused_from.add()
    _COMPILE_SECONDS.observe(_perf_counter() - start)
    return fused


#: the globals of every fused function: its body reads nothing but its
#: parameters and builtins
_GLOBALS = {"__builtins__": builtins}


def _fuse_block(cpu, block):
    """Fuse one engine-plan block into a single callable bound over ``cpu``.

    ``block`` is the plan's block (its micro-ops, and once any core has
    fused it, the compiled code and binding recipe).  The first fusion
    emits and compiles the code (:func:`_emit_block`) - for a region
    member (``repro.core.cpu.Region``) the code of the whole region,
    whose blocks the engine has gathered - stores code and recipe on
    every block it covers and adds its escape exits to the plan's
    (``EnginePlan.exits``); every fusion then binds: the recipe resolves
    on ``cpu`` into the function's defaults.  Only the positions that call
    their bound step (``S{i}``) bind one, through ``cpu._bound_step``.
    """
    if block.code is None:
        region = block.region
        blocks = [block] if region is None else region.blocks
        code, recipe, exits = _emit_block(cpu, blocks, region is not None)
        for covered in blocks:
            covered.code, covered.recipe = code, recipe
        cpu._plan.exits.update(exits)
    return FunctionType(block.code, _GLOBALS, "_fused",
                        tuple([resolve(cpu, arg) for resolve, arg in block.recipe]))


def _emit_block(cpu, blocks, region: bool):
    """Emit and compile one fused function: ``(code, recipe, exits)``.

    ``code`` is the generated function's code object, ``recipe`` one
    ``(resolve, arg)`` pair per parameter (:class:`_Names`) and ``exits``
    the pcs its escape arms return to the engine at.  ``blocks`` are one
    superblock, or with ``region`` a loop region's member blocks, each
    emitted by :func:`_emit_member` with its positions numbered on from
    the previous member's.

    A region's function wraps the members in a ``while True:`` that
    selects the member at ``pc`` (:func:`_dispatch`; one member needs no
    selection), so a member's exit to another member - a loop back-edge,
    either arm of a conditional branch, a fall-through into a head, or
    the pc an opaque ender left - continues in place under the checks of
    :func:`_transition`, with no engine dispatch between them.  It reads
    the horizon, the engine's dispatch limit and the instruction budget
    once, on entry.
    """
    ns = _Names(cpu._plan.key)
    ns.put("cpu", "core")
    ns.put("rvals", "registers")
    ns.put("RD", "read")
    ns.put("WR", "write")
    ns.put("bus", "bus")
    heads = {}
    if region:
        heads = {block.uops[0].address: (block.cap, len(block.uops))
                 for block in blocks}
        ns.put("IRQ", "irq")
        ns.put("MB", "constant", heads)
    multi = len(blocks) > 1
    exits: list = []
    bodies = []
    base = 0
    for block in blocks:
        bodies.append((block.uops[0].address,
                       _emit_member(cpu, block.uops, base, ns, exits, heads,
                                    multi)))
        base += len(block.uops)
    lines = bodies[0][1]
    if region:
        lines = ["h0 = IRQ.horizon", "top = cpu._sb_top", "lim = cpu._sb_limit"]
        if multi:
            lines.append("pc = rvals[15]")
        lines += ["while True:", *_indent(_dispatch(bodies))]
    # every bound object becomes a default parameter, so the generated
    # body resolves them as locals (LOAD_FAST) instead of dict lookups
    params = ", ".join(f"{name}={name}" for name in ns.recipe)
    body = "\n    ".join(lines) if lines else "pass"
    source = f"def _fused({params}):\n    {body}\n"
    code = _CODE_CACHE.get(source)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
            _CODE_CACHE.clear()  # crude bound; refilling is cheap
        module = compile(source, f"<superblock@{bodies[0][0]:#x}>", "exec")
        code = next(const for const in module.co_consts
                    if isinstance(const, CodeType))
        _CODE_CACHE[source] = code
    return code, tuple(ns.recipe.values()), exits


#: fused functions' code objects memoised by generated source: blocks of
#: different programs (or plan keys) that emit the same source - programs
#: differing only in literal values, say - share one ``compile()``, which
#: dwarfs a cold block's execution time.  Only the code is shared; each
#: core binds its own objects as the function's defaults.
_CODE_CACHE: dict[str, CodeType] = {}
_CODE_CACHE_MAX = 4096
