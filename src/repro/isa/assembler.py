"""Two-pass assembler and program container for all three instruction sets.

Two entry points:

* :func:`assemble_items` — assemble a list of already-built items (labels,
  :class:`~repro.isa.instructions.Instruction` objects, directives).  This is
  the path the code generators use.
* :func:`assemble` — parse UAL-style assembly text into items first.  This is
  the path tests and examples use.

The layout pass is iterative with monotone growth: Thumb-2 branches start at
their narrow width and widen until every label-relative operand fits, which
always converges.  Literal-pool requests (``LDR rd, =const``) are collected
and dumped at each ``.ltorg`` directive or at the end of the program; this is
the mechanism experiment E3 (flash streaming disruption, paper §2.2) probes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.isa import arm32, thumb
from repro.isa.conditions import Condition
from repro.isa.instructions import (
    ISA_ARM,
    ISA_THUMB,
    ISA_THUMB2,
    Instruction,
    Mem,
    Shift,
)
from repro.isa.registers import MASK32, PC, parse_register

# ----------------------------------------------------------------------
# items
# ----------------------------------------------------------------------


@dataclass
class Label:
    name: str


@dataclass
class Directive:
    kind: str            # 'word' | 'byte' | 'half' | 'align' | 'space' | 'ltorg'
    value: int | str = 0


@dataclass
class LiteralRef:
    """``LDR rd, =value`` pseudo-instruction, resolved against a pool."""

    instruction: Instruction  # the LDR, with mem=None until resolution
    value: int | str          # constant or label name


@dataclass
class DeltaDirective:
    """A label-difference datum: (target - base) // scale.

    Used for TBB/TBH jump tables, whose entries are halfword counts from
    the table base to each case label.
    """

    target: str
    base: str
    scale: int = 2
    size: int = 1  # 1 for TBB entries, 2 for TBH entries


AsmItem = Label | Directive | Instruction | LiteralRef | DeltaDirective


@dataclass
class DataWord:
    """A literal-pool or .word datum placed in the code stream."""

    address: int
    value: int
    size: int = 4


@dataclass
class Program:
    """An assembled program: instructions + embedded data, ready to run."""

    isa: str
    base: int
    instructions: list[Instruction] = field(default_factory=list)
    data: list[DataWord] = field(default_factory=list)
    symbols: dict[str, int] = field(default_factory=dict)
    size: int = 0

    def __post_init__(self) -> None:
        self._by_address: dict[int, Instruction] = {}

    def _index(self) -> None:
        self._by_address = {ins.address: ins for ins in self.instructions}

    def instruction_at(self, address: int) -> Instruction | None:
        return self._by_address.get(address)

    @property
    def code_bytes(self) -> int:
        """Bytes of instruction encodings (excludes embedded data)."""
        return sum(ins.size for ins in self.instructions)

    @property
    def total_bytes(self) -> int:
        """Full image size: instructions plus literal pools and .word data."""
        return self.size

    @property
    def literal_bytes(self) -> int:
        return sum(d.size for d in self.data)

    def image(self) -> bytes:
        """Byte image of the program (little-endian), for loading into flash."""
        out = bytearray(self.size)
        for ins in self.instructions:
            offset = ins.address - self.base
            encoding = ins.encoding or 0
            out[offset:offset + ins.size] = _encoding_bytes(self.isa, ins, encoding)
        for datum in self.data:
            offset = datum.address - self.base
            out[offset:offset + datum.size] = datum.value.to_bytes(datum.size, "little")
        return bytes(out)

    def end_address(self) -> int:
        return self.base + self.size


def _encoding_bytes(isa: str, ins: Instruction, encoding: int) -> bytes:
    if isa == ISA_ARM:
        return encoding.to_bytes(4, "little")
    if ins.size == 2:
        return encoding.to_bytes(2, "little")
    # 32-bit Thumb encodings are stored first-halfword-first.
    return (encoding >> 16).to_bytes(2, "little") + (encoding & 0xFFFF).to_bytes(2, "little")


# ----------------------------------------------------------------------
# layout + link
# ----------------------------------------------------------------------

class AssemblyError(Exception):
    """Malformed source, unresolvable label, or out-of-range operand."""


def _min_alignment(isa: str) -> int:
    return 4 if isa == ISA_ARM else 2


def _nominal_size(isa: str, ins: Instruction) -> int:
    if isa == ISA_ARM:
        return 4
    if isa == ISA_THUMB:
        return 4 if ins.mnemonic == "BL" else 2
    if ins.is_branch() and ins.mnemonic in ("B", "BL") and ins.target is None:
        # label branches start narrow (B) / wide (BL, B.W); a narrow B may
        # widen during layout
        return 4 if ins.mnemonic == "BL" or ins.wide else 2
    return thumb.thumb2_width(ins)


def assemble_items(items: list[AsmItem], isa: str, base: int = 0) -> Program:
    """Lay out, link, and encode a list of assembly items."""
    if isa not in (ISA_ARM, ISA_THUMB, ISA_THUMB2):
        raise AssemblyError(f"unknown ISA {isa!r}")
    if base % 4:
        raise AssemblyError("base address must be word-aligned")

    work = list(items)
    widened: set[int] = set()  # indices of branches forced wide

    for _ in range(64):  # layout relaxation passes
        layout = _layout(work, isa, base, widened)
        grew = _check_ranges(layout, isa, widened)
        if not grew:
            return _finalize(layout, isa, base)
    raise AssemblyError("layout did not converge")


@dataclass
class _Layout:
    items: list[AsmItem]
    addresses: dict[int, int]          # item index -> address
    sizes: dict[int, int]              # item index -> encoded size
    symbols: dict[str, int]
    pools: list[tuple[int, dict[int | str, int]]]  # (pool base addr, value->addr)
    literal_home: dict[int, int]       # item index of LiteralRef -> literal addr
    size: int


def _layout(items: list[AsmItem], isa: str, base: int, widened: set[int]) -> _Layout:
    address = base
    addresses: dict[int, int] = {}
    sizes: dict[int, int] = {}
    symbols: dict[str, int] = {}
    pending_literals: list[tuple[int, int | str]] = []  # (item index, value)
    pools: list[tuple[int, dict[int | str, int]]] = []
    literal_home: dict[int, int] = {}

    def dump_pool() -> None:
        nonlocal address
        if not pending_literals:
            return
        address = (address + 3) & ~3
        pool_base = address
        placed: dict[int | str, int] = {}
        for index, value in pending_literals:
            if value not in placed:
                placed[value] = address
                address += 4
            literal_home[index] = placed[value]
        pools.append((pool_base, placed))
        pending_literals.clear()

    for index, item in enumerate(items):
        if isinstance(item, Label):
            symbols[item.name] = address
            continue
        if isinstance(item, Directive):
            if item.kind == "align":
                step = int(item.value) or 4
                address = (address + step - 1) & ~(step - 1)
            elif item.kind == "space":
                address += int(item.value)
            elif item.kind == "word":
                address = (address + 3) & ~3
                addresses[index] = address
                address += 4
            elif item.kind == "half":
                address = (address + 1) & ~1
                addresses[index] = address
                address += 2
            elif item.kind == "byte":
                addresses[index] = address
                address += 1
            elif item.kind == "ltorg":
                dump_pool()
            else:
                raise AssemblyError(f"unknown directive {item.kind!r}")
            continue
        if isinstance(item, DeltaDirective):
            addresses[index] = address
            sizes[index] = item.size
            address += item.size
            continue
        if isinstance(item, LiteralRef):
            if isa == ISA_ARM:
                size = 4
            elif isa == ISA_THUMB2 and index in widened:
                size = 4
            else:
                size = 2
            addresses[index] = address
            sizes[index] = size
            pending_literals.append((index, item.value))
            address += size
            continue
        ins = item
        if isa == ISA_ARM and address % 4:
            address = (address + 3) & ~3
        size = 4 if index in widened else _nominal_size(isa, ins)
        addresses[index] = address
        sizes[index] = size
        address += size
    dump_pool()
    return _Layout(items=items, addresses=addresses, sizes=sizes, symbols=symbols,
                   pools=pools, literal_home=literal_home, size=address - base)


def _literal_offset(isa: str, instr_addr: int, literal_addr: int) -> int:
    if isa == ISA_ARM:
        return literal_addr - (instr_addr + 8)
    return literal_addr - ((instr_addr + 4) & ~3)


def _check_ranges(layout: _Layout, isa: str, widened: set[int]) -> bool:
    """Widen anything out of range; True when the layout changed."""
    grew = False
    if isa == ISA_ARM:
        return False
    for index, item in enumerate(layout.items):
        if index in widened:
            continue
        if isinstance(item, LiteralRef):
            literal_addr = layout.literal_home[index]
            offset = _literal_offset(isa, layout.addresses[index], literal_addr)
            fits_narrow = 0 <= offset <= 1020 and offset % 4 == 0
            if not fits_narrow:
                if isa == ISA_THUMB:
                    raise AssemblyError(
                        f"literal pool out of range for 16-bit Thumb (offset {offset})")
                widened.add(index)
                grew = True
            continue
        if not isinstance(item, Instruction):
            continue
        ins = item
        if ins.mnemonic == "B" and ins.label is not None:
            target = layout.symbols.get(ins.label)
            if target is None:
                raise AssemblyError(f"undefined label {ins.label!r}")
            offset = target - (layout.addresses[index] + 4)
            if ins.cond == Condition.AL:
                fits = -2048 <= offset <= 2046
            else:
                fits = -256 <= offset <= 254
            if isa == ISA_THUMB and not fits:
                raise AssemblyError(
                    f"branch to {ins.label!r} out of range for 16-bit Thumb ({offset})")
            if isa == ISA_THUMB2 and not fits:
                widened.add(index)
                grew = True
    return grew


def _finalize(layout: _Layout, isa: str, base: int) -> Program:
    program = Program(isa=isa, base=base, size=layout.size)
    forced_wide = {index for index, size in layout.sizes.items()
                   if size == 4 and isinstance(layout.items[index], Instruction)}
    for index, item in enumerate(layout.items):
        if isinstance(item, Label):
            continue
        if isinstance(item, Directive):
            if item.kind in ("word", "half", "byte"):
                size = {"word": 4, "half": 2, "byte": 1}[item.kind]
                value = item.value
                if isinstance(value, str):
                    if value not in layout.symbols:
                        raise AssemblyError(f"undefined symbol {value!r}")
                    value = layout.symbols[value]
                program.data.append(DataWord(address=layout.addresses[index],
                                             value=int(value) & MASK32, size=size))
            continue
        if isinstance(item, DeltaDirective):
            for symbol in (item.target, item.base):
                if symbol not in layout.symbols:
                    raise AssemblyError(f"undefined symbol {symbol!r}")
            delta = layout.symbols[item.target] - layout.symbols[item.base]
            if delta < 0 or delta % item.scale:
                raise AssemblyError(
                    f"delta {item.target}-{item.base}={delta} not a positive "
                    f"multiple of {item.scale}")
            program.data.append(DataWord(address=layout.addresses[index],
                                         value=delta // item.scale, size=item.size))
            continue
        if isinstance(item, LiteralRef):
            ins = item.instruction
            address = layout.addresses[index]
            offset = _literal_offset(isa, address, layout.literal_home[index])
            resolved = ins.copy(mem=Mem(rn=PC, offset=offset), address=address,
                                wide=layout.sizes[index] == 4 and isa == ISA_THUMB2)
            _encode(resolved, isa)
            if resolved.size != layout.sizes[index]:
                raise AssemblyError("literal load size changed during encoding")
            program.instructions.append(resolved)
            continue
        ins = item.copy()
        ins.address = layout.addresses[index]
        if ins.label is not None:
            if ins.label not in layout.symbols:
                raise AssemblyError(f"undefined label {ins.label!r}")
            if ins.is_branch():
                ins.target = layout.symbols[ins.label]
            elif ins.mnemonic == "ADR":
                target = layout.symbols[ins.label]
                ins.imm = target - ((ins.address + (8 if isa == ISA_ARM else 4)) & ~3)
        if isa == ISA_THUMB2 and index in forced_wide:
            ins.wide = True
        _encode(ins, isa)
        if ins.size != layout.sizes[index]:
            raise AssemblyError(
                f"{ins.mnemonic} at {ins.address:#x}: size changed during encoding "
                f"({layout.sizes[index]} -> {ins.size})")
        program.instructions.append(ins)
    # literal pool data
    for pool_base, placed in layout.pools:
        for value, address in placed.items():
            if isinstance(value, str):
                if value not in layout.symbols:
                    raise AssemblyError(f"undefined literal symbol {value!r}")
                value = layout.symbols[value]
            program.data.append(DataWord(address=address, value=int(value) & MASK32))
    program.symbols = dict(layout.symbols)
    program._index()
    return program




def _encode(ins: Instruction, isa: str) -> None:
    if isa == ISA_ARM:
        ins.encoding = arm32.encode_arm(ins)
        ins.size = 4
        return
    if isa == ISA_THUMB:
        halfwords = thumb.encode_thumb(ins)
    else:
        halfwords = thumb.encode_thumb2(ins)
    if len(halfwords) == 1:
        ins.encoding = halfwords[0]
        ins.size = 2
    else:
        ins.encoding = (halfwords[0] << 16) | halfwords[1]
        ins.size = 4


# ----------------------------------------------------------------------
# text parser
# ----------------------------------------------------------------------

_BASE_MNEMONICS = sorted(
    ["MOVW", "MOVT", "MOV", "MVN", "ADD", "ADC", "SUB", "SBC", "RSB",
     "AND", "ORR", "EOR", "BIC", "ORN", "LSL", "LSR", "ASR", "ROR",
     "CMP", "CMN", "TST", "TEQ", "MUL", "MLA", "MLS", "UMULL", "SMULL",
     "SDIV", "UDIV", "CLZ", "RBIT", "REV16", "REV", "SXTB", "SXTH",
     "UXTB", "UXTH", "BFI", "BFC", "UBFX", "SBFX",
     "LDRSB", "LDRSH", "LDRB", "LDRH", "LDR", "STRB", "STRH", "STR",
     "LDM", "STM", "PUSH", "POP", "BLX", "BL", "BX", "B",
     "TBB", "TBH", "ADR", "NOP", "CPSID", "CPSIE", "SVC", "WFI",
     "BKPT", "DSB", "ISB"],
    key=len, reverse=True,
)

_FLAG_CAPABLE = {"MOV", "MVN", "ADD", "ADC", "SUB", "SBC", "RSB", "AND", "ORR",
                 "EOR", "BIC", "ORN", "LSL", "LSR", "ASR", "ROR", "MUL"}

_COND_NAMES = {c.name for c in Condition} | {"HS", "LO"}


def _split_mnemonic(token: str) -> tuple[str, bool, Condition]:
    """Split 'ADDSEQ' -> ('ADD', True, EQ).  Raises on no match."""
    token = token.upper().replace(".W", "").replace(".N", "")
    if token.startswith("IT") and all(c in "TE" for c in token[2:]):
        return "IT", False, Condition.AL
    for base in _BASE_MNEMONICS:
        if not token.startswith(base):
            continue
        rest = token[len(base):]
        setflags = False
        if rest.startswith("S") and base in _FLAG_CAPABLE:
            candidate = rest[1:]
            if candidate == "" or candidate in _COND_NAMES:
                setflags = True
                rest = candidate
        if rest == "":
            return base, setflags, Condition.AL
        if rest in _COND_NAMES:
            return base, setflags, Condition.parse(rest)
    raise AssemblyError(f"unknown mnemonic {token!r}")


_NUMBER_RE = re.compile(r"^[+-]?(0[xX][0-9a-fA-F]+|\d+)$")


def _parse_number(text: str) -> int:
    text = text.strip()
    if not _NUMBER_RE.match(text):
        raise AssemblyError(f"bad number {text!r}")
    return int(text, 0)


def _split_operands(text: str) -> list[str]:
    """Split on commas not inside [] or {}."""
    parts: list[str] = []
    depth = 0
    current = ""
    for ch in text:
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(current.strip())
            current = ""
        else:
            current += ch
    if current.strip():
        parts.append(current.strip())
    return parts


def _parse_reglist(text: str) -> tuple[int, ...]:
    inner = text.strip()[1:-1]
    regs: list[int] = []
    for part in inner.split(","):
        part = part.strip()
        if "-" in part:
            lo_name, hi_name = part.split("-")
            lo = parse_register(lo_name)
            hi = parse_register(hi_name)
            regs.extend(range(lo, hi + 1))
        elif part:
            regs.append(parse_register(part))
    return tuple(sorted(set(regs)))


def _parse_shift(text: str) -> Shift:
    match = re.match(r"^(lsl|lsr|asr|ror)\s+#(\d+)$", text.strip(), re.IGNORECASE)
    if not match:
        raise AssemblyError(f"bad shift {text!r}")
    return Shift(match.group(1).upper(), int(match.group(2)))


def _parse_mem(operands: list[str], start: int) -> tuple[Mem, int]:
    """Parse a bracketed address starting at operands[start]."""
    text = operands[start]
    consumed = 1
    writeback = text.endswith("!")
    if writeback:
        text = text[:-1].strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise AssemblyError(f"bad address {text!r}")
    inner = _split_operands(text[1:-1])
    rn = parse_register(inner[0])
    offset = 0
    rm = None
    shift = 0
    postindex = False
    if len(inner) >= 2:
        second = inner[1].strip()
        if second.startswith("#"):
            offset = _parse_number(second[1:])
        else:
            rm = parse_register(second)
            if len(inner) == 3:
                parsed = _parse_shift(inner[2])
                if parsed.kind != "LSL":
                    raise AssemblyError("only LSL index shifts are supported")
                shift = parsed.amount
    # post-index: [rn], #imm
    if start + consumed < len(operands) and operands[start + consumed].startswith("#") and len(inner) == 1 and not writeback:
        offset = _parse_number(operands[start + consumed][1:])
        postindex = True
        consumed += 1
    return Mem(rn=rn, offset=offset, rm=rm, shift=shift,
               writeback=writeback, postindex=postindex), consumed


def parse_line(line: str) -> list[AsmItem]:
    """Parse one line of assembly into zero or more items."""
    for comment_lead in (";", "@", "//"):
        if comment_lead in line:
            line = line.split(comment_lead, 1)[0]
    line = line.strip()
    items: list[AsmItem] = []
    while ":" in line:
        name, line = line.split(":", 1)
        if not re.match(r"^[A-Za-z_.$][\w.$]*$", name.strip()):
            raise AssemblyError(f"bad label {name!r}")
        items.append(Label(name.strip()))
        line = line.strip()
    if not line:
        return items
    if line.startswith("."):
        directive, _, rest = line.partition(" ")
        kind = directive[1:].lower()
        rest = rest.strip()
        if kind in ("word", "byte", "half", "hword", "short"):
            kind = {"hword": "half", "short": "half"}.get(kind, kind)
            for value_text in rest.split(","):
                value_text = value_text.strip()
                if _NUMBER_RE.match(value_text):
                    items.append(Directive(kind, _parse_number(value_text)))
                else:
                    items.append(Directive(kind, value_text))
        elif kind in ("align", "space", "skip"):
            kind = "space" if kind == "skip" else kind
            items.append(Directive(kind, _parse_number(rest) if rest else 4))
        elif kind in ("ltorg", "pool"):
            items.append(Directive("ltorg"))
        else:
            raise AssemblyError(f"unknown directive .{kind}")
        return items
    mnemonic_text, _, operand_text = line.partition(" ")
    base, setflags, cond = _split_mnemonic(mnemonic_text)
    operands = _split_operands(operand_text.strip())
    items.append(_build_instruction(base, setflags, cond, operands, mnemonic_text))
    return items


def _build_instruction(base: str, setflags: bool, cond: Condition,
                       operands: list[str], raw: str) -> Instruction | LiteralRef:
    wide = raw.upper().endswith(".W")

    def reg(i: int) -> int:
        return parse_register(operands[i])

    if base == "IT":
        pattern = "T" + raw.upper().replace(".W", "")[2:]
        if not operands:
            raise AssemblyError("IT needs a condition")
        return Instruction("IT", cond=Condition.parse(operands[0]), it_mask=pattern)
    if base in ("NOP", "WFI", "DSB", "ISB", "CPSID", "CPSIE"):
        return Instruction(base, cond=cond)
    if base in ("SVC", "BKPT"):
        return Instruction(base, cond=cond, imm=_parse_number(operands[0].lstrip("#")))
    if base in ("PUSH", "POP"):
        return Instruction(base, cond=cond, reglist=_parse_reglist(operands[0]))
    if base in ("LDM", "STM"):
        rn_text = operands[0]
        writeback = rn_text.endswith("!")
        rn = parse_register(rn_text.rstrip("!"))
        return Instruction(base, cond=cond, rn=rn, writeback=writeback,
                           reglist=_parse_reglist(operands[1]))
    if base in ("B", "BL"):
        return Instruction(base, cond=cond, label=operands[0], wide=wide)
    if base in ("BX", "BLX"):
        return Instruction(base, cond=cond, rm=reg(0))
    if base in ("TBB", "TBH"):
        mem, _ = _parse_mem(operands, 0)
        return Instruction(base, cond=cond, rn=mem.rn, rm=mem.rm)
    if base == "ADR":
        return Instruction("ADR", cond=cond, rd=reg(0), label=operands[1])
    if base in ("LDR", "LDRB", "LDRH", "LDRSB", "LDRSH", "STR", "STRB", "STRH"):
        rd = reg(0)
        if base == "LDR" and operands[1].startswith("="):
            value_text = operands[1][1:]
            ins = Instruction("LDR", cond=cond, rd=rd, wide=wide)
            if _NUMBER_RE.match(value_text):
                return LiteralRef(ins, _parse_number(value_text))
            return LiteralRef(ins, value_text)
        if base == "LDR" and not operands[1].startswith("["):
            # LDR rd, label  -> pc-relative literal-style load of label address
            return LiteralRef(Instruction("LDR", cond=cond, rd=rd, wide=wide), operands[1])
        mem, _ = _parse_mem(operands, 1)
        return Instruction(base, cond=cond, rd=rd, mem=mem, wide=wide)
    if base in ("MOVW", "MOVT"):
        return Instruction(base, cond=cond, rd=reg(0),
                           imm=_parse_number(operands[1].lstrip("#")))
    if base in ("BFI", "BFC", "UBFX", "SBFX"):
        if base == "BFC":
            return Instruction(base, cond=cond, rd=reg(0),
                               bf_lsb=_parse_number(operands[1].lstrip("#")),
                               bf_width=_parse_number(operands[2].lstrip("#")))
        return Instruction(base, cond=cond, rd=reg(0), rn=reg(1),
                           bf_lsb=_parse_number(operands[2].lstrip("#")),
                           bf_width=_parse_number(operands[3].lstrip("#")))
    if base in ("MLA", "MLS"):
        return Instruction(base, cond=cond, rd=reg(0), rn=reg(1), rm=reg(2), ra=reg(3))
    if base in ("UMULL", "SMULL"):
        return Instruction(base, cond=cond, setflags=setflags,
                           rd=reg(0), ra=reg(1), rn=reg(2), rm=reg(3))
    if base in ("CLZ", "RBIT", "REV", "REV16", "SXTB", "SXTH", "UXTB", "UXTH"):
        return Instruction(base, cond=cond, rd=reg(0), rm=reg(1))
    if base in ("CMP", "CMN", "TST", "TEQ"):
        rn = reg(0)
        if operands[1].startswith("#"):
            return Instruction(base, cond=cond, rn=rn, imm=_parse_number(operands[1][1:]))
        shift = _parse_shift(operands[2]) if len(operands) == 3 else None
        return Instruction(base, cond=cond, rn=rn, rm=reg(1), shift=shift)
    if base in ("MOV", "MVN"):
        rd = reg(0)
        if operands[1].startswith("#"):
            return Instruction(base, cond=cond, setflags=setflags, rd=rd,
                               imm=_parse_number(operands[1][1:]), wide=wide)
        shift = _parse_shift(operands[2]) if len(operands) == 3 else None
        return Instruction(base, cond=cond, setflags=setflags, rd=rd, rm=reg(1),
                           shift=shift, wide=wide)
    if base in ("LSL", "LSR", "ASR", "ROR"):
        rd, rn = reg(0), reg(1)
        if len(operands) == 2:  # two-operand form: LSLS rd, rm
            return Instruction(base, cond=cond, setflags=setflags, rd=rd, rn=rd, rm=rn)
        if operands[2].startswith("#"):
            return Instruction(base, cond=cond, setflags=setflags, rd=rd, rn=rn,
                               imm=_parse_number(operands[2][1:]), wide=wide)
        return Instruction(base, cond=cond, setflags=setflags, rd=rd, rn=rn, rm=reg(2))
    if base in ("MUL", "SDIV", "UDIV"):
        if len(operands) == 2:
            return Instruction(base, cond=cond, setflags=setflags,
                               rd=reg(0), rn=reg(0), rm=reg(1))
        return Instruction(base, cond=cond, setflags=setflags,
                           rd=reg(0), rn=reg(1), rm=reg(2))
    if base in ("ADD", "ADC", "SUB", "SBC", "RSB", "AND", "ORR", "EOR", "BIC", "ORN"):
        rd = reg(0)
        if len(operands) == 2:  # two-operand: ADD rd, op2
            operands = [operands[0], operands[0], operands[1]]
        rn = reg(1)
        if operands[2].startswith("#"):
            return Instruction(base, cond=cond, setflags=setflags, rd=rd, rn=rn,
                               imm=_parse_number(operands[2][1:]), wide=wide)
        shift = _parse_shift(operands[3]) if len(operands) == 4 else None
        return Instruction(base, cond=cond, setflags=setflags, rd=rd, rn=rn,
                           rm=reg(2), shift=shift, wide=wide)
    raise AssemblyError(f"cannot build instruction for {base}")


def assemble(source: str, isa: str, base: int = 0) -> Program:
    """Assemble UAL-style source text for the given instruction set."""
    items: list[AsmItem] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        try:
            items.extend(parse_line(line))
        except AssemblyError as exc:
            raise AssemblyError(f"line {lineno}: {exc}") from exc
    return assemble_items(items, isa, base)
