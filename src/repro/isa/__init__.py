"""Instruction-set architecture substrate: ARM, Thumb, and Thumb-2.

This subpackage models the three instruction sets the paper compares
(section 2): the classic 32-bit ARM set, the compressed 16-bit Thumb set,
and the blended 16/32-bit Thumb-2 set with its new automotive-oriented
instructions (MOVW/MOVT, IT, TBB, bitfield ops, hardware divide).

It provides executable instruction objects, bit-exact encoders/decoders for
the modelled subset, an assembler, and a disassembler.  Timing is *not*
modelled here - that belongs to the core models in :mod:`repro.core`.
"""

from repro.isa.arm32 import EncodingError, decode_arm, encode_arm, encode_arm_immediate
from repro.isa.assembler import (
    AssemblyError,
    Directive,
    Label,
    LiteralRef,
    Program,
    assemble,
    assemble_items,
)
from repro.isa.conditions import Condition, condition_passed
from repro.isa.disasm import disassemble_image, disassemble_word, format_listing
from repro.isa.instructions import (
    ISA_ARM,
    ISA_THUMB,
    ISA_THUMB2,
    ALL_ISAS,
    Instruction,
    Mem,
    Shift,
    instr,
)
from repro.isa.registers import (
    LR,
    MASK32,
    PC,
    SP,
    Apsr,
    RegisterFile,
    parse_register,
    register_name,
)
from repro.isa.predecode import MicroOp, predecode
from repro.isa.semantics import (
    Outcome,
    UndefinedInstruction,
    add_with_carry,
    execute,
    shift_c,
    to_signed,
)
from repro.isa.thumb import encode_thumb, encode_thumb2, encode_thumb2_imm, thumb2_expand_imm
from repro.isa.thumb_decode import decode_thumb

__all__ = [
    "EncodingError", "decode_arm", "encode_arm", "encode_arm_immediate",
    "AssemblyError", "Directive", "Label", "LiteralRef", "Program",
    "assemble", "assemble_items",
    "Condition", "condition_passed",
    "disassemble_image", "disassemble_word", "format_listing",
    "ISA_ARM", "ISA_THUMB", "ISA_THUMB2", "ALL_ISAS",
    "Instruction", "Mem", "Shift", "instr",
    "LR", "MASK32", "PC", "SP", "Apsr", "RegisterFile",
    "parse_register", "register_name",
    "MicroOp", "predecode",
    "Outcome", "UndefinedInstruction", "add_with_carry", "execute",
    "shift_c", "to_signed",
    "encode_thumb", "encode_thumb2", "encode_thumb2_imm", "thumb2_expand_imm",
    "decode_thumb",
]
