"""The six AutoIndy-style automotive kernels.

EEMBC's AutoBench/AutoIndy suite is proprietary, so these kernels are
rebuilt from the published one-line descriptions of six representative
members.  Each is written once in the kernel IR and ships with a
pure-Python reference implementation; the integration tests require the
IR interpreter, all three compiled ISAs, and the reference to agree
bit-for-bit.

Feature coverage is chosen to exercise exactly the ISA differences the
paper discusses (section 2):

==========  =====================================================
ttsprk      tooth-to-spark: sensor scaling with division, clamping
tblook      table lookup & interpolation: signed loads, signed divide
canrdr      CAN message processing: byte/word shuffles, REV, rotates
bitmnp      bit manipulation: CLZ, RBIT, bitfield extract/insert
rspeed      road speed: 16-bit wraparound deltas, division, select
puwmod      pulse-width modulation: switch dispatch (TBB), multiply
==========  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.ir import Function, IrBuilder

MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class WorkloadInput:
    """One prepared input: a data blob and kernel arguments.

    Argument values containing the sentinel base ``BASE`` are relative to
    wherever the blob is loaded; the harness substitutes the real address.
    Frozen, because the harness shares one per (kernel, seed, scale)
    between runs (``repro.workloads.harness.seeded_input``).
    """

    data: bytes
    arg_offsets: tuple          # each: ('ptr', byte_offset) or ('val', value)

    def args(self, base: int) -> tuple[int, ...]:
        out = []
        for kind, value in self.arg_offsets:
            if kind == "ptr":
                out.append(base + value)
            else:
                out.append(value & MASK32)
        return tuple(out)


@dataclass(frozen=True)
class Workload:
    name: str
    description: str
    build: object               # () -> Function
    reference: object           # (bytes, *raw_args) -> int (raw args use base=0)
    make_input: object          # (rng, scale) -> WorkloadInput


# ----------------------------------------------------------------------
# ttsprk - tooth to spark
# ----------------------------------------------------------------------

def build_ttsprk() -> Function:
    """Tooth-to-spark: average tooth period -> engine speed -> clamped
    spark advance, then a per-tooth dwell accumulation.

    One revolution needs one speed computation (two divides total), with
    the per-tooth work being multiply/shift - the realistic division
    density for this function.
    """
    b = IrBuilder("ttsprk", num_params=3)
    periods, count, rpm_scale = b.params
    total = b.const(0, "total")
    walker = b.mov(periods, name="walker")
    remaining = b.mov(count, name="remaining")
    b.label("sumloop")
    period = b.load(walker, 0, size=2, name="period")
    b.assign(total, b.add(total, period))
    b.assign(walker, b.add(walker, 2))
    b.assign(remaining, b.sub(remaining, 1))
    b.brcond("ne", remaining, 0, "sumloop")
    avg = b.udiv(total, count, name="avg")
    b.brcond("eq", avg, 0, "stopped")
    speed = b.udiv(rpm_scale, avg, name="speed")
    adv = b.add(b.lsr(speed, 2), 8, name="adv")
    adv = b.select("hi", adv, 59, 59, adv)
    acc = b.const(0, "acc")
    b.label("dwell")
    tooth = b.load(periods, 0, size=2, name="tooth")
    b.assign(acc, b.add(acc, b.lsr(b.mul(tooth, adv), 8)))
    b.assign(periods, b.add(periods, 2))
    b.assign(count, b.sub(count, 1))
    b.brcond("ne", count, 0, "dwell")
    b.ret(b.add(acc, adv))
    b.label("stopped")
    b.ret(b.const(0))
    return b.build()


def ttsprk_reference(data: bytes, periods_off: int, count: int, rpm_scale: int) -> int:
    periods = [
        int.from_bytes(data[periods_off + 2 * i:periods_off + 2 * i + 2], "little")
        for i in range(count)
    ]
    avg = sum(periods) // count
    if avg == 0:
        return 0
    adv = min((rpm_scale // avg) // 4 + 8, 59)
    acc = 0
    for period in periods:
        acc = (acc + ((period * adv) >> 8)) & MASK32
    return (acc + adv) & MASK32


def make_ttsprk_input(rng, scale: int = 1) -> WorkloadInput:
    count = 32 * scale
    periods = [rng.randint(0, 2000) if rng.random() > 0.05 else 0 for _ in range(count)]
    data = b"".join(p.to_bytes(2, "little") for p in periods)
    return WorkloadInput(data=data,
                         arg_offsets=(("ptr", 0), ("val", count), ("val", 480_000)))


# ----------------------------------------------------------------------
# tblook - table lookup and interpolation
# ----------------------------------------------------------------------

_TBLOOK_POINTS = 16  # x table then y table, each 16 x i16


def build_tblook() -> Function:
    """Linear interpolation in a sorted signed table (x[16] then y[16])."""
    b = IrBuilder("tblook", num_params=2)
    table, x = b.params
    i = b.const(0, "i")
    limit = b.const(_TBLOOK_POINTS - 2, "limit")
    b.label("scan")
    b.brcond("hs", i, limit, "found")
    nxt = b.load_idx(table, b.add(i, 1), shift=1, size=-2, name="nxt")
    b.brcond("gt", nxt, x, "found")
    b.assign(i, b.add(i, 1))
    b.br("scan")
    b.label("found")
    addr = b.add(table, b.lsl(i, 1), name="addr")
    x0 = b.load(addr, 0, size=-2, name="x0")
    x1 = b.load(addr, 2, size=-2, name="x1")
    y0 = b.load(addr, 2 * _TBLOOK_POINTS, size=-2, name="y0")
    y1 = b.load(addr, 2 * _TBLOOK_POINTS + 2, size=-2, name="y1")
    dy = b.sub(y1, y0, name="dy")
    dx = b.sub(x1, x0, name="dx")
    num = b.mul(b.sub(x, x0), dy, name="num")
    y = b.add(y0, b.sdiv(num, dx))
    b.ret(b.uxth(y))
    return b.build()


def tblook_reference(data: bytes, table_off: int, x: int) -> int:
    def s16(off):
        v = int.from_bytes(data[off:off + 2], "little")
        return v - 0x10000 if v & 0x8000 else v

    xs = [s16(table_off + 2 * k) for k in range(_TBLOOK_POINTS)]
    ys = [s16(table_off + 2 * (_TBLOOK_POINTS + k)) for k in range(_TBLOOK_POINTS)]
    x = x - 0x1_0000_0000 if x & 0x8000_0000 else x
    i = 0
    while i < _TBLOOK_POINTS - 2 and xs[i + 1] <= x:
        i += 1
    dy = ys[i + 1] - ys[i]
    dx = xs[i + 1] - xs[i]
    num = (x - xs[i]) * dy
    # C-style truncated division (matches SDIV)
    q = abs(num) // abs(dx)
    if (num < 0) != (dx < 0):
        q = -q
    return (ys[i] + q) & 0xFFFF


def make_tblook_input(rng, scale: int = 1) -> WorkloadInput:
    xs = sorted(rng.randint(-2000, 2000) for _ in range(_TBLOOK_POINTS))
    # enforce strictly increasing x so dx is never zero
    for k in range(1, _TBLOOK_POINTS):
        if xs[k] <= xs[k - 1]:
            xs[k] = xs[k - 1] + 1
    ys = [rng.randint(-3000, 3000) for _ in range(_TBLOOK_POINTS)]
    blob = b"".join((v & 0xFFFF).to_bytes(2, "little") for v in xs + ys)
    query = rng.randint(xs[0], xs[-1])
    return WorkloadInput(data=blob, arg_offsets=(("ptr", 0), ("val", query & MASK32)))


# ----------------------------------------------------------------------
# canrdr - CAN remote data request (message shuffle + checksum)
# ----------------------------------------------------------------------

def build_canrdr() -> Function:
    """Per 8-byte frame: checksum = ror(checksum,3) ^ w0 ^ rev(w1), stored out.

    Walks the frame and output pointers instead of indexing to stay inside
    the 16-bit Thumb low-register budget - exactly the register-pressure
    discipline real Thumb compilers apply.
    """
    b = IrBuilder("canrdr", num_params=3)
    frames, count, out = b.params
    checksum = b.const(0, "checksum")
    b.label("frame")
    w0 = b.load(frames, 0, name="w0")
    w1 = b.load(frames, 4, name="w1")
    rotated = b.ror(checksum, 3)
    mixed = b.eor(rotated, w0)
    b.assign(checksum, b.eor(mixed, b.rev(w1)))
    b.store(checksum, out, 0)
    b.assign(frames, b.add(frames, 8))
    b.assign(out, b.add(out, 4))
    b.assign(count, b.sub(count, 1))
    b.brcond("ne", count, 0, "frame")
    b.ret(checksum)
    return b.build()


def canrdr_reference(data: bytes, frames_off: int, count: int, out_off: int) -> int:
    checksum = 0
    for i in range(count):
        off = frames_off + 8 * i
        w0 = int.from_bytes(data[off:off + 4], "little")
        w1 = int.from_bytes(data[off + 4:off + 8], "little")
        rotated = ((checksum >> 3) | (checksum << 29)) & MASK32
        rev = int.from_bytes(w1.to_bytes(4, "little"), "big")
        checksum = rotated ^ w0 ^ rev
    return checksum


def make_canrdr_input(rng, scale: int = 1) -> WorkloadInput:
    count = 16 * scale
    data = bytes(rng.randint(0, 255) for _ in range(8 * count))
    out_offset = len(data)
    blob = data + bytes(4 * count)
    return WorkloadInput(data=blob,
                         arg_offsets=(("ptr", 0), ("val", count), ("ptr", out_offset)))


# ----------------------------------------------------------------------
# bitmnp - bit manipulation
# ----------------------------------------------------------------------

def build_bitmnp() -> Function:
    """Per word: mix leading zeros, trailing zeros (via RBIT), and a field."""
    b = IrBuilder("bitmnp", num_params=2)
    words, count = b.params
    acc = b.const(0, "acc")
    i = b.const(0, "i")
    b.label("word")
    w = b.load_idx(words, i, shift=2, name="w")
    lead = b.clz(w, name="lead")
    trail = b.clz(b.rbit(w), name="trail")
    field = b.ubfx(w, 8, 12, name="field")
    mixed = b.add(b.lsl(lead, 6), trail)
    b.assign(acc, b.eor(b.add(acc, mixed), field))
    b.assign(i, b.add(i, 1))
    b.brcond("lo", i, count, "word")
    b.ret(acc)
    return b.build()


def bitmnp_reference(data: bytes, words_off: int, count: int) -> int:
    acc = 0
    for i in range(count):
        w = int.from_bytes(data[words_off + 4 * i:words_off + 4 * i + 4], "little")
        lead = 32 - w.bit_length()
        rbit = int(f"{w:032b}"[::-1], 2)
        trail = 32 - rbit.bit_length()
        field = (w >> 8) & 0xFFF
        acc = ((acc + ((lead << 6) + trail)) ^ field) & MASK32
    return acc


def make_bitmnp_input(rng, scale: int = 1) -> WorkloadInput:
    count = 24 * scale
    words = [rng.randint(0, MASK32) for _ in range(count)]
    blob = b"".join(w.to_bytes(4, "little") for w in words)
    return WorkloadInput(data=blob, arg_offsets=(("ptr", 0), ("val", count)))


# ----------------------------------------------------------------------
# rspeed - road speed calculation
# ----------------------------------------------------------------------

def build_rspeed() -> Function:
    """Average wheel-pulse interval (16-bit wraparound), then km/h-ish scale."""
    b = IrBuilder("rspeed", num_params=2)
    stamps, count = b.params
    total = b.const(0, "total")
    prev = b.load(stamps, 0, size=2, name="prev")
    i = b.const(1, "i")
    b.label("pulse")
    cur = b.load_idx(stamps, i, shift=1, size=2, name="cur")
    delta = b.uxth(b.sub(cur, prev))
    b.assign(total, b.add(total, delta))
    b.assign(prev, cur)
    b.assign(i, b.add(i, 1))
    b.brcond("lo", i, count, "pulse")
    avg = b.udiv(total, b.sub(count, 1), name="avg")
    b.brcond("eq", avg, 0, "stopped")
    speed = b.udiv(b.const(3_600_000), avg, name="speed")
    speed = b.select("hi", speed, 255, 255, speed)
    b.ret(speed)
    b.label("stopped")
    b.ret(b.const(0))
    return b.build()


def rspeed_reference(data: bytes, stamps_off: int, count: int) -> int:
    stamps = [int.from_bytes(data[stamps_off + 2 * k:stamps_off + 2 * k + 2], "little")
              for k in range(count)]
    total = sum((stamps[k] - stamps[k - 1]) & 0xFFFF for k in range(1, count))
    avg = total // (count - 1)
    if avg == 0:
        return 0
    return min(3_600_000 // avg, 255)


def make_rspeed_input(rng, scale: int = 1) -> WorkloadInput:
    count = 32 * scale
    stamp = rng.randint(0, 0xFFFF)
    stamps = []
    for _ in range(count):
        stamps.append(stamp & 0xFFFF)
        stamp += rng.randint(15_000, 40_000)  # exercises 16-bit wraparound
    blob = b"".join(s.to_bytes(2, "little") for s in stamps)
    return WorkloadInput(data=blob, arg_offsets=(("ptr", 0), ("val", count)))


# ----------------------------------------------------------------------
# puwmod - pulse width modulation
# ----------------------------------------------------------------------

def build_puwmod() -> Function:
    """Per channel: decode a 2-bit mode and compute the PWM compare value."""
    b = IrBuilder("puwmod", num_params=3)
    duties, count, period = b.params
    acc = b.const(0, "acc")
    b.label("chan")
    duty = b.load(duties, 0, size=1, name="duty")
    mode = b.lsr(duty, 6, name="mode")
    b.switch(mode, ["off", "fwd", "rvs"])
    # mode 3: fully on
    width = b.mov(period, name="width")
    b.br("emit")
    b.label("off")
    b.assign(width, 0)
    b.br("emit")
    b.label("fwd")
    scaled = b.mul(period, b.and_(duty, 0x3F))
    b.assign(width, b.lsr(scaled, 6))
    b.br("emit")
    b.label("rvs")
    scaled2 = b.mul(period, b.and_(duty, 0x3F))
    b.assign(width, b.sub(period, b.lsr(scaled2, 6)))
    b.label("emit")
    b.store(width, duties, 0, size=1)
    b.assign(acc, b.add(b.ror(acc, 5), width))
    b.assign(duties, b.add(duties, 1))
    b.assign(count, b.sub(count, 1))
    b.brcond("ne", count, 0, "chan")
    b.ret(acc)
    return b.build()


def puwmod_reference(data: bytes, duties_off: int, count: int, period: int) -> int:
    scratch = bytearray(data)
    acc = 0
    for i in range(count):
        duty = scratch[duties_off + i]
        mode = duty >> 6
        if mode == 0:
            width = 0
        elif mode == 1:
            width = (period * (duty & 0x3F)) >> 6
        elif mode == 2:
            width = period - ((period * (duty & 0x3F)) >> 6)
        else:
            width = period
        scratch[duties_off + i] = width & 0xFF
        acc = ((((acc >> 5) | (acc << 27)) & MASK32) + width) & MASK32
    return acc


def make_puwmod_input(rng, scale: int = 1) -> WorkloadInput:
    count = 48 * scale
    blob = bytes(rng.randint(0, 255) for _ in range(count))
    return WorkloadInput(data=blob,
                         arg_offsets=(("ptr", 0), ("val", count), ("val", 200)))


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

AUTOINDY_SUITE: tuple[Workload, ...] = (
    Workload("ttsprk", "tooth-to-spark ignition timing",
             build_ttsprk, ttsprk_reference, make_ttsprk_input),
    Workload("tblook", "table lookup and interpolation",
             build_tblook, tblook_reference, make_tblook_input),
    Workload("canrdr", "CAN remote data request processing",
             build_canrdr, canrdr_reference, make_canrdr_input),
    Workload("bitmnp", "bit manipulation",
             build_bitmnp, bitmnp_reference, make_bitmnp_input),
    Workload("rspeed", "road speed calculation",
             build_rspeed, rspeed_reference, make_rspeed_input),
    Workload("puwmod", "pulse-width modulation",
             build_puwmod, puwmod_reference, make_puwmod_input),
)

WORKLOADS_BY_NAME = {w.name: w for w in AUTOINDY_SUITE}
