"""System bus: address decoding, wait-state accounting, access faults.

The bus connects CPU ports to memory devices.  Every access returns the
number of *stall* cycles the device imposed beyond the single bus cycle the
core already charges, so core cycle models simply add the returned stalls.
"""

from __future__ import annotations

import mmap
from bisect import bisect_right
from dataclasses import dataclass
from typing import Protocol


class BusFault(Exception):
    """Access to an unmapped address or a device-rejected access."""

    def __init__(self, address: int, reason: str = "unmapped") -> None:
        super().__init__(f"bus fault at {address:#010x}: {reason}")
        self.address = address
        self.reason = reason


class MemoryDevice(Protocol):
    """What the bus needs from a memory-mapped device.

    ``worst_stall`` is the device's *declared* timing contract: an upper
    bound on the stall cycles any single access (at most one bus word)
    can return.  The per-block cycle caps that bound speculative
    superblock execution are summed from these declarations, so a device
    that can stall MUST declare; a device without the attribute is taken
    as stall-free (the MMIO default).
    """

    base: int
    size: int
    worst_stall: int

    def read(self, addr: int, size: int, side: str) -> tuple[int, int]: ...
    def write(self, addr: int, size: int, value: int, side: str) -> tuple[None, int] | int: ...


@dataclass
class AccessRecord:
    """One bus transaction, for traces and tests."""

    addr: int
    size: int
    kind: str   # 'R' or 'W'
    side: str   # 'I' or 'D'
    stalls: int


#: never-matching span sentinel for the last-hit device caches
_NO_SPAN = (1, 0, None)


class SystemBus:
    """Decodes addresses to devices and accumulates stall statistics.

    Address decode is a bisect over the (sorted, non-overlapping) device
    bases, fronted by two last-hit caches - one for the data side, one for
    the instruction-fetch side, so the ARM7-style I/D interleave on a
    shared port does not thrash a single slot.  Sequential access patterns
    (the overwhelmingly common case: code streaming from flash, data
    walking SRAM) therefore resolve with one tuple compare instead of a
    linear scan per access.
    """

    def __init__(self, record: bool = False) -> None:
        self._devices: list = []
        self._bases: list[int] = []
        self._span_d: tuple = _NO_SPAN   # (lo, hi, device) last data hit
        self._span_i: tuple = _NO_SPAN   # (lo, hi, device) last fetch hit
        self.record = record
        self.accesses: list[AccessRecord] = []
        self.total_stalls = 0
        self.reads = 0
        self.writes = 0

    def attach(self, device) -> None:
        """Add a device; regions must not overlap.  Keeps ``_devices``
        sorted by base address so lookups can bisect."""
        for existing in self._devices:
            if not (device.base + device.size <= existing.base
                    or existing.base + existing.size <= device.base):
                raise ValueError(
                    f"device at {device.base:#x} overlaps one at {existing.base:#x}")
        self._devices.append(device)
        self._devices.sort(key=lambda d: d.base)
        self._bases = [d.base for d in self._devices]
        self._span_d = self._span_i = _NO_SPAN

    @property
    def worst_stall(self) -> int:
        """Worst per-access stall any attached device declares.

        The aggregate of the device-declared ``worst_stall`` contract
        (see :class:`MemoryDevice`): core cycle-cap computations ask the
        bus once instead of guessing.  Devices without a declaration are
        assumed stall-free - every stalling device in the tree declares.
        """
        return max((getattr(device, "worst_stall", 0)
                    for device in self._devices), default=0)

    def _lookup(self, addr: int):
        """Bisect the sorted device list; None when unmapped."""
        index = bisect_right(self._bases, addr) - 1
        if index >= 0:
            device = self._devices[index]
            if addr < device.base + device.size:
                return device
        return None

    def device_at(self, addr: int):
        span = self._span_d
        if span[0] <= addr < span[1]:
            return span[2]
        device = self._lookup(addr)
        if device is not None:
            self._span_d = (device.base, device.base + device.size, device)
        return device

    def read(self, addr: int, size: int, side: str = "D") -> tuple[int, int]:
        """Read ``size`` bytes; returns (value, stall_cycles)."""
        span = self._span_d
        if span[0] <= addr < span[1]:
            device = span[2]
        else:
            device = self._lookup(addr)
            if device is None:
                raise BusFault(addr)
            self._span_d = (device.base, device.base + device.size, device)
        value, stalls = device.read(addr, size, side)
        self.reads += 1
        self.total_stalls += stalls
        if self.record:
            self.accesses.append(AccessRecord(addr, size, "R", side, stalls))
        return value, stalls

    def fetch_stalls(self, addr: int, size: int) -> int:
        """Instruction-side fetch: timing only, value discarded.

        Bookkeeping (read counters, stall totals, access records) matches
        :meth:`read` exactly, so fast-path and reference execution leave
        identical bus statistics behind.
        """
        span = self._span_i
        if span[0] <= addr < span[1]:
            fetch = span[2]
        else:
            device = self._lookup(addr)
            if device is None:
                raise BusFault(addr)
            fetch = getattr(device, "fetch_stalls", None)
            if fetch is None:
                def fetch(addr, size, _read=device.read):
                    return _read(addr, size, "I")[1]
            self._span_i = (device.base, device.base + device.size, fetch)
        stalls = fetch(addr, size)
        self.reads += 1
        self.total_stalls += stalls
        if self.record:
            self.accesses.append(AccessRecord(addr, size, "R", "I", stalls))
        return stalls

    def write(self, addr: int, size: int, value: int, side: str = "D") -> int:
        """Write ``size`` bytes; returns stall_cycles."""
        span = self._span_d
        if span[0] <= addr < span[1]:
            device = span[2]
        else:
            device = self._lookup(addr)
            if device is None:
                raise BusFault(addr)
            self._span_d = (device.base, device.base + device.size, device)
        stalls = device.write(addr, size, value, side)
        self.writes += 1
        self.total_stalls += stalls
        if self.record:
            self.accesses.append(AccessRecord(addr, size, "W", side, stalls))
        return stalls

    def fetch_thunk(self, addr: int, size: int):
        """A zero-argument fetch closure prebound to the device at ``addr``.

        The execution engines predecode instruction addresses once, so the
        device decode for an instruction fetch can be done at bind time
        instead of per execution; the returned thunk performs the fetch
        with statistics accounting **identical** to :meth:`fetch_stalls`
        (read counter, stall total, access record).  Returns ``None`` when
        ``[addr, addr+size)`` is not wholly inside one mapped device - the
        caller then falls back to the per-access decode path.
        """
        device = self._lookup(addr)
        if device is None or addr + size > device.base + device.size:
            return None
        fetch = getattr(device, "fetch_stalls", None)
        if fetch is None:
            def fetch(a, s, _read=device.read):
                return _read(a, s, "I")[1]
        def thunk(bus=self, addr=addr, size=size, fetch=fetch):
            stalls = fetch(addr, size)
            bus.reads += 1
            bus.total_stalls += stalls
            if bus.record:
                bus.accesses.append(AccessRecord(addr, size, "R", "I", stalls))
            return stalls
        return thunk

    # ------------------------------------------------------------------
    # debug/loader access (no timing, no recording)
    # ------------------------------------------------------------------
    def load_image(self, addr: int, image: bytes) -> None:
        offset = 0
        while offset < len(image):
            device = self.device_at(addr + offset)
            if device is None:
                raise BusFault(addr + offset, "load outside mapped memory")
            chunk = min(len(image) - offset, device.base + device.size - (addr + offset))
            device.write_raw(addr + offset, image[offset:offset + chunk])
            offset += chunk

    def read_raw(self, addr: int, size: int) -> int:
        device = self.device_at(addr)
        if device is None:
            raise BusFault(addr)
        return int.from_bytes(device.read_raw(addr, size), "little")


class RamBackedDevice:
    """Common base for byte-buffer-backed devices (flash, SRAM, TCM).

    ``data`` is a private anonymous memory map, zero-filled like a
    ``bytearray`` and indexed, sliced (a slice reads as ``bytes``) and
    assigned the same way, but the host commits only the pages a guest
    touches: a 1 MiB flash holding a 1 KiB image costs one page.  Every
    machine of a campaign allocates its memories afresh, and finished
    machines wait in reference cycles for the garbage collector, so that
    is the difference between megabytes and a page or two each.  Unlike a
    ``bytearray``, the map compares by identity and cannot be pickled.
    """

    def __init__(self, base: int, size: int) -> None:
        if size <= 0:
            raise ValueError("device size must be positive")
        self.base = base
        self.size = size
        self.data = mmap.mmap(-1, size, access=mmap.ACCESS_COPY)

    def _offset(self, addr: int, size: int) -> int:
        offset = addr - self.base
        if not 0 <= offset <= self.size - size:
            raise BusFault(addr, "access beyond device")
        return offset

    def read_raw(self, addr: int, size: int) -> bytes:
        offset = self._offset(addr, size)
        return bytes(self.data[offset:offset + size])

    def write_raw(self, addr: int, payload: bytes) -> None:
        offset = self._offset(addr, len(payload))
        self.data[offset:offset + len(payload)] = payload

    def _get(self, addr: int, size: int) -> int:
        offset = self._offset(addr, size)
        return int.from_bytes(self.data[offset:offset + size], "little")

    def _set(self, addr: int, size: int, value: int) -> None:
        offset = self._offset(addr, size)
        self.data[offset:offset + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
