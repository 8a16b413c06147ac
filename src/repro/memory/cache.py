"""Set-associative cache with parity-protected data and tag arrays.

Models the ARM1156T2F-S fault-tolerant cache behaviour (paper section
3.1.3): every stored word carries a parity bit computed at fill time.  A
soft error flips a stored bit *without* updating parity, so the next read
detects the mismatch and the cache recovers by invalidating the line and
refetching from the backing store (write-through keeps the backing store
current).  A tag-array error is detected the same way and simply forces a
miss.  With ``fault_tolerant=False`` the corrupted data is returned
silently - the unprotected baseline of experiment E7.

The clean invariant: fills compute parity from the data they bring in
and writes recompute it for the words they store, so parity can disagree
with a valid line only after a flip lands there (:meth:`Cache.flip_data_bit`
and :meth:`Cache.flip_tag_bit`, the only setters of ``flipped``).  While
the cache is clean, accesses find their line with a plain tag scan and
skip the screening and verification that could not fire; once flipped,
every access verifies.  :meth:`Cache.invalidate_all` leaves no valid
line, so it makes the cache clean again.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def parity32(value: int) -> int:
    """Even-parity bit of a 32-bit word."""
    value ^= value >> 16
    value ^= value >> 8
    value ^= value >> 4
    value ^= value >> 2
    value ^= value >> 1
    return value & 1


@dataclass
class CacheLine:
    valid: bool = False
    tag: int = 0
    data: bytearray = field(default_factory=bytearray)
    word_parity: list[int] = field(default_factory=list)
    tag_parity: int = 0
    lru: int = 0


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    fills: int = 0
    parity_errors: int = 0
    tag_errors: int = 0
    recoveries: int = 0
    silent_corruptions: int = 0  # only counted when fault_tolerant=False

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ParityError(Exception):
    """Unrecoverable cache data error (dirty line in a write-back cache)."""


class Cache:
    """Read-allocate, write-through cache in front of a backing store.

    ``backing`` must provide ``read(addr, size, side)`` and
    ``write(addr, size, value, side)`` returning stall counts - either a
    :class:`~repro.memory.bus.SystemBus` or a single device.
    """

    def __init__(self, backing, sets: int = 64, ways: int = 4,
                 line_bytes: int = 32, fill_penalty: int = 1,
                 fault_tolerant: bool = True) -> None:
        if sets & (sets - 1) or line_bytes & (line_bytes - 1):
            raise ValueError("sets and line_bytes must be powers of two")
        self.backing = backing
        self.sets = sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.fill_penalty = fill_penalty
        self.fault_tolerant = fault_tolerant
        self.enabled = True
        #: a soft error has landed in a valid line since the last
        #: invalidate_all(): accesses screen tags and verify parity
        self.flipped = False
        self.stats = CacheStats()
        self._lines = [[CacheLine() for _ in range(ways)] for _ in range(sets)]
        self._lru_clock = 0

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        return self.sets * self.ways * self.line_bytes

    @property
    def worst_stall(self) -> int:
        """Declared timing contract for one cache access.

        A straddling access splits into two sub-reads; each costs at most
        one line fill (either a miss, or a hit whose parity recovery
        invalidates and refetches the line).  A fill pays ``fill_penalty``
        plus, per beat, one bus cycle and the backing store's own worst
        stall - asked for, not guessed, via the same declared protocol.
        """
        backing = getattr(self.backing, "worst_stall", 0)
        fill = self.fill_penalty + (self.line_bytes // 4) * (backing + 1)
        return 2 * fill

    def _split(self, addr: int) -> tuple[int, int, int]:
        offset = addr & (self.line_bytes - 1)
        set_index = (addr // self.line_bytes) % self.sets
        tag = addr // (self.line_bytes * self.sets)
        return tag, set_index, offset

    def _line_base(self, tag: int, set_index: int) -> int:
        return (tag * self.sets + set_index) * self.line_bytes

    def lines_spanned(self, addr: int, nbytes: int) -> int:
        """How many cache lines a transfer touches (E6 uses this)."""
        first = addr // self.line_bytes
        last = (addr + nbytes - 1) // self.line_bytes
        return last - first + 1

    def lookup_plan(self, addr: int, size: int):
        """Fuse-time geometry for one constant-address access.

        Returns ``(tag, set_index, offset, ways)`` - everything the
        superblock fuser needs to emit the clean path of this cache's
        :meth:`read` as raw statements (``ways`` is the live per-set line
        list, stable for the cache's lifetime; ``self.stats`` is likewise a
        stable binding for the emitted hit/miss counters).  Returns
        ``None`` when the access straddles a line boundary - the
        split/recurse path stays a real :meth:`read` call.
        """
        tag, set_index, offset = self._split(addr)
        if offset + size > self.line_bytes:
            return None
        return tag, set_index, offset, self._lines[set_index]

    # ------------------------------------------------------------------
    # lookup / fill
    # ------------------------------------------------------------------
    def _find(self, tag: int, set_index: int) -> CacheLine | None:
        """The valid line holding ``tag``: a plain tag scan while the cache
        is clean, the screening :meth:`_lookup` once a flip has landed."""
        if self.flipped:
            return self._lookup(tag, set_index)
        for line in self._lines[set_index]:
            if line.valid and line.tag == tag:
                return line
        return None

    def _lookup(self, tag: int, set_index: int) -> CacheLine | None:
        for line in self._lines[set_index]:
            if not line.valid:
                continue
            if parity32(line.tag) != line.tag_parity:
                # TAG array soft error: detected during lookup; the line is
                # invalidated so the access (and any aliased one) misses
                self.stats.tag_errors += 1
                line.valid = False
                continue
            if line.tag == tag:
                return line
        return None

    def _victim(self, set_index: int) -> CacheLine:
        ways = self._lines[set_index]
        for line in ways:
            if not line.valid:
                return line
        return min(ways, key=lambda l: l.lru)

    def _fill(self, tag: int, set_index: int, side: str) -> tuple[CacheLine, int]:
        line = self._victim(set_index)
        base = self._line_base(tag, set_index)
        data = bytearray()
        stalls = self.fill_penalty
        for word_addr in range(base, base + self.line_bytes, 4):
            value, word_stalls = self.backing.read(word_addr, 4, side)
            stalls += word_stalls + 1  # one bus cycle per beat
            data += value.to_bytes(4, "little")
        line.valid = True
        line.tag = tag
        line.data = data
        line.word_parity = [
            parity32(int.from_bytes(data[i:i + 4], "little"))
            for i in range(0, self.line_bytes, 4)
        ]
        line.tag_parity = parity32(tag)
        self.stats.fills += 1
        return line, stalls

    def _touch(self, line: CacheLine) -> None:
        self._lru_clock += 1
        line.lru = self._lru_clock

    def _check_parity(self, line: CacheLine, offset: int, size: int,
                      tag: int, set_index: int, side: str) -> int:
        """Verify parity of the words covering [offset, offset+size).

        Returns extra stalls spent on recovery.  With protection off,
        mismatches are counted but returned data stays corrupt.
        """
        first_word = offset // 4
        last_word = (offset + size - 1) // 4
        for word_index in range(first_word, last_word + 1):
            word = int.from_bytes(line.data[word_index * 4:word_index * 4 + 4], "little")
            if parity32(word) == line.word_parity[word_index]:
                continue
            self.stats.parity_errors += 1
            if not self.fault_tolerant:
                self.stats.silent_corruptions += 1
                return 0
            # invalidate and refetch the whole line (write-through: memory
            # is current, so recovery is always possible without an abort)
            line.valid = False
            _, stalls = self._fill(tag, set_index, side)
            self.stats.recoveries += 1
            return stalls
        return 0

    # ------------------------------------------------------------------
    # device interface
    # ------------------------------------------------------------------
    def read(self, addr: int, size: int, side: str = "D") -> tuple[int, int]:
        if not self.enabled:
            return self.backing.read(addr, size, side)
        tag, set_index, offset = self._split(addr)
        if offset + size > self.line_bytes:
            # split the straddling access at the line boundary
            first = self.line_bytes - offset
            low, stalls_a = self.read(addr, first, side)
            high, stalls_b = self.read(addr + first, size - first, side)
            return low | (high << (8 * first)), stalls_a + stalls_b
        line = self._find(tag, set_index)
        stalls = 0
        if line is None:
            self.stats.misses += 1
            line, stalls = self._fill(tag, set_index, side)
        else:
            self.stats.hits += 1
        if self.flipped:
            stalls += self._check_parity(line, offset, size, tag, set_index, side)
        self._touch(line)
        value = int.from_bytes(line.data[offset:offset + size], "little")
        return value, stalls

    def write(self, addr: int, size: int, value: int, side: str = "D") -> int:
        # write-through, no write-allocate
        stalls = self.backing.write(addr, size, value, side)
        if self.enabled:
            self._update(addr, size, value & ((1 << (8 * size)) - 1))
        return stalls

    def _update(self, addr: int, size: int, value: int) -> None:
        """Refresh a stored value in the cached copy, where cached: data,
        word parity and LRU of each line, split at the line boundary as
        :meth:`read` splits, in address order."""
        tag, set_index, offset = self._split(addr)
        if offset + size > self.line_bytes:
            first = self.line_bytes - offset
            self._update(addr, first, value & ((1 << (8 * first)) - 1))
            self._update(addr + first, size - first, value >> (8 * first))
            return
        line = self._find(tag, set_index)
        if line is None:
            return
        line.data[offset:offset + size] = value.to_bytes(size, "little")
        first_word = offset // 4
        last_word = (offset + size - 1) // 4
        for word_index in range(first_word, last_word + 1):
            word = int.from_bytes(line.data[word_index * 4:word_index * 4 + 4], "little")
            line.word_parity[word_index] = parity32(word)
        self._touch(line)

    # ------------------------------------------------------------------
    # maintenance and fault injection
    # ------------------------------------------------------------------
    def invalidate_all(self) -> None:
        for ways in self._lines:
            for line in ways:
                line.valid = False
        self.flipped = False  # no valid line survives: clean again

    def warm(self, addr: int, nbytes: int, side: str = "D") -> None:
        """Prefetch a range so subsequent reads hit (test/bench setup)."""
        for a in range(addr & ~(self.line_bytes - 1), addr + nbytes, self.line_bytes):
            self.read(a, 4, side)

    def snapshot(self) -> tuple:
        """Immutable copy of everything the cache holds (for test
        assertions): statistics, LRU clock, ``flipped`` and every line
        (valid, tag, data, word and tag parity, LRU stamp)."""
        return (tuple(sorted(vars(self.stats).items())), self._lru_clock,
                self.flipped,
                tuple((line.valid, line.tag, bytes(line.data),
                       tuple(line.word_parity), line.tag_parity, line.lru)
                      for ways in self._lines for line in ways))

    def valid_lines(self) -> list[tuple[int, int]]:
        """(set_index, way) of every valid line."""
        return [
            (s, w)
            for s in range(self.sets)
            for w in range(self.ways)
            if self._lines[s][w].valid
        ]

    def bit_capacity(self) -> int:
        """Total data bits currently held in valid lines (for fault models)."""
        return len(self.valid_lines()) * self.line_bytes * 8

    def flip_data_bit(self, set_index: int, way: int, bit: int) -> None:
        """Soft error: flip one stored data bit without fixing parity."""
        line = self._lines[set_index][way]
        if not line.valid:
            return
        byte_index, bit_index = divmod(bit, 8)
        line.data[byte_index % self.line_bytes] ^= 1 << bit_index
        self.flipped = True

    def flip_tag_bit(self, set_index: int, way: int, bit: int) -> None:
        """Soft error in the TAG array."""
        line = self._lines[set_index][way]
        if not line.valid:
            return
        line.tag ^= 1 << (bit % 20)
        self.flipped = True

    def flip_random_bit(self, rng, target: str = "data") -> bool:
        """Flip a random bit in a random valid line; False if cache empty."""
        lines = self.valid_lines()
        if not lines:
            return False
        set_index, way = rng.choice(lines)
        if target == "tag":
            self.flip_tag_bit(set_index, way, rng.bit_position(20))
        else:
            self.flip_data_bit(set_index, way, rng.bit_position(self.line_bytes * 8))
        return True
