"""Tests for the parity-protected cache."""

import pytest

from repro.core import FLASH_BASE, build_arm1156
from repro.isa import ISA_THUMB2, assemble
from repro.memory import Cache, Sram, parity32
from repro.sim import DeterministicRng


def make_cache(fault_tolerant=True, sets=4, ways=2, line_bytes=16):
    ram = Sram(base=0, size=0x10000, wait_states=1)
    cache = Cache(ram, sets=sets, ways=ways, line_bytes=line_bytes,
                  fill_penalty=1, fault_tolerant=fault_tolerant)
    return cache, ram


def test_parity32():
    assert parity32(0) == 0
    assert parity32(1) == 1
    assert parity32(0b11) == 0
    assert parity32(0xFFFFFFFF) == 0
    assert parity32(0x80000001) == 0


def test_miss_then_hit():
    cache, ram = make_cache()
    ram.write_raw(0x100, (0xCAFEBABE).to_bytes(4, "little"))
    value, miss_stalls = cache.read(0x100, 4)
    assert value == 0xCAFEBABE
    assert cache.stats.misses == 1
    value, hit_stalls = cache.read(0x100, 4)
    assert value == 0xCAFEBABE
    assert cache.stats.hits == 1
    assert hit_stalls == 0
    assert miss_stalls > hit_stalls


def test_fill_cost_scales_with_line_size():
    small, _ = make_cache(line_bytes=16)
    large, _ = make_cache(line_bytes=32)
    _, stalls_small = small.read(0, 4)
    _, stalls_large = large.read(0, 4)
    assert stalls_large > stalls_small


def test_write_through_updates_backing():
    cache, ram = make_cache()
    cache.read(0x200, 4)           # allocate line
    cache.write(0x200, 4, 0x1234)
    assert int.from_bytes(ram.read_raw(0x200, 4), "little") == 0x1234
    value, _ = cache.read(0x200, 4)
    assert value == 0x1234


def test_write_no_allocate():
    cache, _ = make_cache()
    cache.write(0x300, 4, 7)
    assert cache.stats.fills == 0


def test_eviction_lru():
    cache, ram = make_cache(sets=1, ways=2, line_bytes=16)
    # three distinct lines mapping to the same set
    for i, addr in enumerate((0x000, 0x010, 0x020)):
        ram.write_raw(addr, bytes([i] * 4))
        cache.read(addr, 4)
    assert cache.stats.fills == 3
    # 0x000 was least recently used and must have been evicted
    cache.read(0x010, 4)
    assert cache.stats.hits == 1
    cache.read(0x000, 4)
    assert cache.stats.misses == 4


def test_lines_spanned():
    cache, _ = make_cache(line_bytes=32)
    assert cache.lines_spanned(0, 4) == 1
    assert cache.lines_spanned(0, 40) == 2
    assert cache.lines_spanned(28, 40) == 3  # the paper's 10-word LDM case


def test_unaligned_straddle_read():
    cache, ram = make_cache(line_bytes=16)
    ram.write_raw(0x0E, (0xA5A5F00F).to_bytes(4, "little"))
    value, _ = cache.read(0x0E, 4)
    assert value == 0xA5A5F00F


def test_parity_error_detected_and_recovered():
    cache, ram = make_cache(fault_tolerant=True)
    ram.write_raw(0x400, (0x12345678).to_bytes(4, "little"))
    cache.read(0x400, 4)
    lines = cache.valid_lines()
    assert lines
    set_index, way = lines[0]
    cache.flip_data_bit(set_index, way, 5)
    value, stalls = cache.read(0x400, 4)
    assert value == 0x12345678          # recovered from backing store
    assert cache.stats.parity_errors == 1
    assert cache.stats.recoveries == 1
    assert stalls > 0                   # recovery refill costs cycles


def test_parity_error_silent_without_protection():
    cache, ram = make_cache(fault_tolerant=False)
    ram.write_raw(0x400, (0x12345678).to_bytes(4, "little"))
    cache.read(0x400, 4)
    set_index, way = cache.valid_lines()[0]
    cache.flip_data_bit(set_index, way, 0)
    value, _ = cache.read(0x400, 4)
    assert value != 0x12345678          # corruption returned silently
    assert cache.stats.silent_corruptions == 1


def test_tag_error_forces_miss():
    cache, ram = make_cache()
    ram.write_raw(0x500, (99).to_bytes(4, "little"))
    cache.read(0x500, 4)
    set_index, way = cache.valid_lines()[0]
    cache.flip_tag_bit(set_index, way, 3)
    value, _ = cache.read(0x500, 4)
    assert value == 99
    assert cache.stats.tag_errors == 1
    assert cache.stats.misses == 2      # refetched


def test_invalidate_all():
    cache, _ = make_cache()
    cache.read(0, 4)
    cache.invalidate_all()
    cache.read(0, 4)
    assert cache.stats.misses == 2


def test_disabled_cache_passes_through():
    cache, ram = make_cache()
    cache.enabled = False
    ram.write_raw(0x600, (42).to_bytes(4, "little"))
    value, stalls = cache.read(0x600, 4)
    assert value == 42
    assert cache.stats.misses == 0
    assert stalls == 1  # raw SRAM wait states


def test_flip_random_bit_on_empty_cache():
    cache, _ = make_cache()
    assert cache.flip_random_bit(DeterministicRng(1)) is False


def test_warm_prefetches():
    cache, _ = make_cache()
    cache.warm(0, 64)
    before = cache.stats.misses
    cache.read(0, 4)
    cache.read(48, 4)
    assert cache.stats.misses == before


def test_bad_geometry_rejected():
    ram = Sram(base=0, size=64)
    with pytest.raises(ValueError):
        Cache(ram, sets=3)
    with pytest.raises(ValueError):
        Cache(ram, line_bytes=24)


def test_store_across_a_line_refreshes_both_cached_lines():
    """A store straddling a line boundary is written through once and
    refreshes the cached copy of both lines, data and parity alike."""
    cache, ram = make_cache()
    cache.read(0x10E, 4)                 # allocates lines 0x100 and 0x110
    fills = cache.stats.fills
    stalls = cache.write(0x10E, 4, 0xAABBCCDD)
    assert stalls == 1                   # one backing write (SRAM wait state)
    assert ram.read_raw(0x10E, 4) == (0xAABBCCDD).to_bytes(4, "little")
    assert cache.read(0x10E, 4)[0] == 0xAABBCCDD
    assert cache.read(0x10C, 4)[0] == 0xCCDD0000
    assert cache.read(0x110, 4)[0] == 0x0000AABB
    assert cache.stats.fills == fills    # both halves were hits
    # parity was kept current: a flip in either stored half is caught
    # and recovered
    (low_set, low_way), (high_set, high_way) = cache.valid_lines()
    cache.flip_data_bit(low_set, low_way, 8 * 0xE)
    cache.flip_data_bit(high_set, high_way, 0)
    assert cache.read(0x10E, 4)[0] == 0xAABBCCDD
    assert cache.stats.parity_errors == cache.stats.recoveries == 2


STRADDLING_STORE = """
main:
    ldr r1, =0x2000011e
    ldr r2, [r1, #0]
    ldr r0, =0xaabbccdd
    str r0, [r1, #0]
    ldr r0, [r1, #0]
    bx lr
"""


@pytest.mark.parametrize("caches", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("fastpath", [True, False], ids=["trace", "reference"])
def test_guest_store_across_a_dcache_line_reads_back(caches, fastpath):
    """On the ARM1156 a word store across two 32-byte D-cache lines, both
    cached by the load before it, reads back as stored: with caches and
    without, on both engines."""
    program = assemble(STRADDLING_STORE, ISA_THUMB2, base=FLASH_BASE)
    machine = build_arm1156(program, caches_enabled=caches)
    machine.cpu.fastpath = fastpath
    assert machine.call("main") == 0xAABBCCDD
