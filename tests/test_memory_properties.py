"""Property-based tests on the memory system's core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import BitBandAlias, Cache, Flash, Sram
from repro.sim import DeterministicRng

# ----------------------------------------------------------------------
# cache transparency: a cached memory is indistinguishable from the raw
# memory for any access sequence (values, not timing)
# ----------------------------------------------------------------------

ACCESS = st.tuples(
    st.sampled_from(["r", "w"]),
    st.integers(min_value=0, max_value=0x3FC),        # address
    st.sampled_from([1, 2, 4]),                        # size
    st.integers(min_value=0, max_value=0xFFFFFFFF),    # value for writes
)


@given(st.lists(ACCESS, min_size=1, max_size=60))
@settings(max_examples=150, deadline=None)
def test_cache_is_transparent(accesses):
    plain = Sram(base=0, size=0x1000)
    backing = Sram(base=0, size=0x1000)
    cache = Cache(backing, sets=4, ways=2, line_bytes=16)
    for kind, addr, size, value in accesses:
        addr -= addr % size  # natural alignment
        if kind == "w":
            plain.write(addr, size, value)
            cache.write(addr, size, value)
        else:
            expected, _ = plain.read(addr, size)
            got, _ = cache.read(addr, size)
            assert got == expected
    # final memory images agree (write-through keeps backing current)
    assert plain.read_raw(0, plain.size) == backing.read_raw(0, backing.size)


@given(st.lists(st.integers(min_value=0, max_value=0xFF), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_flash_timing_never_changes_data(addresses):
    """Prefetch state machine must be timing-only: data always correct."""
    flash = Flash(base=0, size=0x400, access_cycles=3, line_bytes=16)
    golden = bytes((i * 37) & 0xFF for i in range(0x400))
    flash.write_raw(0, golden)
    for raw in addresses:
        addr = raw * 4 % 0x3FC
        value, _stalls = flash.read(addr, 4, side="I" if raw % 2 else "D")
        assert value == int.from_bytes(golden[addr:addr + 4], "little")


@given(st.integers(min_value=0, max_value=0xFFF),
       st.integers(min_value=0, max_value=7),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_bitband_touches_exactly_one_bit(byte_offset, bit, set_it):
    ram = Sram(base=0x2000_0000, size=0x1000)
    alias = BitBandAlias(base=0x2200_0000, target=ram,
                         target_base=0x2000_0000, target_bytes=0x1000)
    rng = DeterministicRng(byte_offset * 8 + bit)
    original = bytes(rng.randint(0, 255) for _ in range(0x1000))
    ram.write_raw(0x2000_0000, original)
    address = alias.alias_address(0x2000_0000 + byte_offset, bit)
    alias.write(address, 4, 1 if set_it else 0)
    after = ram.read_raw(0x2000_0000, 0x1000)
    for index in range(0x1000):
        if index != byte_offset:
            assert after[index] == original[index]
    expected = original[byte_offset] | (1 << bit) if set_it \
        else original[byte_offset] & ~(1 << bit)
    assert after[byte_offset] == expected
    # read-back through the alias agrees
    value, _ = alias.read(address, 4)
    assert value == (1 if set_it else 0)


@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_cache_recovers_from_any_single_flip_sequence(flips):
    """Any sequence of single-bit upsets on clean lines is fully masked."""
    rng = DeterministicRng(5)
    backing = Sram(base=0, size=0x1000)
    golden = bytes(rng.randint(0, 255) for _ in range(0x400))
    backing.write_raw(0, golden)
    cache = Cache(backing, sets=8, ways=2, line_bytes=16, fault_tolerant=True)
    cache.warm(0, 0x100)
    for flip in flips:
        lines = cache.valid_lines()
        set_index, way = lines[flip % len(lines)]
        cache.flip_data_bit(set_index, way, (flip * 17) % (16 * 8))
        for addr in range(0, 0x100, 4):
            value, _ = cache.read(addr, 4)
            assert value == int.from_bytes(golden[addr:addr + 4], "little")
