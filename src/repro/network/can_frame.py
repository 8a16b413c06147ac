"""CAN 2.0A frame construction: bit layout, CRC-15, bit stuffing.

The paper's platform vision (sections 1 and 4) rests on the in-vehicle
network; CAN is the automotive bus of the era.  Frame timing - including
the worst-case stuffing overhead - feeds both the bus simulator and the
schedulability analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

CRC15_POLY = 0x4599  # x^15 + x^14 + x^10 + x^8 + x^7 + x^4 + x^3 + 1


def crc15(bits: list[int]) -> int:
    """CAN CRC-15 over a bit sequence."""
    crc = 0
    for bit in bits:
        crc_next = ((crc >> 14) & 1) ^ bit
        crc = (crc << 1) & 0x7FFF
        if crc_next:
            crc ^= CRC15_POLY
    return crc


def stuff_bits(bits: list[int]) -> list[int]:
    """Insert a complementary bit after five equal consecutive bits."""
    out: list[int] = []
    run_value = None
    run_length = 0
    for bit in bits:
        out.append(bit)
        if bit == run_value:
            run_length += 1
        else:
            run_value = bit
            run_length = 1
        if run_length == 5:
            out.append(bit ^ 1)
            run_value = bit ^ 1
            run_length = 1
    return out


def destuff_bits(bits: list[int]) -> list[int]:
    """Inverse of :func:`stuff_bits`."""
    out: list[int] = []
    run_value = None
    run_length = 0
    skip_next = False
    for bit in bits:
        if skip_next:
            skip_next = False
            run_value = bit
            run_length = 1
            continue
        out.append(bit)
        if bit == run_value:
            run_length += 1
        else:
            run_value = bit
            run_length = 1
        if run_length == 5:
            skip_next = True
    return out


@dataclass(frozen=True)
class CanFrame:
    """A standard (11-bit identifier) CAN data frame."""

    can_id: int
    data: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.can_id <= 0x7FF:
            raise ValueError(f"identifier {self.can_id:#x} exceeds 11 bits")
        if len(self.data) > 8:
            raise ValueError("CAN data field is at most 8 bytes")

    @property
    def dlc(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    def header_and_data_bits(self) -> list[int]:
        """SOF through the data field (the CRC-covered, stuffed region)."""
        bits = [0]  # SOF (dominant)
        bits += [(self.can_id >> i) & 1 for i in range(10, -1, -1)]
        bits += [0]        # RTR (data frame)
        bits += [0, 0]     # IDE, r0
        bits += [(self.dlc >> i) & 1 for i in range(3, -1, -1)]
        for byte in self.data:
            bits += [(byte >> i) & 1 for i in range(7, -1, -1)]
        return bits

    def bits_on_wire(self) -> list[int]:
        """The full frame as transmitted (stuffed + fixed-form fields)."""
        covered = self.header_and_data_bits()
        crc = crc15(covered)
        covered_plus_crc = covered + [(crc >> i) & 1 for i in range(14, -1, -1)]
        stuffed = stuff_bits(covered_plus_crc)
        # CRC delimiter, ACK slot, ACK delimiter, EOF(7), IFS(3): fixed form
        tail = [1, 0, 1] + [1] * 7 + [1] * 3
        return stuffed + tail

    @cached_property
    def wire_bits(self) -> int:
        """Bits on the wire, computed once per frame (the CRC and the
        stuffing depend on the payload).  Cached outside the dataclass
        fields, so equality, hashing and pickling are unchanged."""
        return len(self.bits_on_wire())

    def transmission_time(self, bitrate_bps: int) -> float:
        """Seconds to transmit at the given bit rate."""
        return self.wire_bits / bitrate_bps


def worst_case_frame_bits(payload_bytes: int) -> int:
    """Analytic worst-case wire bits for an n-byte standard frame.

    The classic bound (Davis et al.): 8n + 47 bits including the 3-bit
    interframe space, of which 34 + 8n are subject to stuffing, adding at
    most floor((34 + 8n - 1) / 4) stuff bits - 135 bits for n = 8.
    """
    if not 0 <= payload_bytes <= 8:
        raise ValueError("payload must be 0..8 bytes")
    base = 8 * payload_bytes + 47
    stuffable = 34 + 8 * payload_bytes
    return base + (stuffable - 1) // 4


def parse_frame(bits: list[int]) -> CanFrame:
    """Decode wire bits back into a frame (validates the CRC)."""
    # strip fixed-form tail: delimiter+ack+ackdelim (3) + EOF (7) + IFS (3)
    stuffed = bits[:-13]
    flat = destuff_bits(stuffed)
    if flat[0] != 0:
        raise ValueError("missing SOF")
    can_id = 0
    for bit in flat[1:12]:
        can_id = (can_id << 1) | bit
    dlc = 0
    for bit in flat[15:19]:
        dlc = (dlc << 1) | bit
    data = bytearray()
    offset = 19
    for _ in range(dlc):
        byte = 0
        for bit in flat[offset:offset + 8]:
            byte = (byte << 1) | bit
        data.append(byte)
        offset += 8
    crc_received = 0
    for bit in flat[offset:offset + 15]:
        crc_received = (crc_received << 1) | bit
    frame = CanFrame(can_id=can_id, data=bytes(data))
    expected = crc15(frame.header_and_data_bits())
    if crc_received != expected:
        raise ValueError(f"CRC mismatch: got {crc_received:#x}, want {expected:#x}")
    return frame
