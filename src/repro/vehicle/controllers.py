"""Memory-mapped network controllers and body-electronics devices.

These are the devices an ECU's guest firmware actually talks to over its
:class:`~repro.memory.bus.SystemBus` - word-register MMIO with side
effects, exactly like a real CAN cell or LIN transceiver block:

* :class:`CanController` - TX mailbox (identifier + data + doorbell) and
  a small RX FIFO fed by the shared :class:`~repro.network.can_bus.CanBus`,
  raising the ECU's VIC/NVIC interrupt on frame arrival;
* :class:`LinController` - a slave response buffer the LIN master's
  schedule table reads, plus an RX FIFO for frames addressed to this
  node (the actuator side);
* :class:`SensorDevice` - a latched sample register the orchestrator
  updates on the signal's period;
* :class:`ActuatorDevice` - an output register whose writes are logged
  with their bus-time timestamp (the end-to-end latency measurement
  point).

Causality discipline
--------------------
A guest core may run *ahead* of the bus clock inside its quantum, so
anything a bus-time event deposits into a device carries a
``visible_from`` cycle (the arrival bus time converted to this ECU's
cycles).  MMIO reads only expose state whose visibility cycle is at or
before the core's own cycle counter - a frame that arrives at bus time T
can never be observed by an instruction that architecturally executed
before T, no matter how the host interleaved the quanta.  This is what
makes whole-vehicle runs byte-identical across quantum sizes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.memory.bus import BusFault
from repro.network.can_frame import CanFrame

#: default device addresses on every ECU's private bus
CAN_CONTROLLER_BASE = 0x4000_0000
LIN_CONTROLLER_BASE = 0x4001_0000
SENSOR_BASE = 0x4002_0000
ACTUATOR_BASE = 0x4003_0000


class MmioDevice:
    """Word-register device base: aligned 32-bit accesses, zero stalls."""

    #: stall bound advertised to the trace engine's block cycle caps
    worst_stall = 0

    def __init__(self, base: int, size: int = 0x40) -> None:
        self.base = base
        self.size = size

    def _offset(self, addr: int, size: int) -> int:
        offset = addr - self.base
        if size != 4 or offset & 3 or not 0 <= offset <= self.size - 4:
            raise BusFault(addr, "device registers are aligned words")
        return offset

    def read(self, addr: int, size: int, side: str = "D") -> tuple[int, int]:
        return self.read_register(self._offset(addr, size)) & 0xFFFFFFFF, 0

    def write(self, addr: int, size: int, value: int, side: str = "D") -> int:
        self.write_register(self._offset(addr, size), value & 0xFFFFFFFF)
        return 0

    # debug/loader access: registers read side-effect free
    def read_raw(self, addr: int, size: int) -> bytes:
        value, _ = self.read(addr, size)
        return value.to_bytes(4, "little")

    def write_raw(self, addr: int, payload: bytes) -> None:
        raise BusFault(addr, "cannot image-load device registers")

    def read_register(self, offset: int) -> int:
        raise BusFault(self.base + offset, "unimplemented register")

    def write_register(self, offset: int, value: int) -> None:
        raise BusFault(self.base + offset, "read-only register")


@dataclass
class RxEntry:
    """One received frame waiting in a controller FIFO."""

    ident: int
    word: int
    visible_from: int   # first guest cycle that may observe it


class _RxFifo:
    """Visibility-gated receive FIFO shared by the CAN and LIN cells."""

    def __init__(self, capacity: int = 8) -> None:
        self.capacity = capacity
        self.entries: deque[RxEntry] = deque()
        self.received = 0
        self.dropped = 0

    def push(self, ident: int, word: int, visible_from: int) -> None:
        self.received += 1
        if len(self.entries) >= self.capacity:
            self.dropped += 1
            return
        self.entries.append(RxEntry(ident, word, visible_from))

    def head(self, now_cycle: int) -> RxEntry | None:
        if self.entries and self.entries[0].visible_from <= now_cycle:
            return self.entries[0]
        return None

    def pop(self, now_cycle: int) -> None:
        if self.head(now_cycle) is not None:
            self.entries.popleft()


class CanController(MmioDevice):
    """TX mailbox + RX FIFO on the shared CAN bus.

    Register map (word offsets)::

        0x00  TXID    rw  identifier latch
        0x04  TXDATA  rw  payload word latch (4-byte frames)
        0x08  TXCTRL  w: any value queues the latched frame at the bus
                      time of this store; r: frames queued so far
        0x0C  RXID    r   head frame identifier (0 when empty/ahead)
        0x10  RXDATA  r   head frame payload word
        0x14  RXSTAT  r: 1 when a frame is observable; w: pop the head
        0x18  RXDROP  r   frames lost to FIFO overflow

    The doorbell submits at the exact bus microsecond of the store (the
    ECU's cycle counter converted back to bus time), so frame queueing
    times are a pure function of the guest's instruction stream.
    """

    def __init__(self, base: int = CAN_CONTROLLER_BASE,
                 capacity: int = 8) -> None:
        super().__init__(base)
        self.ecu = None             # bound by Ecu.attach_can
        self.can_bus = None
        self.node = "ecu"
        self.accept: frozenset[int] = frozenset()
        self.irq: tuple[int, int, int] | None = None  # (number, handler, prio)
        #: (start_us, end_us) windows in which the RX interrupt is NOT
        #: raised although frames still enter the FIFO - the fault
        #: layer's model of a starved/overloaded drain path.  Frames
        #: arriving faster than the FIFO holds are then dropped and
        #: counted, exactly as on a controller whose ISR is stalled.
        self.irq_blackouts: tuple = ()
        self.fifo = _RxFifo(capacity)
        self.tx_id = 0
        self.tx_data = 0
        self.frames_queued = 0
        self.frames_submitted = 0

    # ------------------------------------------------------------------
    def bind(self, ecu, can_bus, node: str, accept,
             irq: tuple[int, int, int] | None = None) -> None:
        self.ecu = ecu
        self.can_bus = can_bus
        self.node = node
        self.accept = frozenset(accept)
        self.irq = irq
        can_bus.subscribe(self._on_delivery)

    def read_register(self, offset: int) -> int:
        if offset == 0x00:
            return self.tx_id
        if offset == 0x04:
            return self.tx_data
        if offset == 0x08:
            return self.frames_queued
        now = self.ecu.cpu.cycles
        head = self.fifo.head(now)
        if offset == 0x0C:
            return head.ident if head is not None else 0
        if offset == 0x10:
            return head.word if head is not None else 0
        if offset == 0x14:
            return 1 if head is not None else 0
        if offset == 0x18:
            return self.fifo.dropped
        raise BusFault(self.base + offset, "unknown CAN register")

    def write_register(self, offset: int, value: int) -> None:
        if offset == 0x00:
            self.tx_id = value & 0x7FF
        elif offset == 0x04:
            self.tx_data = value
        elif offset == 0x08:
            self._doorbell()
        elif offset == 0x14:
            self.fifo.pop(self.ecu.cpu.cycles)
        else:
            raise BusFault(self.base + offset, "read-only CAN register")

    def _doorbell(self) -> None:
        frame = CanFrame(self.tx_id, self.tx_data.to_bytes(4, "little"))
        # The frame enters arbitration a fixed transmit-path delay after
        # the store's guest time - a pure function of the instruction
        # stream, so bus traffic cannot depend on where the host paused
        # the quantum.  The delay must exceed the quantum (the host clock
        # runs at most one quantum ahead of the guest's replayed time);
        # a violation is a configuration error, raised loudly.
        at_us = (self.ecu.us_of_cycle(self.ecu.cpu.cycles)
                 + self.ecu.tx_delay_us)
        self.frames_queued += 1
        scheduler = self.can_bus.scheduler
        if at_us < scheduler.now:
            from repro.vehicle.ecu import CosimDeterminismError

            raise CosimDeterminismError(
                f"{self.node}: CAN submit for guest time "
                f"{at_us - self.ecu.tx_delay_us}us (+{self.ecu.tx_delay_us}us "
                f"tx delay) is behind bus time {scheduler.now}us; "
                f"tx_delay_us must exceed the co-simulation quantum")

        def submit(frame=frame) -> None:
            self.frames_submitted += 1
            self.can_bus.submit(frame, node=self.node)

        scheduler.at(at_us, submit)

    def _on_delivery(self, frame, record) -> None:
        if record.node == self.node or frame.can_id not in self.accept:
            return
        word = int.from_bytes(frame.data[:4].ljust(4, b"\x00"), "little")
        now_us = self.can_bus.scheduler.now
        visible = self.ecu.cycle_of_us(now_us) + self.ecu.irq_latency
        self.fifo.push(frame.can_id, word, visible)
        if self.irq is not None and not self._irq_suppressed(now_us):
            number, handler, priority = self.irq
            self.ecu.raise_irq(number, handler, at_us=now_us,
                               priority=priority)

    def _irq_suppressed(self, now_us: int) -> bool:
        return any(start <= now_us < end for start, end in self.irq_blackouts)


class LinController(MmioDevice):
    """LIN cell: a slave response buffer plus an RX FIFO.

    Register map (word offsets)::

        0x00  PUB     rw  response buffer the master's schedule reads
        0x04  RXID    r   head frame identifier
        0x08  RXDATA  r   head frame payload word
        0x0C  RXSTAT  r: 1 when a frame is observable; w: pop the head
        0x10  RXDROP  r   frames lost to FIFO overflow
    """

    def __init__(self, base: int = LIN_CONTROLLER_BASE,
                 capacity: int = 8) -> None:
        super().__init__(base)
        self.ecu = None
        self.accept: frozenset[int] = frozenset()
        self.irq: tuple[int, int, int] | None = None
        self.fifo = _RxFifo(capacity)
        self.pub = 0
        self.publishes = 0

    def bind(self, ecu, lin_master, accept,
             irq: tuple[int, int, int] | None = None) -> None:
        self.ecu = ecu
        self.lin = lin_master
        self.accept = frozenset(accept)
        self.irq = irq
        if accept:
            lin_master.subscribe(self._on_delivery)

    def respond(self) -> bytes:
        """The master's slave hook: the current response buffer bytes.

        The orchestrator wraps this in an on-demand advance of the owning
        ECU to the slot's bus time, so the buffer content is exactly what
        the guest had published by that instant.
        """
        return self.pub.to_bytes(4, "little")

    def read_register(self, offset: int) -> int:
        if offset == 0x00:
            return self.pub
        now = self.ecu.cpu.cycles
        head = self.fifo.head(now)
        if offset == 0x04:
            return head.ident if head is not None else 0
        if offset == 0x08:
            return head.word if head is not None else 0
        if offset == 0x0C:
            return 1 if head is not None else 0
        if offset == 0x10:
            return self.fifo.dropped
        raise BusFault(self.base + offset, "unknown LIN register")

    def write_register(self, offset: int, value: int) -> None:
        if offset == 0x00:
            self.pub = value
            self.publishes += 1
        elif offset == 0x0C:
            self.fifo.pop(self.ecu.cpu.cycles)
        else:
            raise BusFault(self.base + offset, "read-only LIN register")

    def _on_delivery(self, delivery) -> None:
        if delivery.frame_id not in self.accept:
            return
        word = int.from_bytes(delivery.data[:4].ljust(4, b"\x00"), "little")
        now_us = self.lin.scheduler.now
        visible = self.ecu.cycle_of_us(now_us) + self.ecu.irq_latency
        self.fifo.push(delivery.frame_id, word, visible)
        if self.irq is not None:
            number, handler, priority = self.irq
            self.ecu.raise_irq(number, handler, at_us=now_us,
                               priority=priority)


class SensorDevice(MmioDevice):
    """A latched sample register (offset 0x00), visibility-gated."""

    def __init__(self, base: int = SENSOR_BASE) -> None:
        super().__init__(base)
        self.ecu = None
        self.current = 0
        self.pending: deque[tuple[int, int]] = deque()  # (word, visible)
        self.samples = 0

    def latch(self, word: int, visible_from: int) -> None:
        self.samples += 1
        self.pending.append((word & 0xFFFFFFFF, visible_from))

    def read_register(self, offset: int) -> int:
        if offset != 0x00:
            raise BusFault(self.base + offset, "unknown sensor register")
        now = self.ecu.cpu.cycles
        while self.pending and self.pending[0][1] <= now:
            self.current = self.pending.popleft()[0]
        return self.current


@dataclass
class AppliedValue:
    """One actuator write: what the guest applied, and when (bus time)."""

    ident: int
    word: int
    at_us: int


class ActuatorDevice(MmioDevice):
    """Output register whose writes are timestamp-logged.

    Register map: ``0x00`` OUT (w: apply the latched identifier + this
    word; r: last applied word), ``0x04`` COUNT (r), ``0x08`` ID latch
    (rw) - firmware stores the source identifier first, then the value.
    """

    def __init__(self, base: int = ACTUATOR_BASE) -> None:
        super().__init__(base)
        self.ecu = None
        self.ident = 0
        self.last = 0
        self.applied: list[AppliedValue] = []

    def read_register(self, offset: int) -> int:
        if offset == 0x00:
            return self.last
        if offset == 0x04:
            return len(self.applied)
        if offset == 0x08:
            return self.ident
        raise BusFault(self.base + offset, "unknown actuator register")

    def write_register(self, offset: int, value: int) -> None:
        if offset == 0x00:
            self.last = value
            self.applied.append(AppliedValue(
                ident=self.ident, word=value,
                at_us=self.ecu.us_of_cycle(self.ecu.cpu.cycles)))
        elif offset == 0x08:
            self.ident = value
        else:
            raise BusFault(self.base + offset, "read-only actuator register")
