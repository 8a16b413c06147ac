"""Exception and interrupt model shared by the core implementations."""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field


class ExecutionError(Exception):
    """The simulator reached an unexecutable state (bad PC, bad opcode)."""


class DataAbort(Exception):
    """Precise data abort (MPU violation or unrecoverable memory error)."""

    def __init__(self, address: int, reason: str) -> None:
        super().__init__(f"data abort at {address:#010x}: {reason}")
        self.address = address
        self.reason = reason


class PrefetchAbort(Exception):
    """Instruction-side abort (fetch parity error, MPU execute violation)."""

    def __init__(self, address: int, reason: str) -> None:
        super().__init__(f"prefetch abort at {address:#010x}: {reason}")
        self.address = address
        self.reason = reason


@dataclass
class InterruptRequest:
    """One pending interrupt line."""

    number: int
    priority: int = 0
    nmi: bool = False
    assert_cycle: int = 0        # when the line went high (core cycles)
    handler: int | None = None   # vector target; None = use vector table


@dataclass
class InterruptRecord:
    """Measurement record for one serviced interrupt (experiments E6/E8)."""

    number: int
    assert_cycle: int
    entry_cycle: int             # first handler instruction issues here
    exit_cycle: int | None = None
    tail_chained: bool = False
    preempted_instruction: str | None = None

    @property
    def latency(self) -> int:
        return self.entry_cycle - self.assert_cycle


@dataclass
class InterruptStats:
    """Aggregated controller statistics."""

    serviced: int = 0
    tail_chained: int = 0
    records: list[InterruptRecord] = field(default_factory=list)

    def latencies(self) -> list[int]:
        return [r.latency for r in self.records]

    def worst_latency(self) -> int:
        return max(self.latencies(), default=0)


class RequestQueue:
    """Queued interrupt requests in service order, shared by both
    interrupt controllers.

    Raising a request (optionally for a future ``assert_cycle``) and
    servicing one keep :attr:`horizon`, the earliest queued assert cycle
    (None when nothing is queued), current in O(1) per read: it is the
    trace engine's event horizon.  A controller orders its queue with
    :meth:`_service_order` and decides eligibility in its ``pending_at``.
    """

    def __init__(self) -> None:
        self.queue: list[InterruptRequest] = []
        self.horizon: int | None = None
        self.stats = InterruptStats()

    @staticmethod
    def _service_order(request: InterruptRequest) -> tuple:
        """Sort key of the queue: NMI first, then priority, then assert
        cycle; a raise inserts after its equals, so remaining ties keep
        raise order."""
        return (not request.nmi, request.priority, request.assert_cycle)

    def raise_irq(self, number: int, handler: int, at_cycle: int = 0,
                  priority: int = 0, nmi: bool = False) -> InterruptRequest:
        """Assert an interrupt line (optionally in the future): one
        binary-search insertion into the ordered queue."""
        request = InterruptRequest(number=number, priority=priority, nmi=nmi,
                                   assert_cycle=at_cycle, handler=handler)
        insort(self.queue, request, key=self._service_order)
        if self.horizon is None or at_cycle < self.horizon:
            self.horizon = at_cycle
        return request

    def acknowledge(self, request: InterruptRequest) -> None:
        """Dequeue ``request`` for service."""
        self.queue.remove(request)
        if request.assert_cycle == self.horizon:
            self.horizon = min((r.assert_cycle for r in self.queue), default=None)
        self.stats.serviced += 1

    def earliest_assert_in(self, start_cycle: int, end_cycle: int,
                           masked: bool) -> int | None:
        """First assert time inside (start, end], for restartable LDM/STM."""
        candidates = [
            r.assert_cycle for r in self.queue
            if start_cycle < r.assert_cycle <= end_cycle and (r.nmi or not masked)
        ]
        return min(candidates, default=None)

    def has_pending(self) -> bool:
        return bool(self.queue)
