"""Classic ARM7/ARM9-style vectored interrupt controller.

Interrupt entry is largely a *software* affair on these cores: the hardware
only swaps the PC (and banks a couple of registers, which we fold into the
fixed entry overhead); saving and restoring the working registers is the
handler's job - the "preamble/postamble" the paper's section 3.2.1 contrasts
with the Cortex-M3's hardware scheme.
"""

from __future__ import annotations

from repro.core.exceptions import InterruptRequest, InterruptStats


class VicController:
    """Pending-request bookkeeping for the classic interrupt scheme."""

    def __init__(self) -> None:
        self.queue: list[InterruptRequest] = []
        #: the earliest ``assert_cycle`` in the queue (None when empty):
        #: the trace engine's event horizon, kept in O(1) per read
        self.horizon: int | None = None
        self.stats = InterruptStats()

    def raise_irq(self, number: int, handler: int, at_cycle: int = 0,
                  priority: int = 0, nmi: bool = False) -> InterruptRequest:
        """Assert an interrupt line (optionally in the future)."""
        request = InterruptRequest(number=number, priority=priority, nmi=nmi,
                                   assert_cycle=at_cycle, handler=handler)
        self.queue.append(request)
        self.queue.sort(key=lambda r: (not r.nmi, r.priority, r.assert_cycle))
        if self.horizon is None or at_cycle < self.horizon:
            self.horizon = at_cycle
        return request

    def pending_at(self, cycle: int, masked: bool) -> InterruptRequest | None:
        """Highest-priority request asserted by ``cycle``.

        When ``masked`` (CPSR I-bit set / CPSID executed) only NMI requests
        are eligible - the paper's section 3.1.2 non-maskable FIQ.
        """
        for request in self.queue:
            if request.assert_cycle > cycle:
                continue
            if masked and not request.nmi:
                continue
            return request
        return None

    def earliest_assert_in(self, start_cycle: int, end_cycle: int,
                           masked: bool) -> int | None:
        """First assert time inside (start, end], for restartable LDM/STM."""
        candidates = [
            r.assert_cycle for r in self.queue
            if start_cycle < r.assert_cycle <= end_cycle and (r.nmi or not masked)
        ]
        return min(candidates, default=None)

    def acknowledge(self, request: InterruptRequest) -> None:
        self.queue.remove(request)
        if request.assert_cycle == self.horizon:
            self.horizon = min((r.assert_cycle for r in self.queue), default=None)
        self.stats.serviced += 1

    def has_pending(self) -> bool:
        return bool(self.queue)
