"""Cortex-M3-style nested vectored interrupt controller (paper 3.2.1).

The NVIC performs the interrupt preamble and postamble *in hardware*:

* **entry**: eight registers (r0-r3, r12, lr, pc, xPSR) are stacked by the
  hardware while the vector is fetched from the instruction side in
  parallel - handlers are plain C-compatible functions with no assembly
  stub;
* **exit**: the frame is unstacked by hardware on a branch to the magic
  ``EXC_RETURN`` value;
* **tail-chaining**: if another interrupt is pending at exception return,
  the unstack/restack pair is skipped and the next handler is entered
  after a short fixed delay - the paper's "back-to-back handling ... in
  the minimum amount of time" (figure 4).

Priorities are numeric-ascending (lower value = more urgent), as on the
real part; equal requests are taken in IRQ-number order.  The request
queue and its event horizon are the VIC's
(:class:`~repro.core.exceptions.RequestQueue`); what differs is
preemption by priority, the active-handler stack and tail-chaining.
"""

from __future__ import annotations

from repro.core.exceptions import InterruptRequest, RequestQueue

#: Cycle constants with zero-wait-state memory (ARM's published numbers).
ENTRY_STACKING_WORDS = 8
VECTOR_FETCH_CYCLES = 1
PIPELINE_REFILL_CYCLES = 3
TAIL_CHAIN_CYCLES = 6


class NvicController(RequestQueue):
    """Pending/active interrupt state machine with tail-chaining: equal
    requests are serviced in IRQ-number order."""

    def __init__(self, tail_chaining: bool = True) -> None:
        super().__init__()
        self.tail_chaining = tail_chaining
        self.active_stack: list[InterruptRequest] = []

    @staticmethod
    def _service_order(request: InterruptRequest) -> tuple:
        return (not request.nmi, request.priority, request.assert_cycle,
                request.number)

    def current_priority(self) -> int | None:
        if not self.active_stack:
            return None
        return min(r.priority for r in self.active_stack)

    def pending_at(self, cycle: int, masked: bool) -> InterruptRequest | None:
        """Highest-urgency request that may preempt right now."""
        active = self.current_priority()
        for request in self.queue:
            if request.assert_cycle > cycle:
                continue
            if masked and not request.nmi:
                continue
            if active is not None and request.priority >= active and not request.nmi:
                continue  # no preemption at equal/lower urgency
            return request
        return None

    def take(self, request: InterruptRequest) -> None:
        """Dequeue ``request`` and make it the active handler."""
        self.acknowledge(request)
        self.active_stack.append(request)

    def complete(self, cycle: int, masked: bool) -> InterruptRequest | None:
        """Finish the active handler; returns the tail-chained successor."""
        if not self.active_stack:
            return None
        self.active_stack.pop()
        if not self.tail_chaining:
            return None
        successor = self.pending_at(cycle, masked)
        if successor is not None:
            self.take(successor)
            self.stats.tail_chained += 1
        return successor

    @property
    def nesting_depth(self) -> int:
        return len(self.active_stack)
