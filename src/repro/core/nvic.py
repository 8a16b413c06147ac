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
real part.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.exceptions import InterruptRequest, InterruptStats

#: Cycle constants with zero-wait-state memory (ARM's published numbers).
ENTRY_STACKING_WORDS = 8
VECTOR_FETCH_CYCLES = 1
PIPELINE_REFILL_CYCLES = 3
TAIL_CHAIN_CYCLES = 6


@dataclass
class StackedFrame:
    """What hardware pushed at exception entry."""

    return_pc: int
    apsr_word: int
    regs: tuple[int, ...]  # r0, r1, r2, r3, r12, lr


class NvicController:
    """Pending/active interrupt state machine with tail-chaining."""

    def __init__(self, tail_chaining: bool = True) -> None:
        self.tail_chaining = tail_chaining
        self.queue: list[InterruptRequest] = []
        #: the earliest ``assert_cycle`` in the queue (None when empty):
        #: the trace engine's event horizon, kept in O(1) per read
        self.horizon: int | None = None
        self.active_stack: list[InterruptRequest] = []
        self.stats = InterruptStats()

    # ------------------------------------------------------------------
    def raise_irq(self, number: int, handler: int, at_cycle: int = 0,
                  priority: int = 0, nmi: bool = False) -> InterruptRequest:
        request = InterruptRequest(number=number, priority=priority, nmi=nmi,
                                   assert_cycle=at_cycle, handler=handler)
        self.queue.append(request)
        self.queue.sort(key=lambda r: (not r.nmi, r.priority, r.assert_cycle, r.number))
        if self.horizon is None or at_cycle < self.horizon:
            self.horizon = at_cycle
        return request

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

    def earliest_assert_in(self, start_cycle: int, end_cycle: int,
                           masked: bool) -> int | None:
        candidates = [
            r.assert_cycle for r in self.queue
            if start_cycle < r.assert_cycle <= end_cycle and (r.nmi or not masked)
        ]
        return min(candidates, default=None)

    def take(self, request: InterruptRequest) -> None:
        self.queue.remove(request)
        if request.assert_cycle == self.horizon:
            self.horizon = min((r.assert_cycle for r in self.queue), default=None)
        self.active_stack.append(request)
        self.stats.serviced += 1

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

    def has_pending(self) -> bool:
        return bool(self.queue)

    @property
    def nesting_depth(self) -> int:
        return len(self.active_stack)
