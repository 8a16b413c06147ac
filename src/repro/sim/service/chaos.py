"""Deterministic chaos harness for the supervised worker fleet.

Robustness claims are only trustworthy when the faults that prove them
are reproducible.  This module describes worker-fleet fault schedules as
plain frozen data - *which* dispatch (by the supervisor's global
dispatch ordinal) dies or stalls, and how - so a test, a benchmark, or
the CI ``chaos-smoke`` job can replay the exact same injection and
assert the exact same outcome: the client-visible record stream is
byte-identical to a fault-free run, the queue-slot accounting returns to
zero, and the fleet lost exactly as many workers as faults were
scheduled.

Faults fire **by construction**.  The supervisor numbers every ``cell``
frame it sends (0, 1, 2, ... across the whole fleet, requeues included)
and attaches the scheduled :class:`CellFault`, if any, to that frame; the
worker (:mod:`repro.sim.service.worker`) acts on the frame it received.
So a fault scheduled at an ordinal below the sweep's cell count always
fires, whichever worker the scheduler hands that dispatch to.  A fault is
an ``os._exit`` (before computing, or after computing but *before
reporting*, the juiciest window: the cell is lost and must be recomputed
elsewhere), or a stall after computing (silent: heartbeats stop, the
supervisor's liveness timeout fires; busy: heartbeats continue, the hard
per-cell deadline fires).  Poisoned spec keys are global - *every*
dispatch of them kills its worker on receipt - which is what drives the
supervisor's two-strike quarantine.

Client-side faults (severing a connection mid-stream) have no schedule
entry: they are plain test actions.

Schedules are built three ways:

* explicitly (tests pinning one precise failure window);
* :meth:`ChaosSchedule.seeded` - an RNG-derived schedule from one integer
  seed (the property suite sweeps seeds);
* :meth:`ChaosSchedule.from_spec` - the ``--chaos "seed=7,kills=2,
  stalls=1"`` command-line form the CI job uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.rng import DeterministicRng


@dataclass(frozen=True)
class CellFault:
    """What the worker serving one dispatch does to itself.

    ``kill`` is ``"recv"`` (die before computing: the cell is simply
    lost) or ``"report"`` (die after computing, before writing the result
    line: the work is lost *and* may race a requeue - the
    dedup-by-construction case).  Otherwise ``stall`` seconds pass after
    computing: ``silent`` stalls stop heartbeats (the liveness window
    fires), busy ones keep heartbeating (the per-cell deadline fires).
    """

    kill: str | None = None  # 'recv' | 'report'
    stall: float = 0.0
    silent: bool = True

    def to_obj(self) -> dict:
        """The ``chaos`` field of the ``cell`` frame carrying this fault."""
        return {"kill": self.kill, "stall": self.stall, "silent": self.silent}


#: the fault every dispatch of a poisoned spec carries
POISON_KILL = CellFault(kill="recv")


@dataclass(frozen=True)
class ChaosSchedule:
    """A full fleet fault schedule: per-dispatch faults plus global poison.

    ``faults`` maps supervisor *dispatch ordinals* (the n-th ``cell``
    frame sent to any worker, requeued dispatches included) to the fault
    that dispatch carries; other dispatches run clean.  ``poison`` spec
    keys crash whichever worker receives them, every time - the
    supervisor must quarantine them, not retry forever.
    """

    faults: tuple[tuple[int, CellFault], ...] = ()
    poison: tuple[str, ...] = ()

    def fault_for(self, dispatch: int, key: str) -> CellFault | None:
        """The fault dispatch number ``dispatch`` of spec ``key`` carries."""
        if key in self.poison:
            return POISON_KILL
        for ordinal, fault in self.faults:
            if ordinal == dispatch:
                return fault
        return None

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        cells: int = 8,
        kills: int = 1,
        stalls: int = 0,
        stall_seconds: float = 1.5,
        poison: tuple[str, ...] = (),
    ) -> ChaosSchedule:
        """An RNG-derived schedule: one seed reproduces one fault pattern.

        ``kills`` dispatches die (random phase) and ``stalls`` dispatches
        stall silently past the liveness window, each at a distinct
        random ordinal below ``cells``.  Size ``cells`` to at most the
        sweep's cell count: every cell is dispatched at least once, so
        every fault then fires, and each costs exactly one worker.
        """
        faults = kills + stalls
        if faults > cells:
            raise ValueError(f"{faults} faults do not fit in {cells} dispatches")
        rng = DeterministicRng(seed)
        ordinals = list(range(cells))
        rng.shuffle(ordinals)
        scheduled = [
            (ordinals.pop(), CellFault(kill=rng.choice(["recv", "report"])))
            for _ in range(kills)
        ]
        scheduled += [(ordinals.pop(), CellFault(stall=stall_seconds)) for _ in range(stalls)]
        return cls(faults=tuple(sorted(scheduled)), poison=tuple(poison))

    @classmethod
    def from_spec(cls, spec: str) -> ChaosSchedule:
        """Parse the CLI form: ``"seed=7,kills=2,stalls=1[,cells=8]
        [,stall-seconds=2]"`` (``cells`` is the dispatch window the faults
        land in; keep it at most the sweep's cell count so they all fire).
        """
        fields = {"seed": 0, "kills": 1, "stalls": 0, "cells": 8,
                  "stall-seconds": 1.5}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                key, value = part.split("=", 1)
            except ValueError:
                raise ValueError(f"--chaos wants key=value pairs, got {part!r}") from None
            if key not in fields:
                raise ValueError(
                    f"unknown --chaos key {key!r}; pick from {', '.join(sorted(fields))}"
                )
            fields[key] = float(value) if key == "stall-seconds" else int(value)
        return cls.seeded(
            fields["seed"],
            cells=fields["cells"],
            kills=fields["kills"],
            stalls=fields["stalls"],
            stall_seconds=fields["stall-seconds"],
        )
