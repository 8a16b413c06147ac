"""Deterministic simulation substrate: event scheduler, tracing, seeded RNG.

Every stochastic or time-driven component in :mod:`repro` (the OSEK kernel,
the CAN bus, the soft-error injector) runs on top of this subpackage so that
simulations are reproducible bit-for-bit from a seed.
"""

from repro.sim.events import Event, EventScheduler, SimulationEnded
from repro.sim.rng import DeterministicRng
from repro.sim.trace import TraceRecord, TraceRecorder
# campaign last: it lazily imports the higher layers (codegen, core,
# workloads) inside its functions, never at module import time.
from repro.sim.campaign import (
    CampaignRequest,
    CampaignResult,
    CampaignStreamError,
    InterruptProfile,
    ScenarioRecord,
    ScenarioSpec,
    available_matrices,
    execute_request,
    interrupt_sweep_matrix,
    read_campaign_stream,
    run_scenario,
    shard_bounds,
    smoke_matrix,
    table1_matrix,
)

__all__ = [
    "Event",
    "EventScheduler",
    "SimulationEnded",
    "DeterministicRng",
    "TraceRecord",
    "TraceRecorder",
    "CampaignRequest",
    "CampaignResult",
    "CampaignStreamError",
    "InterruptProfile",
    "ScenarioRecord",
    "ScenarioSpec",
    "available_matrices",
    "execute_request",
    "interrupt_sweep_matrix",
    "read_campaign_stream",
    "run_scenario",
    "shard_bounds",
    "smoke_matrix",
    "table1_matrix",
]
