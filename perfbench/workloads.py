"""Seeded input generation for the three workloads.

The workload seed is the only input; the program receives nothing but the
specs generated here.  Every seed gives the same shape - cell count,
domain mix, scales, window geometry and overlap - so a claim can be
re-checked on a seed never used while it was made (see :func:`shape`).

* ``engine``: the six AutoIndy kernels on four core/ISA configurations,
  plus the same kernels on the M3 under an IRQ storm spread over the
  whole kernel run.
* ``cosim``: the ``vehicle`` matrix plus the ``vehicle-fault`` cells
  whose safety verdicts meet their expectations on every seed.
* ``fleet``: a pool of ``smoke``-matrix cells over consecutive seeds,
  walked in fixed-size windows by two clients, the second offset by half
  a window.
"""

from __future__ import annotations

from dataclasses import dataclass

#: name, core, ISA, IRQ storm?  (the engine workload's configurations)
ENGINE_CONFIGS = (
    ("arm7-arm", "arm7", "arm", False),
    ("arm7-thumb", "arm7", "thumb", False),
    ("m3", "m3", "thumb2", False),
    ("arm1156", "arm1156", "thumb2", False),
    ("m3-irq", "m3", "thumb2", True),
)

#: M3 cycles of each kernel as (per unit of scale, fixed): the storm is
#: spread over this estimate of the kernel run
M3_CYCLES = {"ttsprk": (768, 34), "tblook": (0, 78), "canrdr": (304, 14),
             "bitmnp": (384, 15), "rspeed": (384, 23), "puwmod": (1123, 17)}
#: mean cycles between storm IRQs
STORM_GAP = 2000

#: fault kinds whose expected verdicts hold on every seed; bus-off-storm,
#: gateway-overload, lin-stuck and lin-drop miss their expected verdict on
#: some seeds, and a workload must not fail by construction
COSIM_FAULT_KINDS = ("babbling-idiot", "soft-error")

#: smoke-matrix cells per seed (the fleet pool's period)
SMOKE_CELLS = 17


@dataclass(frozen=True)
class Size:
    engine_scale: int
    vehicle_scale: int
    fault_scale: int
    window: int  # fleet cells per request
    replay_cells: int  # fleet pool prefix replayed in-process when traced
    digest_windows: int  # fleet windows per client in the digest
    probes: int  # fresh interpreters for set-up and cold cells


SIZES = {
    "full": Size(engine_scale=100, vehicle_scale=4, fault_scale=2, window=16,
                 replay_cells=20 * SMOKE_CELLS, digest_windows=10, probes=5),
    "tiny": Size(engine_scale=2, vehicle_scale=1, fault_scale=1, window=8,
                 replay_cells=SMOKE_CELLS, digest_windows=2, probes=1),
}


def storm(workload: str, scale: int):
    """An IRQ storm of one IRQ per ~STORM_GAP cycles over the whole run."""
    from repro.sim.campaign import InterruptProfile

    per_scale, fixed = M3_CYCLES[workload]
    cycles = per_scale * scale + fixed
    return InterruptProfile(count=max(1, cycles // STORM_GAP), mean_gap=STORM_GAP)


def engine_specs(seed: int, size: Size) -> list:
    from repro.sim.campaign import ScenarioSpec
    from repro.workloads.kernels import AUTOINDY_SUITE

    scale = size.engine_scale
    return [
        ScenarioSpec(label=f"engine {name}", core=core, isa=isa,
                     workload=kernel.name, seed=seed, scale=scale,
                     interrupts=storm(kernel.name, scale) if irq else None)
        for name, core, isa, irq in ENGINE_CONFIGS
        for kernel in AUTOINDY_SUITE
    ]


def cosim_specs(seed: int, size: Size) -> list:
    from repro.sim.domains.vehicle import vehicle_matrix
    from repro.sim.domains.vehicle_fault import vehicle_fault_matrix

    faults = [spec for spec in vehicle_fault_matrix(seed, size.fault_scale)
              if spec.param("kind") in COSIM_FAULT_KINDS]
    return vehicle_matrix(seed, size.vehicle_scale) + faults


class FleetPool:
    """The fleet workload's unbounded cell pool and window geometry.

    Cell ``j`` is cell ``j % 17`` of the smoke matrix for seed
    ``base + j // 17``; client ``c`` requests window ``k`` as cells
    ``[k*W + c*W/2, (k+1)*W + c*W/2)``, so about half of all requested
    cells are replayed from the record cache or joined in flight.
    """

    def __init__(self, seed: int, size: Size):
        self.base = 10_000 + 1_000 * seed
        self.window = size.window
        self._smoke: dict = {}

    def _seed_cells(self, seed: int) -> list:
        cells = self._smoke.get(seed)
        if cells is None:
            from repro.sim.campaign import smoke_matrix

            cells = self._smoke[seed] = smoke_matrix(seed, 1)
        return cells

    def cell(self, index: int):
        return self._seed_cells(self.base + index // SMOKE_CELLS)[index % SMOKE_CELLS]

    def window_specs(self, client: int, k: int) -> list:
        first = k * self.window + client * (self.window // 2)
        return [self.cell(j) for j in range(first, first + self.window)]

    def warmup_specs(self) -> list:
        """Three smoke seeds below the pool: every domain reaches both
        fresh workers before the timed phase starts."""
        return [cell for offset in (3, 2, 1)
                for cell in self._seed_cells(self.base - offset)]


def specs_for(workload: str, seed: int, size: Size) -> list:
    """The engine and cosim cell lists (the fleet has a pool instead)."""
    if workload == "engine":
        return engine_specs(seed, size)
    if workload == "cosim":
        return cosim_specs(seed, size)
    raise ValueError(f"{workload!r} has no fixed cell list")


def cold_cells(workload: str, specs: list) -> list:
    """The first cell of each core configuration or network shape - the
    cells that pay cold costs in a fresh process."""
    seen = set()
    cells = []
    for spec in specs:
        if workload == "engine":
            shape = (spec.core, spec.isa, spec.interrupts is not None)
        else:
            shape = (spec.domain, spec.param("sensors"))
        if shape not in seen:
            seen.add(shape)
            cells.append(spec)
    return cells


def shape(workload: str, seed: int, size: Size) -> tuple:
    """Everything about a workload's inputs except the seed."""
    if workload == "fleet":
        pool = FleetPool(seed, size)
        cells = pool.window_specs(0, 0) + pool.window_specs(1, 0) + pool.warmup_specs()
        overlap = len({s.key() for s in pool.window_specs(0, 0)}
                      & {s.key() for s in pool.window_specs(1, 0)})
        return (pool.window, overlap,
                tuple((s.domain, s.label, s.scale) for s in cells))
    return tuple((s.domain, s.label, s.core, s.isa, s.workload, s.scale,
                  s.interrupts is not None, s.params)
                 for s in specs_for(workload, seed, size))
