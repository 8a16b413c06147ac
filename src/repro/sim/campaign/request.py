"""The one campaign request shape - and the one runner core under it.

Every way a campaign is run - the library call, the ``python -m
repro.sim.campaign`` CLI, and the resident service
(:mod:`repro.sim.service`) - describes the sweep with the same
:class:`CampaignRequest`: either an explicit spec list or a named matrix
plus ``seed``/``scale``, an optional ``shard=(k, n)`` partition, worker
and cache settings, and a service-side ``priority``.  The request is a
frozen dataclass with a canonical JSON form
(:meth:`CampaignRequest.to_obj` / :meth:`CampaignRequest.from_obj`), so
the same object rides the service's wire protocol.

:func:`execute_request` is the single local runner core.  It has two
executors and picks one from ``workers`` alone: ``workers >= 2`` computes
the cache misses on a supervised worker fleet
(:class:`~repro.sim.service.supervisor.WorkerSupervisor`, the service's
executor) and inherits its failure model, while anything less runs the
in-process serial loop, the reference every byte-identity test compares
against.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


def _thaw(value):
    """JSON arrays -> tuples, recursively.

    Spec fields (``params``, ``machine_kwargs``) are tuples *because* specs
    must stay hashable, so any list arriving from JSON can only have been a
    tuple before serialisation - restoring tuple-ness exactly is what keeps
    ``spec.key()`` (which formats values with ``str``) stable across the
    wire.
    """
    if isinstance(value, list):
        return tuple(_thaw(item) for item in value)
    return value


def spec_to_obj(spec) -> dict:
    """One :class:`~repro.sim.campaign.ScenarioSpec` as a JSON-able dict."""
    obj = dict(vars(spec))
    if spec.interrupts is not None:
        obj["interrupts"] = dict(vars(spec.interrupts))
    return obj


def spec_from_obj(obj: dict):
    """Rebuild a :class:`~repro.sim.campaign.ScenarioSpec` from its dict.

    The round trip is exact: ``spec_from_obj(json.loads(json.dumps(
    spec_to_obj(spec)))) == spec``, including nested tuples and the
    interrupt profile.
    """
    from repro.sim.campaign import InterruptProfile, ScenarioSpec

    data = dict(obj)
    interrupts = data.get("interrupts")
    if interrupts is not None:
        data["interrupts"] = InterruptProfile(**interrupts)
    data["machine_kwargs"] = _thaw(data.get("machine_kwargs", ()))
    data["params"] = _thaw(data.get("params", ()))
    return ScenarioSpec(**data)


def record_to_obj(record) -> dict:
    """One domain record as a JSON-able dict (the cell wire format).

    The inverse of :func:`record_from_obj`; the service's record pushes
    and the supervised worker's result frames both use it, so a record
    round-trips through any number of pipe/socket hops byte-identically
    once re-serialised canonically.
    """
    return dict(vars(record))


def record_from_obj(payload: dict):
    """Rebuild a domain record from its JSON dict (``domain``-tag dispatch)."""
    from repro.sim.domains import record_class_for

    return record_class_for(payload.get("domain", "kernel"))(**payload)


@dataclass(frozen=True)
class CampaignRequest:
    """Everything one campaign run needs, as one serialisable value.

    Exactly one of ``matrix`` (a built-in matrix name, resolved with
    ``seed``/``scale``) or ``specs`` (explicit cells) may be set; ``shard``
    selects the ``k``-th of ``n`` contiguous partitions of the resolved
    list.  ``workers`` and ``cache`` configure local execution
    (:func:`execute_request`): ``workers >= 2`` runs the cells on a
    supervised fleet of that many worker processes, with its failure
    model (a cell that raises or keeps killing workers becomes a
    :class:`~repro.sim.campaign.CellErrorRecord` in its slot), while
    ``None`` or 1 runs the in-process serial loop, the reference, where
    such a cell raises.  A service executing the request uses its own
    fleet and cache and ignores both.  ``priority`` orders the request
    against other clients' sweeps on a service (higher runs first); local
    execution ignores it.  ``metrics`` asks the CLI front ends to dump a
    :mod:`repro.obs` telemetry snapshot to that path after the run; like
    every telemetry knob it is out-of-band - record streams are
    byte-identical with or without it.
    """

    matrix: str | None = None
    specs: tuple = ()
    seed: int = 2005
    scale: int = 1
    shard: tuple[int, int] | None = None
    workers: int | None = None
    cache: str | None = None
    priority: int = 0
    metrics: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        if self.shard is not None:
            object.__setattr__(self, "shard", tuple(self.shard))
        if self.matrix and self.specs:
            raise ValueError(
                "a campaign request takes a named matrix or explicit specs, not both")

    def resolve_specs(self) -> list:
        """The concrete spec list: matrix lookup, then shard slicing."""
        from repro.sim.campaign import available_matrices, shard_bounds

        if self.matrix:
            matrices = available_matrices()
            if self.matrix not in matrices:
                raise ValueError(
                    f"unknown matrix {self.matrix!r}; "
                    f"pick from {', '.join(sorted(matrices))}")
            specs = matrices[self.matrix](self.seed, self.scale)
        else:
            specs = list(self.specs)
        if self.shard is not None:
            low, high = shard_bounds(len(specs), self.shard)
            specs = specs[low:high]
        return specs

    def with_shard(self, shard: tuple[int, int] | None) -> CampaignRequest:
        """The same request restricted to one shard partition."""
        return dataclasses.replace(self, shard=shard)

    def to_obj(self) -> dict:
        """The canonical JSON-able form (the service ``submit`` payload)."""
        return {
            "matrix": self.matrix,
            "specs": [spec_to_obj(spec) for spec in self.specs],
            "seed": self.seed,
            "scale": self.scale,
            "shard": list(self.shard) if self.shard is not None else None,
            "workers": self.workers,
            "cache": self.cache,
            "priority": self.priority,
            "metrics": self.metrics,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> CampaignRequest:
        """Rebuild a request from :meth:`to_obj` output (exact round trip)."""
        if not isinstance(obj, dict):
            raise ValueError(f"campaign request must be an object, got {type(obj).__name__}")
        shard = obj.get("shard")
        return cls(
            matrix=obj.get("matrix"),
            specs=tuple(spec_from_obj(spec) for spec in obj.get("specs", ())),
            seed=obj.get("seed", 2005),
            scale=obj.get("scale", 1),
            shard=tuple(shard) if shard is not None else None,
            workers=obj.get("workers"),
            cache=obj.get("cache"),
            priority=obj.get("priority", 0),
            metrics=obj.get("metrics"),
        )


def execute_request(request: CampaignRequest, *, stream_path=None,
                    collect: bool | None = None, on_record=None, cache=None):
    """Run a :class:`CampaignRequest` locally - the one runner core.

    ``stream_path`` appends each record to that file as one canonical JSON
    line as soon as it is ready, in input order; ``collect`` defaults to
    False when streaming and True otherwise; ``on_record`` is called with
    each record in input order.  ``cache`` (a directory path or a
    :class:`~repro.sim.campaign.cache.RecordCache`) overrides
    ``request.cache``; either way, replayed cells interleave exactly where
    a cold run would have produced them, so the output - stream bytes
    included - is byte-identical to a cold run.

    ``request.workers >= 2`` computes the cache misses on a supervised
    fleet of ``min(workers, misses)`` worker processes: a cell that raises
    in its worker, or that keeps killing workers, comes back as a
    :class:`~repro.sim.campaign.CellErrorRecord` in its slot, and a fleet
    that dies past its respawn budget raises
    :class:`~repro.sim.service.supervisor.WorkerPoolError`.  Otherwise
    the cells run serially in this process, and a cell that raises
    propagates.  Records are pure functions of their specs and come back
    in input order, so a run whose cells all compute is byte-identical
    for every ``workers`` value.
    """
    from repro import obs
    from repro.sim.campaign import CampaignResult, _record_json, run_scenario
    from repro.sim.campaign.cache import RecordCache

    specs = request.resolve_specs()
    workers = request.workers
    if cache is None:
        cache = request.cache
    if cache is not None and not isinstance(cache, RecordCache):
        cache = RecordCache(cache)
    if collect is None:
        collect = stream_path is None
    records: list = []
    stream = open(stream_path, "a", encoding="utf-8") if stream_path is not None else None

    def consume(record) -> None:
        if stream is not None:
            stream.write(_record_json(record) + "\n")
        if collect:
            records.append(record)
        if on_record is not None:
            on_record(record)

    cached = [None] * len(specs) if cache is None else [cache.get(s) for s in specs]
    misses = [s for s, hit in zip(specs, cached) if hit is None]

    # Out-of-band telemetry, counted parent-side so fleet workers (whose
    # process-local registries die with them) still show up: every cell
    # requested, every cache replay, every freshly computed record.
    if obs.REGISTRY.enabled:
        requested = obs.counter("campaign.cells.requested",
                                "Cells resolved into this run, by domain")
        replayed = obs.counter("campaign.cells.cached",
                               "Cells replayed from the record cache")
        for spec in specs:
            requested.inc(domain=spec.domain)
        for spec, hit in zip(specs, cached):
            if hit is not None:
                replayed.inc(domain=spec.domain)

    def computed(record, spec) -> object:
        if cache is not None:
            cache.put(spec, record)
        if obs.REGISTRY.enabled:
            obs.counter("campaign.cells.computed",
                        "Cells computed by this run").inc(domain=spec.domain)
        return record

    try:
        if workers is not None and workers >= 2 and misses:
            # asyncio and the fleet load only on this branch: their
            # ~90 ms import must not reach a serial run's start-up
            import asyncio

            asyncio.run(_run_on_fleet(specs, cached, misses, min(workers, len(misses)),
                                      consume, computed))
        else:
            for spec, hit in zip(specs, cached):
                consume(hit if hit is not None
                        else computed(run_scenario(spec), spec))
    finally:
        if stream is not None:
            stream.close()
    return CampaignResult(records=records)


async def _run_on_fleet(specs, cached, misses, size, consume, computed) -> None:
    """:func:`execute_request`'s ``workers >= 2`` executor.

    Runs ``misses`` on a ``size``-worker fleet with at most ``size``
    ``run_cell`` calls outstanding (each waiting checkout polls the
    fleet), consumes every record in spec order as it arrives, and
    drains the fleet on every exit path.  A :class:`CellFailed` becomes
    its :class:`~repro.sim.campaign.CellErrorRecord` in that slot,
    neither cached nor counted as computed.
    """
    import asyncio

    from repro.sim.service.supervisor import CellFailed, WorkerSupervisor

    supervisor = WorkerSupervisor(size)
    slots = asyncio.Semaphore(size)

    async def compute(spec):
        async with slots:
            return await supervisor.run_cell(spec)

    tasks: list[asyncio.Task] = []
    try:
        await supervisor.start()
        tasks = [asyncio.create_task(compute(spec)) for spec in misses]
        fresh = iter(tasks)
        for spec, hit in zip(specs, cached):
            if hit is None:
                try:
                    hit = computed(await next(fresh), spec)
                except CellFailed as exc:
                    hit = exc.record(spec)
            consume(hit)
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await supervisor.stop()
