"""Which program functions the traced run wraps, and the per-layer
metrics computed from the spans and counts those wrappers record.

Every wrapper sits on a public function of one ``repro`` module, so each
layer metric names the module whose code it timed or counted.  Counts are
taken at the same boundaries as the spans (instructions and bus accesses
around ``Machine.call`` and ``BaseCpu.run_until_cycle``, sleeping cores
at ``Ecu.advance_to_cycle`` entry), so ratios are measured where the work
happens.
"""

from __future__ import annotations

import contextvars
import statistics
from time import perf_counter

#: the engine workload's five core configurations, as metric suffixes
ENGINE_CONFIGS = ("arm7-arm", "arm7-thumb", "m3", "arm1156", "m3-irq")
#: every scenario domain a metric is reported for
DOMAINS = ("kernel", "osek", "can", "soft_error", "lin", "wcet", "vehicle",
           "vehicle_fault")
#: event-callback groups, by the module or closure that scheduled them
CALLBACK_GROUPS = ("pump", "can", "lin", "other")

_CORE_NAMES = {"Arm7Core": "arm7", "CortexM3Core": "m3", "Arm1156Core": "arm1156"}


def config_of(cpu, spec) -> str:
    """The engine configuration a core model is running, as in
    :data:`ENGINE_CONFIGS` (an M3 under an IRQ storm is ``m3-irq``)."""
    core = _CORE_NAMES.get(type(cpu).__name__, "other")
    if core == "arm7":
        return f"arm7-{cpu.program.isa}"
    if core == "m3" and spec is not None and getattr(spec, "interrupts", None):
        return "m3-irq"
    return core


def callback_group(callback) -> str:
    """Pump, CAN, LIN or other, from the callback's qualified name."""
    func = getattr(callback, "func", callback)  # functools.partial
    func = getattr(func, "__func__", func)  # bound method
    qualname = getattr(func, "__qualname__", "")
    module = getattr(func, "__module__", "") or ""
    if qualname.endswith("run.<locals>.pump"):
        return "pump"
    if module.startswith("repro.network.can"):
        return "can"
    if module.startswith("repro.network.lin"):
        return "lin"
    return "other"


class Layers:
    """Installs the wrappers on a :class:`~perfbench.tracer.Tracer` and
    keeps the cross-phase maps the fleet metrics need."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.cell = contextvars.ContextVar("perfbench_cell", default=None)
        self.submitted: dict[str, float] = {}  # spec key -> submit time
        self.rtt: dict[str, float] = {}  # spec key -> run_cell round trip

    def install(self) -> None:
        import repro.codegen.lower as lower
        import repro.core.machines as machines
        import repro.core.superblock as superblock
        import repro.sim.campaign.request as request_mod
        import repro.sim.service.protocol as protocol
        import repro.vehicle.vehicle as vehicle_mod
        from repro.core.cpu import BaseCpu
        from repro.core.machines import Machine
        from repro.sim.campaign.cache import MemoryRecordCache, RecordCache
        from repro.sim.domains import domain_names, get_domain
        from repro.sim.events import EventScheduler
        from repro.sim.service.server import CampaignService
        from repro.sim.service.supervisor import WorkerSupervisor
        from repro.vehicle.ecu import Ecu

        tracer = self.tracer
        counters = lambda: tracer.phase.counters  # noqa: E731 - the live phase

        # repro.sim.domains: build and execute of every registered domain
        cell = self.cell
        for name in domain_names():
            cls = type(get_domain(name))
            tracer.wrap_sync(cls, "build", f"domains.build.{name}")
            tracer.wrap_sync(cls, "execute", f"domains.execute.{name}",
                             before=lambda args, kwargs: cell.set(args[1]),
                             after=lambda a, k, r, token, d: cell.reset(token))

        # repro.codegen and repro.core: compile, machine build, fusion
        tracer.wrap_function(lower, "compile_program", "codegen.compile")
        tracer.wrap_function(machines, "build_machine", "core.machine_build")
        tracer.wrap_function(vehicle_mod, "build_guest_machine", "core.machine_build")
        tracer.wrap_function(superblock, "fuse_block", "core.fuse")

        def bus_state(cpu, bus):
            return (cpu.instructions_executed, bus.reads + bus.writes, bus.total_stalls)

        def count_bus(cpu, bus, state) -> int:
            c = counters()
            c["memory.bus_accesses"] += bus.reads + bus.writes - state[1]
            c["memory.stall_cycles"] += bus.total_stalls - state[2]
            return cpu.instructions_executed - state[0]

        def call_after(args, kwargs, result, state, duration):
            machine = args[0]
            instructions = count_bus(machine.cpu, machine.bus, state)
            config = config_of(machine.cpu, cell.get())
            c = counters()
            c[f"call_s.{config}"] += duration
            c[f"call_instr.{config}"] += instructions

        tracer.wrap_sync(Machine, "call", "core.call",
                         before=lambda args, kwargs: bus_state(args[0].cpu, args[0].bus),
                         after=call_after)

        def cosim_after(args, kwargs, result, state, duration):
            cpu = args[0]
            counters()["cosim_instr"] += count_bus(cpu, cpu.bus, state)

        tracer.wrap_sync(BaseCpu, "run_until_cycle", "core.run_until_cycle",
                         before=lambda args, kwargs: bus_state(args[0], args[0].bus),
                         after=cosim_after)

        # repro.vehicle: the co-sim pump's advances and whole-vehicle runs
        def advance_before(args, kwargs):
            ecu = args[0]
            c = counters()
            c["vehicle.advances"] += 1
            if ecu.cpu.sleeping and not ecu.controller.queue:
                c["idle_advances"] += 1

        tracer.wrap_sync(Ecu, "advance_to_cycle", "vehicle.advance",
                         before=advance_before)

        def run_after(args, kwargs, result, state, duration):
            horizon = args[1] if len(args) > 1 else kwargs["horizon_us"]
            counters()["sim_us"] += horizon

        tracer.wrap_sync(vehicle_mod.VirtualVehicle, "run", "vehicle.run",
                         after=run_after)

        # repro.sim.events: the scheduler loop and every scheduled callback
        tracer.wrap_sync(EventScheduler, "run", "events.run")
        original_at = EventScheduler.at
        groups: dict = {}

        def at(scheduler, time, callback, priority=0):
            key = getattr(getattr(callback, "__func__", callback), "__code__",
                          type(callback))
            group = groups.get(key)
            if group is None:
                group = groups[key] = f"events.cb.{callback_group(callback)}"

            def fire():
                span, token = tracer.open(group)
                try:
                    return callback()
                finally:
                    tracer.close(span, token)

            return original_at(scheduler, time, fire, priority)

        tracer.replace(EventScheduler, "at", original_at, at)

        # repro.sim.service: submit, the fleet round trip, the protocol
        tracer.wrap_sync(CampaignService, "submit", "service.submit",
                         before=lambda args, kwargs: perf_counter(),
                         after=self._submitted)
        tracer.wrap_async(WorkerSupervisor, "run_cell", "fleet.run_cell",
                          before=lambda args, kwargs: perf_counter(),
                          after=self._ran)
        for module, attr in ((protocol, "encode_message"), (protocol, "decode_message"),
                             (request_mod, "record_to_obj"),
                             (request_mod, "record_from_obj"),
                             (request_mod, "spec_to_obj")):
            tracer.wrap_function(module, attr, "service.encode")

        # repro.sim.campaign.cache: both record-cache flavours
        def get_after(args, kwargs, result, state, duration):
            counters()["cache.misses" if result is None else "cache.hits"] += 1

        for cls in (RecordCache, MemoryRecordCache):
            tracer.wrap_sync(cls, "get", "cache.get", after=get_after)
            tracer.wrap_sync(cls, "put", "cache.put")

    # ``after`` hooks: (args, kwargs, result, what ``before`` returned, duration)

    def _submitted(self, args, kwargs, request_state, started, duration) -> None:
        for spec in request_state.specs:
            self.submitted.setdefault(spec.key(), started)

    def _ran(self, args, kwargs, record, started, duration) -> None:
        key = args[1].key()
        self.rtt[key] = duration
        submitted = self.submitted.get(key)
        if submitted is not None:
            self.tracer.phase.samples["service.queue_wait"].append(started - submitted)


# ----------------------------------------------------------------------
# metrics from phases
# ----------------------------------------------------------------------

def _ms(seconds: float) -> float:
    return seconds * 1e3


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def engine_layer_metrics(phase, passes: int) -> dict:
    """Per-pass layer metrics of the simulator itself (core, memory,
    codegen, domains, vehicle, events, network) from one traced phase."""
    c = phase.counters
    total = phase.total
    self_time = phase.self_time
    count = phase.count
    per = 1.0 / max(passes, 1)
    out: dict = {}
    for config in ENGINE_CONFIGS:
        out[f"core.ns_per_instr.{config}"] = 1e9 * _ratio(
            c[f"call_s.{config}"], c[f"call_instr.{config}"])
    built = c["blocks_built"] * per
    fused = count["core.fuse"] * per
    out.update({
        "core.blocks_built": built,
        "core.blocks_fused": fused,
        "core.fused_frac": _ratio(fused, built),
        "core.fuse_ms": _ms(total["core.fuse"]) * per,
        "core.machine_build_ms": _ms(total["core.machine_build"]) * per,
        "core.cosim_ms": _ms(total["core.run_until_cycle"]) * per,
        "core.cosim_calls": count["core.run_until_cycle"] * per,
        "core.cosim_instr_per_call": _ratio(c["cosim_instr"], count["core.run_until_cycle"]),
        "memory.bus_accesses": c["memory.bus_accesses"] * per,
        "memory.stall_cycles": c["memory.stall_cycles"] * per,
        "codegen.programs": count["codegen.compile"] * per,
        "codegen.compile_ms": _ms(total["codegen.compile"]) * per,
    })
    for domain in DOMAINS:
        for step in ("build", "execute"):
            name = f"domains.{step}.{domain}"
            out[f"domains.{step}_ms.{domain}"] = _ms(_ratio(total[name], count[name]))
    advances = c["vehicle.advances"]
    pump_events = count["events.cb.pump"]
    out.update({
        "vehicle.advances": advances * per,
        "vehicle.idle_advance_frac": _ratio(c["idle_advances"], advances),
        "vehicle.advance_ms": _ms(total["vehicle.advance"]) * per,
        "vehicle.pump_ms": _ms(self_time["events.cb.pump"]) * per,
        "vehicle.us_per_sim_ms": _ratio(1e6 * total["vehicle.run"], c["sim_us"] / 1e3),
        "vehicle.pump_events_per_kinstr": _ratio(pump_events, c["cosim_instr"] / 1e3),
        "events.fired": sum(count[f"events.cb.{g}"] for g in CALLBACK_GROUPS) * per,
        "events.self_ms": _ms(self_time["events.run"]) * per,
        "network.can_ms": _ms(self_time["events.cb.can"]) * per,
        "network.lin_ms": _ms(self_time["events.cb.lin"]) * per,
    })
    return out


#: the fleet-side layer metrics; the serial workloads report them as 0
SERVICE_METRICS = (
    "service.queue_wait_ms", "service.encode_ms", "service.dedup_frac",
    "fleet.rtt_ms", "fleet.dispatch_overhead_ms", "fleet.busy_frac",
    "fleet.lost", "fleet.requeues", "fleet.respawns",
    "cache.hits", "cache.misses", "cache.get_us", "cache.put_us")


def service_layer_metrics(phase, workers: int, replayed_compute: dict,
                          rtt: dict, done: list) -> dict:
    """Fleet-side layer metrics (service, supervisor, cache) from the
    traced timed phase; ``replayed_compute`` maps spec keys to the
    in-process compute time of the same cell."""
    c = phase.counters
    rtts = phase.samples["fleet.run_cell"]
    overheads = [rtt[key] - compute for key, compute in replayed_compute.items()
                 if key in rtt]
    requested = sum(summary["cells"] for summary in done)
    deduped = sum(summary["replayed"] + summary["joined"] for summary in done)
    return {
        "service.queue_wait_ms": _ms(_median(phase.samples["service.queue_wait"])),
        "service.encode_ms": _ms(phase.total["service.encode"]),
        "service.dedup_frac": _ratio(deduped, requested),
        "fleet.rtt_ms": _ms(_median(rtts)),
        "fleet.dispatch_overhead_ms": _ms(_median(overheads)),
        "fleet.busy_frac": _ratio(sum(rtts), workers * phase.wall),
        "cache.hits": c["cache.hits"],
        "cache.misses": c["cache.misses"],
        "cache.get_us": 1e6 * _median(phase.samples["cache.get"]),
        "cache.put_us": 1e6 * _median(phase.samples["cache.put"]),
    }


def attribution(phase, passes: int) -> list[tuple[str, float]]:
    """(span name, self ms per pass) for every span seen, largest first."""
    per = 1.0 / max(passes, 1)
    rows = [(name, _ms(value) * per) for name, value in phase.self_time.items()
            if phase.count[name]]
    return sorted(rows, key=lambda row: -row[1])
