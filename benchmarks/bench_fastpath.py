"""Trace engine vs reference interpreter: speedup and bit-exactness.

Runs the AutoIndy suite on all three cores' fetch paths - the Table 1
configurations plus the ARM1156 with its instruction and data caches -
and on the Cortex-M3 under an IRQ storm (one IRQ per about ``STORM_GAP``
cycles of the kernel run, all raised before the call, so requests are
queued for almost the whole run) through the two execution engines (see the
execution-engines section of :mod:`repro.core.cpu`): the trace engine
(``cpu.fastpath = True``, the default) and the reference interpreter.
Compile time is excluded, and each kernel is timed interleaved (the
engines alternate round by round, best of ``ROUNDS`` kept) so the ratio
survives machine noise.  Asserts that

* result, cycle count, instruction count, **the full bus statistics**
  (reads, writes, total stalls), on the ARM1156 both caches' statistics
  and line state (valid, tag, data, parity, LRU stamps and clock) and,
  under the storm, the NVIC's serviced and tail-chained counts are
  identical across both engines (the trace engine is an execution
  engine, not an approximation), and
* the trace engine is at least ``SPEEDUP_FLOOR`` times faster
  wall-clock over the whole sweep.

Also fans a Figure 4-flavoured interrupt-storm matrix through the
campaign runner at one and two workers and asserts byte-identical output,
and microbenchmarks the ``SystemBus.device_at`` decode.

Reduced-iteration mode (CI smoke): set ``REPRO_BENCH_REDUCED=1`` to shrink
the workload scale and drop the speedup floor to just-above-parity - tiny
runs on noisy shared runners measure compile caches more than execution,
so the smoke job checks machinery and bit-exactness, not the headline
ratio.
"""

from __future__ import annotations

import os
import time

from conftest import report

from repro.codegen import compile_program
from repro.core import FLASH_BASE, SRAM_BASE, build_machine
from repro.memory.bus import SystemBus
from repro.memory.sram import Sram
from repro.sim.campaign import (
    CampaignRequest,
    InterruptProfile,
    execute_request,
    interrupt_sweep_matrix,
)
from repro.sim.domains.kernel import _build_irq_tick
from repro.sim.rng import DeterministicRng
from repro.workloads import TABLE1_CONFIGS
from repro.workloads.kernels import AUTOINDY_SUITE

REDUCED = os.environ.get("REPRO_BENCH_REDUCED") == "1"
SCALE = 4 if REDUCED else 16
ROUNDS = 2 if REDUCED else 3
SPEEDUP_FLOOR = 1.05 if REDUCED else 2.0

#: (label, core, ISA, IRQ storm?): the three cores' fetch paths -
#: shared-bus flash (ARM7), Harvard flash (M3), the ARM1156's instruction
#: and data caches - and the M3 again under an IRQ storm
CONFIGS = (tuple((label, core, isa, False) for label, core, isa in TABLE1_CONFIGS)
           + (("ARM1156 (Thumb-2)", "arm1156", "thumb2", False),
              ("M3 (Thumb-2) + IRQ storm", "m3", "thumb2", True)))
#: mean cycles between the storm's IRQs
STORM_GAP = 2000

#: (label, fastpath)
ENGINES = (("trace", True), ("reference", False))


def _run_once(core: str, program, entry: str, prepared, fastpath: bool,
              storm=()):
    """One timed call; ``storm`` is the ``(number, cycle, priority)``
    IRQs raised on the NVIC before it.  The record ends with the state of
    each cache the machine has (none but the ARM1156's)."""
    machine = build_machine(core, program)
    cpu, bus = machine.cpu, machine.bus
    cpu.fastpath = fastpath
    machine.load_data(SRAM_BASE, prepared.data)
    for number, cycle, priority in storm:
        cpu.nvic.raise_irq(number, handler=program.symbols["irq_tick"],
                           at_cycle=cycle, priority=priority)
    start = time.perf_counter()
    result = machine.call(entry, *prepared.args(SRAM_BASE))
    elapsed = time.perf_counter() - start
    irqs = (cpu.nvic.stats.serviced, cpu.nvic.stats.tail_chained) if storm else ()
    caches = tuple(cache.snapshot() for cache in (machine.icache, machine.dcache)
                   if cache is not None)
    record = (result, cpu.cycles, cpu.instructions_executed,
              bus.reads, bus.writes, bus.total_stalls) + irqs + caches
    return elapsed, record


def run_config(core: str, isa: str, storm: bool) -> tuple[dict, int, int]:
    """Interleaved best-of-ROUNDS per kernel for both engines: summed
    execution times by engine, the instructions one sweep executes, and
    the IRQs it services."""
    times = {label: 0.0 for label, _ in ENGINES}
    instructions = serviced = 0
    for workload in AUTOINDY_SUITE:
        fn = workload.build()
        functions = [fn, _build_irq_tick()] if storm else [fn]
        program = compile_program(functions, isa, base=FLASH_BASE)
        prepared = workload.make_input(DeterministicRng(2005), SCALE)
        expected = workload.reference(prepared.data, *prepared.args(0))
        schedule = ()
        if storm:
            # spread over the quiet run, as the engine benchmark's storm
            _, quiet = _run_once(core, program, fn.name, prepared, True)
            profile = InterruptProfile(count=max(1, quiet[1] // STORM_GAP),
                                       mean_gap=STORM_GAP)
            schedule = profile.schedule(DeterministicRng(2005))
        best = {}
        records = {}
        for _ in range(ROUNDS):
            for label, fastpath in ENGINES:
                elapsed, records[label] = _run_once(core, program, fn.name,
                                                    prepared, fastpath, schedule)
                assert records[label][0] == expected
                best[label] = min(elapsed, best.get(label, elapsed))
        assert records["trace"] == records["reference"], (
            f"engines diverged on {core}/{isa}/{workload.name} "
            f"(result/cycles/instructions/bus statistics/IRQs serviced/"
            f"cache state)")
        for label in times:
            times[label] += best[label]
        instructions += records["trace"][2]
        if storm:
            serviced += records["trace"][6]
    return times, instructions, serviced


def compute_fastpath():
    rows = []
    totals = {label: 0.0 for label, _ in ENGINES}
    for label, core, isa, storm in CONFIGS:
        times, instructions, serviced = run_config(core, isa, storm)
        assert serviced or not storm, f"{label}: the storm was never serviced"
        for engine, elapsed in times.items():
            totals[engine] += elapsed
        rows.append((label, times["trace"], times["reference"]))
    speedup = totals["reference"] / totals["trace"]

    # campaign determinism under parallel fan-out (Figure 4-style storm)
    matrix = interrupt_sweep_matrix(rates=(800, 200), scale=2 if REDUCED else 4)
    serial = execute_request(CampaignRequest(specs=tuple(matrix), workers=1))
    parallel = execute_request(CampaignRequest(specs=tuple(matrix), workers=2))
    assert serial.to_json() == parallel.to_json(), "campaign worker-count dependence"
    assert serial.all_verified

    return {"rows": rows, "speedup": speedup,
            "campaign_records": len(serial.records)}


def test_fastpath_speedup(benchmark):
    outcome = benchmark.pedantic(compute_fastpath, rounds=1, iterations=1)
    lines = [
        f"{label:<26} trace {fast * 1000:7.1f} ms   reference {slow * 1000:7.1f} ms"
        f"   ({slow / fast:4.2f}x)"
        for label, fast, slow in outcome["rows"]
    ]
    lines.append(f"{'sweep total':<26} speedup {outcome['speedup']:.2f}x "
                 f"(identical results/cycles/bus stats/cache state/IRQs serviced; "
                 f"floor {SPEEDUP_FLOOR}x)")
    lines.append(f"campaign: {outcome['campaign_records']} interrupt-storm "
                 f"scenarios byte-identical at 1 and 2 workers")
    report("Trace engine vs reference interpreter (AutoIndy, all three "
           "cores, M3 also under an IRQ storm)", lines)
    benchmark.extra_info["speedup"] = round(outcome["speedup"], 2)
    benchmark.extra_info["reduced"] = REDUCED
    assert outcome["speedup"] >= SPEEDUP_FLOOR, (
        f"trace engine only {outcome['speedup']:.2f}x (floor {SPEEDUP_FLOOR}x)")


# ----------------------------------------------------------------------
# SystemBus.device_at microbenchmark (bisect + last-hit vs linear scan)
# ----------------------------------------------------------------------

DEVICES = 24
LOOKUPS = 20_000 if REDUCED else 200_000


def _linear_device_at(devices, addr):
    """The pre-bisect decode: scan every device in base order."""
    for device in devices:
        if device.base <= addr < device.base + device.size:
            return device
    return None


def _many_device_bus() -> SystemBus:
    bus = SystemBus()
    for index in range(DEVICES):
        bus.attach(Sram(base=0x1000_0000 * (index + 1) // 4, size=0x1000))
    return bus


def _lookup_addresses():
    rng = DeterministicRng(7)
    spans = [(0x1000_0000 * (index + 1) // 4, 0x1000) for index in range(DEVICES)]
    addresses = []
    # sequential bursts with occasional device switches: the access shape
    # the last-hit span caches are built for (and how cores actually walk)
    for _ in range(LOOKUPS // 16):
        base, size = spans[rng.randint(0, len(spans) - 1)]
        start = base + rng.randint(0, size - 65)
        addresses.extend(start + 4 * i for i in range(16))
    return addresses


def test_bus_device_lookup(benchmark):
    bus = _many_device_bus()
    addresses = _lookup_addresses()

    def timed(fn):
        t0 = time.perf_counter()
        out = [fn(a) for a in addresses]
        return time.perf_counter() - t0, out

    def run_both():
        cached_time, cached = timed(bus.device_at)
        linear_time, linear = timed(
            lambda a, devices=bus._devices: _linear_device_at(devices, a))
        assert cached == linear, "bisect+cache decode disagrees with linear scan"
        return {"cached_ms": cached_time * 1e3, "linear_ms": linear_time * 1e3,
                "win": linear_time / cached_time}

    outcome = benchmark.pedantic(run_both, rounds=1, iterations=1)
    report(f"SystemBus.device_at: bisect + last-hit cache vs linear scan "
           f"({DEVICES} devices, {len(addresses)} lookups)",
           [f"cached {outcome['cached_ms']:8.1f} ms",
            f"linear {outcome['linear_ms']:8.1f} ms",
            f"win    {outcome['win']:8.2f}x"])
    benchmark.extra_info["lookup_win"] = round(outcome["win"], 2)
    if not REDUCED:
        assert outcome["win"] >= 1.5, (
            f"device decode only {outcome['win']:.2f}x over the linear scan")
