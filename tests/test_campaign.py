"""Campaign runner: determinism across worker counts, harness equivalence,
and interrupt-profile behaviour."""

from __future__ import annotations

import glob
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.campaign import (
    CampaignRequest,
    CampaignResult,
    CellErrorRecord,
    InterruptProfile,
    ScenarioSpec,
    execute_request,
    interrupt_sweep_matrix,
    read_campaign_stream,
    run_scenario,
    table1_matrix,
)
from repro.workloads import run_kernel, table1
from repro.workloads.kernels import AUTOINDY_SUITE, WORKLOADS_BY_NAME


def small_matrix() -> list[ScenarioSpec]:
    return [
        ScenarioSpec(label="m3", core="m3", isa="thumb2", workload=w.name,
                     seed=11, scale=1)
        for w in AUTOINDY_SUITE[:4]
    ] + [
        ScenarioSpec(label="arm7", core="arm7", isa="thumb", workload=w.name,
                     seed=11, scale=1)
        for w in AUTOINDY_SUITE[:2]
    ]


def test_campaign_byte_identical_across_worker_counts():
    specs = small_matrix()
    serial = execute_request(CampaignRequest(specs=tuple(specs), workers=1))
    two = execute_request(CampaignRequest(specs=tuple(specs), workers=2))
    three = execute_request(CampaignRequest(specs=tuple(specs), workers=3))
    assert serial.to_json() == two.to_json() == three.to_json()
    assert serial.all_verified


def test_scenario_rng_is_pure_function_of_spec():
    spec_a = ScenarioSpec(label="x", core="m3", isa="thumb2",
                          workload="canrdr", seed=3)
    spec_b = ScenarioSpec(label="x", core="m3", isa="thumb2",
                          workload="canrdr", seed=3)
    assert [spec_a.rng().random() for _ in range(5)] == \
           [spec_b.rng().random() for _ in range(5)]
    # a different cell gets an independent stream
    other = ScenarioSpec(label="x", core="m3", isa="thumb2",
                         workload="bitmnp", seed=3)
    assert spec_a.rng().random() != other.rng().random()


def test_scenario_matches_harness_kernel_run():
    """A campaign cell reproduces run_kernel() cycle-for-cycle.  The two
    share one runner, so run_kernel() takes the ARM1156 too."""
    for workload, core, scale in ((AUTOINDY_SUITE[0], "m3", 2),
                                  (WORKLOADS_BY_NAME["tblook"], "arm1156", 1)):
        reference = run_kernel(workload, core, "thumb2", seed=2005, scale=scale)
        record = run_scenario(ScenarioSpec(label="t", core=core, isa="thumb2",
                                           workload=workload.name,
                                           seed=2005, scale=scale))
        assert record.to_kernel_run() == reference
        assert reference.verified


def test_table1_parallel_equals_serial():
    serial = table1(seed=2005, scale=1)
    parallel = table1(seed=2005, scale=1, workers=2)
    for a, b in zip(serial, parallel):
        assert a.runs == b.runs
        assert a.suite_code_bytes == b.suite_code_bytes
        assert a.geometric_mean == b.geometric_mean


def test_interrupt_profile_delivers_and_stays_verified():
    spec = ScenarioSpec(label="irq", core="m3", isa="thumb2",
                        workload="canrdr", scale=4,
                        interrupts=InterruptProfile(count=6, mean_gap=60))
    record = run_scenario(spec)
    quiet = run_scenario(ScenarioSpec(label="q", core="m3", isa="thumb2",
                                      workload="canrdr", scale=4))
    assert record.verified
    assert record.irqs_serviced == 6
    assert record.irq_ticks == 6            # the handler really ran 6 times
    assert record.cycles > quiet.cycles     # and the storm cost cycles
    assert record.result == quiet.result    # without corrupting the kernel


def test_interrupt_profile_rejected_on_vic_cores():
    spec = ScenarioSpec(label="bad", core="arm7", isa="thumb",
                        workload="canrdr", interrupts=InterruptProfile())
    with pytest.raises(ValueError, match="hardware stacking"):
        run_scenario(spec)


def test_matrix_builders_cover_expected_cells():
    assert len(table1_matrix()) == 3 * len(AUTOINDY_SUITE)
    sweep = interrupt_sweep_matrix(rates=(500, 250), scale=1)
    assert len(sweep) == 2 * len(AUTOINDY_SUITE)
    assert all(s.interrupts is not None for s in sweep)


def test_campaign_interrupt_storm_deterministic_and_parallel():
    matrix = interrupt_sweep_matrix(rates=(400,), scale=2)
    serial = execute_request(CampaignRequest(specs=tuple(matrix), workers=1))
    parallel = execute_request(CampaignRequest(specs=tuple(matrix), workers=2))
    assert serial.to_json() == parallel.to_json()
    assert serial.all_verified
    assert any(r.irqs_serviced for r in serial.records)


def test_campaign_streams_records_to_jsonl(tmp_path):
    """stream_path appends one canonical JSON line per scenario, in input
    order, byte-identical across worker counts, without keeping records
    in memory unless asked."""
    matrix = small_matrix()
    request = CampaignRequest(specs=tuple(matrix), workers=1)
    collected = execute_request(request)

    serial_path = tmp_path / "serial.jsonl"
    streamed = execute_request(request, stream_path=serial_path)
    assert streamed.records == []          # collect defaults off when streaming
    loaded = read_campaign_stream(serial_path)
    assert loaded == collected.records

    parallel_path = tmp_path / "parallel.jsonl"
    execute_request(CampaignRequest(specs=tuple(matrix), workers=2),
                    stream_path=parallel_path)
    assert parallel_path.read_bytes() == serial_path.read_bytes()

    # append semantics: a second run extends the file (resumable sweeps)
    execute_request(CampaignRequest(specs=tuple(matrix[:2]), workers=1),
                    stream_path=serial_path)
    assert read_campaign_stream(serial_path) == collected.records + collected.records[:2]


def test_campaign_stream_with_collect_keeps_records(tmp_path):
    matrix = small_matrix()[:3]
    path = tmp_path / "both.jsonl"
    result = execute_request(CampaignRequest(specs=tuple(matrix), workers=1),
                             stream_path=path, collect=True)
    assert len(result.records) == 3
    assert read_campaign_stream(path) == result.records


def test_record_cache_resumed_run_byte_identical(tmp_path):
    """A cache-assisted (resumed) run must reproduce a cold run's stream
    byte for byte - and actually replay instead of recomputing."""
    from repro.sim.campaign.cache import RecordCache

    matrix = small_matrix()
    request = CampaignRequest(specs=tuple(matrix), workers=1)
    cold_path = tmp_path / "cold.jsonl"
    execute_request(request, stream_path=cold_path)

    cache = RecordCache(tmp_path / "cache")
    first_path = tmp_path / "first.jsonl"
    execute_request(request, stream_path=first_path, cache=cache)
    assert first_path.read_bytes() == cold_path.read_bytes()
    assert cache.hits == 0 and cache.misses == len(matrix)

    # resume: every cell replays from the cache, bytes unchanged
    resumed = RecordCache(tmp_path / "cache")
    resumed_path = tmp_path / "resumed.jsonl"
    execute_request(request, stream_path=resumed_path, cache=resumed)
    assert resumed_path.read_bytes() == cold_path.read_bytes()
    assert resumed.hits == len(matrix) and resumed.misses == 0


def test_record_cache_partial_resume_and_workers(tmp_path):
    """A half-warm cache recomputes only the missing cells, interleaves
    replays in input order, and stays byte-exact under a worker pool."""
    from repro.sim.campaign.cache import RecordCache

    matrix = small_matrix()
    cold = execute_request(CampaignRequest(specs=tuple(matrix), workers=1))

    cache = RecordCache(tmp_path / "cache")
    # warm every second cell, as an interrupted sweep would have
    for spec, record in list(zip(matrix, cold.records))[::2]:
        cache.put(spec, record)
    path = tmp_path / "resumed.jsonl"
    result = execute_request(CampaignRequest(specs=tuple(matrix), workers=2),
                             stream_path=path, cache=cache, collect=True)
    assert result.to_json() == cold.to_json()
    assert cache.hits == (len(matrix) + 1) // 2
    assert cache.misses == len(matrix) // 2
    assert read_campaign_stream(path) == cold.records


def test_record_cache_ignores_corrupt_and_foreign_files(tmp_path):
    """Damaged cache files are misses (recomputed and overwritten), never
    trusted."""
    from repro.sim.campaign.cache import RecordCache

    spec = small_matrix()[0]
    cache = RecordCache(tmp_path / "cache")
    record = run_scenario(spec)
    cache.put(spec, record)

    # corrupt the stored file: not JSON at all
    cache.path_for(spec).write_text("not json", encoding="utf-8")
    assert cache.get(spec) is None
    cache.put(spec, record)
    # wrong key (foreign file / collision): also a miss
    payload = cache.path_for(spec).read_text(encoding="utf-8")
    cache.path_for(spec).write_text(payload.replace(spec.key(), "other"),
                                    encoding="utf-8")
    assert cache.get(spec) is None
    # a fresh put repairs it
    cache.put(spec, record)
    replayed = cache.get(spec)
    assert replayed == record
    # an older vehicle record schema (it carried the engine count
    # ``fused_blocks``): a stale-schema miss, recomputed and overwritten
    import json

    vehicle = ScenarioSpec(label="vehicle", domain="vehicle", seed=11,
                           params=(("sensors", 1), ("horizon_us", 20_000)))
    record = run_scenario(vehicle)
    cache.put(vehicle, record)
    path = cache.path_for(vehicle)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["record"]["fused_blocks"] = 7
    path.write_text(json.dumps(payload), encoding="utf-8")
    misses = cache.misses
    assert cache.get(vehicle) is None
    assert cache.misses == misses + 1
    cache.put(vehicle, record)
    assert "fused_blocks" not in path.read_text(encoding="utf-8")
    assert cache.get(vehicle) == record
    # a fault record with every field, whose verdicts carry another set of
    # claims (what a verdict schema change leaves behind): the record class
    # rejects the content, so it is a miss too, recomputed and overwritten
    from repro.sim.domains.vehicle_fault import vehicle_fault_matrix

    fault = vehicle_fault_matrix(2005, 1)[0]
    record = run_scenario(fault)
    cache.put(fault, record)
    path = cache.path_for(fault)
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["record"]["verdicts"]["recovery"]
    payload["record"]["verdicts"]["data_age"] = True
    path.write_text(json.dumps(payload), encoding="utf-8")
    misses = cache.misses
    assert cache.get(fault) is None
    assert cache.misses == misses + 1
    cache.put(fault, record)
    assert "data_age" not in path.read_text(encoding="utf-8")
    assert cache.get(fault) == record


# ----------------------------------------------------------------------
# the request shape (PR 6): one object behind every front door
# ----------------------------------------------------------------------

def test_execute_request_is_keyword_only_past_request():
    """Everything past the request (stream path, cache, callbacks) is a
    keyword: a positional tail cannot be mistaken for a request field."""
    with pytest.raises(TypeError):
        execute_request(CampaignRequest(specs=tuple(small_matrix())), "out.jsonl")


def test_request_json_round_trip_is_exact():
    import json

    spec = ScenarioSpec(label="irq", core="m3", isa="thumb2",
                        workload="canrdr", scale=2,
                        machine_kwargs=(("mpu_regions", (0, 1)),),
                        interrupts=InterruptProfile(count=6, mean_gap=60))
    request = CampaignRequest(specs=(spec,), shard=(0, 2), workers=3,
                              cache="/tmp/c", priority=4)
    wired = CampaignRequest.from_obj(json.loads(json.dumps(request.to_obj())))
    assert wired == request                     # tuples and profile intact
    assert wired.specs[0].key() == spec.key()   # the cache identity survived
    named = CampaignRequest(matrix="smoke", seed=7, scale=2)
    assert CampaignRequest.from_obj(named.to_obj()) == named


def test_request_validation():
    with pytest.raises(ValueError, match="not both"):
        CampaignRequest(matrix="smoke", specs=(small_matrix()[0],))
    with pytest.raises(ValueError, match="unknown matrix"):
        CampaignRequest(matrix="warp").resolve_specs()


# ----------------------------------------------------------------------
# workers >= 2 runs on the supervised fleet, with its failure model
# ----------------------------------------------------------------------

def live_children() -> set[str]:
    """PIDs of this process's children (empty where /proc lacks them)."""
    pids: set[str] = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path, encoding="ascii") as listing:
            pids.update(listing.read().split())
    return pids


def test_pooled_run_streams_a_raising_cell_as_an_error_record(tmp_path):
    """A cell that raises in its worker becomes a typed error record in
    its slot, never cached; the healthy cells are byte-identical to the
    serial reference; no worker outlives the call.  The serial loop
    still raises."""
    from repro.sim.campaign.cache import RecordCache

    healthy = small_matrix()[:3]
    bad = ScenarioSpec(label="bad", domain="no-such-domain")
    specs = (healthy[0], bad, *healthy[1:])
    cache = RecordCache(tmp_path / "cache")
    before = live_children()
    result = execute_request(CampaignRequest(specs=specs, workers=2), cache=cache)
    assert live_children() <= before

    error = result.records[1]
    assert isinstance(error, CellErrorRecord)
    assert error.error == "compute-error" and error.key == bad.key()
    others = CampaignResult(records=result.records[:1] + result.records[2:])
    serial = execute_request(CampaignRequest(specs=tuple(healthy), workers=1))
    assert others.to_json() == serial.to_json()
    assert not cache.path_for(bad).exists()
    assert all(cache.path_for(spec).exists() for spec in healthy)

    with pytest.raises(KeyError):
        execute_request(CampaignRequest(specs=specs, workers=1))


def test_pooled_run_quarantines_a_worker_killing_cell(monkeypatch):
    """A cell that kills every worker it lands on is quarantined, not
    retried forever, and every other cell streams normally."""
    import repro.sim.service.supervisor as supervisor_mod
    from repro.sim.service import ChaosSchedule

    specs = small_matrix()[:4]
    poisoned = specs[1]

    class PoisoningSupervisor(supervisor_mod.WorkerSupervisor):
        def __init__(self, workers, **options):
            super().__init__(workers, chaos=ChaosSchedule(poison=(poisoned.key(),)),
                             **options)

    monkeypatch.setattr(supervisor_mod, "WorkerSupervisor", PoisoningSupervisor)
    result = execute_request(CampaignRequest(specs=tuple(specs), workers=2))

    error = result.records[1]
    assert isinstance(error, CellErrorRecord)
    assert error.error == "quarantined" and error.key == poisoned.key()
    others = CampaignResult(records=result.records[:1] + result.records[2:])
    serial = execute_request(CampaignRequest(specs=(specs[0], *specs[2:])))
    assert others.to_json() == serial.to_json()


def test_importing_the_campaign_core_leaves_the_fleet_unloaded():
    """The fleet (asyncio plus the service package) is imported only when
    a run uses it, so a serial run never pays its import time."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = ("import sys, repro.sim.campaign; "
             "print(sorted(m for m in ('asyncio', 'multiprocessing', "
             "'repro.sim.service') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe],
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
