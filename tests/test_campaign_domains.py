"""Scenario domains, shard determinism, and stream robustness.

Covers the domain table (osek / can / soft_error alongside kernel, each
imported on first use), the shard partitioning guarantee (concatenated shard streams are
byte-identical to the unsharded stream, for arbitrary domain mixes and
several shard counts), and ``read_campaign_stream`` failure modes
(truncated trailing line, corrupt records, unknown domains).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.campaign import (
    CampaignRequest,
    CampaignStreamError,
    ScenarioSpec,
    available_matrices,
    execute_request,
    main,
    read_campaign_stream,
    run_scenario,
    shard_bounds,
    smoke_matrix,
)
from repro.sim.domains import (
    ScenarioDomain,
    domain_names,
    get_domain,
    record_class_for,
)


# ----------------------------------------------------------------------
# the domain table
# ----------------------------------------------------------------------

def test_registry_knows_all_builtin_domains():
    assert domain_names() == ("can", "kernel", "lin", "osek", "soft_error",
                              "vehicle", "vehicle_fault", "wcet")
    for name in domain_names():
        domain = get_domain(name)
        assert isinstance(domain, ScenarioDomain)
        assert domain is sys.modules[f"repro.sim.domains.{name}"].DOMAIN
        assert domain.name == name
        assert domain.record_class is not None
        assert record_class_for(name) is domain.record_class


def test_unknown_domain_is_a_clear_error():
    with pytest.raises(KeyError, match="unknown scenario domain 'bogus'"):
        get_domain("bogus")
    with pytest.raises(KeyError, match="registered: can, kernel"):
        run_scenario(ScenarioSpec(label="x", domain="bogus"))


#: run in a fresh interpreter: look up the names given as arguments (each
#: must raise KeyError), rebuild a ``cell_error`` record, run one kernel
#: cell, and report what each step imported
_IMPORT_PROBE = """
import json, sys
from repro.sim.campaign import ScenarioSpec, run_scenario
from repro.sim.domains import get_domain, record_class_for

before = set(sys.modules)
for name in sys.argv[1:]:
    for lookup in (get_domain, record_class_for):
        try:
            lookup(name)
        except KeyError:
            continue
        raise SystemExit(f"{lookup.__name__}({name!r}) did not raise KeyError")
outside = sorted(set(sys.modules) - before)
record_class_for("cell_error")
after_cell_error = sorted(set(sys.modules) - before)
record = run_scenario(ScenarioSpec(label="k", core="m3", isa="thumb2", workload="tblook"))
print(json.dumps({"outside": outside, "cell_error": after_cell_error,
                  "verified": record.verified, "modules": sorted(sys.modules)}))
"""


def test_a_cell_imports_only_its_own_domain():
    """Domains load on first use: a fresh process that runs one kernel
    cell imports the kernel domain and no other, nor the vehicle, OSEK or
    CAN stacks the other domains stand on.  A name from outside the table
    is refused without importing anything, and rebuilding a
    ``cell_error`` record imports nothing."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    outside_names = ["", "os", "vehicle.firmware", "__init__"]
    result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *outside_names],
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout.splitlines()[-1])
    assert seen["outside"] == []
    assert seen["cell_error"] == []
    assert seen["verified"]
    modules = seen["modules"]
    assert [m for m in modules if m.startswith("repro.sim.domains.")] == [
        "repro.sim.domains.kernel"]
    for stack in ("repro.vehicle", "repro.rtos.kernel", "repro.network.can_bus"):
        assert stack not in modules


def test_spec_param_lookup():
    spec = ScenarioSpec(label="x", domain="osek",
                        params=(("tasks", 5), ("utilisation", 0.5)))
    assert spec.param("tasks") == 5
    assert spec.param("missing", 42) == 42
    assert "osek" in spec.key() and "tasks=5" in spec.key()


# ----------------------------------------------------------------------
# the three new domains
# ----------------------------------------------------------------------

def test_osek_domain_analysis_bounds_simulation():
    record = run_scenario(ScenarioSpec(
        label="osek", domain="osek", seed=7,
        params=(("tasks", 5), ("utilisation", 0.6))))
    assert record.domain == "osek"
    assert record.tasks == 5
    assert 0.4 < record.utilisation < 0.8
    assert record.schedulable
    assert record.verified                       # sim never beat the bounds
    assert 0 < record.sim_max_response <= record.rta_max_response
    assert record.context_switches > 0
    assert record.deadline_misses == 0


def test_osek_domain_overload_is_measured_not_hidden():
    record = run_scenario(ScenarioSpec(
        label="overload", domain="osek", seed=11,
        params=(("tasks", 6), ("utilisation", 1.4))))
    assert not record.schedulable               # analysis says no
    assert record.verified                      # bounds still hold where converged
    assert record.deadline_misses + record.activation_failures > 0


def test_osek_records_are_pure_functions_of_the_spec():
    spec = ScenarioSpec(label="pure", domain="osek", seed=3,
                        params=(("tasks", 4), ("utilisation", 0.5)))
    assert vars(run_scenario(spec)) == vars(run_scenario(spec))
    other = ScenarioSpec(label="pure", domain="osek", seed=4,
                         params=(("tasks", 4), ("utilisation", 0.5)))
    assert vars(run_scenario(other)) != vars(run_scenario(spec))


def test_can_domain_analysis_bounds_simulation():
    record = run_scenario(ScenarioSpec(
        label="can", domain="can", seed=5,
        params=(("messages", 6), ("load", 0.45))))
    assert record.domain == "can"
    assert record.messages == 6
    assert record.verified
    assert record.bound_violations == 0
    assert record.frames_delivered > 0
    assert 0 < record.worst_response_us <= record.worst_bound_us
    assert record.frames_sent - record.frames_delivered == record.backlog
    assert record.errors_injected == 0


def test_can_domain_noisy_bus_retries_but_conserves_frames():
    record = run_scenario(ScenarioSpec(
        label="noisy", domain="can", seed=5,
        params=(("messages", 5), ("load", 0.4), ("error_rate", 0.08))))
    assert record.errors_injected > 0
    assert record.retries > 0
    assert record.verified                      # nothing lost to error frames
    assert record.frames_sent - record.frames_delivered == record.backlog


def test_soft_error_domain_ecc_corrects_real_cpu_run():
    record = run_scenario(ScenarioSpec(
        label="ecc", core="arm1156", isa="thumb2", workload="tblook",
        domain="soft_error", params=(("protected", True),
                                     ("rate_per_mcycle", 20.0))))
    assert record.domain == "soft_error"
    assert record.upsets > 0
    assert record.corrected + record.uncorrectable >= record.upsets - 1
    assert record.verified
    if record.uncorrectable == 0:
        assert not record.wrong                 # every flip repaired in time
        assert record.result == record.golden
    assert record.hold_cycles > 0               # hold-and-repair cost is real


def test_soft_error_domain_unprotected_corrupts_silently():
    record = run_scenario(ScenarioSpec(
        label="raw", core="arm1156", isa="thumb2", workload="tblook",
        domain="soft_error", params=(("protected", False),
                                     ("rate_per_mcycle", 20.0))))
    assert record.upsets > 0
    assert record.silent_corruptions == record.upsets
    assert record.corrected == 0
    assert record.hold_cycles == 0
    assert record.verified                      # the measurement arm verifies
    assert record.wrong                         # ... and the damage is visible


def test_soft_error_scrub_counts_distinct_bad_words_once():
    """A persistent double-bit word must count once, not once per scrub."""
    from repro.memory.tcm import Tcm
    from repro.sim.domains.soft_error import _scrub

    tcm = Tcm(base=0, size=64, fault_tolerant=True)
    tcm.write_raw(0, bytes(range(64)))
    tcm.flip_data_bit(8 * 4 + 0)                # two flips in word 1
    tcm.flip_data_bit(8 * 4 + 9)
    first = _scrub(tcm)
    second = _scrub(tcm)
    assert first == second == {4}               # same word, every scrub
    assert len(first | second) == 1


def test_soft_error_domain_requires_cpu_fields():
    with pytest.raises(ValueError, match="core/isa/workload"):
        run_scenario(ScenarioSpec(label="x", domain="soft_error"))
    with pytest.raises(ValueError, match="core/isa/workload"):
        run_scenario(ScenarioSpec(label="x", domain="kernel"))


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------

def test_shard_bounds_partition_exactly():
    for total in (0, 1, 7, 11, 24):
        for n in (1, 2, 3, 5):
            cuts = [shard_bounds(total, (k, n)) for k in range(n)]
            assert cuts[0][0] == 0 and cuts[-1][1] == total
            for (_, hi), (lo, _) in zip(cuts, cuts[1:]):
                assert hi == lo                 # contiguous, no gap, no overlap


def test_shard_bounds_validation():
    with pytest.raises(ValueError, match="0 <= k < n"):
        shard_bounds(10, (2, 2))
    with pytest.raises(ValueError, match="0 <= k < n"):
        shard_bounds(10, (-1, 2))
    with pytest.raises(ValueError, match="0 <= k < n"):
        shard_bounds(10, (0, 0))
    with pytest.raises(ValueError, match=r"\(k, n\) pair"):
        shard_bounds(10, 3)


def _cheap_pool() -> list[ScenarioSpec]:
    """Cheap cells from every domain for shard mixing."""
    return [
        ScenarioSpec(label="k0", core="m3", isa="thumb2", workload="ttsprk"),
        ScenarioSpec(label="k1", core="arm7", isa="thumb", workload="bitmnp"),
        ScenarioSpec(label="o0", domain="osek",
                     params=(("tasks", 3), ("utilisation", 0.5),
                             ("horizon_us", 200_000))),
        ScenarioSpec(label="o1", domain="osek", seed=9,
                     params=(("tasks", 4), ("utilisation", 0.7),
                             ("horizon_us", 200_000))),
        ScenarioSpec(label="c0", domain="can",
                     params=(("messages", 4), ("load", 0.3),
                             ("horizon_us", 200_000))),
        ScenarioSpec(label="c1", domain="can", seed=13,
                     params=(("messages", 5), ("load", 0.5),
                             ("error_rate", 0.05), ("horizon_us", 200_000))),
        ScenarioSpec(label="s0", core="arm1156", isa="thumb2",
                     workload="tblook", domain="soft_error",
                     params=(("rate_per_mcycle", 20.0),
                             ("mission_factor", 300))),
    ]


def _stream_bytes(tmp_path, specs, name, shard=None) -> bytes:
    path = tmp_path / f"{name}.jsonl"
    request = CampaignRequest(specs=tuple(specs), workers=1, shard=shard)
    execute_request(request, stream_path=path)
    return path.read_bytes()


def test_shard_streams_concatenate_byte_identical(tmp_path):
    """The distribution recipe, end to end, for several shard counts."""
    specs = _cheap_pool()
    full = _stream_bytes(tmp_path, specs, "full")
    assert full                                 # the pool actually streamed
    for n in (1, 2, 3, 5, 7):
        shards = b"".join(
            _stream_bytes(tmp_path, specs, f"shard_{n}_{k}", shard=(k, n))
            for k in range(n))
        assert shards == full, f"shard count {n} broke concatenation"


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5),
       st.integers(min_value=2, max_value=4))
@settings(max_examples=8, deadline=None)
def test_shard_concatenation_property(picks, n):
    """Random domain mixes: concatenated shard streams == unsharded stream."""
    import tempfile
    from pathlib import Path

    pool = _cheap_pool()
    specs = [pool[i] for i in picks]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        full = _stream_bytes(tmp, specs, "full")
        shards = b"".join(
            _stream_bytes(tmp, specs, f"s{k}", shard=(k, n))
            for k in range(n))
        assert shards == full


def test_mixed_domain_campaign_parallel_equals_serial(tmp_path):
    specs = _cheap_pool()
    serial = execute_request(CampaignRequest(specs=tuple(specs), workers=1))
    parallel = execute_request(CampaignRequest(specs=tuple(specs), workers=3))
    assert serial.to_json() == parallel.to_json()
    assert serial.all_verified
    assert serial.by_domain() == {"kernel": 2, "osek": 2, "can": 2,
                                  "soft_error": 1}


# ----------------------------------------------------------------------
# stream round-trips and robustness
# ----------------------------------------------------------------------

def test_every_domain_record_round_trips_through_the_stream(tmp_path):
    specs = _cheap_pool()
    path = tmp_path / "mixed.jsonl"
    result = execute_request(CampaignRequest(specs=tuple(specs)),
                             stream_path=path, collect=True)
    loaded = read_campaign_stream(path)
    assert loaded == result.records
    assert [type(r) for r in loaded] == [type(r) for r in result.records]
    for record in loaded:
        assert isinstance(record.verified, bool)


def test_truncated_trailing_line_is_rejected(tmp_path):
    path = tmp_path / "trunc.jsonl"
    execute_request(CampaignRequest(specs=tuple(_cheap_pool()[:3])),
                    stream_path=path)
    whole = path.read_bytes()
    path.write_bytes(whole[:-10])               # interrupt the final write
    with pytest.raises(CampaignStreamError, match="truncated trailing line"):
        read_campaign_stream(path)
    # skip-with-report: earlier records survive, the problem is reported
    errors: list = []
    records = read_campaign_stream(path, on_error="skip", errors=errors)
    assert len(records) == 2
    assert len(errors) == 1 and "truncated" in errors[0][1]


def test_corrupt_record_is_rejected_with_line_number(tmp_path):
    path = tmp_path / "corrupt.jsonl"
    execute_request(CampaignRequest(specs=tuple(_cheap_pool()[:2])),
                    stream_path=path)
    lines = path.read_text().splitlines()
    lines.insert(1, "{not json at all")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CampaignStreamError, match=r"corrupt\.jsonl:2.*not valid JSON"):
        read_campaign_stream(path)
    errors: list = []
    records = read_campaign_stream(path, on_error="skip", errors=errors)
    assert len(records) == 2                    # both real records survive
    assert errors and errors[0][0] == 2


def test_stream_reader_rejects_unknown_domain_and_bad_fields(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"domain": "warp_drive"}) + "\n")
    with pytest.raises(CampaignStreamError, match="unknown scenario domain"):
        read_campaign_stream(path)
    path.write_text(json.dumps({"domain": "osek", "nonsense": 1}) + "\n")
    with pytest.raises(CampaignStreamError, match="fields do not match OsekRecord"):
        read_campaign_stream(path)
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(CampaignStreamError, match="expected an object"):
        read_campaign_stream(path)
    with pytest.raises(ValueError, match="on_error"):
        read_campaign_stream(path, on_error="ignore")


# ----------------------------------------------------------------------
# matrices and the CLI
# ----------------------------------------------------------------------

def test_builtin_matrices_cover_all_domains():
    matrices = available_matrices()
    assert set(matrices) == {"table1", "irq-sweep", "osek", "can",
                             "soft-error", "smoke", "vehicle", "lin",
                             "wcet", "vehicle-smoke", "vehicle-fault"}
    smoke = smoke_matrix()
    assert {s.domain for s in smoke} == {"kernel", "osek", "can",
                                         "soft_error", "vehicle", "lin",
                                         "wcet"}
    for name, builder in matrices.items():
        specs = builder(2005, 1)
        assert specs, name
        assert len({s.key() for s in specs}) == len(specs), (
            f"matrix {name} has colliding scenario keys")


def test_cli_runs_a_sharded_smoke_slice(tmp_path, capsys):
    stream = tmp_path / "cli.jsonl"
    code = main(["--matrix", "smoke", "--shard", "0/3",
                 "--stream", str(stream), "--seed", "2005"])
    assert code == 0
    out = capsys.readouterr().out
    assert "shard 0/3" in out
    assert read_campaign_stream(stream)


def test_cli_rerun_replaces_the_stream(tmp_path, capsys):
    """A retried shard must replace its stream, or concatenation breaks."""
    stream = tmp_path / "retry.jsonl"
    args = ["--matrix", "smoke", "--shard", "0/4", "--stream", str(stream)]
    assert main(args) == 0
    first = stream.read_bytes()
    assert main(args) == 0                      # the retry
    assert stream.read_bytes() == first
    capsys.readouterr()


def test_on_record_callback_sees_every_record_in_order(tmp_path):
    specs = _cheap_pool()[:4]
    seen: list = []
    result = execute_request(CampaignRequest(specs=tuple(specs), workers=2),
                             stream_path=tmp_path / "cb.jsonl",
                             on_record=seen.append)
    assert result.records == []                 # collect stayed off
    assert [r.label for r in seen] == [s.label for s in specs]


def test_cli_list_and_errors(capsys):
    assert main(["--list"]) == 0
    assert "smoke" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["--matrix", "no-such-matrix"])
    with pytest.raises(SystemExit):
        main([])


# ----------------------------------------------------------------------
# the vehicle / lin / wcet domains (PR 5)
# ----------------------------------------------------------------------

def test_lin_domain_schedule_bounds_simulation():
    spec = ScenarioSpec(label="lin", domain="lin", seed=7,
                        params=(("slots", 3), ("horizon_us", 300_000)))
    record = run_scenario(spec)
    assert record.domain == "lin"
    assert record.deliveries > 0
    assert record.updates_delivered > 0
    assert record.bound_violations == 0
    assert record.worst_latency_us <= record.worst_bound_us
    assert record.verified


def test_wcet_domain_measures_executed_cycles():
    """A WCET cell's estimate is the padded maximum of run_kernel() over
    its sample seeds, on the cached ARM1156 as on the M3."""
    from repro.workloads import WORKLOADS_BY_NAME, run_kernel

    for core, workload in (("m3", "bitmnp"), ("arm1156", "tblook")):
        spec = ScenarioSpec(label="wcet", domain="wcet", core=core,
                            isa="thumb2", workload=workload, seed=3,
                            params=(("samples", 3),))
        record = run_scenario(spec)
        cycles = [run_kernel(WORKLOADS_BY_NAME[workload], core, "thumb2",
                             seed=seed).cycles for seed in range(record.samples)]
        assert record.domain == "wcet"
        assert (record.observed_min, record.observed_max) == (min(cycles), max(cycles))
        assert 0 < record.observed_min <= record.observed_max
        assert record.wcet_cycles == int(record.observed_max * 1.2)
        assert record.wcet_us >= 1
        assert record.verified


def test_wcet_domain_requires_cpu_fields():
    with pytest.raises(ValueError, match="core/isa/workload"):
        run_scenario(ScenarioSpec(label="bad", domain="wcet"))


def test_wcet_feeds_distributed_placement():
    """The ROADMAP bridge: measured WCETs -> DistributedTask.wcet_us."""
    from repro.network.distributed import (
        Ecu,
        allocate_tasks,
        analyse_system,
        tasks_from_wcet,
    )

    estimates = [
        run_scenario(ScenarioSpec(label=f"wcet {w}", domain="wcet",
                                  core="m3", isa="thumb2", workload=w,
                                  seed=3, params=(("samples", 2),)))
        for w in ("bitmnp", "canrdr")
    ]
    periods = {"bitmnp": 10_000, "canrdr": 20_000}
    tasks = tasks_from_wcet(estimates, periods)
    assert [t.wcet_us for t in tasks] == [e.wcet_us for e in estimates]
    assert all(t.binaries == frozenset({"thumb2"}) for t in tasks)
    ecus = [Ecu(name="body1", isa="thumb2"), Ecu(name="body2", isa="thumb2")]
    placement = allocate_tasks(tasks, ecus)
    assert placement.fully_placed
    analysis = analyse_system(tasks, ecus, placement)
    assert analysis.schedulable
    with pytest.raises(KeyError, match="no period"):
        tasks_from_wcet(estimates, {"bitmnp": 10_000})


def test_vehicle_domain_runs_and_verifies(dispatches):
    spec = ScenarioSpec(label="vehicle", domain="vehicle", seed=11,
                        params=(("sensors", 2), ("horizon_us", 150_000)))
    before = dispatches("fused")
    record = run_scenario(spec)
    # the guest actually ran fused code (an engine count, not a record field)
    assert dispatches("fused") > before
    assert "fused_blocks" not in vars(record)
    assert record.domain == "vehicle"
    assert record.gateway_applied > 0 and record.actuator_applied > 0
    assert record.bound_violations == 0 and record.value_errors == 0
    assert record.conservation_ok and record.checksum_ok
    assert record.worst_latency_us <= record.worst_bound_us
    assert record.frames_queued == record.frames_delivered + record.frames_backlog
    assert record.verified


def test_vehicle_records_are_pure_functions_of_the_spec():
    spec = ScenarioSpec(label="vehicle", domain="vehicle", seed=23,
                        params=(("sensors", 1), ("horizon_us", 120_000)))
    assert vars(run_scenario(spec)) == vars(run_scenario(spec))
