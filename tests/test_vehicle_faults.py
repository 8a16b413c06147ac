"""Fault campaigns: CAN fault confinement and the vehicle_fault domain.

Three layers of coverage:

* the **fault-confinement state machine** on the bus itself - TEC/REC
  arithmetic, error-passive suspend windows, bus-off entry with held
  frames, timed recovery, and the injected-error accounting coherence
  that frame-conservation checks fold in;
* the **vehicle_fault scenario domain** - every fault kind produces its
  specified per-claim verdicts (a babbling idiot demonstrably violates a
  latency bound its fault-free twin meets), and records stay pure
  functions of the spec across quantum sizes, engines, workers,
  and shards;
* the **stream robustness satellites** - vehicle_fault records round-trip
  through ``read_campaign_stream``, and a record carrying an unknown
  verdict claim is rejected as corrupt, not half-parsed.
"""

from __future__ import annotations

import json

import pytest

from repro.network.can_bus import (
    BUS_OFF_RECOVERY_BITS,
    BUS_OFF_THRESHOLD,
    ERROR_ACTIVE,
    ERROR_PASSIVE,
    ERROR_PASSIVE_THRESHOLD,
    TEC_ERROR_INCREMENT,
    CanBus,
    PeriodicSender,
)
from repro.network.can_frame import CanFrame
from repro.sim.campaign import (
    CampaignRequest,
    CampaignStreamError,
    ScenarioSpec,
    execute_request,
    read_campaign_stream,
    run_scenario,
)
from repro.sim.domains.vehicle import synthesize_network
from repro.sim.domains.vehicle_fault import (
    EXPECTED_BY_KIND,
    VehicleFaultRecord,
    vehicle_fault_matrix,
)
from repro.sim.rng import DeterministicRng
from repro.sim.trace import TraceRecorder
from repro.vehicle import (
    FAULT_KINDS,
    VERDICT_CLAIMS,
    build_body_network,
    scenario_for,
    synthesize_fault,
)


# ----------------------------------------------------------------------
# CAN fault confinement (the bus-level state machine)
# ----------------------------------------------------------------------

def test_forced_window_validation():
    bus = CanBus()
    with pytest.raises(ValueError, match="empty forced-error window"):
        bus.force_error_window("n", 100, 100)
    with pytest.raises(ValueError, match="unknown fault kind"):
        synthesize_fault(DeterministicRng(1), "warp-core",
                         synthesize_network(DeterministicRng(1), 1,
                                            125_000, 200), 100_000)


def test_tec_climbs_by_eight_per_error_and_falls_by_one_per_success():
    bus = CanBus(trace=TraceRecorder(enabled=True))
    # a window wide enough for exactly a few failures of one short frame
    frame = CanFrame(0x100, b"\xaa")
    lost_per_error = bus.bit_time_us(frame.wire_bits) // 2 + bus.bit_time_us(31)
    bus.force_error_window("victim", 0, 3 * lost_per_error)
    bus.submit(frame, node="victim")
    bus.scheduler.run(until=50_000)
    state = bus.node_state("victim")
    record = bus.deliveries[0]
    # 3 failed attempts inside the window, then the success: 3*8 - 1
    assert record.errors == 3
    assert state.tec == 3 * TEC_ERROR_INCREMENT - 1
    assert record.attempts == 4
    assert record.retry_latency_us == 3 * lost_per_error
    assert record.queued_at == 0
    labels = [r.label for r in bus.trace.by_category("can")]
    assert labels.count("error_frame") == 3
    assert bus.error_accounting() == {
        "errors_injected": 3, "errors_on_messages": 3, "coherent": True}


def test_error_passive_suspends_before_bus_off():
    bus = CanBus(trace=TraceRecorder(enabled=True))
    frame = CanFrame(0x100, b"\xaa")
    lost = bus.bit_time_us(frame.wire_bits) // 2 + bus.bit_time_us(31)
    # enough failures to cross 128 but stay short of 256: 17 * 8 = 136
    bus.force_error_window("victim", 0, 17 * lost)
    bus.submit(frame, node="victim")
    # a healthy peer known to the bus: its REC must track the errors
    bus.submit(CanFrame(0x200, b"\xbb"), node="peer")
    bus.scheduler.run(until=17 * lost)
    state = bus.node_state("victim")
    assert state.state == ERROR_PASSIVE
    assert ERROR_PASSIVE_THRESHOLD <= state.tec < BUS_OFF_THRESHOLD
    assert state.suspend_until_us > 0       # sat out a suspend window
    peer = bus.node_state("peer")
    assert peer.rec > 0 and peer.state in (ERROR_ACTIVE, ERROR_PASSIVE)
    assert any(r.label == "error_passive"
               for r in bus.trace.by_category("can"))
    # healthy traffic after the window drains the counters back to active
    bus.scheduler.run(until=200_000)
    sender = PeriodicSender(bus, can_id=0x100, payload=b"\xaa",
                            period_us=500, node="victim")
    sender.start()
    bus.scheduler.run(until=250_000)
    assert state.state == ERROR_ACTIVE
    assert state.tec < ERROR_PASSIVE_THRESHOLD


def test_bus_off_parks_frames_and_recovers_on_schedule():
    bus = CanBus(trace=TraceRecorder(enabled=True))
    # a window long enough to reach bus-off (32 errors) but shorter than
    # the recovery point, so the outage is still in progress at its end
    bus.force_error_window("victim", 0, 5_000)
    bus.submit(CanFrame(0x100, b"\xaa"), node="victim")
    bus.scheduler.run(until=5_000)
    state = bus.node_state("victim")
    assert state.bus_off
    assert state.bus_off_events == 1
    assert len(state.held) == 1             # the in-flight frame was parked
    # frames submitted while off are parked too, queue times preserved
    bus.submit(CanFrame(0x104, b"\xcc"), node="victim")
    assert len(state.held) == 2
    assert bus.backlog == 2
    held_labels = [r.label for r in bus.trace.by_category("can")]
    assert "bus_off" in held_labels and "held" in held_labels
    # recovery lands exactly one fixed window after going off
    off_at, recover_at = state.bus_off_log[0]
    assert recover_at == off_at + bus.bit_time_us(BUS_OFF_RECOVERY_BITS)
    bus.scheduler.run(until=300_000)
    assert state.state == ERROR_ACTIVE and state.tec == 0 and not state.held
    assert state.bus_off_log == [(off_at, recover_at)]
    # both parked frames delivered, original queue times intact
    by_id = {d.can_id: d for d in bus.deliveries}
    assert by_id[0x100].queued_at == 0
    assert by_id[0x104].queued_at > off_at
    assert (sum(d.errors for d in bus.deliveries)
            == BUS_OFF_THRESHOLD // TEC_ERROR_INCREMENT)
    assert bus.error_accounting()["coherent"]


def test_error_accounting_coherent_under_random_errors():
    bus = CanBus(error_rate=0.25, rng=DeterministicRng(7))
    for index in range(3):
        PeriodicSender(bus, can_id=0x100 + 0x20 * index, payload=b"\x11" * 4,
                       period_us=2_000, node=f"ecu{index}").start()
    bus.scheduler.run(until=400_000)
    accounting = bus.error_accounting()
    assert accounting["errors_injected"] > 0
    assert accounting["coherent"], accounting
    assert sum(d.errors for d in bus.deliveries) > 0
    assert any(d.retry_latency_us > 0 for d in bus.deliveries)


# ----------------------------------------------------------------------
# the vehicle_fault domain: per-kind verdicts
# ----------------------------------------------------------------------

def _fault_record(kind: str, **params):
    merged = {"kind": kind, **params}
    return run_scenario(ScenarioSpec(
        label=f"fault {kind}", domain="vehicle_fault", seed=2005,
        params=tuple(sorted(merged.items()))))


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_every_fault_kind_verifies_with_its_specified_verdicts(kind):
    record = _fault_record(kind)
    assert record.domain == "vehicle_fault"
    assert record.fault_kind == kind
    assert record.verified, (record.verdicts, record.expected)
    assert record.expected == EXPECTED_BY_KIND[kind]
    assert set(record.verdicts) == set(VERDICT_CLAIMS)
    assert record.twin_healthy and record.twin_bound_violations == 0
    assert record.fused_blocks > 0
    assert record.fault_start_us < record.fault_end_us <= record.horizon_us


def test_babbling_idiot_demonstrates_the_latency_violation():
    """The acceptance case: a seeded scenario violating a latency bound
    its fault-free twin meets, recorded as the expected outcome."""
    record = _fault_record("babbling-idiot")
    assert record.bound_violations > 0
    assert record.twin_bound_violations == 0
    assert record.worst_latency_us > record.worst_bound_us
    assert record.twin_worst_latency_us <= record.worst_bound_us
    assert record.frames_injected > 0
    assert record.fault_activations == record.frames_injected
    assert not record.verdicts["latency_bound"]
    assert not record.verdicts["fail_silence"]  # the babbler kept talking
    assert record.verdicts["frame_conservation"]
    assert record.verdicts["recovery"]


def test_bus_off_storm_confines_the_victim():
    record = _fault_record("bus-off-storm")
    assert record.bus_off_events >= 1
    assert record.errors_injected > 0
    assert record.verdicts["fail_silence"]      # off the bus while off
    assert record.verdicts["recovery"]          # and back in the deadline


def test_gateway_overload_drops_are_counted_not_hidden():
    record = _fault_record("gateway-overload")
    assert record.rx_dropped > 0
    assert not record.conservation_ok
    assert not record.verdicts["frame_conservation"]
    assert record.verdicts["fail_silence"]      # actuator never saw a spoof


def test_lin_slot_faults_surface_as_slot_outages():
    drop = _fault_record("lin-drop")
    assert drop.lin_no_response > 0
    assert drop.fault_activations == drop.lin_no_response
    stuck = _fault_record("lin-stuck")
    assert stuck.fault_activations > 0
    assert stuck.lin_no_response == 0           # replays are answers
    for record in (drop, stuck):
        assert record.verdicts["fail_silence"]
        assert record.verdicts["recovery"]


def test_soft_error_is_detected_by_the_checksum_mirror():
    record = _fault_record("soft-error")
    assert record.fault_activations == 1
    assert not record.checksum_ok               # the flip was detected...
    assert not record.expected_checksum_ok      # ...and specified to be
    assert record.verified
    assert record.bound_violations == 0         # the data path stayed clean
    assert record.verdicts["fail_silence"]


def test_expected_verdicts_are_overridable_per_cell():
    # flipping one expectation makes the same healthy-behaving cell fail
    record = _fault_record("soft-error", expect_latency_bound=False)
    assert not record.verified
    assert record.verdicts["latency_bound"]


def test_record_rejects_malformed_verdicts():
    record = _fault_record("soft-error")
    payload = vars(record).copy()
    payload["verdicts"] = {**record.verdicts}
    payload["verdicts"].pop("recovery")
    payload["verdicts"]["warp_integrity"] = True
    with pytest.raises(ValueError, match="exactly the claims"):
        VehicleFaultRecord(**payload)
    payload["verdicts"] = {**record.verdicts, "recovery": "yes"}
    with pytest.raises(ValueError, match="must be a bool"):
        VehicleFaultRecord(**payload)


def test_unknown_kind_is_a_clear_error():
    with pytest.raises(ValueError, match="unknown fault kind 'meteor'"):
        run_scenario(ScenarioSpec(label="x", domain="vehicle_fault",
                                  params=(("kind", "meteor"),)))


def test_fault_matrix_covers_every_kind_with_unique_keys():
    specs = vehicle_fault_matrix()
    kinds = {dict(s.params)["kind"] for s in specs}
    assert kinds == set(FAULT_KINDS)
    assert len({s.key() for s in specs}) == len(specs)


# ----------------------------------------------------------------------
# determinism: quantum, engines, workers, shards
# ----------------------------------------------------------------------

def _faulted_fingerprint(kind: str, fastpath: bool = True,
                         quantum_us: int | None = None) -> str:
    net_spec = synthesize_network(DeterministicRng(11).fork(1), 2,
                                  125_000, 200)
    fault = synthesize_fault(DeterministicRng(11).fork(2), kind,
                             net_spec, 150_000)
    network = build_body_network(net_spec)
    for ecu in network.vehicle.ecus:
        ecu.cpu.fastpath = fastpath
    scenario = scenario_for(fault)
    scenario.arm(network)
    network.run(horizon_us=150_000, quantum_us=quantum_us)
    report = network.report()
    state = {
        "frames": [(d.can_id, d.node, d.queued_at, d.completed_at,
                    d.attempts, d.errors, d.retry_latency_us)
                   for d in network.vehicle.can.deliveries],
        "out": [(a.ident, a.word, a.at_us)
                for a in network.actuator_out.applied],
        "verdicts": scenario.verdicts(network, report),
        "activations": scenario.activations,
        "bus_off": network.vehicle.can.bus_off_events,
    }
    for ecu in network.vehicle.ecus:
        cpu = ecu.cpu
        state[ecu.name] = [list(cpu.regs.snapshot()), cpu.cycles,
                           cpu.instructions_executed,
                           bytes(ecu.machine.sram.data[:0x80]).hex()]
    return json.dumps(state, sort_keys=True)


@pytest.mark.parametrize("kind", ["babbling-idiot", "soft-error"])
def test_faulted_network_byte_identical_across_quantum_sizes(kind):
    """The co-sim quantum joins the pause schedule, never the physics -
    with a fault armed just like without one."""
    reference = _faulted_fingerprint(kind, quantum_us=200)
    for quantum in (50, 433):
        assert _faulted_fingerprint(kind, quantum_us=quantum) == reference, (
            kind, quantum)


@pytest.mark.parametrize("kind", ["bus-off-storm", "soft-error"])
def test_faulted_network_byte_identical_across_engines(kind):
    """Fault injection (including mid-run SRAM flips settled to WFI)
    must not observe the engine: the reference interpreter reproduces
    the trace engine's fingerprint."""
    assert (_faulted_fingerprint(kind, fastpath=False)
            == _faulted_fingerprint(kind)), kind


def _fault_specs() -> list[ScenarioSpec]:
    return [
        ScenarioSpec(label="vf babble", domain="vehicle_fault", seed=5,
                     params=(("horizon_us", 120_000),
                             ("kind", "babbling-idiot"))),
        ScenarioSpec(label="vf storm", domain="vehicle_fault", seed=5,
                     params=(("horizon_us", 120_000),
                             ("kind", "bus-off-storm"), ("sensors", 2))),
        ScenarioSpec(label="vf soft", domain="vehicle_fault", seed=5,
                     params=(("horizon_us", 120_000), ("kind", "soft-error"))),
        ScenarioSpec(label="vf lin", domain="vehicle_fault", seed=5,
                     params=(("horizon_us", 120_000), ("kind", "lin-drop"))),
    ]


def test_fault_campaign_byte_identical_across_workers_and_shards(tmp_path):
    specs = _fault_specs()

    def stream_bytes(name: str, workers=None, shard=None) -> bytes:
        path = tmp_path / f"{name}.jsonl"
        execute_request(CampaignRequest(specs=tuple(specs), workers=workers,
                                        shard=shard), stream_path=path)
        return path.read_bytes()

    serial = stream_bytes("serial")
    assert serial
    assert stream_bytes("pooled", workers=2) == serial
    shards = b"".join(stream_bytes(f"shard{k}", shard=(k, 2))
                      for k in range(2))
    assert shards == serial


# ----------------------------------------------------------------------
# stream robustness over vehicle_fault records (satellite)
# ----------------------------------------------------------------------

def _write_fault_stream(tmp_path):
    path = tmp_path / "faults.jsonl"
    specs = _fault_specs()[:2]
    execute_request(CampaignRequest(specs=tuple(specs)), stream_path=path)
    return path, specs


def test_fault_records_round_trip_through_the_stream(tmp_path):
    path, specs = _write_fault_stream(tmp_path)
    records = read_campaign_stream(path)
    assert [vars(r) for r in records] == [vars(run_scenario(s))
                                          for s in specs]
    assert all(isinstance(r, VehicleFaultRecord) for r in records)


def test_truncated_fault_stream_is_rejected_then_skippable(tmp_path):
    path, _ = _write_fault_stream(tmp_path)
    path.write_bytes(path.read_bytes()[:-10])    # cut mid-record
    with pytest.raises(CampaignStreamError, match="truncated trailing line"):
        read_campaign_stream(path)
    errors: list = []
    records = read_campaign_stream(path, on_error="skip", errors=errors)
    assert len(records) == 1
    assert len(errors) == 1 and errors[0][0] == 2
    assert "truncated trailing line" in errors[0][1]


def test_unknown_verdict_claim_is_rejected_as_corrupt(tmp_path):
    path, _ = _write_fault_stream(tmp_path)
    lines = path.read_text().splitlines()
    payload = json.loads(lines[0])
    payload["verdicts"] = {**payload["verdicts"]}
    del payload["verdicts"]["recovery"]
    payload["verdicts"]["warp_integrity"] = True
    lines[0] = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CampaignStreamError,
                       match="exactly the claims"):
        read_campaign_stream(path)
    errors: list = []
    records = read_campaign_stream(path, on_error="skip", errors=errors)
    assert len(records) == 1                     # line 2 still loads
    assert errors and errors[0][0] == 1
    assert "VehicleFaultRecord" in errors[0][1]
