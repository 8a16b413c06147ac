"""Co-simulation determinism properties.

The hard guarantees that make the virtual vehicle campaign-distributable:

* **quantum invariance** - a whole-network run is byte-identical for any
  co-simulation quantum (the quantum joins the engine's event horizon;
  nothing about a pause point is architecturally observable);
* **engine invariance** - both engines (reference and trace) produce
  the identical co-simulated network;
* **pump invariance** - the event-driven pump, which skips idle ECUs
  and all-idle quanta, matches an eager pump that advances every ECU at
  every grid point, with faults armed too;
* **distribution invariance** - vehicle campaign records stream
  byte-identically across worker counts and shard splits, like every
  other domain.

Plus the composition property of the cycle-coupled engine itself: any
sequence of ``run_until_cycle`` targets executes the same instruction
stream as one unbounded run.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import compile_program
from repro.core import FLASH_BASE, SRAM_BASE, build_machine
from repro.sim.campaign import CampaignRequest, ScenarioSpec, execute_request
from repro.sim.domains.vehicle import vehicle_matrix
from repro.sim.rng import DeterministicRng
from repro.vehicle import (
    BodyNetworkSpec,
    Ecu,
    RoundTripSpec,
    SensorNode,
    build_body_network,
    build_round_trip,
    scenario_for,
    synthesize_fault,
)
from repro.workloads.kernels import WORKLOADS_BY_NAME

ENGINES = (
    ("reference", False),
    ("trace", True),
)


def _round_trip_fingerprint(quantum_us: int, fastpath: bool = True,
                            arm=None) -> str:
    rt = build_round_trip(RoundTripSpec())
    for ecu in rt.vehicle.ecus:
        ecu.cpu.fastpath = fastpath
    if arm is not None:
        arm(rt)
    rt.run(horizon_us=45_000, quantum_us=quantum_us)
    return json.dumps(rt.fingerprint(), sort_keys=True)


def test_round_trip_byte_identical_across_quantum_sizes():
    reference = _round_trip_fingerprint(100)
    for quantum in (1, 7, 17, 50, 250, 499):
        assert _round_trip_fingerprint(quantum) == reference, quantum


@pytest.mark.parametrize("name,fastpath", ENGINES,
                         ids=[e[0] for e in ENGINES])
def test_round_trip_byte_identical_across_engines(name, fastpath):
    reference = _round_trip_fingerprint(100)
    assert _round_trip_fingerprint(100, fastpath) == reference, name
    assert _round_trip_fingerprint(333, fastpath) == reference, name


BODY_SPEC = BodyNetworkSpec(sensors=(
    SensorNode("wheel", "m3", 80, 0x120, 20_000),
    SensorNode("seat", "arm1156", 160, 0x180, 25_000, raw_salt=7),
    SensorNode("door", "arm7", 48, 0x200, 50_000, raw_salt=3),
))
BODY_HORIZON_US = 180_000


def _body_fingerprint(quantum_us: int, arm=None) -> str:
    net = build_body_network(BODY_SPEC)
    if arm is not None:
        arm(net)
    net.run(horizon_us=BODY_HORIZON_US, quantum_us=quantum_us)
    state = {
        "frames": [(d.can_id, d.node, d.queued_at, d.completed_at,
                    d.attempts) for d in net.vehicle.can.deliveries],
        "lin": [(d.frame_id, d.data.hex(), d.at_us)
                for d in net.vehicle.lin.deliveries],
        "tap": [(a.ident, a.word, a.at_us) for a in net.gateway_tap.applied],
        "out": [(a.ident, a.word, a.at_us)
                for a in net.actuator_out.applied],
    }
    for ecu in net.vehicle.ecus:
        cpu = ecu.cpu
        state[ecu.name] = [list(cpu.regs.snapshot()), str(cpu.apsr),
                           cpu.cycles, cpu.instructions_executed,
                           ecu.machine.bus.reads, ecu.machine.bus.writes,
                           ecu.machine.bus.total_stalls,
                           bytes(ecu.machine.sram.data[:0x80]).hex()]
    return json.dumps(state, sort_keys=True)


def test_body_network_byte_identical_across_quantum_sizes():
    reference = _body_fingerprint(200)
    for quantum in (1, 7, 37, 100, 433):
        assert _body_fingerprint(quantum) == reference, quantum


# ----------------------------------------------------------------------
# pump invariance: skipping idle ECUs changes no byte
# ----------------------------------------------------------------------

def _eager_pump(quantum_us: int):
    """An ``arm`` hook for an eager pump: at every grid point, advance
    every ECU to the bus time.  Armed beside the real pump it makes every
    advance eager - the reference the event-driven pump must match."""

    def arm(network) -> None:
        vehicle = network.vehicle

        def advance_all() -> None:
            for ecu in vehicle.ecus:
                ecu.advance_to_us(vehicle.scheduler.now)

        vehicle.every(quantum_us, advance_all, offset_us=quantum_us,
                      priority=9)

    return arm


def test_round_trip_matches_eager_pump():
    assert (_round_trip_fingerprint(100, arm=_eager_pump(100))
            == _round_trip_fingerprint(100))


def test_body_network_matches_eager_pump():
    assert _body_fingerprint(200, arm=_eager_pump(200)) \
        == _body_fingerprint(200)


@pytest.mark.parametrize("kind", ["soft-error", "babbling-idiot"])
def test_faulted_body_network_matches_eager_pump(kind):
    """The soft error lands through ``advance_for_event``, which catches
    a lagging gateway up; the babbling idiot floods the bus with events
    no ECU needs.  Both fire exactly as often as their spec says."""
    fault = synthesize_fault(DeterministicRng(11).fork(2), kind, BODY_SPEC,
                             BODY_HORIZON_US)
    expected = (fault.flips if kind == "soft-error"
                else -(-(fault.end_us - fault.start_us) // fault.period_us))

    def faulted(eager: bool) -> str:
        scenario = scenario_for(fault)

        def arm(network) -> None:
            scenario.arm(network)
            if eager:
                _eager_pump(200)(network)

        fingerprint = _body_fingerprint(200, arm=arm)
        assert scenario.activations == expected, (kind, eager)
        return fingerprint

    assert faulted(eager=True) == faulted(eager=False), kind


def test_pump_leaves_idle_sleepers_alone(monkeypatch):
    """Only the LIN responder (once per slot, on the gateway) and the
    final horizon catch-up (once per ECU) may advance a core that is
    parked with an empty IRQ queue; with ``_eager_pump(200)`` armed this
    network makes 4,437 such advances."""
    idle: dict[str, int] = {}
    advance = Ecu.advance_to_cycle

    def counting(ecu, target):
        if ecu.cpu.sleeping and not ecu.controller.queue:
            idle[ecu.name] = idle.get(ecu.name, 0) + 1
        return advance(ecu, target)

    monkeypatch.setattr(Ecu, "advance_to_cycle", counting)
    net = build_body_network(BODY_SPEC)
    net.run(horizon_us=BODY_HORIZON_US, quantum_us=200)
    lin_slots = BODY_HORIZON_US // BODY_SPEC.lin_slot_us + 1
    assert idle.get("gateway", 0) <= lin_slots + 1
    for ecu in net.vehicle.ecus:
        if ecu is not net.gateway:
            assert idle.get(ecu.name, 0) <= 1, ecu.name


# ----------------------------------------------------------------------
# quantum-edge exactness under a starved block-cycle cap
# ----------------------------------------------------------------------

def test_quantum_edges_exact_under_starved_cycle_cap(monkeypatch):
    """With the cap starved (no block ever 'fits' under the quantum) the
    engine falls back to per-step dispatch with an exact cycle test at
    every quantum edge - and the co-simulated network must not move by a
    byte.  This pins the contract that the cap only ever trades fused
    dispatch for slack, never correctness."""
    from repro.core.cpu import _PLAN_TABLES, BaseCpu
    from repro.vehicle.vehicle import _assemble_firmware

    reference = _body_fingerprint(200)
    starved = []

    def starved_cap(self, uops):
        starved.append(len(uops))
        return 10**9

    monkeypatch.setattr(BaseCpu, "_block_cycle_cap", starved_cap)
    # caps live in engine plans, which every Program with the same
    # instructions shares: fresh Programs over fresh plan tables make
    # every cap come from the starved model, and dropping both afterwards
    # keeps the starved caps from later tests
    _assemble_firmware.cache_clear()
    _PLAN_TABLES.clear()
    try:
        assert _body_fingerprint(200) == reference
    finally:
        _assemble_firmware.cache_clear()
        _PLAN_TABLES.clear()
    assert starved, "no block cap was computed under the starved model"


# ----------------------------------------------------------------------
# campaign distribution invariance
# ----------------------------------------------------------------------

def _vehicle_specs() -> list[ScenarioSpec]:
    return [
        ScenarioSpec(label="vp a", domain="vehicle", seed=5,
                     params=(("sensors", 1), ("horizon_us", 90_000))),
        ScenarioSpec(label="vp b", domain="vehicle", seed=5,
                     params=(("sensors", 2), ("horizon_us", 90_000),
                             ("quantum_us", 100))),
        ScenarioSpec(label="vp lin", domain="lin", seed=5,
                     params=(("slots", 3), ("horizon_us", 200_000))),
    ]


def test_vehicle_campaign_byte_identical_across_workers_and_shards(tmp_path):
    specs = _vehicle_specs()

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


def test_vehicle_matrix_cells_have_unique_keys():
    specs = vehicle_matrix()
    assert len({spec.key() for spec in specs}) == len(specs)


# ----------------------------------------------------------------------
# run_until_cycle composition (the engine primitive under everything)
# ----------------------------------------------------------------------

@given(st.sampled_from(["ttsprk", "canrdr", "bitmnp"]),
       st.sampled_from([("arm7", "thumb"), ("m3", "thumb2"),
                        ("arm1156", "thumb2")]),
       st.lists(st.integers(min_value=1, max_value=2_000),
                min_size=1, max_size=6))
@settings(max_examples=12, deadline=None)
def test_run_until_cycle_composes_bit_exactly(workload_name, config, deltas):
    """Running to an arbitrary ladder of cycle targets and then to
    completion leaves the machine bit-identical to one straight run()."""
    core, isa = config
    workload = WORKLOADS_BY_NAME[workload_name]
    fn = workload.build()
    program = compile_program([fn], isa, base=FLASH_BASE)
    prepared = workload.make_input(DeterministicRng(2005), 1)

    def build():
        machine = build_machine(core, program)
        machine.load_data(SRAM_BASE, prepared.data)
        machine.cpu.regs.sp = machine.stack_top
        for index, value in enumerate(prepared.args(SRAM_BASE)):
            machine.cpu.regs.write(index, value)
        machine.cpu.regs.lr = 0xFFFFFFFE
        machine.cpu.regs.pc = program.symbols[fn.name]
        return machine

    def fingerprint(machine):
        cpu = machine.cpu
        return (list(cpu.regs.snapshot()), str(cpu.apsr), cpu.cycles,
                cpu.instructions_executed, cpu.instructions_skipped,
                cpu.branches_taken, machine.bus.reads, machine.bus.writes,
                machine.bus.total_stalls)

    straight = build()
    straight.cpu.run()
    expected = fingerprint(straight)

    laddered = build()
    target = 0
    for delta in deltas:
        target += delta
        laddered.cpu.run_until_cycle(target)
        if laddered.cpu.halted:
            break
    while not laddered.cpu.halted:
        target += 10_000
        laddered.cpu.run_until_cycle(target)
    assert fingerprint(laddered) == expected
