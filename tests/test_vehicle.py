"""The virtual vehicle: controllers, ECU clock glue, and the end-to-end
three-ECU body network (sensor -> CAN -> gateway -> LIN -> actuator).

The headline assertions mirror the co-simulation's acceptance criteria:
guest code does real MMIO and ISR work on all three core models, every
observed signal latency respects its composed analytic bound
(RTA + Tindell/Davis CAN + LIN schedule table), CAN frames and signal
sequences are conserved, and the guests keep running on the fused trace
engine between bus events.
"""

from __future__ import annotations

import pytest

from repro.core import FLASH_BASE, build_cortexm3
from repro.isa import ISA_THUMB2, assemble
from repro.memory.bus import BusFault
from repro.vehicle import (
    BodyNetworkSpec,
    CosimDeterminismError,
    Ecu,
    RoundTripSpec,
    SensorNode,
    build_body_network,
    build_guest_machine,
    build_round_trip,
)
from repro.vehicle import firmware
from repro.vehicle.controllers import SensorDevice

THREE_CORES = (
    SensorNode("wheel", "m3", 80, 0x120, 20_000),
    SensorNode("seat", "arm1156", 160, 0x180, 25_000, raw_salt=7),
    SensorNode("door", "arm7", 48, 0x200, 50_000, raw_salt=3),
)


@pytest.fixture(scope="module")
def body_network():
    net = build_body_network(BodyNetworkSpec(sensors=THREE_CORES))
    net.run(horizon_us=220_000)
    return net, net.report()


# ----------------------------------------------------------------------
# the end-to-end network
# ----------------------------------------------------------------------

def test_three_ecu_network_is_healthy(body_network):
    net, report = body_network
    assert report.generated > 0
    assert report.gateway_applied > 0
    assert report.actuator_applied > 0
    assert report.healthy


def test_every_latency_respects_its_analytic_bound(body_network):
    net, report = body_network
    assert report.observations, "nothing was observed end to end"
    assert report.bound_violations == 0
    for obs in report.observations:
        assert obs.latency_us <= obs.bound_us, (obs.signal, obs.seq)
    # and the bounds are not vacuous: latencies are real microseconds
    assert report.worst_latency_us > 0
    assert report.worst_bound_us >= report.worst_latency_us


def test_end_to_end_values_match_python_mirror(body_network):
    net, report = body_network
    assert report.value_errors == 0
    forwarded = [o for o in report.observations if o.signal.endswith("->lin")]
    assert forwarded, "the LIN leg never delivered a command"
    assert all(o.value_ok for o in report.observations)


def test_frames_and_sequences_are_conserved(body_network):
    net, report = body_network
    conservation = net.vehicle.frame_conservation()
    assert conservation["conserved"]
    assert conservation["queued"] == report.generated
    assert report.conservation_ok
    assert report.checksum_ok


def test_guests_stay_on_the_trace_engine(body_network):
    net, _ = body_network
    for ecu in net.vehicle.ecus:
        assert ecu.cpu.fastpath
        assert ecu.fused_block_count() > 0, (
            f"{ecu.name} never fused a superblock: the co-simulation "
            f"fell off the trace engine")


def test_all_three_core_models_did_real_isr_work(body_network):
    net, _ = body_network
    cores = {ecu.cpu.name for ecu in net.vehicle.ecus}
    assert cores == {"cortex-m3", "arm7", "arm1156"}
    for ecu in net.vehicle.ecus:
        assert ecu.controller.stats.serviced > 0, ecu.name
        assert ecu.cpu.instructions_executed > 0, ecu.name


def test_gateway_mmio_really_happened(body_network):
    net, report = body_network
    # the gateway's CAN cell received every sensor frame over MMIO
    assert net.gateway_can.fifo.received == report.generated
    assert net.gateway_lin.publishes > 0
    # the actuator's LIN cell received schedule-table broadcasts
    assert net.actuator_lin.fifo.received > 0
    assert len(net.actuator_out.applied) > 0


def test_lin_leg_is_schedule_table_driven(body_network):
    net, report = body_network
    assert report.lin_deliveries > 0
    assert report.lin_no_response == 0
    spec = net.spec
    bound = net.vehicle.lin.worst_case_latency_us(spec.lin_frame_id)
    assert bound == net.vehicle.lin.cycle_us + \
        net.vehicle.lin.schedule[0].frame_time_us(spec.lin_baud)


# ----------------------------------------------------------------------
# the round trip
# ----------------------------------------------------------------------

def test_round_trip_accumulates_mirrored_responses():
    rt = build_round_trip(RoundTripSpec())
    rt.run(horizon_us=60_000)
    requests, responses, acc = rt.expected_state()
    assert requests == 12 and responses == 12
    observed = rt.requester.machine.bus.read_raw(
        firmware.ROUNDTRIP_ACC_ADDR, 4)
    assert observed == acc
    assert rt.vehicle.frame_conservation()["conserved"]


# ----------------------------------------------------------------------
# controllers and the Ecu clock glue
# ----------------------------------------------------------------------

def _bare_ecu() -> Ecu:
    machine = build_guest_machine("m3", firmware.actuator_source())
    return Ecu("bare", machine, clock_mhz=10)


def test_clock_conversion_round_trips():
    ecu = _bare_ecu()
    assert ecu.cycle_of_us(7) == 70
    assert ecu.us_of_cycle(70) == 7
    assert ecu.us_of_cycle(71) == 8          # ceiling: end of the cycle
    with pytest.raises(ValueError):
        Ecu("bad", build_guest_machine("m3", firmware.actuator_source()),
            clock_mhz=0)


def _bare_lin(ecu: Ecu):
    from repro.vehicle import LinController

    lin = LinController()
    ecu.attach_device(lin)
    return lin


def test_rx_fifo_visibility_gating():
    """A frame deposited at bus time T is invisible to guest cycles < T."""
    ecu = _bare_ecu()
    lin = _bare_lin(ecu)
    lin.fifo.push(0x21, 0xAB, visible_from=1_000)
    ecu.cpu.cycles = 999
    assert lin.read_register(0x0C) == 0      # RXSTAT: nothing yet
    assert lin.read_register(0x08) == 0
    ecu.cpu.cycles = 1_000
    assert lin.read_register(0x0C) == 1
    assert lin.read_register(0x08) == 0xAB
    lin.write_register(0x0C, 1)              # pop
    assert lin.read_register(0x0C) == 0


def test_rx_fifo_overflow_is_counted_not_silent():
    ecu = _bare_ecu()
    lin = _bare_lin(ecu)
    for n in range(10):
        lin.fifo.push(0x21, n, visible_from=0)
    assert lin.fifo.dropped == 2             # capacity 8
    assert lin.read_register(0x10) == 2


def test_sensor_latch_promotes_in_visibility_order():
    ecu = _bare_ecu()
    sensor = SensorDevice()
    ecu.attach_device(sensor)
    sensor.latch(0x11, visible_from=100)
    sensor.latch(0x22, visible_from=200)
    ecu.cpu.cycles = 150
    assert sensor.read_register(0) == 0x11
    ecu.cpu.cycles = 250
    assert sensor.read_register(0) == 0x22


def test_mmio_requires_aligned_word_access():
    ecu = _bare_ecu()
    lin = _bare_lin(ecu)
    with pytest.raises(BusFault):
        lin.read(lin.base + 2, 2)
    with pytest.raises(BusFault):
        lin.write(lin.base + 1, 1, 0xFF)


def test_stale_interrupt_raises_determinism_error():
    ecu = _bare_ecu()
    ecu.cpu.cycles = 10 * ecu.mhz + ecu.irq_latency + 1
    with pytest.raises(CosimDeterminismError, match="irq_latency_cycles"):
        ecu.raise_irq(1, handler=0x0800_0000, at_us=10)


def test_oversized_quantum_trips_the_tx_guard():
    rt = build_round_trip(RoundTripSpec(tx_delay_us=200))
    with pytest.raises(CosimDeterminismError, match="tx_delay_us"):
        rt.run(horizon_us=30_000, quantum_us=2_000)


def test_sleep_fast_forward_matches_reference_stepping():
    """The O(1) WFI fast-forward must be bit-identical to charging one
    cycle per poll, including a mid-sleep wake-up."""
    source = """
main:
    wfi
    b main
handler:
    movs r0, #42
    bx lr
"""
    program = assemble(source, ISA_THUMB2, base=FLASH_BASE)

    def build(fast: bool):
        machine = build_cortexm3(program)
        ecu = Ecu("s", machine, clock_mhz=10)
        machine.cpu.nvic.raise_irq(1, handler=program.symbols["handler"],
                                   at_cycle=1_234)
        return ecu

    fast = build(True)
    fast.advance_to_cycle(5_000)

    ref = build(False)
    cpu = ref.cpu
    while not cpu.halted and cpu.cycles < 5_000:
        cpu.step()

    assert fast.cpu.cycles == ref.cpu.cycles == 5_000
    assert list(fast.cpu.regs.snapshot()) == list(ref.cpu.regs.snapshot())
    assert (fast.cpu.instructions_executed == cpu.instructions_executed)
    assert fast.controller.stats.serviced == 1
    assert fast.controller.stats.records[0].entry_cycle == \
        ref.controller.stats.records[0].entry_cycle


def test_body_network_spec_validation():
    with pytest.raises(ValueError, match="at least one sensor"):
        build_body_network(BodyNetworkSpec(sensors=()))
    with pytest.raises(ValueError, match="forward_index"):
        build_body_network(BodyNetworkSpec(sensors=THREE_CORES[:1],
                                           forward_index=3))
    with pytest.raises(ValueError, match="unknown guest core"):
        build_guest_machine("z80", firmware.actuator_source())
