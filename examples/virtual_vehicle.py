"""A three-ECU virtual vehicle, executed end to end.

The paper's vision - the vehicle's ECU network "harnessed as a single
compute resource" - run rather than analysed: a wheel-speed sensor ECU
(Cortex-M3), a door module (ARM7), and a seat module (ARM1156) publish
periodic CAN signals; a gateway ECU receives them over a memory-mapped
CAN controller (real MMIO + ISR work in assembled guest firmware),
transforms the window-lift command, and publishes it onto the LIN
sub-bus, where the window-lift slave ECU applies it to its actuator
register.  Everything shares one discrete-event clock; the guest cores
execute their firmware under the trace engine between bus
events.

Every observed latency is then cross-checked against the composed
analytic bound: per-ECU response-time analysis over measured handler
WCETs, the Tindell/Davis CAN response-time bound, and the LIN
schedule-table worst case.

Run:  python examples/virtual_vehicle.py
"""

from repro.vehicle import BodyNetworkSpec, SensorNode, build_body_network


def main() -> None:
    spec = BodyNetworkSpec(sensors=(
        SensorNode("wheel", "m3", 80, 0x120, 20_000),
        SensorNode("seat", "arm1156", 160, 0x180, 25_000, raw_salt=7),
        SensorNode("door", "arm7", 48, 0x200, 50_000, raw_salt=3),
    ))
    network = build_body_network(spec)
    print("virtual vehicle: 3 sensor/actuator legs on one clock")
    for node in spec.sensors:
        forwarded = " -> LIN window-lift" if node.can_id == network.forward_id \
            else ""
        print(f"  {node.name:6} {node.core:8} @{node.mhz:>3} MHz  "
              f"CAN id {node.can_id:#05x} every {node.period_us // 1000} ms"
              f"{forwarded}")
    print(f"  gateway {spec.gateway_core} @{spec.gateway_mhz} MHz, "
          f"actuator {spec.actuator_core} @{spec.actuator_mhz} MHz, "
          f"CAN {spec.can_bitrate // 1000} kbit/s, "
          f"LIN {spec.lin_baud} baud\n")

    network.run(horizon_us=400_000)
    report = network.report()

    print(f"{report.generated} samples generated, "
          f"{report.gateway_applied} gateway receipts, "
          f"{report.actuator_applied} actuator applications")
    conservation = network.vehicle.frame_conservation()
    print(f"CAN: {conservation['queued']} queued = "
          f"{conservation['delivered']} delivered + "
          f"{conservation['backlog']} in flight "
          f"(conserved: {conservation['conserved']})")
    print(f"LIN: {report.lin_deliveries} schedule-table frames, "
          f"{report.lin_no_response} silent slots\n")

    print("signal            worst observed   analytic bound")
    worst: dict[str, tuple[int, int]] = {}
    for obs in report.observations:
        seen = worst.get(obs.signal, (0, 0))
        worst[obs.signal] = (max(seen[0], obs.latency_us), obs.bound_us)
    for signal, (latency, bound) in sorted(worst.items()):
        print(f"  {signal:14} {latency:9d} us   <= {bound:8d} us")

    print(f"\nbound violations: {report.bound_violations}, "
          f"value errors: {report.value_errors}, "
          f"checksum ok: {report.checksum_ok}")
    for ecu in network.vehicle.ecus:
        stats = ecu.stats()
        print(f"  {stats['name']:8} {stats['core']:9} "
              f"{stats['instructions']:6d} instructions, "
              f"{stats['irqs_serviced']:3d} IRQs, "
              f"{stats['fused_blocks']} fused superblocks")
    print("\nhealthy:", report.healthy)


if __name__ == "__main__":
    main()
