"""Virtual vehicle: cycle-coupled multi-ECU co-simulation.

Real CPU-core models running real assembled firmware, wired to the
discrete-event CAN bus and the LIN sub-bus through memory-mapped network
controllers, all on one shared clock - see :mod:`repro.vehicle.vehicle`
for the composition model, the event-driven pump that advances only the
ECUs with work, and why skipping idle ECUs changes no byte.
"""

from repro.vehicle.controllers import (
    ActuatorDevice,
    CanController,
    LinController,
    MmioDevice,
    SensorDevice,
)
from repro.vehicle.ecu import (
    IRQ_DELIVERY_CYCLES,
    TX_DELAY_US,
    CosimDeterminismError,
    Ecu,
)
from repro.vehicle.faults import (
    FAULT_KINDS,
    VERDICT_CLAIMS,
    BabblingIdiot,
    BusOffStorm,
    FaultScenario,
    FaultSpec,
    FirmwareSoftError,
    GatewayOverload,
    LinSlotFault,
    scenario_for,
    synthesize_fault,
)
from repro.vehicle.vehicle import (
    BodyNetwork,
    BodyNetworkReport,
    BodyNetworkSpec,
    RoundTrip,
    RoundTripSpec,
    SensorNode,
    SignalObservation,
    VirtualVehicle,
    build_body_network,
    build_guest_machine,
    build_round_trip,
    sample_raw,
)

__all__ = [
    "ActuatorDevice", "CanController", "LinController", "MmioDevice",
    "SensorDevice",
    "IRQ_DELIVERY_CYCLES", "TX_DELAY_US", "CosimDeterminismError", "Ecu",
    "FAULT_KINDS", "VERDICT_CLAIMS", "BabblingIdiot", "BusOffStorm",
    "FaultScenario", "FaultSpec", "FirmwareSoftError", "GatewayOverload",
    "LinSlotFault", "scenario_for", "synthesize_fault",
    "BodyNetwork", "BodyNetworkReport", "BodyNetworkSpec", "RoundTrip",
    "RoundTripSpec", "SensorNode", "SignalObservation", "VirtualVehicle",
    "build_body_network", "build_guest_machine", "build_round_trip",
    "sample_raw",
]
