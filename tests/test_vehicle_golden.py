"""Golden two-ECU CAN round-trip fingerprint, pinned on both engines.

The cross-engine conformance corpus (``test_conformance_golden.py``) pins
single-machine runs; this file extends it to the co-simulation layer: a
committed fingerprint of a whole two-ECU round-trip network - both CPUs'
registers and cycle counts, both nodes' bus statistics and scratch SRAM,
and the complete CAN frame log (identifier, node, queue/completion times,
attempts) - which both engines must reproduce exactly.  Future
engine or bus-timing work cannot silently drift the executed network.

Regenerate after an *intentional* timing-model change::

    PYTHONPATH=src python tests/test_vehicle_golden.py

then review the diff: every changed number is a behaviour change in the
co-simulated vehicle.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.vehicle import RoundTripSpec, build_round_trip

GOLDEN_PATH = Path(__file__).parent / "golden" / "conformance_vehicle.json"

#: (label, fastpath)
ENGINES = (
    ("reference", False),
    ("trace", True),
)

#: the pinned scenario: M3 requester + ARM7 responder, 45 ms horizon
SPEC = RoundTripSpec()
HORIZON_US = 45_000


def compute_fingerprint(fastpath: bool) -> dict:
    network = build_round_trip(SPEC)
    for ecu in network.vehicle.ecus:
        ecu.cpu.fastpath = fastpath
    network.run(horizon_us=HORIZON_US)
    return network.fingerprint()


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"missing golden corpus {GOLDEN_PATH}; regenerate with "
            f"'PYTHONPATH=src python tests/test_vehicle_golden.py'")
    with open(GOLDEN_PATH, encoding="utf-8") as stream:
        return json.load(stream)


@pytest.mark.parametrize("engine,fastpath", ENGINES,
                         ids=[e[0] for e in ENGINES])
def test_round_trip_matches_golden_corpus(golden, engine, fastpath):
    computed = compute_fingerprint(fastpath)
    expected = golden["fingerprint"]
    drift = {key: (computed[key], expected[key])
             for key in computed if computed[key] != expected[key]}
    assert computed == expected, (
        f"{engine} engine drifted from the golden round trip: "
        f"{json.dumps(drift, default=str)[:2000]}")


def test_golden_round_trip_is_nontrivial(golden):
    """The pinned network really exchanged traffic on both legs."""
    fingerprint = golden["fingerprint"]
    frames = fingerprint["frames"]
    assert len(frames) >= 10
    assert {frame["id"] for frame in frames} == {SPEC.request_id,
                                                 SPEC.response_id}
    for node in ("requester", "responder"):
        assert fingerprint[node]["irqs"] > 0
        assert fingerprint[node]["instructions"] > 0


def regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    payload = {
        "_comment": (
            "Golden two-ECU CAN round-trip fingerprint (registers + bus "
            "stats + frame log), pinned on both engines; "
            "regenerate with 'PYTHONPATH=src python "
            "tests/test_vehicle_golden.py' and review every changed "
            "number as a behaviour change."),
        "horizon_us": HORIZON_US,
        "spec": {
            "requester": f"{SPEC.requester_core}@{SPEC.requester_mhz}MHz",
            "responder": f"{SPEC.responder_core}@{SPEC.responder_mhz}MHz",
            "period_us": SPEC.period_us,
            "bitrate": SPEC.can_bitrate,
        },
        "fingerprint": compute_fingerprint(fastpath=False),
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=1, sort_keys=True)
        stream.write("\n")
    print(f"wrote {GOLDEN_PATH} "
          f"({len(payload['fingerprint']['frames'])} frames)")


if __name__ == "__main__":
    regenerate()
