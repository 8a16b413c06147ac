"""Campaign-as-a-service: two overlapping sweeps, one shared computation.

Starts the resident campaign service in-process (its cells run on a
one-worker supervised fleet), connects two clients whose sweeps overlap,
and submits both while the dispatcher is paused - so the overlap is
visible as *joined* cells (computed once, delivered to both) rather than
cache replays.  Each client streams its records to a
JSONL file; the example then proves both files byte-identical to local
runs of the same requests, and that the server computed exactly the
union of cells.

The same service runs standalone for real cross-process traffic::

    python -m repro.sim.service --port 0 --port-file port.txt --workers-proc 4
    python -m repro.sim.campaign --matrix smoke --connect 127.0.0.1:$(cat port.txt) --stream out.jsonl

Run:  python examples/campaign_service.py
"""

import asyncio
import tempfile
from pathlib import Path

from repro.sim import CampaignRequest, ScenarioSpec, execute_request
from repro.sim.service import CampaignClient, CampaignService, serve_tcp

POOL = [
    ScenarioSpec(label="osek A", domain="osek",
                 params=(("tasks", 4), ("utilisation", 0.6))),
    ScenarioSpec(label="osek B", domain="osek", seed=9,
                 params=(("tasks", 5), ("utilisation", 0.8))),
    ScenarioSpec(label="can A", domain="can",
                 params=(("messages", 5), ("load", 0.4))),
    ScenarioSpec(label="can B", domain="can", seed=13,
                 params=(("messages", 6), ("load", 0.6))),
]

#: the two clients' sweeps share the middle two cells
SWEEP_ONE = CampaignRequest(specs=tuple(POOL[:3]))
SWEEP_TWO = CampaignRequest(specs=tuple(POOL[1:]))


async def run_service(tmp: Path) -> tuple[dict, dict, int]:
    service = CampaignService()
    await service.start()
    server = await serve_tcp(service)
    port = server.sockets[0].getsockname()[1]
    print(f"service up on 127.0.0.1:{port} "
          f"(fleet of {service.workers} worker, in-memory cache)")
    try:
        one = await CampaignClient.connect(port=port)
        two = await CampaignClient.connect(port=port)
        try:
            # pause the dispatcher so both submits land before any cell
            # starts: the overlap joins in-flight work instead of hitting
            # the cache (either way it computes once)
            service.pause()
            rid_one = await one.submit(SWEEP_ONE)
            rid_two = await two.submit(SWEEP_TWO)
            print(f"submitted {rid_one} ({len(SWEEP_ONE.specs)} cells) and "
                  f"{rid_two} ({len(SWEEP_TWO.specs)} cells), 2 shared")
            service.resume()
            done_one, done_two = await asyncio.gather(
                one.stream(rid_one, stream_path=tmp / "one.jsonl"),
                two.stream(rid_two, stream_path=tmp / "two.jsonl"))
        finally:
            await one.close()
            await two.close()
    finally:
        server.close()
        await server.wait_closed()
        await service.shutdown()
    return done_one, done_two, service.computed


def main() -> None:
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        done_one, done_two, computed = asyncio.run(run_service(tmp))

        for name, done in (("one", done_one), ("two", done_two)):
            print(f"client {name}: {done['ran']} records "
                  f"({done['verified']} verified) - {done['replayed']} "
                  f"replayed, {done['joined']} joined, "
                  f"{done['computed']} computed")
        union = {s.key() for s in SWEEP_ONE.specs + SWEEP_TWO.specs}
        print(f"server computed {computed} cells for "
              f"{len(SWEEP_ONE.specs) + len(SWEEP_TWO.specs)} requested "
              f"(union of both sweeps: {len(union)})")

        # the determinism claim: each streamed file is byte-identical to
        # a local run of the same request
        execute_request(SWEEP_ONE, stream_path=tmp / "local_one.jsonl")
        execute_request(SWEEP_TWO, stream_path=tmp / "local_two.jsonl")
        for name in ("one", "two"):
            streamed = (tmp / f"{name}.jsonl").read_bytes()
            local = (tmp / f"local_{name}.jsonl").read_bytes()
            print(f"client {name} stream == local run: {streamed == local}")


if __name__ == "__main__":
    main()
