"""Fresh-interpreter probes, run by ``run.py`` as child processes.

``probe.py setup WORKLOAD SEED SIZE CACHE_DIR`` times a fresh process
from its start until it is ready for the first cell (front-door imports
and spec generation, plus service start and TCP listen on ``fleet``),
then (on ``engine`` and ``cosim``) times the cells that pay cold costs:
the first cell of each core configuration or network shape.

``probe.py penalty`` reads one spec (``spec_to_obj`` JSON) on stdin,
imports only what a fleet worker imports, and times the cell twice: the
first run pays a fresh worker's cold start, the second runs warm.

Times are normalised to the nominal host speed with the calibration loop
run before and after them (see ``hostspeed.py``); raw times ride along.

Each probe prints one JSON object on its last line.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import hostspeed  # noqa: E402 - needs the path above

_REF_START = hostspeed.reference()
_START = time.perf_counter()


def _setup(workload: str, seed: int, size_name: str, cache_dir: str) -> dict:
    started = time.perf_counter()
    from repro.sim.campaign import CampaignRequest, execute_request

    if workload == "fleet":
        import repro.sim.service  # noqa: F401 - the fleet's front door
    imported = time.perf_counter() - started

    from perfbench import workloads

    size = workloads.SIZES[size_name]
    raw_cold = []
    cold_refs = []
    failed = 0
    if workload == "fleet":
        from perfbench import fleet

        workloads.FleetPool(seed, size).window_specs(1, 0)
        ready = fleet.start_and_stop(cache_dir)
        ref_ready = hostspeed.reference()
    else:
        specs = workloads.specs_for(workload, seed, size)
        ready = time.perf_counter()
        ref_ready = ref = hostspeed.reference()
        for spec in workloads.cold_cells(workload, specs):
            started = time.perf_counter()
            record = execute_request(CampaignRequest(specs=(spec,))).records[0]
            raw_cold.append(time.perf_counter() - started)
            after = hostspeed.reference()
            cold_refs.append((ref + after) / 2)
            ref = after
            failed += not record.verified
    setup_ref = (_REF_START + ref_ready) / 2
    return {"setup_s": hostspeed.normalise(ready - _START, setup_ref),
            "raw_setup_s": ready - _START,
            "import_ms": 1e3 * hostspeed.normalise(imported, setup_ref),
            "cold_ms": [1e3 * hostspeed.normalise(t, r) for t, r in zip(raw_cold, cold_refs)],
            "raw_cold_ms": [1e3 * t for t in raw_cold],
            "failed": failed}


def _penalty() -> dict:
    from repro.sim.campaign import run_scenario
    from repro.sim.campaign.request import record_to_obj, spec_from_obj

    spec = spec_from_obj(json.loads(sys.stdin.read()))
    raw = []
    normalised = []
    records = []
    ref = _REF_START
    for _ in range(2):
        started = time.perf_counter()
        records.append(run_scenario(spec))
        raw.append((time.perf_counter() - started) * 1e3)
        after = hostspeed.reference()
        normalised.append(hostspeed.normalise(raw[-1], (ref + after) / 2))
        ref = after
    return {"cold_ms": normalised[0], "warm_ms": normalised[1], "raw_cold_ms": raw[0],
            "verified": records[0].verified,
            "same": record_to_obj(records[0]) == record_to_obj(records[1])}


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 5:
        result = _setup(argv[1], int(argv[2]), argv[3], argv[4])
    elif argv == ["penalty"]:
        result = _penalty()
    else:
        print("usage: probe.py setup WORKLOAD SEED SIZE CACHE_DIR | probe.py penalty",
              file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
