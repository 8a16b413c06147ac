"""``python -m repro.sim.service`` - run the resident campaign server."""

from __future__ import annotations

import argparse
import asyncio
import os


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.service",
        description="Long-running campaign sweep service: clients submit "
        "CampaignRequests over a line-oriented JSON protocol and stream "
        "records back in spec order; overlapping sweeps dedup through "
        "the shared record cache.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 picks an ephemeral one; the chosen port is "
        "printed and, with --port-file, written to a file)",
    )
    parser.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write the bound port number to PATH once listening (for "
        "scripts that started the service with --port 0)",
    )
    parser.add_argument(
        "--workers-proc",
        type=int,
        default=1,
        metavar="N",
        help="fleet size: cells run on N supervised worker subprocesses "
        "(default 1); crashes/hangs are detected, lost cells requeue with "
        "backoff, dead workers respawn up to a budget",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="supervised fleet: per-cell hard deadline per unit of spec "
        "scale (a deadline overrun kills the worker and requeues the cell)",
    )
    parser.add_argument(
        "--respawn-budget",
        type=int,
        default=None,
        metavar="N",
        help="supervised fleet: total worker respawns before the pool "
        "declares itself failed",
    )
    parser.add_argument(
        "--quarantine-strikes",
        type=int,
        default=None,
        metavar="N",
        help="supervised fleet: worker-fatal attempts on one spec before "
        "it is quarantined as a per-cell error record (default 2; chaos "
        "runs set it above the scheduled fault count so injected faults "
        "can never quarantine a healthy spec)",
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        metavar="SECONDS",
        help="supervised fleet: worker heartbeat interval (hang detection "
        "window is 4x this)",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="inject a deterministic fault schedule into the supervised "
        "fleet, e.g. 'seed=7,kills=2,stalls=1' (testing/CI only; see "
        "repro.sim.service.chaos)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="shared record cache directory (cross-request and cross-"
        "restart dedup); default is in-memory for the service lifetime",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=8,
        help="bounded queue: max simultaneously-active requests before submits get 'queue-full'",
    )
    parser.add_argument(
        "--max-cells",
        type=int,
        default=100_000,
        help="bounded queue: max total cells across active requests",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="enable repro.obs telemetry for this server (same as "
        "REPRO_OBS=1): the 'metrics' op then reports live counters, "
        "gauges, and histograms.  Out-of-band: record streams are "
        "byte-identical with or without it",
    )
    return parser


async def _amain(args) -> int:
    from repro.sim.service.server import CampaignService, serve_tcp

    if args.obs:
        from repro import obs

        obs.enable()
    chaos = None
    if args.chaos is not None:
        from repro.sim.service.chaos import ChaosSchedule

        chaos = ChaosSchedule.from_spec(args.chaos)
    options = {
        "cell_timeout": args.cell_timeout,
        "respawn_budget": args.respawn_budget,
        "heartbeat": args.heartbeat,
        "quarantine_strikes": args.quarantine_strikes,
        "chaos": chaos,
    }
    service = CampaignService(
        workers_proc=args.workers_proc,
        cache=args.cache,
        max_pending=args.max_pending,
        max_active_cells=args.max_cells,
        supervisor_options={k: v for k, v in options.items() if v is not None},
    )
    await service.start()
    try:
        server = await serve_tcp(service, args.host, args.port)
        host, port = server.sockets[0].getsockname()[:2]
        print(f"campaign service listening on {host}:{port}", flush=True)
        if args.port_file:
            # write-then-rename: a polling launcher never reads a
            # half-written port number
            tmp = f"{args.port_file}.{os.getpid()}.tmp"
            with open(tmp, "w", encoding="utf-8") as stream:
                stream.write(f"{port}\n")
            os.replace(tmp, args.port_file)
        async with server:
            await server.serve_forever()
        return 0
    finally:
        await service.shutdown()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
