"""``repro-ensemble serve`` / ``repro-ensemble submit``: the service CLI.

``serve`` runs a :class:`~repro.serve.CampaignServer` in the foreground
until interrupted (first Ctrl-C drains gracefully; a second one aborts).
``submit`` is the one-shot client: it submits a campaign to a running
server, streams the result, and prints it in exactly the format of the
local one-shot CLI — the two paths are bitwise-comparable by design
(``make serve-demo`` holds them to that).
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.errors import LoaderError, ReproError, ServeError
from repro.host.launch import LaunchSpec
from repro.runtime.backend import available_backends


# ---------------------------------------------------------------------------
# repro-ensemble serve
# ---------------------------------------------------------------------------
def build_serve_parser() -> argparse.ArgumentParser:
    """The ``repro-ensemble serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-ensemble serve",
        description="Run the campaign server: one shared device pool "
        "serving concurrent multi-tenant ensemble submissions.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7421)
    parser.add_argument(
        "--unix", metavar="PATH", default=None,
        help="listen on a unix socket instead of TCP",
    )
    parser.add_argument(
        "--devices", type=int, default=2, metavar="K",
        help="size of the shared simulated device pool",
    )
    parser.add_argument(
        "--max-batch", type=int, default=None, metavar="B",
        help="cap instances per launch (OOM-bisected below it)",
    )
    parser.add_argument(
        "--retries", type=int, default=2,
        help="default scheduler retries per faulting shard",
    )
    parser.add_argument(
        "--no-static-packing", action="store_true",
        help="disable static-footprint batch seeding",
    )
    parser.add_argument(
        "--max-pending", type=int, default=64,
        help="admission cap: queued submissions across all tenants",
    )
    parser.add_argument(
        "--max-pending-per-tenant", type=int, default=16,
        help="admission cap: queued submissions per tenant",
    )
    parser.add_argument(
        "--max-active", type=int, default=4,
        help="jobs admitted into the scheduler at once",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persist the compile-once executable cache to DIR (warm "
        "state survives drain/restart)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the cross-tenant executable cache entirely",
    )
    return parser


def serve_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-ensemble serve``: host a campaign server."""
    args = build_serve_parser().parse_args(argv)
    from repro.serve.server import CampaignServer, ServeConfig

    server = CampaignServer(
        devices=args.devices,
        max_batch=args.max_batch,
        default_retries=args.retries,
        static_packing=not args.no_static_packing,
        cache=False if args.no_cache else None,
        cache_dir=args.cache_dir,
        config=ServeConfig(
            max_pending=args.max_pending,
            max_pending_per_tenant=args.max_pending_per_tenant,
            max_active=args.max_active,
        ),
    )

    async def run() -> None:
        address = await server.start(
            host=args.host, port=args.port, path=args.unix
        )
        if isinstance(address, tuple):
            where = f"{address[0]}:{address[1]}"
        else:
            where = address
        print(
            f"repro.serve: listening on {where} "
            f"({args.devices} devices, max_active={args.max_active})",
            file=sys.stderr,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("repro.serve: interrupted, draining", file=sys.stderr)

        async def shutdown() -> None:
            # A fresh loop: finish whatever the old loop had accepted is
            # not possible across loops, so just release resources.
            await server.close()

        try:
            asyncio.run(shutdown())
        except KeyboardInterrupt:
            pass
    return 0


# ---------------------------------------------------------------------------
# repro-ensemble submit
# ---------------------------------------------------------------------------
def build_submit_parser() -> argparse.ArgumentParser:
    """The ``repro-ensemble submit`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-ensemble submit",
        description="Submit a campaign to a running repro.serve server "
        "and stream the result.",
    )
    parser.add_argument(
        "--connect", metavar="HOST:PORT", default="127.0.0.1:7421",
        help="server TCP address",
    )
    parser.add_argument(
        "--unix", metavar="PATH", default=None,
        help="connect over a unix socket instead of TCP",
    )
    parser.add_argument("--app", required=True)
    parser.add_argument("-f", "--arg-file", required=True)
    parser.add_argument("-n", "--num-instances", type=int, default=None)
    parser.add_argument(
        "-t", "--thread-limit", type=int, default=LaunchSpec.thread_limit
    )
    parser.add_argument("--pack", type=int, default=1, metavar="M")
    parser.add_argument(
        "--heap-mb", type=int, default=64,
        help="device heap size for application malloc (MiB)",
    )
    parser.add_argument("--max-steps", type=int, default=LaunchSpec.max_steps)
    parser.add_argument(
        "--backend",
        default=LaunchSpec.backend,
        choices=available_backends(),
        help=f"execution engine (default: {LaunchSpec.backend}; 'interp' is "
        "the reference interpreter)",
    )
    parser.add_argument("--no-timing", action="store_true")
    parser.add_argument("--allow-races", action="store_true")
    parser.add_argument("--team-local-globals", action="store_true")
    parser.add_argument("--opt-level", type=int, choices=(0, 1, 2), default=1)
    parser.add_argument("--retries", type=int, default=None)
    parser.add_argument(
        "--step-budget", type=int, default=None,
        help="deadline: total interpreter steps this job may spend",
    )
    parser.add_argument(
        "--tenant", default="anonymous",
        help="fair-share identity this submission runs as",
    )
    parser.add_argument(
        "--priority", type=int, default=0,
        help="fair-share priority (0 = baseline; higher = larger share)",
    )
    parser.add_argument("--inject", metavar="PLAN", default=None)
    parser.add_argument("--inject-seed", type=int, default=0, metavar="N")
    parser.add_argument("--quiet", action="store_true")
    return parser


def _address(args):
    if args.unix:
        return args.unix
    host, _, port = args.connect.rpartition(":")
    return (host or "127.0.0.1", int(port))


def submit_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-ensemble submit``: run one campaign through
    a running server and print the usual per-instance report."""
    parser = build_submit_parser()
    args = parser.parse_args(argv)
    from repro.host.cli import _print_instances, _spec
    from repro.obs import report
    from repro.serve.client import Client

    try:
        spec = _spec(parser, args, args.arg_file)
    except LoaderError as exc:
        parser.error(str(exc))
    loader_opts = dict(
        heap_bytes=args.heap_mb * 1024 * 1024,
        allow_races=args.allow_races,
        team_local_globals=args.team_local_globals,
        opt_level=args.opt_level,
        pack=args.pack,
    )

    try:
        with Client(_address(args)) as client:
            job = client.submit(
                args.app,
                spec,
                tenant=args.tenant,
                priority=args.priority,
                retries=args.retries,
                step_budget=args.step_budget,
                loader_opts=loader_opts,
            )
            print(
                f"submitted job {job.job_id} "
                f"(tenant={args.tenant}, {job.ticket.spec_hash})",
                file=sys.stderr,
            )
            result = job.result()
    except ServeError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2 if exc.code in ("E_ADMISSION", "E_DRAINING") else 1
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _print_instances(result, args.quiet)
    print(f"campaign: {report(result, format='summary')}")
    return 0 if result.all_succeeded else 1


__all__ = [
    "build_serve_parser",
    "build_submit_parser",
    "serve_main",
    "submit_main",
]
