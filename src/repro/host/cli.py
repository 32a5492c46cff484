"""Command-line interface mirroring the paper's GPU ensembler (Figure 5c)::

    repro-ensemble --app xsbench -f arguments.txt -n 4 -t 128

``--app`` selects one of the ported benchmarks (the paper's equivalent is
"which binary you compiled"); ``-f``/``-n``/``-t`` are exactly the enhanced
loader's options from §3.2.  ``--script`` treats the file as an argument
*script* (§3.2 future work) and expands it first.

Beyond the paper: ``--devices K`` with ``K > 1``, or ``--max-batch``,
runs the campaign through :class:`~repro.sched.Scheduler` over a K-GPU
:class:`~repro.sched.DevicePool` (sharding, OOM bisection past the memory
wall), with ``--retries`` bounding transient-fault retries and
``--max-steps`` capping interpreter steps per launch.

``--auto SCRIPT[:FUNC]`` replaces the argument file with a natural
Python driver loop: the script's driver function is proven
iteration-independent by :mod:`repro.analysis.driverdep` and executed as
one ensemble through :func:`repro.frontend.autoensemble.auto_launch`.
Dependent loops are rejected with the analyzer's structured findings.
"""

from __future__ import annotations

import argparse
import sys

from repro.config import DEFAULT_DEVICE
from repro.errors import DeviceOutOfMemory, ReproError
from repro.faults import FaultPlan, FaultPlanError
from repro.gpu.device import GPUDevice
from repro.host.argscript import expand_argument_script
from repro.host.ensemble_loader import EnsembleLoader
from repro.host.launch import DEFAULT_MAX_STEPS, LaunchSpec
from repro.runtime.backend import DEFAULT_BACKEND, available_backends
from repro.host.mapping import OneInstancePerTeam, PackedMapping
from repro.obs import Observability, report


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the ensembler CLI (-f/-n/-t of the paper)."""
    parser = argparse.ArgumentParser(
        prog="repro-ensemble",
        description="Run ensembles of directly-GPU-compiled applications "
        "on the simulated device.",
    )
    parser.add_argument(
        "--app",
        required=True,
        help="benchmark application to run (see --list-apps)",
    )
    parser.add_argument("-f", "--arg-file", help="command-line arguments file")
    parser.add_argument(
        "--auto",
        metavar="SCRIPT[:FUNC]",
        default=None,
        help="auto-ensemble a natural Python driver loop instead of an "
        "argument file: prove the loop iteration-independent, trace it, "
        "and launch the recorded instances as one ensemble (FUNC defaults "
        "to 'driver', or the script's only function)",
    )
    parser.add_argument(
        "-n",
        "--num-instances",
        type=int,
        default=None,
        help="number of instances to launch simultaneously",
    )
    parser.add_argument(
        "-t",
        "--thread-limit",
        type=int,
        default=1024,
        help="maximum number of threads each instance can utilize",
    )
    parser.add_argument(
        "--pack",
        type=int,
        default=1,
        metavar="M",
        help="pack M instances per team using the (N/M, M, 1) mapping",
    )
    parser.add_argument(
        "--script",
        action="store_true",
        help="treat the -f file as an argument script and expand it",
    )
    parser.add_argument(
        "--heap-mb",
        type=int,
        default=64,
        help="device heap size for application malloc (MiB)",
    )
    parser.add_argument(
        "--devices",
        type=int,
        default=1,
        metavar="K",
        help="size of the simulated device pool; K > 1 shards the campaign "
        "across K GPUs through the scheduler",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=None,
        metavar="B",
        help="cap instances per launch and run as a scheduled campaign "
        "(OOM-bisected) instead of one monolithic ensemble",
    )
    parser.add_argument(
        "--max-steps",
        type=int,
        default=DEFAULT_MAX_STEPS,
        help="interpreter-step cap per launch (livelock guard)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="scheduler retries per faulting shard before the job fails",
    )
    parser.add_argument(
        "--no-timing",
        action="store_true",
        help="skip the timing model (faster; cycle counts become unavailable)",
    )
    parser.add_argument(
        "--backend",
        default=DEFAULT_BACKEND,
        choices=available_backends(),
        help="execution engine: 'compiled' (the default: block-compiled "
        "threaded code, bitwise-identical results, faster) or 'interp' "
        "(the reference SIMT interpreter)",
    )
    parser.add_argument(
        "--allow-races",
        action="store_true",
        help="launch even when the static race checker reports that mutable "
        "globals are shared across instances",
    )
    parser.add_argument(
        "--team-local-globals",
        action="store_true",
        help="relocate mutable globals per-team (the globals_to_shared pass) "
        "before launching",
    )
    parser.add_argument(
        "--opt-level",
        type=int,
        choices=(0, 1, 2),
        default=1,
        help="optimization stage: 0 inline-only, 1 classic sweep (default), "
        "2 adds the interprocedural stage (points-to-driven barrier "
        "elimination, alias DCE, read-only load hoisting)",
    )
    parser.add_argument(
        "--no-static-packing",
        action="store_true",
        help="disable seeding batch sizes from the static footprint "
        "(scheduled runs fall back to pure OOM bisection)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="compile through a persistent executable cache rooted at DIR "
        "(compile-once across invocations; see docs/compilecache.md)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir and compile cold",
    )
    parser.add_argument(
        "--inject",
        metavar="PLAN",
        default=None,
        help="deterministic fault plan to inject (e.g. "
        "'oom:device=pool1;rpc_drop:rate=0.05'); see docs/faults.md and "
        "'python -m repro.faults.check --kinds'",
    )
    parser.add_argument(
        "--inject-seed",
        type=int,
        default=0,
        metavar="N",
        help="base seed for the fault plan's random streams",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event JSON of the run (open in "
        "chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the metrics registry as JSON (or line protocol with "
        "a .lines suffix)",
    )
    parser.add_argument("--list-apps", action="store_true", help="list available apps")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-instance stdout"
    )
    return parser


def _print_fault_lines(result, faults, metrics) -> None:
    """Summarize what the injector did and how the stack degraded."""
    fired = faults.summary() if faults.enabled else {}
    fired_txt = (
        ", ".join(f"{k}={n}" for k, n in sorted(fired.items())) or "none fired"
    )
    recovered = int(sum(c.value for c in metrics.series("faults.recovered")))
    reports = getattr(result, "fault_reports", [])
    print(
        f"faults: injected {fired_txt}; {recovered} recovered, "
        f"{len(reports)} report(s)"
    )
    for rep in reports:
        where = f" on {rep.device}" if rep.device else ""
        print(
            f"  [fault] {rep.kind}@{rep.point}{where} "
            f"instances={rep.instances}: {rep.message}"
        )


def _print_instances(result, quiet: bool) -> None:
    for inst in result.instances:
        if not quiet and inst.stdout:
            sys.stdout.write(inst.stdout)
        print(
            f"[instance {inst.index}] args={' '.join(inst.args)} "
            f"-> exit {inst.exit_code}"
        )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run an application ensemble (Figure 5c).

    ``repro-ensemble serve`` / ``repro-ensemble submit`` route to the
    campaign-service CLI (:mod:`repro.serve.cli`); everything else is the
    classic one-shot ensembler.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in ("serve", "submit"):
        from repro.serve.cli import serve_main, submit_main

        handler = serve_main if argv[0] == "serve" else submit_main
        return handler(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)

    from repro.apps.registry import APPS, get_app

    if args.list_apps:
        for name, entry in sorted(APPS.items()):
            print(f"{name:12s} {entry.description}")
        return 0

    try:
        app = get_app(args.app)
    except KeyError:
        parser.error(f"unknown app {args.app!r}; try --list-apps")

    if args.arg_file is None and args.auto is None:
        parser.error("-f/--arg-file (or --auto) is required to run an ensemble")
    if args.arg_file is not None and args.auto is not None:
        parser.error("-f/--arg-file and --auto are mutually exclusive")
    if args.devices < 1:
        parser.error("--devices must be >= 1")

    # A recording tracer only when a trace is requested; the metrics
    # registry is always live (it is just dictionaries).
    obs = Observability.enabled() if args.trace_out else Observability()

    try:
        return _run(parser, args, app, obs)
    finally:
        _write_obs_outputs(obs, args)


def _write_obs_outputs(obs: Observability, args) -> None:
    """Flush --trace-out / --metrics-out files (also on failure paths)."""
    if args.trace_out:
        obs.write_trace(args.trace_out)
        print(f"wrote trace {args.trace_out}", file=sys.stderr)
    if args.metrics_out:
        fmt = "lines" if str(args.metrics_out).endswith(".lines") else "json"
        obs.write_metrics(args.metrics_out, format=fmt)
        print(f"wrote metrics {args.metrics_out}", file=sys.stderr)


def _parse_fault_plan(parser, args):
    if not args.inject:
        return None
    try:
        return FaultPlan.parse(args.inject, seed=args.inject_seed)
    except FaultPlanError as exc:
        parser.error(f"--inject: {exc}")


def _loader_opts(args) -> dict:
    mapping = PackedMapping(args.pack) if args.pack > 1 else OneInstancePerTeam()
    return dict(
        mapping=mapping,
        heap_bytes=args.heap_mb * 1024 * 1024,
        team_local_globals=args.team_local_globals,
        allow_races=args.allow_races,
        opt_level=args.opt_level,
    )


def _load_driver(parser, spec_str: str):
    """Resolve --auto's ``SCRIPT[:FUNC]`` to a live driver function."""
    import importlib.util
    import inspect
    from pathlib import Path

    path, _, func = spec_str.partition(":")
    p = Path(path)
    if not p.exists():
        parser.error(f"--auto: no such script {path!r}")
    spec = importlib.util.spec_from_file_location(f"_auto_driver_{p.stem}", p)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except Exception as exc:
        parser.error(f"--auto: importing {path} failed: {exc}")
    if func:
        fn = getattr(module, func, None)
        if not callable(fn):
            parser.error(f"--auto: {path} defines no function {func!r}")
        return fn
    fn = getattr(module, "driver", None)
    if callable(fn):
        return fn
    own = [
        v
        for v in vars(module).values()
        if inspect.isfunction(v) and v.__module__ == module.__name__
    ]
    if len(own) == 1:
        return own[0]
    parser.error(
        f"--auto: {path} defines {len(own)} functions and none named "
        f"'driver'; pick one with {path}:FUNC"
    )


def _run_auto(parser, args, app, obs: Observability) -> int:
    """--auto: prove, trace, launch, and replay a natural driver loop."""
    from repro.errors import AutoEnsembleError
    from repro.frontend.autoensemble import EnsembleBackend, auto_launch

    fn = _load_driver(parser, args.auto)
    backend = EnsembleBackend(
        app,
        devices=args.devices,
        thread_limit=args.thread_limit,
        max_steps=args.max_steps,
        collect_timing=not args.no_timing,
        fault_plan=_parse_fault_plan(parser, args),
        obs=obs,
        loader_opts=_loader_opts(args),
        max_batch=args.max_batch,
        retries=args.retries,
        backend=args.backend,
    )
    try:
        outcome = auto_launch(fn, app, backend=backend)
    except AutoEnsembleError as exc:
        print(f"auto-ensemble rejected: {exc}", file=sys.stderr)
        return 1
    except DeviceOutOfMemory as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _print_instances(outcome, args.quiet)
    reductions = sum(len(c.reductions) for c in outcome.classifications)
    print(
        f"auto-ensemble: driver {fn.__name__}() -> "
        f"{outcome.num_instances} instances, {reductions} reduction(s) "
        f"replayed in loop order"
    )
    if outcome.campaign is not None:
        print(f"campaign: {report(outcome.campaign, format='summary')}")
    if outcome.value is not None:
        print(f"driver value: {outcome.value!r}")
    return 0 if outcome.all_succeeded else 1


def _run(parser, args, app, obs: Observability) -> int:
    """Execute the ensemble described by the parsed ``args``."""
    if args.auto is not None:
        return _run_auto(parser, args, app, obs)
    try:
        if args.script:
            from pathlib import Path

            arg_source = expand_argument_script(Path(args.arg_file).read_text())
        else:
            arg_source = args.arg_file

        spec = LaunchSpec(
            arg_source=arg_source,
            num_instances=args.num_instances,
            thread_limit=args.thread_limit,
            max_steps=args.max_steps,
            collect_timing=not args.no_timing,
            fault_plan=_parse_fault_plan(parser, args),
            backend=args.backend,
        )
        loader_opts = _loader_opts(args)
        cache = None
        if args.cache_dir and not args.no_cache:
            from repro.compilecache import ExecutableCache

            cache = ExecutableCache(args.cache_dir, metrics=obs.metrics)

        if args.devices > 1 or args.max_batch is not None:
            from repro.sched import DevicePool, Scheduler

            pool = DevicePool(args.devices, config=DEFAULT_DEVICE)
            sched = Scheduler(
                pool,
                max_batch=args.max_batch,
                default_retries=args.retries,
                obs=obs,
                static_packing=not args.no_static_packing,
                cache=cache,
            )
            result = sched.run_campaign(
                app.build_program(), spec, loader_opts=loader_opts
            )
            _print_instances(result, args.quiet)
            print(f"campaign: {report(result, format='summary')}")
            util = " ".join(
                f"{label}={frac:.2f}"
                for label, frac in sorted(sched.stats.utilization().items())
            )
            print(
                f"scheduler: {args.devices} devices, "
                f"{len(result.batches)} batches, "
                f"{result.oom_splits} oom splits, {result.retries} retries, "
                f"utilization {util}"
            )
            if args.inject:
                _print_fault_lines(result, sched.faults, obs.metrics)
            return 0 if result.all_succeeded else 1

        device = GPUDevice(DEFAULT_DEVICE)
        device.tracer = obs.tracer
        device.metrics = obs.metrics
        loader = EnsembleLoader(
            app.build_program(), device, cache=cache, **loader_opts
        )
        result = loader.run_ensemble(spec)
    except DeviceOutOfMemory as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _print_instances(result, args.quiet)
    cycles = (
        f"{result.cycles:.0f} simulated cycles"
        if result.cycles is not None
        else "untimed"
    )
    print(
        f"ensemble: {result.num_instances} instances, "
        f"{result.geometry.num_teams} teams x {result.thread_limit} threads, "
        f"{cycles}"
    )
    if args.inject:
        _print_fault_lines(result, device.faults, obs.metrics)
    return 0 if result.all_succeeded else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
