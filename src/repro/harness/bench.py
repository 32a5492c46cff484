"""The gate harness: every tracked benchmark ratio, measured on one
paired-measurement core and gated against ``BENCH_interpreter.json``.

Each leg compares *sides* run as interleaved rounds by :func:`interleave`:

* **backends** — per Figure-6 smoke app and opt level, the same
  N-instance ensemble on the interpreter and the compiled backend, each
  untimed (``collect_timing=False``; retired steps/sec, the number the
  compiled backend exists to improve) and timed (``collect_timing=True``;
  simulated cycles/sec, what producing Figure 6's cycles costs).  The
  compiled/interp speedup pairs the two backends' untimed walls of one
  round; timed/untimed pairs a backend's timed wall with its untimed
  wall of the same round.
* **safety** — per app at ``-O2``, the compiled backend with every
  dynamic guard armed (``checked``) vs the :mod:`~repro.analysis.safety`
  certificate fast path (``unchecked``).  ``--no-unchecked`` is the
  escape hatch: every compiled launch runs fully guarded and this leg is
  skipped.
* **serve** — ``campaigns`` pagerank ensembles spread round-robin over
  three tenants on a two-device pool, ``direct`` (``Scheduler.submit``
  in-process) vs ``served`` (a :class:`~repro.serve.harness.ServerThread`
  and the blessed :class:`~repro.serve.client.Client`).  Both sides build
  a fresh pool with one :class:`~repro.compilecache.ExecutableCache`
  shared by its devices, as the server does, so the ratio is what the
  serve layer costs: socket, framing, admission and the pump.  Every
  round's served observables must equal the direct ones, or the bench
  aborts: a throughput number for a wrong answer is worse than useless.
* **compile** — the summed compile wall of every (app, opt level), cold
  through an empty cache vs warm through the same cache again.

A loaded host slows two sides by different factors, and a best wall may
come from a quiet moment for one side and not the other, so no ratio is
taken between best walls: each round gives one ratio per pair of sides,
an item's ratio is the median over its rounds, and an aggregate weights
each item by its reference side's best wall (:func:`paired_ratio`).

The regression gate (:func:`check_regression`) reads only these
machine-independent ratios and the served occupancy.  It fails when

* the compiled/interp speedup at some opt level drops more than
  ``tolerance`` (default 10%) below the baseline's over the same apps,
  or below 1.0 (compiled slower than the interpreter);
* the compiled backend's timed/untimed ratio exceeds
  :data:`TIMED_OVER_UNTIMED_MAX` (trace collection must stay cheap);
* unchecked/checked exceeds 1 (guard elision must never cost);
* the warm compile wall reaches :data:`WARM_OVER_COLD_MAX` of the cold
  one (the executable cache must earn its keep);
* the served occupancy, deterministic for a fixed workload, drops more
  than ``tolerance`` below the baseline (the admission loop started
  starving devices);
* the served/direct overhead exceeds the baseline's by more than
  ``2 * tolerance`` relatively (the doubled tolerance absorbs
  socket-latency jitter on loaded hosts).

Run as a module::

    python -m repro.harness.bench --out BENCH_interpreter.json
    python -m repro.harness.bench --check BENCH_interpreter.json --quick
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field

from repro.apps.registry import APPS
from repro.config import DEFAULT_DEVICE, DEFAULT_SIM
from repro.gpu.device import GPUDevice
from repro.harness.experiment import build_instance_lines
from repro.harness.figure6 import FIGURE6_WORKLOADS, Figure6Workload
from repro.host.ensemble_loader import EnsembleLoader
from repro.host.launch import LaunchSpec
from repro.host.results import Observables
from repro.runtime.backend import DEFAULT_SAFETY_MODE

#: Schema version of the JSON report; :meth:`BenchReport.from_json`
#: refuses any other.  v7: one report for every leg (``serve`` section),
#: rounds alternate their side order, and every ratio is a
#: :func:`paired_ratio`.
SCHEMA = 7

#: The Figure-6 smoke campaign: every figure-6 benchmark, 4 instances,
#: the paper's t=32 panel.
SMOKE_APPS = ("xsbench", "rsbench", "amgmk", "stencil", "pagerank")
SMOKE_INSTANCES = 4
SMOKE_THREAD_LIMIT = 32

#: Subset used by ``--quick`` (CI): one compute-bound and one
#: memory-bound app keep the gate sensitive at a fraction of the runtime.
QUICK_APPS = ("rsbench", "pagerank")

BACKENDS = ("interp", "compiled")

#: Gates on the compiled backend's timed/untimed ratio and on the warm
#: compile wall over the cold one.
TIMED_OVER_UNTIMED_MAX = 1.5
WARM_OVER_COLD_MAX = 0.20

#: The served workload: the standard cheap pagerank ensemble from the
#: test tree, small enough that the serve layer's fixed costs are visible.
SERVE_APP = "pagerank"
SERVE_ARGS = ["-n", "256", "-d", "8", "-i", "1"]
SERVE_HEAP = 1536 * 1024
SERVE_INSTANCES = 2
SERVE_TENANTS = ("alice", "bob", "carol")
SERVE_DEVICES = 2
#: Full-size and ``--quick`` campaigns per served round.
SERVE_CAMPAIGNS = 6
QUICK_SERVE_CAMPAIGNS = 3


def interleave(sides: dict, repeats: int) -> dict:
    """The measurement core: run one warm-up round of ``sides`` (name ->
    callable returning its wall in seconds) off the clock, then
    ``repeats`` rounds, and return each side's walls in round order.

    Odd rounds run the sides in reverse order, so in every pair of sides
    each runs first in half the rounds: a side that always ran second
    would inherit the other's warm caches, or its garbage, in every
    pair."""
    names = list(sides)
    for name in names:
        sides[name]()
    walls = {name: [] for name in names}
    for k in range(repeats):
        for name in names[::-1] if k % 2 else names:
            walls[name].append(round(sides[name](), 6))
    return walls


def paired_ratio(items) -> float:
    """Aggregate other/reference wall ratio over ``items``, each a pair
    (reference walls, other walls) from one :func:`interleave` call:
    each item's median, over its rounds, of the other wall over the
    reference wall of the same round, weighted by the item's best
    reference wall (the summed other walls those medians imply over the
    summed reference walls), so a long-running item counts for more."""
    ref = implied = 0.0
    for ref_walls, other_walls in items:
        weight = min(ref_walls)
        ref += weight
        implied += weight * statistics.median(
            other / wall for wall, other in zip(ref_walls, other_walls)
        )
    return implied / ref if ref else 0.0


@dataclass
class BenchRecord:
    """One (app, backend, opt level) measurement."""

    app: str
    backend: str
    opt_level: int
    instances: int
    thread_limit: int
    steps: int  #: interpreter steps retired by the untimed ensemble
    wall_s: float  #: best untimed wall time
    steps_per_sec: float
    cycles: float  #: simulated cycles of the timed run
    timed_wall_s: float  #: best timed wall time
    cycles_per_sec: float
    timed_over_untimed: float  #: paired ratio of the repeat walls below
    #: untimed wall of each round, in round order
    repeat_walls_s: list = field(default_factory=list)
    #: timed wall of each round, paired with ``repeat_walls_s``
    repeat_timed_walls_s: list = field(default_factory=list)


@dataclass
class BenchReport:
    """Full report: every leg's measurements plus aggregate ratios."""

    config: dict
    records: list[BenchRecord] = field(default_factory=list)
    #: Summed compile wall over every (app, opt level): ``cold`` through
    #: an empty executable cache, ``warm`` through the same cache again.
    compile_wall_s: dict = field(default_factory=dict)
    #: Per-app compiled-backend guard comparison at ``-O2``: each round's
    #: wall with every dynamic guard armed (``checked``) and on the
    #: certificate fast path (``unchecked``), their best walls and the
    #: paired checked/unchecked speedup.
    safety: dict = field(default_factory=dict)
    #: The served leg: ``campaigns`` per round, each round's ``direct``
    #: and ``served`` walls, and the served path's per-device occupancy
    #: (the fraction of the step-clock makespan each device spent busy).
    serve: dict = field(default_factory=dict)

    def _records(self, backend: str, opt_level=None, apps=None) -> list:
        return [
            r
            for r in self.records
            if r.backend == backend
            and (opt_level is None or r.opt_level == opt_level)
            and (apps is None or r.app in apps)
        ]

    def wall(self, backend: str, opt_level: int, apps=None) -> float:
        """Summed untimed wall time (the smoke-campaign time) for one
        backend at one opt level, optionally restricted to ``apps``."""
        return sum(r.wall_s for r in self._records(backend, opt_level, apps))

    def speedup(self, opt_level: int, apps=None) -> float:
        """Aggregate compiled/interp speedup at one opt level, optionally
        restricted to ``apps``: the reciprocal of the paired
        compiled/interp wall ratio, weighted by the interp walls."""
        compiled = {r.app: r for r in self._records("compiled", opt_level, apps)}
        ratio = paired_ratio(
            (r.repeat_walls_s, compiled[r.app].repeat_walls_s)
            for r in self._records("interp", opt_level, apps)
        )
        return 1.0 / ratio if ratio else 0.0

    def timed_over_untimed(self, backend: str, apps=None) -> float:
        """Aggregate timed/untimed ratio for one backend (every opt
        level), optionally restricted to ``apps``, weighted by the
        untimed walls."""
        return paired_ratio(
            (r.repeat_walls_s, r.repeat_timed_walls_s)
            for r in self._records(backend, apps=apps)
        )

    def unchecked_over_checked(self) -> float:
        """Aggregate unchecked/checked ratio over the ``safety`` apps,
        weighted by the checked walls."""
        return paired_ratio(
            (s["repeat_checked_walls_s"], s["repeat_unchecked_walls_s"])
            for s in self.safety.values()
        )

    def overhead(self) -> float:
        """Served/direct ratio of the served leg; 1.0 would mean the
        serve layer is free."""
        s = self.serve
        return paired_ratio(
            [(s["repeat_direct_walls_s"], s["repeat_served_walls_s"])]
        )

    def mean_occupancy(self) -> float:
        """Mean over the served leg's devices of their occupancy."""
        occupancy = self.serve["occupancy"]
        return sum(occupancy.values()) / len(occupancy)

    def summary(self) -> dict:
        opts = sorted({r.opt_level for r in self.records})
        summary = {
            "smoke_wall_s": {
                b: {f"O{o}": round(self.wall(b, o), 4) for o in opts}
                for b in BACKENDS
            },
            "speedup": {f"O{o}": round(self.speedup(o), 3) for o in opts},
            "timed_over_untimed": {
                b: round(self.timed_over_untimed(b), 3) for b in BACKENDS
            },
            "compile_wall_s": self.compile_wall_s,
            "serve": {
                "wall_s": {
                    path: min(self.serve[f"repeat_{path}_walls_s"])
                    for path in ("direct", "served")
                },
                "overhead": round(self.overhead(), 3),
                "mean_occupancy": round(self.mean_occupancy(), 3),
            },
        }
        if self.safety:
            summary["unchecked_speedup"] = {
                app: s["unchecked_speedup"] for app, s in self.safety.items()
            }
            summary["unchecked_over_checked"] = round(
                self.unchecked_over_checked(), 3
            )
        return summary

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "config": self.config,
            "summary": self.summary(),
            "compile_wall_s": self.compile_wall_s,
            "safety": self.safety,
            "serve": self.serve,
            "records": [asdict(r) for r in self.records],
        }

    @classmethod
    def from_json(cls, data: dict) -> "BenchReport":
        if data.get("schema") != SCHEMA:
            raise ValueError(
                f"bench schema mismatch: baseline has {data.get('schema')!r}, "
                f"this harness writes {SCHEMA}; re-record it with `make bench`"
            )
        return cls(
            config=data["config"],
            records=[BenchRecord(**r) for r in data["records"]],
            compile_wall_s=data["compile_wall_s"],
            safety=data["safety"],
            serve=data["serve"],
        )


def _make_loader(app: str, opt_level: int, workloads) -> EnsembleLoader:
    wl: Figure6Workload = workloads[app]
    return EnsembleLoader(
        APPS[app].build_program(),
        GPUDevice(DEFAULT_DEVICE, DEFAULT_SIM),
        heap_bytes=wl.heap_bytes,
        opt_level=opt_level,
    )


def measure_compile_walls(apps, opt_levels) -> dict:
    """Summed compile wall over every (app, opt level), cache-disabled
    (``cold``: a miss in a fresh :class:`~repro.compilecache.
    ExecutableCache`, with the safety analyzer's process-wide certificate
    memo cleared first, as in a new process) vs warm (the same lookup
    again).  The ratio is the machine-independent number the gate
    consumes: a warm compile is a key computation plus a memory-tier hit
    and must stay a small fraction of a cold one."""
    from repro.analysis import safety
    from repro.compilecache import ExecutableCache

    cold = warm = 0.0
    for app in apps:
        for opt in opt_levels:
            cache = ExecutableCache()
            program = APPS[app].build_program()
            safety._CERT_MEMO.clear()
            t0 = time.perf_counter()
            cache.get_or_build(program, opt_level=opt)
            cold += time.perf_counter() - t0
            t0 = time.perf_counter()
            entry = cache.get_or_build(program, opt_level=opt)
            warm += time.perf_counter() - t0
            assert entry.tier == "memory"
    return {
        "cold": round(cold, 6),
        "warm": round(warm, 6),
        "warm_over_cold": round(warm / cold, 4) if cold else 0.0,
    }


def _timed_once(loader, spec):
    t0 = time.perf_counter()
    run = loader.run_ensemble(spec)
    wall = time.perf_counter() - t0
    if any(code != 0 for code in run.return_codes):
        raise RuntimeError(f"bench instance failed: {run.return_codes}")
    return wall, run


def _bench_app(report, app, opt, *, instances, thread_limit, repeats,
               workloads, safety_mode) -> None:
    """The backend leg (and, at ``-O2`` unchecked, the safety leg) of one
    app at one opt level, appended to ``report``."""
    lines = build_instance_lines(workloads[app].args, instances)
    loaders = {b: _make_loader(app, opt, workloads) for b in BACKENDS}
    last = {}

    def side(backend, timed, mode=safety_mode):
        spec = LaunchSpec(
            lines,
            thread_limit=thread_limit,
            collect_timing=timed,
            backend=backend,
            safety_mode=mode,
        )

        def once():
            wall, last[backend, timed, mode] = _timed_once(loaders[backend], spec)
            return wall

        return once

    walls = interleave(
        {(b, timed): side(b, timed) for b in BACKENDS for timed in (False, True)},
        repeats,
    )
    if opt == 2 and safety_mode == "unchecked":
        pair = interleave(
            {
                "checked": side("compiled", False, "checked"),
                "unchecked": side("compiled", False),
            },
            repeats,
        )
        ck, un = pair["checked"], pair["unchecked"]
        report.safety[app] = {
            "checked_wall_s": min(ck),
            "unchecked_wall_s": min(un),
            "unchecked_speedup": round(1.0 / paired_ratio([(ck, un)]), 3),
            "repeat_checked_walls_s": ck,
            "repeat_unchecked_walls_s": un,
        }
    for b in BACKENDS:
        untimed, timed = walls[b, False], walls[b, True]
        steps = last[b, False, safety_mode].launch.interpreter_steps
        cycles = last[b, True, safety_mode].cycles or 0.0
        report.records.append(
            BenchRecord(
                app=app,
                backend=b,
                opt_level=opt,
                instances=instances,
                thread_limit=thread_limit,
                steps=steps,
                wall_s=min(untimed),
                steps_per_sec=round(steps / min(untimed), 1),
                cycles=cycles,
                timed_wall_s=min(timed),
                cycles_per_sec=round(cycles / min(timed), 1),
                timed_over_untimed=round(paired_ratio([(untimed, timed)]), 3),
                repeat_walls_s=untimed,
                repeat_timed_walls_s=timed,
            )
        )


def _serve_specs(campaigns: int) -> list[LaunchSpec]:
    return [
        LaunchSpec(
            [list(SERVE_ARGS) for _ in range(SERVE_INSTANCES)],
            thread_limit=SMOKE_THREAD_LIMIT,
            collect_timing=False,
        )
        for _ in range(campaigns)
    ]


def _run_direct(campaigns: int):
    """The served leg's in-process twin: a scheduler configured like the
    server's (job-scoped faults, default retries, one executable cache
    shared by every device), with no serve layer."""
    from repro.compilecache import ExecutableCache
    from repro.sched import DevicePool, Scheduler

    sched = Scheduler(
        DevicePool(SERVE_DEVICES, config=DEFAULT_DEVICE),
        job_scoped_faults=True,
        cache=ExecutableCache(),
    )
    program = APPS[SERVE_APP].build_program()
    try:
        t0 = time.perf_counter()
        futures = [
            sched.submit(
                program,
                spec,
                loader_opts={"heap_bytes": SERVE_HEAP},
                tenant=SERVE_TENANTS[i % len(SERVE_TENANTS)],
            )
            for i, spec in enumerate(_serve_specs(campaigns))
        ]
        results = [f.result() for f in futures]
        wall = time.perf_counter() - t0
        occupancy = dict(sched.stats.utilization())
    finally:
        sched.pool.close()
    return wall, occupancy, [Observables.of(r) for r in results]


def _run_served(campaigns: int):
    """The same submissions through a real socket and the blessed client."""
    from repro.serve.client import Client
    from repro.serve.harness import ServerThread

    with ServerThread(devices=SERVE_DEVICES) as server:
        with Client(server.address) as client:
            t0 = time.perf_counter()
            jobs = [
                client.submit(
                    SERVE_APP,
                    spec,
                    tenant=SERVE_TENANTS[i % len(SERVE_TENANTS)],
                    loader_opts={"heap_bytes": SERVE_HEAP},
                )
                for i, spec in enumerate(_serve_specs(campaigns))
            ]
            results = [j.result() for j in jobs]
            wall = time.perf_counter() - t0
        occupancy = dict(server.server.scheduler.stats.utilization())
    return wall, occupancy, [Observables.of(r) for r in results]


def measure_serve(campaigns: int, repeats: int) -> dict:
    """The served leg (module doc).  Occupancy is deterministic for a
    fixed workload, so the last served round's stands for all."""
    prints: dict[str, list] = {"direct": [], "served": []}
    occupancy = {}

    def side(path, run):
        def once():
            wall, occupancy[path], observables = run(campaigns)
            prints[path].append(observables)
            return wall

        return once

    walls = interleave(
        {"direct": side("direct", _run_direct), "served": side("served", _run_served)},
        repeats,
    )
    if prints["direct"] != prints["served"]:
        raise RuntimeError(
            "served results diverged from the direct scheduler path; "
            "refusing to record throughput for wrong answers"
        )
    return {
        "campaigns": campaigns,
        "repeat_direct_walls_s": walls["direct"],
        "repeat_served_walls_s": walls["served"],
        "occupancy": occupancy["served"],
    }


def run_bench(
    *,
    apps=SMOKE_APPS,
    opt_levels=(1, 2),
    instances: int = SMOKE_INSTANCES,
    thread_limit: int = SMOKE_THREAD_LIMIT,
    repeats: int = 3,
    workloads: dict[str, Figure6Workload] | None = None,
    safety_mode: str = DEFAULT_SAFETY_MODE,
    campaigns: int = SERVE_CAMPAIGNS,
    progress=None,
) -> BenchReport:
    """Measure every leg; see module doc.

    ``safety_mode`` is the guard policy of every compiled-backend launch
    (the ``--no-unchecked`` escape hatch passes ``"checked"``); the
    safety leg runs only when it is ``"unchecked"``.  ``campaigns`` sizes
    each served round.
    """
    workloads = workloads or FIGURE6_WORKLOADS
    report = BenchReport(
        config={
            "apps": list(apps),
            "opt_levels": list(opt_levels),
            "instances": instances,
            "thread_limit": thread_limit,
            "repeats": repeats,
            "safety_mode": safety_mode,
        },
    )
    for app in apps:
        for opt in opt_levels:
            _bench_app(
                report, app, opt, instances=instances,
                thread_limit=thread_limit, repeats=repeats,
                workloads=workloads, safety_mode=safety_mode,
            )
            if progress:
                interp, compiled = (report.wall(b, opt, [app]) for b in BACKENDS)
                safety = report.safety.get(app)
                tail = (
                    f" unchecked={safety['unchecked_speedup']:5.2f}x"
                    if safety and opt == 2
                    else ""
                )
                progress(
                    f"[bench] {app:9s} -O{opt} "
                    f"interp={interp * 1000:8.1f}ms "
                    f"compiled={compiled * 1000:8.1f}ms "
                    f"speedup={report.speedup(opt, [app]):5.2f}x{tail}"
                )
    report.serve = measure_serve(campaigns, repeats)
    if progress:
        progress(
            f"[bench] serve     {campaigns} campaigns "
            f"overhead={report.overhead():5.2f}x "
            f"occupancy={report.mean_occupancy():.3f}"
        )
    report.compile_wall_s = measure_compile_walls(apps, opt_levels)
    if progress:
        cw = report.compile_wall_s
        progress(
            f"[bench] compile wall cold={cw['cold'] * 1000:8.1f}ms "
            f"warm={cw['warm'] * 1000:8.1f}ms "
            f"({cw['warm_over_cold']:.1%} of cold)"
        )
    return report


def check_regression(
    current: BenchReport,
    baseline: BenchReport,
    *,
    tolerance: float = 0.10,
) -> list[str]:
    """Compare a fresh run against the committed baseline.

    Only machine-independent ratios and the served occupancy are
    compared (see module doc).  The speedup comparison is restricted to
    the (app, opt level) pairs present in *both* reports, so a
    ``--quick`` run gates against the matching slice of the full
    committed baseline.
    """
    problems: list[str] = []
    cur_keys = {(r.app, r.opt_level) for r in current.records}
    base_keys = {(r.app, r.opt_level) for r in baseline.records}
    common = cur_keys & base_keys
    if not common:
        return ["no (app, opt_level) pairs in common with the baseline"]
    opts = sorted({opt for _, opt in common})
    for opt in opts:
        apps = sorted(app for app, o in common if o == opt)
        cur = current.speedup(opt, apps)
        base = baseline.speedup(opt, apps)
        if cur < 1.0:
            problems.append(
                f"-O{opt}: compiled backend is slower than the interpreter "
                f"on the smoke campaign ({cur:.2f}x over {', '.join(apps)})"
            )
        if cur < base * (1.0 - tolerance):
            problems.append(
                f"-O{opt}: compiled/interp speedup regressed "
                f"{cur:.2f}x < {base:.2f}x - {tolerance:.0%} "
                f"(over {', '.join(apps)})"
            )
    ratio = current.timed_over_untimed("compiled")
    if ratio > TIMED_OVER_UNTIMED_MAX:
        problems.append(
            f"compiled backend timed runs take {ratio:.2f}x the untimed wall "
            f"time (gate: <= {TIMED_OVER_UNTIMED_MAX}x) — trace collection "
            "is no longer cheap"
        )
    cw = current.compile_wall_s
    ratio = cw["warm"] / cw["cold"]
    if ratio >= WARM_OVER_COLD_MAX:
        problems.append(
            f"warm compile wall is {ratio:.0%} of cold "
            f"(gate: < {WARM_OVER_COLD_MAX:.0%}) — the executable cache is "
            "not earning its keep"
        )
    if current.safety:
        # Guard elision must never cost: over the measured apps, the
        # unchecked fast path has to be at least as fast as running every
        # dynamic guard (a per-app ratio may wobble with noise; the
        # aggregate may not).
        ratio = current.unchecked_over_checked()
        if ratio > 1.0:
            problems.append(
                f"unchecked compiled backend is slower than checked "
                f"({ratio:.3f}x the checked wall over "
                f"{', '.join(sorted(current.safety))})"
            )
    cur_occ, base_occ = current.mean_occupancy(), baseline.mean_occupancy()
    if cur_occ < base_occ - tolerance:
        problems.append(
            f"served-path occupancy regressed: {cur_occ:.3f} vs baseline "
            f"{base_occ:.3f} (tolerance {tolerance:.2f}) — the admission "
            "loop is starving devices"
        )
    cur_ov, base_ov = current.overhead(), baseline.overhead()
    limit = base_ov * (1.0 + 2.0 * tolerance)
    if cur_ov > limit:
        problems.append(
            f"serve overhead regressed: served/direct paired ratio "
            f"{cur_ov:.3f} vs baseline {base_ov:.3f} (limit {limit:.3f})"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the bench, optionally write/gate (module doc)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark interp vs compiled, timed vs untimed, "
        "checked vs unchecked and direct vs served; optionally gate "
        "against a committed baseline.",
    )
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="compare against this committed baseline; exit 1 on regression",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI mode: only {', '.join(QUICK_APPS)} at -O2 and "
        f"{QUICK_SERVE_CAMPAIGNS} campaigns per served round",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="interleaved rounds per leg (default 3)",
    )
    parser.add_argument(
        "--no-unchecked",
        action="store_true",
        help="escape hatch: run the compiled backend fully guarded "
        "(safety_mode=checked) and skip the checked-vs-unchecked "
        "comparison",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed relative speedup regression, absolute occupancy "
        "slack and half the relative overhead slack (default 0.10)",
    )
    args = parser.parse_args(argv)

    report = run_bench(
        apps=QUICK_APPS if args.quick else SMOKE_APPS,
        opt_levels=(2,) if args.quick else (1, 2),
        repeats=args.repeats,
        safety_mode="checked" if args.no_unchecked else "unchecked",
        campaigns=QUICK_SERVE_CAMPAIGNS if args.quick else SERVE_CAMPAIGNS,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    print(json.dumps(report.summary(), indent=2))

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=False)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)

    if args.check:
        with open(args.check) as fh:
            baseline = BenchReport.from_json(json.load(fh))
        problems = check_regression(
            report, baseline, tolerance=args.tolerance
        )
        if problems:
            for p in problems:
                print(f"bench regression: {p}", file=sys.stderr)
            return 1
        print(f"bench gate ok vs {args.check}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
