"""Tracked backend benchmark: interp vs compiled on the Figure-6 smoke
campaign.

For each benchmark app the harness runs the same N-instance ensemble on
both execution backends at ``-O1`` and ``-O2`` and records:

* **steps/sec** — retired interpreter steps over wall time, with the
  timing model off (``collect_timing=False``); this is the number the
  compiled backend exists to improve,
* **simulated-cycles/sec** — simulation throughput with the timing model
  armed (``collect_timing=True``),
* **timed/untimed** — the timed run's wall time over the untimed run's:
  what producing Figure 6's cycles costs on top of plain execution;
  each repeat runs the timed launch right after the untimed one, and a
  record's ratio is the median over its repeats' ratios,
* **smoke-campaign wall time** — the summed untimed wall time per
  backend, i.e. how long the Figure-6 smoke campaign takes end to end,
* **checked vs unchecked** (schema v2) — per app at ``-O2``, the
  compiled backend with every dynamic guard armed vs the
  :mod:`~repro.analysis.safety` certificate fast path, run as
  interleaved checked/unchecked pairs; the gate requires the unchecked
  aggregate to be at least as fast.  ``--no-unchecked`` is the escape
  hatch: every compiled launch runs fully guarded and the comparison is
  skipped.

Wall times, timed and untimed alike, are the minimum over ``repeats``
*interleaved* interp/compiled pairs after one warm-up run each.  The
compiled/interp speedup is not a ratio of those minima: a loaded host
slows the interpreter and the compiled engine by different factors, and
a minimum may come from a quiet moment for one backend and not the
other.  Each interleaved pair gives one interp/compiled wall ratio, and
an app's speedup is the median of its pairs' ratios.

The regression gate (``check_regression``) is deliberately built on
**machine-independent ratios**: absolute steps/sec swings wildly between
hosts (and between runs on a loaded CI box), but the compiled/interp
speedup on interleaved runs does not.  The gate fails when

* the aggregate compiled/interp speedup at some opt level (the apps'
  median pair ratios, weighted by their interp walls) drops more than
  ``tolerance`` (default 10%) below the committed baseline's speedup
  over the same apps, or
* the compiled backend is outright slower than the interpreter on the
  smoke campaign (aggregate speedup < 1.0), or
* the compiled backend's aggregate timed/untimed ratio (the records'
  median repeat ratios, weighted by their untimed walls) exceeds
  ``TIMED_OVER_UNTIMED_MAX`` (trace collection must stay cheap), or
* the aggregate unchecked/checked ratio (the apps' median pair ratios,
  weighted by their checked walls) exceeds 1: guard elision must never
  cost.

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
from repro.runtime.backend import DEFAULT_SAFETY_MODE

#: Schema version of the JSON report (bump on incompatible change).
#: v2: per-app checked-vs-unchecked safety comparison (``safety`` section).
#: v3: timed wall is best-of-repeats like the untimed one; per-record
#: ``timed_over_untimed``.
#: v4: per-record ``repeat_walls_s``; the speedup is the median ratio of
#: interleaved pairs, not the ratio of the best walls.
#: v5: per-record ``repeat_timed_walls_s``; timed/untimed is the median
#: ratio of each repeat's timed wall to its untimed wall.
#: v6: per-app ``repeat_checked_walls_s`` / ``repeat_unchecked_walls_s``;
#: unchecked/checked is the median ratio of each interleaved pair.
SCHEMA = 6

#: The Figure-6 smoke campaign: every figure-6 benchmark, 4 instances,
#: the paper's t=32 panel.
SMOKE_APPS = ("xsbench", "rsbench", "amgmk", "stencil", "pagerank")
SMOKE_INSTANCES = 4
SMOKE_THREAD_LIMIT = 32

#: Gate on the compiled backend's summed timed wall over its summed
#: untimed wall.
TIMED_OVER_UNTIMED_MAX = 1.5

#: Subset used by ``--quick`` (CI): one compute-bound and one
#: memory-bound app keep the gate sensitive at a fraction of the runtime.
QUICK_APPS = ("rsbench", "pagerank")

BACKENDS = ("interp", "compiled")


@dataclass
class BenchRecord:
    """One (app, backend, opt level) measurement."""

    app: str
    backend: str
    opt_level: int
    instances: int
    thread_limit: int
    steps: int  #: interpreter steps retired by the untimed ensemble
    wall_s: float  #: best untimed wall time (min over interleaved repeats)
    steps_per_sec: float
    cycles: float  #: simulated cycles of the timed run
    timed_wall_s: float  #: best timed wall time (same protocol as wall_s)
    cycles_per_sec: float
    timed_over_untimed: float  #: timed_wall_s / wall_s
    #: untimed wall of each interleaved repeat, in run order (schema v4;
    #: empty in older reports)
    repeat_walls_s: list = field(default_factory=list)
    #: timed wall of each repeat, paired with ``repeat_walls_s`` (schema
    #: v5; empty in older reports)
    repeat_timed_walls_s: list = field(default_factory=list)

    def paired_timed_over_untimed(self) -> float:
        """Median over the repeats of timed wall / untimed wall (repeat k
        with repeat k).  A record without per-repeat timed walls (schema
        < 5) pairs its best walls."""
        if not self.repeat_timed_walls_s:
            return self.timed_wall_s / self.wall_s
        return statistics.median(
            t / u for t, u in zip(self.repeat_timed_walls_s, self.repeat_walls_s)
        )


@dataclass
class BenchReport:
    """Full report: per-combination records plus aggregate ratios."""

    schema: int
    config: dict
    records: list[BenchRecord] = field(default_factory=list)
    #: Summed compile wall over every (app, opt level): ``cold`` through
    #: an empty executable cache, ``warm`` through the same cache again.
    compile_wall_s: dict = field(default_factory=dict)
    #: Per-app compiled-backend guard comparison at ``-O2``: best wall
    #: times with every dynamic guard armed (``checked``) vs the
    #: certificate fast path (``unchecked``) and their ratio (schema v2),
    #: and each interleaved pair's walls (schema v6).
    safety: dict = field(default_factory=dict)

    def wall(self, backend: str, opt_level: int, apps=None) -> float:
        """Summed untimed wall time (the smoke-campaign time) for one
        backend at one opt level, optionally restricted to ``apps``."""
        return sum(
            r.wall_s
            for r in self.records
            if r.backend == backend
            and r.opt_level == opt_level
            and (apps is None or r.app in apps)
        )

    def timed_over_untimed(self, backend: str, apps=None) -> float:
        """Aggregate timed/untimed ratio for one backend (every opt
        level), optionally restricted to ``apps``: each record's
        :meth:`BenchRecord.paired_timed_over_untimed` weighted by its
        untimed wall (the summed timed walls those ratios imply over the
        summed untimed walls)."""
        untimed = implied = 0.0
        for r in self.records:
            if r.backend == backend and (apps is None or r.app in apps):
                untimed += r.wall_s
                implied += r.wall_s * r.paired_timed_over_untimed()
        return implied / untimed if untimed else 0.0

    def unchecked_over_checked(self) -> float:
        """Aggregate unchecked/checked wall ratio over the ``safety``
        apps: each app's median, over its interleaved pairs, of the
        unchecked wall over the checked wall of the same pair, weighted
        by its checked wall.  An app without per-pair walls (schema < 6)
        pairs its best walls."""
        checked = implied = 0.0
        for s in self.safety.values():
            pairs = zip(
                s.get("repeat_checked_walls_s") or [s["checked_wall_s"]],
                s.get("repeat_unchecked_walls_s") or [s["unchecked_wall_s"]],
            )
            checked += s["checked_wall_s"]
            implied += s["checked_wall_s"] * statistics.median(
                un / ck for ck, un in pairs
            )
        return implied / checked if checked else 0.0

    def pair_speedup(self, app: str, opt_level: int) -> float:
        """One app's compiled/interp speedup: the median, over its
        interleaved repeats, of interp wall / compiled wall (repeat k of
        one backend pairs with repeat k of the other).  A record without
        repeat walls (schema < 4) pairs its best walls."""
        interp, compiled = (
            next(
                r
                for r in self.records
                if (r.app, r.backend, r.opt_level) == (app, b, opt_level)
            )
            for b in BACKENDS
        )
        return statistics.median(
            wi / wc
            for wi, wc in zip(
                interp.repeat_walls_s or [interp.wall_s],
                compiled.repeat_walls_s or [compiled.wall_s],
            )
        )

    def speedup(self, opt_level: int, apps=None) -> float:
        """Aggregate compiled/interp speedup at one opt level: each app's
        :meth:`pair_speedup` weighted by its interp wall (summed interp
        walls over the summed compiled walls those speedups imply), so a
        long-running app counts for more."""
        interp = implied = 0.0
        for r in self.records:
            if (
                r.backend == "interp"
                and r.opt_level == opt_level
                and (apps is None or r.app in apps)
            ):
                interp += r.wall_s
                implied += r.wall_s / self.pair_speedup(r.app, opt_level)
        return interp / implied if implied else 0.0

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
        }
        if self.compile_wall_s:
            summary["compile_wall_s"] = self.compile_wall_s
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
            "schema": self.schema,
            "config": self.config,
            "summary": self.summary(),
            "compile_wall_s": self.compile_wall_s,
            "safety": self.safety,
            "records": [asdict(r) for r in self.records],
        }

    @classmethod
    def from_json(cls, data: dict) -> "BenchReport":
        report = cls(schema=data["schema"], config=data["config"])
        report.records = [BenchRecord(**r) for r in data["records"]]
        report.compile_wall_s = data.get("compile_wall_s", {})
        report.safety = data.get("safety", {})
        return report


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


def run_bench(
    *,
    apps=SMOKE_APPS,
    opt_levels=(1, 2),
    instances: int = SMOKE_INSTANCES,
    thread_limit: int = SMOKE_THREAD_LIMIT,
    repeats: int = 3,
    workloads: dict[str, Figure6Workload] | None = None,
    safety_mode: str = DEFAULT_SAFETY_MODE,
    progress=None,
) -> BenchReport:
    """Measure the smoke campaign on both backends; see module doc.

    ``safety_mode`` is the guard policy of every compiled-backend launch
    (the ``--no-unchecked`` escape hatch passes ``"checked"``).  When it
    is ``"unchecked"``, each app additionally gets an interleaved
    checked-vs-unchecked comparison at ``-O2`` (the ``safety`` section).
    """
    workloads = workloads or FIGURE6_WORKLOADS
    report = BenchReport(
        schema=SCHEMA,
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
            lines = build_instance_lines(workloads[app].args, instances)
            loaders = {b: _make_loader(app, opt, workloads) for b in BACKENDS}
            untimed = {
                b: LaunchSpec(
                    lines,
                    thread_limit=thread_limit,
                    collect_timing=False,
                    backend=b,
                    safety_mode=safety_mode,
                )
                for b in BACKENDS
            }
            timed = {
                b: LaunchSpec(
                    lines,
                    thread_limit=thread_limit,
                    collect_timing=True,
                    backend=b,
                    safety_mode=safety_mode,
                )
                for b in BACKENDS
            }
            # warm caches (lowering, compiled programs) off the clock
            steps, cycles = {}, {}
            for b in BACKENDS:
                _, run = _timed_once(loaders[b], untimed[b])
                steps[b] = run.launch.interpreter_steps
                _, run = _timed_once(loaders[b], timed[b])
                cycles[b] = run.cycles or 0.0
            # interleaved repeats: one interp run, one compiled run, ...
            walls = {b: [] for b in BACKENDS}
            timed_walls = {b: [] for b in BACKENDS}
            for _ in range(repeats):
                for b in BACKENDS:
                    wall, _ = _timed_once(loaders[b], untimed[b])
                    walls[b].append(round(wall, 6))
                    wall, _ = _timed_once(loaders[b], timed[b])
                    timed_walls[b].append(round(wall, 6))
            best = {b: min(walls[b]) for b in BACKENDS}
            best_timed = {b: min(timed_walls[b]) for b in BACKENDS}
            if opt == 2 and safety_mode == "unchecked":
                checked_spec = LaunchSpec(
                    lines,
                    thread_limit=thread_limit,
                    collect_timing=False,
                    backend="compiled",
                    safety_mode="checked",
                )
                _timed_once(loaders["compiled"], checked_spec)  # warm
                ck_walls, un_walls = [], []
                for _ in range(repeats):
                    wall, _ = _timed_once(loaders["compiled"], checked_spec)
                    ck_walls.append(round(wall, 6))
                    wall, _ = _timed_once(
                        loaders["compiled"], untimed["compiled"]
                    )
                    un_walls.append(round(wall, 6))
                best_ck, best_un = min(ck_walls), min(un_walls)
                report.safety[app] = {
                    "checked_wall_s": best_ck,
                    "unchecked_wall_s": best_un,
                    "unchecked_speedup": round(best_ck / best_un, 3),
                    "repeat_checked_walls_s": ck_walls,
                    "repeat_unchecked_walls_s": un_walls,
                }
            for b in BACKENDS:
                report.records.append(
                    BenchRecord(
                        app=app,
                        backend=b,
                        opt_level=opt,
                        instances=instances,
                        thread_limit=thread_limit,
                        steps=steps[b],
                        wall_s=round(best[b], 6),
                        steps_per_sec=round(steps[b] / best[b], 1),
                        cycles=cycles[b],
                        timed_wall_s=round(best_timed[b], 6),
                        cycles_per_sec=round(cycles[b] / best_timed[b], 1),
                        timed_over_untimed=round(best_timed[b] / best[b], 3),
                        repeat_walls_s=walls[b],
                        repeat_timed_walls_s=timed_walls[b],
                    )
                )
            if progress:
                ratio = report.speedup(opt, apps=[app])
                safety = report.safety.get(app)
                tail = (
                    f" unchecked={safety['unchecked_speedup']:5.2f}x"
                    if safety and opt == 2
                    else ""
                )
                progress(
                    f"[bench] {app:9s} -O{opt} "
                    f"interp={best['interp'] * 1000:8.1f}ms "
                    f"compiled={best['compiled'] * 1000:8.1f}ms "
                    f"speedup={ratio:5.2f}x{tail}"
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

    Only machine-independent ratios are compared (see module doc).  The
    comparison is restricted to the (app, opt level) pairs present in
    *both* reports, so a ``--quick`` run gates against the matching slice
    of the full committed baseline.
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
    if cw.get("cold"):
        ratio = cw["warm"] / cw["cold"]
        if ratio >= 0.20:
            problems.append(
                f"warm compile wall is {ratio:.0%} of cold (gate: < 20%) "
                "— the executable cache is not earning its keep"
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
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the bench, optionally write/gate (module doc)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark interp vs compiled on the Figure-6 smoke "
        "campaign; optionally gate against a committed baseline.",
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
        help=f"CI mode: only {', '.join(QUICK_APPS)} at -O2",
    )
    parser.add_argument("--repeats", type=int, default=3)
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
        help="allowed relative speedup regression (default 0.10)",
    )
    args = parser.parse_args(argv)

    apps = QUICK_APPS if args.quick else SMOKE_APPS
    opt_levels = (2,) if args.quick else (1, 2)
    report = run_bench(
        apps=apps,
        opt_levels=opt_levels,
        repeats=args.repeats,
        safety_mode="checked" if args.no_unchecked else "unchecked",
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    summary = report.summary()
    print(json.dumps(summary, indent=2))

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
