"""GP-style many-variant campaign: the compile cache's acceptance load.

Mirrors the GP-on-GPU precedent from PAPERS.md: a population of small
program variants (:mod:`repro.apps.gp` expression trees) is compiled
through :func:`~repro.compilecache.compile_many`, evaluated on the
simulated device, selected by fitness against a target polynomial, and
mutated — for several generations.  Selection clones most survivors, so
generation 2 onward is dominated by already-seen genomes: exactly the
recompile-heavy profile a compile-once cache exists for.

What the campaign measures (and the acceptance suite asserts):

* **cache hit rate after generation 1** — fraction of compile requests
  in generations ≥ 2 that did *not* trigger a build;
* **parallel compile speedup** — the measured mean serial cold-compile
  time (sampled on real generation-1 genomes) times the total request
  count, over the wall time ``compile_many`` actually spent;
* **bitwise twins** — every unique cached executable is also compiled
  cold (no cache) and both run on fresh devices; their
  :class:`~repro.host.results.Observables` must match exactly.

``devices > 1`` evaluates through a :class:`~repro.sched.Scheduler`
pool instead of direct loaders, optionally under a fault plan — the
chaos suite runs the smoke campaign with ``worker_death`` across the
seed matrix and requires the report to be identical to the fault-free
run.

Run as a module::

    python -m repro.harness.gp --pop 200 --gens 3
    python -m repro.harness.gp --smoke --json report.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import asdict, dataclass, field

from repro.apps import gp
from repro.compilecache import (
    CompileRequest,
    ExecutableCache,
    build_executable,
    compile_many,
)
from repro.config import DeviceConfig
from repro.host.results import Observables
from repro.runtime.backend import DEFAULT_BACKEND

#: The evolutionary target: ``x*x + 2*x + 1`` — reachable by the genome
#: grammar, so fitness actually improves across generations.
TARGET_GENOME = ("add", ("mul", "x", "x"), ("add", ("mul", 2, "x"), 1))

#: Small device for the many tiny evaluation programs.
GP_DEVICE = DeviceConfig(global_mem_bytes=64 * 1024 * 1024)


@dataclass
class GPConfig:
    """One campaign's knobs; defaults meet the acceptance floor
    (population × generations ≥ 500 variants, ≥ 3 generations)."""

    population: int = 200
    generations: int = 3
    seed: int = 0
    points: int = gp.DEFAULT_POINTS
    depth: int = 2
    mutation_prob: float = 0.25
    tournament: int = 3
    opt_level: int = 1
    backend: str = DEFAULT_BACKEND
    thread_limit: int = 16
    heap_bytes: int = 1 << 20
    max_workers: int | None = None
    cache_dir: str | None = None
    verify_bitwise: bool = True
    #: Genomes timed serially cold to estimate the no-cache baseline.
    cold_sample: int = 16
    #: >1 evaluates through a scheduler pool (the chaos-suite path).
    devices: int = 1
    fault_plan: str | None = None
    retries: int = 4


@dataclass
class GenerationStats:
    """Compile-side accounting of one generation."""

    index: int
    requests: int
    unique: int
    misses: int
    hits: int
    dedup: int
    compile_wall_s: float
    evaluated: int
    best_fitness: int
    best_expr: str


@dataclass
class GPReport:
    """Everything the acceptance criteria are asserted against."""

    config: dict
    generations: list[GenerationStats] = field(default_factory=list)
    total_requests: int = 0
    hit_rate_after_gen1: float = 0.0
    cold_compile_mean_s: float = 0.0
    serial_cold_wall_est_s: float = 0.0
    parallel_compile_wall_s: float = 0.0
    compile_speedup: float = 0.0
    verified_twins: int = 0
    twin_mismatches: list = field(default_factory=list)
    best_fitness: int = 0
    best_expr: str = ""
    cache_stats: dict = field(default_factory=dict)
    #: (exit_code, stdout) per evaluated unique genome key, sorted by
    #: key — the chaos suite's cross-campaign fingerprint.
    observables: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "variants": self.total_requests,
            "generations": len(self.generations),
            "hit_rate_after_gen1": round(self.hit_rate_after_gen1, 4),
            "compile_speedup": round(self.compile_speedup, 2),
            "verified_twins": self.verified_twins,
            "twin_mismatches": len(self.twin_mismatches),
            "best_fitness": self.best_fitness,
            "best_expr": self.best_expr,
        }

    def to_json(self) -> str:
        data = asdict(self)
        data["summary"] = self.summary()
        return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _parse_total(stdout: str) -> int:
    for line in stdout.splitlines():
        if line.startswith("gp total "):
            return int(line.rsplit(" ", 1)[-1])
    raise ValueError(f"no 'gp total' line in stdout: {stdout!r}")


class _Evaluator:
    """Runs finalized executables; direct loaders or a scheduler pool."""

    def __init__(self, config: GPConfig):
        self.config = config
        self.sched = None
        self.pool = None
        if config.devices > 1:
            from repro.sched import DevicePool, Scheduler

            self.pool = DevicePool(config.devices, config=GP_DEVICE)
            self.sched = Scheduler(
                self.pool,
                faults=config.fault_plan,
                default_retries=config.retries,
                job_scoped_faults=False,
            )

    def run(self, module) -> Observables:
        """The observables of one run of ``module``."""
        cfg = self.config
        if self.sched is None:
            return _run_direct(module, cfg)
        from repro.host.launch import LaunchSpec

        spec = LaunchSpec([[]], thread_limit=cfg.thread_limit, collect_timing=False)
        opts = {"heap_bytes": cfg.heap_bytes}
        return Observables.of(self.sched.run_campaign(module, spec, loader_opts=opts))

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()


def _run_direct(module, cfg: GPConfig) -> Observables:
    """Fresh-device single run — the bitwise-comparison baseline."""
    from repro.gpu.device import GPUDevice
    from repro.host.loader import Loader

    loader = Loader(module, GPUDevice(GP_DEVICE), heap_bytes=cfg.heap_bytes)
    try:
        res = loader.run(
            [],
            thread_limit=cfg.thread_limit,
            collect_timing=False,
            backend=cfg.backend,
        )
    finally:
        loader.close()
    return Observables.of(res)


def _as_list(obs: Observables) -> list:
    """A one-instance run in :class:`GPReport` JSON form:
    ``[exit_code, stdout, steps]``."""
    ((_, _, exit_code, stdout, _),) = obs.instances
    return [exit_code, stdout, obs.steps]


def _source_hash(genome, points: int) -> str:
    return f"{gp.genome_key(genome)}:p{points}"


def run_campaign(config: GPConfig | None = None) -> GPReport:
    """Run the full compile/evaluate/select/mutate loop."""
    cfg = config or GPConfig()
    rng = random.Random(cfg.seed)
    cache = ExecutableCache(cfg.cache_dir)
    target_total = gp.reference_total(TARGET_GENOME, cfg.points)
    report = GPReport(config=asdict(cfg))
    evaluator = _Evaluator(cfg)

    population = [
        gp.random_genome(rng, cfg.depth) for _ in range(cfg.population)
    ]
    fitness: dict[str, int] = {}
    observables: dict[str, tuple] = {}
    verified: set[str] = set()
    late_misses = late_requests = 0

    try:
        for gen_index in range(1, cfg.generations + 1):
            requests = [
                CompileRequest(
                    program=(
                        lambda g=genome: gp.build_genome_program(
                            g, cfg.points
                        )
                    ),
                    source_hash=_source_hash(genome, cfg.points),
                    opt_level=cfg.opt_level,
                )
                for genome in population
            ]
            before = cache.stats()
            t0 = time.perf_counter()
            entries = compile_many(
                requests, cache=cache, max_workers=cfg.max_workers
            )
            wall = time.perf_counter() - t0
            after = cache.stats()
            report.parallel_compile_wall_s += wall
            misses = after["misses"] - before["misses"]
            hits = (
                after["hits_memory"]
                + after["hits_disk"]
                - before["hits_memory"]
                - before["hits_disk"]
            )
            dedup = after["dedup"] - before["dedup"]
            if gen_index > 1:
                late_misses += misses
                late_requests += len(requests)

            if gen_index == 1 and cfg.cold_sample > 0:
                report.cold_compile_mean_s = _measure_cold_mean(
                    population, cfg
                )

            evaluated = 0
            for genome, entry in zip(population, entries):
                key = _source_hash(genome, cfg.points)
                if key in fitness:
                    continue
                obs = evaluator.run(entry.module)
                ((_, _, exit_code, stdout, _),) = obs.instances
                fitness[key] = abs(_parse_total(stdout) - target_total)
                observables[key] = (exit_code, stdout)
                evaluated += 1
                if cfg.verify_bitwise and key not in verified:
                    # In direct mode the evaluation run *is* the cached
                    # execution; reuse it instead of running twice.
                    cached_obs = obs if evaluator.sched is None else None
                    _verify_twin(report, genome, entry, key, cfg, cached_obs)
                    verified.add(key)

            ranked = sorted(
                {_source_hash(g, cfg.points): g for g in population}.items(),
                key=lambda kv: (fitness[kv[0]], kv[0]),
            )
            best_key, best_genome = ranked[0]
            report.generations.append(
                GenerationStats(
                    index=gen_index,
                    requests=len(requests),
                    unique=len({r.source_hash for r in requests}),
                    misses=misses,
                    hits=hits,
                    dedup=dedup,
                    compile_wall_s=wall,
                    evaluated=evaluated,
                    best_fitness=fitness[best_key],
                    best_expr=gp.render_expr(best_genome),
                )
            )
            report.total_requests += len(requests)

            if gen_index < cfg.generations:
                population = _next_generation(population, fitness, rng, cfg)
    finally:
        evaluator.close()

    report.hit_rate_after_gen1 = (
        1.0 - (late_misses / late_requests) if late_requests else 0.0
    )
    report.serial_cold_wall_est_s = (
        report.cold_compile_mean_s * report.total_requests
    )
    report.compile_speedup = (
        report.serial_cold_wall_est_s / report.parallel_compile_wall_s
        if report.parallel_compile_wall_s
        else 0.0
    )
    report.verified_twins = len(verified)
    last = report.generations[-1]
    report.best_fitness = last.best_fitness
    report.best_expr = last.best_expr
    report.cache_stats = cache.stats()
    report.observables = {k: list(v) for k, v in sorted(observables.items())}
    return report


def _measure_cold_mean(population, cfg: GPConfig) -> float:
    """Serial no-cache compile time per variant, sampled on real
    generation-1 genomes (deduplicated, so each sample is a true cold
    build of a distinct program)."""
    seen: set[str] = set()
    sample = []
    for genome in population:
        key = _source_hash(genome, cfg.points)
        if key not in seen:
            seen.add(key)
            sample.append(genome)
        if len(sample) >= cfg.cold_sample:
            break
    t0 = time.perf_counter()
    for genome in sample:
        build_executable(
            gp.build_genome_program(genome, cfg.points).compile(),
            opt_level=cfg.opt_level,
        )
    return (time.perf_counter() - t0) / max(1, len(sample))


def _verify_twin(
    report: GPReport, genome, entry, key: str, cfg: GPConfig, cached_obs=None
):
    """Cold-compile the genome with no cache and require bitwise-equal
    observables from fresh devices."""
    cold_module = build_executable(
        gp.build_genome_program(genome, cfg.points).compile(),
        opt_level=cfg.opt_level,
    )
    if cached_obs is None:
        cached_obs = _run_direct(entry.module, cfg)
    cold_obs = _run_direct(cold_module, cfg)
    if cached_obs != cold_obs:
        report.twin_mismatches.append(
            {"key": key, "cached": _as_list(cached_obs), "cold": _as_list(cold_obs)}
        )


def _next_generation(population, fitness, rng, cfg: GPConfig):
    """Tournament selection; most winners are cloned verbatim (cache
    hits), a ``mutation_prob`` fraction is mutated (fresh compiles)."""

    def fit(genome):
        return fitness[_source_hash(genome, cfg.points)]

    fresh = []
    for _ in range(len(population)):
        contenders = [
            population[rng.randrange(len(population))]
            for _ in range(cfg.tournament)
        ]
        winner = min(contenders, key=fit)
        if rng.random() < cfg.mutation_prob:
            winner = gp.mutate(winner, rng, cfg.depth)
        fresh.append(winner)
    return fresh


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    """CLI entry point: run a campaign, print the summary, exit 1 if any
    cached execution diverged from its cold-compiled twin."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.gp",
        description="Run the GP-style many-variant compile campaign.",
    )
    parser.add_argument("--pop", type=int, default=200)
    parser.add_argument("--gens", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--points", type=int, default=gp.DEFAULT_POINTS)
    parser.add_argument("--opt-level", type=int, choices=(0, 1, 2), default=1)
    parser.add_argument("--backend", default=DEFAULT_BACKEND)
    parser.add_argument("--devices", type=int, default=1)
    parser.add_argument("--inject", metavar="PLAN", default=None)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--no-verify", action="store_true")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: small population, 2 generations",
    )
    parser.add_argument("--json", metavar="FILE", default=None)
    args = parser.parse_args(argv)

    cfg = GPConfig(
        population=32 if args.smoke else args.pop,
        generations=2 if args.smoke else args.gens,
        seed=args.seed,
        points=args.points,
        opt_level=args.opt_level,
        backend=args.backend,
        devices=args.devices,
        fault_plan=args.inject,
        cache_dir=args.cache_dir,
        verify_bitwise=not args.no_verify,
        cold_sample=4 if args.smoke else 16,
    )
    report = run_campaign(cfg)
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.json}", file=sys.stderr)
    if report.twin_mismatches:
        print(
            f"FAIL: {len(report.twin_mismatches)} cached executions "
            "diverged from their cold-compiled twins",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
