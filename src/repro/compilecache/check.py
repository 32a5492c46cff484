"""``python -m repro.compilecache.check``: the CI cache gate.

One self-contained pass/fail check of the executable cache, run by
``make cache-check``:

1. **cold** — a fresh cache over an (empty or given) directory compiles
   the app once and runs it on a fresh device;
2. **warm** — a *new* cache instance over the same directory (simulating
   a process restart) looks the same key up twice: the first lookup must
   come from the disk tier, the second from memory, so the warm cache's
   hit rate must reach ``--min-hit-rate``;
3. **parity** — the warm run's :class:`~repro.host.results.Observables`
   must be bitwise identical to the cold run's;
4. **speed** — the warm lookup must be faster than the cold compile.

Exits 0 when every gate holds, 1 otherwise, printing one JSON report
either way.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time

from repro.apps import get_app
from repro.compilecache.cache import ExecutableCache
from repro.config import DeviceConfig
from repro.gpu.device import GPUDevice
from repro.host.launch import LaunchSpec
from repro.host.loader import Loader
from repro.host.results import Observables

#: Warm-cache hit-rate floor (2 lookups, both must hit: disk then memory).
DEFAULT_MIN_HIT_RATE = 0.99

#: Small workload: the gate checks caching, not device throughput.
CHECK_DEVICE = DeviceConfig(global_mem_bytes=64 * 1024 * 1024)


def _run_fresh(module, heap_bytes: int, spec: LaunchSpec) -> Observables:
    """Run ``module`` on a fresh device."""
    loader = Loader(module, GPUDevice(CHECK_DEVICE), heap_bytes=heap_bytes)
    try:
        res = loader.run(spec)
    finally:
        loader.close()
    return Observables.of(res)


def run_check(
    cache_dir: str,
    *,
    app_name: str = "stencil",
    opt_level: int = 1,
    min_hit_rate: float = DEFAULT_MIN_HIT_RATE,
    thread_limit: int = 8,
) -> dict:
    """Execute the four gates; returns the report dict (``report["ok"]``
    is the overall verdict)."""
    app = get_app(app_name)
    spec = LaunchSpec(
        [app.default_args(points=64, iters=1)],
        thread_limit=thread_limit,
        collect_timing=False,
    )
    heap = app.heap_hint_bytes

    cold_cache = ExecutableCache(cache_dir)
    t0 = time.perf_counter()
    cold_entry = cold_cache.get_or_build(
        app.build_program(), opt_level=opt_level
    )
    cold_wall = time.perf_counter() - t0
    cold_obs = _run_fresh(cold_entry.module, heap, spec)
    disk_stored = cold_cache.stats()["stores_disk"] == 1

    # A fresh cache over the same directory: restart simulation.  Both
    # lookups must hit (disk, then memory) without a single rebuild.
    warm_cache = ExecutableCache(cache_dir)
    t0 = time.perf_counter()
    warm_entry = warm_cache.get_or_build(
        app.build_program(), opt_level=opt_level
    )
    warm_wall = time.perf_counter() - t0
    second = warm_cache.get_or_build(app.build_program(), opt_level=opt_level)
    stats = warm_cache.stats()
    warm_obs = _run_fresh(warm_entry.module, heap, spec)

    hit_rate = stats["hit_rate"] or 0.0
    report = {
        "app": app_name,
        "opt_level": opt_level,
        "cache_dir": cache_dir,
        "cold_compile_s": round(cold_wall, 6),
        "warm_lookup_s": round(warm_wall, 6),
        "warm_tiers": [warm_entry.tier, second.tier],
        "warm_hit_rate": hit_rate,
        "warm_misses": stats["misses"],
        "digest_match": warm_entry.digest == cold_entry.digest,
        "bitwise_parity": warm_obs == cold_obs,
        "gates": {
            "disk_stored": disk_stored,
            "hit_rate": hit_rate >= min_hit_rate,
            "no_rebuild": stats["misses"] == 0,
            "parity": warm_obs == cold_obs,
            "warm_faster": warm_wall < cold_wall,
        },
    }
    report["ok"] = all(report["gates"].values())
    return report


def main(argv=None) -> int:
    """CLI entry point of ``make cache-check``; exits 0 iff every gate
    in :func:`run_check` holds."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.compilecache.check",
        description="Gate the executable cache: cold build, warm restart, "
        "hit rate, and bitwise parity.",
    )
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--app", default="stencil")
    parser.add_argument("--opt-level", type=int, choices=(0, 1, 2), default=1)
    parser.add_argument(
        "--min-hit-rate", type=float, default=DEFAULT_MIN_HIT_RATE
    )
    args = parser.parse_args(argv)

    if args.cache_dir is not None:
        report = run_check(
            args.cache_dir,
            app_name=args.app,
            opt_level=args.opt_level,
            min_hit_rate=args.min_hit_rate,
        )
    else:
        with tempfile.TemporaryDirectory(prefix="repro-cache-check-") as tmp:
            report = run_check(
                tmp,
                app_name=args.app,
                opt_level=args.opt_level,
                min_hit_rate=args.min_hit_rate,
            )
    print(json.dumps(report, indent=2, sort_keys=True))
    if not report["ok"]:
        failed = [k for k, ok in report["gates"].items() if not ok]
        print(f"cache-check FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
