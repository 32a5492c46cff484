"""``compile_many``: the parallel in-process compilation frontend.

The GP precedent (PAPERS.md) compiles thousands of program variants
in-process per generation; the bottleneck is redundant work, not raw
parallelism.  ``compile_many`` fans a batch of compile requests over a
thread pool **through one shared** :class:`~repro.compilecache.cache.
ExecutableCache`, so duplicate keys inside the batch collapse onto a
single build (the in-flight future dedup) and keys seen in any earlier
batch are pure lookups.

Determinism contract, held by the property suite: the returned entries
are in request order, and the set of built executables depends only on
the *set of keys* — never on worker count or submission order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.compilecache.cache import CachedExecutable, ExecutableCache


def default_workers() -> int:
    """Pool width when the caller does not choose one."""
    return min(8, max(2, (os.cpu_count() or 2)))


@dataclass
class CompileRequest:
    """One unit of a ``compile_many`` batch.

    ``program`` follows :meth:`ExecutableCache.get_or_build`: a Program,
    a pre-compilation Module, or a lazy zero-arg builder paired with an
    explicit ``source_hash`` (the GP harness keys by genome, so cache
    hits never touch the frontend at all).
    """

    program: Any
    team_local_globals: bool = False
    shared_mem_budget: int | None = None
    opt_level: int = 1
    source_hash: str | None = None


def compile_many(
    requests,
    *,
    cache: ExecutableCache | None = None,
    max_workers: int | None = None,
    tracer=None,
    metrics=None,
) -> list[CachedExecutable]:
    """Compile every request concurrently; results in request order.

    ``cache=None`` uses a private in-memory cache scoped to this call
    (still deduplicating within the batch).  A failed request raises
    its error; with a pool, the first failure in request order, after
    the pool drains.
    """
    reqs = [
        r if isinstance(r, CompileRequest) else CompileRequest(r)
        for r in requests
    ]
    if cache is None:
        cache = ExecutableCache(metrics=metrics)
    if max_workers is None:
        max_workers = default_workers()
    max_workers = max(1, int(max_workers))
    if metrics is not None:
        metrics.counter("cache.compile_many.batches").inc()
        metrics.counter("cache.compile_many.requests").inc(len(reqs))

    def one(req: CompileRequest) -> CachedExecutable:
        return cache.get_or_build(
            req.program,
            team_local_globals=req.team_local_globals,
            shared_mem_budget=req.shared_mem_budget,
            opt_level=req.opt_level,
            source_hash=req.source_hash,
            tracer=tracer,
            metrics=metrics,
        )

    if max_workers == 1:
        return [one(req) for req in reqs]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = [pool.submit(one, req) for req in reqs]
        return [fut.result() for fut in futures]


__all__ = ["CompileRequest", "compile_many", "default_workers"]
