"""Hypothesis properties of the executable cache.

* **Key stability** — the same (source, config, opt level) always produces the same key and digest; changing any *single*
  component produces a different digest.
* **compile_many determinism** — the compiled artifacts are a pure
  function of the requests: worker count and submission order change
  nothing, down to the printed IR of every finalized module.
* **Corruption safety** — a corrupted or truncated disk entry, or one
  written in an older disk format, is detected, counted, evicted and
  rebuilt; stale bytes are never served.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import gp
from repro.compilecache import (
    CompileRequest,
    ExecutableCache,
    compile_many,
)
from repro.compilecache.cache import DISK_MAGIC
from repro.ir.printer import print_module

source_hashes = st.text(
    alphabet="0123456789abcdef", min_size=8, max_size=32
).map(lambda s: "src:" + s)
budgets = st.one_of(st.none(), st.integers(min_value=1 << 10, max_value=1 << 20))
opt_levels = st.sampled_from([0, 1, 2])


@settings(max_examples=50, deadline=None)
@given(source_hashes, st.booleans(), budgets, opt_levels)
def test_key_is_stable(src, team_local, budget, opt):
    cache = ExecutableCache()
    kw = dict(
        team_local_globals=team_local,
        shared_mem_budget=budget,
        opt_level=opt,
    )
    first = cache.key_for(src, **kw)
    second = cache.key_for(src, **kw)
    assert first == second
    assert first.digest() == second.digest()
    assert first.digest().startswith("sha256:")


@settings(max_examples=50, deadline=None)
@given(source_hashes, st.booleans(), budgets, opt_levels)
def test_any_single_component_changes_the_digest(src, team_local, budget, opt):
    cache = ExecutableCache()
    base = cache.key_for(
        src,
        team_local_globals=team_local,
        shared_mem_budget=budget,
        opt_level=opt,
    )
    variants = [
        cache.key_for(
            src + "0",
            team_local_globals=team_local,
            shared_mem_budget=budget,
            opt_level=opt,
        ),
        cache.key_for(
            src,
            team_local_globals=not team_local,
            shared_mem_budget=budget,
            opt_level=opt,
        ),
        cache.key_for(
            src,
            team_local_globals=team_local,
            shared_mem_budget=(budget or 0) + 4096,
            opt_level=opt,
        ),
        cache.key_for(
            src,
            team_local_globals=team_local,
            shared_mem_budget=budget,
            opt_level=(opt + 1) % 3,
        ),
        # Versioned invalidation: a pass-pipeline change misses even
        # when every caller-visible component is identical.
        dataclasses.replace(base, fingerprint="pp999:deadbeefdeadbeef"),
    ]
    digests = {k.digest() for k in variants}
    assert base.digest() not in digests
    assert len(digests) == len(variants)  # and they differ pairwise


def _requests(seed: int, count: int = 8):
    # The frontend runs up front: ast.parse trips a CPython recursion
    # accounting quirk inside threads under Hypothesis's tracer.  The
    # in-thread frontend path is exercised by the GP campaign suite.
    rng = random.Random(seed)
    genomes = [gp.random_genome(rng, 2) for _ in range(count)]
    return [
        CompileRequest(
            program=gp.build_genome_program(g).compile(),
            source_hash=gp.genome_key(g) + ":p12",
            opt_level=1,
        )
        for g in genomes
    ]


def _artifacts(requests, max_workers):
    entries = compile_many(requests, max_workers=max_workers)
    return [(e.digest, print_module(e.module)) for e in entries]


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=2**16))
def test_compile_many_independent_of_worker_count(seed):
    serial = _artifacts(_requests(seed), max_workers=1)
    threaded = _artifacts(_requests(seed), max_workers=4)
    assert serial == threaded


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=2**16))
def test_compile_many_independent_of_submission_order(seed):
    baseline = _artifacts(_requests(seed), max_workers=4)
    order = list(range(len(baseline)))
    random.Random(seed ^ 0x5EED).shuffle(order)
    reordered = _requests(seed)  # fresh modules; finalization mutates
    shuffled = _artifacts([reordered[i] for i in order], max_workers=4)
    for position, index in enumerate(order):
        assert shuffled[position] == baseline[index]


_corruptions = st.one_of(
    st.tuples(st.just("truncate"), st.floats(min_value=0.0, max_value=0.95)),
    st.tuples(
        st.just("flip"),
        st.tuples(
            st.floats(min_value=0.0, max_value=0.999),
            st.integers(min_value=1, max_value=255),
        ),
    ),
    st.tuples(st.just("magic"), st.just(None)),
    st.tuples(st.just("empty"), st.just(None)),
    st.tuples(st.just("old_magic"), st.just(None)),
)


def _corrupt(path: str, mode: str, arg) -> None:
    with open(path, "rb") as fh:
        blob = fh.read()
    if mode == "truncate":
        blob = blob[: int(len(blob) * arg)]
    elif mode == "flip":
        frac, xor = arg
        pos = min(int(len(blob) * frac), len(blob) - 1)
        blob = blob[:pos] + bytes([blob[pos] ^ xor]) + blob[pos + 1 :]
    elif mode == "magic":
        blob = b"wrong\n" + blob[6:]
    elif mode == "old_magic":
        # A well-formed entry of the previous disk format: ``rexe2``
        # magic, a valid checksum, and the payload keys it carried.
        _, _, payload = blob[len(DISK_MAGIC):].partition(b"\n")
        data = pickle.loads(payload)
        data.update(analyzed=False, footprint=None)
        payload = pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
        checksum = hashlib.sha256(payload).hexdigest().encode("ascii")
        blob = b"rexe2\n" + checksum + b"\n" + payload
    else:  # empty
        blob = b""
    with open(path, "wb") as fh:
        fh.write(blob)


@settings(max_examples=12, deadline=None)
@given(_corruptions, st.integers(min_value=0, max_value=2**16))
def test_corrupt_disk_entries_are_evicted_and_rebuilt(corruption, seed):
    mode, arg = corruption
    genome = gp.random_genome(random.Random(seed), 2)
    key = gp.genome_key(genome) + ":p12"
    with tempfile.TemporaryDirectory(prefix="repro-cache-prop-") as tmp:
        first = ExecutableCache(tmp).get_or_build(
            lambda: gp.build_genome_program(genome),
            source_hash=key,
            opt_level=1,
        )
        files = [f for f in os.listdir(tmp) if f.endswith(".exe")]
        assert len(files) == 1
        path = os.path.join(tmp, files[0])
        _corrupt(path, mode, arg)

        warm = ExecutableCache(tmp)
        entry = warm.get_or_build(
            lambda: gp.build_genome_program(genome),
            source_hash=key,
            opt_level=1,
        )
        stats = warm.stats()
        assert entry.tier == "build"  # stale bytes were never served
        assert stats["corrupt"] == 1
        assert stats["hits_disk"] == 0
        assert stats["misses"] == 1
        assert entry.digest == first.digest
        assert print_module(entry.module) == print_module(first.module)
        # The rebuilt entry replaced the corrupt file with a valid one.
        with open(path, "rb") as fh:
            assert fh.read().startswith(DISK_MAGIC)
        fresh = ExecutableCache(tmp).get_or_build(
            lambda: gp.build_genome_program(genome),
            source_hash=key,
            opt_level=1,
        )
        assert fresh.tier == "disk"
