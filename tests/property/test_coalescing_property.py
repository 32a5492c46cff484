"""Property tests: coalescing invariants for arbitrary access patterns."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.coalescing import (
    batch_sector_keys,
    sorted_unique,
    transactions_per_warp,
    uncoalesced_keys,
    warp_sector_keys,
)


@st.composite
def warp_access(draw):
    n = draw(st.integers(1, 128))
    lanes = np.array(
        draw(
            st.lists(st.integers(0, 127), min_size=n, max_size=n, unique=True)
        )
    )
    addrs = np.array(
        draw(st.lists(st.integers(0, 1 << 20), min_size=n, max_size=n))
    ) * 8 + 4096
    return lanes, addrs


@settings(max_examples=80, deadline=None)
@given(warp_access())
def test_transaction_count_bounds(access):
    lanes, addrs = access
    keys = warp_sector_keys(lanes, addrs, 8)
    # at least one transaction per active warp, at most one per lane
    warps = set(int(w) for w in lanes // 32)
    assert len(warps) <= keys.size <= lanes.size


@settings(max_examples=80, deadline=None)
@given(warp_access())
def test_uncoalesced_never_cheaper(access):
    lanes, addrs = access
    co = warp_sector_keys(lanes, addrs, 8)
    unco = uncoalesced_keys(lanes, addrs)
    assert unco.size >= co.size


@settings(max_examples=80, deadline=None)
@given(warp_access())
def test_keys_deterministic_and_order_independent(access):
    lanes, addrs = access
    perm = np.random.default_rng(0).permutation(lanes.size)
    a = warp_sector_keys(lanes, addrs, 8)
    b = warp_sector_keys(lanes[perm], addrs[perm], 8)
    np.testing.assert_array_equal(a, b)


@settings(max_examples=50, deadline=None)
@given(warp_access())
def test_per_warp_counts_sum_to_total(access):
    lanes, addrs = access
    keys = warp_sector_keys(lanes, addrs, 8)
    per_warp = transactions_per_warp(keys)
    assert sum(per_warp.values()) == keys.size


@settings(max_examples=80, deadline=None)
@given(st.lists(warp_access(), max_size=6), st.booleans())
def test_batch_keys_concatenate_per_instruction_keys(accesses, coalesce):
    per_instr = warp_sector_keys if coalesce else (
        lambda lanes, addrs, size: uncoalesced_keys(lanes, addrs)
    )
    want = [per_instr(lanes, addrs, 8) for lanes, addrs in accesses]
    access = np.repeat(
        np.arange(len(accesses)), [lanes.size for lanes, _ in accesses]
    )
    lanes = np.concatenate([a for a, _ in accesses] or [np.empty(0, np.int64)])
    addrs = np.concatenate([b for _, b in accesses] or [np.empty(0, np.int64)])
    got = batch_sector_keys(access, lanes, addrs, coalesce=coalesce)
    np.testing.assert_array_equal(
        got, np.concatenate(want or [np.empty(0, np.int64)])
    )


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 1 << 40)))
def test_sorted_unique_is_np_unique(values):
    values = np.array(values, dtype=np.int64)
    want = np.unique(values)
    got = sorted_unique(values)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
