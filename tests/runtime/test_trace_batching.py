"""Oracle test: batched per-phase memory accounting equals accounting
each memory instruction as it issues.

:class:`PerAccessCollector` keeps the per-instruction algorithm as a
reference; Hypothesis drives it and the real collector with the same
event streams and every trace field must come out bitwise equal.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.coalescing import uncoalesced_keys, warp_sector_keys
from repro.gpu.timing import cpi_of
from repro.ir.instructions import Opcode
from repro.runtime.trace import TraceCollector
from tests.util import trace_fields

_ROW_SHIFT = 5


class PerAccessCollector(TraceCollector):
    """Reference: shared filter, coalescing and row hits per instruction."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._mem_warps = np.zeros(self.num_warps, dtype=bool)

    def on_mem(self, lane_ids, addrs, access_size):
        if lane_ids.size == 0:
            return
        if self.shared_range is not None:
            lo, hi = self.shared_range
            is_shared = (addrs >= lo) & (addrs < hi)
            n_shared = int(is_shared.sum())
            self._phase.shared_accesses += n_shared
            if n_shared == lane_ids.size:
                return
            lane_ids, addrs = lane_ids[~is_shared], addrs[~is_shared]
        if self.model_coalescing:
            keys = warp_sector_keys(lane_ids, addrs, access_size)
        else:
            keys = uncoalesced_keys(lane_ids, addrs)
        self._phase.sectors += int(keys.size)
        self._phase.lane_accesses += int(lane_ids.size)
        warps = keys >> 40
        self._mem_warps[warps] = True
        sectors = keys & ((1 << 40) - 1)
        rows = sectors >> _ROW_SHIFT
        self._sector_chunks.append(sectors)
        same = (np.diff(warps) == 0) & (np.diff(rows) == 0)
        first = np.flatnonzero(np.concatenate(([True], np.diff(warps) != 0)))
        fw = warps[first]
        hits = int(same.sum()) + int((rows[first] == self._last_row[fw]).sum())
        self.trace.row_transitions += int(keys.size)
        self.trace.row_hits += hits
        last = np.concatenate((first[1:] - 1, [keys.size - 1]))
        self._last_row[warps[last]] = rows[last]

    def _flush_mem(self):
        self._phase.mem_warps = int(self._mem_warps.sum())
        self._mem_warps[:] = False


SHARED = (1 << 16, 1 << 16 | 4096)


@st.composite
def mem_event(draw, num_warps: int):
    lanes = draw(
        st.lists(st.integers(0, 32 * num_warps - 1), unique=True, max_size=40)
    )
    size = draw(st.sampled_from((1, 4, 8)))
    # a few rows of global memory and the shared window, so that sectors
    # repeat, rows hit and accesses straddle both ends of the shared range
    lo, hi = SHARED
    base = draw(st.sampled_from((0x2000, 0x2400, lo - 64, lo, hi - 512, hi)))
    offsets = draw(
        st.lists(
            st.integers(0, 2047), min_size=len(lanes), max_size=len(lanes)
        )
    )
    addrs = [base + o // size * size for o in offsets]
    return ("mem", sorted(lanes), addrs, size)


@st.composite
def event_streams(draw):
    num_warps = draw(st.integers(1, 3))
    events = draw(
        st.lists(
            st.one_of(
                mem_event(num_warps),
                st.just(("enter",)),
                st.just(("exit",)),
                st.tuples(
                    st.just("instr"),
                    st.lists(
                        st.booleans(), min_size=num_warps, max_size=num_warps
                    ),
                ),
            ),
            max_size=30,
        )
    )
    coalescing = draw(st.booleans())
    shared = draw(st.sampled_from((None, SHARED)))
    return num_warps, coalescing, shared, events


def replay(cls, num_warps, coalescing, shared, events):
    c = cls(0, num_warps, model_coalescing=coalescing, shared_range=shared)
    for ev in events:
        if ev[0] == "mem":
            _, lanes, addrs, size = ev
            c.on_mem(
                np.array(lanes, dtype=np.int64),
                np.array(addrs, dtype=np.int64),
                size,
            )
        elif ev[0] == "enter":
            c.on_parallel_enter()
        elif ev[0] == "exit":
            c.on_parallel_exit()
        else:
            c.on_instr(Opcode.FADD, np.array(ev[1], dtype=bool))
    return c.finalize()


@settings(max_examples=300, deadline=None)
@given(event_streams())
def test_batched_accounting_matches_per_access(stream):
    want = replay(PerAccessCollector, *stream)
    got = replay(TraceCollector, *stream)
    assert got.phases == want.phases
    assert got.row_hits == want.row_hits
    assert got.row_transitions == want.row_transitions
    assert got.unique_sectors.dtype == want.unique_sectors.dtype
    assert np.array_equal(got.unique_sectors, want.unique_sectors)
    assert trace_fields(got) == trace_fields(want)


def test_logged_addresses_are_copied():
    """The compiled backend may pass a register row it later overwrites;
    accounting must see the addresses as they were at issue."""
    addrs = np.arange(32, dtype=np.int64) * 8 + 0x2000
    lanes = np.arange(32, dtype=np.int64)
    want = replay(
        PerAccessCollector, 1, True, None, [("mem", lanes, addrs.copy(), 8)]
    )
    c = TraceCollector(0, 1)
    c.on_mem(lanes, addrs, 8)
    addrs[:] = 0x9000  # the register row is reused
    assert trace_fields(c.finalize()) == trace_fields(want)


def test_divergent_block_note_matches_per_instruction_calls():
    mask = np.array([True, False, True])
    ops = [Opcode.FADD, Opcode.LOAD, Opcode.FMUL, Opcode.BR]
    per_instr = TraceCollector(0, 3)
    for op in ops:
        per_instr.on_instr(op, mask)
    batched = TraceCollector(0, 3)
    batched.note_divergent_block(mask, sum(cpi_of(op) for op in ops[:3]), 3)
    batched.note_divergent_block(mask, cpi_of(ops[3]), 1)
    assert trace_fields(batched.finalize()) == trace_fields(per_instr.finalize())
