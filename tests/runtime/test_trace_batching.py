"""Oracle test: batched per-phase memory accounting equals accounting
each memory instruction as it issues.

:class:`PerAccessCollector` keeps the per-instruction algorithm as a
reference; Hypothesis drives it and the real collector with the same
event streams (whole rows, masked rows and one-lane accesses mixed in
one phase, at warp sizes 32 and 64) and every trace field must come out
bitwise equal.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.coalescing import uncoalesced_keys, warp_sector_keys
from repro.gpu.timing import cpi_of
from repro.ir.instructions import Opcode
from repro.runtime.trace import TraceCollector
from tests.oracle import Config, check, source_input
from tests.util import trace_fields

_ROW_SHIFT = 5


class PerAccessCollector(TraceCollector):
    """Reference: shared filter, coalescing and row hits per instruction."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._mem_warps = np.zeros(self.num_warps, dtype=bool)
        lanes = np.arange(self.num_warps * self.warp_size)
        self.log_row = lambda addrs: self._account(lanes, addrs)

    def log_masked(self, mask, addrs):
        self._account(np.flatnonzero(mask), addrs)

    def log_lane(self, lane, addr):
        self._account(np.array([lane]), np.array([addr]))

    def _account(self, lane_ids, addrs):
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
            keys = warp_sector_keys(lane_ids, addrs, 8, self.warp_size)
            row_shift = _ROW_SHIFT
        else:
            keys = uncoalesced_keys(lane_ids, addrs, self.warp_size)
            row_shift = self.warp_size.bit_length() - 1  # the lane's bits
        self._phase.sectors += int(keys.size)
        self._phase.lane_accesses += int(lane_ids.size)
        warps = keys >> 40
        self._mem_warps[warps] = True
        sectors = keys & ((1 << 40) - 1)
        rows = sectors >> row_shift
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
def addresses(draw, n: int):
    """``n`` addresses of one access size: a few rows of global memory
    and the shared window, so that sectors repeat, rows hit and accesses
    straddle both ends of the shared range."""
    size = draw(st.sampled_from((1, 4, 8)))
    lo, hi = SHARED
    base = draw(st.sampled_from((0x2000, 0x2400, lo - 64, lo, hi - 512, hi)))
    offsets = draw(st.lists(st.integers(0, 2047), min_size=n, max_size=n))
    return [base + o // size * size for o in offsets]


@st.composite
def mem_event(draw, num_warps: int, warp_size: int):
    T = warp_size * num_warps
    kind = draw(st.sampled_from(("row", "masked", "lane")))
    if kind == "row":
        return ("row", draw(addresses(T)))
    if kind == "lane":
        return ("lane", draw(st.integers(0, T - 1)), draw(addresses(1))[0])
    lanes = draw(st.lists(st.integers(0, T - 1), unique=True, max_size=40))
    mask = np.zeros(T, dtype=bool)
    mask[lanes] = True
    return ("masked", mask, draw(addresses(len(lanes))))


@st.composite
def event_streams(draw):
    num_warps = draw(st.integers(1, 3))
    warp_size = draw(st.sampled_from((32, 64)))
    warp_mask = st.lists(st.booleans(), min_size=num_warps, max_size=num_warps)
    events = draw(
        st.lists(
            st.one_of(
                mem_event(num_warps, warp_size),
                st.just(("enter",)),
                st.just(("exit",)),
                st.tuples(st.just("instr"), warp_mask),
                st.tuples(
                    st.just("uniform"),
                    warp_mask,
                    st.integers(1, 40),
                    st.integers(0, 5),
                ),
            ),
            max_size=30,
        )
    )
    coalescing = draw(st.booleans())
    shared = draw(st.sampled_from((None, SHARED)))
    return num_warps, warp_size, coalescing, shared, events


def replay(cls, num_warps, warp_size, coalescing, shared, events):
    c = cls(
        0,
        num_warps,
        model_coalescing=coalescing,
        shared_range=shared,
        warp_size=warp_size,
    )
    for ev in events:
        kind = ev[0]
        if kind == "row":
            c.log_row(np.array(ev[1], dtype=np.int64))
        elif kind == "masked":
            c.log_masked(ev[1], np.array(ev[2], dtype=np.int64))
        elif kind == "lane":
            c.log_lane(ev[1], np.int64(ev[2]))
        elif kind == "enter":
            c.on_parallel_enter()
        elif kind == "exit":
            c.on_parallel_exit()
        elif kind == "instr":
            c.on_instr(Opcode.FADD, np.array(ev[1], dtype=bool))
        else:  # a uniform stretch: some instructions noted, the rest handed over
            _, mask, instrs, noted = ev
            c.begin_uniform(np.array(mask, dtype=bool))
            noted = min(noted, instrs)
            c.note_uniform_block(2.0 * noted, noted)
            c.end_uniform(2.0 * (instrs - noted), instrs - noted)
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
    """The compiled backend passes register rows and scalars it later
    overwrites; accounting must see the addresses as they were at issue."""
    addrs = np.arange(32, dtype=np.int64) * 8 + 0x2000
    mask = np.ones(32, dtype=bool)
    events = [("masked", mask, addrs.copy()), ("lane", 3, addrs[3])]
    want = replay(PerAccessCollector, 1, 32, True, None, events)
    c = TraceCollector(0, 1)
    c.log_masked(mask, addrs)
    c.log_lane(3, addrs[3])
    addrs[:] = 0x9000  # the register row is reused
    assert trace_fields(c.finalize()) == trace_fields(want)


def test_one_lane_access_keeps_its_place_between_rows():
    """A one-lane access to another DRAM row between two whole rows
    breaks their run of row hits: the merge keeps issue order (row hits
    are often the same either way, so random streams rarely show it)."""
    row = [0x2000 + 8 * i for i in range(32)]
    for lane_event in (("lane", 5, 0x2400), ("masked", np.arange(32) == 5, [0x2400])):
        events = [("row", row), lane_event, ("row", row)]
        want = replay(PerAccessCollector, 1, 32, True, None, events)
        got = replay(TraceCollector, 1, 32, True, None, events)
        assert got.row_hits == want.row_hits == 14


def test_uncoalesced_keys_keep_wide_warps_lanes_apart():
    """At warp size 64, lane 32 of one sector and lane 0 of the next are
    two transactions, not one key folded twice."""
    addrs = np.full(64, 0x2020, dtype=np.int64)
    addrs[32:] = 0x2000
    c = TraceCollector(0, 1, model_coalescing=False, warp_size=64)
    c.log_row(addrs)
    trace = c.finalize()
    assert trace.row_transitions == 64
    assert trace.unique_sectors.size == 64
    assert trace.row_hits == 62  # two runs of one sector each


#: Every iteration of the inner loop loads through an address row the
#: next iteration rewrites in place, with a stride (and so a sector
#: count) of its own: whole-row logs of a register that is its own
#: address (load offset 0) must be copies.
REWRITTEN_ADDRESS = """
def main(argc: i64, argv: ptr_ptr) -> i64:
    buf = malloc_i64(1024)
    for i in dgpu.parallel_range(1024):
        buf[i] = i * 3
    for i in dgpu.parallel_range(64):
        v = 0
        for k in range(5):
            v = v + buf[i * k * 3]
        buf[i] = v
    return buf[5] & 255
"""


def test_rewritten_address_rows_are_logged_as_issued():
    """The compiled backend's traces equal the interpreter's, which
    logs each access's own address array."""
    inp = source_input(REWRITTEN_ADDRESS, timed=True, thread_limit=64)
    configs = [Config("compiled", 1, "unchecked")]
    configs += [Config(opt_level=2), Config("compiled", 2, "unchecked")]
    runs = check(inp, configs)
    assert all(t[1] > 500 for t in runs[configs[-1]].traces)  # row_transitions


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
