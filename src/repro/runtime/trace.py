"""Per-block trace collection feeding the timing model.

The collector is deliberately separated from the interpreter: functional
execution works identically with tracing off (launches with
``LaunchSpec.collect_timing=False`` run faster, e.g. in unit tests that
only check results).

What is measured, per block:

* CPI-weighted issue cycles per warp, bucketed into phases (sequential
  initial-thread mode vs team-wide parallel regions) because the two modes
  have different active-warp counts and therefore different latency-hiding
  ability;
* memory transactions after warp-level coalescing over the **actual lane
  addresses** (32-byte sectors);
* DRAM row-run statistics of the block's own transaction stream (used by
  the DRAM model to compute each stream's intrinsic sequentiality);
* the block's unique-sector working set (used by the L2 model).

Issue cycles reach the collector in batches: the executors' run loops sum
a uniform stretch's cycles and instruction counts in locals and hand them
over where the active warp set or the phase may change
(:meth:`TraceCollector.end_uniform`).  Every CPI is an integer, so the
float sums are exact in any grouping.

Memory accounting is deferred to the phase close.  The open phase's log
is an address matrix in the making: one row of ``T = num_warps *
warp_size`` addresses per memory instruction, ``-1`` where a lane did not
access.  A whole-row access appends its address row as is
(:attr:`TraceCollector.log_row`) and a masked one a padded row
(:meth:`~TraceCollector.log_masked`).  A one-lane access, the whole of
a sequential phase's traffic, logs only its ``(lane, address)`` pair
(:meth:`~TraceCollector.log_lane`), so its cost does not grow with
``T``.  The close builds the ``(n, T)`` matrix in one step, masks the
shared-memory range out as ``-1``, and keys it with one row-wise sort:
each (instruction, warp) segment's sectors sorted, the first of each
run of equal sectors kept and the ``-1`` sentinels dropped.  Read
warp-major, the kept sectors are each warp's transaction stream in
issue order, from which row hits follow without a further sort.  Each
one-lane access is one transaction; a phase that has them merges them
into their warps' streams by issue order with one stable sort.  The
coalescing-off ablation reads the same log without the sort or dedup:
every accessing lane pays a sector.  The result is bitwise what
accounting each instruction as it issues would give, for the price of
a few numpy calls per phase instead of a dozen per instruction.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.coalescing import sector_ids, sorted_unique
from repro.gpu.timing import BlockTrace, PhaseStats, cpi_of
from repro.ir.instructions import Opcode

_ROW_SHIFT = 5  # sectors per 1024-byte row = 32 -> row = sector >> 5
_NO_KEYS = np.empty(0, dtype=np.int64)


class TraceCollector:
    """Accumulates one block's issue/memory events into a BlockTrace."""

    def __init__(
        self,
        block_id: int,
        num_warps: int,
        *,
        model_coalescing: bool = True,
        shared_range: tuple[int, int] | None = None,
        warp_size: int = 32,
    ):
        self.block_id = block_id
        self.num_warps = num_warps
        self.warp_size = warp_size
        #: Bits of a lane id within its warp (warp sizes are powers of two).
        self._lane_bits = warp_size.bit_length() - 1
        self.model_coalescing = model_coalescing
        self.shared_range = shared_range
        self.trace = BlockTrace(block_id)
        self._par_count = 0  # instances currently inside parallel regions
        self._warp_cycles = np.zeros(num_warps, dtype=np.float64)
        self._phase = PhaseStats(parallel=False)
        self._last_row = np.full(num_warps, -1, dtype=np.int64)
        self._sector_chunks: list[np.ndarray] = []
        # the open phase's memory log: one T-wide address row per
        # instruction, but a one-lane access logs only the (rows logged
        # before it, lane, address) triple in _lane_log
        self._blank = np.full(num_warps * warp_size, -1, dtype=np.int64)
        self._rows: list[np.ndarray] = []
        self._lane_log: list = []
        #: Log a whole-row access: its T addresses, lane order, in an
        #: array nobody writes again (the row is kept, not copied).
        self.log_row = self._rows.append
        #: Address rows accounted so far (one per memory instruction).
        self.logged_rows = 0
        # issue cycles of the open uniform stretch
        self._pending_cycles = 0.0
        self._pending_instrs = 0
        self._pending_warp_mask: np.ndarray | None = None

    # ------------------------------------------------------------------
    # uniform-stretch API: during a stretch where the active warp set does
    # not change, issue cycles are accumulated as scalars and flushed once.
    # ------------------------------------------------------------------
    def begin_uniform(self, warp_mask: np.ndarray) -> None:
        self._flush_uniform()
        self._pending_warp_mask = warp_mask.copy()

    def note_uniform_block(self, cycles: float, instrs: int) -> None:
        """Add ``instrs`` uniform instructions costing ``cycles`` total
        issue cycles to the open stretch, with aggregates identical to
        accounting each instruction alone."""
        self._pending_cycles += cycles
        self._pending_instrs += instrs

    def end_uniform(self, cycles: float = 0.0, instrs: int = 0) -> None:
        """Close the open stretch, adding its last ``instrs``
        instructions (``cycles`` issue cycles) first."""
        self._pending_cycles += cycles
        self._pending_instrs += instrs
        self._flush_uniform()

    def _flush_uniform(self) -> None:
        wm = self._pending_warp_mask
        if wm is None or self._pending_instrs == 0:
            self._pending_warp_mask = None
            self._pending_cycles = 0.0
            self._pending_instrs = 0
            return
        self._issue(wm, self._pending_cycles, self._pending_instrs)
        self._pending_warp_mask = None
        self._pending_cycles = 0.0
        self._pending_instrs = 0

    # ------------------------------------------------------------------
    def on_instr(self, op: Opcode, warp_mask: np.ndarray) -> None:
        """Record issue of one divergent-path instruction by the active
        warps."""
        self.note_divergent_block(warp_mask, cpi_of(op), 1)

    def note_divergent_block(
        self, warp_mask: np.ndarray, cycles: float, instrs: int
    ) -> None:
        """Batch-account ``instrs`` divergent-path instructions costing
        ``cycles`` total, all issued by ``warp_mask``, with aggregates
        identical to ``instrs`` individual :meth:`on_instr` calls."""
        self._issue(warp_mask, cycles, instrs)
        self.trace.divergent_instructions += instrs

    def _issue(self, warp_mask: np.ndarray, cycles: float, instrs: int) -> None:
        """Account ``instrs`` instructions costing ``cycles`` issue cycles
        on every warp of ``warp_mask``."""
        np.add(self._warp_cycles, cycles, out=self._warp_cycles, where=warp_mask)
        n = np.count_nonzero(warp_mask)
        self._phase.issue_cycles_total += cycles * n
        if n > self._phase.active_warps:
            self._phase.active_warps = n
        self.trace.dynamic_instructions += instrs

    def log_masked(self, mask: np.ndarray, addrs: np.ndarray) -> None:
        """Log an access by the lanes of the boolean ``mask`` at ``addrs``
        (one per set lane, in lane order), padded to a row; an access by
        one lane is logged as :meth:`log_lane` logs it."""
        if addrs.size == 1:
            self._lane_log += (len(self._rows), int(mask.argmax()), addrs[0])
            return
        row = self._blank.copy()
        row[mask] = addrs
        self._rows.append(row)

    def log_lane(self, lane: int, addr: int) -> None:
        """Log an access by lane ``lane`` alone at ``addr``."""
        self._lane_log += (len(self._rows), lane, addr)

    def on_parallel_enter(self) -> None:
        self._par_count += 1
        if self._par_count == 1:
            self._close_phase(parallel=True)

    def on_parallel_exit(self) -> None:
        self._par_count = max(0, self._par_count - 1)
        if self._par_count == 0:
            self._close_phase(parallel=False)

    # ------------------------------------------------------------------
    def _flush_mem(self) -> None:
        """Account the open phase's logged memory accesses.  Accesses into
        the team's shared-memory range are on-chip (SRAM): counted
        separately, never fed to the coalescer/L2/DRAM models."""
        if not self._rows and not self._lane_log:
            return
        ph = self._phase
        bits = self._lane_bits
        n = len(self._rows)
        self.logged_rows += n + len(self._lane_log) // 3
        stream, per_row = self._row_transactions()
        counts = per_row.sum(axis=1)
        if self._lane_log:
            at, lane, addr = np.array(self._lane_log, dtype=np.int64).reshape(-1, 3).T
            self._lane_log.clear()
            if self.shared_range is not None:
                lo, hi = self.shared_range
                off = (addr < lo) | (addr >= hi)
                ph.shared_accesses += int(addr.size - np.count_nonzero(off))
                at, lane, addr = at[off], lane[off], addr[off]
            ph.lane_accesses += int(addr.size)
            # one lane, one transaction, merged into its warp's stream by
            # issue order: a one-lane access goes just before row ``at``
            warp = lane >> bits
            keys = sector_ids(addr, 1)
            if not self.model_coalescing:
                keys = (keys << bits) | (lane & (self.warp_size - 1))
            order = warp * (2 * n + 1) + 2 * at
            if stream.size:
                row_order = np.arange(self.num_warps)[:, None] * (2 * n + 1)
                row_order = row_order + 2 * np.arange(n) + 1
                order = np.concatenate((np.repeat(row_order, per_row.ravel()), order))
                keys = np.concatenate((stream, keys))
            stream = keys[np.argsort(order, kind="stable")]
            counts += np.bincount(warp, minlength=self.num_warps)
        if stream.size == 0:
            return
        ph.sectors += int(stream.size)
        self._sector_chunks.append(stream)
        # a lane-folded key's row is its sector, as accounting per access gives
        rows = stream >> (_ROW_SHIFT if self.model_coalescing else bits)
        # Row hits: consecutive transactions to the same row within one
        # warp's stream; each warp's first transaction of the phase
        # compares against its last row of the previous phase.
        warps = np.flatnonzero(counts)
        ends = np.cumsum(counts[warps])
        first = ends - counts[warps]
        same = rows[1:] == rows[:-1]
        same[first[1:] - 1] = False
        hits = int(np.count_nonzero(same))
        hits += int(np.count_nonzero(rows[first] == self._last_row[warps]))
        self._last_row[warps] = rows[ends - 1]
        ph.mem_warps = int(warps.size)
        self.trace.row_transitions += int(stream.size)
        self.trace.row_hits += hits

    def _row_transactions(self) -> tuple[np.ndarray, np.ndarray]:
        """Key the logged address rows: their transactions warp-major (each
        warp's in issue order) and the ``(warp, row)`` count of them."""
        rows = self._rows
        n = len(rows)
        if n == 0:
            return _NO_KEYS, np.zeros((self.num_warps, 0), dtype=np.int64)
        # (n, T); a new array, so safe to edit
        addrs = np.concatenate(rows).reshape(n, -1)
        rows.clear()
        ph = self._phase
        if self.shared_range is not None:
            lo, hi = self.shared_range
            shared = (addrs >= lo) & (addrs < hi)
            count = int(np.count_nonzero(shared))
            if count:
                ph.shared_accesses += count
                addrs[shared] = -1
        valid = addrs >= 0
        ph.lane_accesses += int(np.count_nonzero(valid))
        # (instruction, warp, lane in warp)
        shape = (n, self.num_warps, self.warp_size)
        sectors = sector_ids(addrs, 1).reshape(shape)
        if self.model_coalescing:
            sectors.sort(axis=2)  # the -1 sentinels first
            keep = sectors >= 0
            keep[:, :, 1:] &= sectors[:, :, 1:] != sectors[:, :, :-1]
        else:
            # every accessing lane pays a private sector, made unique by
            # folding its lane in
            keep = valid.reshape(shape)
            sectors = (sectors << self._lane_bits) | np.arange(self.warp_size)
        keep = keep.transpose(1, 0, 2)
        return sectors.transpose(1, 0, 2)[keep], np.count_nonzero(keep, axis=2)

    def _close_phase(self, *, parallel: bool) -> None:
        self._flush_uniform()
        self._flush_mem()
        ph = self._phase
        ph.issue_cycles_max_warp = float(self._warp_cycles.max()) if self.num_warps else 0.0
        if ph.issue_cycles_total > 0 or ph.sectors > 0:
            self.trace.phases.append(ph)
        self._warp_cycles[:] = 0.0
        self._phase = PhaseStats(parallel=parallel)

    def finalize(self) -> BlockTrace:
        self._close_phase(parallel=False)
        if self._sector_chunks:
            self.trace.unique_sectors = sorted_unique(np.concatenate(self._sector_chunks))
        else:
            self.trace.unique_sectors = np.empty(0, dtype=np.int64)
        return self.trace
