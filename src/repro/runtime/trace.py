"""Per-block trace collection feeding the timing model.

The collector is deliberately separated from the interpreter: functional
execution works identically with tracing off (``collect=False`` launches run
faster, e.g. in unit tests that only check results).

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

Memory accounting is deferred to the phase close.  :meth:`TraceCollector.
on_mem` only logs each instruction's lanes and addresses; when a phase
closes, the whole log is keyed in one batch
(:func:`~repro.gpu.coalescing.batch_sector_keys`): shared-range filter,
per-instruction ``(warp, sector)`` dedup, then row hits from one stable
sort of the phase's transaction stream by warp.  The result is bitwise
what accounting each instruction as it issues would give, for the price
of a few numpy calls per phase instead of a dozen per instruction.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.coalescing import batch_sector_keys, sorted_unique, split_keys
from repro.gpu.timing import BlockTrace, PhaseStats, cpi_of
from repro.ir.instructions import Opcode

_ROW_SHIFT = 5  # sectors per 1024-byte row = 32 -> row = sector >> 5


class TraceCollector:
    """Accumulates one block's issue/memory events into a BlockTrace."""
    def __init__(
        self,
        block_id: int,
        num_warps: int,
        *,
        model_coalescing: bool = True,
        shared_range: tuple[int, int] | None = None,
    ):
        self.block_id = block_id
        self.num_warps = num_warps
        self.model_coalescing = model_coalescing
        self.shared_range = shared_range
        self.trace = BlockTrace(block_id)
        self._par_count = 0  # instances currently inside parallel regions
        self._warp_cycles = np.zeros(num_warps, dtype=np.float64)
        self._phase = PhaseStats(parallel=False)
        self._last_row = np.full(num_warps, -1, dtype=np.int64)
        self._sector_chunks: list[np.ndarray] = []
        # the open phase's memory log: one entry per instruction
        self._mem_lanes: list[np.ndarray] = []
        self._mem_addrs: list[np.ndarray] = []
        # uniform-stretch batching (fast interpreter path)
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

    def note_uniform(self, cycles: float) -> None:
        self._pending_cycles += cycles
        self._pending_instrs += 1

    def note_uniform_block(self, cycles: float, instrs: int) -> None:
        """Batch-account a straight-line run of ``instrs`` uniform
        instructions costing ``cycles`` total issue cycles — one call per
        basic block from the compiled backend, with aggregates identical
        to ``instrs`` individual :meth:`note_uniform` calls."""
        self._pending_cycles += cycles
        self._pending_instrs += instrs

    def end_uniform(self) -> None:
        self._flush_uniform()

    def _flush_uniform(self) -> None:
        wm = self._pending_warp_mask
        if wm is None or self._pending_instrs == 0:
            self._pending_warp_mask = None
            self._pending_cycles = 0.0
            self._pending_instrs = 0
            return
        cycles = self._pending_cycles
        self._warp_cycles[wm] += cycles
        n = int(wm.sum())
        self._phase.issue_cycles_total += cycles * n
        if n > self._phase.active_warps:
            self._phase.active_warps = n
        self.trace.dynamic_instructions += self._pending_instrs
        self._pending_warp_mask = None
        self._pending_cycles = 0.0
        self._pending_instrs = 0

    # ------------------------------------------------------------------
    def on_instr(self, op: Opcode, warp_mask: np.ndarray) -> None:
        """Record issue of one instruction by the active warps (called on
        the interpreter's divergent path; uniform stretches batch through
        note_uniform)."""
        cycles = cpi_of(op)
        self._warp_cycles[warp_mask] += cycles
        n = int(warp_mask.sum())
        self._phase.issue_cycles_total += cycles * n
        if n > self._phase.active_warps:
            self._phase.active_warps = n
        self.trace.dynamic_instructions += 1
        self.trace.divergent_instructions += 1

    def note_divergent_block(
        self, warp_mask: np.ndarray, cycles: float, instrs: int
    ) -> None:
        """Batch-account ``instrs`` divergent-path instructions costing
        ``cycles`` total, all issued by ``warp_mask`` — one call per
        basic block from the compiled backend, with aggregates identical
        to ``instrs`` individual :meth:`on_instr` calls (every CPI is an
        integer, so the float sums are exact)."""
        self._warp_cycles[warp_mask] += cycles
        n = int(warp_mask.sum())
        self._phase.issue_cycles_total += cycles * n
        if n > self._phase.active_warps:
            self._phase.active_warps = n
        self.trace.dynamic_instructions += instrs
        self.trace.divergent_instructions += instrs

    def on_mem(self, lane_ids: np.ndarray, addrs: np.ndarray, access_size: int) -> None:
        """Log a memory access by the given lanes (ascending lane ids, as
        every executor passes them); it is accounted when the phase
        closes.  ``addrs`` is copied: the compiled backend may pass a
        register row that later instructions overwrite."""
        self._mem_lanes.append(lane_ids)
        self._mem_addrs.append(addrs.copy())

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
        if not self._mem_addrs:
            return
        sizes = list(map(len, self._mem_addrs))
        access = np.repeat(np.arange(len(sizes)), sizes)
        lanes = np.concatenate(self._mem_lanes)
        addrs = np.concatenate(self._mem_addrs)
        self._mem_lanes.clear()
        self._mem_addrs.clear()
        ph = self._phase
        if self.shared_range is not None:
            lo, hi = self.shared_range
            keep = (addrs < lo) | (addrs >= hi)
            ph.shared_accesses += int(addrs.size - np.count_nonzero(keep))
            lanes, addrs, access = lanes[keep], addrs[keep], access[keep]
        if addrs.size == 0:
            return
        keys = batch_sector_keys(
            access, lanes, addrs, coalesce=self.model_coalescing
        )
        ph.sectors += int(keys.size)
        ph.lane_accesses += int(addrs.size)
        warps, sectors = split_keys(keys)
        self._sector_chunks.append(sectors)
        rows = sectors >> _ROW_SHIFT
        # Row hits: consecutive transactions to the same row within one
        # warp's stream; each warp's first transaction of the phase
        # compares against its last row of the previous phase.
        if self.num_warps > 1:
            order = np.argsort(warps, kind="stable")
            warps, rows = warps[order], rows[order]
        new_warp = np.ones(keys.size, dtype=bool)
        np.not_equal(warps[1:], warps[:-1], out=new_warp[1:])
        hits = int(np.count_nonzero((rows[1:] == rows[:-1]) & ~new_warp[1:]))
        first = np.flatnonzero(new_warp)
        fw = warps[first]
        hits += int(np.count_nonzero(rows[first] == self._last_row[fw]))
        last = np.append(first[1:] - 1, keys.size - 1)
        self._last_row[fw] = rows[last]
        ph.mem_warps = int(fw.size)
        self.trace.row_transitions += int(keys.size)
        self.trace.row_hits += hits

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
