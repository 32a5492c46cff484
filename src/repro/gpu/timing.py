"""Kernel timing model.

The interpreter executes kernels functionally and, alongside, fills a
:class:`BlockTrace` per thread block with

* per-phase issue cycles (CPI-weighted instruction counts per warp, split
  into sequential-mode and parallel-region phases, because a sequential
  phase has a single active warp per instance while a parallel phase has
  the whole team),
* the memory-transaction stream after warp-level coalescing (sector counts,
  per-block unique sectors, and measured DRAM row-run statistics).

:class:`TimingModel` then combines the traces:

1. L2 filtering (:class:`~repro.gpu.cache.L2Model`) over the aggregate
   sector stream of all concurrent instances;
2. per-block time = sum over phases of max(compute, memory), where memory
   throughput follows Little's law
   (``active_warps * mlp * sector_bytes / latency``) split between L2-hit
   and DRAM-bound traffic;
3. SM scheduling of blocks into occupancy-limited slots
   (:func:`~repro.gpu.sm.schedule_blocks`);
4. a device-wide DRAM bandwidth bound with the row-locality efficiency of
   :class:`~repro.gpu.dram.DramModel`, where the number of contending
   streams is the number of concurrently resident blocks — each ensemble
   instance walks its own heap allocations (§4.3 of the paper).

The kernel time is ``max(SM makespan, DRAM service time) + launch
overhead``, in device cycles.  Only ratios of these times are meaningful,
which is all the paper's ``T1*N/TN`` metric needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import DeviceConfig, SimConfig
from repro.errors import DeviceError
from repro.gpu.cache import L2Model
from repro.gpu.coalescing import SECTOR_BYTES, sorted_unique
from repro.gpu.dram import DramModel
from repro.gpu.occupancy import OccupancyResult, occupancy
from repro.gpu.sm import schedule_blocks
from repro.ir.instructions import Opcode

#: Fixed kernel-launch overhead in cycles (driver + dispatch).
LAUNCH_OVERHEAD_CYCLES = 2500.0

#: Cycles-per-instruction by opcode (issue+execute cost seen by a warp).
_CPI_DEFAULT = 1.0
CPI: dict[Opcode, float] = {
    # double-precision ALU
    Opcode.FADD: 2.0,
    Opcode.FSUB: 2.0,
    Opcode.FMUL: 2.0,
    Opcode.FMIN: 2.0,
    Opcode.FMAX: 2.0,
    Opcode.FNEG: 1.0,
    Opcode.FDIV: 10.0,
    Opcode.SITOFP: 2.0,
    Opcode.FPTOSI: 2.0,
    # transcendental / SFU
    Opcode.SQRT: 8.0,
    Opcode.EXP: 16.0,
    Opcode.LOG: 16.0,
    Opcode.SIN: 16.0,
    Opcode.COS: 16.0,
    Opcode.TAN: 20.0,
    Opcode.FPOW: 24.0,
    Opcode.FABS: 1.0,
    Opcode.FLOOR: 2.0,
    Opcode.CEIL: 2.0,
    # integer division is slow on GPUs
    Opcode.SDIV: 12.0,
    Opcode.SREM: 12.0,
    # memory issue cost (transfer cost is modeled separately)
    Opcode.LOAD: 4.0,
    Opcode.STORE: 4.0,
    Opcode.ATOMIC_ADD: 20.0,
    Opcode.ATOMIC_MAX: 20.0,
    Opcode.MEMCPY: 8.0,
    Opcode.MEMSET: 8.0,
    # warp shuffles
    Opcode.SHFL_DOWN: 2.0,
    Opcode.SHFL_IDX: 2.0,
    # synchronization
    Opcode.BARRIER: 16.0,
    Opcode.PAR_BEGIN: 24.0,
    Opcode.PAR_END: 24.0,
    Opcode.RED_ADD: 32.0,
    Opcode.RED_MAX: 32.0,
    Opcode.RED_MIN: 32.0,
    # device->host round trip
    Opcode.RPC: 2000.0,
}


def cpi_of(op: Opcode) -> float:
    """Cycles-per-instruction charged for an opcode (1.0 default)."""
    return CPI.get(op, _CPI_DEFAULT)


@dataclass
class PhaseStats:
    """Issue/memory statistics for one sequential or parallel phase."""

    parallel: bool
    active_warps: int = 1
    mem_warps: int = 0
    """Warps that actually issued memory transactions during the phase.
    Latency hiding comes from *these* (idle tail warps that fail a
    worksharing bound immediately contribute no memory-level parallelism),
    so the throughput term uses mem_warps, not the instantaneous maximum."""
    issue_cycles_total: float = 0.0
    issue_cycles_max_warp: float = 0.0
    sectors: int = 0
    lane_accesses: int = 0
    shared_accesses: int = 0
    """Lane accesses served by on-chip shared memory (team-local globals);
    they cost issue cycles but no L2/DRAM traffic."""


@dataclass
class BlockTrace:
    """Everything the timing model needs about one executed block."""

    block_id: int
    phases: list[PhaseStats] = field(default_factory=list)
    row_transitions: int = 0
    row_hits: int = 0
    unique_sectors: np.ndarray | None = None
    dynamic_instructions: int = 0
    divergent_instructions: int = 0
    """Instructions executed on the interpreter's divergent (min-PC) path —
    a direct measure of warp divergence in the program."""

    @property
    def total_sectors(self) -> int:
        return sum(p.sectors for p in self.phases)

    @property
    def total_issue_cycles(self) -> float:
        return sum(p.issue_cycles_total for p in self.phases)


@dataclass
class KernelTiming:
    cycles: float
    block_times: list[float]
    makespan: float
    dram_cycles: float
    occupancy: OccupancyResult
    l2_hit_rate: float
    dram_efficiency: float
    row_seq_fraction: float
    total_sectors: int
    unique_sectors: int
    total_dram_bytes: float
    waves: int

    def summary(self) -> dict:
        return {
            "cycles": self.cycles,
            "makespan": self.makespan,
            "dram_cycles": self.dram_cycles,
            "blocks": len(self.block_times),
            "waves": self.waves,
            "occupancy": self.occupancy.occupancy,
            "l2_hit_rate": self.l2_hit_rate,
            "dram_efficiency": self.dram_efficiency,
            "row_seq_fraction": self.row_seq_fraction,
            "total_sectors": self.total_sectors,
            "unique_sectors": self.unique_sectors,
        }


class TimingModel:
    """Combines block traces into a simulated kernel time (see module doc)."""
    def __init__(self, device: DeviceConfig, sim: SimConfig):
        self.device = device
        self.sim = sim
        self.l2 = L2Model(device.l2)
        self.dram = DramModel(device.dram)

    # ------------------------------------------------------------------
    def kernel_time(
        self,
        traces: list[BlockTrace],
        *,
        threads_per_block: int,
        regs_per_thread: int = 32,
        shared_mem_per_block: int = 0,
    ) -> KernelTiming:
        if not traces:
            raise DeviceError("no block traces to time")
        dev = self.device

        occ = occupancy(
            dev,
            threads_per_block,
            regs_per_thread=regs_per_thread,
            shared_mem_per_block=shared_mem_per_block,
        )

        # ---- aggregate memory stream -> L2 ------------------------------
        total_sectors = sum(t.total_sectors for t in traces)
        uniq_arrays = [t.unique_sectors for t in traces if t.unique_sectors is not None]
        if uniq_arrays:
            unique_sectors = int(sorted_unique(np.concatenate(uniq_arrays)).size)
        else:
            unique_sectors = total_sectors
        if self.sim.model_l2:
            cache = self.l2.evaluate(total_sectors, unique_sectors)
            hit_rate = cache.hit_rate
        else:
            hit_rate = 0.0
        total_bytes = total_sectors * SECTOR_BYTES
        dram_bytes = total_bytes * (1.0 - hit_rate)

        # ---- DRAM row-locality efficiency ---------------------------------
        # Computed before block times: interleaved streams (one per resident
        # block, since each instance walks its own heap allocations) raise
        # the effective per-transaction latency for everyone.
        transitions = sum(t.row_transitions for t in traces)
        hits = sum(t.row_hits for t in traces)
        seq_fraction = hits / transitions if transitions else 1.0
        resident = min(len(traces), dev.num_sms * occ.blocks_per_sm)
        if self.sim.model_row_locality:
            dram_out = self.dram.service(dram_bytes, resident, seq_fraction)
        else:
            dram_out = self.dram.peak_service(dram_bytes)

        # ---- per-block times --------------------------------------------
        block_times = [
            self._block_time(t, hit_rate, dram_out.efficiency, resident)
            for t in traces
        ]

        # ---- SM scheduling -----------------------------------------------
        sched = schedule_blocks(
            block_times, num_sms=dev.num_sms, blocks_per_sm=occ.blocks_per_sm
        )

        # Block times already include each block's bandwidth share, so the
        # kernel time is the SM-schedule makespan; the aggregate DRAM
        # service time is kept as a diagnostic (and a sanity floor for
        # pathological schedules where one block hoards all traffic).
        cycles = max(sched.makespan, dram_out.service_cycles) + LAUNCH_OVERHEAD_CYCLES
        return KernelTiming(
            cycles=cycles,
            block_times=block_times,
            makespan=sched.makespan,
            dram_cycles=dram_out.service_cycles,
            occupancy=occ,
            l2_hit_rate=hit_rate,
            dram_efficiency=dram_out.efficiency,
            row_seq_fraction=seq_fraction,
            total_sectors=total_sectors,
            unique_sectors=unique_sectors,
            total_dram_bytes=dram_bytes,
            waves=sched.waves,
        )

    # ------------------------------------------------------------------
    def _block_time(
        self,
        trace: BlockTrace,
        l2_hit_rate: float,
        dram_efficiency: float,
        resident_blocks: int,
    ) -> float:
        """Sum of per-phase max(compute, memory) times for one block.

        Per-miss DRAM service time is a *series* of two components:

        * the latency-limited term ``1 / (concurrency/latency * eff)`` —
          how fast this block alone can pull misses given its in-flight
          transactions, inflated by row-locality loss (interleaved
          per-instance heap streams, the §4.3 effect), and
        * the bandwidth-share term ``resident / (BW * eff)`` — the block's
          queueing share of device bandwidth when ``resident`` blocks pull
          concurrently.

        The series form yields the paper's *gradual* bandwidth saturation
        (AMGmk at thread limit 1024 keeps gaining with N, just ever more
        slowly) instead of a sharp latency-bound/bandwidth-bound corner.
        """
        dev = self.device
        total = 0.0
        for phase in trace.phases:
            warps = max(1, phase.active_warps)
            schedulers = min(dev.warp_schedulers_per_sm, warps)
            compute = max(
                phase.issue_cycles_total / (schedulers * dev.issue_rate),
                phase.issue_cycles_max_warp,
            )
            bytes_phase = phase.sectors * SECTOR_BYTES
            mem = 0.0
            if bytes_phase > 0:
                mem_warps = phase.mem_warps or warps
                concurrency = mem_warps * dev.mlp_per_warp * SECTOR_BYTES
                thr_dram = concurrency / dev.mem_latency_cycles * dram_efficiency
                thr_l2 = concurrency / max(1, dev.l2.hit_latency)
                hit_b = bytes_phase * l2_hit_rate
                miss_b = bytes_phase - hit_b
                # queueing share: the bandwidth term matters in proportion
                # to DRAM utilization.  With `resident` symmetric blocks
                # each pulling at thr_dram, utilization rho approaches 1 at
                # saturation (AMGmk@1024) and stays small for latency-bound
                # kernels, which then see almost pure memory latency.
                cap = dev.dram.bytes_per_cycle * dram_efficiency
                rho = min(1.0, resident_blocks * thr_dram / cap)
                share = rho * resident_blocks / cap
                mem = hit_b / thr_l2 + miss_b * (1.0 / thr_dram + share)
            total += max(compute, mem)
        return total
