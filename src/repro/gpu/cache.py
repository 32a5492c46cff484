"""Analytic L2 cache model.

The simulator does not replay every access through a set-associative array
(that would dominate runtime for zero reproduction value); instead it uses
the two quantities the trace gives us exactly — total transactions and the
unique-sector working set — and estimates the hit rate as

    reuse_fraction * capacity_factor

where ``reuse_fraction = 1 - unique/total`` is the fraction of transactions
that re-touch a sector (an upper bound on hits), and ``capacity_factor``
scales it down once the *combined* working set of all concurrent instances
overflows the shared L2.  This is the second mechanism (besides DRAM row
locality) that makes ensemble scaling sub-linear: N instances bring N
private working sets that compete for one cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import CacheConfig
from repro.gpu.coalescing import SECTOR_BYTES


@dataclass(frozen=True)
class CacheOutcome:
    hit_rate: float
    dram_bytes: float
    hit_bytes: float
    working_set_bytes: int


class L2Model:
    """Analytic shared-L2 filter over the kernel-wide sector stream."""
    def __init__(self, cfg: CacheConfig):
        self.cfg = cfg

    def evaluate(self, total_sectors: int, unique_sectors: int) -> CacheOutcome:
        """Estimate L2 filtering for a kernel's aggregate sector stream."""
        total_bytes = total_sectors * SECTOR_BYTES
        ws = unique_sectors * SECTOR_BYTES
        if total_sectors == 0:
            return CacheOutcome(0.0, float(total_bytes), 0.0, ws)
        reuse = max(0.0, 1.0 - unique_sectors / total_sectors)
        capacity_factor = min(1.0, self.cfg.size_bytes / ws) if ws > 0 else 1.0
        hit = reuse * capacity_factor
        hit_bytes = total_bytes * hit
        return CacheOutcome(hit, total_bytes - hit_bytes, hit_bytes, ws)
