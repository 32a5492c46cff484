"""Analytic L2 model invariants."""

import numpy as np
import pytest

from repro.config import CacheConfig, DeviceConfig, SimConfig
from repro.gpu.cache import L2Model
from repro.gpu.coalescing import SECTOR_BYTES
from repro.gpu.timing import BlockTrace, PhaseStats, TimingModel


def model(size=1 << 20):
    return L2Model(CacheConfig(size_bytes=size))


def test_no_reuse_no_hits():
    out = model().evaluate(total_sectors=1000, unique_sectors=1000)
    assert out.hit_rate == 0.0
    assert out.dram_bytes == 1000 * SECTOR_BYTES


def test_full_reuse_in_cache_mostly_hits():
    # 10 sectors touched 1000 times, tiny working set
    out = model().evaluate(total_sectors=1000, unique_sectors=10)
    assert out.hit_rate == pytest.approx(0.99, abs=0.01)


def test_capacity_overflow_scales_hits_down():
    size = 100 * SECTOR_BYTES
    fits = model(size).evaluate(total_sectors=1000, unique_sectors=100)
    spills = model(size).evaluate(total_sectors=1000, unique_sectors=400)
    assert spills.hit_rate < fits.hit_rate
    # 4x overflow -> capacity factor 1/4
    assert spills.hit_rate == pytest.approx((1 - 0.4) * 0.25)


def test_disabled_cache_sends_everything_to_dram():
    """The L2 ablation (``SimConfig(model_l2=False)``) filters nothing,
    even for a stream that re-touches 10 sectors 500 times."""
    t = BlockTrace(0)
    t.phases.append(PhaseStats(
        parallel=False, active_warps=1, mem_warps=1,
        issue_cycles_total=100.0, issue_cycles_max_warp=100.0, sectors=500,
    ))
    t.unique_sectors = np.arange(10)
    timing = TimingModel(
        DeviceConfig(global_mem_bytes=1 << 26), SimConfig(model_l2=False)
    )
    out = timing.kernel_time([t], threads_per_block=32)
    assert out.l2_hit_rate == 0.0
    assert out.total_dram_bytes == 500 * SECTOR_BYTES


def test_bytes_conserved():
    out = model().evaluate(total_sectors=800, unique_sectors=200)
    assert out.dram_bytes + out.hit_bytes == pytest.approx(800 * SECTOR_BYTES)


def test_zero_traffic():
    out = model().evaluate(0, 0)
    assert out.hit_rate == 0.0
    assert out.dram_bytes == 0.0
