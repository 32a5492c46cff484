"""Device and simulation configuration.

The default :class:`DeviceConfig` is modeled after the NVIDIA A100 (40 GB)
used in the paper's evaluation, with per-SM resource limits taken from the
GA100 whitepaper.  Absolute numbers only matter as *ratios* for the
reproduction (speedups are `T1*N/TN`), but keeping them physical makes the
occupancy calculator and the DRAM model behave like the real part.

Capacity is configurable (and scaled down in the Page-Rank experiment) so the
paper's out-of-memory cap at four instances is reproducible at simulator
scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class DramConfig:
    """Timing parameters of the simulated DRAM subsystem.

    The model is a bandwidth/row-locality model, not a cycle-accurate DRAM
    controller: transactions cost ``bytes / bytes_per_cycle`` cycles at peak,
    inflated by a row-miss penalty that grows with the number of distinct
    concurrent address streams (one per team in ensemble execution, because
    every instance owns a separate heap allocation — §4.3 of the paper).
    """

    bytes_per_cycle: float = 64.0
    """Peak DRAM bytes transferred per device cycle (A100: ~1.5 TB/s @ 1.41 GHz)."""

    row_size: int = 1024
    """Bytes per DRAM row (row-buffer granularity for the locality model)."""

    num_channels: int = 20
    """Independent channels; streams beyond this contend for row buffers."""

    row_miss_penalty: float = 2.3
    """Multiplier on transaction cost for a row-buffer miss."""

    min_efficiency: float = 0.35
    """Lower bound on DRAM efficiency under worst-case stream interleaving."""


@dataclass(frozen=True)
class CacheConfig:
    """L2 cache model parameters (shared by all SMs)."""

    size_bytes: int = 40 * 1024 * 1024
    line_bytes: int = 128
    ways: int = 16
    hit_latency: int = 30


@dataclass(frozen=True)
class DeviceConfig:
    """Static description of the simulated GPU."""

    name: str = "Simulated-A100-40GB"

    # --- grid/block geometry limits -------------------------------------
    num_sms: int = 108
    warp_size: int = 32
    max_threads_per_block: int = 1024
    max_blocks_per_sm: int = 32
    max_warps_per_sm: int = 64
    max_threads_per_sm: int = 2048

    # --- per-SM resources -------------------------------------------------
    registers_per_sm: int = 65536
    shared_mem_per_sm: int = 164 * 1024
    shared_mem_per_block: int = 48 * 1024

    # --- memory ------------------------------------------------------------
    global_mem_bytes: int = 40 * 1024 * 1024 * 1024
    """Device memory capacity. Experiments scale this down together with
    workload sizes so OOM behaviour reproduces at simulator scale."""

    # --- issue model --------------------------------------------------------
    warp_schedulers_per_sm: int = 4
    issue_rate: float = 1.0
    """Instructions issued per scheduler per cycle."""

    mem_latency_cycles: int = 500
    """Average global-memory round-trip latency (cycles)."""

    mlp_per_warp: float = 1.0
    """Outstanding memory transactions a warp keeps in flight (Little's law
    concurrency term: per-block memory throughput is
    ``active_warps * mlp_per_warp * sector / latency``).  Calibrated so a
    single full block sustains roughly 1/20 to 1/30 of device bandwidth,
    matching a single SM's share on an A100."""

    dram: DramConfig = field(default_factory=DramConfig)
    l2: CacheConfig = field(default_factory=CacheConfig)

    def with_memory(self, nbytes: int) -> "DeviceConfig":
        """Return a copy of this config with ``global_mem_bytes`` replaced."""
        return replace(self, global_mem_bytes=nbytes)

    def validate(self) -> None:
        """Raise ``ValueError`` for physically meaningless configurations."""
        if self.warp_size <= 0 or self.warp_size & (self.warp_size - 1):
            raise ValueError(f"warp_size must be a positive power of two: {self.warp_size}")
        if self.max_threads_per_block % self.warp_size:
            raise ValueError("max_threads_per_block must be a multiple of warp_size")
        if self.num_sms <= 0:
            raise ValueError("num_sms must be positive")
        if self.global_mem_bytes <= 0:
            raise ValueError("global_mem_bytes must be positive")
        if self.max_warps_per_sm * self.warp_size < self.max_threads_per_sm:
            raise ValueError("max_warps_per_sm inconsistent with max_threads_per_sm")


#: Default device used throughout tests/benchmarks: A100-like geometry with a
#: small simulated memory arena (the functional simulator backs device memory
#: with a real numpy buffer, so the arena must stay laptop-sized).
DEFAULT_DEVICE = DeviceConfig(global_mem_bytes=256 * 1024 * 1024)


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the timing simulation (ablation switches)."""

    model_coalescing: bool = True
    """If False, every lane access costs a full 32-byte sector (ablation)."""

    model_row_locality: bool = True
    """If False, DRAM always runs at peak efficiency (ablation)."""

    model_l2: bool = True
    """If False, all transactions go straight to DRAM (ablation)."""


DEFAULT_SIM = SimConfig()
