"""Device/sim configuration validation and derived quantities."""

import pytest

from repro.config import (
    DEFAULT_DEVICE,
    DEFAULT_SIM,
    CacheConfig,
    DeviceConfig,
    DramConfig,
    SimConfig,
)


class TestDeviceConfig:
    def test_default_validates(self):
        DEFAULT_DEVICE.validate()

    def test_a100_like_geometry(self):
        assert DEFAULT_DEVICE.num_sms == 108
        assert DEFAULT_DEVICE.warp_size == 32
        assert DEFAULT_DEVICE.max_threads_per_block == 1024

    def test_non_power_of_two_warp_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            DeviceConfig(warp_size=24).validate()

    def test_block_not_multiple_of_warp_rejected(self):
        with pytest.raises(ValueError, match="multiple of warp_size"):
            DeviceConfig(max_threads_per_block=1000).validate()

    def test_zero_sms_rejected(self):
        with pytest.raises(ValueError, match="num_sms"):
            DeviceConfig(num_sms=0).validate()

    def test_inconsistent_warp_slots_rejected(self):
        with pytest.raises(ValueError, match="max_warps_per_sm"):
            DeviceConfig(max_warps_per_sm=8, max_threads_per_sm=2048).validate()

    def test_with_memory_returns_copy(self):
        small = DEFAULT_DEVICE.with_memory(1 << 20)
        assert small.global_mem_bytes == 1 << 20
        assert DEFAULT_DEVICE.global_mem_bytes != 1 << 20
        assert small.num_sms == DEFAULT_DEVICE.num_sms

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_DEVICE.num_sms = 1  # type: ignore[misc]


class TestSimConfig:
    def test_defaults_enable_all_mechanisms(self):
        assert DEFAULT_SIM.model_coalescing
        assert DEFAULT_SIM.model_row_locality
        assert DEFAULT_SIM.model_l2

    def test_ablation_flags_independent(self):
        sim = SimConfig(model_l2=False)
        assert sim.model_coalescing and not sim.model_l2


class TestSubConfigs:
    def test_dram_defaults(self):
        d = DramConfig()
        assert d.bytes_per_cycle > 0
        assert d.row_miss_penalty > 1.0
        assert 0 < d.min_efficiency < 1

    def test_l2_defaults(self):
        c = CacheConfig()
        assert c.size_bytes == 40 * 1024 * 1024  # A100 L2
