"""Tests for the KernelSpec model (Eq. 1)."""

from __future__ import annotations

import pytest

from repro.core import KernelSpec
from repro.errors import ConfigurationError
from repro.hw.resources import ResourceCost


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelSpec("", 1.0, 1.0)

    def test_negative_timing_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelSpec("k", -1.0, 1.0)
        with pytest.raises(ConfigurationError):
            KernelSpec("k", 1.0, -1.0)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf")]
    )
    def test_non_finite_timing_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="non-finite"):
            KernelSpec("k", bad, 1.0)
        with pytest.raises(ConfigurationError, match="non-finite"):
            KernelSpec("k", 1.0, bad)

    def test_non_finite_tau_never_reaches_the_simulator(self):
        # A NaN tau used to be accepted, and HwKernelSim.compute() then
        # produced a nan makespan without any error.
        from repro.sim.engine import Engine
        from repro.sim.hwkernel import HwKernelSim

        with pytest.raises(ConfigurationError):
            HwKernelSim(Engine(), KernelSpec("a", float("nan"), 1.0))

    def test_negative_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelSpec("k", 1.0, 1.0, local_memory_bytes=-5)


class TestTiming:
    def test_tau_seconds_uses_kernel_clock(self):
        k = KernelSpec("k", tau_cycles=100.0, sw_cycles=0.0)
        assert k.tau_seconds == pytest.approx(1e-6)  # 100 @ 100 MHz

    def test_sw_seconds_uses_host_clock(self):
        k = KernelSpec("k", tau_cycles=0.0, sw_cycles=400.0)
        assert k.sw_seconds == pytest.approx(1e-6)  # 400 @ 400 MHz

    def test_hw_speedup(self):
        # 4000 host cycles (10 us) vs 100 kernel cycles (1 us) = 10x.
        k = KernelSpec("k", tau_cycles=100.0, sw_cycles=4000.0)
        assert k.hw_speedup == pytest.approx(10.0)

    def test_hw_speedup_zero_tau_rejected(self):
        k = KernelSpec("k", tau_cycles=0.0, sw_cycles=100.0)
        with pytest.raises(ConfigurationError):
            _ = k.hw_speedup


class TestTransforms:
    def test_halved_copies(self):
        k = KernelSpec(
            "k", 1000.0, 8000.0,
            parallelizable=True, resources=ResourceCost(500, 600),
        )
        h = k.halved("#0")
        assert h.name == "k#0"
        assert h.tau_cycles == 500.0
        assert h.sw_cycles == 4000.0
        assert h.resources == ResourceCost(500, 600)  # full core each
        assert h.parallelizable

    def test_with_resources(self):
        k = KernelSpec("k", 1.0, 1.0)
        k2 = k.with_resources(ResourceCost(7, 8))
        assert k2.resources == ResourceCost(7, 8)
        assert k.resources == ResourceCost(0, 0)

    def test_frozen(self):
        k = KernelSpec("k", 1.0, 1.0)
        with pytest.raises(AttributeError):
            k.tau_cycles = 2.0
