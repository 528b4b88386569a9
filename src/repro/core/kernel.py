"""Kernel model — Equation 1 of the paper.

A kernel is ``HW_i(τ_i, D^H_in, D^K_in, D^H_out, D^K_out)``: its
computation time plus the amount of input/output data exchanged with the
host and with other kernels. We extend the tuple with the software
execution time of the original function (needed for the vs-SW speed-ups),
capability flags consumed by Algorithm 1 (parallelizable → duplication;
streaming → pipelining cases 1–2) and the kernel's FPGA footprint (needed
for Table IV and the "resource available" guards).

Data-volume fields (``d_h_in`` …) live on :class:`~repro.core.commgraph.CommGraph`,
derived from the profile edges, so they can never drift out of sync with
the graph; :class:`KernelSpec` carries only per-kernel intrinsic facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..errors import ConfigurationError
from ..hw.resources import ResourceCost
from ..units import HOST_CLOCK, KERNEL_CLOCK


@dataclass(frozen=True, slots=True)
class KernelSpec:
    """Intrinsic description of one HW kernel candidate.

    Parameters
    ----------
    name:
        Function name (also the kernel's identity in graphs and plans).
    tau_cycles:
        ``τ_i`` — computation time in *kernel-clock* (100 MHz) cycles.
    sw_cycles:
        Execution time of the original software function in *host-clock*
        (400 MHz) cycles, used for vs-SW speed-ups.
    parallelizable:
        Whether the kernel can be duplicated to work on independent data
        halves (Algorithm 1, line 3).
    streams_host_io:
        Whether host input/output can be processed as a stream
        (pipelining case 1).
    streams_kernel_input:
        Whether the kernel can start on a partial result of a producer
        kernel (pipelining case 2, as the downstream kernel).
    resources:
        LUT/register footprint of the synthesized kernel core.
    local_memory_bytes:
        BRAM local-memory capacity the kernel needs.
    """

    name: str
    tau_cycles: float
    sw_cycles: float
    parallelizable: bool = False
    streams_host_io: bool = False
    streams_kernel_input: bool = False
    resources: ResourceCost = ResourceCost(0, 0)
    local_memory_bytes: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("kernel name must be non-empty")
        if not (math.isfinite(self.tau_cycles) and math.isfinite(self.sw_cycles)):
            raise ConfigurationError(
                f"kernel {self.name!r} has non-finite timing "
                f"(tau={self.tau_cycles}, sw={self.sw_cycles})"
            )
        if self.tau_cycles < 0 or self.sw_cycles < 0:
            raise ConfigurationError(
                f"kernel {self.name!r} has negative timing "
                f"(tau={self.tau_cycles}, sw={self.sw_cycles})"
            )
        if self.local_memory_bytes < 0:
            raise ConfigurationError(
                f"kernel {self.name!r} has negative local memory size"
            )

    # -- timing ------------------------------------------------------------
    @property
    def tau_seconds(self) -> float:
        """``τ_i`` in seconds (kernel clock domain)."""
        return KERNEL_CLOCK.cycles_to_seconds(self.tau_cycles)

    @property
    def sw_seconds(self) -> float:
        """Software time of the original function in seconds."""
        return HOST_CLOCK.cycles_to_seconds(self.sw_cycles)

    @property
    def hw_speedup(self) -> float:
        """Raw compute speed-up of the kernel over software (no comm)."""
        if self.tau_seconds <= 0:
            raise ConfigurationError(f"kernel {self.name!r} has zero tau")
        return self.sw_seconds / self.tau_seconds

    # -- transformations ----------------------------------------------------
    def halved(self, suffix: str) -> "KernelSpec":
        """A duplicate copy processing half the data.

        Computation and software time halve; the footprint stays the full
        kernel footprint (each duplicate is a complete core).
        """
        return replace(
            self,
            name=f"{self.name}{suffix}",
            tau_cycles=self.tau_cycles / 2.0,
            sw_cycles=self.sw_cycles / 2.0,
        )

    def with_resources(self, resources: ResourceCost) -> "KernelSpec":
        """Copy with a different footprint (used by calibration)."""
        return replace(self, resources=resources)
