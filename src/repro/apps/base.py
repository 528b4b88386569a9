"""Application framework: instrumented workloads for the profiler.

An :class:`Application` owns:

* the real computation, written against
  :class:`~repro.profiling.memory.TrackedBuffer` objects and run inside
  tracer contexts, so profiling observes genuine traffic;
* :class:`KernelTraits` for each HW-candidate function — the capability
  flags Algorithm 1 consumes (HW-suitability, parallelizability,
  streaming);
* a verification hook (:meth:`Application.verify`) asserting the
  computation's *functional* output is correct — profiles from broken
  code would be meaningless.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..profiling import AddressSpace, CommunicationProfile, QuadAnalyzer, Tracer


@dataclass(frozen=True, slots=True)
class KernelTraits:
    """Capability flags of one HW-candidate function."""

    hw_suitable: bool = True
    parallelizable: bool = False
    streams_host_io: bool = False
    streams_kernel_input: bool = False


def require_int(name: str, value: object, minimum: int) -> int:
    """``value`` as an ``int``, if it is an integer no less than ``minimum``.

    NumPy integers are accepted. ``bool`` is refused although it is an
    ``int`` subclass, and so is a float even when it is integral: a
    ``scale=True`` or ``seed=1.7`` is a caller's mistake, not a count.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(
        value, (int, np.integer)
    ):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


class Application(abc.ABC):
    """An instrumented workload with named kernel candidates."""

    #: Application name (stable identifier used in reports).
    name: str = ""

    def __init__(self, scale: int = 1, seed: int = 2014) -> None:
        self.scale = require_int("scale", scale, 1)
        self.rng = np.random.default_rng(require_int("seed", seed, 0))
        self._profile: Optional[CommunicationProfile] = None

    # -- to implement -------------------------------------------------------
    @abc.abstractmethod
    def kernel_traits(self) -> Dict[str, KernelTraits]:
        """Traits of every HW-candidate function, keyed by name."""

    @abc.abstractmethod
    def execute(self, tracer: Tracer, space: AddressSpace) -> None:
        """Run the real computation under the tracer."""

    @abc.abstractmethod
    def verify(self, space: AddressSpace) -> None:
        """Assert functional correctness of the outputs (raises on error)."""

    # -- provided ------------------------------------------------------------
    def run_profiled(self, verify: bool = True) -> CommunicationProfile:
        """Execute once under a fresh tracer and return the profile."""
        tracer = Tracer()
        space = AddressSpace(tracer)
        self.execute(tracer, space)
        if verify:
            with tracer.paused():
                self.verify(space)
        return QuadAnalyzer(tracer).profile()

    def profile(self, refresh: bool = False) -> CommunicationProfile:
        """Cached communication profile of one execution."""
        if self._profile is None or refresh:
            self._profile = self.run_profiled()
        return self._profile

    def kernel_names(self) -> Tuple[str, ...]:
        """HW-suitable kernel-candidate names, stable order."""
        return tuple(
            n for n, t in self.kernel_traits().items() if t.hw_suitable
        )
