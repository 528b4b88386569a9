"""The 2×2 crossbar of the shared-local-memory solution.

Section IV-A1: the crossbar "switches data from the cores to the
corresponding local memory based on the address of data" and "does not
introduce any communication overhead because it does not change the
structure of data". The model therefore adds *zero* data-movement time;
what it does model is the port contention — the crossbar multiplexes two
masters (host-side and partner-side) onto the two shared BRAMs, so
simultaneous accesses to the same memory serialize at BRAM-port speed.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..units import KERNEL_CLOCK, Clock
from .component import Component
from .engine import Engine
from .memory import Bram


class Crossbar(Component):
    """Zero-overhead 2×2 switch in front of a shared local-memory pair."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        mem_a: Bram,
        mem_b: Bram,
        clock: Clock = KERNEL_CLOCK,
        trace: bool = False,
    ) -> None:
        super().__init__(engine, name, clock, trace=trace)
        if mem_a is mem_b:
            raise ConfigurationError("crossbar needs two distinct memories")
        self.mem_a = mem_a
        self.mem_b = mem_b
        self.switched_accesses = 0

    def route(self, target: str) -> Bram:
        """Address decode: which shared memory an access goes to."""
        if target == self.mem_a.name:
            return self.mem_a
        if target == self.mem_b.name:
            return self.mem_b
        raise ConfigurationError(
            f"crossbar {self.name!r} does not front memory {target!r}"
        )

    def access(self, target: str, nbytes: int, accessor: str = "?"):
        """Process generator: switched access to one of the pair.

        The switch itself is combinational (no added cycles); time is the
        target BRAM's port occupancy only. The
        delegated :meth:`~repro.sim.memory.Bram.access` takes its own
        fused lane when the port is free, so a switched access costs no
        engine round-trip either — the crossbar adds nothing to fuse.
        """
        mem = self.route(target)
        self.switched_accesses += 1
        self.log(f"switch {accessor} -> {target} ({nbytes}B)")
        yield from mem.access(nbytes, accessor=f"{self.name}:{accessor}")
