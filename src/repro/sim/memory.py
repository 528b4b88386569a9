"""Memory models: dual-port BRAM local memories and off-chip SDRAM.

BRAMs are the kernels' local memories: two ports, single-cycle word
access at the fabric clock. The port budget is what forces the crossbar /
multiplexer machinery of the shared-local-memory solution, so ports are
modelled as a real capacity-2 resource. SDRAM is the host main memory:
higher latency, accessed through the bus (its latency is charged by the
host model per transfer, not per word, since DMA pipelines the stream).
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError
from ..units import Clock, KERNEL_CLOCK
from .component import Component
from .engine import Engine, Resource


class Bram(Component):
    """Dual-port block RAM local memory."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        size_bytes: int,
        clock: Clock = KERNEL_CLOCK,
        width_bytes: int = 4,
        ports: int = 2,
        trace: bool = False,
    ) -> None:
        super().__init__(engine, name, clock, trace=trace)
        if size_bytes <= 0 or width_bytes <= 0 or ports <= 0:
            raise ConfigurationError(f"invalid BRAM parameters for {name!r}")
        self.size_bytes = size_bytes
        self.width_bytes = width_bytes
        self.ports = Resource(engine, capacity=ports, name=f"{name}.ports")
        self.bytes_accessed = 0

    def access_cycles(self, nbytes: int) -> int:
        """Cycles to stream ``nbytes`` through one port."""
        if nbytes < 0:
            raise ConfigurationError(f"negative access size {nbytes}")
        return math.ceil(nbytes / self.width_bytes)

    def access(self, nbytes: int, accessor: str = "?"):
        """Process generator: occupy one port for a streamed access."""
        if nbytes > self.size_bytes:
            raise ConfigurationError(
                f"access of {nbytes}B exceeds {self.name!r} capacity "
                f"{self.size_bytes}B"
            )
        engine = self.engine
        ports = self.ports
        if ports._in_use < ports.capacity:
            # Fast lane: a free port and an empty horizon — the whole
            # request→stream→release cycle fuses into straight-line code.
            hold = self.cycles(self.access_cycles(nbytes))
            if engine.can_advance(hold):
                ports._fused_acquire()
                self.log(f"access {nbytes}B by {accessor}")
                engine.advance(hold)
                self.bytes_accessed += nbytes
                ports.release()
                return
        yield ports.request(accessor)
        try:
            self.log(f"access {nbytes}B by {accessor}")
            yield self.cycles(self.access_cycles(nbytes))
            self.bytes_accessed += nbytes
        finally:
            ports.release()


class Sdram(Component):
    """Off-chip main memory behind the host."""

    def __init__(
        self,
        engine: Engine,
        name: str = "sdram",
        clock: Clock = Clock(200_000_000, "ddr@200MHz"),
        width_bytes: int = 8,
        latency_cycles: int = 20,
        trace: bool = False,
    ) -> None:
        super().__init__(engine, name, clock, trace=trace)
        if width_bytes <= 0 or latency_cycles < 0:
            raise ConfigurationError("invalid SDRAM parameters")
        self.width_bytes = width_bytes
        self.latency_cycles = latency_cycles
        self.port = Resource(engine, capacity=1, name=f"{name}.ctrl")
        self.bytes_accessed = 0

    def access(self, nbytes: int, accessor: str = "?"):
        """Process generator: one pipelined burst from main memory."""
        if nbytes < 0:
            raise ConfigurationError(f"negative access size {nbytes}")
        engine = self.engine
        port = self.port
        cycles = self.latency_cycles + math.ceil(nbytes / self.width_bytes)
        if port._in_use < port.capacity:
            # Fast lane: uncontended controller, empty horizon.
            hold = self.cycles(cycles)
            if engine.can_advance(hold):
                port._fused_acquire()
                self.log(f"burst {nbytes}B by {accessor}")
                engine.advance(hold)
                self.bytes_accessed += nbytes
                port.release()
                return
        yield port.request(accessor)
        try:
            self.log(f"burst {nbytes}B by {accessor}")
            yield self.cycles(cycles)
            self.bytes_accessed += nbytes
        finally:
            self.port.release()
