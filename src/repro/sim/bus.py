"""PLB-like shared system bus.

The paper's communication infrastructure is the Xilinx PLB: a single
arbitrated bus carrying all host↔kernel traffic. The model charges each
transaction an arbitration + address phase and then moves data at the bus
width per cycle; only one transaction is in flight at a time, so
concurrent requesters queue — which is exactly why kernel-to-kernel
traffic routed through the host hurts in the baseline.

The design algorithm's ``θ`` (average seconds per byte) is exposed by
:meth:`PlbBus.theta_s_per_byte`; it folds the per-transaction overhead in
amortized over a typical transfer so the analytic model and the simulator
agree closely on bulk transfers.
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError
from ..units import Clock
from .component import Component
from .engine import Engine, Resource

#: PLB on the ML510 runs at the kernel fabric clock in our model.
DEFAULT_BUS_CLOCK = Clock(100_000_000, "plb@100MHz")


class PlbBus(Component):
    """Arbitrated shared bus with per-byte throughput accounting."""

    def __init__(
        self,
        engine: Engine,
        clock: Clock = DEFAULT_BUS_CLOCK,
        width_bytes: int = 8,
        arbitration_cycles: int = 3,
        address_cycles: int = 2,
        typical_burst_bytes: int = 1024,
        name: str = "plb",
        trace: bool = False,
    ) -> None:
        super().__init__(engine, name, clock, trace=trace)
        if width_bytes < 1 or arbitration_cycles < 0 or address_cycles < 0:
            raise ConfigurationError("invalid bus parameters")
        if typical_burst_bytes < 1:
            raise ConfigurationError("typical_burst_bytes must be >= 1")
        self.width_bytes = width_bytes
        self.arbitration_cycles = arbitration_cycles
        self.address_cycles = address_cycles
        self.typical_burst_bytes = typical_burst_bytes
        self._resource = Resource(engine, capacity=1, name=f"{name}.arb")
        self.bytes_moved = 0
        self.transactions = 0

    # -- analytic-model interface -----------------------------------------
    @property
    def theta_s_per_byte(self) -> float:
        """``θ``: average per-byte bus time, overhead amortized.

        Uses the configured typical burst size, matching how the paper
        derives a single average ``θ`` from measured transfers.
        """
        cycles = (
            self.arbitration_cycles
            + self.address_cycles
            + math.ceil(self.typical_burst_bytes / self.width_bytes)
        )
        return self.cycles(cycles) / self.typical_burst_bytes

    def transfer_cycles(self, nbytes: int) -> int:
        """Bus cycles one transaction of ``nbytes`` occupies."""
        if nbytes < 0:
            raise ConfigurationError(f"negative transfer size {nbytes}")
        if nbytes == 0:
            return 0
        return (
            self.arbitration_cycles
            + self.address_cycles
            + math.ceil(nbytes / self.width_bytes)
        )

    # -- simulation interface ------------------------------------------------
    def transfer(self, nbytes: int, requester: str = "?"):
        """Process generator: move ``nbytes`` over the bus.

        Transfers are split into bursts of ``typical_burst_bytes`` so a
        long DMA cannot starve other requesters forever (PLB arbitration
        re-runs between bursts).
        """
        remaining = int(nbytes)
        if remaining < 0:
            raise ConfigurationError(f"negative transfer size {nbytes}")
        engine = self.engine
        res = self._resource
        full = self.typical_burst_bytes
        full_hold = self.cycles(self.transfer_cycles(full))
        while remaining > 0:
            if not res._in_use:
                remaining = self._burst_run(remaining, full_hold, requester)
                if not remaining:
                    return
            burst = min(remaining, full)
            yield res.request(requester)
            try:
                self.log(f"xfer {burst}B from {requester}")
                started = engine.now
                yield self.cycles(self.transfer_cycles(burst))
                self.bytes_moved += burst
                self.transactions += 1
                rec = self.recorder
                if rec.enabled:
                    rec.activity(
                        "bus", self.name, started, engine.now, requester
                    )
            finally:
                res.release()
            remaining -= burst

    def _burst_run(self, remaining: int, full_hold: float, requester: str) -> int:
        """Fuse back-to-back bursts while the free bus stays uncontended.

        Each burst asks :meth:`Engine.can_advance` whether a queued event
        lands within its hold; while none does, its grant→hold→release
        round trip runs as straight-line code. Per burst this performs
        the queued path's float operations in its order — ``now =
        started + hold`` as ``advance`` adds, ``busy_time += now -
        started`` as ``release`` adds — and, when profiling or tracing,
        emits the same occupancy samples, bus activity and log line. The
        integer counters are summed locally and written once. Returns
        the bytes still to move; the first burst that cannot fuse is
        left to the queued path.
        """
        engine = self.engine
        res = self._resource
        full = self.typical_burst_bytes
        occ = res.recorder
        rec = self.recorder
        observed = occ is not None or rec.enabled or self.tracing
        busy = res.busy_time
        bursts = moved = 0
        while remaining > 0:
            if remaining >= full:
                burst, hold = full, full_hold
            else:
                burst = remaining
                hold = self.cycles(self.transfer_cycles(burst))
            if not engine.can_advance(hold):
                break
            started = engine.now
            if observed:
                # The bus arbiter has capacity 1: held → 1, free → 0.
                if occ is not None:
                    occ.occupancy(res.profile_lane, started, 1, res.queued())
                self.log(f"xfer {burst}B from {requester}")
            now = engine.now = started + hold
            busy += now - started
            if observed:
                if rec.enabled:
                    rec.activity("bus", self.name, started, now, requester)
                if occ is not None:
                    occ.occupancy(res.profile_lane, now, 0, res.queued())
            bursts += 1
            moved += burst
            remaining -= burst
        res.busy_time = busy
        res.grants += bursts
        engine.fused_events += bursts
        self.transactions += bursts
        self.bytes_moved += moved
        return remaining

    def utilization(self, total_time: float) -> float:
        """Busy fraction over ``total_time`` seconds."""
        return self._resource.utilization(total_time)
