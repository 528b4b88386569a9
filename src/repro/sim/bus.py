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
from .engine import Engine, Event, Resource

#: PLB on the ML510 runs at the kernel fabric clock in our model.
DEFAULT_BUS_CLOCK = Clock(100_000_000, "plb@100MHz")


class _Request(Event):
    """A queued bus request that carries its transfer's state.

    A hand-off moves a waiting transfer's bursts without resuming its
    process, so the bytes it still has to move live on the request the
    waiter queued.
    """

    __slots__ = ("remaining", "requester")

    def __init__(self, engine: Engine, remaining: int, requester: str) -> None:
        super().__init__(engine)
        self.remaining = remaining
        self.requester = requester


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
        re-runs between bursts). A transfer that finds the bus free
        moves its bursts in a fused run (:meth:`_burst_run`); otherwise
        it queues FIFO. A holder that ends a burst with bytes left while
        another transfer waits hands the bus down the queue
        (:meth:`_hand_off`), which may move the waiters' bursts without
        resuming them: a waiter resumes when it is granted a burst that
        could not be fused, and always for its last one.
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
            req = res.request(
                requester, _Request(engine, remaining, requester)
            )
            while req is not None:
                yield req
                # Hand-offs may have moved bursts of this transfer while
                # it waited; never its last one.
                remaining = req.remaining
                if remaining >= full:
                    burst, hold = full, full_hold
                else:
                    burst = remaining
                    hold = self.cycles(self.transfer_cycles(burst))
                try:
                    self.log(f"xfer {burst}B from {requester}")
                    started = engine.now
                    yield hold
                except BaseException:
                    res.release()  # torn down mid-hold
                    raise
                self.bytes_moved += burst
                self.transactions += 1
                rec = self.recorder
                if rec.enabled:
                    rec.activity(
                        "bus", self.name, started, engine.now, requester
                    )
                remaining -= burst
                if remaining and res._waiters:
                    req = self._hand_off(remaining, requester, full_hold)
                else:
                    res.release()
                    req = None

    def _hand_off(
        self, remaining: int, requester: str, full_hold: float
    ) -> _Request:
        """Pass the bus down the FIFO, fusing the waiters' bursts.

        Called when the holder ends a burst with ``remaining`` bytes
        left while a transfer waits. Each hand-off does what
        ``release()`` and the holder's next ``request()`` would: release
        (busy time, occupancy sample), grant the FIFO head (grant
        counter, ``bus_wait`` span, occupancy sample), queue the holder
        at the tail (contention, peak waiters). While the head's next
        burst is not its last and lands before the
        :meth:`Engine.fusion_bound` read on entry (nothing is scheduled
        while the lane runs), that burst runs here, inline, with the
        queued path's float operations in order (``now = started +
        hold``, ``busy_time += now - busy_since``), its log line and
        ``bus`` activity, and the head becomes the holder of the next
        hand-off. The head that cannot be fused is granted through
        ``Event.succeed`` and resumes from its own queue entry. ``now``
        is kept locally and written back to the engine before a log
        line and once at the end; counters are summed locally and
        written once. Returns the holder's own request, to be yielded.
        """
        engine = self.engine
        res = self._resource
        waiters = res._waiters
        occ = res.recorder
        rec = self.recorder
        tracing = self.tracing
        full = self.typical_burst_bytes
        bound = engine.fusion_bound()
        now = engine.now
        since = res._busy_since
        busy = res.busy_time
        peak = res.peak_waiters
        mine = holder = _Request(engine, remaining, requester)
        handoffs = bursts = 0
        while True:
            busy += now - since
            if occ is not None:
                occ.occupancy(res.profile_lane, now, 0, len(waiters))
            head = waiters.pop(0)
            since = now
            handoffs += 1
            if occ is not None:
                waited = res._wait_started.pop(head, None)
                if waited is not None:
                    occ.activity(res.wait_kind, res.profile_lane, waited, now)
                occ.occupancy(res.profile_lane, now, 1, len(waiters))
                res._wait_started[holder] = now
            waiters.append(holder)
            if len(waiters) > peak:
                peak = len(waiters)
            left = head.remaining
            if left <= full:
                break
            end = now + full_hold
            if not end < bound:
                break
            if tracing:
                engine.now = now
                self.log(f"xfer {full}B from {head.requester}")
            if rec.enabled:
                rec.activity("bus", self.name, now, end, head.requester)
            now = end
            head.remaining = left - full
            bursts += 1
            holder = head
        engine.now = now
        res.busy_time = busy
        res._busy_since = since
        res.grants += handoffs
        res.contentions += handoffs
        res.peak_waiters = peak
        engine.fused_events += bursts
        self.transactions += bursts
        self.bytes_moved += bursts * full
        head.succeed()
        return mine

    def _burst_run(self, remaining: int, full_hold: float, requester: str) -> int:
        """Fuse back-to-back bursts while the free bus stays uncontended.

        The run reads :meth:`Engine.fusion_bound` once: nothing can be
        scheduled while it is in progress, so the bound holds for every
        burst. While a burst lands before it, the burst's grant→hold→
        release round trip runs as straight-line code on a local
        ``now``. Per burst this performs the queued path's float
        operations in its order — ``now = started + hold`` as
        ``advance`` adds, ``busy_time += now - started`` as ``release``
        adds — and, when profiling or tracing, emits the same occupancy
        samples, bus activity and log line (writing ``now`` back to the
        engine for the log line). ``now`` is written back once at the
        end, and the integer counters are summed locally and written
        once. Returns the bytes still to move; the first burst that
        cannot fuse is left to the queued path.
        """
        engine = self.engine
        res = self._resource
        full = self.typical_burst_bytes
        occ = res.recorder
        rec = self.recorder
        observed = occ is not None or rec.enabled or self.tracing
        bound = engine.fusion_bound()
        now = engine.now
        busy = res.busy_time
        bursts = moved = 0
        while remaining > 0:
            if remaining >= full:
                burst, hold = full, full_hold
            else:
                burst = remaining
                hold = self.cycles(self.transfer_cycles(burst))
            end = now + hold
            if not end < bound:
                break
            if observed:
                # The bus arbiter has capacity 1: held → 1, free → 0.
                if occ is not None:
                    occ.occupancy(res.profile_lane, now, 1, res.queued())
                engine.now = now
                self.log(f"xfer {burst}B from {requester}")
                if rec.enabled:
                    rec.activity("bus", self.name, now, end, requester)
                if occ is not None:
                    occ.occupancy(res.profile_lane, end, 0, res.queued())
            busy += end - now
            now = end
            bursts += 1
            moved += burst
            remaining -= burst
        engine.now = now
        res.busy_time = busy
        res.grants += bursts
        engine.fused_events += bursts
        self.transactions += bursts
        self.bytes_moved += moved
        return remaining

    def utilization(self, total_time: float) -> float:
        """Busy fraction over ``total_time`` seconds."""
        return self._resource.utilization(total_time)
