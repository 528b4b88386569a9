"""The instrumentation sink the simulation core writes into.

:class:`TimeseriesRecorder` collects three kinds of timestamped samples
from the discrete-event components (bus, DMA, kernels, NoC links):

* **activity spans** ``(kind, lane, start_s, end_s, detail)`` — a
  resource doing work (or a requester waiting for it, for the
  ``*_wait`` kinds). These feed the utilization timeseries and the
  critical-path extractor;
* **occupancy samples** ``(t_s, lane, in_use, queued)`` — instantaneous
  resource state at grant/release edges, the source of queue-depth
  watermarks;
* **deliveries** ``(t_s, producer, consumer, nbytes, channel)`` — data
  logically arriving at a consumer over a channel class (``bus`` /
  ``sm`` / ``noc``), the raw material of the simulated communication
  matrix that is diffed against the QUAD input graph.

Storage is plain tuples in plain lists: appending one is the entire
per-sample cost, so profiling an enabled run stays well under the
2x-overhead budget that ``tools/overhead_gates.py`` enforces.

:class:`NullRecorder` / :data:`NULL_RECORDER` follow the
:data:`~repro.obs.trace.NULL_TRACER` null-object pattern: every method
is a no-op, ``enabled`` is ``False`` so hot paths can skip argument
construction entirely, and no per-event state is allocated — disabled
runs are bit-identical to un-instrumented ones.
"""

from __future__ import annotations

from typing import List, Tuple

#: ``(kind, lane, start_s, end_s, detail)``
ActivitySpan = Tuple[str, str, float, float, str]
#: ``(t_s, lane, in_use, queued)``
OccupancySample = Tuple[float, str, int, int]
#: ``(t_s, producer, consumer, nbytes, channel)``
Delivery = Tuple[float, str, str, int, str]


class TimeseriesRecorder:
    """Collects activity/occupancy/delivery samples from a simulation."""

    __slots__ = ("activities", "occupancy_samples", "deliveries")

    #: Hot paths check this before building sample arguments.
    enabled = True

    def __init__(self) -> None:
        self.activities: List[ActivitySpan] = []
        self.occupancy_samples: List[OccupancySample] = []
        self.deliveries: List[Delivery] = []

    def activity(
        self, kind: str, lane: str, start_s: float, end_s: float,
        detail: str = "",
    ) -> None:
        """Record a span of ``lane`` doing ``kind`` work.

        Zero-length spans are dropped: they carry no time to attribute
        and would stall the critical-path walk.
        """
        if end_s > start_s:
            self.activities.append((kind, lane, start_s, end_s, detail))

    def occupancy(self, lane: str, t_s: float, in_use: int, queued: int) -> None:
        """Record a resource-state edge (grant/release instant)."""
        self.occupancy_samples.append((t_s, lane, in_use, queued))

    def delivery(
        self, t_s: float, producer: str, consumer: str, nbytes: int,
        channel: str,
    ) -> None:
        """Record ``nbytes`` logically arriving over ``channel``."""
        if nbytes > 0:
            self.deliveries.append((t_s, producer, consumer, int(nbytes), channel))


class NullRecorder:
    """No-op recorder: the zero-cost default on every component."""

    __slots__ = ()

    enabled = False

    def activity(
        self, kind: str, lane: str, start_s: float, end_s: float,
        detail: str = "",
    ) -> None:
        pass

    def occupancy(self, lane: str, t_s: float, in_use: int, queued: int) -> None:
        pass

    def delivery(
        self, t_s: float, producer: str, consumer: str, nbytes: int,
        channel: str,
    ) -> None:
        pass


#: Shared no-op instance; components default to it.
NULL_RECORDER = NullRecorder()
