"""Admission control: a bounded house for in-flight design work.

The design pipeline is CPU-bound, so accepting every connection and
letting requests pile up on the executor would just trade an honest 429
for unbounded latency. The controller admits up to ``max_inflight``
executing requests plus ``max_queue`` waiting ones; past that, requests
are rejected immediately with a ``Retry-After`` estimate derived from an
exponentially-weighted moving average of recent request latency — the
client learns roughly when a queue slot will open rather than a made-up
constant.

All state is touched only from the server's event-loop thread (handlers
acquire before any ``await``, release in their ``finally``), so plain
attributes suffice — no lock, no atomics.

Drain mode is the graceful-shutdown half: once :meth:`start_drain` is
called new work is refused with 503 (and ``readyz`` goes red) while
already-admitted requests finish; :meth:`drained` flips when the house
is empty.
"""

from __future__ import annotations

import math
from typing import Tuple

from ..errors import ConfigurationError


class AdmissionController:
    """Bounded in-flight + queue admission with latency-aware retry hints."""

    def __init__(
        self,
        max_inflight: int = 8,
        max_queue: int = 32,
        initial_latency_s: float = 0.05,
    ) -> None:
        if max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if max_queue < 0:
            raise ConfigurationError(
                f"max_queue must be >= 0, got {max_queue}"
            )
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.inflight = 0
        self.rejected = 0
        self.draining = False
        #: EWMA of observed request latency, seeding the retry hints.
        self.latency_ewma_s = initial_latency_s

    @property
    def capacity(self) -> int:
        """Total admitted requests the controller tolerates."""
        return self.max_inflight + self.max_queue

    @property
    def queue_depth(self) -> int:
        """Admitted requests beyond the executing set."""
        return max(0, self.inflight - self.max_inflight)

    def retry_after_s(self) -> float:
        """Seconds a rejected client should wait before retrying.

        The full queue must drain ``queue_depth`` requests through
        ``max_inflight`` lanes, each taking ~one EWMA latency; floor of
        one second because sub-second ``Retry-After`` rounds to zero in
        the integer HTTP header and would invite a tight retry loop.
        """
        backlog = max(1, self.queue_depth)
        estimate = self.latency_ewma_s * backlog / self.max_inflight
        return float(max(1, math.ceil(estimate)))

    def try_acquire(self) -> Tuple[bool, float]:
        """Admit one request; on refusal return the retry hint."""
        if self.draining or self.inflight >= self.capacity:
            self.rejected += 1
            return False, self.retry_after_s()
        self.inflight += 1
        return True, 0.0

    def release(self, duration_s: float) -> None:
        """Return a slot and fold the request's latency into the EWMA."""
        self.inflight = max(0, self.inflight - 1)
        if duration_s >= 0:
            self.latency_ewma_s = (
                0.8 * self.latency_ewma_s + 0.2 * duration_s
            )

    # -- graceful shutdown -------------------------------------------------
    def start_drain(self) -> None:
        """Refuse new work; in-flight requests are allowed to finish."""
        self.draining = True

    def drained(self) -> bool:
        """Whether the house is empty (safe to stop the server)."""
        return self.inflight == 0
