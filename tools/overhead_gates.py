#!/usr/bin/env python
"""CI gate on what the profile recorder costs a live simulation.

The end-to-end benchmark (``benchmarks/e2e/``) measures designs and
served requests with profiling off, so it cannot see a recorder that
got slower. This script times ``simulate_proposed`` with a fresh
:class:`~repro.obs.profile.recorder.TimeseriesRecorder` against the
same simulation without one, on jpeg (the paper's running example and
the heaviest communicator), and fails above :data:`RECORDER_MAX`.

The measurement is :func:`paired_ratio`. A single simulation runs in
well under a millisecond, where scheduler jitter dwarfs the recorder's
true cost, so both sides time the *same* batch of passes, sized so each
timed window is at least :data:`MIN_WINDOW_S`. Each round pairs a plain
window with an adjacent instrumented one and the gate takes the minimum
of the per-round ratios: a load burst on a shared runner pollutes one
round, while a real recorder cost floors *every* round's ratio and so
cannot be selected away.

Usage (exit 1 with a ``FAIL:`` line naming the gate, the application
and the ratio)::

    PYTHONPATH=src python tools/overhead_gates.py
"""

from __future__ import annotations

import math
import sys
import time
from functools import partial
from typing import Any, Callable, Dict

from repro.apps import fit_application, get_application
from repro.core.designer import DesignConfig, design_interconnect
from repro.obs.profile.recorder import TimeseriesRecorder
from repro.sim.systems import SystemParams, simulate_proposed

#: Largest allowed recorder-on / recorder-off wall-time ratio.
RECORDER_MAX = 2.0
#: Application the recorder gate runs on.
RECORDER_APP = "jpeg"
#: Paired rounds per measurement; the ratio is their minimum.
ROUNDS = 5
#: Shortest timed window per side of one round.
MIN_WINDOW_S = 0.05

#: One side of a paired measurement: makes ``passes`` calls and
#: returns the wall seconds they took.
Side = Callable[[int], float]


def batch(fn: Callable[[], Any]) -> Side:
    """A side that calls ``fn`` ``passes`` times."""

    def side(passes: int) -> float:
        start = time.perf_counter()
        for _ in range(passes):
            fn()
        return time.perf_counter() - start

    return side


def paired_ratio(plain: Side, instrumented: Side) -> float:
    """Min over interleaved rounds of instrumented / plain wall time."""
    # Size the batch from warm passes: the first call of a fresh plan is
    # slower, and a batch sized from it gives windows under the minimum.
    once = min(plain(1) for _ in range(3))
    passes = max(1, math.ceil(MIN_WINDOW_S / max(once, 1e-9)))
    ratio = math.inf
    for _ in range(ROUNDS):
        base = plain(passes)
        cost = instrumented(passes)
        if base > 0:
            ratio = min(ratio, cost / base)
    return ratio if math.isfinite(ratio) else 1.0


def proposed(name: str) -> Callable[..., Any]:
    """``simulate_proposed`` on ``name``'s designed plan, profiling off;
    keyword arguments (``recorder=``) pass through."""
    params = SystemParams()
    theta = params.theta_s_per_byte()
    fitted = fit_application(get_application(name), theta)
    config = DesignConfig(
        theta_s_per_byte=theta,
        stream_overhead_s=fitted.stream_overhead_s,
    )
    plan = design_interconnect(name, fitted.graph, config)
    return partial(simulate_proposed, plan, fitted.host_other_s, params)


def recorder_ratio(name: str) -> float:
    run = proposed(name)
    # A fresh recorder per pass, so no pass pays for a predecessor's
    # grown sample lists.
    return paired_ratio(
        batch(run), batch(lambda: run(recorder=TimeseriesRecorder()))
    )


def check(gate: str, bound: float, ratios: Dict[str, float]) -> bool:
    """Print the worst ratio against ``bound``; ``False`` if above it."""
    name = max(ratios, key=lambda app: ratios[app])
    ratio = ratios[name]
    if ratio > bound:
        print(
            f"FAIL: {gate} overhead on {name} is {ratio:.3f}x "
            f"> allowed {bound:.2f}x",
            file=sys.stderr,
        )
        return False
    print(f"{gate} overhead ok: {name} {ratio:.3f}x <= {bound:.2f}x")
    return True


def main() -> int:
    ok = check(
        "recorder", RECORDER_MAX, {RECORDER_APP: recorder_ratio(RECORDER_APP)}
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
