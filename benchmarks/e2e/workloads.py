"""Seeded inputs for the end-to-end benchmark's four workloads.

Everything a workload sends is decided here from ``--seed``: which
design job, with which application seed, at which due time, under which
tenant. The program under test only ever sees the generated requests.

Mixes are dealt from shuffled, balanced decks rather than drawn
independently, and open-loop arrivals are paced: one per time slot, at
a seeded point inside it. The seed still picks the order, the app seeds
and every arrival time, but the share of slow and fast jobs and the
offered rate cannot drift between seeds. With independent draws and
Poisson arrivals, p50 and p99 moved 10-30% from run to run on a 2-vCPU
host.

This module imports nothing from ``repro`` so the generators can be
tested without the program.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

APPS = ("canny", "jpeg", "klt", "fluid")
SCALES = (1, 2)
SOURCES = ("trace", "static")

#: Seed of the correctness check set, which is also the serving hot set.
GOLDEN_SEED = 2014

#: Tenants the serving load is spread over, round-robin.
TENANTS = 32
#: ``repro serve``'s default per-tenant token bucket.
QUOTA_RATE = 50.0
QUOTA_BURST = 100.0

#: serve-warm: open-loop rate ladder; the first step is the reference
#: rate whose latencies are the workload's latency metrics.
LADDER_RPS = (100, 200, 400, 800)
#: A ladder step passes only if its p99 latency, timed from each
#: request's due time, is within this limit.
LATENCY_LIMIT_MS = 10.0
#: serve-cold: open-loop request rate.
COLD_RPS = 40

#: The design workloads' mix: every (app, scale) pair equally often.
DESIGN_DECK = tuple(itertools.product(APPS, SCALES))


@dataclass(frozen=True)
class Job:
    """One design: the arguments of ``run_experiment`` / ``POST /v1/design``."""

    app: str
    scale: int
    seed: int
    graph_source: str

    @property
    def label(self) -> str:
        return f"{self.app}-x{self.scale}-{self.graph_source}-s{self.seed}"


@dataclass(frozen=True)
class Request:
    """One open-loop request: due ``due_s`` seconds after the phase start."""

    due_s: float
    job: Job
    tenant: str
    #: ``hot`` (in the primed set), ``fresh`` (never seen) or ``twin``
    #: (a fresh job sent twice at the same due time).
    kind: str


def _rng(seed: int, stream: str) -> random.Random:
    # String seeds hash through SHA-512: stable across processes and
    # Python builds, unlike hash().
    return random.Random(f"{stream}:{seed}")


def check_set() -> List[Job]:
    """The 16-job correctness set: 4 apps x scale {1,2} x {trace,static}."""
    return [
        Job(app, scale, GOLDEN_SEED, source)
        for source in SOURCES for app in APPS for scale in SCALES
    ]


def _fresh_seeds(rng: random.Random) -> Iterator[int]:
    seen = {GOLDEN_SEED}
    while True:
        seed = rng.randrange(1, 2 ** 31)
        if seed not in seen:
            seen.add(seed)
            yield seed


def _deck(rng: random.Random, cards: Sequence) -> Iterator:
    """Endless shuffled copies of ``cards``, one whole copy at a time."""
    while True:
        block = list(cards)
        rng.shuffle(block)
        yield from block


def design_jobs(seed: int, graph_source: str) -> Iterator[Job]:
    """design-trace / design-static: endless jobs, fresh app seed each,
    dealt from :data:`DESIGN_DECK`."""
    rng = _rng(seed, "design")
    seeds = _fresh_seeds(rng)
    for app, scale in _deck(rng, DESIGN_DECK):
        yield Job(app, scale, next(seeds), graph_source)


def _tenant(index: int) -> str:
    return f"tenant-{index % TENANTS:02d}"


def _arrivals(rng: random.Random, count: int, rate: float) -> List[float]:
    """``count`` paced arrival offsets at ``rate`` per second: one in each
    slot of ``1 / rate`` seconds, at a uniformly drawn point in it."""
    return [(i + rng.random()) / rate for i in range(count)]


def warm_size(seconds: float) -> int:
    """Requests per serve-warm ladder step for a ``seconds``-long run.

    The whole ladder then takes at most ``0.9 * seconds``, the reference
    step ``0.48 * seconds`` (12 s of a 25 s run).
    """
    return max(1, int(48 * seconds))


def warm_phases(seed: int, size: int) -> List[List[Request]]:
    """serve-warm: one request list per ladder rate, each a hot-set hit.

    Due times restart at zero in every step, because a step starts when
    the previous one has drained. Tenants rotate over all steps.
    """
    rng = _rng(seed, "warm")
    hot = _deck(rng, check_set())
    phases: List[List[Request]] = []
    index = 0
    for rate in LADDER_RPS:
        phase = []
        for due in _arrivals(rng, size, rate):
            phase.append(Request(due, next(hot), _tenant(index), "hot"))
            index += 1
        phases.append(phase)
    return phases


#: serve-cold's mix, dealt in shuffled blocks of 8 requests: 4 hot-set
#: hits, 2 fresh designs and one twin pair (a fresh design sent twice at
#: the same due time), so half hits, a quarter fresh, a quarter twins.
COLD_BLOCK = ("hot",) * 4 + ("fresh",) * 2 + ("twin",)


def cold_schedule(seed: int, seconds: float) -> List[Request]:
    """serve-cold: about ``COLD_RPS * seconds`` requests in the
    :data:`COLD_BLOCK` mix. Fresh designs are uniform over app, scale
    and graph source."""
    rng = _rng(seed, "cold")
    hot = _deck(rng, check_set())
    seeds = _fresh_seeds(rng)
    fresh = (Job(app, scale, next(seeds), source)
             for app, scale, source in _deck(rng, list(itertools.product(APPS, SCALES, SOURCES))))
    per_block = len(COLD_BLOCK) + COLD_BLOCK.count("twin")
    kinds = _deck(rng, COLD_BLOCK)
    events: List[Tuple[str, Job]] = []
    for _ in range(max(1, math.ceil(COLD_RPS * seconds / per_block)) * len(COLD_BLOCK)):
        kind = next(kinds)
        events.append((kind, next(hot if kind == "hot" else fresh)))
    dues = _arrivals(rng, len(events), COLD_RPS * len(COLD_BLOCK) / per_block)
    requests: List[Request] = []
    for due, (kind, job) in zip(dues, events):
        for _ in range(2 if kind == "twin" else 1):
            requests.append(Request(due, job, _tenant(len(requests)), kind))
    return requests


def fresh_jobs(requests: Sequence[Request]) -> Dict[Job, int]:
    """Distinct non-hot jobs in ``requests`` and how often each is sent."""
    counts: Dict[Job, int] = {}
    for req in requests:
        if req.kind != "hot":
            counts[req.job] = counts.get(req.job, 0) + 1
    return counts
