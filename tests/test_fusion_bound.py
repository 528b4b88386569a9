"""``Engine.fusion_bound``: the one definition of the fusion rule.

A fused operation may land at ``t`` iff ``t < fusion_bound()``. These
tests hold that bound to the rule it replaced, written out here as
three clauses (no pending dispatch sibling, no landing past a
``run(until=...)`` horizon, no queued event at or before the landing
time), and hold the bus lanes that read the bound once per run to a
bus that asks ``can_advance`` once per burst, on a 100 MHz clock whose
burst times are not dyadic fractions.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.profile.recorder import TimeseriesRecorder
from repro.sim.bus import PlbBus, _Request
from repro.sim.engine import Engine
from repro.units import Clock


def _three_clause(eng, delay, until):
    """The fusion rule as ``can_advance`` first stated it."""
    if eng._batch_remaining:
        return False
    target = eng.now + delay
    if until is not None and target > until:
        return False
    return not eng._queue or eng._queue[0][0] > target


class TestBoundMatchesTheThreeClauseRule:
    @settings(max_examples=300, deadline=None)
    @given(
        start=st.floats(0.0, 100.0),
        queued=st.lists(st.floats(0.0, 50.0), max_size=5),
        horizon=st.none() | st.floats(0.0, 60.0),
        siblings=st.integers(0, 3),
        position=st.integers(0, 3),
        delays=st.lists(st.floats(0.0, 80.0), min_size=1, max_size=6),
    )
    def test_random_queues_horizons_and_batches(
        self, start, queued, horizon, siblings, position, delays
    ):
        eng = Engine()
        until = None if horizon is None else start + horizon
        checked = []

        def probe(_ev):
            bound = eng.fusion_bound()
            landings = list(delays)
            if eng._queue:
                landings.append(eng._queue[0][0] - eng.now)
            if until is not None:
                landings.append(until - eng.now)
            for delay in landings:
                want = _three_clause(eng, delay, until)
                assert (eng.now + delay < bound) is want
                assert eng.can_advance(delay) is want
            checked.append(bound)

        def fire():
            ev = eng.event()
            callbacks = [lambda _e: None] * siblings
            callbacks.insert(min(position, siblings), probe)
            ev.callbacks.extend(callbacks)
            ev.succeed()
            for delay in queued:
                eng.schedule(delay, lambda: None)

        eng.schedule(start, fire)
        eng.run(until=until)
        assert len(checked) == 1

    def test_landing_exactly_at_until_is_allowed(self):
        eng = Engine()
        seen = []

        def proc():
            yield 1.0
            # 1.0 lands exactly on the horizon; the next delay lands on
            # the least float above it.
            seen.append((
                eng.fusion_bound(), eng.can_advance(1.0),
                eng.can_advance(math.nextafter(2.0, math.inf) - 1.0),
            ))

        eng.process(proc())
        eng.run(until=2.0)
        assert seen == [(math.nextafter(2.0, math.inf), True, False)]
        assert eng.fusion_bound() == math.inf  # horizon cleared

    def test_landing_exactly_at_the_peek_is_refused(self):
        eng = Engine()
        eng.schedule(1.0, lambda: None)
        assert eng.fusion_bound() == 1.0
        assert not eng.can_advance(1.0)
        assert eng.can_advance(math.nextafter(1.0, 0.0))

    def test_pending_sibling_bounds_at_minus_infinity(self):
        eng = Engine()
        ev = eng.event()
        seen = []
        ev.callbacks.extend(
            [lambda _e: seen.append(eng.fusion_bound())] * 2
        )
        ev.succeed()
        eng.run()
        assert seen == [-math.inf, math.inf]
        assert not Engine().can_advance(math.inf)


class _PerBurstBus(PlbBus):
    """The bus lanes as first written: ``can_advance`` once per burst."""

    def _hand_off(self, remaining, requester, full_hold):
        engine = self.engine
        res = self._resource
        waiters = res._waiters
        occ = res.recorder
        rec = self.recorder
        tracing = self.tracing
        full = self.typical_burst_bytes
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
            if left <= full or not engine.can_advance(full_hold):
                break
            if tracing:
                self.log(f"xfer {full}B from {head.requester}")
            started = now
            now = engine.now = started + full_hold
            if rec.enabled:
                rec.activity("bus", self.name, started, now, head.requester)
            head.remaining = left - full
            bursts += 1
            holder = head
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

    def _burst_run(self, remaining, full_hold, requester):
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


def _scenario(seed):
    """Random transfers and pure wake-ups on a shared bus.

    Each process sleeps, moves a few transfers (some a whole number of
    bursts, some not) and sleeps between them; the sleepers only wake
    up, which moves the fusion bound of whatever run is in progress.
    Wake times are multiples of the 10 ns bus cycle or arbitrary. A
    shadow sleeper starts with a mover and then sleeps one full burst
    hold at a time (``"hold"``), so its wake-ups tie with that mover's
    uncontended burst ends, where fusion must stop.
    """
    rng = random.Random(seed)
    burst = rng.choice((256, 1024))
    movers = []
    for _ in range(rng.randint(2, 4)):
        steps = []
        for _ in range(rng.randint(1, 3)):
            wait = rng.choice((0.0, rng.randint(1, 4000) * 1e-8,
                               rng.uniform(0.0, 3e-5)))
            size = rng.choice((rng.randint(1, 8) * burst,
                               rng.randint(1, 9000)))
            steps.append((wait, size))
        movers.append(steps)
    sleepers = [
        [rng.choice((rng.randint(1, 4000) * 1e-8, rng.uniform(0.0, 4e-5)))
         for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 3))
    ]
    for steps in movers:
        if rng.random() < 0.4:
            first = [steps[0][0]] if steps[0][0] else []
            sleepers.append(first + ["hold"] * rng.randint(1, 6))
    horizon = rng.choice((None, rng.uniform(0.0, 4e-5)))
    return burst, movers, sleepers, horizon


def _run(bus_class, seed, trace, recorder):
    burst, movers, sleepers, horizon = _scenario(seed)
    eng = Engine()
    bus = bus_class(eng, clock=Clock(100_000_000), typical_burst_bytes=burst,
                    trace=trace)
    rec = None
    if recorder:
        rec = TimeseriesRecorder()
        bus.recorder = bus._resource.recorder = rec
        bus._resource.wait_kind = "bus_wait"
    ends = []

    def mover(name, steps):
        for wait, size in steps:
            if wait:
                yield wait
            yield from bus.transfer(size, requester=name)
            ends.append((name, eng.now))

    hold = bus.cycles(bus.transfer_cycles(burst))

    def sleeper(waits):
        for wait in waits:
            yield hold if wait == "hold" else wait

    for i, steps in enumerate(movers):
        eng.process(mover(f"m{i}", steps))
    for waits in sleepers:
        eng.process(sleeper(waits))
    stops = []
    if horizon is not None:
        stops.append(eng.run(until=horizon))
    stops.append(eng.run())
    res = bus._resource
    state = {
        "stops": stops, "ends": ends, "now": eng.now,
        "busy": res.busy_time, "transactions": bus.transactions,
        "bytes": bus.bytes_moved, "grants": res.grants,
        "contentions": res.contentions, "peak": res.peak_waiters,
        "fused": eng.fused_events, "events": eng.events_processed,
        "trace": bus.trace,
    }
    if rec is not None:
        state["samples"] = (rec.activities, rec.occupancy_samples)
    return state


class TestBusLanesMatchPerBurstStepping:
    @pytest.mark.parametrize("seed", range(60))
    def test_bit_identical_on_a_100_mhz_clock(self, seed):
        trace, recorder = seed % 2 == 1, seed % 3 == 2
        live = _run(PlbBus, seed, trace, recorder)
        ref = _run(_PerBurstBus, seed, trace, recorder)
        assert live == ref
        # ``==`` on floats would let -0.0 pass for 0.0; ``repr`` is
        # exact.
        assert repr(live) == repr(ref)
        assert live["transactions"] > 0

    def test_the_scenarios_fuse_and_contend(self):
        # The comparison has teeth only if the lanes run: across the
        # seeds some bursts fuse, some requests wait, some runs stop at
        # a horizon, and some wake-ups tie with a burst end.
        runs = [_run(PlbBus, seed, False, False) for seed in range(60)]
        assert sum(run["fused"] > 0 for run in runs) > 30
        assert sum(run["contentions"] > 0 for run in runs) > 10
        assert sum(len(run["stops"]) == 2 for run in runs) > 10
        assert sum("hold" in sum(_scenario(seed)[2], [])
                   for seed in range(60)) > 10
