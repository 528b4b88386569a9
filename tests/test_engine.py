"""Tests for the discrete-event engine."""

from __future__ import annotations

import gc
import random

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import AllOf, Engine, Resource, WrrResource


class TestEventsAndProcesses:
    def test_timeout_advances_time(self):
        eng = Engine()
        log = []

        def proc():
            yield 1.5
            log.append(eng.now)
            yield 0.5
            log.append(eng.now)

        eng.process(proc())
        eng.run()
        assert log == [1.5, 2.0]

    def test_process_return_value(self):
        eng = Engine()

        def proc():
            yield 1.0
            return "done"

        p = eng.process(proc())
        eng.run()
        assert p.triggered
        assert p.value == "done"

    def test_wait_on_event(self):
        eng = Engine()
        ev = eng.event()
        log = []

        def waiter():
            value = yield ev
            log.append((eng.now, value))

        def trigger():
            yield 3.0
            ev.succeed("payload")

        eng.process(waiter())
        eng.process(trigger())
        eng.run()
        assert log == [(3.0, "payload")]

    def test_wait_on_already_triggered_event(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed(42)
        log = []

        def waiter():
            v = yield ev
            log.append(v)

        eng.process(waiter())
        eng.run()
        assert log == [42]

    def test_allof_joins(self):
        eng = Engine()
        done_at = []

        def worker(d):
            yield d

        def joiner():
            ps = [eng.process(worker(d)) for d in (1.0, 3.0, 2.0)]
            yield ps  # list -> AllOf
            done_at.append(eng.now)

        eng.process(joiner())
        eng.run()
        assert done_at == [3.0]

    def test_allof_empty_triggers_immediately(self):
        eng = Engine()
        ev = AllOf(eng, [])
        assert ev.triggered

    def test_double_trigger_rejected(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_negative_delay_rejected(self):
        eng = Engine()

        def proc():
            yield -1.0

        eng.process(proc())
        with pytest.raises(SimulationError):
            eng.run()

    @pytest.mark.parametrize(
        "delay", [float("nan"), float("inf"), -float("inf"), True, False]
    )
    def test_non_finite_and_boolean_yields_rejected(self, delay):
        # A NaN slips past a plain ``< 0`` test and would make run()
        # return nan; ``yield True`` passed the int check and waited 1 s.
        eng = Engine()

        def proc():
            yield delay

        eng.process(proc())
        with pytest.raises(SimulationError):
            eng.run()
        assert eng.now == 0.0

    @pytest.mark.parametrize(
        "delay", [float("nan"), float("inf"), -float("inf"), True, -1.0]
    )
    def test_schedule_and_try_advance_reject_bad_delays(self, delay):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.try_advance(delay)
        with pytest.raises(SimulationError):
            eng.schedule(delay, lambda: None)
        assert eng.now == 0.0
        assert eng.run() == 0.0

    def test_bad_delay_messages_name_the_problem(self):
        eng = Engine()
        with pytest.raises(SimulationError, match="non-finite delay nan"):
            eng.try_advance(float("nan"))
        with pytest.raises(SimulationError, match="boolean delay True"):
            eng.schedule(True, lambda: None)
        with pytest.raises(SimulationError, match="negative delay -1.0"):
            eng.schedule(-1.0, lambda: None)

    def test_bad_yield_type_rejected(self):
        eng = Engine()

        def proc():
            yield "nope"

        eng.process(proc())
        with pytest.raises(SimulationError):
            eng.run()

    def test_deadlock_detected(self):
        eng = Engine()
        ev = eng.event()  # nobody triggers it

        def proc():
            yield ev

        eng.process(proc())
        with pytest.raises(DeadlockError):
            eng.run()

    def test_run_until(self):
        eng = Engine()

        def proc():
            yield 10.0

        eng.process(proc())
        assert eng.run(until=3.0, check_deadlock=False) == 3.0

    def test_determinism_of_ties(self):
        """Events scheduled at the same instant fire in schedule order."""
        eng = Engine()
        order = []

        def p(tag):
            yield 1.0
            order.append(tag)

        for tag in "abc":
            eng.process(p(tag))
        eng.run()
        assert order == ["a", "b", "c"]


class TestResource:
    def test_fifo_granting(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        order = []

        def user(tag, hold):
            yield res.request()
            order.append((tag, eng.now))
            yield hold
            res.release()

        def spawn():
            eng.process(user("a", 2.0))
            yield 0.1
            eng.process(user("b", 1.0))
            yield 0.1
            eng.process(user("c", 1.0))

        eng.process(spawn())
        eng.run()
        assert [t for t, _ in order] == ["a", "b", "c"]
        assert order[1][1] == pytest.approx(2.0)
        assert order[2][1] == pytest.approx(3.0)

    def test_capacity_two_parallel(self):
        eng = Engine()
        res = Resource(eng, capacity=2)
        done = []

        def user(tag):
            yield res.request()
            yield 1.0
            res.release()
            done.append((tag, eng.now))

        for t in "ab":
            eng.process(user(t))
        eng.run()
        assert all(at == pytest.approx(1.0) for _, at in done)

    def test_release_idle_rejected(self):
        eng = Engine()
        res = Resource(eng)
        with pytest.raises(SimulationError):
            res.release()

    def test_busy_time_accounting(self):
        eng = Engine()
        res = Resource(eng)

        def user():
            yield res.request()
            yield 2.0
            res.release()
            yield 3.0
            yield res.request()
            yield 1.0
            res.release()

        eng.process(user())
        eng.run()
        assert res.busy_time == pytest.approx(3.0)
        assert res.utilization(6.0) == pytest.approx(0.5)

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Resource(Engine(), capacity=0)


class TestWrrResource:
    def _contend(self, weights, arrivals, holds=1.0):
        """Queue many requests from several keys, return grant order."""
        eng = Engine()
        res = WrrResource(eng, weights=weights)
        order = []

        def user(key, idx):
            yield res.request(key=key)
            order.append((key, idx))
            yield holds
            res.release()

        def spawn():
            # Occupy the resource so all contenders genuinely queue.
            yield res.request(key="warm")
            for key, count in arrivals:
                for i in range(count):
                    eng.process(user(key, i))
            yield 0.5
            res.release()

        eng.process(spawn())
        eng.run()
        return order

    def test_round_robin_with_equal_weights(self):
        order = self._contend(None, [("A", 3), ("B", 3)])
        keys = [k for k, _ in order]
        assert keys == ["A", "B", "A", "B", "A", "B"]

    def test_weighted_service(self):
        order = self._contend({"A": 2, "B": 1}, [("A", 4), ("B", 2)])
        keys = [k for k, _ in order]
        assert keys == ["A", "A", "B", "A", "A", "B"]

    def test_fifo_within_key(self):
        order = self._contend(None, [("A", 3)])
        assert [i for _, i in order] == [0, 1, 2]

    def test_idle_keys_skipped(self):
        order = self._contend({"A": 1, "B": 1}, [("A", 2)])
        assert [k for k, _ in order] == ["A", "A"]

    def test_invalid_weight(self):
        with pytest.raises(SimulationError):
            WrrResource(Engine(), default_weight=0)

    @pytest.mark.parametrize("seed", range(40))
    def test_grant_order_matches_the_list_rebuilding_scheduler(self, seed):
        # Random request/release runs over 1-6 keys (``None`` among
        # them) with mixed weights: every grant and every queue depth
        # must match the scheduler that lists the keys with waiters on
        # each release, including its restart at the first key when the
        # current key has run dry.
        rng = random.Random(seed)
        keys = rng.sample([None, "a", "b", 3, ("c", 1), "d", "e"],
                          rng.randint(1, 6))
        weights = {k: rng.randint(1, 4) for k in keys if rng.random() < 0.7}
        default = rng.randint(1, 3)
        pair = (
            WrrResource(Engine(), weights=weights, default_weight=default),
            _ListRebuildingWrr(Engine(), weights=weights,
                               default_weight=default),
        )
        waiting = ([], [])
        grants = ([], [])

        def step(op):
            # Each request or release grants at most one request.
            for res, pending, granted in zip(pair, waiting, grants):
                pending.extend(op(res))
                granted.extend(tag for tag, ev in pending if ev.triggered)
                pending[:] = [(t, ev) for t, ev in pending if not ev.triggered]
            assert pair[0].queued() == pair[1].queued()
            assert pair[0].peak_waiters == pair[1].peak_waiters

        def release(res):
            res.release()
            return []

        for n in range(rng.randint(1, 120)):
            if rng.random() < 0.55 or not pair[0]._in_use:
                key = rng.choice(keys)
                step(lambda res, tag=(n, key): [(tag, res.request(tag[1]))])
            else:
                step(release)
        while pair[0]._in_use:
            step(release)
        assert grants[0] == grants[1]
        assert waiting == ([], [])
        assert pair[0].queued() == 0


class _ListRebuildingWrr(WrrResource):
    """The WRR scheduler as first written: O(keys) per call."""

    def queued(self):
        return sum(len(q) for q in self._queues.values())

    def _enqueue(self, ev, key):
        if key not in self._queues:
            self._queues[key] = []
            self._rr_order.append(key)
        self._queues[key].append(ev)

    def _dequeue(self):
        live = [k for k in self._rr_order if self._queues.get(k)]
        if not live:
            return None
        key = self._current_key
        if (
            key is not None
            and self._queues.get(key)
            and self._served_in_turn < self._weight_of(key)
        ):
            pass  # continue this key's turn
        else:
            if key in live:
                start = (live.index(key) + 1) % len(live)
            else:
                start = 0
            key = live[start]
            self._current_key = key
            self._served_in_turn = 0
        self._served_in_turn += 1
        return self._queues[key].pop(0)


class TestNoCyclicGarbage:
    def test_finished_simulation_is_freed_by_reference_counting(self):
        # Processes keep their resume callables as bound methods, which
        # point back at the process; a finished run must still leave no
        # reference cycles behind for the cyclic collector to find.
        from repro.sim.noc import NocMesh, NocParams

        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            eng = Engine()
            res = Resource(eng)
            noc = NocMesh(eng, NocParams(width=3, height=1,
                                         max_packet_bytes=16))
            ready = eng.event()
            ready.succeed("go")

            def user(tag):
                yield ready  # already triggered
                yield res.request()
                yield 1.0
                res.release()
                yield from noc.send((0, 0), (2, 0), 40, flow=tag)
                return tag

            def joiner():
                procs = [eng.process(user(t)) for t in "ab"]
                yield procs
                yield eng.timeout(0.5)

            eng.process(joiner())
            eng.run()
            assert noc.packets_delivered == 6
            del eng, res, noc, ready, user, joiner
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
