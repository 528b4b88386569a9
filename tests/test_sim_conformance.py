"""Simulator conformance: the live engine against frozen goldens.

The engine fuses provably uncontended timed operations instead of
queueing them. That is only admissible because it is unobservable: the
goldens in ``tests/goldens/sim_conformance.json`` were written by the
never-fusing heap engine, and every result field, recorder stream and
timeline digest must still match them byte for byte, at two scales:

* the four paper applications, across all three simulated systems, with
  full profiling recorders attached;
* the pinned corpus: 50 generated fuzz cases
  (:mod:`repro.verify.generate`) far outside the paper's operating
  regime — torus NoCs, degenerate graphs, randomized hardware
  parameters — and one hand-built case of two burst-aligned DMA
  transfers contending for the bus.

Both scales also run with *no* recorder, the way ``run_experiment`` and
the server simulate: the result fields and timeline digests must match
the same golden entries, so fusion lanes that skip sample emission when
profiling is off are held to the oracle too.

The goldens must also *catch* fusion bugs: planted mutants of
``Engine.fusion_bound``, the one definition of the fusion rule that
``can_advance`` and the bus lanes read, have to be reported. Plus targeted regressions
for the one interaction subtle enough to have produced a real
divergence: batched ``Event.succeed`` dispatch hiding sibling callbacks
from the event queue, which let a fused operation advance ``now``
mid-batch and serialize flows that run concurrently without fusion.
The bus fuses whole runs of bursts, so exact-time pins check where a
run must stop: at an event due exactly when a burst ends, and at a
``run(until=...)`` horizon. Contended hand-offs run waiters' bursts
inline, so exact pins cover alternation, a tie, a horizon, FIFO order
and a waiter's last burst, and catch two planted lane mutants (the
corpus catches one of them through its hand-built case). NoC
packets are callback objects that save queue entries, so exact pins
cover their timing, the batch veto over their shared start entry, a
horizon mid-message, and the two zero-delay hops between the last
packet and the sender.
"""

from __future__ import annotations

import copy
import inspect
import math
import textwrap
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core.designer import DesignConfig, design_interconnect
from repro.obs.profile.recorder import TimeseriesRecorder
from repro.errors import SimulationError
from repro.sim import bus as bus_module
from repro.sim.bus import PlbBus
from repro.sim.engine import Engine
from repro.sim.noc import NocMesh, NocParams, mesh
from repro.sim.systems import simulate_baseline
from repro.sim.timeline import timeline_digest
from repro.units import Clock
from repro.verify import conformance_sweep, diff_fingerprint, golden_conformance_check
from repro.verify.conformance import (
    CORPUS_GENERATED,
    CORPUS_SEED,
    CORPUS_SIZE,
    SYSTEMS,
    contended_dma_case,
    corpus_cases,
    fingerprint_run,
    load_goldens,
    simulate_system,
)

GOLDENS_PATH = Path(__file__).parent / "goldens" / "sim_conformance.json"


@pytest.fixture(scope="module")
def goldens():
    return load_goldens(GOLDENS_PATH)


@pytest.fixture(scope="module")
def corpus():
    return corpus_cases()


def _failing_cases(cases, goldens):
    failing = []

    def on_case(case, found):
        if found:
            failing.append((case.label(), found[0]))

    conformance_sweep(cases, goldens, on_case=on_case)
    return failing


class TestPaperApps:
    """All four paper applications, all three systems, byte-identical."""

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_app_conformance(
        self, system, fitted_apps, system_params, theta, goldens
    ):
        assert set(goldens["apps"]) == set(fitted_apps)
        for name, fitted in fitted_apps.items():
            config = DesignConfig(
                theta_s_per_byte=theta,
                stream_overhead_s=fitted.stream_overhead_s,
            )
            plan = design_interconnect(name, fitted.graph, config)
            recorder = TimeseriesRecorder()
            result = simulate_system(system, fitted.graph, plan,
                                     system_params, recorder)
            violations = diff_fingerprint(
                f"{name}.{system}",
                goldens["apps"][name][system],
                fingerprint_run(result, recorder),
            )
            assert violations == [], "\n".join(str(v) for v in violations)

    def test_engine_is_deterministic(self, fitted_apps, system_params):
        # Two runs of the same input are byte-identical: fusion
        # introduces no run-to-run state.
        fitted = fitted_apps["fluid"]
        a = simulate_baseline(fitted.graph, 0.0, system_params)
        b = simulate_baseline(fitted.graph, 0.0, system_params)
        assert repr(asdict(a)) == repr(asdict(b))


def _recorder_off_violations(label, graph, plan, params, golden):
    """Diff all three systems, simulated without a recorder, against
    the result fields and timeline digest of their golden entries."""
    violations = []
    for system in SYSTEMS:
        result = simulate_system(system, graph, plan, params, None)
        entry = golden[system]
        live = {
            "times": {k: repr(v) for k, v in sorted(asdict(result).items())},
            "streams": {},
            "timeline_digest": timeline_digest(result),
        }
        # No recorder, no streams: only the result fields and the
        # timeline digest are comparable.
        violations.extend(
            diff_fingerprint(f"{label}.{system}", dict(entry, streams={}), live)
        )
    return violations


class TestRecorderOff:
    """The unprofiled path (``recorder=None``) against the same goldens."""

    def test_paper_apps_without_recorder(
        self, fitted_apps, system_params, theta, goldens
    ):
        for name, fitted in fitted_apps.items():
            config = DesignConfig(
                theta_s_per_byte=theta,
                stream_overhead_s=fitted.stream_overhead_s,
            )
            plan = design_interconnect(name, fitted.graph, config)
            violations = _recorder_off_violations(
                name, fitted.graph, plan, system_params, goldens["apps"][name]
            )
            assert violations == [], "\n".join(str(v) for v in violations)

    def test_corpus_without_recorder(self, goldens, corpus):
        violations = []
        for case in corpus:
            plan = design_interconnect(case.label(), case.graph, case.config())
            violations.extend(
                _recorder_off_violations(
                    case.label(), case.graph, plan, case.params,
                    goldens["corpus"][case.label()],
                )
            )
        assert violations == [], (
            f"{len(violations)} violation(s); first: {violations[0]}"
        )


class TestFuzzCorpus:
    """Pinned corpus: 50 generated cases and one hand-built, zero
    tolerated violations."""

    def test_goldens_cover_the_pinned_corpus(self, goldens, corpus):
        assert goldens["corpus_seed"] == CORPUS_SEED
        assert goldens["corpus_size"] == CORPUS_SIZE == len(corpus)
        assert set(goldens["corpus"]) == {case.label() for case in corpus}
        assert [case.label() for case in corpus[CORPUS_GENERATED:]] == [
            "pinned[contended-dma]"
        ]

    def test_corpus_conformance(self, goldens, corpus):
        failures = _failing_cases(corpus, goldens)
        assert failures == [], (
            f"{len(failures)} non-conforming case(s); first: "
            f"{failures[0][0]}: {failures[0][1]}"
        )

    def test_single_case_check_reports_counterexamples(self, goldens, corpus):
        # A case runs clean, and a golden differing in one field yields
        # one violation naming that field with both values in full.
        case = corpus[0]
        golden = goldens["corpus"][case.label()]
        assert golden_conformance_check(case, golden) == []
        tampered = copy.deepcopy(golden)
        tampered["proposed"]["times"]["kernels_s"] = "1.0"
        found = golden_conformance_check(case, tampered)
        assert [v.subject for v in found] == [
            f"{case.label()}.proposed.kernels_s"
        ]
        assert found[0].check == "sim_results"
        assert "golden 1.0 != live " in found[0].message


def _bound_ignoring_batch(self):
    # Mutant (a): forgets the pending-sibling veto.
    peek = self._queue[0][0] if self._queue else math.inf
    return min(peek, self._until)


def _bound_non_strict(self):
    # Mutant (b): lets an event due exactly at the landing time run
    # after the fused continuation instead of before it.
    if self._batch_remaining:
        return -math.inf
    if not self._queue:
        return self._until
    return min(math.nextafter(self._queue[0][0], math.inf), self._until)


def _bound_ignoring_until(self):
    # Mutant (c): lets a fused operation land past a run(until=...)
    # horizon.
    if self._batch_remaining:
        return -math.inf
    return self._queue[0][0] if self._queue else math.inf


class TestGoldensCatchFusionBugs:
    """Planted ``fusion_bound`` bugs must be reported by the corpus."""

    @pytest.mark.parametrize(
        "mutant", [_bound_ignoring_batch, _bound_non_strict],
        ids=["ignores_batch_remaining", "non_strict_peek"],
    )
    def test_mutant_is_reported(self, mutant, goldens, corpus, monkeypatch):
        monkeypatch.setattr(Engine, "fusion_bound", mutant)
        failures = _failing_cases(corpus, goldens)
        # Each mutant diverges on most of the corpus; a handful of
        # failing cases would mean the goldens lost their teeth.
        assert len(failures) >= CORPUS_SIZE // 2, failures


class TestBatchedDispatchFusion:
    """Regressions for Event.succeed's batched dispatch.

    Multiple callbacks on one event are dispatched by a single queued
    closure. Mid-batch, pending sibling callbacks are due *now* but
    invisible to the queue — fusion must refuse exactly as a queued
    same-time thunk (``peek == now``) would make it.
    """

    def test_fusion_vetoed_while_siblings_pending(self):
        eng = Engine()
        ev = eng.event()
        observed = []

        def waiter(tag):
            def cb(_event):
                # can_advance must be False for every callback except
                # the last: siblings still inside the dispatch closure
                # correspond to same-time queued thunks.
                observed.append((tag, eng.can_advance(1.0)))
            return cb

        for tag in ("a", "b", "c"):
            ev.callbacks.append(waiter(tag))
        ev.succeed()
        eng.run()
        assert observed == [("a", False), ("b", False), ("c", True)]

    def test_callback_order_preserved(self):
        eng = Engine()
        ev = eng.event()
        order = []
        for tag in range(5):
            ev.callbacks.append(lambda _e, t=tag: order.append(t))
        ev.succeed()
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_wide_fanin_schedules_one_closure(self):
        # One thunk per callback would bloat the queue under wide AllOf
        # fan-in; the whole batch is one queued dispatch closure.
        eng = Engine()
        ev = eng.event()
        fired = []
        for i in range(50):
            ev.callbacks.append(lambda _e, i=i: fired.append(i))
        ev.succeed()
        assert len(eng._queue) == 1
        eng.run()
        assert fired == list(range(50))

    def test_batch_guard_clears_after_dispatch(self):
        eng = Engine()
        ev = eng.event()
        ev.callbacks.append(lambda _e: None)
        ev.succeed()
        eng.run()
        assert eng._batch_remaining == 0
        # Fusion works again once the batch is fully dispatched.
        assert eng.try_advance(1.0)
        assert eng.now == 1.0


class TestFusionGuards:
    """The strict-peek and horizon rules of ``can_advance``."""

    def test_event_at_landing_time_vetoes_fusion(self):
        eng = Engine()
        eng.schedule(1.0, lambda: None)
        assert not eng.can_advance(1.0)
        assert eng.can_advance(0.5)

    def test_fusion_respects_until_horizon(self):
        eng = Engine()
        observed = []

        def proc():
            observed.append((eng.can_advance(2.0), eng.can_advance(1.0)))
            yield 0.0

        eng.process(proc())
        eng.run(until=1.0)
        assert observed == [(False, True)]
        assert eng.can_advance(2.0)  # horizon cleared after run

    def test_negative_delay_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            Engine().try_advance(-1.0)


class TestBurstRunHorizon:
    """Where a run of fused bursts must stop.

    A 128 Hz bus clock makes every time below a dyadic fraction, so the
    expected values are exact: a 1 KiB burst holds the bus for
    (3 + 2 + 128) / 128 = 1.0390625 s and an 8 B one for 6 / 128 s.
    """

    HOLD = 1.0390625

    def _tie(self):
        eng = Engine()
        bus = PlbBus(eng, clock=Clock(128.0))
        assert bus.cycles(bus.transfer_cycles(1024)) == self.HOLD
        times = {}

        def a():
            yield from bus.transfer(4096, requester="a")
            times["a_end"] = eng.now

        def b():
            yield 2 * self.HOLD  # lands exactly on A's second burst end
            times["b_start"] = eng.now
            yield from bus.transfer(8, requester="b")
            times["b_end"] = eng.now

        eng.process(a())
        eng.process(b())
        eng.run()
        return times

    def test_run_stops_at_a_tie(self):
        # B's wake-up was queued first, so it runs before A's third
        # burst can be granted and takes the bus between A's bursts.
        assert self._tie() == {
            "b_start": 2.078125, "b_end": 2.125, "a_end": 4.203125,
        }

    def test_tie_crossing_mutant_delays_b(self, monkeypatch):
        monkeypatch.setattr(Engine, "fusion_bound", _bound_non_strict)
        assert self._tie()["b_end"] == 3.1640625

    def _horizon(self):
        eng = Engine()
        bus = PlbBus(eng, clock=Clock(128.0))

        def a():
            yield from bus.transfer(4096, requester="a")

        eng.process(a())
        stopped = (eng.run(until=2.5 * self.HOLD), bus.transactions,
                   bus.bytes_moved)
        return stopped, (eng.run(), bus.transactions, bus.bytes_moved)

    def test_run_stops_at_the_until_horizon(self):
        stopped, resumed = self._horizon()
        assert stopped == (2.59765625, 2, 2048)
        assert resumed == (4.15625, 4, 4096)

    def test_horizon_ignoring_mutant_overruns(self, monkeypatch):
        monkeypatch.setattr(Engine, "fusion_bound", _bound_ignoring_until)
        stopped, _ = self._horizon()
        assert stopped[0] == 4.15625


H = TestBurstRunHorizon.HOLD


def _bus_run(transfers, trace=True, until=None, thunk_at=None):
    """Run ``(requester, wake_s, nbytes)`` transfers on a 128 Hz bus.

    Returns each transfer's end time, the logged burst starts as
    ``(time, requester)`` (empty without tracing), the bus counters,
    and the engine. ``thunk_at`` wakes one more process at that time,
    which queues a zero-delay thunk noting how many burst starts were
    logged when it ran. With ``until`` the run stops there first and the
    counters are taken at the stop; the run then finishes.
    """
    eng = Engine()
    bus = PlbBus(eng, clock=Clock(128.0), trace=trace)
    ends, seen = {}, []

    def transfer(name, wake, nbytes):
        if wake:
            yield wake
        yield from bus.transfer(nbytes, requester=name)
        ends[name] = eng.now

    def waker():
        yield thunk_at
        eng.call_soon(lambda: seen.append(len(bus.trace)))

    for spec in transfers:
        eng.process(transfer(*spec))
    if thunk_at is not None:
        eng.process(waker())
    res = bus._resource

    def counters():
        return {
            "transactions": bus.transactions, "bytes": bus.bytes_moved,
            "grants": res.grants, "contentions": res.contentions,
            "peak_waiters": res.peak_waiters, "busy": res.busy_time,
        }

    stopped = None
    if until is not None:
        stopped = (eng.run(until=until), counters())
    eng.run()
    starts = [(t, label.rsplit(" ", 1)[1]) for t, label in bus.trace]
    return {"ends": ends, "starts": starts, "counters": counters(),
            "stopped": stopped, "thunk": seen, "engine": eng}


def _lane_mutant(old, new):
    """``PlbBus._hand_off`` with one guard rewritten (exactly one match)."""
    source = textwrap.dedent(inspect.getsource(PlbBus._hand_off))
    assert source.count(old) == 1, old
    namespace = dict(vars(bus_module))
    exec(source.replace(old, new), namespace)
    return namespace["_hand_off"]


#: Mutant: a waiter's full-size last burst runs inline too, so the
#: waiter is left queued with nothing to move and resumes late.
FUSE_FINAL_BURSTS = ("left <= full", "left < full")
#: Mutant: the lane never checks an inline burst against the fusion
#: bound.
SKIP_FUSION_CHECK = ("if not end < bound:", "if False:")


class TestContendedHandoff:
    """Exact pins for the contended hand-off lane on the 128 Hz bus.

    When a holder ends a burst with bytes left and a transfer waits, the
    bus is handed down the FIFO, and waiters' bursts that are not their
    last run inline while they land before the fusion bound. Every pin
    below is the schedule of plain per-burst FIFO granting; each scenario runs
    with bus tracing on (to see every burst start) and off (the lane's
    fast path), which must agree on ends and counters.
    """

    ALTERNATE = [("a", 0.0, 3072), ("b", 0.5, 3072)]

    def _both(self, transfers, **kw):
        traced = _bus_run(transfers, trace=True, **kw)
        quiet = _bus_run(transfers, trace=False, **kw)
        for key in ("ends", "counters", "stopped"):
            assert quiet[key] == traced[key], key
        return traced

    def test_two_transfers_alternate(self):
        run = self._both(self.ALTERNATE)
        assert run["starts"] == [
            (0.0, "a"), (H, "b"), (2 * H, "a"), (3 * H, "b"), (4 * H, "a"),
            (5 * H, "b"),
        ]
        assert run["ends"] == {"a": 5 * H, "b": 6 * H}
        assert run["counters"] == {
            "transactions": 6, "bytes": 6144, "grants": 6, "contentions": 5,
            "peak_waiters": 1, "busy": 6 * H,
        }
        # The three middle bursts ran inline, inside a's hand-off.
        assert run["engine"].fused_events == 3

    def test_wake_up_at_a_burst_end_stops_the_lane(self):
        # c's wake-up is due exactly when a's second burst would end, so
        # that burst is queued, c queues behind b, and the lane resumes
        # after the tie.
        run = self._both(self.ALTERNATE + [("c", 3 * H, 8)])
        assert run["starts"] == [
            (0.0, "a"), (H, "b"), (2 * H, "a"), (3 * H, "b"), (4 * H, "c"),
            (4 * H + 6 / 128, "a"), (5 * H + 6 / 128, "b"),
        ]
        assert run["ends"] == {
            "c": 4 * H + 6 / 128, "a": 5 * H + 6 / 128, "b": 6 * H + 6 / 128,
        }

    def test_until_stops_mid_alternation(self):
        run = self._both(self.ALTERNATE, until=2.5 * H)
        stop, counters = run["stopped"]
        assert stop == 2.5 * H
        assert (counters["transactions"], counters["bytes"]) == (2, 2048)
        assert run["starts"] == [
            (0.0, "a"), (H, "b"), (2 * H, "a"), (3 * H, "b"), (4 * H, "a"),
            (5 * H, "b"),
        ]
        assert run["ends"] == {"a": 5 * H, "b": 6 * H}

    def test_three_transfers_keep_fifo_order(self):
        run = self._both(
            [("a", 0.0, 3072), ("b", 0.25, 3072), ("c", 0.5, 3072)]
        )
        assert run["starts"] == [
            (k * H, name) for k, name in enumerate("abcabcabc")
        ]
        assert run["ends"] == {"a": 7 * H, "b": 8 * H, "c": 9 * H}
        assert run["counters"]["peak_waiters"] == 2
        assert run["counters"]["contentions"] == 8

    def test_last_burst_resumes_through_its_own_entry(self):
        # b's last burst is granted at 3H and b resumes from its own
        # entry even though nothing else is due: it ends at 4H.
        run = self._both([("a", 0.0, 3072), ("b", 0.5, 2048)])
        assert run["starts"] == [
            (0.0, "a"), (H, "b"), (2 * H, "a"), (3 * H, "b"), (4 * H, "a"),
        ]
        assert run["ends"] == {"b": 4 * H, "a": 5 * H}
        # A zero-delay thunk queued at 3H, after a's burst was granted,
        # runs before b's last burst starts at that same instant.
        run = self._both([("a", 0.0, 3072), ("b", 0.5, 2048)],
                         thunk_at=3 * H)
        assert run["thunk"] == [3]
        assert run["starts"][3] == (3 * H, "b")
        assert run["ends"] == {"b": 4 * H, "a": 5 * H}

    def test_fuse_final_bursts_mutant_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            PlbBus, "_hand_off", _lane_mutant(*FUSE_FINAL_BURSTS)
        )
        # Each transfer's last burst moves inline; its process resumes
        # at a later grant, for an empty burst that counts a transaction.
        run = _bus_run(self.ALTERNATE)
        assert run["ends"] == {"a": 6 * H, "b": 6 * H}
        assert run["counters"]["transactions"] == 8
        run = _bus_run([("a", 0.0, 3072), ("b", 0.5, 2048)])
        assert run["ends"] == {"b": 5 * H, "a": 5 * H}

    def test_corpus_reports_the_fuse_final_bursts_mutant(
        self, goldens, monkeypatch
    ):
        # The generated cases never reach a waiter's full-size last
        # burst; the hand-built case's transfers all end on one.
        monkeypatch.setattr(
            PlbBus, "_hand_off", _lane_mutant(*FUSE_FINAL_BURSTS)
        )
        failing = _failing_cases([contended_dma_case()], goldens)
        assert [label for label, _ in failing] == ["pinned[contended-dma]"]

    def test_skip_can_advance_mutant_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            PlbBus, "_hand_off", _lane_mutant(*SKIP_FUSION_CHECK)
        )
        stop, counters = _bus_run(self.ALTERNATE, until=2.5 * H)["stopped"]
        assert counters["transactions"] > 2
        with pytest.raises(SimulationError, match="time went backwards"):
            _bus_run(self.ALTERNATE + [("c", 3 * H, 8)])


def _noc(eng, width=4):
    # A 64 Hz NoC clock makes every time below a dyadic fraction, so
    # the expected values are exact. A 16 B packet holds a link for
    # (3 + 16 / 4) / 64 s and an 8 B one for (3 + 8 / 4) / 64 s; the
    # adapters add 4 cycles before and 2 after.
    return NocMesh(
        eng,
        NocParams(width=width, height=1, link_width_bytes=4,
                  hop_latency_cycles=3, max_packet_bytes=16),
        clock=Clock(64.0),
    )


def _early_join(self):
    # Mutant: the last packet succeeds the join itself, resuming the
    # sender one zero-delay hop early.
    self.pending -= 1
    if not self.pending:
        self.join.succeed()


class TestPacketPathExact:
    """The store-and-forward packet path, pinned with ``==``.

    Packets are callback objects, not processes: a message's packet
    starts share one entry under the batch veto, and only the last
    packet schedules the join. These pins hold on any engine that keeps
    the never-fusing schedule.
    """

    @pytest.mark.parametrize(
        "hops,end", [(1, 0.390625), (2, 0.5), (3, 0.609375)]
    )
    def test_multi_packet_send_ends_at_transfer_seconds(self, hops, end):
        # 40 B is packets of 16, 16 and 8 B: 4 + 7 * hops + 7 + 5 + 2
        # cycles, with the first link pipelining the packets.
        eng = Engine()
        noc = _noc(eng)
        dst = (hops, 0)
        done = []

        def sender():
            yield from noc.send((0, 0), dst, 40, flow="f")
            done.append(eng.now)

        eng.process(sender())
        eng.run()
        assert done == [end]
        assert noc.transfer_seconds((0, 0), dst, 40) == end
        assert (noc.packets_delivered, noc.bytes_delivered) == (3, 40)
        for x in range(hops):
            link = noc.links[((x, 0), (x + 1, 0))]
            assert (link.packets, link.bytes_moved) == (3, 40)

    def _veto(self):
        eng = Engine()
        noc = _noc(eng)
        times = {}

        def sender():
            yield from noc.send((0, 0), (2, 0), 40, flow="f")
            times["send_end"] = eng.now

        def waiter():
            yield 4 / 64  # wakes when the packets start, before them
            times["fused"] = eng.try_advance(1.0)
            if not times["fused"]:
                yield 1.0
            times["wait_end"] = eng.now

        eng.process(sender())
        eng.process(waiter())
        eng.run()
        first = noc.links[((0, 0), (1, 0))].arbiter
        return times, first.contentions

    def test_packet_starts_are_not_fused_while_others_are_pending(self):
        # The packet starts are pending when the pure wait starts, so it
        # queues; inside the start entry the first two packets may not
        # fuse either, so both queue behind packet 0 on the first link
        # and the message pipelines across the two hops.
        times, contentions = self._veto()
        assert times == {
            "fused": False, "send_end": 0.5, "wait_end": 1.0625,
        }
        assert contentions == 2

    def test_batch_ignoring_mutant_serializes_the_packets(self, monkeypatch):
        # Forgetting the batch veto lets packet 0 cross both hops before
        # packet 1 starts: 4 + 14 + 14 + 10 + 2 cycles.
        monkeypatch.setattr(Engine, "fusion_bound", _bound_ignoring_batch)
        times, contentions = self._veto()
        assert times["send_end"] == 0.6875
        assert contentions == 0

    def _horizon(self, nbytes, until):
        eng = Engine()
        noc = _noc(eng)
        links = [noc.links[((0, 0), (1, 0))], noc.links[((1, 0), (2, 0))]]

        def sender():
            yield from noc.send((0, 0), (2, 0), nbytes, flow="f")

        eng.process(sender())

        def state():
            return [(link.packets, link.bytes_moved) for link in links]

        stopped = (eng.run(until=until), state())
        return stopped, (eng.run(), state())

    def test_run_stops_mid_message_at_the_until_horizon(self):
        # At 20.5 cycles packets 0 and 1 have left the first link and
        # packet 0 the second; resuming ends where an uninterrupted run
        # does.
        stopped, resumed = self._horizon(40, 20.5 / 64)
        assert stopped == (0.3203125, [(2, 32), (1, 16)])
        assert resumed == (0.5, [(3, 40), (3, 40)])
        eng = Engine()
        noc = _noc(eng)
        eng.process(noc.send((0, 0), (2, 0), 40, flow="f"))
        assert eng.run() == resumed[0]

    def test_horizon_ignoring_mutant_fuses_past_the_stop(self, monkeypatch):
        # A lone packet fuses both hops when allowed; with the horizon at
        # 8 cycles its first hop (4 -> 11) must queue instead.
        stopped, resumed = self._horizon(16, 8 / 64)
        assert stopped == (0.125, [(0, 0), (0, 0)])
        assert resumed == (0.3125, [(1, 16), (1, 16)])
        monkeypatch.setattr(Engine, "fusion_bound", _bound_ignoring_until)
        stopped, _ = self._horizon(16, 8 / 64)
        assert stopped[1] == [(1, 16), (1, 16)]

    def _join(self):
        # The sender's last packet finishes at 18 cycles (the join
        # instant). A timer queued after that packet's hold fires at the
        # same instant and wakes the bus requester B through a zero-delay
        # hop, which lands between the join's two hops; B then waits the
        # eject time, so B and the sender both want the bus at 20 cycles.
        eng = Engine()
        noc = _noc(eng, width=2)
        bus = PlbBus(eng, clock=Clock(128.0))
        wake = eng.event()
        times = {}

        def sender():
            yield from noc.send((0, 0), (1, 0), 32, flow="f")
            yield from bus.transfer(8, requester="s")
            times["s"] = eng.now

        def clock():
            yield 12 / 64
            yield 6 / 64
            wake.succeed()

        def b():
            yield wake
            yield 2 / 64
            yield from bus.transfer(8, requester="b")
            times["b"] = eng.now

        eng.process(sender())
        eng.process(clock())
        eng.process(b())
        eng.run()
        return times

    def test_sender_resumes_after_same_instant_zero_delay_work(self):
        # B's wake-up was scheduled before the sender's resume, so B's
        # bus wait is queued first and B takes the bus first (each 8 B
        # transfer holds it 6 / 128 s).
        assert self._join() == {"b": 0.359375, "s": 0.40625}

    def test_early_join_mutant_lets_the_sender_jump_the_bus(self, monkeypatch):
        monkeypatch.setattr(mesh._Message, "packet_done", _early_join)
        assert self._join() == {"s": 0.359375, "b": 0.40625}

    def test_corpus_reports_the_early_join_mutant(
        self, goldens, corpus, monkeypatch
    ):
        # With recorders on, the corpus sees the early resume too: it
        # reorders one case's activity stream.
        monkeypatch.setattr(mesh._Message, "packet_done", _early_join)
        failing = _failing_cases([corpus[2]], goldens)
        assert [label for label, _ in failing] == ["fuzz[2026:2]"]


class TestEquivalenceContractScope:
    """Engine-implementation counters stay outside the contract."""

    def test_fused_operations_skip_the_queue(self):
        # The optimization is visible only on the engine object: a
        # fused operation bumps fused_events, never events_processed.
        eng = Engine()
        assert eng.try_advance(1.0)
        assert eng.fused_events == 1
        assert eng.events_processed == 0
        assert eng.now == 1.0
