"""A compact discrete-event simulation engine.

The engine provides exactly the primitives the system models need:

* :class:`Event` — one-shot triggerable with callbacks and a value;
* :class:`Process` — a generator-based coroutine. Yield a number to wait
  that many *seconds* of simulated time, an :class:`Event` (including
  another process) to wait for it, or :class:`AllOf` to join several;
* :class:`Resource` — capacity-limited FIFO resource (the bus, BRAM
  ports);
* :class:`WrrResource` — a single-capacity resource whose waiters are
  served in weighted round-robin order per requester class. This models
  the paper's NoC router arbitration (Heisswolf et al.'s WRR scheduler).

Determinism: simultaneous events fire in schedule order (a monotonically
increasing sequence number breaks time ties), so identical inputs always
produce identical traces. Components may *fuse* a provably uncontended
timed operation instead of queueing it (:meth:`Engine.try_advance`);
fusion never changes a result, sample or timestamp. The fusion rule has
one definition, :meth:`Engine.fusion_bound`: a fused operation may land
strictly before it.
"""

from __future__ import annotations

import math
from heapq import heappop as _heappop, heappush as _heappush
from itertools import count
from typing import Callable, Dict, Generator, Iterable, List, Optional, Tuple

from ..errors import DeadlockError, SimulationError

_INF = float("inf")


def _bad_delay(delay: object, who: str = "") -> SimulationError:
    """The error for a delay that is not a finite, non-negative number.

    NaN and ±inf would corrupt ``now`` (a NaN never compares, so it
    slips past a plain ``< 0`` test) and ``bool`` passes as ``int``
    (``yield True`` would wait one second), so all three are refused
    alongside negative delays.
    """
    if isinstance(delay, bool):
        problem = "boolean"
    elif delay != delay or delay in (_INF, -_INF):
        problem = "non-finite"
    else:
        problem = "negative"
    return SimulationError(f"{who}{problem} delay {delay!r}")


class Event:
    """A one-shot event that processes can wait on."""

    __slots__ = ("engine", "callbacks", "triggered", "value")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: List[Callable[["Event"], None]] = []
        self.triggered = False
        self.value: object = None

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event now; waiters resume at the current time.

        All registered callbacks run from one scheduled thunk — the
        bound :meth:`_dispatch`, not a fresh closure — in insertion
        order. This is order-equivalent to the historical
        one-closure-per-callback scheduling (the N closures got
        consecutive sequence numbers with nothing interleaved, so they
        ran back to back anyway) but keeps the queue depth independent
        of fan-in — a wide ``AllOf`` no longer floods the scheduler
        with N same-timestamp entries. An untriggered event with no
        waiters schedules nothing at all.

        The dispatch also maintains the engine's pending-callback
        count: callbacks still waiting inside this batch are invisible
        to the event queue, and a fused operation in callback *i*
        advancing ``now`` before callback ``i+1`` ran would serialize
        work that one-thunk-per-callback scheduling runs concurrently.
        The count drops :meth:`Engine.fusion_bound` to ``-inf``, so
        every fusion refuses, exactly when that scheduling would have
        (siblings queued at the same timestamp ⇒ ``peek == now`` ⇒ no
        fusion).
        """
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self.value = value
        if self.callbacks:
            self.engine.call_soon(self._dispatch)
        return self

    def _dispatch(self) -> None:
        """Run the waiters in order, keeping ``_batch_remaining`` current.

        Waiters can no longer register once the event has triggered
        (:meth:`wait` schedules them on their own), so the list read
        here is the one :meth:`succeed` saw.
        """
        callbacks = self.callbacks
        engine = self.engine
        remaining = len(callbacks) - 1
        if not remaining:
            engine._batch_remaining = 0
            callbacks[0](self)
            return
        for cb in callbacks:
            engine._batch_remaining = remaining
            remaining -= 1
            cb(self)

    def wait(self, callback: Callable[["Event"], None]) -> None:
        """Register a callback; fires immediately if already triggered."""
        if self.triggered:
            self.engine.call_soon(lambda: callback(self))
        else:
            self.callbacks.append(callback)


class AllOf(Event):
    """An event that triggers once every child event has triggered."""

    __slots__ = ("_remaining",)

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        events = list(events)
        self._remaining = len(events)
        if self._remaining == 0:
            self.succeed([])
            return
        child_done = self._child_done
        for ev in events:
            ev.wait(child_done)

    def _child_done(self, _ev: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0 and not self.triggered:
            self.succeed()


ProcessGenerator = Generator[object, object, object]


class Process(Event):
    """A coroutine driven by the engine; completes as an event.

    The generator's return value becomes the event value. The resume
    callables are bound methods made once per process, so a yield
    allocates no closure: a timer entry calls ``_resume()`` (sending
    ``None``), an event calls ``_resume(event)`` (sending its value).
    """

    __slots__ = ("_gen", "name", "_resume", "_resume_late", "_late")

    def __init__(self, engine: "Engine", gen: ProcessGenerator, name: str = "") -> None:
        super().__init__(engine)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._resume = self._step
        self._resume_late = self._step_late
        self._late: Optional[Event] = None
        engine._active += 1
        engine.call_soon(self._resume)

    def _step_late(self) -> None:
        # Resume on an event that had already triggered when yielded.
        late, self._late = self._late, None
        self._step(late)

    def _step(self, ev: Optional[Event] = None) -> None:
        engine = self.engine
        try:
            target = self._gen.send(None if ev is None else ev.value)
        except StopIteration as stop:
            engine._active -= 1
            # The bound resume methods point back at the process; drop
            # them so a finished process is freed by reference counting
            # instead of lingering as cyclic garbage.
            self._resume = self._resume_late = None
            self.succeed(stop.value)
            return
        except Exception:
            engine._active -= 1
            raise
        if target.__class__ is not float and isinstance(
            target, (int, float)
        ) and not isinstance(target, bool):
            target = float(target)
        if target.__class__ is float:
            if not 0.0 <= target < _INF:
                engine._active -= 1
                raise _bad_delay(target, f"process {self.name!r} yielded ")
            _heappush(
                engine._queue,
                (engine.now + target, next(engine._seq), self._resume),
            )
            return
        if isinstance(target, (tuple, list)):
            target = AllOf(engine, target)
        if isinstance(target, Event):
            if target.triggered:
                self._late = target
                engine.call_soon(self._resume_late)
            else:
                target.callbacks.append(self._resume)
            return
        engine._active -= 1
        raise SimulationError(
            f"process {self.name!r} yielded unsupported {type(target).__name__}"
        )


class Engine:
    """The event loop: a priority queue over (time, seq, thunk).

    **Event fusion.** Components may ask, via :meth:`try_advance` or
    :meth:`can_advance` + :meth:`advance`, to execute a timed operation
    of duration ``d`` *synchronously* when it lands before
    :meth:`fusion_bound`: no queued event lands in ``(now, now + d]``,
    no dispatch sibling is pending, and no ``run(until=...)`` horizon is
    crossed. The check is strict (``now + d < peek``): an event at
    exactly ``now + d`` was scheduled earlier, carries a lower sequence
    number, and must run *before* the fused continuation would. A
    component that fuses a run of operations (the bus's burst runs and
    hand-offs) reads the bound once, since nothing is scheduled while
    the run is in progress. Fused paths replicate the queued path's
    float arithmetic operation for operation (``now = now + d``, the
    same single addition ``schedule`` performs), so timestamps,
    busy-time sums and makespans are bit-identical to never fusing —
    :mod:`repro.verify.conformance` checks that against goldens.

    **Same schedule, fewer steps.** The queued path itself may be made
    cheaper only under three rules. A step (one queue entry and the
    work its thunk does) may be

    1. replaced by a cheaper callable that does the same work — a bound
       method made once instead of a fresh closure per yield;
    2. merged with same-time thunks that sit next to it in sequence,
       with nothing scheduled between them, into one thunk that runs
       them in order under ``_batch_remaining`` (so fusion refuses
       inside the merged thunk exactly as the still-queued siblings
       would have made it refuse);
    3. dropped, if its only effect is on state that nothing reads
       before the next kept step of the same chain.

    A zero-delay chain that ends in a grant or a resume is never
    shortened, and steps are never reordered: the kept entries are
    scheduled in the old order, so their relative ``(time, seq)``
    order is unchanged. ``events_processed`` may fall only where rule
    2 or 3 applies.

    Only the engine touches ``_queue``, ``_seq``, ``_batch_remaining``
    and ``_until`` (lint rule R7); components order work through
    :meth:`schedule`, :meth:`call_soon` and the fusion calls.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = count()
        self._active = 0  # processes started but not finished
        self.events_processed = 0  # thunks executed by run()
        #: Timed operations executed synchronously (never queued). Like
        #: ``events_processed`` this is engine-implementation
        #: observability, outside the conformance contract.
        self.fused_events = 0
        #: Callbacks still pending inside the currently running
        #: ``Event.succeed`` dispatch batch. A non-zero value vetoes
        #: fusion: those callbacks are due *now* but invisible to the
        #: event queue.
        self._batch_remaining = 0
        #: The horizon's share of :meth:`fusion_bound`:
        #: ``nextafter(until, inf)`` inside ``run(until=...)``, else
        #: ``+inf``.
        self._until = _INF

    def schedule(self, delay: float, thunk: Callable[[], None]) -> None:
        """Run ``thunk`` after ``delay`` simulated seconds.

        ``delay`` must be a finite, non-negative number (not a bool).
        """
        if not 0.0 <= delay < _INF or delay.__class__ is bool:
            raise _bad_delay(delay)
        _heappush(self._queue, (self.now + delay, next(self._seq), thunk))

    def call_soon(self, thunk: Callable[[], None]) -> None:
        """Run ``thunk`` now, after everything already due at ``now``.

        The same queue entry ``schedule(0.0, thunk)`` makes (``now +
        0.0`` is ``now``), without the delay check.
        """
        _heappush(self._queue, (self.now, next(self._seq), thunk))

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def process(self, gen: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, gen, name=name)

    def timeout(self, delay: float) -> Event:
        """An event that triggers after ``delay`` seconds."""
        ev = Event(self)
        self.schedule(delay, ev.succeed)
        return ev

    # -- event fusion -------------------------------------------------------
    def fusion_bound(self) -> float:
        """Exclusive bound on where a fused operation may land.

        A timed operation of ``d`` seconds may be fused iff ``now + d <
        fusion_bound()``. The bound is the earliest queued time: an
        event due exactly there was scheduled earlier and must run
        first, hence the strict comparison. Under ``run(until=...)`` it
        is capped at ``nextafter(until, inf)``, the least float above
        ``until``, so a landing at exactly ``until`` is allowed. It is
        ``-inf`` while a sibling callback of the running dispatch batch
        is pending. This is the one definition of the fusion rule;
        :meth:`can_advance` is derived from it. A component that fuses a
        run of operations and schedules nothing until the run ends may
        read it once for the whole run: only the queue, the batch and
        the horizon move it.
        """
        if self._batch_remaining:
            # Each pending sibling callback would be a same-time queued
            # thunk under one-thunk-per-callback scheduling, so
            # peek == now would veto fusion; refuse the same way.
            return -_INF
        queue = self._queue
        if queue:
            peek = queue[0][0]
            return peek if peek < self._until else self._until
        return self._until

    def can_advance(self, delay: float) -> bool:
        """Whether a timed operation of ``delay`` seconds may be fused.

        True only when *no* queued event fires at or before
        ``now + delay`` (strictly — ties must run first), no sibling
        callback of the running dispatch batch is pending, and the
        fused landing time stays within a ``run(until=...)`` horizon
        (see :meth:`fusion_bound`).
        """
        return self.now + delay < self.fusion_bound()

    def advance(self, delay: float) -> None:
        """Commit a fused operation: jump ``now`` forward by ``delay``.

        Only valid immediately after :meth:`can_advance` returned True.
        """
        self.now = self.now + delay
        self.fused_events += 1

    def try_advance(self, delay: float) -> bool:
        """Fuse a pure wait of ``delay`` seconds if provably safe."""
        if not 0.0 <= delay < _INF or delay.__class__ is bool:
            raise _bad_delay(delay)
        if self.can_advance(delay):
            self.advance(delay)
            return True
        return False

    def run(self, until: Optional[float] = None, check_deadlock: bool = True) -> float:
        """Drain the event queue; returns the final simulation time.

        With ``check_deadlock`` (default) the engine raises when the
        queue empties while processes are still alive — i.e. somebody is
        waiting on an event nobody will ever trigger. Without a horizon
        the loop does no per-event ``until`` work.
        """
        queue = self._queue
        if until is not None:
            self._until = math.nextafter(until, _INF)
        processed = 0
        try:
            if until is None:
                while queue:
                    t, _, thunk = _heappop(queue)
                    if t < self.now - 1e-18:  # pragma: no cover - defensive
                        raise SimulationError("time went backwards")
                    self.now = t
                    processed += 1
                    thunk()
            else:
                while queue:
                    if queue[0][0] > until:
                        self.now = until
                        return until
                    t, _, thunk = _heappop(queue)
                    if t < self.now - 1e-18:  # pragma: no cover - defensive
                        raise SimulationError("time went backwards")
                    self.now = t
                    processed += 1
                    thunk()
        finally:
            self._until = _INF
            self.events_processed += processed
        if check_deadlock and self._active > 0:
            raise DeadlockError(
                f"{self._active} process(es) still waiting with an empty "
                "event queue"
            )
        return self.now


class Resource:
    """Capacity-limited resource with FIFO granting.

    Usage inside a process::

        yield resource.request()
        try: ...
        finally: resource.release()
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: List[Event] = []
        # Utilization accounting (single-capacity resources only).
        self._busy_since: Optional[float] = None
        self.busy_time = 0.0
        self.grants = 0
        # Contention accounting: how often a request had to wait, and the
        # deepest queue ever observed (bus arbitration pressure).
        self.contentions = 0
        self.peak_waiters = 0
        # Optional profiling hooks (duck-typed to keep the engine free of
        # observability imports): when ``recorder`` is set, grants emit
        # occupancy samples on ``profile_lane`` and contended requests
        # emit ``wait_kind`` activity spans covering their queueing time.
        self.recorder: Optional[object] = None
        self.profile_lane = name
        self.wait_kind = "wait"
        self._wait_started: Dict[Event, float] = {}

    def queued(self) -> int:
        """Requests currently waiting for a grant."""
        return len(self._waiters)

    def request(self, key: object = None, ev: Optional[Event] = None) -> Event:
        """Event that triggers when the resource is granted.

        A caller may pass its own untriggered ``ev`` — an :class:`Event`
        subclass that carries the requester's state for whoever grants
        it — to be queued and granted in place of a fresh event.
        """
        if ev is None:
            ev = Event(self.engine)
        if self._in_use < self.capacity:
            self._grant(ev)
        else:
            self.contentions += 1
            if self.recorder is not None:
                self._wait_started[ev] = self.engine.now
            self._enqueue(ev, key)
            self.peak_waiters = max(self.peak_waiters, self.queued())
        return ev

    def _fused_acquire(self) -> None:
        """Grant bookkeeping for a fused (synchronous) uncontended hold.

        Callers (component fast lanes) must have checked
        ``_in_use < capacity`` and ``engine.can_advance``; this replays
        exactly what :meth:`request` → :meth:`_grant` would have
        recorded for an uncontended grant — counters, busy-window
        start, and the recorder occupancy sample — without allocating
        the grant :class:`Event`. The matching release is the ordinary
        :meth:`release`.
        """
        self._in_use += 1
        self.grants += 1
        if self._in_use == 1:
            self._busy_since = self.engine.now
        rec = self.recorder
        if rec is not None:
            rec.occupancy(
                self.profile_lane, self.engine.now, self._in_use, self.queued()
            )

    def _enqueue(self, ev: Event, key: object) -> None:
        self._waiters.append(ev)

    def _dequeue(self) -> Optional[Event]:
        return self._waiters.pop(0) if self._waiters else None

    def _grant(self, ev: Event) -> None:
        self._in_use += 1
        self.grants += 1
        if self._in_use == 1:
            self._busy_since = self.engine.now
        rec = self.recorder
        if rec is not None:
            started = self._wait_started.pop(ev, None)
            if started is not None:
                rec.activity(
                    self.wait_kind, self.profile_lane, started, self.engine.now
                )
            rec.occupancy(
                self.profile_lane, self.engine.now, self._in_use, self.queued()
            )
        ev.succeed()

    def release(self) -> None:
        """Return one unit of capacity; grants the next waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self.busy_time += self.engine.now - self._busy_since
            self._busy_since = None
        if self.recorder is not None:
            self.recorder.occupancy(
                self.profile_lane, self.engine.now, self._in_use, self.queued()
            )
        nxt = self._dequeue()
        if nxt is not None:
            self._grant(nxt)

    def utilization(self, total_time: float) -> float:
        """Fraction of ``total_time`` the resource was busy."""
        if total_time <= 0:
            return 0.0
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.engine.now - self._busy_since
        return min(busy / total_time, 1.0)


class WrrResource(Resource):
    """Single resource with weighted-round-robin service per key.

    Waiters carry a *key* (e.g. the router input port). When the resource
    frees up, the scheduler walks the keys round-robin, serving up to
    ``weight[key]`` consecutive waiters of a key before moving on —
    the arbitration policy of the paper's NoC routers. Keys are walked
    in first-request order; when the current key has no waiters left
    the walk restarts at the first key.

    The waiter count is kept running, so :meth:`queued` is O(1), and
    :meth:`_dequeue` scans forward from the current key's position
    instead of listing the keys with waiters on every release.
    """

    def __init__(
        self,
        engine: Engine,
        weights: Optional[Dict[object, int]] = None,
        default_weight: int = 1,
        name: str = "wrr",
    ) -> None:
        super().__init__(engine, capacity=1, name=name)
        if default_weight < 1:
            raise SimulationError("default_weight must be >= 1")
        self.weights = dict(weights or {})
        self.default_weight = default_weight
        self._queues: Dict[object, List[Event]] = {}
        self._rr_order: List[object] = []
        self._rr_pos: Dict[object, int] = {}
        self._waiting = 0
        self._current_key: Optional[object] = None
        self._served_in_turn = 0

    def queued(self) -> int:
        """Requests waiting across all per-key queues."""
        return self._waiting

    def _enqueue(self, ev: Event, key: object) -> None:
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = []
            self._rr_pos[key] = len(self._rr_order)
            self._rr_order.append(key)
        queue.append(ev)
        self._waiting += 1

    def _weight_of(self, key: object) -> int:
        return self.weights.get(key, self.default_weight)

    def _dequeue(self) -> Optional[Event]:
        if not self._waiting:
            return None
        queues = self._queues
        key = self._current_key
        queue = queues.get(key)
        if not (
            key is not None
            and queue
            and self._served_in_turn < self._weight_of(key)
        ):
            # Advance round-robin to the next key with waiters: after
            # the current key if it still has some (wrapping round to
            # it), else from the first key.
            order = self._rr_order
            n = len(order)
            i = self._rr_pos[key] + 1 if queue else 0
            while True:
                key = order[i % n]
                queue = queues[key]
                if queue:
                    break
                i += 1
            self._current_key = key
            self._served_in_turn = 0
        self._served_in_turn += 1
        self._waiting -= 1
        return queue.pop(0)
