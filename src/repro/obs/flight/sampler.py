"""Sampling wall-clock profiler: a thread-based stack sampler.

Where :mod:`repro.obs.profile` measures the *simulated system* and
:class:`~repro.obs.trace.Tracer` times *annotated* pipeline stages, the
:class:`StackSampler` answers "where does the interpreter actually
spend its wall time" with **zero changes to the measured code**: a
daemon thread wakes every ``interval_s`` and snapshots every thread's
Python stack via ``sys._current_frames()``.

Design constraints, in order:

* **No signals.** ``signal.setitimer`` only fires in the main thread of
  the main interpreter; this sampler must work inside worker processes
  and under an asyncio loop, so it samples from a plain thread instead.
* **Bounded overhead.** Each sample briefly holds the GIL while it
  walks the frames; at the default 5 ms interval that is a sub-percent
  tax, gated in CI by ``repro bench --profile-self
  --max-sampler-overhead``.
* **Bounded memory.** Samples aggregate into a ``{stack: count}`` table
  keyed by interned frame-label tuples; a *separate*, capped timeline
  of ``(timestamp, stack)`` records exists only to support folding
  samples against tracer spans (:meth:`fold_spans`).

Exports: collapsed-stack text (flamegraph.pl / inferno compatible),
speedscope JSON (:data:`SAMPLED_PROFILE_KIND`), frame-needle *phase
attribution* (:data:`SIM_PHASES` splits simulator time into event
fusion vs. queued dispatch), and span folding against
a :class:`~repro.obs.trace.Tracer`.
"""

from __future__ import annotations

import sys
import threading
import time
from types import FrameType
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...errors import ConfigurationError
from ..trace import Tracer

#: Document kind of the exported speedscope profile.
SAMPLED_PROFILE_KIND = "sampled-profile"

#: Smallest honored sampling interval; below this the sampler itself
#: becomes the workload.
MIN_INTERVAL_S = 1e-4

#: A captured stack: frame labels, root first.
StackKey = Tuple[str, ...]

#: Frame-label needles attributing simulator samples to engine phases.
#: Scanned innermost-frame-first; first match wins; order matters (the
#: fusion needle must hit before the engine file needle claims the
#: frame for generic dispatch).
SIM_PHASES: Tuple[Tuple[str, str], ...] = (
    ("fusion", "advance (sim/engine.py"),
    ("dispatch", "sim/engine.py"),
)

#: Phase bucket for samples no needle claims.
OTHER_PHASE = "other"


def frame_label(filename: str, func: str, lineno: int = 0) -> str:
    """Compact, needle-friendly label: ``func (pkg/file.py[:line])``."""
    parts = filename.replace("\\", "/").rsplit("/", 2)
    short = "/".join(parts[-2:])
    if lineno > 0:
        return f"{func} ({short}:{lineno})"
    return f"{func} ({short})"


def _walk(frame: Optional[FrameType], max_depth: int) -> StackKey:
    """Fold one live frame chain into a root-first label tuple."""
    labels: List[str] = []
    depth = 0
    while frame is not None and depth < max_depth:
        code = frame.f_code
        labels.append(frame_label(code.co_filename, code.co_name))
        frame = frame.f_back
        depth += 1
    labels.reverse()
    return tuple(labels)


class StackSampler:
    """Samples Python stacks from a daemon thread at a fixed interval."""

    def __init__(
        self,
        interval_s: float = 0.005,
        max_depth: int = 128,
        threads: Optional[Sequence[int]] = None,
        max_timeline: int = 100_000,
    ) -> None:
        if interval_s < MIN_INTERVAL_S:
            raise ConfigurationError(
                f"sampling interval must be >= {MIN_INTERVAL_S}s, "
                f"got {interval_s}"
            )
        if max_depth < 1:
            raise ConfigurationError(
                f"max stack depth must be >= 1, got {max_depth}"
            )
        self.interval_s = float(interval_s)
        self.max_depth = int(max_depth)
        #: Restrict sampling to these thread idents (``None`` = all).
        self._threads = frozenset(threads) if threads is not None else None
        self._max_timeline = int(max_timeline)
        self._counts: Dict[Tuple[int, StackKey], int] = {}
        self._timeline: List[Tuple[float, StackKey]] = []
        self._samples = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Start the sampling thread. Idempotent while running."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling and join the thread. Idempotent."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "StackSampler":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _run(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            self.sample_once(skip_tid=own)

    # -- sampling -----------------------------------------------------------
    def sample_once(self, skip_tid: Optional[int] = None) -> int:
        """Take one sample of every eligible thread; returns stacks taken.

        Public so tests (and one-shot captures) can sample
        deterministically without running the thread.
        """
        now = time.perf_counter()
        frames = sys._current_frames()
        captured: List[Tuple[int, StackKey]] = []
        for tid, frame in frames.items():
            if tid == skip_tid:
                continue
            if self._threads is not None and tid not in self._threads:
                continue
            captured.append((tid, _walk(frame, self.max_depth)))
        with self._lock:
            self._samples += 1
            for tid, stack in captured:
                key = (tid, stack)
                self._counts[key] = self._counts.get(key, 0) + 1
                if len(self._timeline) < self._max_timeline:
                    self._timeline.append((now, stack))
        return len(captured)

    # -- inspection ---------------------------------------------------------
    @property
    def samples(self) -> int:
        """Sampling rounds taken (each may capture several threads)."""
        with self._lock:
            return self._samples

    def stacks(self) -> Dict[StackKey, int]:
        """Aggregated ``{stack: count}``, merged across threads."""
        merged: Dict[StackKey, int] = {}
        with self._lock:
            items = list(self._counts.items())
        for (_, stack), count in items:
            merged[stack] = merged.get(stack, 0) + count
        return merged

    # -- exports ------------------------------------------------------------
    def collapsed(self) -> str:
        """Folded-stack text: one ``frame;frame;... count`` line each."""
        lines = [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(self.stacks().items())
            if stack
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_speedscope(self, name: str = "repro") -> Dict[str, Any]:
        """The aggregated profile as a speedscope JSON document.

        Weights are seconds (count x interval), so the UI's time axis is
        meaningful even though samples are aggregated, not sequential.
        """
        stacks = sorted(self.stacks().items())
        frame_index: Dict[str, int] = {}
        frames: List[Dict[str, str]] = []
        samples: List[List[int]] = []
        weights: List[float] = []
        for stack, count in stacks:
            row: List[int] = []
            for label in stack:
                if label not in frame_index:
                    frame_index[label] = len(frames)
                    frames.append({"name": label})
                row.append(frame_index[label])
            samples.append(row)
            weights.append(count * self.interval_s)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "kind": SAMPLED_PROFILE_KIND,
            "version": 1,
            "name": name,
            "exporter": "repro.obs.flight",
            "activeProfileIndex": 0,
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "seconds",
                    "startValue": 0,
                    "endValue": total,
                    "samples": samples,
                    "weights": weights,
                }
            ],
        }

    def phase_totals(
        self, phases: Sequence[Tuple[str, str]] = SIM_PHASES
    ) -> Dict[str, int]:
        """Sample counts per phase, by innermost-first needle match."""
        totals: Dict[str, int] = {name: 0 for name, _ in phases}
        totals[OTHER_PHASE] = 0
        for stack, count in self.stacks().items():
            bucket = OTHER_PHASE
            for label in reversed(stack):  # innermost frame first
                matched = next(
                    (name for name, needle in phases if needle in label),
                    None,
                )
                if matched is not None:
                    bucket = matched
                    break
            totals[bucket] += count
        return totals

    def phase_fractions(
        self, phases: Sequence[Tuple[str, str]] = SIM_PHASES
    ) -> Dict[str, float]:
        """:meth:`phase_totals` normalized to fractions of all samples."""
        totals = self.phase_totals(phases)
        grand = sum(totals.values())
        if grand == 0:
            return {name: 0.0 for name in totals}
        return {
            name: round(count / grand, 6) for name, count in totals.items()
        }

    def fold_spans(self, tracer: Tracer) -> Dict[str, int]:
        """Attribute timeline samples to the tracer span active at each.

        For every recorded sample timestamp, finds the *innermost*
        (shortest) span whose interval contains it and counts the
        sample under that span's name; samples outside every span land
        in ``"(no span)"``. This is the bridge between wall-clock
        sampling and the annotated pipeline stages.
        """
        spans = [e for e in tracer.events if e.phase == "X"]
        epoch = tracer.epoch_s
        with self._lock:
            timeline = list(self._timeline)
        totals: Dict[str, int] = {}
        for ts, _stack in timeline:
            rel_us = (ts - epoch) * 1e6
            best_name = "(no span)"
            best_dur = float("inf")
            for span in spans:
                if (
                    span.start_us <= rel_us
                    <= span.start_us + span.duration_us
                    and span.duration_us < best_dur
                ):
                    best_name, best_dur = span.name, span.duration_us
            totals[best_name] = totals.get(best_name, 0) + 1
        return totals
