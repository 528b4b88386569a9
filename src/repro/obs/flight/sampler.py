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
  tax, gated in CI by ``tools/overhead_gates.py`` (at most 1.05x on
  proposed-system simulation).
* **Bounded memory.** Samples aggregate into a ``{stack: count}`` table
  keyed by interned frame-label tuples; nothing is kept per sample.

Export: collapsed-stack text (flamegraph.pl / inferno compatible),
which ``DesignService(sample_interval_s=...)`` returns on every fresh
job's ``samples``.
"""

from __future__ import annotations

import sys
import threading
from types import FrameType
from typing import Dict, List, Optional, Sequence, Tuple

from ...errors import ConfigurationError

#: Smallest honored sampling interval; below this the sampler itself
#: becomes the workload.
MIN_INTERVAL_S = 1e-4

#: A captured stack: frame labels, root first.
StackKey = Tuple[str, ...]


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
        self._counts: Dict[Tuple[int, StackKey], int] = {}
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

    # -- export -------------------------------------------------------------
    def collapsed(self) -> str:
        """Folded-stack text: one ``frame;frame;... count`` line each."""
        lines = [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(self.stacks().items())
            if stack
        ]
        return "\n".join(lines) + ("\n" if lines else "")
