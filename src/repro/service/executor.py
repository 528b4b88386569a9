"""Parallel job execution with timeout, retry, and serial fallback.

:func:`run_job` is the one job body: it runs the profile→design→simulate
pipeline for a :class:`DesignJob` under a root ``job`` span, counts it
in a metrics registry, and returns a :class:`JobResult`. Serial
execution calls it in-process with the runner's shared tracer and
registry; pool workers call it through :func:`_pool_job`, which ships
the result and the worker's spans and metrics home for
:class:`JobRunner` to merge.

The pipeline is CPU-bound pure Python, so process-level parallelism is
the only kind that helps; :class:`JobRunner` drives a
:class:`concurrent.futures.ProcessPoolExecutor` when more than one
worker is requested and the platform can actually fork one, and
degrades gracefully to in-process serial execution otherwise (no pool
support, single worker, or an injected runner that cannot be pickled).

Failure policy: each job gets ``1 + retries`` attempts with exponential
backoff between rounds; a job that exhausts its budget raises
:class:`~repro.errors.JobExecutionError` (or the
:class:`~repro.errors.JobTimeoutError` subclass when the last attempt
exceeded the per-job timeout). Timeouts are enforced only in pool mode —
a serial in-process attempt cannot be preempted.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    ConfigurationError,
    JobExecutionError,
    JobTimeoutError,
    ServiceError,
)
from ..flow import ExperimentResult, result_summary, run_experiment
from ..obs.profile.report import profile_to_dict
from ..obs.runtime.events import NULL_LOG, EventLog
from ..obs.trace import NULL_TRACER, Tracer, active
from .jobs import DesignJob
from .metrics import MetricsRegistry


@dataclass(frozen=True)
class JobResult:
    """One job's outcome as served to the caller."""

    job: DesignJob
    fingerprint: str
    summary: Dict[str, Any]
    #: Served from the result cache (no computation this call).
    cached: bool = False
    #: Deduplicated against an identical job earlier in the same batch.
    coalesced: bool = False
    attempts: int = 0
    duration_s: float = 0.0
    #: Full result object; ``None`` for cached/pool-computed jobs.
    result: Optional[ExperimentResult] = None
    #: Simulation profiles (JSON-safe dicts keyed by system label);
    #: populated only for freshly computed jobs of a profiling service.
    profiles: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Serialized static-analysis report; populated only for freshly
    #: computed jobs of a linting service (``lint_dir`` set).
    lint: Optional[Dict[str, Any]] = None


def run_job(
    job: DesignJob,
    tracer: Tracer = NULL_TRACER,
    metrics: Optional[MetricsRegistry] = None,
    profile: bool = False,
    lint: bool = False,
    trace_id: str = "",
) -> JobResult:
    """Run one job in this process and return its full result.

    The whole execution runs inside a root ``job`` span carrying the
    request's W3C ``trace_id`` (empty for untraced callers), so the
    pipeline spans below it join the server-side trace. ``metrics``
    counts the job in ``worker_jobs``/``worker_job_seconds``. With
    ``profile`` the result carries each system's simulation profile as
    its JSON-safe dict form, and with ``lint`` the serialized static
    analysis report.
    """
    start = time.perf_counter()
    with tracer.span("job", category="worker", app=job.app,
                     trace_id=trace_id):
        result = run_experiment(
            job.app,
            scale=job.scale,
            seed=job.seed,
            params=job.params,
            simulate=job.simulate,
            design_overrides=job.design_overrides or None,
            trace=tracer,
            profile=profile,
            lint=lint,
            graph_source=job.graph_source,
        )
    duration_s = time.perf_counter() - start
    if metrics is not None:
        metrics.observe("worker_job_seconds", duration_s,
                        labels={"app": job.app})
        metrics.incr("worker_jobs", labels={"app": job.app})
    return JobResult(
        job=job,
        fingerprint=job.fingerprint(),
        summary=result_summary(result),
        duration_s=duration_s,
        result=result,
        profiles={
            system: profile_to_dict(p)
            for system, p in result.profiles.items()
        },
        lint=None if result.lint is None else result.lint.to_dict(),
    )


def _pool_job(
    job: DesignJob, trace_id: str, traced: bool, metered: bool,
    profile: bool, lint: bool,
) -> Tuple[JobResult, List[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """Pool entry point: :func:`run_job` with picklable observability.

    Neither a tracer nor a registry can cross the process boundary
    live, so the worker records into fresh ones: a :class:`Tracer` only
    when the runner traces (an untraced worker stays span-free), a
    :class:`MetricsRegistry` only when the runner counts. Returns the
    result without its rich ``.result``, the span dicts for
    :meth:`repro.obs.trace.Tracer.merge`, and the registry dump for
    :meth:`~repro.service.metrics.MetricsRegistry.merge` (``None`` when
    not counting).
    """
    tracer = Tracer() if traced else NULL_TRACER
    metrics = MetricsRegistry() if metered else None
    result = run_job(job, tracer, metrics, profile, lint, trace_id)
    return (
        replace(result, result=None),
        tracer.as_dicts(),
        None if metrics is None else metrics.dump(),
    )


def align_trace_ids(
    jobs: Sequence[DesignJob], trace_ids: Optional[Sequence[str]]
) -> List[str]:
    """One trace id per job (``""`` where none was given)."""
    if trace_ids is None:
        return [""] * len(jobs)
    ids = ["" if t is None else str(t) for t in trace_ids]
    if len(ids) != len(jobs):
        raise ServiceError(
            f"trace_ids length {len(ids)} does not match {len(jobs)} jobs"
        )
    return ids


@dataclass(frozen=True)
class ExecutorConfig:
    """Knobs of the job runner."""

    jobs: int = 1
    #: Per-job wall-clock limit, pool mode only; ``None`` disables.
    timeout_s: Optional[float] = None
    #: Re-attempts after the first failure (total attempts = retries + 1).
    retries: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        # A negative retry budget never runs the job at all, and a
        # non-positive timeout fails every pool attempt at once.
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.retries < 0:
            raise ConfigurationError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ConfigurationError(
                f"timeout_s must be > 0 or None, got {self.timeout_s}"
            )
        if not self.backoff_s >= 0:
            raise ConfigurationError(
                f"backoff_s must be >= 0, got {self.backoff_s}"
            )
        if not self.backoff_factor >= 1:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff_for(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        return self.backoff_s * (self.backoff_factor ** (attempt - 1))


class JobRunner:
    """Executes batches of :class:`DesignJob`, parallel when possible.

    Every job runs :func:`run_job`: serial jobs in-process, tracing and
    counting straight into the shared ``tracer`` and ``metrics``; pool
    jobs in a worker through :func:`_pool_job`, whose spans and metrics
    the runner merges on arrival. Injected custom ``runner`` callables
    replace :func:`run_job` and are never wrapped — they take a job and
    return its summary, and carry no profiles, lint or spans.
    """

    def __init__(
        self,
        config: ExecutorConfig = ExecutorConfig(),
        runner: Optional[Callable[[DesignJob], Dict[str, Any]]] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        profile: bool = False,
        lint: bool = False,
        events: EventLog = NULL_LOG,
    ) -> None:
        self.config = config
        self._runner = runner
        self.tracer = active(tracer)
        self.metrics = metrics
        #: Runtime event log; pool recycles are worth an operator's
        #: attention (each one means a hung or crashed worker).
        self.events = events
        #: Collect simulation profiles on every executed job (ignored
        #: for injected custom runners, whose payload is their own).
        self.profile = profile
        #: Run the static analyzer on every executed job (ignored for
        #: injected custom runners, whose payload is their own).
        self.lint = lint
        #: "parallel" or "serial" — how the last batch actually ran.
        self.last_mode: str = "serial"
        # The worker pool is created lazily and *reused* across batches
        # (the old create-per-batch + shutdown(wait=False) pattern leaked
        # worker processes under repeated open/close); close() reaps it.
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        # In-process execution runs one job at a time: concurrent callers
        # (the server's executor threads) queue here rather than
        # interleave CPU-bound designs under the GIL, which stretches
        # every one of them and starves the server's event loop.
        self._serial_lock = threading.Lock()
        self._closed = False

    def run(
        self,
        jobs: Sequence[DesignJob],
        trace_ids: Optional[Sequence[str]] = None,
    ) -> List[JobResult]:
        """Execute all jobs; preserves input order in the output.

        ``trace_ids`` (aligned with ``jobs``) carries each request's
        W3C trace id into the execution spans. It rides *next to* the
        jobs, never on them: a :class:`DesignJob` is frozen and
        fingerprinted, and a cache key must not depend on who asked.
        """
        if self._closed:
            raise ServiceError("job runner is closed")
        jobs = list(jobs)
        ids = align_trace_ids(jobs, trace_ids)
        if not jobs:
            return []
        pool = self._acquire_pool()
        if pool is None:
            self.last_mode = "serial"
            outcomes = []
            for job, trace_id in zip(jobs, ids):
                with self._serial_lock:
                    outcomes.append(self._run_serial(job, trace_id))
            return outcomes
        self.last_mode = "parallel"
        return self._run_pool(pool, jobs, ids)

    def close(self) -> None:
        """Shut the worker pool down and reap its processes.

        Idempotent; a closed runner rejects further :meth:`run` calls.
        ``wait=True`` is the whole point — the historical per-batch
        ``shutdown(wait=False)`` left orphaned workers behind, which
        repeated service open/close in one process turned into a leak.
        """
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    # -- serial -----------------------------------------------------------
    def _acquire_pool(self) -> Optional[ProcessPoolExecutor]:
        if self.config.jobs <= 1:
            return None
        if self._runner is not None and not _is_picklable(self._runner):
            return None
        with self._pool_lock:
            if self._closed:
                raise ServiceError("job runner is closed")
            if self._pool is None:
                try:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.config.jobs
                    )
                except (OSError, ValueError, NotImplementedError, ImportError):
                    return None
            return self._pool

    def _recycle_pool(self, pool: ProcessPoolExecutor,
                      reason: str = "broken") -> None:
        """Discard a broken/hung pool; the next batch builds a fresh one."""
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)
        if self.events.enabled:
            self.events.emit("pool_recycle", reason=reason)

    def _run_serial(self, job: DesignJob, trace_id: str = "") -> JobResult:
        last_error = ""
        for attempt in range(1, self.config.retries + 2):
            start = time.perf_counter()
            try:
                if self._runner is not None:
                    outcome = _summary_result(job, self._runner(job))
                else:
                    outcome = run_job(
                        job, self.tracer, self.metrics, self.profile,
                        self.lint, trace_id,
                    )
                return replace(outcome, attempts=attempt,
                               duration_s=time.perf_counter() - start)
            except Exception as exc:
                last_error = str(exc) or type(exc).__name__
                if attempt <= self.config.retries:
                    time.sleep(self.config.backoff_for(attempt))
        raise JobExecutionError(
            f"job {job.app} failed after {self.config.retries + 1} attempts: "
            f"{last_error}",
            fingerprint=job.fingerprint(),
            attempts=self.config.retries + 1,
            last_error=last_error,
        )

    # -- parallel ---------------------------------------------------------
    def _run_pool(
        self, pool: ProcessPoolExecutor, jobs: List[DesignJob],
        trace_ids: List[str],
    ) -> List[JobResult]:
        outcomes: List[Optional[JobResult]] = [None] * len(jobs)
        attempts = [0] * len(jobs)
        pending = list(range(len(jobs)))
        while pending:
            futures = {}
            starts = {}
            for i in pending:
                attempts[i] += 1
                starts[i] = time.perf_counter()
                if self._runner is not None:
                    futures[i] = pool.submit(self._runner, jobs[i])
                else:
                    futures[i] = pool.submit(
                        _pool_job, jobs[i], trace_ids[i], self.tracer.enabled,
                        self.metrics is not None, self.profile, self.lint,
                    )
            failed: List[Tuple[int, str, bool]] = []
            recycle = False
            for i in pending:
                try:
                    payload = futures[i].result(timeout=self.config.timeout_s)
                    outcomes[i] = replace(
                        self._absorb_payload(jobs[i], payload),
                        attempts=attempts[i],
                        duration_s=time.perf_counter() - starts[i],
                    )
                except FutureTimeout:
                    futures[i].cancel()
                    recycle = True  # a hung job still occupies its worker
                    failed.append(
                        (i, f"timed out after {self.config.timeout_s}s", True)
                    )
                except BrokenProcessPool as exc:
                    recycle = True
                    failed.append((i, str(exc) or type(exc).__name__, False))
                except Exception as exc:
                    failed.append((i, str(exc) or type(exc).__name__, False))
            pending = []
            for i, message, timed_out in failed:
                if attempts[i] > self.config.retries:
                    cls = JobTimeoutError if timed_out else JobExecutionError
                    raise cls(
                        f"job {jobs[i].app} failed after {attempts[i]} "
                        f"attempts: {message}",
                        fingerprint=jobs[i].fingerprint(),
                        attempts=attempts[i],
                        last_error=message,
                    )
                pending.append(i)
            if recycle:
                self._recycle_pool(pool, reason="timeout-or-broken")
                fresh = self._acquire_pool() if pending else None
                if pending and fresh is None:
                    # No replacement pool: finish the stragglers serially
                    # (each gets its own full retry budget there).
                    for i in pending:
                        outcomes[i] = self._run_serial(jobs[i], trace_ids[i])
                    pending = []
                else:
                    pool = fresh if fresh is not None else pool
            if pending:
                time.sleep(self.config.backoff_for(max(attempts[i] for i in pending)))
        return [o for o in outcomes if o is not None]

    def _absorb_payload(self, job: DesignJob, payload: Any) -> JobResult:
        """Turn what a worker returned into the job's result.

        A custom runner returns the bare summary; :func:`_pool_job`
        returns the result with spans and metrics, which are merged
        into this runner's tracer and registry.
        """
        if self._runner is not None:
            return _summary_result(job, payload)
        result, spans, metrics = payload
        self.tracer.merge(spans)
        if self.metrics is not None and metrics is not None:
            self.metrics.merge(metrics)
        return result


def _summary_result(job: DesignJob, summary: Dict[str, Any]) -> JobResult:
    """Wrap a custom runner's bare summary."""
    return JobResult(job=job, fingerprint=job.fingerprint(), summary=summary)


def _is_picklable(obj: Any) -> bool:
    import pickle

    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False
