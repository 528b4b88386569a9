"""Parallel job execution with timeout, retry, and serial fallback.

The profile→design→simulate pipeline is CPU-bound pure Python, so
process-level parallelism is the only kind that helps; :class:`JobRunner`
drives a :class:`concurrent.futures.ProcessPoolExecutor` when more than
one worker is requested and the platform can actually fork one, and
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
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import JobExecutionError, JobTimeoutError, ServiceError
from ..flow import ExperimentResult, result_summary, run_experiment
from ..obs.profile.report import profile_to_dict
from ..obs.runtime.events import NULL_LOG, EventLog
from ..obs.trace import Tracer
from .jobs import DesignJob
from .metrics import MetricsRegistry


def execute_job(
    job: DesignJob,
    tracer: Optional[Tracer] = None,
    profile: bool = False,
    lint: bool = False,
) -> Tuple[ExperimentResult, Dict[str, Any]]:
    """Run one job in-process; returns the full result and its summary.

    The job's ``graph_source`` is fingerprinted: static and traced
    graphs legitimately differ on data-dependent edges, so their
    results are cached separately.
    """
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
    return result, result_summary(result)


def run_job_summary(job: DesignJob) -> Dict[str, Any]:
    """Pool-friendly entry point: summary only (JSON/pickle-safe)."""
    return execute_job(job)[1]


def run_job_instrumented(
    job: DesignJob, profile: bool = False, lint: bool = False,
    trace_id: str = "",
    sample_interval_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Pool entry point shipping observability home with the summary.

    The worker process builds its own tracer and registry (neither can
    cross the process boundary live), then returns their picklable raw
    forms: span dicts for :meth:`repro.obs.trace.Tracer.merge` and a
    registry :meth:`~repro.service.metrics.MetricsRegistry.dump` for
    :meth:`~repro.service.metrics.MetricsRegistry.merge`. With
    ``profile`` the worker also ships each system's simulation profile
    as its JSON-safe dict form, and with ``lint`` the serialized static
    analysis report.

    ``trace_id`` is the request's W3C trace id (empty for untraced
    callers): the worker's whole execution runs inside a root ``job``
    span carrying it, so after the merge the server-side span tree and
    the worker-side one join into a single per-request trace.

    ``sample_interval_s`` attaches a wall-clock stack sampler
    (:class:`repro.obs.flight.StackSampler` — thread-based, so it works
    here where signal-based profilers cannot) to this job's thread for
    the duration of the run; the collapsed-stack text ships home in the
    payload's ``samples`` field, ready for flamegraph tooling.
    """
    tracer = Tracer()
    registry = MetricsRegistry()
    sampler = None
    if sample_interval_s is not None:
        from ..obs.flight.sampler import StackSampler

        sampler = StackSampler(
            interval_s=sample_interval_s,
            threads=[threading.get_ident()],
        )
        sampler.start()
    start = time.perf_counter()
    try:
        with tracer.span("job", category="worker", app=job.app,
                         trace_id=trace_id):
            result, summary = execute_job(
                job, tracer=tracer, profile=profile, lint=lint
            )
    finally:
        if sampler is not None:
            sampler.stop()
    registry.observe("worker_job_seconds", time.perf_counter() - start,
                     labels={"app": job.app})
    registry.incr("worker_jobs", labels={"app": job.app})
    return {
        "summary": summary,
        "spans": tracer.as_dicts(),
        "metrics": registry.dump(),
        "profiles": {
            system: profile_to_dict(p)
            for system, p in result.profiles.items()
        },
        "lint": None if result.lint is None else result.lint.to_dict(),
        "samples": None if sampler is None else sampler.collapsed(),
    }


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
    force_serial: bool = False

    def backoff_for(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        return self.backoff_s * (self.backoff_factor ** (attempt - 1))


@dataclass
class JobOutcome:
    """What one successfully executed job produced."""

    job: DesignJob
    summary: Dict[str, Any]
    #: Full result, only available from in-process (serial) execution.
    result: Optional[ExperimentResult]
    attempts: int
    duration_s: float
    #: Simulation profiles (JSON-safe dicts keyed by system label),
    #: populated only when the runner executes with ``profile=True``.
    profiles: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Serialized static-analysis report (``AnalysisReport.to_dict()``),
    #: populated only when the runner executes with ``lint=True``.
    lint: Optional[Dict[str, Any]] = None
    #: Collapsed-stack text from the wall-clock sampler, populated only
    #: when the runner executes with ``sample_interval_s`` set.
    samples: Optional[str] = None


class JobRunner:
    """Executes batches of :class:`DesignJob`, parallel when possible.

    With a ``tracer`` and/or ``metrics`` registry attached, execution is
    instrumented end to end: serial jobs trace straight into the shared
    tracer; pool jobs run :func:`run_job_instrumented` in the worker and
    the runner merges the returned spans/metrics on arrival. Injected
    custom ``runner`` callables are never wrapped — their payload shape
    is the caller's contract.
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
        sample_interval_s: Optional[float] = None,
    ) -> None:
        self.config = config
        self._runner = runner
        self.tracer = tracer
        self.metrics = metrics
        #: Wall-clock stack-sampling interval for executed jobs
        #: (``None`` = no sampling). Ignored for injected custom
        #: runners, like ``profile``/``lint``.
        self.sample_interval_s = sample_interval_s
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

    @property
    def _instrumented(self) -> bool:
        """Whether default execution should collect spans/metrics."""
        return self._runner is None and (
            (self.tracer is not None and self.tracer.enabled)
            or self.metrics is not None
        )

    def run(
        self,
        jobs: Sequence[DesignJob],
        trace_ids: Optional[Sequence[str]] = None,
    ) -> List[JobOutcome]:
        """Execute all jobs; preserves input order in the output.

        ``trace_ids`` (aligned with ``jobs``) carries each request's
        W3C trace id into the execution spans. It rides *next to* the
        jobs, never on them: a :class:`DesignJob` is frozen and
        fingerprinted, and a cache key must not depend on who asked.
        """
        if self._closed:
            raise ServiceError("job runner is closed")
        jobs = list(jobs)
        ids = self._aligned_trace_ids(jobs, trace_ids)
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

    @staticmethod
    def _aligned_trace_ids(
        jobs: Sequence[DesignJob], trace_ids: Optional[Sequence[str]]
    ) -> List[str]:
        if trace_ids is None:
            return [""] * len(jobs)
        ids = ["" if t is None else str(t) for t in trace_ids]
        if len(ids) != len(jobs):
            raise ServiceError(
                f"trace_ids length {len(ids)} does not match "
                f"{len(jobs)} jobs"
            )
        return ids

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
        if self.config.jobs <= 1 or self.config.force_serial:
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

    def _make_sampler(self) -> Optional[Any]:
        """A started stack sampler over this thread, if configured."""
        if self._runner is not None or self.sample_interval_s is None:
            return None
        from ..obs.flight.sampler import StackSampler

        sampler = StackSampler(
            interval_s=self.sample_interval_s,
            threads=[threading.get_ident()],
        )
        sampler.start()
        return sampler

    def _run_serial(self, job: DesignJob, trace_id: str = "") -> JobOutcome:
        last_error = ""
        for attempt in range(1, self.config.retries + 2):
            start = time.perf_counter()
            sampler = self._make_sampler()
            try:
                profiles: Dict[str, Dict[str, Any]] = {}
                lint: Optional[Dict[str, Any]] = None
                if self._runner is not None:
                    summary = self._runner(job)
                    result = None
                else:
                    if self.tracer is not None and self.tracer.enabled:
                        # Root "job" span carries the request's trace id
                        # so the pipeline spans below it join the HTTP
                        # trace.
                        with self.tracer.span(
                            "job", category="worker", app=job.app,
                            trace_id=trace_id,
                        ):
                            result, summary = execute_job(
                                job, tracer=self.tracer,
                                profile=self.profile, lint=self.lint,
                            )
                    else:
                        result, summary = execute_job(
                            job, tracer=self.tracer,
                            profile=self.profile, lint=self.lint,
                        )
                    profiles = {
                        system: profile_to_dict(p)
                        for system, p in result.profiles.items()
                    }
                    if result.lint is not None:
                        lint = result.lint.to_dict()
                    if self.metrics is not None:
                        self.metrics.observe(
                            "worker_job_seconds",
                            time.perf_counter() - start,
                            labels={"app": job.app},
                        )
                        self.metrics.incr(
                            "worker_jobs", labels={"app": job.app}
                        )
                if sampler is not None:
                    sampler.stop()
                return JobOutcome(
                    job=job,
                    summary=summary,
                    result=result,
                    attempts=attempt,
                    duration_s=time.perf_counter() - start,
                    profiles=profiles,
                    lint=lint,
                    samples=(
                        sampler.collapsed() if sampler is not None else None
                    ),
                )
            except Exception as exc:
                last_error = str(exc) or type(exc).__name__
                if attempt <= self.config.retries:
                    time.sleep(self.config.backoff_for(attempt))
            finally:
                if sampler is not None:
                    sampler.stop()
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
        trace_ids: Optional[List[str]] = None,
    ) -> List[JobOutcome]:
        trace_ids = trace_ids or [""] * len(jobs)
        wrapped = self._runner is None and (
            self._instrumented or self.profile or self.lint
            or self.sample_interval_s is not None
        )
        if self._runner is not None:
            func = self._runner
        elif wrapped:
            # partial (not a lambda) so the callable stays picklable.
            func = partial(
                run_job_instrumented, profile=self.profile, lint=self.lint,
                sample_interval_s=self.sample_interval_s,
            )
        else:
            func = run_job_summary
        outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
        attempts = [0] * len(jobs)
        pending = list(range(len(jobs)))
        while pending:
            futures = {}
            starts = {}
            for i in pending:
                attempts[i] += 1
                starts[i] = time.perf_counter()
                if wrapped:
                    # Only the instrumented entry point knows what to do
                    # with a trace id; plain/custom runners keep their
                    # one-argument contract.
                    futures[i] = pool.submit(
                        func, jobs[i], trace_id=trace_ids[i]
                    )
                else:
                    futures[i] = pool.submit(func, jobs[i])
            failed: List[Tuple[int, str, bool]] = []
            recycle = False
            for i in pending:
                try:
                    summary = futures[i].result(timeout=self.config.timeout_s)
                    profiles: Dict[str, Dict[str, Any]] = {}
                    lint: Optional[Dict[str, Any]] = None
                    samples: Optional[str] = None
                    if wrapped:
                        summary, profiles, lint, samples = (
                            self._absorb_payload(summary)
                        )
                    outcomes[i] = JobOutcome(
                        job=jobs[i],
                        summary=summary,
                        result=None,
                        attempts=attempts[i],
                        duration_s=time.perf_counter() - starts[i],
                        profiles=profiles,
                        lint=lint,
                        samples=samples,
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

    def _absorb_payload(
        self, payload: Dict[str, Any]
    ) -> Tuple[
        Dict[str, Any],
        Dict[str, Dict[str, Any]],
        Optional[Dict[str, Any]],
        Optional[str],
    ]:
        """Merge a :func:`run_job_instrumented` payload.

        Returns the job summary plus any simulation profiles, lint
        report, and collapsed stack samples the worker shipped
        alongside it.
        """
        if self.tracer is not None:
            self.tracer.merge(payload.get("spans", ()))
        if self.metrics is not None:
            self.metrics.merge(payload.get("metrics", {}))
        return (
            payload["summary"],
            payload.get("profiles", {}),
            payload.get("lint"),
            payload.get("samples"),
        )


def _is_picklable(obj: Any) -> bool:
    import pickle

    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False
