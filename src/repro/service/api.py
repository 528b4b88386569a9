"""The design-service facade: cached, coalesced, parallel job execution.

:class:`DesignService` is the throughput-oriented front door to the
experiment flow. Callers describe work as immutable
:class:`~repro.service.jobs.DesignJob` specs; the service

* answers repeated jobs from the two-tier result cache (``lookup``
  answers from the memory tier alone, for callers on an event loop),
* coalesces duplicate jobs — inside one ``submit_many`` batch and
  across concurrently submitting threads — so each distinct
  fingerprint is computed exactly once,
* fans the remaining distinct jobs out over the parallel
  :class:`~repro.service.executor.JobRunner`,
* and keeps counters/latency metrics for ``stats()``.

The unit of result is the flat :func:`repro.flow.result_summary` dict;
serial in-process execution additionally carries the full
:class:`~repro.flow.ExperimentResult` through (``JobResult.result``)
for callers — like the default sweep path — that want the rich object.
"""

from __future__ import annotations

import pathlib
import threading
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analyze import LINT_KIND
from ..errors import JobExecutionError, ServiceError
from ..io import FORMAT_VERSION, save_json_atomic
from ..obs.profile.report import PROFILE_SET_KIND
from ..obs.runtime.events import NULL_LOG, EventLog
from ..obs.trace import Tracer, active
from .cache import ResultCache
from .executor import ExecutorConfig, JobResult, JobRunner, align_trace_ids
from .jobs import DesignJob
from .metrics import MetricsRegistry


class DesignService:
    """Facade tying jobs, cache, executor, and metrics together."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        executor_config: Optional[ExecutorConfig] = None,
        runner: Optional[Callable[[DesignJob], Dict[str, Any]]] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        profile_dir: Optional[Union[str, pathlib.Path]] = None,
        lint_dir: Optional[Union[str, pathlib.Path]] = None,
        events: EventLog = NULL_LOG,
    ) -> None:
        if executor_config is None:
            executor_config = ExecutorConfig(jobs=jobs)
        self.cache = cache if cache is not None else ResultCache(cache_dir=cache_dir)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = active(tracer)
        #: Runtime event log (cache hits/misses, pool recycles). The
        #: null default keeps the batch hot path allocation-free when
        #: nobody is listening; the server injects its live log.
        self.events = events
        #: When set, every freshly computed job writes its simulation
        #: profiles to ``<profile_dir>/<fingerprint>.profile.json``.
        #: Cache hits produce no profiles — the summary cache predates
        #: them and a hit runs no simulation to profile.
        self.profile_dir = (
            pathlib.Path(profile_dir) if profile_dir is not None else None
        )
        #: When set, every freshly computed job runs the static analyzer
        #: and writes its report to ``<lint_dir>/<fingerprint>.lint.json``.
        #: Cache hits write nothing, for the same reason as profiles.
        self.lint_dir = (
            pathlib.Path(lint_dir) if lint_dir is not None else None
        )
        self._runner = JobRunner(
            executor_config,
            runner=runner,
            tracer=self.tracer,
            metrics=self.metrics,
            profile=self.profile_dir is not None,
            lint=self.lint_dir is not None,
            events=self.events,
        )
        # Cross-thread duplicate suppression: fingerprint -> Future of
        # the summary being computed by some other thread right now.
        # submit_many joins these instead of recomputing, so a flood of
        # identical requests (the server's hot path) costs one pipeline
        # run no matter how many threads carry it.
        self._inflight: Dict[str, "Future[Dict[str, Any]]"] = {}
        self._lock = threading.Lock()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Drain the worker pool and flush the cache; idempotent.

        After closing, :meth:`submit`/:meth:`submit_many` raise
        :class:`~repro.errors.ServiceError`. The runner's process pool
        is shut down with ``wait=True`` so no worker outlives the
        service (the leak repeated open/close used to expose).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._runner.close()
        self.cache.close()

    def __enter__(self) -> "DesignService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    @property
    def execution_mode(self) -> str:
        """How the last batch actually ran: ``"serial"``/``"parallel"``."""
        return self._runner.last_mode

    def attach_events(self, events: EventLog) -> None:
        """Point the service (and its runner) at a live event log.

        Used by the server to share one log across the whole ring when
        the service was constructed with the null default.
        """
        self.events = events
        self._runner.events = events

    def submit(self, job: DesignJob) -> JobResult:
        """Execute (or serve from cache) one job."""
        return self.submit_many([job])[0]

    def lookup(
        self, job: DesignJob, trace_id: str = ""
    ) -> Optional[JobResult]:
        """Answer ``job`` from the cache's memory tier; ``None`` on a miss.

        No disk read, no executor, no service lock — cheap enough for
        the server's event loop. A hit is accounted like a hit inside
        :meth:`submit_many` (``jobs_submitted``, the ``cache_hit``
        instant and event); a miss counts nothing, because the caller
        then submits the job and :meth:`submit_many` counts it.
        """
        if self._closed:
            raise ServiceError("design service is closed")
        fp = job.fingerprint()
        with self.tracer.span("cache_lookup", category="service", app=job.app):
            summary = self.cache.get_memory(fp)
        if summary is None:
            return None
        self.metrics.incr("jobs_submitted")
        self._record_hit(job, fp, trace_id)
        return JobResult(job=job, fingerprint=fp, summary=summary, cached=True)

    def _record_hit(self, job: DesignJob, fp: str, trace_id: str) -> None:
        self.tracer.instant(
            "cache_hit", category="service", app=job.app, fingerprint=fp,
        )
        if self.events.enabled:
            self.events.emit(
                "cache_hit", trace_id=trace_id, app=job.app, fingerprint=fp,
            )

    def submit_many(
        self,
        jobs: Sequence[DesignJob],
        trace_ids: Optional[Sequence[str]] = None,
    ) -> List[JobResult]:
        """Execute a batch; output order matches input order.

        Duplicate jobs (same fingerprint) are computed once — within the
        batch, *and* across concurrently submitting threads (a second
        thread joins the first thread's in-flight computation instead of
        repeating it). Cache hits are served without touching the
        executor. Raises :class:`~repro.errors.JobExecutionError` if any
        job exhausts its retry budget.

        ``trace_ids`` (optional, aligned with ``jobs``) carries each
        request's W3C trace id alongside the batch — never *on* the
        jobs, whose fingerprints are cache keys — so worker spans and
        cache hit/miss events join their originating request's trace.
        """
        if self._closed:
            raise ServiceError("design service is closed")
        jobs = list(jobs)
        tids = align_trace_ids(jobs, trace_ids)
        self.metrics.incr("jobs_submitted", len(jobs))
        fingerprints = [job.fingerprint() for job in jobs]

        results: List[Optional[JobResult]] = [None] * len(jobs)
        to_run: List[int] = []  # index of the first occurrence per fingerprint
        first_seen: Dict[str, int] = {}
        owned: Dict[str, "Future[Dict[str, Any]]"] = {}
        joined: List[Tuple[int, "Future[Dict[str, Any]]"]] = []
        with self._lock:
            for i, (job, fp) in enumerate(zip(jobs, fingerprints)):
                if fp in first_seen:
                    self.metrics.incr("jobs_coalesced")
                    continue  # resolved from the first occurrence below
                first_seen[fp] = i
                cached = self.cache.get(fp)
                if cached is not None:
                    self._record_hit(job, fp, tids[i])
                    results[i] = JobResult(
                        job=job, fingerprint=fp, summary=cached, cached=True
                    )
                    continue
                inflight = self._inflight.get(fp)
                if inflight is not None:
                    self.metrics.incr("jobs_joined")
                    joined.append((i, inflight))
                    continue
                if self.events.enabled:
                    self.events.emit(
                        "cache_miss", trace_id=tids[i],
                        app=job.app, fingerprint=fp,
                    )
                future: "Future[Dict[str, Any]]" = Future()
                self._inflight[fp] = future
                owned[fp] = future
                to_run.append(i)

        try:
            try:
                with self.tracer.span(
                    "submit_many", category="service",
                    batch=len(jobs), distinct=len(to_run),
                ):
                    outcomes = self._runner.run(
                        [jobs[i] for i in to_run],
                        trace_ids=[tids[i] for i in to_run],
                    )
            except JobExecutionError:
                self.metrics.incr("jobs_failed")
                raise
            if self._runner.last_mode == "serial" and to_run:
                self.metrics.incr("serial_batches")

            for i, outcome in zip(to_run, outcomes):
                fp = fingerprints[i]
                self.cache.put(fp, outcome.summary)
                self.metrics.incr("jobs_completed")
                self.metrics.incr("job_attempts", outcome.attempts)
                self.metrics.observe("job_latency", outcome.duration_s)
                if self.profile_dir is not None and outcome.profiles:
                    self._persist(
                        self.profile_dir / f"{fp}.profile.json",
                        {
                            "kind": PROFILE_SET_KIND,
                            "version": FORMAT_VERSION,
                            "app": jobs[i].app,
                            "fingerprint": fp,
                            "profiles": outcome.profiles,
                        },
                        "profiles_persisted",
                    )
                if self.lint_dir is not None and outcome.lint is not None:
                    self._persist(
                        self.lint_dir / f"{fp}.lint.json",
                        {
                            "kind": LINT_KIND,
                            "version": FORMAT_VERSION,
                            "app": jobs[i].app,
                            "fingerprint": fp,
                            "report": outcome.lint,
                        },
                        "lints_persisted",
                    )
                results[i] = outcome
                owned[fp].set_result(outcome.summary)
        except BaseException as exc:
            # Resolve owned futures (with the real failure) *before*
            # blocking on other threads' futures below — that ordering
            # is what makes cross-thread joining deadlock-free.
            with self._lock:
                for fp, future in owned.items():
                    self._inflight.pop(fp, None)
                    if not future.done():
                        future.set_exception(exc)
            raise
        else:
            with self._lock:
                for fp in owned:
                    self._inflight.pop(fp, None)

        for i, future in joined:
            summary = future.result()  # re-raises the owner's failure
            results[i] = JobResult(
                job=jobs[i],
                fingerprint=fingerprints[i],
                summary=summary,
                coalesced=True,
            )

        # Resolve in-batch duplicates from their representative.
        for i, fp in enumerate(fingerprints):
            if results[i] is None:
                rep = results[first_seen[fp]]
                assert rep is not None
                results[i] = JobResult(
                    job=jobs[i],
                    fingerprint=fp,
                    summary=rep.summary,
                    cached=rep.cached,
                    coalesced=True,
                    result=rep.result,
                )
        return [r for r in results if r is not None]

    def _persist(
        self, path: pathlib.Path, doc: Dict[str, Any], counter: str
    ) -> None:
        """Write one job artifact (profile set or lint report).

        A failed write is counted in ``artifact_write_errors`` and does
        not raise: the job's summary is already cached and returned, and
        raising here would lose the rest of the batch.
        """
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            save_json_atomic(doc, path)
        except OSError:
            self.metrics.incr("artifact_write_errors")
            return
        self.metrics.incr(counter)

    # -- observability -----------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Structured snapshot: metrics registry + cache accounting."""
        snap = self.metrics.snapshot()
        snap["cache"] = self.cache.stats.as_dict()
        snap["last_mode"] = self._runner.last_mode
        return snap

    def render_stats(self) -> str:
        """Text snapshot for CLI ``--stats`` output."""
        cache = self.cache.stats
        extra = (
            ("cache_hits", cache.hits),
            ("cache_misses", cache.misses),
            ("cache_evictions", cache.evictions),
            ("cache_invalidations", cache.invalidations),
            ("cache_write_errors", cache.write_errors),
            ("cache_hit_ratio", cache.hit_ratio),
            ("execution_mode", self._runner.last_mode),
        )
        return self.metrics.render(extra)
