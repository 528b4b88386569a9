"""Tests for the parallel job runner: retry, timeout, degradation."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ConfigurationError, JobExecutionError, JobTimeoutError
from repro.service import DesignJob, ExecutorConfig, JobRunner

FAST = ExecutorConfig(retries=2, backoff_s=0.0)


def _job(app="klt"):
    return DesignJob(app, simulate=False)


def _sleepy_runner(job):  # module-level: picklable, so the pool is used
    time.sleep(5.0)
    return {"solution": "SM"}


class TestExecutorConfig:
    @pytest.mark.parametrize("kwargs", [
        {"jobs": 0},
        {"jobs": -2},
        {"retries": -1},
        {"timeout_s": 0.0},
        {"timeout_s": -1.0},
        {"timeout_s": float("nan")},
        {"backoff_s": -0.01},
        {"backoff_s": float("nan")},
        {"backoff_factor": 0.5},
        {"backoff_factor": float("nan")},
    ])
    def test_rejects_values_that_break_the_runner(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExecutorConfig(**kwargs)

    def test_edges_stay_valid(self):
        ExecutorConfig(jobs=1, retries=0, timeout_s=None, backoff_s=0.0,
                       backoff_factor=1.0)
        ExecutorConfig(jobs=2, timeout_s=0.2, retries=0)


class TestSerialRetry:
    def test_flaky_job_retried_until_success(self):
        calls = []

        def flaky(job):
            calls.append(job.app)
            if len(calls) < 3:
                raise RuntimeError("transient")
            return {"solution": "SM"}

        runner = JobRunner(FAST, runner=flaky)
        outcome = runner.run([_job()])[0]
        assert outcome.attempts == 3
        assert outcome.summary == {"solution": "SM"}
        assert len(calls) == 3

    def test_exhausted_retries_raise(self):
        def always_fails(job):
            raise RuntimeError("boom")

        runner = JobRunner(FAST, runner=always_fails)
        with pytest.raises(JobExecutionError) as exc_info:
            runner.run([_job()])
        err = exc_info.value
        assert err.attempts == 3
        assert err.fingerprint == _job().fingerprint()
        assert "boom" in err.last_error

    def test_backoff_schedule(self):
        cfg = ExecutorConfig(backoff_s=0.05, backoff_factor=2.0)
        assert cfg.backoff_for(1) == pytest.approx(0.05)
        assert cfg.backoff_for(3) == pytest.approx(0.2)


class TestDegradation:
    def test_unpicklable_runner_forces_serial(self):
        closure_state = []

        def runner(job):
            closure_state.append(job.app)
            return {"solution": "SM"}

        jr = JobRunner(ExecutorConfig(jobs=4, retries=0), runner=runner)
        outcomes = jr.run([_job(), _job("jpeg")])
        assert jr.last_mode == "serial"
        assert [o.summary for o in outcomes] == [{"solution": "SM"}] * 2

    def test_serial_keeps_full_result(self):
        outcome = JobRunner(ExecutorConfig()).run([_job()])[0]
        assert outcome.result is not None
        assert outcome.result.name == "klt"
        assert outcome.summary["speedup_kernels"] > 1.0

    def test_concurrent_serial_callers_run_one_job_at_a_time(self):
        """Threads sharing a serial runner (the server's executor
        threads) queue for it instead of interleaving designs."""
        lock = threading.Lock()
        active, peak = [0], [0]

        def runner(job):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            time.sleep(0.02)
            with lock:
                active[0] -= 1
            return {"solution": "SM"}

        jr = JobRunner(FAST, runner=runner)
        threads = [
            threading.Thread(target=jr.run, args=([_job(), _job()],))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert jr.last_mode == "serial"
        assert peak[0] == 1

    def test_empty_batch(self):
        assert JobRunner(ExecutorConfig()).run([]) == []


class TestPool:
    def test_pool_timeout_raises(self):
        jr = JobRunner(
            ExecutorConfig(jobs=2, timeout_s=0.2, retries=0),
            runner=_sleepy_runner,
        )
        with pytest.raises(JobTimeoutError) as exc_info:
            jr.run([_job()])
        assert jr.last_mode == "parallel"
        assert "timed out" in exc_info.value.last_error

    def test_pool_preserves_order(self):
        jobs = [_job("klt"), _job("jpeg"), _job("canny")]
        jr = JobRunner(ExecutorConfig(jobs=3))
        outcomes = jr.run(jobs)
        assert jr.last_mode == "parallel"
        assert [o.job.app for o in outcomes] == ["klt", "jpeg", "canny"]
        # Pool transports summaries only; the rich object stays behind.
        assert all(o.result is None for o in outcomes)


class TestSerialPoolParity:
    """Serial and pool execution run the same job body.

    One fully instrumented service per mode (tracer, profile and lint
    artifacts, trace ids) over the same two jobs: the summaries and
    on-disk artifacts must agree byte for byte, and each mode must ship
    one traced ``job`` span and one ``worker_jobs`` count per fresh job.
    """

    APPS = ("klt", "canny")
    TRACE_IDS = ("0af7651916cd43dd8448eb211c80319c",
                 "4bf92f3577b34da6a3ce929d0e0e4736")

    def _run(self, root, jobs):
        from repro.obs.trace import Tracer
        from repro.service import DesignService

        tracer = Tracer()
        with DesignService(
            jobs=jobs, tracer=tracer,
            profile_dir=root / "profiles", lint_dir=root / "lints",
        ) as service:
            results = service.submit_many(
                [DesignJob(app) for app in self.APPS],
                trace_ids=self.TRACE_IDS,
            )
            mode = service.execution_mode
            worker_jobs = sum(
                service.metrics.counter("worker_jobs", labels={"app": app})
                for app in self.APPS
            )
        return results, mode, tracer, worker_jobs

    @staticmethod
    def _files(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    def test_serial_and_pool_agree(self, tmp_path):
        import os

        serial, serial_mode, serial_tracer, serial_count = self._run(
            tmp_path / "serial", 1
        )
        pool, pool_mode, pool_tracer, pool_count = self._run(
            tmp_path / "pool", 2
        )
        if pool_mode != "parallel":
            pytest.skip("platform cannot fork a worker pool")
        assert serial_mode == "serial"

        assert [r.summary for r in serial] == [r.summary for r in pool]
        for kind in ("profiles", "lints"):
            serial_files = self._files(tmp_path / "serial" / kind)
            assert len(serial_files) == len(self.APPS)
            assert serial_files == self._files(tmp_path / "pool" / kind)
        assert serial_count == pool_count == len(self.APPS)

        for tracer, in_process in ((serial_tracer, True),
                                   (pool_tracer, False)):
            spans = [e for e in tracer.events if e.name == "job"]
            assert sorted(
                (e.args["app"], e.args["trace_id"]) for e in spans
            ) == sorted(zip(self.APPS, self.TRACE_IDS))
            assert all((e.pid == os.getpid()) == in_process for e in spans)


class TestUntracedMetrics:
    """A service counts worker jobs whether or not it traces.

    ``worker_jobs``/``worker_job_seconds`` are metrics, not spans: an
    untraced service must count them in serial and pool mode alike,
    and an untraced pool worker must still record no spans.
    """

    APPS = ("klt", "canny")

    def _count(self, jobs):
        from repro.service import DesignService

        with DesignService(jobs=jobs) as service:
            assert not service.tracer.enabled
            service.submit_many([_job(app) for app in self.APPS])
            mode = service.execution_mode
            counts = {
                app: (
                    service.metrics.counter(
                        "worker_jobs", labels={"app": app}
                    ),
                    service.metrics.timer_stats(
                        "worker_job_seconds", labels={"app": app}
                    )["count"],
                )
                for app in self.APPS
            }
        return mode, counts

    def test_serial_service_counts_worker_jobs(self):
        mode, counts = self._count(1)
        assert mode == "serial"
        assert counts == {app: (1, 1) for app in self.APPS}

    def test_pool_service_counts_worker_jobs(self):
        mode, counts = self._count(2)
        if mode != "parallel":
            pytest.skip("platform cannot fork a worker pool")
        assert counts == {app: (1, 1) for app in self.APPS}

    def test_untraced_pool_worker_ships_metrics_but_no_spans(self):
        from repro.service.executor import _pool_job

        result, spans, metrics = _pool_job(
            _job("klt"), "", False, True, False, False
        )
        assert result.summary and result.result is None
        assert spans == []
        assert metrics is not None and "worker_jobs" in repr(metrics)
        _, spans, metrics = _pool_job(
            _job("klt"), "", True, False, False, False
        )
        assert [s["name"] for s in spans].count("job") == 1
        assert metrics is None
