"""Design-service layer: cached, parallel experiment execution.

Turns the one-shot :func:`repro.flow.run_experiment` flow into a
throughput-oriented engine for high-volume studies:

* :class:`DesignJob` — immutable, content-addressed job spec;
* :class:`ResultCache` — two-tier (LRU + on-disk JSON) result cache;
* :func:`run_job` — the one job body, returning a :class:`JobResult`;
* :class:`JobRunner` / :class:`ExecutorConfig` — runs batches of jobs
  in-process or in a worker pool, with timeout, retry, and serial
  fallback;
* :class:`MetricsRegistry` — counters and latency percentiles;
* :class:`DesignService` — the facade (``submit`` / ``submit_many`` /
  ``stats``) that :func:`repro.sweep.run_sweep` and the ``repro sweep``
  CLI execute through.
"""

from .api import DesignService
from .cache import CacheStats, ResultCache
from .executor import ExecutorConfig, JobResult, JobRunner, run_job
from .jobs import DesignJob, job_for_point
from .metrics import MetricsRegistry, percentile

__all__ = [
    "CacheStats",
    "DesignJob",
    "DesignService",
    "ExecutorConfig",
    "JobResult",
    "JobRunner",
    "MetricsRegistry",
    "ResultCache",
    "job_for_point",
    "percentile",
    "run_job",
]
