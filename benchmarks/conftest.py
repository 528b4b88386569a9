"""Shared benchmark fixtures.

The experiment results are computed once per session; each bench then
measures the stage that regenerates its table/figure and prints the
artifact (run with ``-s`` to see it inline; every bench also writes its
output under ``benchmarks/out/``).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.flow import run_all
from repro.sim.systems import SystemParams

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def results():
    """Full experiment results for the paper's four applications."""
    return run_all()


@pytest.fixture(scope="session")
def bench_metrics(request):
    """Session-wide metrics registry; exported at the end of the run.

    Benches time their hot paths through :func:`repro.obs.timed` into
    this registry; on teardown the aggregate is written to
    ``benchmarks/out/bench_metrics.json`` and ``.prom`` so CI can diff
    infrastructure timings across runs.
    """
    from repro.obs.export import write_metrics
    from repro.service.metrics import MetricsRegistry

    registry = MetricsRegistry()

    def _export():
        snap = registry.snapshot()
        if not any(snap[k] for k in ("counters", "gauges", "timers")):
            return
        OUT_DIR.mkdir(exist_ok=True)
        write_metrics(snap, OUT_DIR / "bench_metrics.json")
        write_metrics(snap, OUT_DIR / "bench_metrics.prom")

    request.addfinalizer(_export)
    return registry


@pytest.fixture(scope="session")
def system_params():
    return SystemParams()


@pytest.fixture(scope="session")
def theta(system_params):
    return system_params.theta_s_per_byte()


@pytest.fixture()
def emit():
    """Print an artifact and persist it under benchmarks/out/."""

    def _emit(name: str, text: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n=== {name} ===\n{text}")

    return _emit
