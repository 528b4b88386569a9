"""Frozen bus and DMA counters of the proposed system.

``tests/goldens/sim_counters.json`` pins the :func:`collect_stats`
fields that ``sim_conformance.json`` does not: bus transactions, bytes,
contentions and peak waiters, and the DMA peak queue. They are what a
faster bus lane could miscount while every makespan still matches: a
hand-off that forgets a contention or a burst, or a waiter queued
outside the arbiter. The cases are ``simulate_proposed`` on the four
paper applications at scales 1 and 2, on both graph sources, at seed
2014, and on the pinned conformance corpus (50 generated cases and
one hand-built case of contending DMA transfers). Each case runs with no
recorder (the way ``run_experiment`` simulates) and with a
``TimeseriesRecorder`` attached, against the same entry.

The engine counters (``engine_events``, ``engine_fused_events``) are
left out: running fewer events is what an engine optimization does.
Regenerate only after an intentional change to simulated behaviour:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
    from test_sim_counters import write_counter_goldens; write_counter_goldens()"
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.apps import fit_application, get_application
from repro.apps.registry import APP_NAMES
from repro.core.designer import DesignConfig, design_interconnect
from repro.obs.profile.recorder import TimeseriesRecorder
from repro.sim.stats import collect_stats
from repro.sim.systems import SystemParams, simulate_proposed
from repro.static.fit import fit_static
from repro.verify.conformance import corpus_cases

COUNTER_GOLDENS = Path(__file__).parent / "goldens" / "sim_counters.json"
SCALES = (1, 2)
SOURCES = ("static", "trace")
SEED = 2014

#: The :class:`~repro.sim.stats.SimulationStats` fields pinned per case.
FIELDS = (
    "bus_bytes",
    "bus_transactions",
    "bus_contentions",
    "bus_peak_waiters",
    "dma_peak_queue",
)


def app_case(name: str, scale: int, source: str):
    """``(plan, host_other_s, params)`` the way ``run_experiment`` builds them."""
    params = SystemParams()
    theta = params.theta_s_per_byte()
    app = get_application(name, scale=scale, seed=SEED)
    fit = fit_static if source == "static" else fit_application
    fitted = fit(app, theta)
    config = DesignConfig(
        theta_s_per_byte=theta, stream_overhead_s=fitted.stream_overhead_s
    )
    plan = design_interconnect(name, fitted.graph, config)
    return plan, fitted.host_other_s, params


def counters(plan, host_other_s, params, recorder=None) -> dict:
    """The pinned counters of one ``simulate_proposed`` run."""
    parts = {}
    times = simulate_proposed(
        plan, host_other_s, params, components_out=parts, recorder=recorder
    )
    stats = collect_stats(
        times, bus=parts["bus"], noc=parts.get("noc"), dma=parts["dma"],
        engine=parts["engine"],
    )
    return {f: getattr(stats, f) for f in FIELDS}


def app_key(name: str, scale: int, source: str) -> str:
    return f"{name}/x{scale}/{source}"


def _app_cases():
    for name in APP_NAMES:
        for scale in SCALES:
            for source in SOURCES:
                yield app_key(name, scale, source), app_case(name, scale, source)


def _corpus_cases():
    for case in corpus_cases():
        plan = design_interconnect(case.label(), case.graph, case.config())
        yield case.label(), (plan, 0.0, case.params)


def write_counter_goldens(path: Path = COUNTER_GOLDENS) -> None:
    """Regenerate ``sim_counters.json`` (see tests/goldens/README.md)."""
    doc = {
        "apps": {key: counters(*case) for key, case in _app_cases()},
        "corpus": {key: counters(*case) for key, case in _corpus_cases()},
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def goldens():
    return json.loads(COUNTER_GOLDENS.read_text())


def _mismatches(cases, golden):
    found = []
    for key, case in cases:
        for recorder in (None, TimeseriesRecorder()):
            live = counters(*case, recorder=recorder)
            if live != golden[key]:
                found.append((key, recorder is not None, golden[key], live))
    return found


def test_app_counters_match_goldens(goldens):
    assert set(goldens["apps"]) == {
        app_key(n, s, src) for n in APP_NAMES for s in SCALES for src in SOURCES
    }
    assert _mismatches(_app_cases(), goldens["apps"]) == []


def test_corpus_counters_match_goldens(goldens):
    cases = list(_corpus_cases())
    assert set(goldens["corpus"]) == {key for key, _ in cases}
    assert _mismatches(cases, goldens["corpus"]) == []


def test_goldens_see_bus_contention(goldens):
    # The pin has teeth only where requesters actually queue: klt's two
    # DMA fetches alternate on the bus for hundreds of bursts.
    for scale in SCALES:
        klt = goldens["apps"][app_key("klt", scale, "static")]
        assert klt["bus_contentions"] > 100
        assert klt["bus_peak_waiters"] >= 1
    assert sum(
        entry["bus_contentions"] > 0 for entry in goldens["corpus"].values()
    ) >= 5
    # The hand-built corpus case alternates two fetches and two
    # write-backs burst by burst.
    assert goldens["corpus"]["pinned[contended-dma]"]["bus_contentions"] > 20
