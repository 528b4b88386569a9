"""Simulator conformance against frozen goldens.

The simulator has one event engine (:mod:`repro.sim.engine`). It fuses
provably uncontended timed operations instead of queueing them, and
that optimization is only admissible because it is *unobservable*:
every result, recorder sample and rendered timeline must stay
byte-identical to what the never-fusing heap engine produced. The
golden document ``tests/goldens/sim_conformance.json`` freezes those
outputs, and this module checks a live engine against it — no
tolerances, no ``isclose``.

What is pinned per (case, system), for the baseline, pipelined-baseline
and proposed systems:

* the ``repr`` of every :class:`~repro.sim.systems.SimulatedTimes`
  field (``asdict`` — makespans, extras counters, per-kernel spans), so
  a one-ULP drift is reported per field with both values in full;
* the sample count and sha256 of each
  :class:`~repro.obs.profile.recorder.TimeseriesRecorder` stream
  (activities, occupancy edges, deliveries), in order;
* the :func:`~repro.sim.timeline.timeline_digest` of the run.

The cases are the four paper applications (as calibrated by the test
suite's ``fitted_apps`` fixture) and the pinned fuzz corpus
``generate_case(FuzzSpec(), CORPUS_SEED, i)`` for ``i < CORPUS_SIZE``.
The corpus matters: fusion bugs that only show under contention leave
the four paper apps untouched.

Engine-implementation counters (``events_processed`` and
``fused_events`` on the engine object) are deliberately outside the
contract: fusion changes how many discrete events run, by design.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..apps import fit_application, get_application
from ..apps.registry import APP_NAMES
from ..core.commgraph import CommGraph
from ..core.designer import DesignConfig, design_interconnect
from ..core.plan import InterconnectPlan
from ..obs.profile.recorder import TimeseriesRecorder
from ..sim.systems import (
    SimulatedTimes,
    SystemParams,
    simulate_baseline,
    simulate_pipelined_baseline,
    simulate_proposed,
)
from ..sim.timeline import timeline_digest
from .generate import FuzzSpec, GeneratedCase, generate_case
from .oracle import Violation

__all__ = [
    "CORPUS_SEED",
    "CORPUS_SIZE",
    "GOLDEN_VERSION",
    "SYSTEMS",
    "build_goldens",
    "conformance_sweep",
    "corpus_cases",
    "diff_fingerprint",
    "fingerprint_case",
    "fingerprint_run",
    "golden_conformance_check",
    "load_goldens",
    "paper_app_fingerprints",
    "simulate_system",
    "write_goldens",
]

#: Bumped when the fingerprint layout changes (not when results do).
GOLDEN_VERSION = 1

#: The pinned fuzz corpus: same seed, same indices, forever. A failure
#: reproduces from ``generate_case(FuzzSpec(), CORPUS_SEED, index)``.
CORPUS_SEED = 2026
CORPUS_SIZE = 50

#: The systems a conformance pass exercises per case.
SYSTEMS: Tuple[str, ...] = ("baseline", "pipelined", "proposed")

Fingerprint = Dict[str, Any]


def _stream_digest(samples: Sequence[object]) -> Dict[str, Any]:
    text = repr(list(samples)).encode()
    return {"count": len(samples), "sha256": hashlib.sha256(text).hexdigest()}


def fingerprint_run(
    result: SimulatedTimes, recorder: TimeseriesRecorder
) -> Fingerprint:
    """Everything observable about one simulation, as golden JSON."""
    return {
        "times": {k: repr(v) for k, v in sorted(asdict(result).items())},
        "streams": {
            "activities": _stream_digest(recorder.activities),
            "occupancy": _stream_digest(recorder.occupancy_samples),
            "deliveries": _stream_digest(recorder.deliveries),
        },
        "timeline_digest": timeline_digest(result),
    }


def simulate_system(
    system: str,
    graph: CommGraph,
    plan: InterconnectPlan,
    params: SystemParams,
    recorder: Optional[TimeseriesRecorder],
) -> SimulatedTimes:
    """Run one of :data:`SYSTEMS` with ``recorder`` attached (or none)."""
    if system == "baseline":
        return simulate_baseline(graph, 0.0, params, recorder=recorder)
    if system == "pipelined":
        return simulate_pipelined_baseline(graph, 0.0, params, recorder=recorder)
    return simulate_proposed(plan, 0.0, params, recorder=recorder)


def fingerprint_case(
    graph: CommGraph, plan: InterconnectPlan, params: SystemParams
) -> Dict[str, Fingerprint]:
    """Fingerprint all three systems of one case, recorders attached."""
    out: Dict[str, Fingerprint] = {}
    for system in SYSTEMS:
        recorder = TimeseriesRecorder()
        result = simulate_system(system, graph, plan, params, recorder)
        out[system] = fingerprint_run(result, recorder)
    return out


def diff_fingerprint(
    label: str, golden: Fingerprint, live: Fingerprint
) -> List[Violation]:
    """Field-precise diff of a live run against its golden fingerprint.

    One violation per differing result field (both ``repr`` values in
    full, so a failure is diagnosable from the report alone), per
    differing recorder stream, and for a differing timeline digest.
    """
    violations: List[Violation] = []
    g_times, l_times = golden["times"], live["times"]
    for key in sorted(set(g_times) | set(l_times)):
        a, b = g_times.get(key), l_times.get(key)
        if a != b:
            violations.append(
                Violation("sim_results", f"{label}.{key}", f"golden {a} != live {b}")
            )
    for name, g in golden["streams"].items():
        got = live["streams"][name]
        if got != g:
            violations.append(
                Violation(
                    "sim_profile",
                    f"{label}.{name}",
                    f"golden {g['count']} samples sha256 {g['sha256'][:16]} "
                    f"!= live {got['count']} samples sha256 {got['sha256'][:16]}",
                )
            )
    if golden["timeline_digest"] != live["timeline_digest"]:
        violations.append(
            Violation(
                "sim_timeline",
                label,
                f"timeline digests differ: golden "
                f"{golden['timeline_digest'][:16]} != live "
                f"{live['timeline_digest'][:16]}",
            )
        )
    return violations


def golden_conformance_check(
    case: GeneratedCase, golden: Mapping[str, Fingerprint]
) -> List[Violation]:
    """Check one corpus case's three systems against its golden entry.

    An empty list is the conformance proof for this case; any entry is
    a counterexample.
    """
    plan = design_interconnect(case.label(), case.graph, case.config())
    live = fingerprint_case(case.graph, plan, case.params)
    violations: List[Violation] = []
    for system in SYSTEMS:
        violations.extend(
            diff_fingerprint(
                f"{case.label()}.{system}", golden[system], live[system]
            )
        )
    return violations


def corpus_cases() -> List[GeneratedCase]:
    """The pinned fuzz corpus the goldens cover."""
    return [
        generate_case(FuzzSpec(), CORPUS_SEED, i) for i in range(CORPUS_SIZE)
    ]


def conformance_sweep(
    cases: Sequence[GeneratedCase],
    goldens: Mapping[str, Any],
    on_case: Optional[Callable[[GeneratedCase, List[Violation]], Any]] = None,
) -> List[Violation]:
    """Run :func:`golden_conformance_check` over corpus cases.

    ``goldens`` is the loaded golden document. ``on_case`` (optional)
    observes each case's violations as they are produced — the test
    suite uses it to attach case labels to failures without re-running
    anything.
    """
    corpus = goldens["corpus"]
    all_violations: List[Violation] = []
    for case in cases:
        found = golden_conformance_check(case, corpus[case.label()])
        if on_case is not None:
            on_case(case, found)
        all_violations.extend(found)
    return all_violations


def paper_app_fingerprints() -> Dict[str, Dict[str, Fingerprint]]:
    """Fingerprints of the four paper applications, fitted and designed."""
    params = SystemParams()
    theta = params.theta_s_per_byte()
    out: Dict[str, Dict[str, Fingerprint]] = {}
    for name in APP_NAMES:
        fitted = fit_application(get_application(name), theta)
        config = DesignConfig(
            theta_s_per_byte=theta, stream_overhead_s=fitted.stream_overhead_s
        )
        plan = design_interconnect(name, fitted.graph, config)
        out[name] = fingerprint_case(fitted.graph, plan, params)
    return out


def build_goldens() -> Dict[str, Any]:
    """The full golden document from the live engine."""
    corpus = {}
    for case in corpus_cases():
        plan = design_interconnect(case.label(), case.graph, case.config())
        corpus[case.label()] = fingerprint_case(case.graph, plan, case.params)
    return {
        "kind": "sim-conformance",
        "version": GOLDEN_VERSION,
        "corpus_seed": CORPUS_SEED,
        "corpus_size": CORPUS_SIZE,
        "apps": paper_app_fingerprints(),
        "corpus": corpus,
    }


def write_goldens(path: "str | Path") -> None:
    """Regenerate the golden document at ``path``."""
    text = json.dumps(build_goldens(), indent=1, sort_keys=True) + "\n"
    Path(path).write_text(text)


def load_goldens(path: "str | Path") -> Dict[str, Any]:
    """Load and version-check a golden document."""
    doc = json.loads(Path(path).read_text())
    if doc.get("kind") != "sim-conformance" or doc.get("version") != GOLDEN_VERSION:
        raise ValueError(
            f"{path}: not a sim-conformance v{GOLDEN_VERSION} golden document"
        )
    return doc
