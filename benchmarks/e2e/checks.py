"""Output checks: the committed goldens and per-result sanity.

``goldens.json`` holds the sha256 of the canonical JSON of
``result_summary`` for each job of :func:`workloads.check_set`. Run this
file to print the current digests, for instance to regenerate the
goldens after a deliberate change to the flow's outputs::

    PYTHONPATH=src python benchmarks/e2e/checks.py > benchmarks/e2e/goldens.json
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
from typing import Any, Dict, List, Mapping

from repro import run_experiment
from repro.flow import SUMMARY_FIELDS, result_summary
from repro.io import canonical_json

from workloads import Job, check_set

GOLDENS = pathlib.Path(__file__).with_name("goldens.json")


def summarize(job: Job) -> Dict[str, Any]:
    """The in-process ``result_summary`` for one job."""
    return result_summary(run_experiment(
        job.app, scale=job.scale, seed=job.seed, graph_source=job.graph_source,
    ))


def canonical(summary: Mapping[str, Any]) -> str:
    return canonical_json(dict(summary))


def digest(summary: Mapping[str, Any]) -> str:
    return hashlib.sha256(canonical(summary).encode("utf-8")).hexdigest()


def sane(summary: Mapping[str, Any]) -> bool:
    """Every summary field present, and every number finite."""
    if set(summary) != set(SUMMARY_FIELDS):
        return False
    return all(
        math.isfinite(v) for v in summary.values()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    )


def current_digests() -> Dict[str, str]:
    return {job.label: digest(summarize(job)) for job in check_set()}


def golden_mismatches() -> List[str]:
    """Labels of check-set jobs whose summary no longer matches."""
    goldens = json.loads(GOLDENS.read_text())
    current = current_digests()
    return sorted(k for k in goldens.keys() | current.keys()
                  if goldens.get(k) != current.get(k))


if __name__ == "__main__":
    print(json.dumps(current_digests(), indent=2, sort_keys=True))
