"""Golden regression for ``repro explain --json`` on the paper apps.

The provenance event list is the designer's machine-readable decision
log; downstream tooling (and DESIGN.md's examples) depend on its exact
content *and* ordering. These tests pin the full JSON output for all
four paper applications, for the proposed design and for the paper's
NoC-only comparison design (``--noc-only``). Regenerate after an
intentional behaviour change with::

    for app in canny jpeg klt fluid; do
        PYTHONPATH=src python -m repro explain $app --json \
            > tests/goldens/explain_$app.json
        PYTHONPATH=src python -m repro explain $app --json --noc-only \
            > tests/goldens/explain_${app}_noc_only.json
    done
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.apps.registry import APP_NAMES
from repro.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


#: ``(app, golden file suffix, extra explain arguments)``; the NoC-only
#: cases are labelled ``<app>-noc-only``.
CASES = [
    pytest.param(app, suffix, extra, id=app + label)
    for suffix, extra, label in (
        ("", [], ""), ("_noc_only", ["--noc-only"], "-noc-only"),
    )
    for app in APP_NAMES
]


def explain_json(app: str, capsys, extra=()) -> str:
    assert main(["explain", app, "--json", *extra]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("app, suffix, extra", CASES)
def test_explain_json_matches_golden(app, suffix, extra, capsys):
    golden = (GOLDEN_DIR / f"explain_{app}{suffix}.json").read_text()
    assert explain_json(app, capsys, extra) == golden


@pytest.mark.parametrize("app, suffix, extra", CASES)
def test_explain_json_event_ordering_is_stable(app, suffix, extra, capsys):
    """Sequence numbers are contiguous and sorted — the ordering the
    golden files rely on is structural, not incidental."""
    events = json.loads(explain_json(app, capsys, extra))
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert events[0]["stage"] == "config"


def test_explain_json_is_deterministic(capsys):
    runs = {explain_json("jpeg", capsys) for _ in range(3)}
    assert len(runs) == 1
