"""Unit tests for the recorder overhead gate (tools/overhead_gates.py).

The real measurement depends on the host's load, so these tests never
assert it; they check that the paired measurement reads about 1 for
identical sides and that a planted slowdown trips the gate with exit 1
and a ``FAIL:`` line.
"""

import importlib.util
import pathlib
import sys

import pytest

from repro.obs.profile.recorder import TimeseriesRecorder

TOOL_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "tools" / "overhead_gates.py"
)
spec = importlib.util.spec_from_file_location("overhead_gates", TOOL_PATH)
assert spec is not None and spec.loader is not None
overhead_gates = importlib.util.module_from_spec(spec)
sys.modules["overhead_gates"] = overhead_gates
spec.loader.exec_module(overhead_gates)


@pytest.fixture
def short_windows(monkeypatch):
    """Shorter timed windows: a planted 2x cost needs no 50 ms window."""
    monkeypatch.setattr(overhead_gates, "MIN_WINDOW_S", 0.01)


def _work():
    return sum(i * i for i in range(2000))


def test_identical_sides_read_about_one(short_windows):
    side = overhead_gates.batch(_work)
    assert overhead_gates.paired_ratio(side, side) <= 1.2


def test_check_prints_the_worst_app(capsys):
    assert overhead_gates.check("recorder", 2.0, {"klt": 1.01, "jpeg": 1.02})
    assert "recorder overhead ok: jpeg 1.020x" in capsys.readouterr().out


def test_recorder_gate_fails_on_a_slow_recorder_hook(
    short_windows, monkeypatch, capsys
):
    hook = TimeseriesRecorder.activity

    def slow_activity(self, *args, **kwargs):
        _work()
        return hook(self, *args, **kwargs)

    monkeypatch.setattr(TimeseriesRecorder, "activity", slow_activity)
    assert overhead_gates.main() == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL: recorder overhead on jpeg is ")
    ratio = float(err.split(" is ")[1].split("x")[0])
    assert ratio > overhead_gates.RECORDER_MAX

