"""End-to-end wiring of the static graph source.

Plan identity is the headline guarantee: wherever the static and traced
graphs agree (all of canny, KLT, and fluid), Algorithm 1 must produce a
byte-identical plan from either source.
"""

import json

import pytest

from repro.apps import fit_application, get_application
from repro.cli import main
from repro.core.designer import DesignConfig, design_interconnect
from repro.errors import ConfigurationError
from repro.flow import GRAPH_SOURCES, result_summary, run_experiment
from repro.io import canonical_json, graph_to_dict, plan_to_dict
from repro.service.executor import run_job
from repro.service.jobs import DesignJob
from repro.server.protocol import parse_design_request
from repro.sim.systems import SystemParams
from repro.static.fit import fit_static

DETERMINISTIC_APPS = ("canny", "klt", "fluid")


# -- plan identity --------------------------------------------------------
@pytest.mark.parametrize("name", DETERMINISTIC_APPS)
def test_static_and_traced_fits_are_byte_identical(name):
    theta = SystemParams().theta_s_per_byte()
    traced = fit_application(get_application(name), theta)
    static = fit_static(get_application(name), theta)
    assert canonical_json(graph_to_dict(static.graph)) == canonical_json(
        graph_to_dict(traced.graph)
    )
    assert repr(static.host_other_s) == repr(traced.host_other_s)
    assert repr(static.stream_overhead_s) == repr(traced.stream_overhead_s)


@pytest.mark.parametrize("name", DETERMINISTIC_APPS)
def test_static_and_traced_plans_are_byte_identical(name):
    theta = SystemParams().theta_s_per_byte()
    plans = []
    for fitted in (
        fit_application(get_application(name), theta),
        fit_static(get_application(name), theta),
    ):
        config = DesignConfig(
            theta_s_per_byte=theta,
            stream_overhead_s=fitted.stream_overhead_s,
        )
        plans.append(design_interconnect(name, fitted.graph, config))
    assert canonical_json(plan_to_dict(plans[0])) == canonical_json(
        plan_to_dict(plans[1])
    )


def test_jpeg_static_fit_uses_nominal_stream_extents():
    # JPEG's bitstream edges are data-dependent: the static fit uses
    # their nominals, so its graph legitimately differs from the traced
    # one — but only on those two host_in entries.
    theta = SystemParams().theta_s_per_byte()
    traced = fit_application(get_application("jpeg"), theta)
    static = fit_static(get_application("jpeg"), theta)
    assert static.graph.kk_edges == traced.graph.kk_edges
    assert static.graph.host_out == traced.graph.host_out
    differing = {
        k
        for k in traced.graph.host_in
        if static.graph.host_in[k] != traced.graph.host_in[k]
    }
    assert differing == {"huff_dc_dec", "huff_ac_dec"}


# -- run_experiment -------------------------------------------------------
def test_run_experiment_rejects_unknown_graph_source():
    assert GRAPH_SOURCES == ("trace", "static")
    with pytest.raises(ConfigurationError):
        run_experiment("canny", simulate=False, graph_source="psychic")


def test_run_experiment_static_summary_matches_traced():
    traced = run_experiment("canny", simulate=False)
    static = run_experiment("canny", simulate=False, graph_source="static")
    assert result_summary(static) == result_summary(traced)


# -- service + server wiring ----------------------------------------------
def test_design_job_graph_source_is_fingerprinted():
    a = DesignJob(app="canny", simulate=False)
    b = DesignJob(app="canny", simulate=False, graph_source="static")
    assert a.graph_source == "trace"
    assert a.fingerprint() != b.fingerprint()
    assert DesignJob.from_dict(b.to_dict()) == b
    # Documents predating the field deserialize as traced jobs.
    legacy = a.to_dict()
    del legacy["graph_source"]
    assert DesignJob.from_dict(legacy).graph_source == "trace"


def test_design_job_rejects_unknown_graph_source():
    with pytest.raises(ConfigurationError):
        DesignJob(app="canny", graph_source="psychic")


def test_run_job_routes_graph_source(monkeypatch):
    import repro.static.fit as static_fit

    calls = []
    real = static_fit.fit_static
    monkeypatch.setattr(
        static_fit, "fit_static",
        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs),
    )
    job = DesignJob(app="canny", simulate=False, graph_source="static")
    summary = run_job(job).summary
    assert len(calls) == 1
    traced_summary = run_job(DesignJob(app="canny", simulate=False)).summary
    assert len(calls) == 1  # the traced job never reaches the static fit
    assert summary == traced_summary


def test_parse_design_request_accepts_graph_source():
    job = parse_design_request(
        {"app": "canny", "simulate": False, "graph_source": "static"}
    )
    assert job.graph_source == "static"
    assert parse_design_request({"app": "canny"}).graph_source == "trace"


# -- CLI ------------------------------------------------------------------
def test_cli_static_prose_and_json(capsys):
    assert main(["static", "canny"]) == 0
    out = capsys.readouterr().out
    assert "canny: 4 kernels" in out
    assert main(["static", "canny", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "static-graph" and doc["app"] == "canny"
    assert main(["static", "--all", "--json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert [d["app"] for d in docs] == ["canny", "jpeg", "klt", "fluid"]


def test_cli_static_requires_exactly_one_target(capsys):
    assert main(["static"]) == 1
    assert main(["static", "canny", "--all"]) == 1


def test_cli_static_check_writes_diff_report(tmp_path, capsys):
    out = tmp_path / "static-diff.json"
    assert main(["static", "--all", "--check", "--diff-out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "canny: ok" in text and "jpeg: ok" in text
    doc = json.loads(out.read_text())
    assert doc["kind"] == "static-diff" and doc["ok"] is True
    assert set(doc["apps"]) == set(("canny", "jpeg", "klt", "fluid"))


def test_cli_static_check_json_single_app(capsys):
    assert main(["static", "klt", "--check", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "static-diff"
    assert list(doc["apps"]) == ["klt"]
