"""Tests for plan validation (the analyzer's plan rules) and JSON
serialization."""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.analyze import Severity, analyze_plan
from repro.core import CommGraph, DesignConfig, KernelSpec, design_interconnect
from repro.core.plan import InterconnectPlan, KernelMapping
from repro.core.sharing import SharedMemoryLink
from repro.core.topology import KernelAttach, MemoryAttach, ReceiveClass, SendClass
from repro.errors import ConfigurationError, DesignError
from repro.io import (
    graph_from_dict,
    graph_to_dict,
    load_json,
    plan_from_dict,
    plan_to_dict,
    profile_from_dict,
    profile_to_dict,
    save_json,
)

THETA = 1.3e-9


def sample_graph():
    ks = {
        "p": KernelSpec("p", 10_000.0, 80_000.0, streams_host_io=True),
        "c": KernelSpec("c", 20_000.0, 160_000.0, parallelizable=True),
        "d": KernelSpec("d", 5_000.0, 40_000.0),
    }
    return CommGraph(
        kernels=ks,
        kk_edges={("p", "c"): 1000, ("p", "d"): 500, ("c", "d"): 800},
        host_in={"p": 2000},
        host_out={"d": 3000},
    )


def sample_plan():
    return design_interconnect(
        "sample", sample_graph(),
        DesignConfig(theta_s_per_byte=THETA, stream_overhead_s=1e-6),
    )


def errors(plan):
    """The analyzer's error diagnostics on ``plan``."""
    return analyze_plan(plan).at_least(Severity.ERROR)


def _drop_noc_endpoint_mapping(d):
    producer = d["noc"]["edges"][0]["producer"]
    d["mappings"] = [m for m in d["mappings"] if m["kernel"] != producer]


def _noc_edge_from_unknown_kernel(d):
    consumer = d["noc"]["edges"][0]["consumer"]
    d["noc"]["edges"].append(
        {"producer": "ghost", "consumer": consumer, "bytes": 64}
    )


def _sharing_with_unknown_endpoint(d):
    d["sharing"].append(
        {"producer": "ghost", "consumer": "phantom", "bytes": 64,
         "crossbar": False}
    )


def _placement_missing_a_node(d):
    del d["noc"]["positions"][next(iter(d["noc"]["positions"]))]


def _duplication_of_unknown_kernel(d):
    d["duplications"].append(
        {"kernel": "ghost", "delta_dp_seconds": 1e-3, "applied": True,
         "reason": "applied"}
    )


def _pipeline_on_unknown_kernel(d):
    d["pipeline"].append(
        {"case": "case2", "kernel": "ghost", "consumer": "phantom",
         "delta_seconds": 1e-3, "applied": True, "reason": "applied"}
    )


class TestValidate:
    def test_designer_plans_are_valid(self, all_results):
        for r in all_results.values():
            assert errors(r.plan) == ()
            assert errors(r.noc_only_plan) == ()

    def test_fuzz_style_plan_valid(self):
        assert errors(sample_plan()) == ()

    @pytest.mark.parametrize(
        "tamper,rule",
        [
            (_drop_noc_endpoint_mapping, "P003"),
            (_noc_edge_from_unknown_kernel, "P006"),
            (_sharing_with_unknown_endpoint, "P002"),
            (_placement_missing_a_node, "P009"),
            (_duplication_of_unknown_kernel, "P004"),
            (_pipeline_on_unknown_kernel, "P007"),
        ],
    )
    def test_tampered_json_plan_is_an_error_not_a_crash(self, tamper, rule):
        data = plan_to_dict(sample_plan())
        tampered = copy.deepcopy(data)
        tamper(tampered)
        plan = plan_from_dict(tampered)  # the loader accepts the shape
        assert rule in {d.rule for d in errors(plan)}

    def test_infeasible_mapping_detected(self):
        plan = sample_plan()
        bad = dict(plan.mappings)
        name = next(iter(bad))
        bad[name] = KernelMapping(
            kernel=name,
            receive=ReceiveClass.R1,
            send=SendClass.S2,
            attach_kernel=KernelAttach.K1,
            attach_memory=MemoryAttach.M2,
        )
        broken = dataclasses.replace(plan, mappings=bad)
        assert any(
            d.rule == "P003" and "infeasible" in d.message
            for d in errors(broken)
        )

    def test_non_exclusive_sharing_detected(self):
        plan = sample_plan()
        # p sends to several consumers, so p->d cannot be a sharing pair.
        broken = dataclasses.replace(
            plan,
            sharing=(SharedMemoryLink("p", "d", 500, crossbar=True),),
        )
        assert any(
            d.rule == "P002" and "not exclusive" in d.message
            for d in errors(broken)
        )

    def test_missing_crossbar_detected(self):
        ks = {
            "a": KernelSpec("a", 10.0, 10.0),
            "b": KernelSpec("b", 10.0, 10.0),
        }
        g = CommGraph(kernels=ks, kk_edges={("a", "b"): 100},
                      host_out={"b": 50})
        plan = design_interconnect(
            "x", g, DesignConfig(theta_s_per_byte=THETA)
        )
        assert errors(plan) == ()
        broken = dataclasses.replace(
            plan,
            sharing=(SharedMemoryLink("a", "b", 100, crossbar=False),),
        )
        assert any(
            d.rule == "P002" and "missing crossbar" in d.message
            for d in errors(broken)
        )

    def test_uncovered_edge_detected(self):
        plan = sample_plan()
        assert plan.noc is not None
        chopped = dataclasses.replace(
            plan.noc, edges=plan.noc.edges[:-1]
        )
        broken = dataclasses.replace(plan, noc=chopped)
        assert any(
            d.rule == "P006" and "neither a shared memory nor the NoC"
            in d.message
            for d in errors(broken)
        )


class TestProfileRoundTrip:
    def test_roundtrip(self, fitted_apps):
        profile = fitted_apps["jpeg"].app.profile()
        data = profile_to_dict(profile)
        back = profile_from_dict(data)
        assert {(e.producer, e.consumer, e.bytes, e.umas) for e in back.edges} == {
            (e.producer, e.consumer, e.bytes, e.umas) for e in profile.edges
        }
        assert back.entry_name == profile.entry_name
        for f in profile.functions:
            assert back.function(f.name).work == f.work

    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            profile_from_dict({"kind": "plan", "version": 1})

    def test_wrong_version_rejected(self):
        with pytest.raises(ConfigurationError):
            profile_from_dict({"kind": "profile", "version": 99})


class TestGraphRoundTrip:
    def test_roundtrip(self):
        g = sample_graph()
        back = graph_from_dict(graph_to_dict(g))
        assert back.kk_edges == g.kk_edges
        assert dict(back.host_in) == dict(g.host_in)
        for k in g.kernel_names():
            assert back.kernel(k) == g.kernel(k)

    def test_tampered_graph_rejected_by_constructor(self):
        data = graph_to_dict(sample_graph())
        data["kk_edges"][0]["producer"] = "ghost"
        with pytest.raises(DesignError):
            graph_from_dict(data)


class TestPlanRoundTrip:
    def test_roundtrip_preserves_everything(self):
        plan = sample_plan()
        back = plan_from_dict(plan_to_dict(plan))
        assert back.app == plan.app
        assert back.sharing == plan.sharing
        assert back.duplications == plan.duplications
        assert back.pipeline == plan.pipeline
        assert back.mappings == dict(plan.mappings)
        assert back.noc.placement.positions == plan.noc.placement.positions
        assert back.noc.edges == plan.noc.edges
        assert back.component_counts() == plan.component_counts()
        assert back.solution_label() == plan.solution_label()

    def test_roundtripped_plan_validates(self):
        plan = sample_plan()
        assert errors(plan_from_dict(plan_to_dict(plan))) == ()

    def test_roundtrip_paper_plans(self, all_results):
        for r in all_results.values():
            back = plan_from_dict(plan_to_dict(r.plan))
            assert back.solution_label() == r.plan.solution_label()
            assert back.component_counts() == r.plan.component_counts()

    def test_plan_without_noc(self, all_results):
        plan = all_results["klt"].plan
        back = plan_from_dict(plan_to_dict(plan))
        assert back.noc is None


class TestFileHelpers:
    def test_save_and_load(self, tmp_path):
        plan = sample_plan()
        path = tmp_path / "plan.json"
        save_json(plan_to_dict(plan), path)
        back = plan_from_dict(load_json(path))
        assert back.solution_label() == plan.solution_label()
