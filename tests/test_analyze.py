"""Tests for repro.analyze — the static diagnostics engine (repro lint).

Covers the acceptance criteria of the analyzer:

* all four paper applications lint clean (zero error diagnostics);
* the CDG deadlock proof passes on every mesh-XY placement and reports
  a concrete golden cycle witness on an unrestricted torus;
* ``--sim-crosscheck`` confirms every static bandwidth bound against
  the discrete-event simulator with zero false errors;

plus per-rule firing tests on tampered inputs, report serialization,
SARIF output, and the flow/service/fuzz integrations.
"""

import dataclasses
import json

import pytest

from repro.analyze import (
    CROSSCHECK_RULE,
    AnalysisReport,
    Diagnostic,
    Severity,
    all_rules,
    analyze_deadlock,
    analyze_plan,
    bus_demand_bytes,
    crosscheck_plan,
    get_rule,
    lane_bounds,
    report_from_dict,
    to_sarif,
)
from repro.analyze.engine import build_context
from repro.apps import fit_application, get_application
from repro.apps.registry import APP_NAMES
from repro.cli import main
from repro.core.commgraph import CommGraph
from repro.core.designer import DesignConfig, design_interconnect
from repro.core.mapping import KernelAttach, MemoryAttach
from repro.flow import run_experiment
from repro.profiling.quad import CommunicationProfile, ProfileEdge
from repro.sim.systems import SystemParams


@pytest.fixture(scope="module")
def designed():
    """Designed plans for all four paper applications."""
    params = SystemParams()
    theta = params.theta_s_per_byte()
    out = {}
    for name in APP_NAMES:
        fitted = fit_application(get_application(name), theta)
        config = DesignConfig(
            theta_s_per_byte=theta,
            stream_overhead_s=fitted.stream_overhead_s,
        )
        out[name] = (design_interconnect(name, fitted.graph, config), params)
    return out


# -- acceptance ---------------------------------------------------------------


class TestAcceptance:
    @pytest.mark.parametrize("app", APP_NAMES)
    def test_paper_apps_lint_clean(self, designed, app):
        plan, params = designed[app]
        report = analyze_plan(plan, params)
        assert report.ok, [str(d) for d in report.diagnostics]
        assert report.counts()["error"] == 0

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_crosscheck_confirms_all_bounds(self, designed, app):
        plan, params = designed[app]
        found = crosscheck_plan(plan, params)
        errors = [d for d in found if d.severity is Severity.ERROR]
        assert errors == [], [str(d) for d in errors]
        assert len(found) == 1
        assert found[0].rule == CROSSCHECK_RULE
        assert "confirms" in found[0].message
        assert found[0].evidence["confirmed"] >= 2

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_mesh_xy_placements_deadlock_free(self, designed, app):
        plan, _ = designed[app]
        if plan.noc is None:
            pytest.skip(f"{app} designs without a NoC")
        p = plan.noc.placement
        assert not p.torus
        analysis = analyze_deadlock(p.width, p.height, p.torus)
        assert analysis.deadlock_free
        assert analysis.cycle_as_strings() == []

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_noc_apps_carry_the_routing_proof(self, designed, app):
        plan, params = designed[app]
        report = analyze_plan(plan, params)
        proofs = report.by_rule("N001")
        if plan.noc is None:
            assert proofs == ()
        else:
            assert len(proofs) == 1
            assert proofs[0].severity is Severity.INFO
            assert "deadlock-free" in proofs[0].message


# -- channel dependency graph (satellite: torus coverage) ---------------------


class TestChannelDependencyGraph:
    @pytest.mark.parametrize(
        "width,height", [(2, 2), (3, 2), (4, 4), (5, 5), (5, 1)]
    )
    def test_mesh_xy_is_always_acyclic(self, width, height):
        assert analyze_deadlock(width, height, torus=False).deadlock_free

    def test_golden_cycle_witness_on_4_ring_torus(self):
        analysis = analyze_deadlock(4, 1, torus=True)
        assert not analysis.deadlock_free
        assert analysis.cycle_as_strings() == [
            "(0, 0)->(1, 0)",
            "(1, 0)->(2, 0)",
            "(2, 0)->(3, 0)",
            "(3, 0)->(0, 0)",
        ]

    def test_golden_cycle_witness_on_4x4_torus(self):
        analysis = analyze_deadlock(4, 4, torus=True)
        assert not analysis.deadlock_free
        # Deterministic DFS: the witness is the first column's y-ring.
        assert analysis.cycle_as_strings() == [
            "(0, 0)->(0, 1)",
            "(0, 1)->(0, 2)",
            "(0, 2)->(0, 3)",
            "(0, 3)->(0, 0)",
        ]

    def test_small_torus_rings_are_acyclic(self):
        # Rings of size <= 3 route every hop as the single shortest
        # step; no two consecutive same-direction wrap links exist.
        assert analyze_deadlock(3, 2, torus=True).deadlock_free
        assert analyze_deadlock(2, 2, torus=True).deadlock_free

    def test_designed_torus_plan_keeps_the_proof(self):
        # fluid's 3x2 torus is still provably deadlock-free; N001 must
        # say so rather than pattern-match "torus => cyclic".
        params = SystemParams()
        theta = params.theta_s_per_byte()
        fitted = fit_application(get_application("fluid"), theta)
        config = DesignConfig(
            theta_s_per_byte=theta,
            stream_overhead_s=fitted.stream_overhead_s,
            noc_topology="torus",
        )
        plan = design_interconnect("fluid", fitted.graph, config)
        assert plan.noc is not None and plan.noc.placement.torus
        report = analyze_plan(plan, params)
        proofs = report.by_rule("N001")
        assert len(proofs) == 1
        assert proofs[0].severity is Severity.INFO

    def test_wide_torus_placement_downgrades_to_warning(self, designed):
        plan, params = designed["canny"]
        assert plan.noc is not None
        placement = dataclasses.replace(
            plan.noc.placement, width=4, torus=True
        )
        tampered = dataclasses.replace(
            plan, noc=dataclasses.replace(plan.noc, placement=placement)
        )
        report = analyze_plan(tampered, params)
        proofs = report.by_rule("N001")
        assert len(proofs) == 1
        # store-and-forward tolerates the cycle: warning, not error.
        assert proofs[0].severity is Severity.WARNING
        assert proofs[0].evidence["cycle"]

    def test_wormhole_on_cyclic_cdg_is_an_error(self, designed):
        plan, params = designed["canny"]
        placement = dataclasses.replace(
            plan.noc.placement, width=4, torus=True
        )
        ctx = build_context(
            dataclasses.replace(
                plan, noc=dataclasses.replace(plan.noc, placement=placement)
            ),
            params=dataclasses.replace(params, noc_transport="wormhole"),
        )
        found = get_rule("N001").fn(ctx)
        assert [d.severity for d in found] == [Severity.ERROR]


# -- per-rule firing on tampered inputs ---------------------------------------


def _with_graph(plan, graph):
    return dataclasses.replace(plan, graph=graph)


class TestGraphRules:
    def test_g001_dead_kernel(self, designed):
        plan, params = designed["klt"]
        spec = next(iter(plan.graph.kernels.values()))
        idle = dataclasses.replace(spec, name="idle")
        graph = CommGraph(
            kernels={**plan.graph.kernels, "idle": idle},
            kk_edges=dict(plan.graph.kk_edges),
            host_in=dict(plan.graph.host_in),
            host_out=dict(plan.graph.host_out),
        )
        report = analyze_plan(_with_graph(plan, graph), params)
        found = report.by_rule("G001")
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING
        assert found[0].evidence["kernel"] == "idle"

    def test_g002_self_edge(self, designed):
        # CommGraph's constructor rejects self-edges, so the rule can
        # only meet one through a hand-built context (e.g. a plan
        # deserialized from a tampered JSON document).
        plan, params = designed["klt"]
        graph = CommGraph.__new__(CommGraph)
        object.__setattr__(graph, "kernels", dict(plan.graph.kernels))
        object.__setattr__(
            graph,
            "kk_edges",
            {**plan.graph.kk_edges,
             ("track_features", "track_features"): 64},
        )
        object.__setattr__(graph, "host_in", dict(plan.graph.host_in))
        object.__setattr__(graph, "host_out", dict(plan.graph.host_out))
        ctx = build_context(plan, params)
        found = get_rule("G002").fn(dataclasses.replace(ctx, graph=graph))
        assert [d.severity for d in found] == [Severity.ERROR]
        assert "track_features->track_features" in found[0].path

    def test_g003_reports_host_serialization_floor(self, designed):
        plan, params = designed["canny"]
        report = analyze_plan(plan, params)
        found = report.by_rule("G003")
        assert len(found) == 1
        assert found[0].path == "graph.host"
        assert found[0].evidence["host_bytes"] > 0

    def test_g004_uma_contradiction(self, designed):
        plan, params = designed["klt"]
        profile = CommunicationProfile(
            edges=[ProfileEdge("a", "b", bytes=128, umas=0)],
            functions=[],
        )
        report = analyze_plan(plan, params, profile=profile)
        found = report.by_rule("G004")
        assert len(found) == 1
        assert "zero unique memory addresses" in found[0].message

    def test_g005_hints_on_declined_pairs(self, designed):
        plan, params = designed["canny"]
        found = analyze_plan(plan, params).by_rule("G005")
        assert found
        assert all(d.severity is Severity.HINT for d in found)


class TestPlanRules:
    def test_p001_covers_bus_and_every_noc_link(self, designed):
        plan, params = designed["canny"]
        found = analyze_plan(plan, params).by_rule("P001")
        paths = {d.path for d in found}
        assert "lanes.bus" in paths
        bounds = lane_bounds(plan, params)
        assert len(found) == 1 + len(bounds.link_loads)

    def test_p002_sharing_byte_mismatch(self, designed):
        plan, params = designed["klt"]
        assert plan.sharing
        link = plan.sharing[0]
        tampered = dataclasses.replace(
            plan,
            sharing=(dataclasses.replace(link, bytes=link.bytes + 1),),
        )
        report = analyze_plan(tampered, params)
        errors = report.by_rule("P002")
        assert errors and all(
            d.severity is Severity.ERROR for d in errors
        )

    def test_p003_infeasible_mapping(self, designed):
        plan, params = designed["klt"]
        name, mapping = next(iter(plan.mappings.items()))
        tampered = dataclasses.replace(
            plan,
            mappings={
                **plan.mappings,
                name: dataclasses.replace(
                    mapping,
                    attach_kernel=KernelAttach.K1,
                    attach_memory=MemoryAttach.M2,
                ),
            },
        )
        report = analyze_plan(tampered, params)
        errors = report.by_rule("P003")
        assert errors
        assert any("infeasible" in d.message.lower() for d in errors)

    def test_p003_unmapped_kernel(self, designed):
        plan, params = designed["klt"]
        mappings = dict(plan.mappings)
        mappings.pop(next(iter(mappings)))
        report = analyze_plan(
            dataclasses.replace(plan, mappings=mappings), params
        )
        assert any(
            d.severity is Severity.ERROR for d in report.by_rule("P003")
        )

    def test_p004_applied_duplication_with_no_gain(self, designed):
        plan, params = designed["klt"]
        assert plan.duplications
        bad = dataclasses.replace(
            plan.duplications[0], applied=True, delta_dp_seconds=-1e-6
        )
        report = analyze_plan(
            dataclasses.replace(
                plan, duplications=(bad,) + plan.duplications[1:]
            ),
            params,
        )
        assert any(
            d.severity is Severity.ERROR for d in report.by_rule("P004")
        )

    def test_p004_reports_utilization_when_fitting(self, designed):
        plan, params = designed["canny"]
        found = analyze_plan(plan, params).by_rule("P004")
        fit = [d for d in found if d.path == "resources"]
        assert len(fit) == 1
        assert fit[0].severity is Severity.HINT

    def test_p005_scores_placement(self, designed):
        plan, params = designed["canny"]
        found = analyze_plan(plan, params).by_rule("P005")
        assert len(found) == 1
        assert 0.0 < found[0].evidence["efficiency"] <= 1.0

    def test_p006_phantom_noc_edge(self, designed):
        plan, params = designed["canny"]
        assert plan.noc is not None
        kernels = list(plan.graph.kernel_names())
        tampered = dataclasses.replace(
            plan,
            noc=dataclasses.replace(
                plan.noc,
                edges=plan.noc.edges + ((kernels[0], kernels[-1], 64),),
            ),
        )
        report = analyze_plan(tampered, params)
        assert any(
            d.severity is Severity.ERROR for d in report.by_rule("P006")
        )


    def test_p007_rederives_delta_only_with_provenance(self, designed):
        from repro.io import plan_from_dict, plan_to_dict

        plan, params = designed["canny"]
        d = plan.pipeline[0]
        tampered = dataclasses.replace(
            plan,
            pipeline=(
                dataclasses.replace(d, delta_seconds=d.delta_seconds + 1e-6),
            ) + plan.pipeline[1:],
        )
        found = analyze_plan(tampered, params).by_rule("P007")
        assert [x.severity for x in found] == [Severity.ERROR]
        assert "formula gives" in found[0].message
        # θ and O come from the config event; without provenance the
        # formula check has nothing to re-derive from.
        stripped = plan_from_dict(plan_to_dict(tampered))
        assert analyze_plan(stripped, params).by_rule("P007") == ()

    def test_p009_torus_flag_must_match_the_config(self, designed):
        plan, params = designed["canny"]
        assert plan.noc is not None and not plan.noc.placement.torus
        tampered = dataclasses.replace(
            plan,
            noc=dataclasses.replace(
                plan.noc,
                placement=dataclasses.replace(plan.noc.placement, torus=True),
            ),
        )
        found = analyze_plan(tampered, params).by_rule("P009")
        assert len(found) == 1 and "topology 'mesh'" in found[0].message


class TestNocRules:
    def test_n002_reports_load_balance(self, designed):
        plan, params = designed["canny"]
        found = analyze_plan(plan, params).by_rule("N002")
        assert len(found) == 1
        assert found[0].evidence["max_channel_load"] > 0

    def test_n003_invalid_link_width(self, designed):
        plan, params = designed["canny"]
        ctx = build_context(
            plan, dataclasses.replace(params, noc_link_width_bytes=0)
        )
        found = get_rule("N003").fn(ctx)
        assert [d.severity for d in found] == [Severity.ERROR]
        assert found[0].path == "noc.params"

    def test_n003_packet_smaller_than_phit(self, designed):
        plan, params = designed["canny"]
        ctx = build_context(
            plan,
            dataclasses.replace(
                params, noc_link_width_bytes=8, noc_max_packet_bytes=4
            ),
        )
        found = get_rule("N003").fn(ctx)
        assert [d.severity for d in found] == [Severity.ERROR]

    def test_rules_skip_nocless_plans(self, designed):
        plan, params = designed["klt"]
        report = analyze_plan(plan, params)
        for rule in ("N001", "N002", "P005"):
            assert report.by_rule(rule) == ()


# -- crosscheck adversarial ---------------------------------------------------


class TestCrosscheck:
    def test_tampered_bus_bound_is_refuted(self, designed):
        plan, params = designed["klt"]
        bounds = lane_bounds(plan, params)
        inflated = dataclasses.replace(
            bounds, bus_bytes=bounds.bus_bytes + 4096
        )
        found = crosscheck_plan(plan, params, bounds=inflated)
        errors = [d for d in found if d.severity is Severity.ERROR]
        assert errors, "inflated static bound must be refuted"
        assert all(d.rule == CROSSCHECK_RULE for d in errors)

    def test_bus_demand_matches_simulated_bytes(self, designed):
        # The static bus demand is exact, not just a bound — the
        # crosscheck asserts byte equality, so pin the helper too.
        from repro.sim.systems import simulate_proposed

        for app in APP_NAMES:
            plan, params = designed[app]
            components = {}
            simulate_proposed(
                plan, 0.0, params, components_out=components
            )
            assert components["bus"].bytes_moved == bus_demand_bytes(plan)


# -- report & serialization ---------------------------------------------------


class TestReport:
    def test_severity_ordering(self):
        assert Severity.ERROR.rank > Severity.WARNING.rank
        assert Severity.WARNING.rank > Severity.INFO.rank
        assert Severity.INFO.rank > Severity.HINT.rank
        assert Severity.ERROR.at_least(Severity.WARNING)
        assert not Severity.HINT.at_least(Severity.INFO)

    def test_report_round_trip(self, designed):
        plan, params = designed["canny"]
        report = analyze_plan(plan, params)
        doc = report.to_dict()
        again = report_from_dict(doc)
        assert again.app == report.app
        assert again.counts() == report.counts()
        assert again.to_dict() == doc

    def test_report_render_mentions_counts_and_fixes(self, designed):
        plan, params = designed["canny"]
        report = analyze_plan(plan, params)
        text = report.render()
        assert text.splitlines()[0].startswith("lint canny:")
        assert "0 error" in text
        # Suggestions render as "fix:" lines.
        flagged = report.extended(
            [
                Diagnostic(
                    rule="X999",
                    severity=Severity.WARNING,
                    path="test",
                    message="synthetic",
                    suggestion="do the thing",
                )
            ]
        )
        rendered = flagged.render()
        assert "fix: do the thing" in rendered
        # Severity sorts first: the warning leads the findings.
        assert rendered.splitlines()[1].lstrip().startswith("warning")

    def test_extended_appends_diagnostics(self, designed):
        plan, params = designed["klt"]
        report = analyze_plan(plan, params)
        extra = Diagnostic(
            rule="X999",
            severity=Severity.ERROR,
            path="test",
            message="synthetic",
        )
        grown = report.extended([extra])
        assert not grown.ok
        assert report.ok  # original untouched
        assert grown.counts()["error"] == 1

    def test_at_least_thresholds(self, designed):
        plan, params = designed["klt"]
        report = analyze_plan(plan, params)
        assert not report.at_least(Severity.WARNING)
        assert report.at_least(Severity.INFO)
        assert report.at_least(Severity.HINT)


class TestSarif:
    def test_sarif_document_shape(self, designed):
        reports = [
            analyze_plan(plan, params)
            for plan, params in designed.values()
        ]
        doc = to_sarif(reports)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {r.id for r in all_rules()} <= rule_ids
        assert CROSSCHECK_RULE in rule_ids
        assert len(run["results"]) == sum(
            len(r.diagnostics) for r in reports
        )
        levels = {r["level"] for r in run["results"]}
        assert levels <= {"error", "warning", "note"}


# -- integrations -------------------------------------------------------------


class TestIntegrations:
    def test_run_experiment_lint_flag(self):
        result = run_experiment("klt", lint=True)
        assert isinstance(result.lint, AnalysisReport)
        assert result.lint.ok
        assert run_experiment("klt").lint is None

    def test_analyzer_check_feeds_the_fuzz_oracle(self, designed):
        from repro.verify import analyzer_check

        plan, params = designed["canny"]
        assert analyzer_check(plan, params) == []
        kernels = list(plan.graph.kernel_names())
        tampered = dataclasses.replace(
            plan,
            noc=dataclasses.replace(
                plan.noc,
                edges=plan.noc.edges + ((kernels[0], kernels[-1], 64),),
            ),
        )
        violations = analyzer_check(tampered, params)
        assert violations
        # Each violation is named by the rule that found it.
        assert {v.check for v in violations} == {"P006"}

    def test_service_persists_lint_reports(self, tmp_path):
        from repro.service import DesignService
        from repro.service.jobs import DesignJob

        service = DesignService(jobs=1, lint_dir=tmp_path / "lints")
        result = service.submit(DesignJob(app="jpeg"))
        assert result.lint is not None and result.lint["ok"]
        files = list((tmp_path / "lints").glob("*.lint.json"))
        assert len(files) == 1
        doc = json.loads(files[0].read_text())
        assert doc["kind"] == "lint-report"
        assert doc["fingerprint"] == result.fingerprint
        assert doc["report"]["app"] == "jpeg"
        hit = service.submit(DesignJob(app="jpeg"))
        assert hit.cached and hit.lint is None
        assert len(list((tmp_path / "lints").glob("*.lint.json"))) == 1


# -- CLI ----------------------------------------------------------------------


class TestCli:
    def test_lint_single_app_clean(self, capsys):
        assert main(["lint", "klt"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("lint klt:")

    def test_lint_needs_exactly_one_target(self, capsys):
        assert main(["lint"]) == 1
        assert main(["lint", "klt", "--all"]) == 1

    def test_lint_json_all(self, capsys):
        assert main(["lint", "--all", "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [d["app"] for d in docs] == list(APP_NAMES)
        assert all(d["kind"] == "lint-report" for d in docs)

    def test_lint_fail_on_thresholds(self, capsys):
        # klt lints clean of errors/warnings but has info+hint findings.
        assert main(["lint", "klt", "--fail-on", "error"]) == 0
        assert main(["lint", "klt", "--fail-on", "info"]) == 1
        assert main(["lint", "klt", "--fail-on", "never"]) == 0

    def test_lint_sarif_artifact(self, tmp_path, capsys):
        out = tmp_path / "lint.sarif"
        assert main(
            ["lint", "--all", "--sim-crosscheck", "--sarif", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        confirmations = [
            r for r in results if r["ruleId"] == CROSSCHECK_RULE
        ]
        assert len(confirmations) == len(APP_NAMES)

    def test_lint_crosscheck_adds_confirmation(self, capsys):
        assert main(["lint", "fluid", "--sim-crosscheck", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rules = {d["rule"] for d in doc["diagnostics"]}
        assert CROSSCHECK_RULE in rules
