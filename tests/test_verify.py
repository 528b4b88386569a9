"""Tests for the repro.verify fuzzing + differential oracle subsystem."""

from __future__ import annotations

import json

import pytest

from repro.analyze import Severity, analyze_plan
from repro.core.designer import design_interconnect
from repro.errors import ConfigurationError
from repro.io import canonical_json
from repro.verify import (
    FuzzJob,
    FuzzSpec,
    GeneratedCase,
    Violation,
    case_size,
    differential_check,
    evaluate_case,
    generate_case,
    metamorphic_checks,
    run_fuzz,
    run_fuzz_job,
    shrink_case,
)

SPEC = FuzzSpec()


def design(case: GeneratedCase):
    return design_interconnect(case.label(), case.graph, case.config())


def error_rules(plan, params=None):
    """Rule ids of the analyzer's error diagnostics on ``plan``."""
    report = analyze_plan(plan, params)
    return {d.rule for d in report.at_least(Severity.ERROR)}


class TestGenerator:
    def test_deterministic_across_calls(self):
        a = generate_case(SPEC, 5, 3)
        b = generate_case(SPEC, 5, 3)
        assert canonical_json(a.to_dict()) == canonical_json(b.to_dict())

    def test_distinct_cases_per_index(self):
        docs = {
            canonical_json(generate_case(SPEC, 5, i).to_dict())
            for i in range(20)
        }
        assert len(docs) == 20

    def test_graphs_are_valid_and_in_spec(self):
        for i in range(30):
            case = generate_case(SPEC, 1, i)
            g = case.graph
            n = len(g.kernel_names())
            assert SPEC.min_kernels <= n <= SPEC.max_kernels
            # Distinct taus and edge bytes keep ordering name-independent
            # (the permutation metamorphic check relies on this).
            taus = [g.kernel(k).tau_cycles for k in g.kernel_names()]
            assert len(set(taus)) == n
            volumes = list(g.kk_edges.values())
            assert len(set(volumes)) == len(volumes)
            assert g.total_kernel_traffic() > 0 or g.host_in or g.host_out

    def test_roundtrips_through_dict(self):
        case = generate_case(SPEC, 2, 0)
        again = GeneratedCase.from_dict(json.loads(json.dumps(case.to_dict())))
        assert canonical_json(again.to_dict()) == canonical_json(case.to_dict())

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FuzzSpec(min_kernels=5, max_kernels=2)
        with pytest.raises(ConfigurationError):
            FuzzSpec(edge_density=1.5)
        with pytest.raises(ConfigurationError):
            FuzzSpec(volume_distribution="normal")

    @pytest.mark.parametrize("dist", ("uniform", "log_uniform", "heavy_tail"))
    def test_all_distributions_generate(self, dist):
        spec = FuzzSpec(volume_distribution=dist)
        case = generate_case(spec, 0, 0)
        assert all(b >= 1 for b in case.graph.kk_edges.values())


class TestInvariants:
    """Algorithm 1 postconditions, checked by the analyzer's plan rules."""

    def test_clean_designs_pass(self):
        for i in range(15):
            case = generate_case(SPEC, 13, i)
            assert error_rules(design(case), case.params) == set()

    def test_tampered_sharing_bytes_detected(self):
        from dataclasses import replace

        for i in range(40):
            case = generate_case(SPEC, 13, i)
            plan = design(case)
            if not plan.sharing:
                continue
            link = plan.sharing[0]
            bad = replace(
                plan, sharing=(replace(link, bytes=link.bytes + 1),)
                + plan.sharing[1:]
            )
            assert "P002" in error_rules(bad, case.params)
            return
        pytest.skip("no generated case produced a sharing link")

    def test_dropped_provenance_detected(self):
        from dataclasses import replace

        case = generate_case(SPEC, 13, 0)
        plan = design(case)
        bad = replace(plan, provenance=plan.provenance[:-1])
        assert error_rules(bad, case.params) == {"P008"}

    def test_violation_serialization(self):
        v = Violation("sharing_precondition", "fuzz[0:0]", "boom")
        assert v.as_dict() == {
            "check": "sharing_precondition",
            "subject": "fuzz[0:0]",
            "message": "boom",
        }
        assert "sharing_precondition" in str(v)


class TestOracle:
    def test_differential_passes_on_clean_designs(self):
        for i in range(10):
            case = generate_case(SPEC, 21, i)
            assert differential_check(case, design(case)) == []

    def test_metamorphic_pass_on_clean_designs(self):
        for i in range(10):
            case = generate_case(SPEC, 21, i)
            assert metamorphic_checks(case) == []

    def test_slowed_simulator_detected(self, monkeypatch):
        """A 3x-slower 'simulator' must trip the differential bounds."""
        import repro.verify.oracle as oracle
        from repro.sim.systems import simulate_baseline

        real = simulate_baseline

        def slowed(graph, host_other_s, params, **kwargs):
            times = real(graph, host_other_s, params, **kwargs)
            object.__setattr__(times, "kernels_s", times.kernels_s * 3)
            return times

        monkeypatch.setattr(oracle, "simulate_baseline", slowed)
        case = generate_case(SPEC, 21, 0)
        checks = {v.check for v in differential_check(case, design(case))}
        assert "baseline_sim_exact" in checks
        assert "baseline_differential" in checks


class TestShrinker:
    def test_passing_case_is_returned_unchanged(self):
        case = generate_case(SPEC, 4, 0)
        result = shrink_case(case, lambda c: set())
        assert result.case is case
        assert result.steps == ()

    def test_minimizes_while_preserving_failure(self):
        case = generate_case(SPEC, 4, 1)

        def fails_if_multi_kernel(c: GeneratedCase):
            return {"toy"} if len(c.graph.kernel_names()) >= 2 else set()

        result = shrink_case(case, fails_if_multi_kernel)
        assert result.failing == ("toy",)
        assert len(result.case.graph.kernel_names()) == 2
        assert case_size(result.case) < case_size(case)
        assert result.steps

    def test_respects_budget(self):
        case = generate_case(SPEC, 4, 2)
        result = shrink_case(case, lambda c: {"toy"}, budget=10)
        assert result.evaluations <= 10


class TestHarness:
    def test_fuzz_job_fingerprint_identity(self):
        a = FuzzJob(SPEC, 7, 3)
        assert a.fingerprint() == FuzzJob(SPEC, 7, 3).fingerprint()
        assert a.fingerprint() != FuzzJob(SPEC, 7, 4).fingerprint()
        assert a.fingerprint() != FuzzJob(SPEC, 8, 3).fingerprint()
        assert (
            a.fingerprint()
            != FuzzJob(FuzzSpec(max_kernels=4), 7, 3).fingerprint()
        )
        assert a.app == "fuzz[7:3]"

    def test_run_fuzz_job_verdict_shape(self):
        summary = run_fuzz_job(FuzzJob(SPEC, 7, 0))
        assert summary["failed"] is False
        assert summary["violations"] == []
        json.dumps(summary)  # must be JSON-safe for the cache/pool

    def test_campaign_all_green(self):
        report = run_fuzz(spec=SPEC, seed=7, cases=12)
        assert report.ok
        assert report.passed == 12
        assert report.check_counts() == {}
        doc = report.to_dict()
        assert doc["kind"] == "fuzz-report"
        assert doc["failed"] == 0
        json.dumps(doc)
        assert "passed=12" in report.render()

    def test_campaign_reports_are_deterministic(self):
        a = run_fuzz(spec=SPEC, seed=3, cases=8).to_dict()
        b = run_fuzz(spec=SPEC, seed=3, cases=8).to_dict()
        assert canonical_json(a) == canonical_json(b)

    def test_campaign_uses_service_cache(self):
        from repro.service import DesignService

        service = DesignService(runner=run_fuzz_job)
        run_fuzz(spec=SPEC, seed=5, cases=6, service=service)
        report = run_fuzz(spec=SPEC, seed=5, cases=6, service=service)
        assert report.cached == 6
        assert service.metrics.snapshot()["counters"]["fuzz_cases"] == 12

    def test_evaluate_case_reports_designer_errors(self, monkeypatch):
        import repro.verify.harness as harness

        def explode(*args, **kwargs):
            raise ConfigurationError("injected")

        monkeypatch.setattr(harness, "design_interconnect", explode)
        case = generate_case(SPEC, 0, 0)
        violations = evaluate_case(case)
        assert [v.check for v in violations] == ["designer_error"]


class TestFuzzCli:
    def test_green_run_exit_zero_and_report(self, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "fuzz.json"
        code = main([
            "fuzz", "--seed", "7", "--cases", "6",
            "--report", str(report_path),
        ])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["kind"] == "fuzz-report"
        assert doc["passed"] == 6
        out = capsys.readouterr().out
        assert "passed=6" in out

    def test_red_run_exit_one(self, tmp_path, monkeypatch, capsys):
        import repro.core.sharing as sharing
        from repro.cli import main

        monkeypatch.setattr(
            sharing,
            "is_exclusive_pair",
            lambda graph, producer, consumer: graph.edge_bytes(
                producer, consumer
            ) > 0,
        )
        report_path = tmp_path / "fuzz.json"
        code = main([
            "fuzz", "--seed", "7", "--cases", "8", "--shrink",
            "--report", str(report_path),
        ])
        assert code == 1
        doc = json.loads(report_path.read_text())
        assert doc["failed"] > 0
        assert "P002" in doc["check_counts"]
        assert doc["failures"][0]["shrunk"] is not None
