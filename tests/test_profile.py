"""Tests for the time-resolved simulation profiler.

The acceptance criteria from the profiler's design live here: for all
four applications, the simulated communication matrix conserves the
input graph's bytes pair-exactly, the critical-path attribution sums to
the makespan within 1e-9 relative, and profiling never changes the
simulation (makespans bit-identical with it on or off).
"""

from __future__ import annotations

import json
import sys

import pytest

from repro.apps.registry import APP_NAMES
from repro.errors import ConfigurationError
from repro.flow import run_experiment
from repro.obs.profile import NULL_RECORDER, NullRecorder, TimeseriesRecorder
from repro.obs.profile.commmatrix import (
    MatrixEntry,
    build_matrix,
    check_conservation,
    pair_totals,
)
from repro.obs.profile.critical import extract_critical_path
from repro.obs.profile.report import (
    PROFILE_KIND,
    PROFILE_SET_KIND,
    build_profile,
    profile_from_dict,
    profile_set_from_dict,
    profile_set_to_dict,
    profile_to_dict,
    render_decisions_with_profile,
    render_html_report,
    render_profile_text,
)
from repro.obs.profile.timeseries import build_timeseries, is_busy_kind


@pytest.fixture(scope="module")
def profiled_results():
    """Profiled experiment runs for all four applications."""
    return {name: run_experiment(name, profile=True) for name in APP_NAMES}


# -- acceptance criteria ------------------------------------------------------


class TestAcceptance:
    @pytest.mark.parametrize("app", APP_NAMES)
    @pytest.mark.parametrize("system", ["baseline", "proposed"])
    def test_byte_conservation_exact(self, profiled_results, app, system):
        profile = profiled_results[app].profiles[system]
        assert profile.conservation.ok, profile.conservation.mismatches
        assert profile.conservation.mismatches == ()
        assert profile.conservation.checked_pairs > 0

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_proposed_pairs_match_plan_graph(self, profiled_results, app):
        """Every kernel→kernel edge of the (post-duplication) plan graph
        arrives with exactly the promised bytes, and host traffic matches
        the D^H quantities."""
        result = profiled_results[app]
        graph = result.plan.graph
        observed = pair_totals(result.profiles["proposed"].matrix)
        for (p, c), want in graph.kk_edges.items():
            if want > 0:
                assert observed[(p, c)] == want
        for k in graph.kernel_names():
            if graph.d_h_in(k) > 0:
                assert observed[("host", k)] == graph.d_h_in(k)
            if graph.d_h_out(k) > 0:
                assert observed[(k, "host")] == graph.d_h_out(k)

    @pytest.mark.parametrize("app", APP_NAMES)
    @pytest.mark.parametrize("system", ["baseline", "proposed"])
    def test_attribution_sums_to_makespan(self, profiled_results, app, system):
        profile = profiled_results[app].profiles[system]
        rel_err = abs(profile.attribution_total_s - profile.makespan_s)
        rel_err /= profile.makespan_s
        assert rel_err <= 1e-9

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_critical_path_partitions_makespan(self, profiled_results, app):
        for profile in profiled_results[app].profiles.values():
            segments = profile.critical_path
            assert segments[0].start_s == pytest.approx(0.0, abs=1e-15)
            assert segments[-1].end_s == pytest.approx(profile.makespan_s)
            for prev, nxt in zip(segments, segments[1:]):
                assert nxt.start_s == pytest.approx(prev.end_s)

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_makespans_bit_identical_with_profiling(
        self, profiled_results, all_results, app
    ):
        """Profiling is pure bookkeeping — it must not perturb the
        discrete-event schedule at all."""
        plain, profiled = all_results[app], profiled_results[app]
        assert profiled.sim_baseline.kernels_s == plain.sim_baseline.kernels_s
        assert profiled.sim_proposed.kernels_s == plain.sim_proposed.kernels_s
        assert profiled.sim_proposed.kernel_spans == plain.sim_proposed.kernel_spans

    def test_profiles_absent_by_default(self, all_results):
        assert all_results["jpeg"].profiles == {}


# -- recorder -----------------------------------------------------------------


class TestRecorder:
    def test_zero_length_activity_dropped(self):
        rec = TimeseriesRecorder()
        rec.activity("bus", "plb", 1.0, 1.0)
        rec.activity("bus", "plb", 1.0, 2.0)
        assert len(rec.activities) == 1

    def test_zero_byte_delivery_dropped(self):
        rec = TimeseriesRecorder()
        rec.delivery(0.0, "a", "b", 0, "bus")
        rec.delivery(0.0, "a", "b", 4, "bus")
        assert len(rec.deliveries) == 1

    def test_null_recorder_disabled_and_stateless(self):
        assert NULL_RECORDER.enabled is False
        assert isinstance(NULL_RECORDER, NullRecorder)
        NULL_RECORDER.activity("bus", "plb", 0.0, 1.0)
        NULL_RECORDER.occupancy("plb", 0.0, 1, 2)
        NULL_RECORDER.delivery(0.0, "a", "b", 4, "bus")
        # __slots__ = () — there is nowhere for per-event state to go.
        assert not hasattr(NULL_RECORDER, "__dict__")
        assert not hasattr(NULL_RECORDER, "activities")

    def test_null_recorder_no_per_event_allocation(self):
        for _ in range(64):  # warm up call sites / specializations
            NULL_RECORDER.activity("bus", "plb", 0.0, 1.0, "d")
        before = sys.getallocatedblocks()
        for _ in range(2048):
            NULL_RECORDER.activity("bus", "plb", 0.0, 1.0, "d")
            NULL_RECORDER.occupancy("plb", 0.0, 1, 2)
            NULL_RECORDER.delivery(0.0, "a", "b", 4, "bus")
        grown = sys.getallocatedblocks() - before
        assert grown <= 8  # unrelated interpreter noise only

    def test_components_default_to_null_recorder(self, jpeg_result):
        from repro.sim.systems import SystemParams, simulate_proposed

        components = {}
        simulate_proposed(
            jpeg_result.plan, jpeg_result.fitted.host_other_s,
            SystemParams(), components_out=components,
        )
        assert components["bus"].recorder is NULL_RECORDER


# -- timeseries ---------------------------------------------------------------


class TestTimeseries:
    def test_exact_bucketing(self):
        # One span covering the first half: buckets (1, 1, 0, 0).
        lanes = build_timeseries(
            [("bus", "plb", 0.0, 0.5, "")], [], 1.0, buckets=4
        )
        (series,) = lanes
        assert series.lane == "plb"
        assert series.buckets == pytest.approx((1.0, 1.0, 0.0, 0.0))
        assert series.busy_s == pytest.approx(0.5)
        assert series.utilization == pytest.approx(0.5)

    def test_bucket_sum_conserves_busy_time(self):
        spans = [
            ("bus", "plb", 0.03, 0.41, ""),
            ("bus", "plb", 0.55, 0.78, ""),
            ("compute", "k", 0.1, 0.97, ""),
        ]
        for buckets in (1, 3, 7, 64):
            for series in build_timeseries(spans, [], 1.0, buckets=buckets):
                bucket_w = 1.0 / buckets
                assert sum(series.buckets) * bucket_w == pytest.approx(
                    series.busy_s
                )

    def test_wait_kinds_are_not_busy(self):
        assert not is_busy_kind("bus_wait")
        assert is_busy_kind("bus")
        # A lane seen only waiting has no busy time to chart at all;
        # its waits surface via occupancy and the critical path instead.
        assert build_timeseries(
            [("bus_wait", "plb", 0.0, 1.0, "")], [], 1.0, buckets=4
        ) == ()

    def test_queue_watermarks(self):
        samples = [
            (0.1, "plb", 1, 0),
            (0.2, "plb", 1, 3),
            (0.3, "plb", 2, 1),
        ]
        (series,) = build_timeseries([], samples, 1.0, buckets=2)
        assert series.peak_queue == 3
        assert series.peak_queue_t_s == pytest.approx(0.2)
        assert series.peak_in_use == 2

    def test_sorted_by_busy_time(self):
        lanes = build_timeseries(
            [("bus", "quiet", 0.0, 0.1, ""), ("bus", "loud", 0.0, 0.9, "")],
            [], 1.0, buckets=4,
        )
        assert [s.lane for s in lanes] == ["loud", "quiet"]

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            build_timeseries([], [], 1.0, buckets=0)
        with pytest.raises(ConfigurationError):
            build_timeseries([], [], 0.0)


# -- critical path ------------------------------------------------------------


class TestCriticalPath:
    def test_gap_becomes_unattributed(self):
        spans = [("compute", "k", 0.0, 0.4, ""), ("bus", "plb", 0.6, 1.0, "")]
        segments, attribution = extract_critical_path(spans, 1.0)
        kinds = [s.kind for s in segments]
        assert kinds == ["compute", "unattributed", "bus"]
        assert attribution["unattributed"] == pytest.approx(0.2)
        assert sum(attribution.values()) == pytest.approx(1.0)

    def test_work_preferred_over_wait_on_ties(self):
        spans = [
            ("bus_wait", "plb", 0.0, 1.0, ""),
            ("bus", "plb", 0.0, 1.0, ""),
        ]
        segments, _ = extract_critical_path(spans, 1.0)
        assert [s.kind for s in segments] == ["bus"]

    def test_unknown_kind_gets_own_category(self):
        segments, attribution = extract_critical_path(
            [("custom", "x", 0.0, 1.0, "")], 1.0
        )
        assert attribution["custom"] == pytest.approx(1.0)
        assert segments[0].kind == "custom"

    def test_empty_activities_fully_unattributed(self):
        segments, attribution = extract_critical_path([], 1.0)
        assert [s.kind for s in segments] == ["unattributed"]
        assert attribution["unattributed"] == pytest.approx(1.0)


# -- communication matrix -----------------------------------------------------


class TestCommMatrix:
    def test_build_matrix_aggregates_and_sorts(self):
        matrix = build_matrix([
            (0.2, "b", "c", 10, "noc"),
            (0.1, "a", "b", 4, "bus"),
            (0.3, "a", "b", 6, "bus"),
        ])
        assert matrix == (
            MatrixEntry("a", "b", "bus", 10),
            MatrixEntry("b", "c", "noc", 10),
        )

    def test_mismatch_detected(self, fitted_apps):
        graph = fitted_apps["jpeg"].graph
        (p, c), want = next(iter(graph.kk_edges.items()))
        short = build_matrix([(0.0, p, c, want - 1, "bus")])
        report = check_conservation(short, graph, mode="direct")
        assert not report.ok
        assert any(f"{p}->{c}" in m for m in report.mismatches)

    def test_unexpected_pair_is_mismatch(self, fitted_apps):
        graph = fitted_apps["jpeg"].graph
        bogus = build_matrix([(0.0, "ghost", "phantom", 64, "bus")])
        report = check_conservation(bogus, graph, mode="mediated")
        assert not report.ok
        assert any("ghost->phantom" in m for m in report.mismatches)

    def test_unknown_mode_rejected(self, fitted_apps):
        with pytest.raises(ConfigurationError):
            check_conservation((), fitted_apps["jpeg"].graph, mode="psychic")


# -- serialization ------------------------------------------------------------


class TestSerialization:
    def test_profile_round_trip(self, profiled_results):
        profile = profiled_results["jpeg"].profiles["proposed"]
        data = profile_to_dict(profile)
        assert data["kind"] == PROFILE_KIND
        json.dumps(data)  # JSON-safe
        assert profile_from_dict(data) == profile

    def test_profile_set_round_trip(self, profiled_results):
        profiles = profiled_results["canny"].profiles
        data = profile_set_to_dict("canny", profiles)
        assert data["kind"] == PROFILE_SET_KIND
        assert profile_set_from_dict(json.loads(json.dumps(data))) == dict(
            profiles
        )

    def test_wrong_kind_rejected(self, profiled_results):
        data = profile_to_dict(profiled_results["jpeg"].profiles["baseline"])
        data["kind"] = "plan"
        with pytest.raises(ConfigurationError):
            profile_from_dict(data)


# -- build_profile guards -----------------------------------------------------


class TestBuildProfile:
    def test_zero_makespan_rejected(self, profiled_results, fitted_apps):
        import dataclasses

        times = profiled_results["jpeg"].sim_proposed
        broken = dataclasses.replace(times, kernels_s=0.0)
        with pytest.raises(ConfigurationError):
            build_profile(
                "jpeg", broken, TimeseriesRecorder(),
                fitted_apps["jpeg"].graph,
            )

    def test_bucket_count_respected(self, profiled_results):
        r = profiled_results["jpeg"]
        assert all(
            len(lane.buckets) == 64
            for p in r.profiles.values()
            for lane in p.lanes
        )


# -- renderers ----------------------------------------------------------------


class TestRenderers:
    def test_text_report_mentions_key_sections(self, profiled_results):
        text = render_profile_text(profiled_results["jpeg"].profiles["proposed"])
        assert "critical-path attribution" in text
        assert "byte conservation [direct]: ok" in text
        assert "communication matrix" in text
        assert "kernel timeline" in text

    def test_html_report_self_contained(self, profiled_results):
        html = render_html_report("jpeg", profiled_results["jpeg"].profiles)
        assert html.startswith("<!DOCTYPE html>")
        assert "baseline" in html and "proposed" in html
        assert "<script" not in html and "http" not in html.split("</title>")[1]

    def test_html_escapes_names(self, profiled_results):
        profile = profiled_results["jpeg"].profiles["proposed"]
        import dataclasses

        hostile = dataclasses.replace(profile, app="<img onerror=x>")
        html = render_html_report(
            "<img onerror=x>", {"proposed": hostile}
        )
        assert "<img onerror" not in html

    def test_decisions_with_profile_cites_evidence(self, profiled_results):
        r = profiled_results["jpeg"]
        text = render_decisions_with_profile(r.plan, r.profiles)
        assert "bus on the critical path" in text
        assert "measured:" in text
        assert "shared local memory" in text

    def test_decisions_need_proposed_profile(self, profiled_results):
        r = profiled_results["jpeg"]
        with pytest.raises(ConfigurationError):
            render_decisions_with_profile(r.plan, {})

    def test_decisions_zero_noc_app_gets_explicit_section(
        self, profiled_results
    ):
        # Regression: klt's design has no NoC; the [noc] skipped line
        # must still carry measured evidence saying so outright instead
        # of silently rendering bare.
        r = profiled_results["klt"]
        assert r.plan.noc is None
        text = render_decisions_with_profile(r.plan, r.profiles)
        noc_lines = [
            (i, line) for i, line in enumerate(text.splitlines())
            if line.startswith("[noc]")
        ]
        assert len(noc_lines) == 1
        i, line = noc_lines[0]
        assert "skipped" in line
        measured = text.splitlines()[i + 1]
        assert "no NoC was instantiated" in measured
        assert "shared local memories" in measured
        assert "crossed the bus" in measured


# -- service persistence ------------------------------------------------------


class TestServiceProfiles:
    def test_profile_dir_persists_and_round_trips(self, tmp_path):
        from repro.io import load_json
        from repro.service import DesignService
        from repro.service.jobs import DesignJob

        service = DesignService(jobs=1, profile_dir=tmp_path / "profiles")
        result = service.submit(DesignJob(app="jpeg"))
        assert sorted(result.profiles) == ["baseline", "proposed"]
        files = list((tmp_path / "profiles").glob("*.profile.json"))
        assert len(files) == 1
        assert files[0].stem.split(".")[0] == result.fingerprint
        profiles = profile_set_from_dict(load_json(files[0]))
        assert profiles["proposed"].conservation.ok

    def test_cache_hits_carry_no_profiles(self, tmp_path):
        from repro.service import DesignService
        from repro.service.jobs import DesignJob

        service = DesignService(jobs=1, profile_dir=tmp_path)
        job = DesignJob(app="canny", simulate=True)
        service.submit(job)
        hit = service.submit(job)
        assert hit.cached
        assert hit.profiles == {}

    def test_no_profile_dir_no_profiles(self):
        from repro.service import DesignService
        from repro.service.jobs import DesignJob

        result = DesignService(jobs=1).submit(DesignJob(app="jpeg"))
        assert result.profiles == {}


# -- CLI ----------------------------------------------------------------------


class TestCli:
    def test_profile_sim_text(self, capsys):
        from repro.cli import main

        assert main(["profile", "jpeg", "--sim"]) == 0
        out = capsys.readouterr().out
        assert "critical-path attribution" in out
        assert "[jpeg/baseline]" in out and "[jpeg/proposed]" in out

    def test_profile_json(self, capsys):
        from repro.cli import main

        assert main(["profile", "canny", "--json", "--buckets", "16"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == PROFILE_SET_KIND
        profiles = profile_set_from_dict(data)
        assert all(p.conservation.ok for p in profiles.values())
        assert len(profiles["proposed"].lanes[0].buckets) == 16

    def test_profile_html(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "report.html"
        assert main(["profile", "klt", "--html", str(out)]) == 0
        assert out.read_text().startswith("<!DOCTYPE html>")

    def test_profile_default_still_quad(self, capsys):
        from repro.cli import main

        assert main(["profile", "jpeg"]) == 0
        out = capsys.readouterr().out
        assert "critical-path attribution" not in out

    def test_explain_with_profile(self, capsys):
        from repro.cli import main

        assert main(["explain", "jpeg", "--with-profile"]) == 0
        out = capsys.readouterr().out
        assert "measured:" in out

    def test_explain_with_profile_conflicts(self, capsys):
        from repro.cli import main

        assert main(["explain", "jpeg", "--with-profile", "--json"]) == 1

    def test_sweep_profile_dir_requires_simulate(self, capsys, tmp_path):
        from repro.cli import main

        code = main([
            "sweep", "--apps", "jpeg", "--param", "bus_width_bytes=4",
            "--profile-dir", str(tmp_path / "profs"),
            "--output", str(tmp_path / "s.csv"),
        ])
        assert code == 1
        assert "add --simulate" in capsys.readouterr().err
        assert not (tmp_path / "profs").exists()
