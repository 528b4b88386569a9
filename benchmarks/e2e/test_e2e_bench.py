"""Tests of the end-to-end benchmark's own logic (not of the program).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import collections
import itertools
import json
import os

import pytest

import compare
import measure
import run
import workloads as wl


def _take(iterator, n):
    return list(itertools.islice(iterator, n))


def test_benchmark_json_keeps_to_its_format():
    # The format defines exactly these keys, so the seed baseline, the
    # traced command and the layer-to-metric map live in README.md and
    # baseline.json instead.
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


# -- generators ------------------------------------------------------------------


def test_generators_repeat_per_seed_and_differ_across_seeds():
    assert _take(wl.design_jobs(3, "trace"), 50) == _take(wl.design_jobs(3, "trace"), 50)
    assert _take(wl.design_jobs(3, "trace"), 50) != _take(wl.design_jobs(4, "trace"), 50)
    assert wl.cold_schedule(3, 10) == wl.cold_schedule(3, 10)
    assert wl.cold_schedule(3, 10) != wl.cold_schedule(4, 10)
    assert wl.warm_phases(3, 200) == wl.warm_phases(3, 200)
    assert wl.warm_phases(3, 200) != wl.warm_phases(4, 200)


@pytest.mark.parametrize("source", wl.SOURCES)
def test_design_stream_is_uniform_over_app_and_scale_with_fresh_seeds(source):
    deck = wl.DESIGN_DECK
    assert sorted(deck) == sorted(itertools.product(wl.APPS, wl.SCALES))
    jobs = _take(wl.design_jobs(5, source), len(deck) * 20)
    for block in range(20):
        cards = [(j.app, j.scale) for j in jobs[block * len(deck):(block + 1) * len(deck)]]
        assert collections.Counter(cards) == collections.Counter(deck)
    seeds = [j.seed for j in jobs]
    assert len(set(seeds)) == len(seeds) and wl.GOLDEN_SEED not in seeds
    assert {j.graph_source for j in jobs} == {source}


def test_cold_mix_and_twin_pairing_are_as_declared():
    requests = wl.cold_schedule(9, 25)
    kinds = collections.Counter(r.kind for r in requests)
    blocks = len(requests) // 8
    assert len(requests) == blocks * 8 and len(requests) >= wl.COLD_RPS * 25
    # Half hits, a quarter fresh designs, a quarter twins.
    assert kinds == {"hot": 4 * blocks, "fresh": 2 * blocks, "twin": 2 * blocks}

    sent = wl.fresh_jobs(requests)
    hot_jobs = set(wl.check_set())
    assert not hot_jobs & set(sent)
    assert {r.job for r in requests if r.kind == "hot"} <= hot_jobs
    for req in requests:
        if req.kind != "hot":
            assert sent[req.job] == (2 if req.kind == "twin" else 1)
    by_job = collections.defaultdict(list)
    for i, req in enumerate(requests):
        by_job[req.job].append((i, req))
    for job, sends in by_job.items():
        if sends[0][1].kind == "twin":
            (i, a), (j, b) = sends
            assert j == i + 1 and a.due_s == b.due_s and a.tenant != b.tenant
    # Fresh jobs come from whole decks of app x scale x source, bar the last.
    deck = len(wl.APPS) * len(wl.SCALES) * len(wl.SOURCES)
    for attr, values in (("graph_source", wl.SOURCES), ("scale", wl.SCALES), ("app", wl.APPS)):
        counts = collections.Counter(getattr(job, attr) for job in sent)
        assert set(counts) == set(values)
        assert max(counts.values()) - min(counts.values()) <= deck // len(values)
    # The order is shuffled: seeds differ in where the computes fall.
    order = [r.kind for r in requests]
    assert order != [r.kind for r in wl.cold_schedule(10, 25)]
    dues = [r.due_s for r in requests]
    assert dues == sorted(dues)
    assert dues[-1] <= len(requests) / wl.COLD_RPS


def _bucket_rejections(times, rate, burst):
    tokens, last, rejected = burst, 0.0, 0
    for t in sorted(times):
        tokens = min(burst, tokens + (t - last) * rate)
        last = t
        if tokens >= 1:
            tokens -= 1
        else:
            rejected += 1
    return rejected


def test_no_tenant_exceeds_its_quota_at_800_rps():
    phases = wl.warm_phases(2, wl.warm_size(25))
    step = phases[wl.LADDER_RPS.index(800)]
    by_tenant = collections.defaultdict(list)
    for req in step:
        by_tenant[req.tenant].append(req.due_s)
    assert len(by_tenant) == wl.TENANTS
    for times in by_tenant.values():
        assert len(times) / (step[-1].due_s - step[0].due_s) < wl.QUOTA_RATE
        assert _bucket_rejections(times, wl.QUOTA_RATE, wl.QUOTA_BURST) == 0


def test_ladder_steps_offer_their_rate():
    phases = wl.warm_phases(1, 1000)
    assert len(phases) == len(wl.LADDER_RPS)
    for rate, step in zip(wl.LADDER_RPS, phases):
        assert len(step) == 1000
        assert step[-1].due_s == pytest.approx(1000 / rate, abs=1.0 / rate)
    assert {r.kind for p in phases for r in p} == {"hot"}
    # The reference step lasts about half the run.
    assert wl.warm_size(25) / wl.LADDER_RPS[0] == pytest.approx(12.0)


# -- statistics and spans -----------------------------------------------------------


def test_percentile_sample_count_rule():
    assert measure.supported_percentile(19) is None
    assert measure.supported_percentile(20) == 50.0
    assert measure.supported_percentile(100) == 90.0
    assert measure.supported_percentile(999) == 95.0
    assert measure.supported_percentile(1000) == 99.0
    assert measure.supported_percentile(9999) == 99.0
    assert measure.supported_percentile(10000) == 99.9
    summary = measure.latency_summary([float(i) for i in range(1, 1001)])
    assert summary["n"] == 1000 and summary["p99_supported"]
    assert summary["p50_ms"] == pytest.approx(500.5)
    assert summary["p99_ms"] == pytest.approx(990.01)
    assert not measure.latency_summary([1.0] * 999)["p99_supported"]


def test_setup_sample_scales_by_the_loops_around_it(monkeypatch):
    loops = iter([3.0, 5.0])
    monkeypatch.setattr(measure, "reference_loop", lambda: next(loops))
    cpus = os.sched_getaffinity(0)
    raw, scaled = measure.setup_sample(lambda: 0.6, min(cpus))
    # The loops took twice the reference time on average: a slow host.
    assert raw == 0.6 and scaled == pytest.approx(0.6 * measure.REFERENCE_LOOP_MS / 4.0)
    assert os.sched_getaffinity(0) == cpus


def _ev(name, start, dur, tid=1, **args):
    return {"name": name, "start_us": start, "duration_us": dur, "pid": 1,
            "tid": tid, "phase": "X", "args": args}


def test_self_time_on_a_synthetic_span_tree():
    events = [
        _ev("root", 0, 100),
        _ev("a", 10, 20),
        _ev("b", 40, 50),
        _ev("c", 50, 10),
        _ev("other-thread", 20, 30, tid=2),
        {"name": "mark", "start_us": 5, "duration_us": 0, "pid": 1, "tid": 1, "phase": "i"},
    ]
    roots = measure.span_forest(events)
    by_name = {s.name: s for s in measure.all_spans(roots)}
    assert sorted(r.name for r in roots) == ["other-thread", "root"]
    assert [c.name for c in by_name["root"].children] == ["a", "b"]
    assert by_name["c"].parent is by_name["b"]
    assert by_name["root"].self_us == pytest.approx(30)
    assert by_name["b"].self_us == pytest.approx(40)
    assert by_name["c"].self_us == pytest.approx(10)
    assert by_name["other-thread"].self_us == pytest.approx(30)
    assert sum(s.self_us for s in by_name["root"].walk()) == pytest.approx(100)


def test_experiment_row_maps_stages_to_layers():
    events = [
        _ev("experiment", 0, 1000),
        _ev("profile", 0, 100),
        _ev("fit", 100, 400),
        _ev("design", 500, 200),
        _ev("design.placement", 550, 50),
        _ev("design.noc_only", 700, 100),
        _ev("design.placement", 720, 30),
        _ev("simulate", 800, 100, system="baseline"),
        _ev("synthesis", 900, 40),
        _ev("energy", 940, 10),
    ]
    [row] = measure.experiment_rows(measure.span_forest(events), lambda s: "static")
    assert row["static.fit_static_ms"] == pytest.approx(0.4)
    assert "profiling.fit_trace_ms" not in row
    assert row["core.design_ms"] == pytest.approx(0.2)
    assert row["core.placement_ms"] == pytest.approx(0.08)
    assert row["sim.baseline_ms"] == pytest.approx(0.1)
    assert row["hw.synthesis_energy_ms"] == pytest.approx(0.05)
    assert row["obs.span_coverage"] == pytest.approx(0.95)


def test_prometheus_totals_sum_over_labels():
    text = ("# TYPE repro_quota_rejections counter\n"
            'repro_quota_rejections{tenant="a"} 2\n'
            'repro_quota_rejections{tenant="b"} 3\n'
            "repro_cache_hits 7\n")
    assert measure.prometheus_totals(text) == {
        "repro_quota_rejections": 5.0, "repro_cache_hits": 7.0,
    }


# -- comparator --------------------------------------------------------------------


PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.1, 9.9]


def test_comparator_verdicts_on_synthetic_runs():
    faster = [x * 0.8 for x in PARENT]
    assert compare.verdict(PARENT, faster, 0.1, "lower")["verdict"] == "improved"
    same = PARENT[1:] + PARENT[:1]
    assert compare.verdict(PARENT, same, 0.1, "lower")["verdict"] == "within bound"
    slower = [x * 1.2 for x in PARENT]
    row = compare.verdict(PARENT, slower, 0.1, "lower")
    assert row["verdict"] == "regressed" and row["won"] == 0.0
    assert row["worse_by"] == pytest.approx(0.2, abs=0.01)
    # Throughput: higher is better, so the same numbers read the other way.
    assert compare.verdict(PARENT, slower, 0.1, "higher")["verdict"] == "improved"
    assert compare.verdict(PARENT, faster, 0.1, "higher")["verdict"] == "regressed"
    # A gain does not count when more operations failed.
    assert compare.verdict(PARENT, faster, 0.1, "lower", failures_worse=True)["verdict"] == "within bound"


def test_comparator_calls_wide_spread_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 7.0, 13.0, 9.0, 11.0]
    shifted = [x * 1.15 for x in noisy]
    assert compare.verdict(noisy, shifted, 0.1, "lower")["verdict"] == "unresolved"
    # ... unless every change run beats every parent run.
    assert compare.verdict(noisy, [1.0] * 10, 0.1, "lower")["verdict"] == "improved"


def test_comparator_finds_a_clear_regression_behind_a_noisy_parent():
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 7.0, 13.0, 9.0, 11.0]
    # Every change run is worse than every parent run.
    row = compare.verdict(noisy, [30.0 + i for i in range(10)], 0.1, "lower")
    assert row["parent_spread"] > 0.1 and row["verdict"] == "regressed"
    # Twice as slow: the runs overlap, but the median is worse by more
    # than the bound plus the parent's spread.
    assert compare.verdict(noisy, [x * 2 for x in noisy], 0.1, "lower")["verdict"] == "regressed"
    # Throughput below every parent run reads the same way.
    assert compare.verdict(noisy, [x / 4 for x in noisy], 0.1, "higher")["verdict"] == "regressed"


def test_comparator_report_flags_more_failures():
    def run(value, failed):
        return {"attempted": 100, "failed": failed, "metrics": {"m": value}}

    spec = {"end_to_end": [{"name": "m", "bound": 0.1, "better": "lower"}]}
    runs = {"w": {"parent": [run(x, 0) for x in PARENT],
                  "change": [run(x, 1) for x in PARENT]}}
    rows = {r["metric"]: r for r in compare.report(runs, spec)}
    assert rows["failed_share"]["verdict"] == "regressed"
    assert rows["m"]["verdict"] == "within bound"
