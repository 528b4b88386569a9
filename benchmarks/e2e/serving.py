"""Served workloads, serve-warm and serve-cold, driven over HTTP.

The load comes from this one process: an open-loop generator with two
threads, each sending one request at a time through ``DesignClient``
(one connection per request), so at most two connections are open.
Each request is timed from the moment it was due, not from when a
thread got round to sending it, so a stall also charges the requests
queued behind it. How late the generator ran is reported beside.

Untraced runs talk to ``python -m repro serve`` in a child process with
its default configuration. Traced runs embed the server with
``start_in_thread`` around a ``DesignService`` and ``DesignServer`` that
share one ``Tracer``, then run the same schedule once without and once
with the tracer, so the tracing overhead is measured on identical input.
"""

from __future__ import annotations

import functools
import os
import pathlib
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.trace import Tracer
from repro.server import DesignClient, ServerConfig, start_in_thread
from repro.service import DesignService
from repro.service.jobs import DesignJob

import measure
from checks import canonical, summarize
from workloads import (
    LADDER_RPS,
    LATENCY_LIMIT_MS,
    Job,
    Request,
    check_set,
    cold_schedule,
    fresh_jobs,
    warm_phases,
    warm_size,
)

#: Two threads, each with at most one open connection.
THREADS = 2
CLIENT_TIMEOUT_S = 10.0
#: A failed or refused request counts as having taken the client timeout,
#: so it always misses the latency limit.
FAILED_MS = CLIENT_TIMEOUT_S * 1e3
#: Lateness below this is sleep and scheduling jitter, not a backlog.
LATE_FLOOR_MS = 1.0
#: Fresh responses re-derived in process after a serve-cold run.
FRESH_SAMPLE = 64
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 20.0


@dataclass
class Outcome:
    """What happened to one request; times are ``perf_counter`` seconds."""

    request: Request
    due: float
    sent: float
    done: float
    ok: bool
    fingerprint: str = ""
    summary: Optional[Dict[str, Any]] = None
    trace_id: str = ""
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3 if self.ok else FAILED_MS

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1e3


def drive(url: str, requests: Sequence[Request], tracer: Optional[Tracer] = None) -> List[Outcome]:
    """Send ``requests`` open loop, each at its due time; one outcome each."""
    start = time.perf_counter() + 0.05
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]

    def worker() -> None:
        clients: Dict[str, DesignClient] = {}
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(requests):
                return
            req = requests[index]
            due = start + req.due_s
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            client = clients.get(req.tenant)
            if client is None:
                client = clients[req.tenant] = DesignClient(
                    url, tenant=req.tenant, timeout_s=CLIENT_TIMEOUT_S, tracer=tracer,
                )
            sent = time.perf_counter()
            try:
                doc = client.design(
                    req.job.app, scale=req.job.scale, seed=req.job.seed,
                    graph_source=req.job.graph_source,
                )
            except Exception as exc:  # counted as a failed request
                outcomes[index] = Outcome(
                    req, due, sent, time.perf_counter(), False,
                    error=f"{type(exc).__name__}: {exc}",
                )
                continue
            outcomes[index] = Outcome(
                req, due, sent, time.perf_counter(), True,
                fingerprint=doc["fingerprint"], summary=doc["summary"],
                trace_id=doc.get("trace_id", ""),
            )

    threads = [threading.Thread(target=worker, name=f"loadgen-{i}") for i in range(THREADS)]
    for thread in threads:
        thread.start()
    budget = (requests[-1].due_s if requests else 0.0) + 2 * CLIENT_TIMEOUT_S + 30.0
    for thread in threads:
        thread.join(timeout=max(0.0, start + budget - time.perf_counter()))
        if thread.is_alive():
            raise RuntimeError("load generator did not finish its schedule")
    return [o for o in outcomes if o is not None]


def evaluate(outcomes: Sequence[Outcome]) -> Dict[str, Any]:
    """Latency, errors, goodput and generator lateness of one phase."""
    ordered = sorted(outcomes, key=lambda o: o.due)
    late = [o.late_ms for o in ordered]
    tenth = max(1, len(late) // 10)
    ok = [o for o in ordered if o.ok]
    # Requests are due from the phase start on, so this is the wall time
    # from the first possible send to the last reply.
    span_s = max(o.done for o in ordered) - (ordered[0].due - ordered[0].request.due_s)
    return {
        "latency": measure.latency_summary([o.latency_ms for o in ordered]),
        "requests": len(ordered),
        "errors": len(ordered) - len(ok),
        "error_examples": sorted({o.error for o in ordered if not o.ok})[:5],
        "designs_per_s": len(ok) / span_s,
        "late_ms_p50": measure.percentile(late, 50),
        "late_ms_p99": measure.percentile(late, 99),
        "late_first_tenth_ms": sum(late[:tenth]) / tenth,
        "late_last_tenth_ms": sum(late[-tenth:]) / tenth,
    }


def step_passes(ev: Dict[str, Any]) -> bool:
    """A ladder step holds its rate: p99 within the limit, no errors,
    and no backlog (lateness at the end no worse than twice the start)."""
    return (
        ev["latency"]["p99_ms"] <= LATENCY_LIMIT_MS
        and ev["errors"] == 0
        and ev["late_last_tenth_ms"] <= max(2 * ev["late_first_tenth_ms"], LATE_FLOOR_MS)
    )


# -- correctness ---------------------------------------------------------------


def expected_summaries(jobs: Sequence[Job]) -> Dict[Job, Tuple[str, str]]:
    """(fingerprint, canonical summary) per job, computed in process."""
    return {
        job: (
            DesignJob(job.app, scale=job.scale, seed=job.seed,
                      graph_source=job.graph_source).fingerprint(),
            canonical(summarize(job)),
        )
        for job in jobs
    }


def mismatches(outcomes: Sequence[Outcome], expected: Dict[Job, Tuple[str, str]]) -> List[str]:
    """Labels of responses that differ from the in-process result."""
    bad = []
    for o in outcomes:
        want = expected.get(o.request.job)
        if o.ok and want is not None and (o.fingerprint, canonical(o.summary or {})) != want:
            bad.append(o.request.job.label)
    return bad


def prime(url: str, expected: Dict[Job, Tuple[str, str]]) -> List[str]:
    """Compute the hot set on the server; labels of wrong answers."""
    client = DesignClient(url, tenant="primer", timeout_s=CLIENT_TIMEOUT_S * 6)
    bad = []
    for job, want in expected.items():
        doc = client.design(job.app, scale=job.scale, seed=job.seed,
                            graph_source=job.graph_source)
        if (doc["fingerprint"], canonical(doc["summary"])) != want:
            bad.append(job.label)
    return bad


def failures(outcomes: Sequence[Outcome], bad: Sequence[str], problems: Sequence[str],
             counters: Dict[str, float]) -> int:
    """Failed operations: errors and refusals, wrong answers, unclean
    stops, and designs computed twice."""
    duplicates = max(0, int(counters["service.duplicate_computes"]))
    return sum(not o.ok for o in outcomes) + len(bad) + len(problems) + duplicates


def scrape(url: str) -> Dict[str, float]:
    return measure.prometheus_totals(DesignClient(url).metrics())


def service_counters(before: Dict[str, float], after: Dict[str, float],
                     outcomes: Sequence[Outcome]) -> Dict[str, float]:
    """Service-layer counters over a window, as ``/metrics`` deltas."""
    def d(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    lookups = d("repro_cache_hits") + d("repro_cache_misses")
    batches = d("repro_server_batch_size_count")
    fresh_ok = {o.request.job for o in outcomes if o.ok and o.request.kind != "hot"}
    return {
        "service.cache_hit_ratio": d("repro_cache_hits") / lookups if lookups else 0.0,
        "service.coalesced": d("repro_jobs_coalesced") + d("repro_jobs_joined"),
        "service.duplicate_computes": d("repro_jobs_completed") - len(fresh_ok),
        "server.batch_size_mean": d("repro_server_batch_size_sum") / batches if batches else 0.0,
        "server.rejections": d("repro_admission_rejections") + d("repro_quota_rejections"),
    }


# -- the server process -------------------------------------------------------


class ServerProcess:
    """``python -m repro serve`` in a child, on a port the OS picks."""

    def __init__(self, workdir: pathlib.Path, env: Dict[str, str],
                 pin: Callable[[], None]) -> None:
        self.workdir = workdir
        self.env = env
        self.pin = pin
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self) -> float:
        """Spawn and wait for the first 200 from ``/readyz``; returns seconds."""
        log = self.workdir / f"server-{time.monotonic_ns()}.log"
        begin = time.monotonic()
        with open(log, "w") as out:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--flight-dir", str(self.workdir / "flight")],
                stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=self.workdir,
                preexec_fn=self.pin,
            )
        deadline = begin + START_TIMEOUT_S
        while not self.url:
            text = log.read_text()
            if "listening on " in text:
                self.url = text.split("listening on ", 1)[1].split()[0]
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start:\n{text}")
            else:
                time.sleep(0.002)
        probe = DesignClient(self.url, timeout_s=1.0)
        while not probe.readyz():
            if time.monotonic() > deadline:
                raise RuntimeError("server never became ready")
            time.sleep(0.002)
        return time.monotonic() - begin

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        status = pathlib.Path(f"/proc/{self.proc.pid}/status").read_text()
        line = next(l for l in status.splitlines() if l.startswith("VmHWM:"))
        return int(line.split()[1]) / 1024.0

    def _children(self) -> List[int]:
        assert self.proc is not None
        kids = []
        for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
            try:
                fields = stat.read_text().rpartition(")")[2].split()
            except OSError:
                continue  # the process ended while we looked
            if int(fields[1]) == self.proc.pid:
                kids.append(int(stat.parent.name))
        return kids

    def stop(self) -> str:
        """SIGTERM and wait; ``""`` on a clean drain, else what went wrong."""
        assert self.proc is not None
        kids = self._children()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return "server did not exit after SIGTERM"
        left = [pid for pid in kids if pathlib.Path(f"/proc/{pid}").exists()]
        if code != 0:
            return f"server exited {code} after SIGTERM"
        if left:
            return f"server left child processes {left}"
        return ""

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=STOP_TIMEOUT_S)

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc: object) -> None:
        self.kill()


def setup_probes(workdir: pathlib.Path, env: Dict[str, str], count: int,
                 cpu: int) -> Tuple[List[Tuple[float, float]], List[str]]:
    """Start and drain a server on ``cpu`` ``count`` times: each start's
    seconds, raw and scaled to the reference host, and any problems."""
    pin = functools.partial(os.sched_setaffinity, 0, {cpu})
    setups, problems = [], []
    for _ in range(count):
        with ServerProcess(workdir, env, pin) as server:
            setups.append(measure.setup_sample(server.start, cpu))
            problem = server.stop()
        if problem:
            problems.append(problem)
    return setups, problems


# -- workloads ------------------------------------------------------------------


def run_untraced(workload: str, seed: int, seconds: float, workdir: pathlib.Path,
                 env: Dict[str, str], probes: int, cpus: Sequence[int]) -> Dict[str, Any]:
    """End-to-end run against a ``repro serve`` child process.

    This process (the load generator) and the server get one of ``cpus``
    each: sharing let one delay the other, and serve-warm's p50 moved
    twice as far between runs.
    """
    hot = expected_summaries(check_set())
    pin = functools.partial(os.sched_setaffinity, 0, {cpus[1]})
    steps: List[Dict[str, Any]] = []
    with measure.on_cpu(cpus[0]):
        setups, problems = setup_probes(workdir, env, probes, cpus[1])
        with ServerProcess(workdir, env, pin) as server:
            server.start()
            bad = prime(server.url, hot)
            before = scrape(server.url)
            if workload == "serve-warm":
                outcomes: List[Outcome] = []
                for rate, step in zip(LADDER_RPS, warm_phases(seed, warm_size(seconds))):
                    outs = drive(server.url, step)
                    outcomes += outs
                    steps.append(dict(evaluate(outs), rate_rps=rate))
                    steps[-1]["passed"] = step_passes(steps[-1])
                    if not steps[-1]["passed"]:
                        break
                schedule = [o.request for o in outcomes]
            else:
                schedule = cold_schedule(seed, seconds)
                outcomes = drive(server.url, schedule)
            after = scrape(server.url)
            peak_rss = server.peak_rss_mb()
            problem = server.stop()
    if problem:
        problems.append(problem)

    bad += mismatches(outcomes, hot)
    fresh = sorted(fresh_jobs(schedule), key=lambda j: j.label)
    sample = random.Random(f"verify:{seed}").sample(fresh, min(FRESH_SAMPLE, len(fresh)))
    bad += mismatches(outcomes, expected_summaries(sample))

    counters = service_counters(before, after, outcomes)
    doc: Dict[str, Any] = {
        "setup_unscaled_s": [raw for raw, _ in setups],
        "setup_samples_s": [scaled for _, scaled in setups],
        "attempted": len(outcomes),
        "failed": failures(outcomes, bad, problems, counters),
        "mismatches": bad,
        "problems": problems,
        "counters": counters,
        "peak_rss_mb": peak_rss,
        "fresh_jobs": len(fresh),
        "fresh_verified": len(sample),
    }
    if workload == "serve-warm":
        held = 0
        for step in steps:
            held = step["rate_rps"] if step["passed"] else held
        doc["ladder"] = steps
        doc["max_rate_rps"] = held
        doc["latency"] = steps[0]["latency"]
        doc["designs_per_s"] = steps[0]["designs_per_s"]
    else:
        doc["phase"] = evaluate(outcomes)
        doc["latency"] = doc["phase"]["latency"]
        doc["designs_per_s"] = doc["phase"]["designs_per_s"]
    return doc


def _traced_phase(schedule: Sequence[Request], hot: Dict[Job, Tuple[str, str]],
                  workdir: pathlib.Path, tracer: Optional[Tracer]) -> Dict[str, Any]:
    config = ServerConfig(port=0, flight_dir=str(workdir / "flight"))
    service = DesignService(tracer=tracer) if tracer is not None else None
    handle = start_in_thread(config, service=service, tracer=tracer)
    try:
        url = handle.url
        bad = prime(url, hot)
        window_us = (time.perf_counter() - tracer.epoch_s) * 1e6 if tracer else 0.0
        before = scrape(url)
        outcomes = drive(url, schedule, tracer)
        after = scrape(url)
    finally:
        drained = handle.stop()
        if service is not None:
            service.close()
    return {
        "outcomes": outcomes, "before": before, "after": after,
        "window_us": window_us, "mismatches": bad + mismatches(outcomes, hot),
        "problems": [] if drained else ["in-thread server did not drain"],
    }


def run_traced(workload: str, seed: int, seconds: float, workdir: pathlib.Path) -> Dict[str, Any]:
    """Per-layer run: the same schedule untraced, then traced, in process."""
    half = seconds / 2
    if workload == "serve-warm":
        schedule = warm_phases(seed, int(LADDER_RPS[0] * half))[0]
    else:
        schedule = cold_schedule(seed, half)
    hot = expected_summaries(check_set())
    plain = _traced_phase(schedule, hot, workdir, None)
    tracer = Tracer()
    traced = _traced_phase(schedule, hot, workdir, tracer)

    outcomes = traced["outcomes"]
    events = [e for e in tracer.as_dicts() if e["start_us"] >= traced["window_us"]]
    roots = measure.span_forest(events)
    spans = list(measure.all_spans(roots))
    job_of = {o.trace_id: o.request.job for o in outcomes if o.ok}

    def source_of(experiment: measure.Span) -> str:
        job = experiment.parent
        trace_id = job.args.get("trace_id", "") if job is not None else ""
        return job_of[trace_id].graph_source if trace_id in job_of else "trace"

    rows = measure.experiment_rows(roots, source_of)
    layers = measure.median_rows(rows)
    http = [s for s in spans if s.name == "http_request" and s.args.get("route") == "/v1/design"]
    client = {s.args.get("trace_id"): s for s in spans if s.name == "client_request"}
    submits = sorted((s for s in spans if s.name == "submit_many"), key=lambda s: s.start_us)
    before_service = []
    for h in http:
        first = next((s for s in submits if h.start_us <= s.start_us <= h.end_us), None)
        if first is not None:
            before_service.append((first.start_us - h.start_us) / 1e3)
    layers.update({
        "service.submit_hit_ms": measure.median_or_zero(
            s.duration_us / 1e3 for s in submits if s.args.get("distinct") == 0),
        "service.submit_miss_ms": measure.median_or_zero(
            s.duration_us / 1e3 for s in submits if s.args.get("distinct", 0) > 0),
        "service.job_ms": measure.median_or_zero(
            s.duration_us / 1e3 for s in spans if s.name == "job"),
        "server.http_ms": measure.median_or_zero(h.duration_us / 1e3 for h in http),
        "server.before_service_ms": measure.median_or_zero(before_service),
        "server.client_side_ms": measure.median_or_zero(
            (client[h.args["trace_id"]].duration_us - h.duration_us) / 1e3
            for h in http if h.args.get("trace_id") in client),
    })
    counters = service_counters(traced["before"], traced["after"], outcomes)
    layers.update(counters)
    ev_plain, ev_traced = evaluate(plain["outcomes"]), evaluate(outcomes)
    layers["loadgen.late_ms_p99"] = ev_traced["late_ms_p99"]
    layers["obs.trace_overhead"] = ev_traced["latency"]["p25_ms"] / ev_plain["latency"]["p25_ms"]
    bad = plain["mismatches"] + traced["mismatches"]
    problems = plain["problems"] + traced["problems"]
    return {
        "attempted": len(plain["outcomes"]) + len(outcomes),
        "failed": failures(plain["outcomes"] + outcomes, bad, problems, counters),
        "mismatches": bad,
        "problems": problems,
        "untraced_phase": ev_plain,
        "traced_phase": ev_traced,
        "layers": layers,
        "layer_table": measure.layer_table(roots, "client_request"),
        "chrome_trace": tracer.to_chrome_trace(),
    }

