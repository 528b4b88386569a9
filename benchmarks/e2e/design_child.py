"""Child interpreter for the in-process workloads, design-trace and design-static.

``run.py`` spawns this file in a fresh interpreter for every run, so the
imports, the warm-up call and the peak memory measured are the
workload's own. The child

1. imports the flow and makes one warm-up ``run_experiment`` call
   (``--probe`` prints the time and exits here: that is one set-up
   sample);
2. checks the 16-job check set against ``goldens.json``;
3. calls ``run_experiment`` back to back on the seeded job stream, in
   whole decks, until ``--seconds`` have passed (closed loop, one
   thread), timing ``measure.reference_loop`` between decks;
4. writes its results as JSON to ``--result``.

With ``--trace 1`` every other deck of jobs runs under a
``repro.obs.trace.Tracer``; the per-layer numbers come from those
decks' spans and the untraced decks give the tracing overhead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import resource
import statistics
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import run_experiment
from repro.flow import result_summary
from repro.obs.trace import Tracer

import measure
from checks import golden_mismatches, sane
from workloads import DESIGN_DECK, Job, design_jobs

SOURCE_OF = {"design-trace": "trace", "design-static": "static"}


def run_deck(jobs: Iterator[Job], tracer: Optional[Tracer],
             errors: List[str]) -> Tuple[List[float], float]:
    """One deck of calls: the milliseconds of each that succeeded, and
    the deck's wall seconds. Failures are appended to ``errors``."""
    calls: List[float] = []
    start = time.perf_counter()
    for job in itertools.islice(jobs, len(DESIGN_DECK)):
        t0 = time.perf_counter()
        try:
            result = run_experiment(
                job.app, scale=job.scale, seed=job.seed,
                graph_source=job.graph_source, trace=tracer,
            )
        except Exception as exc:  # a failed design is counted, not fatal
            errors.append(f"{job.label}: {type(exc).__name__}: {exc}")
            continue
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        if sane(result_summary(result)):
            calls.append(elapsed_ms)
        else:
            errors.append(f"{job.label}: malformed summary")
    return calls, time.perf_counter() - start


def closed_loop(source: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run whole decks of seeded jobs back to back until ``seconds`` have
    passed, with a reference loop between decks.

    Each deck's times are scaled to the reference host by the loops on
    either side of it. Returns the scaled call times of untraced and
    traced decks, the raw ones of untraced decks, and the scaled seconds
    of each untraced deck.
    """
    tracer = Tracer() if trace else None
    plain: List[float] = []
    traced: List[float] = []
    raw: List[float] = []
    deck_s: List[float] = []
    errors: List[str] = []
    jobs = design_jobs(seed, source)
    loop_ms = [measure.reference_loop()]
    start = time.perf_counter()
    decks = 0
    while time.perf_counter() < start + seconds:
        use_tracer = tracer is not None and decks % 2 == 1
        calls, wall_s = run_deck(jobs, tracer if use_tracer else None, errors)
        loop_ms.append(measure.reference_loop())
        factor = measure.host_factor(loop_ms[-2], loop_ms[-1])
        decks += 1
        if use_tracer:
            traced += [ms * factor for ms in calls]
        else:
            raw += calls
            plain += [ms * factor for ms in calls]
            deck_s.append(wall_s * factor)
    return {
        "attempted": decks * len(DESIGN_DECK),
        "errors": errors,
        "plain_ms": plain,
        "traced_ms": traced,
        "raw_ms": raw,
        "deck_s": deck_s,
        "loop_ms": loop_ms,
        "elapsed_s": time.perf_counter() - start,
        "tracer": tracer,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SOURCE_OF), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=pathlib.Path)
    parser.add_argument("--probe", action="store_true",
                        help="print the ready time after the warm-up and exit")
    args = parser.parse_args(argv)
    if not args.probe and args.result is None:
        parser.error("--result is required unless --probe is given")
    source = SOURCE_OF[args.workload]

    run_experiment("canny", graph_source=source)
    if args.probe:
        print(repr(time.monotonic()))
        return 0

    mismatches = golden_mismatches()
    loop = closed_loop(source, args.seed, args.seconds, bool(args.trace))
    doc: Dict[str, Any] = {
        "golden_mismatches": mismatches,
        "attempted": loop["attempted"],
        "failed": len(loop["errors"]),
        "errors": loop["errors"][:20],
        "elapsed_s": loop["elapsed_s"],
        # A deck holds every (app, scale) once, so its time does not
        # depend on which jobs a slice of the run happened to get.
        "designs_per_s": len(DESIGN_DECK) / statistics.median(loop["deck_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latency": measure.latency_summary(loop["plain_ms"]),
        "latency_unscaled": measure.latency_summary(loop["raw_ms"]),
        "reference_loop_ms": measure.quartiles(loop["loop_ms"]),
    }
    tracer = loop["tracer"]
    if tracer is not None:
        doc["traced_latency"] = measure.latency_summary(loop["traced_ms"])
        roots = measure.span_forest(tracer.as_dicts())
        rows = measure.experiment_rows(roots, lambda span: source)
        layers = measure.median_rows(rows)
        layers["obs.trace_overhead"] = (
            doc["traced_latency"]["p25_ms"] / doc["latency"]["p25_ms"]
        )
        doc["layers"] = layers
        doc["layer_table"] = measure.layer_table(roots, "experiment")
        doc["chrome_trace"] = tracer.to_chrome_trace()
    args.result.write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
