"""End-to-end benchmark of the design flow, in process and served.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload WORKLOAD] [--seed N] \
        [--seconds S] [--trace 0|1] [--out DIR]

WORKLOAD is design-trace, design-static, serve-warm, serve-cold or all
(the default); the seed defaults to 1 and the run length to
``run_seconds`` in ``BENCHMARK.json``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that gives the per-layer metrics (and writes a
Chrome trace and a layer table). Metric names and units come from
``BENCHMARK.json``. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 1
when any output differed from the program's in-process result.

Each workload runs in fresh child interpreters: the design workloads in
``design_child.py``, the served ones as ``python -m repro serve`` driven
from this process (a traced served run embeds the server here instead).
Set-up time is the median of several starts. The design workloads' times
and every set-up time are scaled to a reference host speed
(``measure.reference_loop``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

import measure

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORKLOADS = ("design-trace", "design-static", "serve-warm", "serve-cold")
#: Starts per run behind the set-up time median.
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60.0


def _design_child(args: List[str], env: Dict[str, str], timeout: float) -> str:
    """Run ``design_child.py``; its standard output."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "design_child.py"), *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"design child exited {proc.returncode}")
    return proc.stdout


def run_design(workload: str, seed: int, seconds: float, trace: int,
               workdir: pathlib.Path, env: Dict[str, str], cpu: int) -> Dict[str, Any]:
    """The design child, and its set-up probes, all on ``cpu``."""
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]

    def start() -> float:
        # CLOCK_MONOTONIC is system-wide, so the child's ready time
        # compares with ours.
        begin = time.monotonic()
        return float(_design_child([*common, "--probe"], env, PROBE_TIMEOUT_S)) - begin

    with measure.on_cpu(cpu):
        setups = [measure.setup_sample(start, cpu) for _ in range(SETUP_SAMPLES)]
        result = workdir / "child.json"
        _design_child([*common, "--trace", str(trace), "--result", str(result)],
                      env, seconds + 120.0)
    doc = json.loads(result.read_text())
    doc["setup_unscaled_s"] = [raw for raw, _ in setups]
    doc["setup_samples_s"] = [scaled for _, scaled in setups]
    doc["mismatches"] = doc.pop("golden_mismatches")
    doc["failed"] += len(doc["mismatches"])
    return doc


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 out: pathlib.Path, spec: Dict[str, Any], cpus: List[int]) -> Dict[str, Any]:
    """One workload, one run: the result object and the details file."""
    workdir = out / f"tmp-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = _child_env()
    try:
        if workload.startswith("design-"):
            doc = run_design(workload, seed, seconds, trace, workdir, env, cpus[0])
        else:
            import serving

            if trace:
                doc = serving.run_traced(workload, seed, seconds, workdir)
            else:
                doc = serving.run_untraced(workload, seed, seconds, workdir, env,
                                           SETUP_SAMPLES, cpus)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = out / f"{workload}-seed{seed}-trace{trace}"
    if trace:
        values = {m["name"]: doc["layers"].get(m["name"], 0.0) for m in spec["per_layer"]}
        (stem.with_suffix(".layers.txt")).write_text(doc.pop("layer_table"))
        (stem.with_suffix(".chrome.json")).write_text(json.dumps(doc.pop("chrome_trace")))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "latency_p25_ms": doc["latency"]["p25_ms"],
            "designs_per_s": doc["designs_per_s"],
            "peak_rss_mb": doc["peak_rss_mb"],
            "setup_s": statistics.median(doc["setup_samples_s"]),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    doc["metrics"] = values
    (stem.with_suffix(".json")).write_text(json.dumps(doc, indent=1, sort_keys=True))
    return {
        "correct": not doc["mismatches"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="End-to-end design-flow benchmark.")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="run length; default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, default=HERE / "out")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the with-blocks stop every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        print("error: the benchmark needs at least 2 CPUs (server and load "
              "generator run side by side)", file=sys.stderr)
        return 2
    if not (SRC / "repro").is_dir():
        print(f"error: no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    sys.path.insert(0, str(SRC))
    args.out.mkdir(parents=True, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, seconds, args.trace,
                                     args.out, spec, cpus)
        print(json.dumps(results[name]), flush=True)
    if len(names) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
