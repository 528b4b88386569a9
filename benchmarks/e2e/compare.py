"""Paired comparison of two checkouts on the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR \
        [--pairs 10] [--workload NAME ...] [--seed 1]

Each directory is a checkout holding ``benchmarks/e2e/run.py``. Pair
``i`` runs both sides on seed ``seed + i``, so both see identical inputs,
and alternates which side runs first; every run lasts ``run_seconds``
of this checkout's ``BENCHMARK.json``. For every workload and
end-to-end metric the report gives each side's median and quartiles,
the share of pairs the change won, and a verdict, with the bounds taken
from the same file. The parent's spread is its interquartile range over
its median.

* ``improved``: the change won at least 90% of the pairs, its median
  differs from the parent's by more than the parent's interquartile
  range, and no more operations failed than at the parent;
* ``regressed``: the change's median is worse by more than the bound,
  and the parent's spread is within the bound, or every change run is
  worse than every parent run, or the median is worse by more than the
  bound plus the parent's spread;
* ``unresolved``: the parent's spread is wider than the bound, and the
  change is neither of the above nor better in every run;
* ``within bound``: otherwise.

A noisy parent so hides no clear regression.

The share of failed operations is compared too; any increase regresses.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

import measure

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = pathlib.Path("benchmarks/e2e/run.py")
#: Share of pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            better: str, failures_worse: bool = False) -> Dict[str, Any]:
    """Compare paired samples of one metric (``parent[i]`` with ``change[i]``)."""
    p1, pmed, p3 = measure.quartiles(parent)
    c1, cmed, c3 = measure.quartiles(change)
    wins = sum(_better(c, p, better) for p, c in zip(parent, change))
    worse = (cmed - pmed) / pmed if better == "lower" else (pmed - cmed) / pmed
    spread = (p3 - p1) / pmed
    dominates = all(_better(c, p, better) for c in change for p in parent)
    dominated = all(_better(p, c, better) for c in change for p in parent)
    if (wins >= WIN_SHARE * len(parent) and worse < 0
            and abs(cmed - pmed) > p3 - p1 and not failures_worse):
        result = "improved"
    elif worse > bound and (spread <= bound or dominated or worse > bound + spread):
        result = "regressed"
    elif spread > bound and not dominates:
        result = "unresolved"
    else:
        result = "within bound"
    return {
        "parent": (p1, pmed, p3), "change": (c1, cmed, c3),
        "won": wins / len(parent), "worse_by": worse, "parent_spread": spread,
        "verdict": result,
    }


def failure_share(runs: Sequence[Dict[str, Any]]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 1.0


def run_once(checkout: pathlib.Path, workload: str, seed: int, seconds: int,
             out: pathlib.Path) -> Dict[str, Any]:
    """One untraced run in ``checkout``; a crash counts as one failed operation."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--out", str(out)],
        cwd=checkout, capture_output=True, text=True, timeout=seconds + 300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"attempted": 1, "failed": 1, "metrics": {}, "crashed": proc.stderr[-2000:]}
    doc = json.loads(lines[-1])
    doc["metrics"] = {k: v["value"] for k, v in doc["metrics"].items()}
    return doc


def collect(parent: pathlib.Path, change: pathlib.Path, workloads: Sequence[str],
            pairs: int, seed: int, seconds: int, out: pathlib.Path) -> Dict[str, Dict[str, List]]:
    """``{workload: {"parent": runs, "change": runs}}``, pairs alternating order."""
    sides = {"parent": parent, "change": change}
    runs: Dict[str, Dict[str, List]] = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                doc = run_once(sides[side], workload, seed + i, seconds, out / side)
                runs[workload][side].append(doc)
                print(f"pair {i} {workload} {side}: failed {doc['failed']}/{doc['attempted']}",
                      file=sys.stderr, flush=True)
    return runs


def report(runs: Dict[str, Dict[str, List]], spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per workload and metric, plus one for the failure share."""
    rows = []
    for workload, sides in runs.items():
        fp, fc = failure_share(sides["parent"]), failure_share(sides["change"])
        rows.append({"workload": workload, "metric": "failed_share",
                     "parent": fp, "change": fc,
                     "verdict": "regressed" if fc > fp else "within bound"})
        complete = [(p, c) for p, c in zip(sides["parent"], sides["change"])
                    if p["metrics"] and c["metrics"]]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if not complete:
                rows.append({"workload": workload, "metric": name, "verdict": "no runs"})
                continue
            row = verdict([p["metrics"][name] for p, _ in complete],
                          [c["metrics"][name] for _, c in complete],
                          metric["bound"], metric["better"], failures_worse=fc > fp)
            rows.append(dict(row, workload=workload, metric=name))
    return rows


def render(rows: Sequence[Dict[str, Any]]) -> str:
    lines = [f"{'workload':<14}{'metric':<16}{'parent q1/med/q3':>30}"
             f"{'change q1/med/q3':>30}{'won':>6}{'worse':>8}  verdict"]
    for r in rows:
        if isinstance(r.get("parent"), tuple):
            p = "/".join(f"{x:.4g}" for x in r["parent"])
            c = "/".join(f"{x:.4g}" for x in r["change"])
            lines.append(f"{r['workload']:<14}{r['metric']:<16}{p:>30}{c:>30}"
                         f"{r['won']:>6.0%}{r['worse_by']:>8.1%}  {r['verdict']}")
        elif "parent" in r:
            lines.append(f"{r['workload']:<14}{r['metric']:<16}{r['parent']:>30.4%}"
                         f"{r['change']:>30.4%}{'':>14}  {r['verdict']}")
        else:
            lines.append(f"{r['workload']:<14}{r['metric']:<16}{'':>74}  {r['verdict']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Paired parent/change comparison.")
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=pathlib.Path, default=HERE / "out" / "compare")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for checkout in (args.parent, args.change):
        if not (checkout / RUN).is_file():
            parser.error(f"{checkout} has no {RUN}")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    out = args.out.resolve()
    runs = collect(args.parent.resolve(), args.change.resolve(), workloads,
                   args.pairs, args.seed, spec["run_seconds"], out)
    rows = report(runs, spec)
    out.mkdir(parents=True, exist_ok=True)
    (out / "runs.json").write_text(json.dumps(runs, indent=1))
    (out / "report.json").write_text(json.dumps(rows, indent=1))
    print(render(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
