"""The fuzz campaign driver, wired through the service layer.

One fuzz *case* is a :class:`~repro.verify.generate.FuzzJob` — a
picklable ``(spec, seed, index)`` triple the
:class:`~repro.service.api.DesignService` treats exactly like a design
job: it has an ``app`` label and a content :meth:`~FuzzJob.fingerprint`,
so campaigns enjoy the same result caching, batch coalescing and
process-pool parallelism as experiment sweeps. The worker entry point
:func:`run_fuzz_job` generates the case, designs it, and runs the full
check stack (static analyzer → differential oracle → metamorphic),
returning a JSON-safe verdict; it never raises, so deterministic
failures are reported once instead of burning the executor's retry
budget.

:func:`run_fuzz` drives a whole campaign and (optionally) minimizes each
failing case in-process with :func:`~repro.verify.shrink.shrink_case`,
producing a :class:`FuzzReport` whose serialized form is the CLI's and
CI's JSON artifact. Reports are deterministic: same spec + seed + case
count → byte-identical report.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set

from ..analyze import Severity, analyze_plan
from ..core.designer import design_interconnect
from ..core.plan import InterconnectPlan
from ..errors import ReproError
from ..sim.systems import SystemParams
from ..io import FORMAT_VERSION, canonical_json
from ..obs.trace import Tracer, active
from ..service.api import DesignService
from .generate import FuzzSpec, GeneratedCase, generate_case
from .oracle import Violation, differential_check, metamorphic_checks
from .shrink import DEFAULT_BUDGET, shrink_case

#: Document kind of the serialized campaign report.
REPORT_KIND = "fuzz-report"
#: Check name reported when the designer itself raises.
DESIGNER_ERROR = "designer_error"
#: Check name reported when a checker (not the design) crashes.
ORACLE_ERROR = "oracle_error"


@dataclass(frozen=True)
class FuzzJob:
    """One service-schedulable fuzz case (picklable, content-addressed)."""

    spec: FuzzSpec
    seed: int
    index: int

    @property
    def app(self) -> str:
        """Label used by service metrics/traces, like a design job's app."""
        return f"fuzz[{self.seed}:{self.index}]"

    def fingerprint(self) -> str:
        """Content hash — the service's cache/coalescing key."""
        payload = {
            "kind": "fuzz-job",
            "version": FORMAT_VERSION,
            "spec": self.spec.to_dict(),
            "seed": self.seed,
            "index": self.index,
        }
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def analyzer_check(
    plan: InterconnectPlan, params: Optional[SystemParams] = None
) -> List[Violation]:
    """Static-analyzer oracle: error diagnostics are plan violations.

    The analyzer's error severity is reserved for structural
    obligations of Algorithm 1, so any error on a designer-produced
    plan is a bug — in the designer or in the rule. Each violation is
    named by its rule id (``P002``, ``P007``, ...), so campaign reports
    and the shrinker tell the failure modes apart.
    """
    report = analyze_plan(plan, params=params)
    return [
        Violation(d.rule, d.path or plan.app, d.message)
        for d in report.diagnostics
        if d.severity is Severity.ERROR
    ]


def evaluate_case(case: GeneratedCase) -> List[Violation]:
    """The full check stack over one case.

    Designer failures become a single ``designer_error`` violation;
    checker crashes become ``oracle_error`` — both named distinctly so
    the shrinker stays locked onto the original failure mode.
    """
    try:
        plan = design_interconnect(case.label(), case.graph, case.config())
    except ReproError as exc:
        return [Violation(DESIGNER_ERROR, case.label(), str(exc))]
    violations: List[Violation] = []
    try:
        violations += analyzer_check(plan, case.params)
    except ReproError as exc:
        violations.append(Violation(ORACLE_ERROR, case.label(), str(exc)))
    try:
        violations += differential_check(case, plan)
    except ReproError as exc:
        violations.append(Violation(ORACLE_ERROR, case.label(), str(exc)))
    try:
        violations += metamorphic_checks(case)
    except ReproError as exc:
        violations.append(Violation(ORACLE_ERROR, case.label(), str(exc)))
    return violations


def failing_checks(case: GeneratedCase) -> Set[str]:
    """Names of the checks ``case`` fails (the shrinker's evaluator)."""
    return {v.check for v in evaluate_case(case)}


def run_fuzz_job(job: FuzzJob) -> Dict[str, Any]:
    """Pool-safe worker entry: one case, full verdict, never raises."""
    try:
        case = generate_case(job.spec, job.seed, job.index)
        violations = evaluate_case(case)
    except Exception as exc:  # noqa: BLE001 — verdicts must come home
        violations = [
            Violation(
                ORACLE_ERROR,
                job.app,
                f"harness crashed: {type(exc).__name__}: {exc}",
            )
        ]
    return {
        "seed": job.seed,
        "index": job.index,
        "failed": bool(violations),
        "checks": sorted({v.check for v in violations}),
        "violations": [v.as_dict() for v in violations],
    }


@dataclass(frozen=True)
class FuzzFailure:
    """One failing case, with its minimized witness when shrinking ran."""

    seed: int
    index: int
    checks: Sequence[str]
    violations: Sequence[Mapping[str, Any]]
    case: Mapping[str, Any]
    shrunk: Optional[Mapping[str, Any]] = None
    shrink_steps: Sequence[str] = ()
    shrink_evaluations: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "index": self.index,
            "checks": list(self.checks),
            "violations": [dict(v) for v in self.violations],
            "case": dict(self.case),
            "shrunk": None if self.shrunk is None else dict(self.shrunk),
            "shrink_steps": list(self.shrink_steps),
            "shrink_evaluations": self.shrink_evaluations,
        }


@dataclass
class FuzzReport:
    """Outcome of one campaign; ``to_dict()`` is the JSON artifact."""

    spec: FuzzSpec
    seed: int
    cases: int
    failures: List[FuzzFailure] = field(default_factory=list)
    cached: int = 0
    mode: str = "serial"

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def passed(self) -> int:
        return self.cases - len(self.failures)

    def check_counts(self) -> Dict[str, int]:
        """Failing-check histogram across all failures."""
        counts: Dict[str, int] = {}
        for failure in self.failures:
            for check in failure.checks:
                counts[check] = counts.get(check, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": REPORT_KIND,
            "version": FORMAT_VERSION,
            "spec": self.spec.to_dict(),
            "seed": self.seed,
            "cases": self.cases,
            "passed": self.passed,
            "failed": len(self.failures),
            "cached": self.cached,
            "mode": self.mode,
            "check_counts": self.check_counts(),
            "failures": [f.to_dict() for f in self.failures],
        }

    def render(self) -> str:
        """Terminal summary of the campaign."""
        lines = [
            f"fuzz campaign: seed={self.seed} cases={self.cases} "
            f"passed={self.passed} failed={len(self.failures)} "
            f"(mode={self.mode}, cached={self.cached})"
        ]
        for name, count in self.check_counts().items():
            lines.append(f"  {name:<26} {count} failing case(s)")
        for failure in self.failures:
            lines.append(
                f"  fuzz[{failure.seed}:{failure.index}] fails "
                f"{', '.join(failure.checks)}"
            )
            target = failure.shrunk if failure.shrunk is not None else failure.case
            graph = target.get("graph", {})
            lines.append(
                f"    minimal witness: {len(graph.get('kernels', []))} kernel(s), "
                f"{len(graph.get('kk_edges', []))} edge(s), "
                f"{len(failure.shrink_steps)} shrink step(s)"
            )
            for violation in failure.violations[:3]:
                lines.append(
                    f"    {violation['check']}: {violation['message']}"
                )
        if self.ok:
            lines.append("  all analyzer, differential and metamorphic checks held")
        return "\n".join(lines)


def run_fuzz(
    spec: Optional[FuzzSpec] = None,
    seed: int = 0,
    cases: int = 100,
    jobs: int = 1,
    shrink: bool = True,
    shrink_budget: int = DEFAULT_BUDGET,
    service: Optional[DesignService] = None,
    tracer: Optional[Tracer] = None,
) -> FuzzReport:
    """Run a whole campaign through the (cached, parallel) service layer.

    Failures found by the parallel sweep are re-evaluated and minimized
    serially in-process, so the shrinker sees live exceptions and the
    monkeypatchable production code under test.
    """
    spec = spec if spec is not None else FuzzSpec()
    tracer = active(tracer)
    if service is None:
        service = DesignService(jobs=jobs, runner=run_fuzz_job, tracer=tracer)
    fuzz_jobs = [FuzzJob(spec, seed, i) for i in range(cases)]

    with tracer.span("fuzz_campaign", category="verify", seed=seed, cases=cases):
        results = service.submit_many(fuzz_jobs)
    service.metrics.incr("fuzz_cases", cases)

    report = FuzzReport(
        spec=spec,
        seed=seed,
        cases=cases,
        cached=sum(1 for r in results if r.cached),
        mode=service.stats().get("last_mode", "serial"),
    )
    for result in results:
        summary = result.summary
        if not summary.get("failed"):
            continue
        service.metrics.incr("fuzz_failures")
        index = summary["index"]
        case = generate_case(spec, seed, index)
        failure = FuzzFailure(
            seed=seed,
            index=index,
            checks=tuple(summary["checks"]),
            violations=tuple(summary["violations"]),
            case=case.to_dict(),
        )
        if shrink:
            with tracer.span(
                "fuzz_shrink", category="verify", seed=seed, index=index
            ):
                shrunk = shrink_case(case, failing_checks, budget=shrink_budget)
            service.metrics.incr("fuzz_shrink_evaluations", shrunk.evaluations)
            failure = FuzzFailure(
                seed=seed,
                index=index,
                checks=tuple(summary["checks"]),
                violations=tuple(summary["violations"]),
                case=case.to_dict(),
                shrunk=shrunk.case.to_dict(),
                shrink_steps=shrunk.steps,
                shrink_evaluations=shrunk.evaluations,
            )
        report.failures.append(failure)
    return report
