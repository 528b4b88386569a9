"""The rule engine: context construction, rule registry, entry point.

:func:`analyze_plan` is the analyzer's single entry point: given an
:class:`~repro.core.plan.InterconnectPlan` (plus the
:class:`~repro.sim.systems.SystemParams` it will run under and,
optionally, the raw :class:`~repro.profiling.quad.CommunicationProfile`
it was designed from), it builds one immutable
:class:`AnalysisContext` and runs every registered rule over it in
stable id order. No rule simulates anything; the whole pass is pure
graph/plan arithmetic and is fast enough to run on every design
(``run_experiment(lint=True)``, the fuzz oracle, the service hook).

Rules read the designer's configuration from the plan's provenance log
(the ``config`` stage event records every toggle); a plan without
provenance — e.g. deserialized from JSON, which drops it — degrades
gracefully: config-dependent rules fall back to soundness-only checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.commgraph import CommGraph
from ..core.plan import InterconnectPlan
from ..core.sharing import residual_graph
from ..obs import provenance as prov
from ..profiling.quad import CommunicationProfile
from ..sim.systems import SystemParams
from .bounds import LaneBounds, lane_bounds
from .diagnostics import AnalysisReport, Diagnostic, Severity


def config_from_provenance(plan: InterconnectPlan) -> Dict[str, Any]:
    """The designer toggles recorded in the plan's ``config`` event.

    Empty when the plan carries no provenance (e.g. after a JSON
    round-trip, which intentionally drops the decision log).
    """
    for event in plan.provenance:
        if event.stage == prov.STAGE_CONFIG:
            return event.detail_map
    return {}


@dataclass(frozen=True)
class AnalysisContext:
    """Everything a rule may look at — computed once per plan."""

    plan: InterconnectPlan
    params: SystemParams
    #: Post-duplication graph (alias for ``plan.graph``).
    graph: CommGraph
    #: Graph with SM-satisfied edges removed (classification input).
    residual: CommGraph
    #: Designer toggles from provenance; ``{}`` when unavailable.
    config: Mapping[str, Any]
    #: Static lane bounds shared with ``--sim-crosscheck``.
    bounds: LaneBounds
    #: Raw QUAD profile (byte/UMA counts); optional.
    profile: Optional[CommunicationProfile] = None

    def toggle(self, name: str, default: bool = True) -> bool:
        """A boolean designer toggle, defaulting when unrecorded."""
        value = self.config.get(name, default)
        return bool(value)


RuleFn = Callable[[AnalysisContext], Iterable[Diagnostic]]


@dataclass(frozen=True)
class Rule:
    """One registered static check."""

    id: str
    name: str
    #: ``"graph"``, ``"plan"`` or ``"noc"`` (DESIGN.md §11 families).
    family: str
    #: Worst severity the rule can emit (documentation + SARIF level).
    max_severity: Severity
    description: str
    fn: RuleFn = field(repr=False)


def _registry() -> Tuple[Rule, ...]:
    from . import rules_graph, rules_noc, rules_plan

    rules: List[Rule] = [
        *rules_graph.RULES, *rules_plan.RULES, *rules_noc.RULES,
    ]
    ids = [r.id for r in rules]
    if len(ids) != len(set(ids)):  # pragma: no cover - registration bug
        raise ValueError(f"duplicate rule ids: {sorted(ids)}")
    return tuple(sorted(rules, key=lambda r: r.id))


_RULES: Optional[Tuple[Rule, ...]] = None


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, sorted by id (stable public order)."""
    global _RULES
    if _RULES is None:
        _RULES = _registry()
    return _RULES


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by id (raises ``KeyError`` when unknown)."""
    for rule in all_rules():
        if rule.id == rule_id:
            return rule
    raise KeyError(rule_id)


def build_context(
    plan: InterconnectPlan,
    params: Optional[SystemParams] = None,
    profile: Optional[CommunicationProfile] = None,
) -> AnalysisContext:
    """Assemble the shared per-plan analysis context."""
    params = params if params is not None else SystemParams()
    # A link on an edge the graph lacks is P002's finding, not a crash.
    links = tuple(
        l for l in plan.sharing
        if (l.producer, l.consumer) in plan.graph.kk_edges
    )
    return AnalysisContext(
        plan=plan,
        params=params,
        graph=plan.graph,
        residual=residual_graph(plan.graph, links),
        config=config_from_provenance(plan),
        bounds=lane_bounds(plan, params),
        profile=profile,
    )


def analyze_plan(
    plan: InterconnectPlan,
    params: Optional[SystemParams] = None,
    profile: Optional[CommunicationProfile] = None,
) -> AnalysisReport:
    """Run every rule over one plan; never simulates, never raises
    on findings (a finding is a :class:`Diagnostic`, not an exception).
    """
    ctx = build_context(plan, params=params, profile=profile)
    diagnostics: List[Diagnostic] = []
    for rule in all_rules():
        diagnostics.extend(rule.fn(ctx))
    return AnalysisReport(app=plan.app, diagnostics=tuple(diagnostics))
