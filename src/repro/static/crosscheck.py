"""Differential cross-check: static graph vs tracer-derived graph.

Modeled on :mod:`repro.verify.conformance`: the static analyzer is only
admissible as a design input because it is *provably* in agreement with
the QUAD tracer on the applications both can see. This module is that
proof machinery — it folds a traced profile exactly as
:meth:`~repro.core.commgraph.CommGraph.from_profile` does, then diffs it
against :func:`repro.static.analyzer.analyze`'s output per edge:

* **deterministic edges** (every edge of canny, KLT, and fluid; JPEG's
  coefficient and table edges) must agree **byte-exactly** — no
  tolerances;
* **data-dependent edges** (JPEG's entropy-coded bitstreams) must
  *contain* the traced value within their declared ``[lo, hi]`` bounds,
  and each one must be named by a typed approximation record;
* per-kernel **work** counters must agree bit-for-bit (``repr``
  equality, as in the simulator conformance suite);
* the heaviest-first **kernel→kernel edge order** must match, so
  Algorithm 1 walks both graphs in the same sequence.

The comparison itself is pure (:func:`compare_graphs`); only
:func:`crosscheck_app` touches the instrumented applications, through
the public :mod:`repro.apps` API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..apps import get_application
from ..core.commgraph import CommGraph
from ..core.kernel import KernelSpec
from ..errors import ConfigurationError
from ..io import FORMAT_VERSION, validate_document
from .analyzer import HOST, StaticGraph
from .apps import STATIC_APP_NAMES
from .fit import describe_application
from .ir import Extent

#: Document kind for serialized cross-check reports.
STATIC_DIFF_KIND = "static-diff"

#: Edge statuses. ``exact`` and ``within-bounds`` pass; the rest fail.
STATUS_EXACT = "exact"
STATUS_WITHIN = "within-bounds"
STATUS_MISMATCH = "mismatch"
STATUS_STATIC_ONLY = "static-only"
STATUS_TRACE_ONLY = "trace-only"

_PASSING = frozenset({STATUS_EXACT, STATUS_WITHIN})


@dataclass(frozen=True, slots=True)
class EdgeDiff:
    """One folded edge, compared across the two derivations."""

    producer: str
    consumer: str
    static: Optional[Extent]
    traced: Optional[int]
    status: str

    @property
    def ok(self) -> bool:
        """Whether this edge passes the cross-check."""
        return self.status in _PASSING

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (embedded in the static-diff document)."""
        doc: Dict[str, object] = {
            "producer": self.producer,
            "consumer": self.consumer,
            "traced": self.traced,
            "status": self.status,
        }
        if self.static is not None:
            doc["lo"] = self.static.lo
            doc["nominal"] = self.static.nominal
            doc["hi"] = self.static.hi
        return doc


@dataclass(frozen=True, slots=True)
class WorkDiff:
    """One kernel's work counter, compared bit-for-bit."""

    kernel: str
    static: float
    traced: float
    status: str

    @property
    def ok(self) -> bool:
        """Whether the counters agree."""
        return self.status == STATUS_EXACT

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (embedded in the static-diff document)."""
        return {
            "kernel": self.kernel,
            "static": self.static,
            "traced": self.traced,
            "status": self.status,
        }


@dataclass(frozen=True)
class AppCrosscheck:
    """Full per-application diff report."""

    app: str
    scale: int
    seed: int
    edges: Tuple[EdgeDiff, ...]
    work: Tuple[WorkDiff, ...]
    #: Whether both graphs order kernel→kernel edges identically
    #: (heaviest first) — Algorithm 1's walk order.
    kk_order_ok: bool
    #: Approximation records carried by the static graph.
    approximations: int

    @property
    def ok(self) -> bool:
        """Whether the application passes the cross-check."""
        return (
            self.kk_order_ok
            and all(e.ok for e in self.edges)
            and all(w.ok for w in self.work)
        )

    @property
    def exact_edges(self) -> int:
        """Number of byte-exact edges."""
        return sum(1 for e in self.edges if e.status == STATUS_EXACT)

    @property
    def bounded_edges(self) -> int:
        """Number of bounded (data-dependent) edges."""
        return sum(1 for e in self.edges if e.status == STATUS_WITHIN)

    def failures(self) -> List[str]:
        """Human-readable failure lines (empty when ok)."""
        lines = []
        if not self.kk_order_ok:
            lines.append(f"{self.app}: kernel edge order differs")
        for e in self.edges:
            if not e.ok:
                lines.append(
                    f"{self.app}: {e.producer}->{e.consumer} {e.status} "
                    f"(static={e.static}, traced={e.traced})"
                )
        for w in self.work:
            if not w.ok:
                lines.append(
                    f"{self.app}: work[{w.kernel}] static={w.static!r} "
                    f"traced={w.traced!r}"
                )
        return lines

    def to_dict(self) -> Dict[str, object]:
        """Per-application section of the static-diff document."""
        return {
            "ok": self.ok,
            "scale": self.scale,
            "seed": self.seed,
            "exact_edges": self.exact_edges,
            "bounded_edges": self.bounded_edges,
            "kk_order_ok": self.kk_order_ok,
            "approximations": self.approximations,
            "edges": [e.to_dict() for e in self.edges],
            "work": [w.to_dict() for w in self.work],
        }


def _edge_status(static: Optional[Extent], traced: Optional[int]) -> str:
    if static is None:
        return STATUS_TRACE_ONLY
    if traced is None:
        # A bounded edge admitting zero bytes may legitimately be
        # missing from the trace; anything else is a phantom edge.
        if not static.exact and static.lo == 0:
            return STATUS_WITHIN
        return STATUS_STATIC_ONLY
    if static.exact:
        return STATUS_EXACT if static.nominal == traced else STATUS_MISMATCH
    return STATUS_WITHIN if static.contains(traced) else STATUS_MISMATCH


def compare_graphs(
    static: StaticGraph,
    traced: CommGraph,
    traced_work: Mapping[str, float],
    scale: int = 1,
    seed: int = 2014,
) -> AppCrosscheck:
    """Pure per-edge diff of a static graph against a traced graph."""
    edges: List[EdgeDiff] = []
    for key in sorted(set(static.kk_edges) | set(traced.kk_edges)):
        s = static.kk_edges.get(key)
        t = traced.kk_edges.get(key)
        edges.append(
            EdgeDiff(key[0], key[1], s, t, _edge_status(s, t))
        )
    for attr in ("host_in", "host_out"):
        s_map: Mapping[str, Extent] = getattr(static, attr)
        t_map: Mapping[str, int] = getattr(traced, attr)
        for kernel in sorted(set(s_map) | set(t_map)):
            s = s_map.get(kernel)
            t = t_map.get(kernel)
            producer, consumer = (
                (HOST, kernel) if attr == "host_in" else (kernel, HOST)
            )
            edges.append(
                EdgeDiff(producer, consumer, s, t, _edge_status(s, t))
            )
    work = tuple(
        WorkDiff(
            kernel=k,
            static=static.work.get(k, 0.0),
            traced=traced_work.get(k, 0.0),
            # repr-compare: bit-for-bit, as the conformance suite does.
            status=(
                STATUS_EXACT
                if repr(static.work.get(k, 0.0)) == repr(traced_work.get(k, 0.0))
                else STATUS_MISMATCH
            ),
        )
        for k in sorted(set(static.work) | set(traced_work))
    )
    return AppCrosscheck(
        app=static.app,
        scale=scale,
        seed=seed,
        edges=tuple(edges),
        work=work,
        kk_order_ok=list(static.kk_edges) == list(traced.kk_edges),
        approximations=len(static.approximations),
    )


def crosscheck_app(
    name: str, scale: int = 1, seed: int = 2014
) -> AppCrosscheck:
    """Trace one application and diff its graph against the static one."""
    app = get_application(name, scale=scale, seed=seed)
    profile = app.profile()
    names = app.kernel_names()
    traced = CommGraph.from_profile(
        profile, [KernelSpec(n, 0.0, 0.0) for n in names]
    )
    traced_work = {n: profile.function(n).work for n in names}
    static = describe_application(app)
    return compare_graphs(static, traced, traced_work, scale=scale, seed=seed)


def crosscheck_apps(
    names: Sequence[str] = STATIC_APP_NAMES,
    scale: int = 1,
    seed: int = 2014,
) -> List[AppCrosscheck]:
    """Cross-check several applications (all four by default)."""
    if not names:
        raise ConfigurationError("no applications to cross-check")
    return [crosscheck_app(n, scale=scale, seed=seed) for n in names]


def crosscheck_to_dict(checks: Sequence[AppCrosscheck]) -> Dict[str, object]:
    """Serialize cross-check reports to the ``static-diff`` document."""
    return {
        "kind": STATIC_DIFF_KIND,
        "version": FORMAT_VERSION,
        "ok": all(c.ok for c in checks),
        "apps": {c.app: c.to_dict() for c in checks},
    }


def validate_crosscheck_doc(data: Dict[str, object]) -> None:
    """Envelope check for a loaded static-diff document."""
    validate_document(data, STATIC_DIFF_KIND)


def render_crosscheck(check: AppCrosscheck) -> str:
    """One human-readable block per application (CLI output)."""
    verdict = "ok" if check.ok else "FAIL"
    lines = [
        f"{check.app}: {verdict} — {check.exact_edges} exact edge(s), "
        f"{check.bounded_edges} bounded, "
        f"{check.approximations} approximation record(s)"
    ]
    for e in check.edges:
        tag = e.status
        if e.static is None:
            span = "-"
        elif e.static.exact:
            span = f"{e.static.nominal}"
        else:
            span = f"[{e.static.lo}, {e.static.hi}] ~{e.static.nominal}"
        lines.append(
            f"  {e.producer:>18} -> {e.consumer:<18} "
            f"static {span:>24}  traced {e.traced!s:>10}  {tag}"
        )
    for f in check.failures():
        lines.append(f"  ! {f}")
    return "\n".join(lines)
