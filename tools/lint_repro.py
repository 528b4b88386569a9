#!/usr/bin/env python3
"""Repo-specific AST lint rules, run in CI ahead of the test suite.

Eight rules, each encoding an invariant the test suite can only probe
statistically but the AST can prove outright:

* **R1 wall-clock** — no ``time.time()`` / ``time.time_ns()`` /
  ``datetime.now()`` / ``datetime.utcnow()`` inside ``repro.sim``,
  ``repro.core`` or ``repro.apps``. The designer, the simulator and the
  profiled applications must be deterministic functions of their
  inputs; wall-clock reads would break replayable fuzz seeds and the
  byte-identical golden files (the apps' outputs are frozen byte for
  byte in ``tests/goldens/app_outputs.json``).
* **R2 shared RNG** — no module-level ``random.<fn>()`` calls (or
  ``from random import ...``), and no legacy global NumPy RNG calls
  (``np.random.<fn>()`` / ``numpy.random.<fn>()`` other than
  ``default_rng`` and ``Generator``), inside the same scopes.
  Randomness must flow through an explicitly seeded
  ``random.Random(seed)`` or ``np.random.default_rng(seed)`` instance
  so every draw is reproducible.
* **R3 float equality** — no ``==`` / ``!=`` against a float literal
  anywhere in ``src/repro``. Analytic-vs-simulated comparisons go
  through the tolerance helpers; literal float equality is a latent
  flake. (Tests live outside ``src`` and may pin exact values.)
* **R4 schema drift** — every dict literal carrying a ``"kind"`` key is
  a serialized-document schema. Their key sets are digested into
  ``tools/schema_digest.json``; an unacknowledged change fails CI until
  the author reruns with ``--update`` (and, where needed, bumps
  ``FORMAT_VERSION`` / the format docs).
* **R5 raw print** — no bare ``print()`` inside ``repro.server`` or
  ``repro.obs``. Library layers report through the structured event
  log, metrics, and return values; stdout belongs to the CLI layer
  (``repro.cli`` builds the human-facing output), and a stray print
  would corrupt piped CSV/JSON and the SSE wire format.
* **R6 static purity** — no import of ``repro.sim`` or
  ``repro.profiling`` (absolute, ``from``-style, or relative) anywhere
  inside ``repro.static``. The static analyzer's claim is that it
  derives the communication graph *without executing anything*; an
  import of the simulator or the tracer would silently void that claim
  even if no kernel actually runs.
* **R7 engine privacy** — no ``._queue``, ``._seq`` or
  ``._batch_remaining`` attribute access inside ``repro.sim`` outside
  ``sim/engine.py``. Those three fields decide the order in which
  same-time work runs, and every exactness argument of event fusion
  rests on the engine alone deciding it; components order their work
  through ``schedule``, ``call_soon`` and the fusion calls. The rule is
  scoped to ``repro.sim`` because unrelated classes (the event log in
  ``repro.obs.runtime``) have a ``_seq`` of their own.
* **R8 checker independence** — ``repro/analyze/rules_plan.py`` may not
  import from ``repro.core.{mapping,sharing,parallel,duplication,
  placement}``. Those modules make Algorithm 1's decisions, and the plan
  rules check them: a rule that imports the helper it checks is blind
  to a bug in that helper. Data types from ``repro.core.plan`` and
  ``repro.core.topology`` and the ``repro.units`` clocks stay allowed.

Usage::

    python tools/lint_repro.py            # check, exit 1 on findings
    python tools/lint_repro.py --update   # rewrite the schema digest
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import pathlib
import sys
from typing import Any, Dict, Iterator, List, NamedTuple, Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
DIGEST_PATH = REPO_ROOT / "tools" / "schema_digest.json"

#: Subpackages under the determinism contract (R1 + R2).
DETERMINISTIC_SCOPES = ("sim", "core", "apps")

#: Subpackages that must not write to stdout (R5) — they report through
#: the event log / metrics / return values; printing is the CLI's job.
SILENT_SCOPES = ("server", "obs")

#: Subpackages under the execution-free contract (R6) — the static
#: analyzer derives the graph without running anything, so it may import
#: neither the simulator nor the tracer.
PURE_SCOPES = ("static",)

#: Dotted package prefixes the pure scopes must not import (R6).
IMPURE_IMPORTS = ("repro.sim", "repro.profiling")

#: Subpackage whose modules may not touch the engine's ordering state
#: (R7), and the one module of it that owns that state.
ENGINE_SCOPE = "sim"
ENGINE_MODULE = ("sim", "engine.py")

#: Engine attributes that decide same-time ordering (R7).
ENGINE_PRIVATE = frozenset({"_queue", "_seq", "_batch_remaining"})

#: The Algorithm 1 checker (R8), and the decision modules it re-derives
#: instead of importing.
CHECKER_MODULE = ("analyze", "rules_plan.py")
CHECKED_IMPORTS = tuple(
    f"repro.core.{name}"
    for name in ("mapping", "sharing", "parallel", "duplication", "placement")
)

#: Prefixes of the legacy process-global NumPy RNG (R2), and the two
#: constructors under them that build a seeded generator instead.
NUMPY_RANDOM = ("np.random", "numpy.random")
NUMPY_SEEDED = frozenset({"default_rng", "Generator"})

#: Dotted-call suffixes that read the wall clock.
WALL_CLOCK_CALLS = frozenset(
    {"time.time", "time.time_ns", "datetime.now", "datetime.utcnow"}
)


class Finding(NamedTuple):
    """One lint hit, formatted ``path:line: rule message``."""

    rule: str
    path: pathlib.Path
    line: int
    message: str

    def __str__(self) -> str:
        rel = self.path.relative_to(REPO_ROOT)
        return f"{rel}:{self.line}: {self.rule} {self.message}"


def _python_files(root: pathlib.Path) -> List[pathlib.Path]:
    return sorted(root.rglob("*.py"))


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of a call target (``a.b.c`` or ``""``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _in_deterministic_scope(path: pathlib.Path) -> bool:
    rel = path.relative_to(SRC_ROOT)
    return bool(rel.parts) and rel.parts[0] in DETERMINISTIC_SCOPES


def _in_silent_scope(path: pathlib.Path) -> bool:
    rel = path.relative_to(SRC_ROOT)
    return bool(rel.parts) and rel.parts[0] in SILENT_SCOPES


def _in_pure_scope(path: pathlib.Path) -> bool:
    rel = path.relative_to(SRC_ROOT)
    return bool(rel.parts) and rel.parts[0] in PURE_SCOPES


def _in_engine_client_scope(path: pathlib.Path) -> bool:
    rel = path.relative_to(SRC_ROOT)
    return (
        bool(rel.parts)
        and rel.parts[0] == ENGINE_SCOPE
        and rel.parts != ENGINE_MODULE
    )


# -- R1 / R2: determinism of sim, core and apps --------------------------
def check_wall_clock(path: pathlib.Path, tree: ast.AST) -> Iterator[Finding]:
    """R1: wall-clock reads inside the deterministic scopes."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if any(
            dotted == bad or dotted.endswith("." + bad)
            for bad in WALL_CLOCK_CALLS
        ):
            yield Finding(
                "R1", path, node.lineno,
                f"wall-clock call {dotted}() in deterministic scope — "
                "sim/core must be pure functions of their inputs",
            )


def check_shared_rng(path: pathlib.Path, tree: ast.AST) -> Iterator[Finding]:
    """R2: the process-global ``random`` / NumPy RNG in deterministic scopes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            names = ", ".join(alias.name for alias in node.names)
            if names != "Random":
                yield Finding(
                    "R2", path, node.lineno,
                    f"from random import {names} — use a seeded "
                    "random.Random(seed) instance instead",
                )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
                and func.attr != "Random"
            ):
                yield Finding(
                    "R2", path, node.lineno,
                    f"random.{func.attr}() uses the shared module RNG — "
                    "use a seeded random.Random(seed) instance instead",
                )
            elif (
                isinstance(func, ast.Attribute)
                and _dotted(func.value) in NUMPY_RANDOM
                and func.attr not in NUMPY_SEEDED
            ):
                yield Finding(
                    "R2", path, node.lineno,
                    f"{_dotted(func)}() uses NumPy's global RNG — use a "
                    "seeded np.random.default_rng(seed) instead",
                )


# -- R3: float-literal equality ------------------------------------------
def check_float_equality(
    path: pathlib.Path, tree: ast.AST
) -> Iterator[Finding]:
    """R3: ``==`` / ``!=`` against a float literal anywhere in src."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if isinstance(side, ast.Constant) and isinstance(
                    side.value, float
                ):
                    yield Finding(
                        "R3", path, node.lineno,
                        f"float literal {side.value!r} compared with "
                        "==/!= — use an explicit tolerance",
                    )
                    break


# -- R5: raw print in library layers -------------------------------------
def check_raw_print(path: pathlib.Path, tree: ast.AST) -> Iterator[Finding]:
    """R5: bare ``print()`` calls inside the silent scopes."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            yield Finding(
                "R5", path, node.lineno,
                "raw print() in a library layer — emit a structured "
                "event / metric, or move the output to repro.cli",
            )


# -- R6: execution-free static analysis -----------------------------------
def _impure(dotted: str) -> bool:
    return any(
        dotted == bad or dotted.startswith(bad + ".")
        for bad in IMPURE_IMPORTS
    )


def _resolve_import_from(path: pathlib.Path, node: ast.ImportFrom) -> str:
    """Absolute dotted module a ``from ... import`` statement targets.

    Relative imports (``from ..sim import core``) are resolved against
    the file's package path under ``src/``, so a purity violation cannot
    hide behind dots.
    """
    if node.level == 0:
        return node.module or ""
    try:
        rel = path.relative_to(SRC_ROOT.parent)
    except ValueError:
        return node.module or ""
    # The package a module's level-1 imports resolve against is its
    # parent directory — for both plain modules and __init__.py.
    package = list(rel.parts[:-1])
    base = package[: len(package) - (node.level - 1)]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


def check_static_purity(
    path: pathlib.Path, tree: ast.AST
) -> Iterator[Finding]:
    """R6: simulator/tracer imports inside the pure static scope."""
    message = (
        "— repro.static must derive the graph without executing "
        "anything; it may not import the simulator or the tracer"
    )
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _impure(alias.name):
                    yield Finding(
                        "R6", path, node.lineno,
                        f"import {alias.name} {message}",
                    )
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_import_from(path, node)
            if _impure(base):
                yield Finding(
                    "R6", path, node.lineno,
                    f"from {base} import ... {message}",
                )
                continue
            for alias in node.names:
                dotted = f"{base}.{alias.name}" if base else alias.name
                if _impure(dotted):
                    yield Finding(
                        "R6", path, node.lineno,
                        f"from {base} import {alias.name} {message}",
                    )


# -- R7: engine privacy ---------------------------------------------------
def check_engine_privacy(
    path: pathlib.Path, tree: ast.AST
) -> Iterator[Finding]:
    """R7: the engine's ordering state touched outside the engine."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENGINE_PRIVATE:
            yield Finding(
                "R7", path, node.lineno,
                f"access to engine-private .{node.attr} — only "
                "repro.sim.engine orders same-time work; use schedule, "
                "call_soon or the fusion calls",
            )


# -- R8: checker independence ---------------------------------------------
def _is_checker(path: pathlib.Path) -> bool:
    return path.relative_to(SRC_ROOT).parts == CHECKER_MODULE


def _checked(dotted: str) -> bool:
    return any(
        dotted == bad or dotted.startswith(bad + ".")
        for bad in CHECKED_IMPORTS
    )


def check_checker_independence(
    path: pathlib.Path, tree: ast.AST
) -> Iterator[Finding]:
    """R8: the plan rules importing the decision code they check."""
    message = (
        "— the Algorithm 1 checker must re-derive what it checks; an "
        "imported helper hides its own bugs"
    )
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_import_from(path, node)
            targets = [base] + [
                f"{base}.{alias.name}" if base else alias.name
                for alias in node.names
            ]
        else:
            continue
        bad = next((t for t in targets if _checked(t)), None)
        if bad is not None:
            yield Finding(
                "R8", path, node.lineno, f"import of {bad} {message}"
            )


# -- R4: serialized-schema digest ----------------------------------------
def _schema_keys(node: ast.Dict) -> List[str]:
    keys: List[str] = []
    for key in node.keys:
        if key is None:
            keys.append("<splat>")
        elif isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.append(key.value)
        else:
            keys.append("<dynamic>")
    return sorted(keys)


def collect_schemas(files: Sequence[pathlib.Path]) -> Dict[str, List[List[str]]]:
    """Key sets of every ``"kind"``-carrying dict literal, per module."""
    schemas: Dict[str, List[List[str]]] = {}
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [
            _schema_keys(node)
            for node in ast.walk(tree)
            if isinstance(node, ast.Dict) and "kind" in _schema_keys(node)
        ]
        if found:
            rel = str(path.relative_to(REPO_ROOT))
            schemas[rel] = sorted(found)
    return schemas


def schema_digest(schemas: Dict[str, List[List[str]]]) -> str:
    payload = json.dumps(schemas, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def check_schema_drift(
    schemas: Dict[str, List[List[str]]], digest_path: pathlib.Path
) -> Iterator[Finding]:
    """R4: compare current schemas against the committed digest."""
    if not digest_path.exists():
        yield Finding(
            "R4", digest_path, 1,
            "schema digest missing — run `python tools/lint_repro.py "
            "--update` and commit the result",
        )
        return
    recorded: Dict[str, Any] = json.loads(digest_path.read_text())
    if recorded.get("digest") == schema_digest(schemas):
        return
    old = recorded.get("schemas", {})
    for module in sorted(set(old) | set(schemas)):
        if old.get(module) != schemas.get(module):
            yield Finding(
                "R4", digest_path, 1,
                f"serialized-document schema changed in {module} — review "
                "FORMAT_VERSION and the format docs, then run `python "
                "tools/lint_repro.py --update`",
            )


def write_digest(
    schemas: Dict[str, List[List[str]]], digest_path: pathlib.Path
) -> None:
    digest_path.write_text(
        json.dumps(
            {
                "comment": (
                    "key sets of every dict literal carrying a 'kind' "
                    "key in src/repro; regenerate with "
                    "`python tools/lint_repro.py --update`"
                ),
                "digest": schema_digest(schemas),
                "schemas": schemas,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


# -- driver ---------------------------------------------------------------
def run_lint(
    src_root: pathlib.Path = SRC_ROOT,
    digest_path: pathlib.Path = DIGEST_PATH,
) -> List[Finding]:
    """All findings over the tree; empty list means clean."""
    findings: List[Finding] = []
    files = _python_files(src_root)
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        if _in_deterministic_scope(path):
            findings.extend(check_wall_clock(path, tree))
            findings.extend(check_shared_rng(path, tree))
        if _in_silent_scope(path):
            findings.extend(check_raw_print(path, tree))
        if _in_pure_scope(path):
            findings.extend(check_static_purity(path, tree))
        if _in_engine_client_scope(path):
            findings.extend(check_engine_privacy(path, tree))
        if _is_checker(path):
            findings.extend(check_checker_independence(path, tree))
        findings.extend(check_float_equality(path, tree))
    findings.extend(check_schema_drift(collect_schemas(files), digest_path))
    return sorted(findings, key=lambda f: (f.rule, str(f.path), f.line))


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite tools/schema_digest.json from the current tree",
    )
    args = parser.parse_args(argv)
    if args.update:
        schemas = collect_schemas(_python_files(SRC_ROOT))
        write_digest(schemas, DIGEST_PATH)
        print(f"wrote {DIGEST_PATH.relative_to(REPO_ROOT)} "
              f"({len(schemas)} module(s))")
        return 0
    findings = run_lint()
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    print("lint_repro: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
