"""repro.verify — property-based fuzzing and differential verification.

The generative trust layer over Algorithm 1 and the simulator:

* :mod:`~repro.verify.generate` — seeded random, reproducible designer
  inputs (:class:`FuzzSpec`, :func:`generate_case`);
* :mod:`~repro.verify.oracle` — analytic-vs-simulated differential
  bounds and metamorphic properties;
* :mod:`~repro.verify.conformance` — byte-exact check of the event
  engine against goldens frozen from the never-fusing heap engine;
* :mod:`~repro.verify.shrink` — greedy counterexample minimization;
* :mod:`~repro.verify.harness` — campaign driver through the service
  layer (:func:`run_fuzz`), behind the ``repro fuzz`` CLI.

Algorithm 1's postconditions are checked by one module, the static
analyzer's plan rules (:func:`repro.analyze.analyze_plan`); the harness
reports each of its errors under the rule id. See DESIGN.md §9 for the
kill matrix that justifies each check, the tolerance derivations, and
the seed-reproduction recipe.
"""

from .conformance import (
    conformance_sweep,
    diff_fingerprint,
    golden_conformance_check,
)
from .generate import FuzzSpec, GeneratedCase, case_rng, generate_case
from .harness import (
    FuzzFailure,
    FuzzJob,
    FuzzReport,
    analyzer_check,
    evaluate_case,
    failing_checks,
    run_fuzz,
    run_fuzz_job,
)
from .oracle import (
    Violation,
    check_host_only_degeneration,
    check_permutation_invariance,
    check_scale_invariance,
    differential_check,
    metamorphic_checks,
)
from .shrink import ShrinkResult, case_size, shrink_case

__all__ = [
    "FuzzFailure",
    "FuzzJob",
    "FuzzReport",
    "FuzzSpec",
    "GeneratedCase",
    "ShrinkResult",
    "Violation",
    "analyzer_check",
    "case_rng",
    "case_size",
    "check_host_only_degeneration",
    "conformance_sweep",
    "diff_fingerprint",
    "check_permutation_invariance",
    "check_scale_invariance",
    "differential_check",
    "evaluate_case",
    "failing_checks",
    "generate_case",
    "golden_conformance_check",
    "metamorphic_checks",
    "run_fuzz",
    "run_fuzz_job",
    "shrink_case",
]
