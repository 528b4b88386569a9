"""Unit tests for the repo's AST lint rules (tools/lint_repro.py)."""

import ast
import importlib.util
import json
import pathlib
import sys

import pytest

TOOL_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "tools" / "lint_repro.py"
)
spec = importlib.util.spec_from_file_location("lint_repro", TOOL_PATH)
assert spec is not None and spec.loader is not None
lint_repro = importlib.util.module_from_spec(spec)
sys.modules["lint_repro"] = lint_repro
spec.loader.exec_module(lint_repro)

FAKE = lint_repro.SRC_ROOT / "sim" / "fake.py"


def _findings(checker, source, path=FAKE):
    return list(checker(path, ast.parse(source)))


# -- R1: wall clock -------------------------------------------------------
@pytest.mark.parametrize(
    "source",
    [
        "import time\nx = time.time()\n",
        "import time\nx = time.time_ns()\n",
        "import datetime\nx = datetime.datetime.now()\n",
        "from datetime import datetime\nx = datetime.utcnow()\n",
    ],
)
def test_r1_flags_wall_clock_reads(source):
    found = _findings(lint_repro.check_wall_clock, source)
    assert len(found) == 1
    assert found[0].rule == "R1"


def test_r1_allows_perf_counter():
    source = "import time\nx = time.perf_counter()\n"
    assert _findings(lint_repro.check_wall_clock, source) == []


# -- R2: shared RNG -------------------------------------------------------
def test_r2_flags_module_level_random_calls():
    source = "import random\nx = random.randint(0, 4)\n"
    found = _findings(lint_repro.check_shared_rng, source)
    assert [f.rule for f in found] == ["R2"]
    assert "random.randint" in found[0].message


def test_r2_flags_from_random_import():
    source = "from random import randint\nx = randint(0, 4)\n"
    found = _findings(lint_repro.check_shared_rng, source)
    assert found and found[0].rule == "R2"


def test_r2_allows_seeded_instances():
    source = (
        "import random\n"
        "rng = random.Random(7)\n"
        "x = rng.randint(0, 4)\n"
    )
    assert _findings(lint_repro.check_shared_rng, source) == []


def test_r2_allows_from_random_import_random_class():
    source = "from random import Random\nrng = Random(7)\n"
    assert _findings(lint_repro.check_shared_rng, source) == []


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nx = np.random.rand(3)\n",
        "import numpy as np\nnp.random.seed(0)\n",
        "import numpy as np\nx = np.random.normal(0, 4, (8, 8))\n",
        "import numpy\nx = numpy.random.randint(0, 4)\n",
        "import numpy as np\nrs = np.random.RandomState(7)\n",
    ],
)
def test_r2_flags_numpy_global_rng(source):
    found = _findings(lint_repro.check_shared_rng, source)
    assert [f.rule for f in found] == ["R2"]
    assert "global RNG" in found[0].message


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nrng = np.random.default_rng(7)\n",
        "import numpy\nrng = numpy.random.default_rng(7)\n",
        "import numpy as np\ng = np.random.Generator(bits)\n",
        "x = self.rng.normal(0, 4, (8, 8))\n",   # a seeded instance
        "def f(rng: np.random.Generator):\n    return rng.random()\n",
    ],
)
def test_r2_allows_seeded_numpy_generators(source):
    assert _findings(lint_repro.check_shared_rng, source) == []


# -- R3: float equality ---------------------------------------------------
@pytest.mark.parametrize(
    "source",
    ["ok = x == 0.5\n", "ok = 1.5 != y\n", "ok = a < b == 0.0\n"],
)
def test_r3_flags_float_literal_equality(source):
    found = _findings(lint_repro.check_float_equality, source)
    assert found and all(f.rule == "R3" for f in found)


@pytest.mark.parametrize(
    "source",
    [
        "ok = x == 0\n",           # int literal is exact
        "ok = x <= 0.5\n",          # ordering against floats is fine
        "ok = abs(x - 0.5) < tol\n",
    ],
)
def test_r3_allows_non_equality_float_use(source):
    assert _findings(lint_repro.check_float_equality, source) == []


# -- R5: raw print in library layers --------------------------------------
def test_r5_flags_bare_print():
    source = "def report(x):\n    print(x)\n"
    found = _findings(lint_repro.check_raw_print, source)
    assert [f.rule for f in found] == ["R5"]
    assert "print()" in found[0].message


def test_r5_flags_print_with_kwargs():
    source = "import sys\nprint('x', file=sys.stderr)\n"
    found = _findings(lint_repro.check_raw_print, source)
    assert found and found[0].rule == "R5"


@pytest.mark.parametrize(
    "source",
    [
        "log = print\n",                    # reference, not a call
        "obj.print()\n",                    # method named print
        "def pr():\n    pass\npr()\n",      # unrelated call
    ],
)
def test_r5_allows_non_print_calls(source):
    assert _findings(lint_repro.check_raw_print, source) == []


# -- R6: static purity -----------------------------------------------------
STATIC_FAKE = lint_repro.SRC_ROOT / "static" / "fake.py"


@pytest.mark.parametrize(
    "source",
    [
        "import repro.sim\n",
        "import repro.sim.systems\n",
        "import repro.profiling\n",
        "from repro.sim import systems\n",
        "from repro.sim.systems import SystemParams\n",
        "from repro import sim\n",
        "from repro import profiling\n",
        "from ..sim import systems\n",
        "from ..sim.systems import SystemParams\n",
        "from .. import sim\n",
        "from ..profiling import trace\n",
    ],
)
def test_r6_flags_simulator_and_tracer_imports(source):
    found = _findings(lint_repro.check_static_purity, source, STATIC_FAKE)
    assert len(found) == 1
    assert found[0].rule == "R6"
    assert "without executing" in found[0].message


@pytest.mark.parametrize(
    "source",
    [
        "import math\n",
        "from repro.hls.ir import Loop\n",
        "from ..apps.fluid import RELAX\n",
        "from .ir import Extent\n",
        "from . import analyzer\n",
        "from repro import errors\n",
        "import repro.simulator_docs\n",   # prefix, not the package
    ],
)
def test_r6_allows_pure_imports(source):
    assert _findings(lint_repro.check_static_purity, source, STATIC_FAKE) == []


def test_r6_resolves_relative_imports_in_init():
    init = lint_repro.SRC_ROOT / "static" / "__init__.py"
    found = _findings(
        lint_repro.check_static_purity, "from ..sim import systems\n", init
    )
    assert found and found[0].rule == "R6"
    assert _findings(
        lint_repro.check_static_purity, "from .ir import Extent\n", init
    ) == []


def test_r6_scope_is_static_only():
    src = lint_repro.SRC_ROOT
    assert lint_repro._in_pure_scope(src / "static" / "analyzer.py")
    assert not lint_repro._in_pure_scope(src / "sim" / "systems.py")
    assert not lint_repro._in_pure_scope(src / "cli.py")


def test_r6_static_package_is_clean_on_disk():
    static_root = lint_repro.SRC_ROOT / "static"
    for path in lint_repro._python_files(static_root):
        tree = ast.parse(path.read_text(), filename=str(path))
        assert list(lint_repro.check_static_purity(path, tree)) == []


# -- R7: engine privacy ----------------------------------------------------
@pytest.mark.parametrize(
    "source",
    [
        "x = engine._queue[0][0]\n",
        "heapq.heappush(self.engine._queue, (t, s, f))\n",
        "n = next(engine._seq)\n",
        "engine._batch_remaining = 0\n",
        "if eng._batch_remaining:\n    pass\n",
        "horizon = engine._until\n",
    ],
)
def test_r7_flags_engine_private_access(source):
    found = _findings(lint_repro.check_engine_privacy, source)
    assert len(found) == 1
    assert found[0].rule == "R7"
    assert "engine-private" in found[0].message


@pytest.mark.parametrize(
    "source",
    [
        "engine.schedule(0.0, f)\n",
        "engine.call_soon(f)\n",
        "ok = engine.can_advance(hold)\n",
        "bound = engine.fusion_bound()\n",
        "n = self._queued\n",
        "self.queue = []\n",
        "self._seq_no = 1\n",
        "_queue = []\n",   # a plain name, not an attribute
    ],
)
def test_r7_allows_public_engine_calls(source):
    assert _findings(lint_repro.check_engine_privacy, source) == []


def test_r7_scope_is_sim_outside_the_engine():
    src = lint_repro.SRC_ROOT
    assert lint_repro._in_engine_client_scope(src / "sim" / "bus.py")
    assert lint_repro._in_engine_client_scope(src / "sim" / "noc" / "mesh.py")
    assert not lint_repro._in_engine_client_scope(src / "sim" / "engine.py")
    # The event log keeps a ``_seq`` of its own.
    assert not lint_repro._in_engine_client_scope(
        src / "obs" / "runtime" / "events.py"
    )
    assert not lint_repro._in_engine_client_scope(src / "cli.py")


def test_r7_flags_a_sim_module_reading_the_horizon():
    # A component that rebuilds the horizon test itself instead of going
    # through ``fusion_bound`` is reported in its own module.
    path = lint_repro.SRC_ROOT / "sim" / "fastlane.py"
    assert lint_repro._in_engine_client_scope(path)
    source = (
        "def fits(engine, end):\n"
        "    return end <= engine._until\n"
    )
    found = list(lint_repro.check_engine_privacy(path, ast.parse(source)))
    assert [(f.rule, f.line) for f in found] == [("R7", 2)]
    assert "._until" in found[0].message


def test_r7_sim_package_is_clean_on_disk():
    for path in lint_repro._python_files(lint_repro.SRC_ROOT / "sim"):
        if lint_repro._in_engine_client_scope(path):
            tree = ast.parse(path.read_text(), filename=str(path))
            assert list(lint_repro.check_engine_privacy(path, tree)) == []


# -- R8: checker independence ----------------------------------------------
CHECKER = lint_repro.SRC_ROOT / "analyze" / "rules_plan.py"


@pytest.mark.parametrize(
    "source",
    [
        "from ..core.mapping import adaptive_map\n",
        "from ..core.sharing import residual_graph\n",
        "from ..core.parallel import PipelineCase, delta_p1_seconds\n",
        "from ..core.duplication import DUP_SUFFIXES\n",
        "from ..core.placement import mesh_dimensions\n",
        "from ..core import placement\n",
        "from repro.core.mapping import ADAPTIVE_MAPPING\n",
        "import repro.core.sharing\n",
    ],
)
def test_r8_flags_checked_decision_imports(source):
    found = _findings(lint_repro.check_checker_independence, source, CHECKER)
    assert len(found) == 1
    assert found[0].rule == "R8"
    assert "re-derive" in found[0].message


@pytest.mark.parametrize(
    "source",
    [
        "from ..core.plan import memory_node\n",
        "from ..core.topology import KernelAttach, ReceiveClass\n",
        "from ..units import KERNEL_CLOCK\n",
        "from ..obs import provenance as prov\n",
        "from ..core import plan, topology\n",
        "import repro.core.mapping_notes\n",   # prefix, not the module
    ],
)
def test_r8_allows_data_types_and_units(source):
    assert _findings(
        lint_repro.check_checker_independence, source, CHECKER
    ) == []


def test_r8_scope_is_the_plan_rules_only():
    src = lint_repro.SRC_ROOT
    assert lint_repro._is_checker(src / "analyze" / "rules_plan.py")
    assert not lint_repro._is_checker(src / "analyze" / "engine.py")
    assert not lint_repro._is_checker(src / "core" / "designer.py")


def test_r8_checker_is_clean_on_disk():
    tree = ast.parse(CHECKER.read_text(), filename=str(CHECKER))
    assert list(lint_repro.check_checker_independence(CHECKER, tree)) == []


# -- scoping --------------------------------------------------------------
def test_determinism_scope_is_sim_core_and_apps():
    src = lint_repro.SRC_ROOT
    assert lint_repro._in_deterministic_scope(src / "sim" / "systems.py")
    assert lint_repro._in_deterministic_scope(src / "core" / "designer.py")
    assert lint_repro._in_deterministic_scope(src / "apps" / "fluid.py")
    assert not lint_repro._in_deterministic_scope(src / "verify" / "generate.py")
    assert not lint_repro._in_deterministic_scope(src / "sweep.py")


def test_silent_scope_is_server_and_obs_only():
    src = lint_repro.SRC_ROOT
    assert lint_repro._in_silent_scope(src / "server" / "app.py")
    assert lint_repro._in_silent_scope(src / "obs" / "runtime" / "events.py")
    assert not lint_repro._in_silent_scope(src / "cli.py")
    assert not lint_repro._in_silent_scope(src / "sim" / "systems.py")


# -- R4: schema digest ----------------------------------------------------
def test_r4_round_trip_and_drift(tmp_path, monkeypatch):
    monkeypatch.setattr(lint_repro, "REPO_ROOT", tmp_path)
    mod_dir = tmp_path / "src"
    mod_dir.mkdir()
    mod = mod_dir / "mod.py"
    mod.write_text('doc = {"kind": "demo", "version": 1}\n')
    digest_path = tmp_path / "schema_digest.json"

    schemas = lint_repro.collect_schemas([mod])
    assert schemas == {"src/mod.py": [["kind", "version"]]}
    lint_repro.write_digest(schemas, digest_path)
    recorded = json.loads(digest_path.read_text())
    assert recorded["digest"] == lint_repro.schema_digest(schemas)

    # unchanged tree: no findings
    assert list(lint_repro.check_schema_drift(schemas, digest_path)) == []

    # grow the schema: drift is reported against the changed module
    mod.write_text('doc = {"kind": "demo", "version": 1, "extra": 2}\n')
    drifted = lint_repro.collect_schemas([mod])
    found = list(lint_repro.check_schema_drift(drifted, digest_path))
    assert len(found) == 1
    assert found[0].rule == "R4"
    assert "src/mod.py" in found[0].message


def test_r4_missing_digest_is_a_finding(tmp_path):
    found = list(
        lint_repro.check_schema_drift({}, tmp_path / "missing.json")
    )
    assert len(found) == 1 and found[0].rule == "R4"


def test_r4_dynamic_and_splat_keys_are_stable():
    tree = ast.parse('d = {"kind": k_value, name: 1, **extra}\n')
    dict_node = next(
        node for node in ast.walk(tree) if isinstance(node, ast.Dict)
    )
    assert lint_repro._schema_keys(dict_node) == [
        "<dynamic>", "<splat>", "kind"
    ]


# -- the tree itself ------------------------------------------------------
def test_repo_tree_is_clean():
    assert lint_repro.run_lint() == []


def test_committed_digest_matches_tree():
    schemas = lint_repro.collect_schemas(
        lint_repro._python_files(lint_repro.SRC_ROOT)
    )
    recorded = json.loads(lint_repro.DIGEST_PATH.read_text())
    assert recorded["digest"] == lint_repro.schema_digest(schemas)
