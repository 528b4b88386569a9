"""The NoC-only reference system: priced from Algorithm 1's mapping,
placed only when its plan is read.

``run_experiment`` prices the paper's NoC-only system (Table IV) with
:func:`repro.core.designer.price_interconnect`, which runs duplication,
sharing (off) and mapping but never places a mesh. These tests pin
that it does no placement work, and that what it prices is exactly what
the fully designed plan — built lazily by ``ExperimentResult.noc_only_plan``
— would have given, placement-checked bill of materials included.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.apps.registry import APP_NAMES
from repro.core import designer, plan as plan_module
from repro.core.designer import DesignConfig, design_interconnect
from repro.core.plan import InterconnectPlan
from repro.flow import ExperimentResult, run_experiment
from repro.hw.resources import ComponentKind
from repro.hw.synthesis import estimate_system
from repro.sim.systems import SystemParams

#: ``design_overrides`` of every equivalence case (``None``: defaults).
OVERRIDES = (
    None,
    {"enable_noc": False},
    {"enable_duplication": False},
    {"noc_topology": "torus"},
    {"max_duplications": 2},
    {"enable_pipelining": False},
)

#: ``place_on_mesh`` calls of one ``run_experiment``: only the real
#: design is placed, and klt's real design has no NoC.
REAL_PLACEMENTS = {"canny": 1, "jpeg": 1, "klt": 0, "fluid": 1}


def placed_bom_mismatches(
    counts: dict, placed: InterconnectPlan
) -> list:
    """Where a NoC bill of materials disagrees with a placed plan.

    Independent of the BOM's own rule: routers are the placed mesh
    nodes, adapters the plan's NoC kernel and memory nodes.
    """
    noc = placed.noc
    expected = {
        ComponentKind.ROUTER: len(noc.placement.positions) if noc else 0,
        ComponentKind.NA_KERNEL: len(noc.kernel_nodes) if noc else 0,
        ComponentKind.NA_MEMORY: len(noc.memory_nodes) if noc else 0,
        ComponentKind.NOC_GLUE: 1 if noc else 0,
    }
    return [
        (kind.name, counts.get(kind, 0), want)
        for kind, want in expected.items()
        if counts.get(kind, 0) != want
    ]


def check_noc_only_pricing(
    r: ExperimentResult, overrides, params: SystemParams
) -> None:
    """The flow's placement-free pricing equals the designed plan's."""
    config = DesignConfig(
        theta_s_per_byte=params.theta_s_per_byte(),
        stream_overhead_s=r.fitted.stream_overhead_s,
    )
    config = replace(config, **(overrides or {}))
    assert r.design_config == config

    lazy = r.noc_only_plan
    eager = design_interconnect(
        f"{r.name}-noc-only", r.fitted.graph, config.noc_only()
    )
    assert lazy == eager
    assert lazy.provenance == eager.provenance

    counts = lazy.component_counts()
    assert placed_bom_mismatches(counts, lazy) == []
    assert r.synth_noc_only == estimate_system(
        "noc_only",
        [lazy.graph.kernel(k).resources for k in lazy.graph.kernel_names()],
        counts,
    )


@pytest.fixture
def placements(monkeypatch):
    """Record every ``place_on_mesh`` call the designer makes."""
    calls = []
    real = designer.place_on_mesh

    def spy(nodes, *args, **kwargs):
        calls.append(tuple(nodes))
        return real(nodes, *args, **kwargs)

    monkeypatch.setattr(designer, "place_on_mesh", spy)
    return calls


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("app", APP_NAMES)
def test_reference_is_placed_only_when_read(placements, app, scale):
    r = run_experiment(app, scale=scale, simulate=False)
    assert len(placements) == REAL_PLACEMENTS[app]
    first = r.noc_only_plan
    assert len(placements) == REAL_PLACEMENTS[app] + 1
    assert r.noc_only_plan is first
    assert len(placements) == REAL_PLACEMENTS[app] + 1


@pytest.mark.parametrize("source", ["trace", "static"])
@pytest.mark.parametrize("seed", [0, 1, 2, 2014])
@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("app", APP_NAMES)
def test_pricing_equals_the_designed_plan(app, scale, seed, source):
    params = SystemParams()
    for overrides in OVERRIDES:
        r = run_experiment(
            app, scale=scale, seed=seed, simulate=False,
            design_overrides=overrides, graph_source=source,
        )
        check_noc_only_pricing(r, overrides, params)


def mutant_bill_of_materials(graph, sharing, mappings):
    """Planted fault: routers counted from ``K2`` kernels only."""
    counts = plan_module.bill_of_materials(graph, sharing, mappings)
    if ComponentKind.ROUTER in counts:
        counts[ComponentKind.ROUTER] = sum(
            1 for m in mappings.values() if m.on_noc
        )
    return counts


def test_check_catches_routers_counted_from_kernels_only(monkeypatch):
    # The one BOM function is mutated, so the priced and the designed
    # counts agree with each other; the placed mesh still disagrees.
    monkeypatch.setattr(designer, "bill_of_materials", mutant_bill_of_materials)
    monkeypatch.setattr(
        InterconnectPlan, "component_counts",
        lambda self: mutant_bill_of_materials(
            self.graph, self.sharing, self.mappings
        ),
    )
    r = run_experiment("jpeg", simulate=False, graph_source="static")
    with pytest.raises(AssertionError):
        check_noc_only_pricing(r, None, SystemParams())
