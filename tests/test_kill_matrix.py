"""Mutant × check kill matrix: the referee for every Algorithm 1 check.

Each mutant plants one bug in the production designer the way a source
edit would — by swapping a function's ``__code__`` or by patching the
dict or method every caller reads — so no checker can keep a private,
unmutated copy of the code it checks. For each mutant the test asserts
its exact *kill set*: the names of the checks that fail on at least one
case of a fixed fuzz corpus (seed 7, cases 0–``CORPUS_SIZE``-1), run
through the fuzz harness's full stack (analyzer rules by id,
differential oracle, metamorphic checks).

A check stays in the repo only if it kills a mutant that no other check
kills (DESIGN.md §9 has the 200-case counts). Mutants that no check
kills are listed in ``SURVIVORS`` with the reason they are tolerated.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Set, Tuple

import pytest

import repro.core.duplication as duplication
import repro.core.mapping as mapping
import repro.core.parallel as parallel
import repro.core.placement as placement
import repro.core.sharing as sharing
import repro.core.topology as topology
from repro.core.analytic import AnalyticModel
from repro.core.commgraph import CommGraph
from repro.core.designer import InterconnectDesigner
from repro.core.kernel import KernelSpec
from repro.core.topology import (
    KernelAttach, MemoryAttach, ReceiveClass, SendClass,
)
from repro.hw.resources import ResourceCost
from repro.obs import provenance as prov
from repro.obs.provenance import ProvenanceLog
from repro.sim.systems import SystemParams
from repro.verify import (
    FuzzSpec,
    GeneratedCase,
    case_size,
    failing_checks,
    generate_case,
    run_fuzz,
)

CORPUS_SEED = 7
CORPUS_SIZE = 20

Plant = Callable[[pytest.MonkeyPatch], None]


def _swap(func: Callable[..., object], mutant: Callable[..., object]) -> Plant:
    """Plant ``mutant``'s body into ``func``: every importer sees it."""
    def plant(mp: pytest.MonkeyPatch) -> None:
        mp.setattr(func, "__code__", mutant.__code__)
    return plant


# -- mutant bodies ------------------------------------------------------------
# Each body runs with the globals of the function it replaces, so it may
# use only names that module defines or imports.

def _exclusive_any_edge(graph, producer, consumer):
    return graph.edge_bytes(producer, consumer) > 0


def _link_inverted_crossbar(self):
    return SharedMemoryLink(
        producer=self.producer, consumer=self.consumer,
        bytes=self.bytes, crossbar=not self.crossbar,
    )


def _receive_ignores_host(graph, name):
    if graph.d_k_in(name) > 0:
        return ReceiveClass.R1
    return ReceiveClass.R2


def _delta_p1_plus_o(d_h_in, d_h_out, tau_cycles, theta_s, overhead_s):
    tau_s = KERNEL_CLOCK.cycles_to_seconds(tau_cycles)
    return (
        min(d_h_in * theta_s, tau_s) / 2.0
        + min(d_h_out * theta_s, tau_s) / 2.0
        + overhead_s
    )


def _delta_p2_plus_o(tau_i_cycles, tau_j_cycles, overhead_s):
    return (
        min(
            KERNEL_CLOCK.cycles_to_seconds(tau_i_cycles),
            KERNEL_CLOCK.cycles_to_seconds(tau_j_cycles),
        )
        / 2.0
        + overhead_s
    )


def _delta_dp_full_tau(tau_cycles, overhead_s):
    return KERNEL_CLOCK.cycles_to_seconds(tau_cycles) - overhead_s


def _mesh_one_column_wider(n_nodes):
    height = int(math.isqrt(n_nodes))
    return math.ceil(n_nodes / height) + 1, height


def _pipeline_without_streaming_gate(graph, kept_edges, theta_s, overhead_s):
    decisions = []
    for name in graph.kernel_names():
        d_in, d_out = graph.d_h_in(name), graph.d_h_out(name)
        if d_in == 0 and d_out == 0:
            continue
        delta = delta_p1_seconds(
            d_in, d_out, graph.kernel(name).tau_cycles, theta_s, overhead_s
        )
        decisions.append(PipelineDecision(
            PipelineCase.HOST_STREAM, name, None, delta, delta > 0, "applied",
        ))
    for producer, consumer in kept_edges:
        delta = delta_p2_seconds(
            graph.kernel(producer).tau_cycles,
            graph.kernel(consumer).tau_cycles,
            overhead_s,
        )
        decisions.append(PipelineDecision(
            PipelineCase.KERNEL_STREAM, producer, consumer, delta, delta > 0,
            "applied",
        ))
    return tuple(decisions)


def _duplicate_over_budget(
    graph, device, overhead_s, committed_cost, utilization_cap=0.85,
    max_duplications=1,
):
    decisions = []
    cost = committed_cost
    for name in sorted(
        graph.kernel_names(), key=lambda n: (-graph.kernel(n).tau_cycles, n)
    ):
        spec = graph.kernel(name)
        delta = delta_dp_seconds(spec.tau_cycles, overhead_s)
        if not spec.parallelizable or delta <= 0:
            decisions.append(DuplicationDecision(name, delta, False, "none"))
            continue
        if not device.fits(cost + spec.resources, utilization_cap):
            decisions.append(DuplicationDecision(name, delta, False, "full"))
            continue
        graph = apply_duplication(graph, name)
        cost = cost + spec.resources
        decisions.append(DuplicationDecision(name, delta, True, "applied"))
    return graph, tuple(decisions)


def _duplicate_past_the_device(
    graph, device, overhead_s, committed_cost, utilization_cap=0.85,
    max_duplications=1,
):
    decisions = []
    applied = 0
    for name in sorted(
        graph.kernel_names(), key=lambda n: (-graph.kernel(n).tau_cycles, n)
    ):
        spec = graph.kernel(name)
        delta = delta_dp_seconds(spec.tau_cycles, overhead_s)
        if not spec.parallelizable or delta <= 0:
            decisions.append(DuplicationDecision(name, delta, False, "none"))
            continue
        if applied >= max_duplications:
            decisions.append(DuplicationDecision(name, delta, False, "budget"))
            continue
        graph = apply_duplication(graph, name)
        applied += 1
        decisions.append(DuplicationDecision(name, delta, True, "applied"))
    return graph, tuple(decisions)


def _duplicate_any_kernel(
    graph, device, overhead_s, committed_cost, utilization_cap=0.85,
    max_duplications=1,
):
    decisions = []
    cost = committed_cost
    applied = 0
    for name in sorted(
        graph.kernel_names(), key=lambda n: (-graph.kernel(n).tau_cycles, n)
    ):
        spec = graph.kernel(name)
        delta = delta_dp_seconds(spec.tau_cycles, overhead_s)
        if delta <= 0 or applied >= max_duplications:
            decisions.append(DuplicationDecision(name, delta, False, "none"))
            continue
        if not device.fits(cost + spec.resources, utilization_cap):
            decisions.append(DuplicationDecision(name, delta, False, "full"))
            continue
        graph = apply_duplication(graph, name)
        cost = cost + spec.resources
        applied += 1
        decisions.append(DuplicationDecision(name, delta, True, "applied"))
    return graph, tuple(decisions)


def _split_loses_a_byte(nbytes):
    half = nbytes // 2
    return half, nbytes - half - 1


def _halved_keeps_tau(self, suffix):
    return replace(
        self, name=f"{self.name}{suffix}", sw_cycles=self.sw_cycles / 2.0
    )


def _place_ignoring_torus(nodes, edges, width=0, height=0, torus=False):
    width, height = mesh_dimensions(len(nodes))
    positions = _refine(
        _greedy(nodes, edges, width, height), edges, width, height
    )
    return MeshPlacement(width=width, height=height, positions=positions)


def _place_row_major(nodes, edges, width=0, height=0, torus=False):
    width, height = mesh_dimensions(len(nodes))
    positions = {n: (i % width, i // width) for i, n in enumerate(nodes)}
    return MeshPlacement(
        width=width, height=height, positions=positions, torus=torus
    )


def _proposed_unclamped(self, plan):
    base = self.baseline()
    comp = base.computation_s - self.delta_dp(plan) - self.delta_p2(plan)
    comm = (
        base.communication_s
        - self.delta_c(plan)
        - self.delta_n(plan)
        - self.delta_p1(plan)
    )
    return SystemTimes(
        label="proposed",
        computation_s=comp,
        communication_s=max(comm, 0.0),
        host_other_s=self.host_other_s,
    )


# -- plants that patch what every caller reads -------------------------------

def _flip_table_i_cell(mp: pytest.MonkeyPatch) -> None:
    mp.setitem(
        mapping.ADAPTIVE_MAPPING,
        (ReceiveClass.R2, SendClass.S1),
        (KernelAttach.K2, MemoryAttach.M3),
    )


def _drop_last_noc_edge(mp: pytest.MonkeyPatch) -> None:
    real = InterconnectDesigner._build_noc

    def build(self, mappings, residual):
        noc = real(self, mappings, residual)
        if noc is None or not noc.edges:
            return noc
        return replace(noc, edges=noc.edges[:-1])

    mp.setattr(InterconnectDesigner, "_build_noc", build)


def _drop_placement_events(mp: pytest.MonkeyPatch) -> None:
    real = ProvenanceLog.record

    def record(self, stage, subject, outcome="info", **detail):
        if stage == prov.STAGE_PLACEMENT and outcome == "placed":
            return None
        return real(self, stage, subject, outcome, **detail)

    mp.setattr(ProvenanceLog, "record", record)


#: mutant -> (plant, exact kill set on the corpus).
MUTANTS: Dict[str, Tuple[Plant, Set[str]]] = {
    "table_i_cell_r2_s1_to_k2_m3": (_flip_table_i_cell, {"P003"}),
    "non_exclusive_pair_accepted": (
        _swap(sharing.is_exclusive_pair, _exclusive_any_edge), {"P002"},
    ),
    "crossbar_flag_inverted": (
        _swap(sharing.SharingDecision.link, _link_inverted_crossbar),
        {"P002"},
    ),
    "receive_class_ignores_host_input": (
        _swap(topology.classify_receive, _receive_ignores_host), {"P003"},
    ),
    "last_noc_edge_dropped": (
        _drop_last_noc_edge, {"P006", "metamorphic_permutation"},
    ),
    "delta_p1_mis_signed": (
        _swap(parallel.delta_p1_seconds, _delta_p1_plus_o), {"P007"},
    ),
    "delta_p2_mis_signed": (
        _swap(parallel.delta_p2_seconds, _delta_p2_plus_o), {"P007"},
    ),
    "delta_dp_full_tau": (
        _swap(duplication.delta_dp_seconds, _delta_dp_full_tau), {"P004"},
    ),
    "mesh_dimensions_one_column_wider": (
        _swap(placement.mesh_dimensions, _mesh_one_column_wider), {"P009"},
    ),
    "pipelining_without_streaming_check": (
        _swap(parallel.find_pipeline_opportunities,
              _pipeline_without_streaming_gate),
        {"P007"},
    ),
    "max_duplications_ignored": (
        _swap(duplication.decide_duplications, _duplicate_over_budget),
        {"P004"},
    ),
    "parallelizable_flag_ignored": (
        _swap(duplication.decide_duplications, _duplicate_any_kernel),
        {"P004"},
    ),
    "torus_topology_ignored": (
        _swap(placement.place_on_mesh, _place_ignoring_torus), {"P009"},
    ),
    "split_bytes_loses_a_byte": (
        _swap(duplication.split_bytes, _split_loses_a_byte), {"P004"},
    ),
    "duplicate_copies_keep_full_tau": (
        _swap(KernelSpec.halved, _halved_keeps_tau),
        {"P004", "proposed_vs_baseline"},
    ),
    "placement_events_dropped": (_drop_placement_events, {"P008"}),
    "analytic_clamp_removed": (
        _swap(AnalyticModel.proposed, _proposed_unclamped),
        {"analytic_bounds"},
    ),
    "placement_adjacency_skipped": (
        _swap(placement.place_on_mesh, _place_row_major), set(),
    ),
}

#: Mutants no check kills, and why the repo tolerates each.
SURVIVORS = {
    "placement_adjacency_skipped": (
        "placement is a heuristic with no error-severity postcondition: "
        "any injective placement on the right mesh is a valid design; "
        "P005 reports its byte-hop cost as info"
    ),
}

#: Checks added or extended when the invariant checker was deleted;
#: each must be the only killer of some mutant.
PORTED_CHECKS = ("P004", "P007", "P008", "P009", "analytic_bounds")


@pytest.fixture(scope="module")
def corpus():
    spec = FuzzSpec()
    return [generate_case(spec, CORPUS_SEED, i) for i in range(CORPUS_SIZE)]


def kill_set(cases) -> Set[str]:
    killed: Set[str] = set()
    for case in cases:
        killed |= failing_checks(case)
    return killed


def test_clean_corpus_passes_every_check(corpus):
    assert kill_set(corpus) == set()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_kill_set(name, corpus, monkeypatch):
    plant, expected = MUTANTS[name]
    plant(monkeypatch)
    assert kill_set(corpus) == expected


def _resource_case() -> GeneratedCase:
    """One parallelizable kernel too big to fit twice on the device."""
    hot = KernelSpec(
        "hot", 400_000.0, 4_000_000.0, parallelizable=True,
        resources=ResourceCost(luts=40_000, regs=40_000),
    )
    sink = KernelSpec("sink", 10_000.0, 100_000.0)
    graph = CommGraph(
        kernels={"hot": hot, "sink": sink},
        kk_edges={("hot", "sink"): 4096},
        host_in={"hot": 8192},
        host_out={"sink": 2048},
    )
    return GeneratedCase(
        seed=0, index=0, graph=graph, params=SystemParams(),
        stream_overhead_s=2e-6,
    )


def test_resource_check_mutant_on_a_hand_built_graph(monkeypatch):
    # The fuzz corpus never fills the device (at most 8 kernels of
    # <= 4000 LUTs each), so this mutant is planted on a graph that does.
    case = _resource_case()
    assert failing_checks(case) == set()
    _swap(duplication.decide_duplications, _duplicate_past_the_device)(
        monkeypatch
    )
    assert failing_checks(case) == {"P004"}


def test_survivors_are_exactly_the_unkilled_mutants():
    assert set(SURVIVORS) == {n for n, (_, k) in MUTANTS.items() if not k}


@pytest.mark.parametrize("check", PORTED_CHECKS)
def test_each_ported_check_is_some_mutants_only_killer(check):
    assert any(killed == {check} for _, killed in MUTANTS.values())


def test_non_exclusive_mutant_shrinks_to_a_minimal_witness(monkeypatch):
    """A campaign under a planted sharing bug reports P002 and shrinks
    the counterexample to a minimal, replayable witness."""
    MUTANTS["non_exclusive_pair_accepted"][0](monkeypatch)
    report = run_fuzz(spec=FuzzSpec(), seed=7, cases=20, jobs=1, shrink=True)
    assert not report.ok
    assert "P002" in report.check_counts()

    failure = report.failures[0]
    assert failure.shrunk is not None
    shrunk = GeneratedCase.from_dict(failure.shrunk)
    assert case_size(shrunk) < case_size(GeneratedCase.from_dict(failure.case))
    # A non-exclusive pair needs at most 3 kernels and 2 edges.
    assert len(failure.shrunk["graph"]["kernels"]) <= 3
    assert len(failure.shrunk["graph"]["kk_edges"]) <= 2
    assert failure.shrink_steps
    assert "P002" in failing_checks(shrunk)
