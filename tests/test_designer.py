"""Tests for Algorithm 1 end-to-end (the designer) and the plan."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import CommGraph, DesignConfig, KernelSpec, design_interconnect
from repro.core.plan import memory_node
from repro.core.topology import KernelAttach, MemoryAttach
from repro.errors import DesignError
from repro.explore.pareto import VARIANTS
from repro.hw.resources import ComponentKind, ResourceCost

THETA = 1.3e-9


def jpeg_like_graph():
    ks = [
        KernelSpec("dc", 50_000, 800_000, resources=ResourceCost(1000, 1000)),
        KernelSpec(
            "ac", 200_000, 3_000_000,
            parallelizable=True, streams_host_io=True,
            resources=ResourceCost(2000, 2000),
        ),
        KernelSpec(
            "dq", 80_000, 1_000_000,
            streams_kernel_input=True, resources=ResourceCost(800, 800),
        ),
        KernelSpec(
            "idct", 150_000, 2_500_000,
            streams_kernel_input=True, streams_host_io=True,
            resources=ResourceCost(1500, 1500),
        ),
    ]
    return CommGraph(
        kernels={k.name: k for k in ks},
        kk_edges={("dc", "dq"): 20_000, ("ac", "dq"): 120_000, ("dq", "idct"): 140_000},
        host_in={"dc": 8_000, "ac": 30_000, "idct": 2_000},
        host_out={"idct": 160_000},
    )


def config(**kw):
    return DesignConfig(theta_s_per_byte=THETA, stream_overhead_s=20e-6, **kw)


class TestFullDesign:
    @pytest.fixture()
    def plan(self):
        return design_interconnect("jpeg-like", jpeg_like_graph(), config())

    def test_duplicates_hottest_parallelizable(self, plan):
        applied = [d for d in plan.duplications if d.applied]
        assert [d.kernel for d in applied] == ["ac"]
        assert {"ac#0", "ac#1"} <= set(plan.graph.kernel_names())

    def test_shared_memory_pair(self, plan):
        assert len(plan.sharing) == 1
        link = plan.sharing[0]
        assert (link.producer, link.consumer) == ("dq", "idct")
        assert link.crossbar

    def test_mappings_follow_table1(self, plan):
        m = plan.mappings
        # dc receives host only, sends kernels only: {K2, M1}.
        assert m["dc"].attach_kernel is KernelAttach.K2
        assert m["dc"].attach_memory is MemoryAttach.M1
        # dq (after SM) receives from NoC, sends nothing residual: {K1, M3}.
        assert m["dq"].attach_kernel is KernelAttach.K1
        assert m["dq"].attach_memory is MemoryAttach.M3
        # idct is fully satisfied by the shared memory: {K1, M1}.
        assert m["idct"].attach_kernel is KernelAttach.K1
        assert m["idct"].attach_memory is MemoryAttach.M1

    def test_noc_contains_senders_and_target_memory(self, plan):
        noc = plan.noc
        assert noc is not None
        assert set(noc.kernel_nodes) == {"dc", "ac#0", "ac#1"}
        assert set(noc.memory_nodes) == {"dq"}
        assert noc.router_count == 4
        assert memory_node("dq") in noc.placement.positions

    def test_kept_edges_cover_all_kernel_traffic(self, plan):
        kept = set(plan.kept_edges())
        assert kept == set(plan.graph.kk_edges)

    def test_bom_counts(self, plan):
        counts = plan.component_counts()
        assert counts[ComponentKind.BUS] == 1
        assert counts[ComponentKind.CROSSBAR] == 1
        assert counts[ComponentKind.ROUTER] == 4
        assert counts[ComponentKind.NA_KERNEL] == 3
        assert counts[ComponentKind.NA_MEMORY] == 1
        assert counts[ComponentKind.NOC_GLUE] == 1

    def test_solution_label(self, plan):
        assert plan.solution_label() == "NoC, SM, P"

    def test_describe_mentions_everything(self, plan):
        text = plan.describe()
        assert "duplicated kernels : ac" in text
        assert "dq -> idct" in text
        assert "mesh" in text
        assert "solution" in text


class TestConfigVariants:
    def test_noc_only_attaches_everything(self):
        plan = design_interconnect(
            "x", jpeg_like_graph(), config().noc_only()
        )
        assert plan.sharing == ()
        noc = plan.noc
        assert noc is not None
        n_kernels = len(plan.graph.kernel_names())
        assert len(noc.kernel_nodes) == n_kernels
        assert len(noc.memory_nodes) == n_kernels
        assert noc.router_count == 2 * n_kernels

    def test_bus_only_is_pure_baseline(self):
        bus_only = replace(config(), **dict(VARIANTS)["bus-only"])
        plan = design_interconnect("x", jpeg_like_graph(), bus_only)
        assert plan.noc is None
        assert plan.sharing == ()
        assert plan.pipeline == ()
        assert all(not d.applied for d in plan.duplications) or not plan.duplications
        assert plan.solution_label() == "Bus"
        assert plan.component_counts() == {ComponentKind.BUS: 1}

    def test_sharing_disabled_moves_pair_to_noc(self):
        plan = design_interconnect(
            "x", jpeg_like_graph(),
            config(enable_sharing=False),
        )
        assert plan.sharing == ()
        assert ("dq", "idct") in {(p, c) for p, c, _ in plan.noc.edges}

    def test_duplication_disabled(self):
        plan = design_interconnect(
            "x", jpeg_like_graph(), config(enable_duplication=False)
        )
        assert plan.duplications == ()
        assert "ac" in plan.graph.kernel_names()

    def test_pipelining_disabled(self):
        plan = design_interconnect(
            "x", jpeg_like_graph(), config(enable_pipelining=False)
        )
        assert plan.pipeline == ()

    def test_invalid_theta_rejected(self):
        with pytest.raises(DesignError):
            DesignConfig(theta_s_per_byte=0.0)

    def test_negative_overhead_rejected(self):
        with pytest.raises(DesignError):
            DesignConfig(theta_s_per_byte=THETA, stream_overhead_s=-1.0)


class TestMemoryAccessors:
    def test_mux_for_overloaded_memories(self):
        plan = design_interconnect("x", jpeg_like_graph(), config())
        muxed = set(plan.mux_kernels())
        # dc: core + host + kernel NA = 3 accessors.
        assert "dc" in muxed
        # idct: core + crossbar (carrying host traffic) = 2, no mux.
        assert "idct" not in muxed

    def test_accessor_listing(self):
        plan = design_interconnect("x", jpeg_like_graph(), config())
        acc = plan.memory_accessors("dq")
        assert "core" in acc
        assert "memory_na" in acc  # M3
        assert "crossbar" in acc  # SM producer side


class TestIsolatedKernels:
    def test_kernel_without_any_kk_traffic_stays_on_bus(self):
        ks = [KernelSpec("solo", 100.0, 800.0)]
        g = CommGraph(
            kernels={k.name: k for k in ks},
            host_in={"solo": 100},
            host_out={"solo": 100},
        )
        plan = design_interconnect("solo", g, config())
        assert plan.noc is None
        assert plan.solution_label() in ("Bus", "P")
        m = plan.mappings["solo"]
        assert m.attach_kernel is KernelAttach.K1
        assert m.attach_memory is MemoryAttach.M1
