"""The paper's primary contribution: automated hybrid interconnect design.

Submodules implement, in the paper's own vocabulary:

* :mod:`~repro.core.kernel` — the kernel model
  ``HW_i(τ_i, D^H_in, D^K_in, D^H_out, D^K_out)`` (Eq. 1);
* :mod:`~repro.core.commgraph` — the kernel communication graph
  ``[HW_i → HW_j : D_ij]`` extracted from a QUAD profile;
* :mod:`~repro.core.topology` — the ``R``/``S`` communication classes and
  ``K``/``M`` interconnect attachment options (Eqs. 4–5);
* :mod:`~repro.core.mapping` — the adaptive mapping function (Table I);
* :mod:`~repro.core.sharing` — the shared-local-memory solution
  (Algorithm 1, lines 8–13);
* :mod:`~repro.core.duplication` — kernel duplication (``Δ_dp``);
* :mod:`~repro.core.parallel` — pipelining cases 1–2 (``Δ_p1``/``Δ_p2``);
* :mod:`~repro.core.placement` — distance-minimizing mesh placement;
* :mod:`~repro.core.plan` — the resulting interconnect plan + bill of
  materials;
* :mod:`~repro.core.designer` — Algorithm 1 end to end;
* :mod:`~repro.core.analytic` — the analytical performance model
  (Eq. 2 and the ``Δ`` savings terms).
"""

from .kernel import KernelSpec
from .commgraph import CommGraph
from .topology import (
    KernelAttach,
    MemoryAttach,
    ReceiveClass,
    SendClass,
    classify_receive,
    classify_send,
)
from .mapping import ADAPTIVE_MAPPING, adaptive_map
from .sharing import SharedMemoryLink, find_sharing_pairs
from .duplication import DuplicationDecision, apply_duplication, decide_duplications
from .parallel import PipelineDecision, find_pipeline_opportunities
from .placement import MeshPlacement, place_on_mesh
from .plan import BillOfMaterials, InterconnectPlan, KernelMapping, NocPlan
from .designer import DesignConfig, InterconnectDesigner, design_interconnect
from .analytic import AnalyticModel, SystemTimes
from .whatif import WhatIf, WhatIfOutcome

__all__ = [
    "KernelSpec",
    "CommGraph",
    "ReceiveClass",
    "SendClass",
    "KernelAttach",
    "MemoryAttach",
    "classify_receive",
    "classify_send",
    "ADAPTIVE_MAPPING",
    "adaptive_map",
    "SharedMemoryLink",
    "find_sharing_pairs",
    "DuplicationDecision",
    "decide_duplications",
    "apply_duplication",
    "PipelineDecision",
    "find_pipeline_opportunities",
    "MeshPlacement",
    "place_on_mesh",
    "InterconnectPlan",
    "NocPlan",
    "KernelMapping",
    "BillOfMaterials",
    "DesignConfig",
    "InterconnectDesigner",
    "design_interconnect",
    "AnalyticModel",
    "SystemTimes",
    "WhatIf",
    "WhatIfOutcome",
]
