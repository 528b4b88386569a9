"""End-to-end experiment flow: profile → design → estimate → simulate.

:func:`run_experiment` reproduces the paper's full methodology for one
application:

1. execute the instrumented application and extract the QUAD-style
   communication profile;
2. calibrate the platform quantities (see :mod:`repro.apps.calibration`);
3. run Algorithm 1 to design the custom interconnect, and price the
   paper's NoC-only comparison system from its decision stages (the
   placed NoC-only plan is designed only when read);
4. evaluate analytically (Eq. 2 + Δ model) and by discrete-event
   simulation (contention included);
5. estimate resources (Table IV) and energy (Fig. 9).

:func:`run_all` does this for all four applications and is what the
benchmark harness calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from .analyze.diagnostics import AnalysisReport
from .apps import fit_application, get_application
from .apps.calibration import FittedApplication
from .apps.registry import APP_NAMES
from .core.analytic import AnalyticModel, SpeedupPair, SystemTimes
from .core.designer import (
    DesignConfig,
    design_interconnect,
    price_interconnect,
)
from .core.plan import InterconnectPlan
from .errors import ConfigurationError
from .hw.energy import EnergyModel, EnergyReport, compare_energy
from .hw.synthesis import SynthesisEstimate, estimate_baseline, estimate_system
from .obs.profile.recorder import TimeseriesRecorder
from .obs.profile.report import SimulationProfile, build_profile
from .obs.trace import NULL_TRACER, Tracer, active
from .sim.systems import (
    SimulatedTimes,
    SystemParams,
    simulate_baseline,
    simulate_proposed,
    simulate_software,
)

#: :class:`DesignConfig` fields callers may override per experiment.
#: ``theta_s_per_byte`` and ``stream_overhead_s`` are excluded — they
#: are calibrated from the platform/application, not free knobs.
DESIGN_TOGGLE_FIELDS = frozenset({
    "enable_duplication",
    "enable_sharing",
    "enable_noc",
    "enable_adaptive_mapping",
    "enable_pipelining",
    "noc_topology",
    "utilization_cap",
    "max_duplications",
})

#: Where the communication graph comes from: a profiled execution
#: (``trace``, the default) or the static analyzer (``static``, which
#: never runs the application — see :mod:`repro.static`).
GRAPH_SOURCES = ("trace", "static")


@dataclass(frozen=True)
class ExperimentResult:
    """Everything the benches need for one application."""

    name: str
    fitted: FittedApplication
    plan: InterconnectPlan
    #: The :class:`DesignConfig` the plan was designed with.
    design_config: DesignConfig
    # Analytic timings.
    analytic_software: SystemTimes
    analytic_baseline: SystemTimes
    analytic_proposed: SystemTimes
    # Simulated timings (None when simulation was skipped).
    sim_software: Optional[SimulatedTimes]
    sim_baseline: Optional[SimulatedTimes]
    sim_proposed: Optional[SimulatedTimes]
    # Synthesis estimates (Table IV columns).
    synth_baseline: SynthesisEstimate
    synth_proposed: SynthesisEstimate
    synth_noc_only: SynthesisEstimate
    # Energy comparison (Fig. 9).
    energy: EnergyReport
    #: Simulation-time profiles keyed by system label ("baseline",
    #: "proposed"); empty unless ``run_experiment(profile=True)``.
    profiles: Mapping[str, "SimulationProfile"] = field(default_factory=dict)
    #: Static analysis of the proposed plan; ``None`` unless
    #: ``run_experiment(lint=True)``.
    lint: Optional["AnalysisReport"] = None

    @cached_property
    def noc_only_plan(self) -> InterconnectPlan:
        """The paper's NoC-only comparison design, placed on first read.

        The flow prices this system (``synth_noc_only``) without
        placing it; reading the plan runs the full designer once.
        """
        return design_interconnect(
            f"{self.name}-noc-only",
            self.fitted.graph,
            self.design_config.noc_only(),
        )

    # -- speed-up accessors ---------------------------------------------------
    @property
    def baseline_vs_sw(self) -> SpeedupPair:
        """Fig. 4 bars."""
        return AnalyticModel.compare(self.analytic_software, self.analytic_baseline)

    @property
    def proposed_vs_sw(self) -> SpeedupPair:
        """Table III columns 2–3."""
        return AnalyticModel.compare(self.analytic_software, self.analytic_proposed)

    @property
    def proposed_vs_baseline(self) -> SpeedupPair:
        """Table III columns 4–5."""
        return AnalyticModel.compare(self.analytic_baseline, self.analytic_proposed)

    @property
    def comm_comp_ratio(self) -> float:
        """Fig. 4's baseline communication/computation ratio."""
        return self.analytic_baseline.comm_comp_ratio


def _as_tracer(
    trace: Union[Tracer, str, Path, None]
) -> Tuple[Tracer, Optional[Path]]:
    """Normalize :func:`run_experiment`'s ``trace`` argument.

    Returns the tracer to use and, when ``trace`` was a filesystem path,
    where to write the Chrome trace afterwards.
    """
    if trace is None:
        return NULL_TRACER, None
    if isinstance(trace, (str, Path)):
        return Tracer(), Path(trace)
    return active(trace), None


def run_experiment(
    name: str,
    scale: int = 1,
    seed: int = 2014,
    params: SystemParams = SystemParams(),
    energy_model: EnergyModel = EnergyModel(),
    simulate: bool = True,
    design_overrides: Optional[Mapping[str, Any]] = None,
    trace: Union[Tracer, str, Path, None] = None,
    profile: bool = False,
    profile_buckets: int = 64,
    lint: bool = False,
    graph_source: str = "trace",
) -> ExperimentResult:
    """Full paper methodology for one application.

    ``design_overrides`` optionally replaces :class:`DesignConfig`
    toggles (any field in :data:`DESIGN_TOGGLE_FIELDS`); the calibrated
    ``θ`` and stream overhead are never overridable.

    ``trace`` opts into observability: pass a
    :class:`~repro.obs.trace.Tracer` to collect spans, or a path to
    write a Chrome ``trace_event`` JSON (load it at ``chrome://tracing``
    or https://ui.perfetto.dev). ``None`` (default) uses the no-op
    tracer — zero overhead, and outputs are byte-identical either way.

    ``profile`` attaches a :class:`~repro.obs.profile.TimeseriesRecorder`
    to the baseline and proposed simulations and publishes the built
    :class:`~repro.obs.profile.report.SimulationProfile` objects on
    ``result.profiles``. Profiling is pure bookkeeping: it never changes
    scheduling, so makespans are bit-identical with it on or off.

    ``lint`` additionally runs the :mod:`repro.analyze` static rule
    engine over the proposed plan and publishes the
    :class:`~repro.analyze.AnalysisReport` on ``result.lint``.

    ``graph_source`` selects how the communication graph is derived:
    ``"trace"`` (default) profiles an instrumented execution;
    ``"static"`` analyzes the app's declarative task-graph description
    (:mod:`repro.static`) and never executes a kernel — the cheap path
    for served designs. The two agree byte-exactly on every
    deterministic edge (proven by :mod:`repro.static.crosscheck`), so
    plans are identical wherever the graphs agree.
    """
    tracer, trace_path = _as_tracer(trace)
    if graph_source not in GRAPH_SOURCES:
        raise ConfigurationError(
            f"unknown graph_source {graph_source!r} "
            f"(allowed: {', '.join(GRAPH_SOURCES)})"
        )

    with tracer.span("experiment", app=name, scale=scale, seed=seed):
        with tracer.span("profile", app=name):
            app = get_application(name, scale=scale, seed=seed)
            theta = params.theta_s_per_byte()
        with tracer.span("fit", app=name):
            if graph_source == "static":
                from .static.fit import fit_static

                fitted = fit_static(app, theta)
            else:
                fitted = fit_application(app, theta)

        config = DesignConfig(
            theta_s_per_byte=theta,
            stream_overhead_s=fitted.stream_overhead_s,
        )
        if design_overrides:
            unknown = set(design_overrides) - DESIGN_TOGGLE_FIELDS
            if unknown:
                raise ConfigurationError(
                    f"unknown design toggles: {sorted(unknown)} "
                    f"(allowed: {sorted(DESIGN_TOGGLE_FIELDS)})"
                )
            config = replace(config, **dict(design_overrides))
        with tracer.span("design", app=name):
            plan = design_interconnect(name, fitted.graph, config, tracer=tracer)
        with tracer.span("design.noc_only", app=name):
            noc_only_graph, noc_only_counts = price_interconnect(
                f"{name}-noc-only", fitted.graph, config.noc_only(), tracer=tracer
            )

        lint_report: Optional[AnalysisReport] = None
        if lint:
            from .analyze import analyze_plan

            with tracer.span("lint", app=name):
                lint_report = analyze_plan(plan, params)

        with tracer.span("analytic", app=name):
            model = AnalyticModel(fitted.graph, theta, fitted.host_other_s)
            t_sw = model.software()
            t_base = model.baseline()
            t_prop = model.proposed(plan)

        sim_sw = sim_base = sim_prop = None
        profiles: Dict[str, SimulationProfile] = {}
        if simulate:
            rec_base = TimeseriesRecorder() if profile else None
            rec_prop = TimeseriesRecorder() if profile else None
            with tracer.span("simulate", app=name, system="software"):
                sim_sw = simulate_software(fitted.graph, fitted.host_other_s)
            with tracer.span("simulate", app=name, system="baseline"):
                sim_base = simulate_baseline(
                    fitted.graph, fitted.host_other_s, params,
                    recorder=rec_base,
                )
            with tracer.span("simulate", app=name, system="proposed"):
                sim_prop = simulate_proposed(
                    plan, fitted.host_other_s, params, recorder=rec_prop
                )
            if profile:
                with tracer.span("profile.build", app=name):
                    profiles["baseline"] = build_profile(
                        name, sim_base, rec_base, fitted.graph,
                        buckets=profile_buckets, mode="mediated",
                    )
                    profiles["proposed"] = build_profile(
                        name, sim_prop, rec_prop, plan.graph,
                        buckets=profile_buckets, mode="direct",
                    )

        with tracer.span("synthesis", app=name):
            original_costs = [
                fitted.graph.kernel(k).resources
                for k in fitted.graph.kernel_names()
            ]
            synth_base = estimate_baseline(original_costs)
            synth_prop = estimate_system(
                "proposed",
                [plan.graph.kernel(k).resources for k in plan.graph.kernel_names()],
                plan.component_counts(),
            )
            synth_noc = estimate_system(
                "noc_only",
                [
                    noc_only_graph.kernel(k).resources
                    for k in noc_only_graph.kernel_names()
                ],
                noc_only_counts,
            )

        with tracer.span("energy", app=name):
            energy = compare_energy(
                name,
                energy_model,
                baseline_resources=synth_base.total,
                proposed_resources=synth_prop.total,
                baseline_time_s=t_base.application_s,
                proposed_time_s=t_prop.application_s,
            )

    if trace_path is not None:
        tracer.write_chrome_trace(trace_path)

    return ExperimentResult(
        name=name,
        fitted=fitted,
        plan=plan,
        design_config=config,
        analytic_software=t_sw,
        analytic_baseline=t_base,
        analytic_proposed=t_prop,
        sim_software=sim_sw,
        sim_baseline=sim_base,
        sim_proposed=sim_prop,
        synth_baseline=synth_base,
        synth_proposed=synth_prop,
        synth_noc_only=synth_noc,
        energy=energy,
        profiles=profiles,
        lint=lint_report,
    )


#: Canonical column order of :func:`result_summary` — consumers that
#: rebuild rows from JSON (where key order is lost) re-impose this so
#: CSV output is byte-stable across fresh, cached, and pooled execution.
SUMMARY_FIELDS = (
    "solution",
    "baseline_kernels_ms",
    "proposed_kernels_ms",
    "speedup_app",
    "speedup_kernels",
    "comm_comp_ratio",
    "proposed_luts",
    "noc_only_luts",
    "energy_saving_pct",
    "sim_speedup_app",
    "sim_speedup_kernels",
)


def result_summary(result: ExperimentResult) -> Dict[str, Any]:
    """Flatten an :class:`ExperimentResult` into one JSON/CSV-safe dict.

    This is the shared summary shape: :meth:`repro.sweep.SweepPoint.record`
    appends it to the grid coordinates, and the service layer caches it
    as the canonical job result (a full :class:`ExperimentResult` does
    not survive a JSON round-trip; this summary does, bit-exactly).
    """
    r = result
    row: Dict[str, Any] = {
        "solution": r.plan.solution_label(),
        "baseline_kernels_ms": r.analytic_baseline.kernels_s * 1e3,
        "proposed_kernels_ms": r.analytic_proposed.kernels_s * 1e3,
        "speedup_app": r.proposed_vs_baseline.application,
        "speedup_kernels": r.proposed_vs_baseline.kernels,
        "comm_comp_ratio": r.analytic_baseline.comm_comp_ratio,
        "proposed_luts": r.synth_proposed.total.luts,
        "noc_only_luts": r.synth_noc_only.total.luts,
        "energy_saving_pct": r.energy.saving_percent,
    }
    if r.sim_proposed is not None and r.sim_baseline is not None:
        app_s, kern_s = r.sim_proposed.speedup_over(r.sim_baseline)
        row["sim_speedup_app"] = app_s
        row["sim_speedup_kernels"] = kern_s
    return row


def to_deployment(result: ExperimentResult) -> "AppDeployment":
    """Adapt an experiment result for the reconfiguration scheduler.

    The reconfigurable module is everything application-specific —
    kernels plus the custom interconnect; the platform base and the bus
    are static and shared across applications.
    """
    from .reconfig.scheduler import AppDeployment

    est = result.synth_proposed
    return AppDeployment(
        name=result.name,
        module=est.kernels + est.custom_interconnect,
        exec_seconds=result.analytic_proposed.application_s,
    )


def run_all(
    scale: int = 1,
    seed: int = 2014,
    params: SystemParams = SystemParams(),
    simulate: bool = True,
    names: Tuple[str, ...] = APP_NAMES,
) -> Dict[str, ExperimentResult]:
    """Run every application; keyed by name, evaluation order."""
    return {
        name: run_experiment(
            name, scale=scale, seed=seed, params=params, simulate=simulate
        )
        for name in names
    }
