"""Command-line interface.

``python -m repro <command>`` exposes the library's main flows:

* ``profile <app>`` — run the instrumented application and print its
  QUAD-style communication profile (Fig. 5 format); with ``--sim`` /
  ``--json`` / ``--html`` instead produce the time-resolved simulation
  profile (utilization lanes, critical-path attribution, byte
  conservation);
* ``design <app>`` — run Algorithm 1 and print the interconnect plan
  (Fig. 6 format), with ``--no-sharing`` / ``--noc-only`` etc. toggles;
* ``explain <app>`` — print the designer's full decision log (why each
  duplication/sharing/mapping/placement/pipelining choice was made);
  ``--with-profile`` cites measured evidence next to each decision;
* ``lint <app|--all>`` — static diagnostics over the designed plan
  (``repro.analyze`` rule engine): graph smells, Table I re-derivation,
  bandwidth bounds, CDG deadlock proof; ``--sim-crosscheck`` proves
  every bound against the simulator, ``--sarif`` exports for CI;
* ``static <app|--all>`` — derive the communication graph from the
  declarative task-graph description alone (``repro.static``), without
  executing a single kernel; ``--check`` traces the app too and proves
  byte-exact agreement on every deterministic edge (``--diff-out``
  writes the ``static-diff`` document CI archives);
* ``report`` — regenerate every paper table/figure in one go;
* ``simulate <app>`` — run the discrete-event simulation and show the
  baseline-vs-proposed Gantt comparison;
* ``sweep`` — evaluate a parameter grid through the design service
  (``--jobs`` workers, ``--cache-dir`` result reuse, ``--stats``);
* ``fuzz`` — property-based fuzz campaign over random communication
  graphs: Algorithm 1 postconditions (the analyzer's plan rules),
  analytic-vs-simulated differential oracle, metamorphic checks, with
  ``--shrink`` minimization and a JSON ``--report`` artifact;
* ``serve`` — run the networked design service (``repro.server``):
  JSON design/sweep API, SSE streaming sweeps, per-tenant quotas,
  admission control, Prometheus ``/metrics``, graceful SIGTERM drain;
* ``loadtest`` — drive a running server with concurrent clients and
  report served p50/p95/p99 latency, a bucketed latency histogram, and
  error rates (gated with ``--max-error-rate``);
* ``top`` — live dashboard over a running server's ``/v1/debug``
  runtime introspection endpoint (``--once`` for a single snapshot,
  ``--json`` for the raw machine-readable document);
* ``postmortem <dump>`` — render a ``flight-report`` JSON written by a
  crashed, SIGQUIT'd, or watchdog-tripped server (thread stacks,
  recent spans/events, metric snapshots);
* ``apps`` — list the available applications.

Benchmarks live outside the CLI: ``benchmarks/e2e/run.py`` measures
designs and served requests end to end with per-layer times from the
spans ``run_experiment`` emits (``benchmarks/e2e/compare.py`` gates a
change against its parent), and ``tools/overhead_gates.py`` bounds what
the profile recorder adds to a simulation.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .apps import fit_application, get_application
from .apps.registry import APP_NAMES
from .core.designer import DesignConfig, design_interconnect
from .errors import ReproError
from .flow import run_all, run_experiment
from .profiling.report import render_profile_graph, render_profile_table
from .reporting import (
    render_fig4,
    render_fig5,
    render_fig6,
    render_fig8,
    render_fig9,
    render_simulation_crosscheck,
    render_table2,
    render_table3,
    render_table4,
)
from .sim.systems import SystemParams
from .sim.timeline import render_comparison


def _add_app_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "app", choices=APP_NAMES, help="application to operate on"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Automated hybrid interconnect design (IPPS 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="print an application's communication profile")
    _add_app_argument(p)
    p.add_argument("--table", action="store_true", help="tabular instead of graph form")
    p.add_argument("--scale", type=int, default=1, help="workload scale factor")
    p.add_argument("--sim", action="store_true",
                   help="time-resolved simulation profile (utilization "
                        "lanes, critical path, byte conservation)")
    p.add_argument("--json", action="store_true",
                   help="simulation profile as versioned JSON (implies --sim)")
    p.add_argument("--html", type=str, default=None, metavar="PATH",
                   help="write a self-contained HTML simulation profile "
                        "report here (implies --sim)")
    p.add_argument("--buckets", type=int, default=64,
                   help="utilization-timeseries bucket count (default 64)")

    p = sub.add_parser("design", help="design and print the custom interconnect")
    _add_app_argument(p)
    p.add_argument("--no-sharing", action="store_true", help="disable shared local memory")
    p.add_argument("--no-duplication", action="store_true", help="disable kernel duplication")
    p.add_argument("--no-pipelining", action="store_true", help="disable pipelining")
    p.add_argument("--noc-only", action="store_true",
                   help="the paper's NoC-only comparison system")

    p = sub.add_parser(
        "explain",
        help="print the designer's full Algorithm 1 decision log",
    )
    _add_app_argument(p)
    p.add_argument("--json", action="store_true",
                   help="machine-readable event list instead of prose")
    p.add_argument("--noc-only", action="store_true",
                   help="explain the NoC-only comparison design instead")
    p.add_argument("--scale", type=int, default=1, help="workload scale factor")
    p.add_argument("--with-profile", action="store_true",
                   help="interleave each decision with the measured "
                        "evidence from a profiled simulation run")

    p = sub.add_parser(
        "lint",
        help="static diagnostics (rule engine) over a designed plan",
    )
    p.add_argument("app", nargs="?", choices=APP_NAMES, default=None,
                   help="application to lint (omit with --all)")
    p.add_argument("--all", action="store_true", dest="all_apps",
                   help="lint every registered application")
    p.add_argument("--scale", type=int, default=1, help="workload scale factor")
    p.add_argument("--sim-crosscheck", action="store_true",
                   help="simulate the plan and verify every static "
                        "bandwidth bound against measured behavior")
    p.add_argument("--json", action="store_true",
                   help="versioned lint-report JSON instead of prose")
    p.add_argument("--sarif", type=str, default=None, metavar="PATH",
                   help="also write a SARIF 2.1.0 document here")
    p.add_argument("--fail-on", choices=("error", "warning", "info",
                                         "hint", "never"),
                   default="error",
                   help="exit 1 when any finding is at least this severe "
                        "(default: error)")

    p = sub.add_parser(
        "static",
        help="derive the communication graph statically (no execution)",
    )
    p.add_argument("app", nargs="?", choices=APP_NAMES, default=None,
                   help="application to analyze (omit with --all)")
    p.add_argument("--all", action="store_true", dest="all_apps",
                   help="analyze every statically-described application")
    p.add_argument("--scale", type=int, default=1, help="workload scale factor")
    p.add_argument("--seed", type=int, default=2014,
                   help="RNG seed for the tracer side of --check")
    p.add_argument("--check", action="store_true",
                   help="trace the application too and cross-check the "
                        "static graph byte-exactly against the tracer")
    p.add_argument("--json", action="store_true",
                   help="versioned static-graph (or static-diff) JSON "
                        "instead of prose")
    p.add_argument("--diff-out", type=str, default=None, metavar="PATH",
                   help="with --check, also write the static-diff "
                        "document here")

    p = sub.add_parser("simulate", help="simulate baseline vs proposed with a Gantt chart")
    _add_app_argument(p)
    p.add_argument("--width", type=int, default=60, help="gantt chart width")
    p.add_argument("--qos", action="store_true", help="enable NoC WRR QoS weights")

    p = sub.add_parser("report", help="regenerate every paper table and figure")
    p.add_argument("--markdown", action="store_true",
                   help="emit one markdown document instead of sections")
    p.add_argument("--output", type=str, default=None,
                   help="also write the report to this file")
    sub.add_parser("apps", help="list available applications")

    p = sub.add_parser(
        "sweep",
        help="run a parameter sweep through the design service (CSV out)",
    )
    p.add_argument("--apps", type=str, default=",".join(APP_NAMES),
                   help="comma-separated applications (default: all)")
    p.add_argument("--scales", type=str, default="1",
                   help="comma-separated workload scales")
    p.add_argument("--param", action="append", default=[], metavar="NAME=V1,V2",
                   help="SystemParams field to sweep (repeatable)")
    p.add_argument("--simulate", action="store_true",
                   help="also run discrete-event simulation per point")
    p.add_argument("--seed", type=int, default=2014, help="workload RNG seed")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes (1 = in-process serial)")
    p.add_argument("--cache-dir", type=str, default=None,
                   help="persist results here and reuse them across runs")
    p.add_argument("--stats", action="store_true",
                   help="print service metrics (cache hit ratio, latency)")
    p.add_argument("--output", type=str, default=None,
                   help="write the CSV here instead of stdout")
    p.add_argument("--trace-out", type=str, default=None, metavar="PATH",
                   help="collect spans and write them here "
                        "(.jsonl = JSONL, else Chrome trace_event JSON)")
    p.add_argument("--metrics-out", type=str, default=None, metavar="PATH",
                   help="write the service metrics snapshot here "
                        "(.prom = Prometheus exposition, else JSON)")
    p.add_argument("--profile-dir", type=str, default=None, metavar="DIR",
                   help="profile every simulated point and persist the "
                        "profiles here (one JSON per job fingerprint)")

    p = sub.add_parser(
        "fuzz",
        help="property-based fuzzing of Algorithm 1 + the simulator",
    )
    p.add_argument("--seed", type=int, default=0, help="campaign seed")
    p.add_argument("--cases", type=int, default=100,
                   help="number of generated cases")
    p.add_argument("--shrink", action="store_true",
                   help="minimize every failing case before reporting")
    p.add_argument("--shrink-budget", type=int, default=300,
                   help="max candidate evaluations per shrink")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes (1 = in-process serial)")
    p.add_argument("--min-kernels", type=int, default=2,
                   help="smallest generated kernel count")
    p.add_argument("--max-kernels", type=int, default=8,
                   help="largest generated kernel count")
    p.add_argument("--density", type=float, default=0.3,
                   help="kernel-to-kernel edge probability")
    p.add_argument("--distribution", choices=("uniform", "log_uniform",
                                              "heavy_tail"),
                   default="log_uniform", help="byte-volume distribution")
    p.add_argument("--fixed-params", action="store_true",
                   help="use default SystemParams instead of fuzzing them")
    p.add_argument("--report", type=str, default=None, metavar="PATH",
                   help="write the JSON campaign report here")
    p.add_argument("--stats", action="store_true",
                   help="print service metrics after the campaign")
    p.add_argument("--trace-out", type=str, default=None, metavar="PATH",
                   help="collect spans and write them here "
                        "(.jsonl = JSONL, else Chrome trace_event JSON)")
    p.add_argument("--metrics-out", type=str, default=None, metavar="PATH",
                   help="write the service metrics snapshot here "
                        "(.prom = Prometheus exposition, else JSON)")

    p = sub.add_parser(
        "serve",
        help="run the networked design service (HTTP JSON API + SSE)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: loopback)")
    p.add_argument("--port", type=int, default=8014,
                   help="bind port (0 = ephemeral, printed at startup)")
    p.add_argument("--jobs", type=int, default=1,
                   help="service worker processes (1 = in-process serial)")
    p.add_argument("--cache-dir", type=str, default=None,
                   help="persist design results here across restarts")
    p.add_argument("--max-inflight", type=int, default=8,
                   help="requests allowed past admission at once")
    p.add_argument("--max-queue", type=int, default=32,
                   help="admission queue depth before 429s")
    p.add_argument("--quota-rate", type=float, default=50.0,
                   help="per-tenant sustained requests/second")
    p.add_argument("--quota-burst", type=float, default=100.0,
                   help="per-tenant burst capacity (token bucket size)")
    p.add_argument("--max-sweep-points", type=int, default=4096,
                   help="largest accepted sweep grid (413 beyond)")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   help="seconds to wait for in-flight work on SIGTERM")
    p.add_argument("--event-log", type=str, default=None, metavar="PATH",
                   help="also append every runtime event as JSONL here")
    p.add_argument("--event-log-max-mb", type=float, default=0.0,
                   metavar="MB",
                   help="rotate the --event-log sink when it would exceed "
                        "this size (one .1 backup; 0 = never rotate)")
    p.add_argument("--flight-dir", type=str, default=".", metavar="DIR",
                   help="directory for flight-report dumps written on "
                        "crash, SIGQUIT, or a watchdog trip (default: cwd)")

    p = sub.add_parser(
        "top",
        help="live runtime dashboard for a running repro server",
    )
    p.add_argument("--url", required=True,
                   help="server base URL, e.g. http://127.0.0.1:8014")
    p.add_argument("--tenant", default=None,
                   help="X-Tenant header for the introspection requests")
    p.add_argument("--interval", type=float, default=2.0,
                   help="refresh period in seconds")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit (no screen control)")
    p.add_argument("--json", action="store_true",
                   help="print the raw /v1/debug document as JSON and "
                        "exit (machine-readable; implies --once)")

    p = sub.add_parser(
        "postmortem",
        help="render a flight-report dump from a crashed/SIGQUIT'd server",
    )
    p.add_argument("dump", help="path to a flight-*.json dump file")
    p.add_argument("--json", action="store_true",
                   help="re-emit the validated document as canonical JSON "
                        "instead of the human rendering")
    p.add_argument("--events", type=int, default=15, metavar="N",
                   help="recent events to show per ring (default 15)")
    p.add_argument("--frames", type=int, default=12, metavar="N",
                   help="stack frames to show per thread (default 12)")

    p = sub.add_parser(
        "loadtest",
        help="drive a running repro server; report served p50/p99",
    )
    p.add_argument("--url", required=True,
                   help="server base URL, e.g. http://127.0.0.1:8014")
    p.add_argument("--requests", type=int, default=200)
    p.add_argument("--concurrency", type=int, default=8)
    p.add_argument("--apps", nargs="+", default=None,
                   help="applications to request (default: all four)")
    p.add_argument("--tenant", default=None,
                   help="X-Tenant header for every request")
    p.add_argument("--json-out", default=None, metavar="PATH",
                   help="write the full loadtest-report JSON here")
    p.add_argument("--max-error-rate", type=float, default=None,
                   help="exit 1 if the error rate exceeds this")

    p = sub.add_parser("pareto", help="time/area Pareto front of designer configs")
    _add_app_argument(p)

    sub.add_parser(
        "portfolio",
        help="rank all applications by expected interconnect benefit",
    )

    p = sub.add_parser(
        "reconfig",
        help="deployment strategies for all four apps on one device",
    )
    p.add_argument("--device-luts", type=int, default=81920,
                   help="device LUT capacity (default: xc5vfx130t)")
    p.add_argument("--device-regs", type=int, default=81920,
                   help="device register capacity")
    p.add_argument("--rounds", type=int, default=8,
                   help="round-robin invocations per application")
    return parser


def cmd_profile(args: argparse.Namespace) -> int:
    if not (args.sim or args.json or args.html):
        # Legacy QUAD-style communication profile (Fig. 5).
        app = get_application(args.app, scale=args.scale)
        profile = app.profile()
        folded = profile.restricted_to(app.kernel_names(), "host")
        render = render_profile_table if args.table else render_profile_graph
        print(render(folded))
        return 0

    import json as json_mod
    import pathlib

    from .obs.profile.report import (
        profile_set_to_dict,
        render_html_report,
        render_profile_text,
    )

    result = run_experiment(
        args.app, scale=args.scale, profile=True,
        profile_buckets=args.buckets,
    )
    if args.json:
        print(json_mod.dumps(
            profile_set_to_dict(args.app, result.profiles),
            indent=2, sort_keys=True,
        ))
    else:
        for label in ("baseline", "proposed"):
            print(render_profile_text(result.profiles[label]))
            print()
    if args.html is not None:
        pathlib.Path(args.html).write_text(
            render_html_report(args.app, result.profiles)
        )
        # Keep stdout clean for --json piping.
        print(f"wrote HTML profile report to {args.html}",
              file=sys.stderr if args.json else sys.stdout)
    return 0


def cmd_design(args: argparse.Namespace) -> int:
    params = SystemParams()
    theta = params.theta_s_per_byte()
    fitted = fit_application(get_application(args.app), theta)
    config = DesignConfig(
        theta_s_per_byte=theta,
        stream_overhead_s=fitted.stream_overhead_s,
        enable_sharing=not args.no_sharing,
        enable_duplication=not args.no_duplication,
        enable_pipelining=not args.no_pipelining,
    )
    if args.noc_only:
        config = config.noc_only()
    plan = design_interconnect(args.app, fitted.graph, config)
    print(plan.describe())
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    import json as json_mod

    from .obs.provenance import render_provenance

    if args.with_profile:
        from .errors import ConfigurationError
        from .obs.profile.report import render_decisions_with_profile

        if args.noc_only or args.json:
            raise ConfigurationError(
                "--with-profile explains the proposed design in prose; "
                "drop --noc-only/--json"
            )
        result = run_experiment(args.app, scale=args.scale, profile=True)
        print(render_decisions_with_profile(result.plan, result.profiles))
        return 0

    params = SystemParams()
    theta = params.theta_s_per_byte()
    fitted = fit_application(get_application(args.app, scale=args.scale), theta)
    config = DesignConfig(
        theta_s_per_byte=theta,
        stream_overhead_s=fitted.stream_overhead_s,
    )
    if args.noc_only:
        config = config.noc_only()
    plan = design_interconnect(args.app, fitted.graph, config)
    if args.json:
        print(json_mod.dumps(
            [e.as_dict() for e in plan.provenance], indent=2
        ))
    else:
        from .analyze import analyze_plan

        print(render_provenance(plan))
        print()
        print(analyze_plan(plan, params).render())
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    import json as json_mod
    import pathlib

    from .analyze import Severity, analyze_plan, crosscheck_plan, to_sarif
    from .errors import ConfigurationError

    if args.all_apps == (args.app is not None):
        raise ConfigurationError(
            "lint needs exactly one of: an app name, or --all"
        )
    names = list(APP_NAMES) if args.all_apps else [args.app]
    params = SystemParams()
    theta = params.theta_s_per_byte()
    reports = []
    for name in names:
        fitted = fit_application(
            get_application(name, scale=args.scale), theta
        )
        config = DesignConfig(
            theta_s_per_byte=theta,
            stream_overhead_s=fitted.stream_overhead_s,
        )
        plan = design_interconnect(name, fitted.graph, config)
        report = analyze_plan(plan, params)
        if args.sim_crosscheck:
            report = report.extended(crosscheck_plan(plan, params))
        reports.append(report)
    if args.json:
        payload = [r.to_dict() for r in reports]
        print(json_mod.dumps(
            payload if args.all_apps else payload[0],
            indent=2, sort_keys=True,
        ))
    else:
        for report in reports:
            print(report.render())
    if args.sarif is not None:
        pathlib.Path(args.sarif).write_text(
            json_mod.dumps(to_sarif(reports), indent=2, sort_keys=True)
        )
        print(f"wrote SARIF report to {args.sarif}",
              file=sys.stderr if args.json else sys.stdout)
    if args.fail_on == "never":
        return 0
    threshold = Severity(args.fail_on)
    failing = any(r.at_least(threshold) for r in reports)
    return 1 if failing else 0


def cmd_static(args: argparse.Namespace) -> int:
    import json as json_mod
    import pathlib

    from .errors import ConfigurationError
    from .static import STATIC_APP_NAMES, analyze, describe
    from .static.crosscheck import (
        crosscheck_apps,
        crosscheck_to_dict,
        render_crosscheck,
    )

    if args.all_apps == (args.app is not None):
        raise ConfigurationError(
            "static needs exactly one of: an app name, or --all"
        )
    names = list(STATIC_APP_NAMES) if args.all_apps else [args.app]

    if args.check:
        checks = crosscheck_apps(names, scale=args.scale, seed=args.seed)
        doc = crosscheck_to_dict(checks)
        if args.json:
            print(json_mod.dumps(doc, indent=2, sort_keys=True))
        else:
            for check in checks:
                print(render_crosscheck(check))
        if args.diff_out is not None:
            pathlib.Path(args.diff_out).write_text(
                json_mod.dumps(doc, indent=2, sort_keys=True)
            )
            print(f"wrote static-diff report to {args.diff_out}",
                  file=sys.stderr if args.json else sys.stdout)
        return 0 if doc["ok"] else 1

    graphs = [analyze(describe(n, scale=args.scale)) for n in names]
    if args.json:
        payload = [g.to_dict() for g in graphs]
        print(json_mod.dumps(
            payload if args.all_apps else payload[0],
            indent=2, sort_keys=True,
        ))
        return 0
    for graph in graphs:
        tag = "exact" if graph.exact else (
            f"{len(graph.approximations)} data-dependent edge(s)"
        )
        print(f"{graph.app}: {len(graph.kernels)} kernels, "
              f"{len(graph.kk_edges)} kernel edges ({tag})")
        for (prod, cons), ext in graph.kk_edges.items():
            span = (str(ext.nominal) if ext.exact
                    else f"[{ext.lo}, {ext.hi}] ~{ext.nominal}")
            count = graph.transfers.get((prod, cons), 0)
            print(f"  {prod:>18} -> {cons:<18} {span:>24}  "
                  f"({count} transfers)")
        for kernel, ext in graph.host_in.items():
            print(f"  {'host':>18} -> {kernel:<18} {ext.nominal:>24}")
        for kernel, ext in graph.host_out.items():
            print(f"  {kernel:>18} -> {'host':<18} {ext.nominal:>24}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .sim.stats import collect_stats
    from .sim.systems import simulate_proposed

    params = SystemParams(noc_qos=args.qos)
    result = run_experiment(args.app, params=params)
    assert result.sim_baseline is not None and result.sim_proposed is not None
    print(render_comparison(result.sim_baseline, result.sim_proposed,
                            width=args.width))
    app_s, kern_s = result.sim_proposed.speedup_over(result.sim_baseline)
    print(f"\nsimulated speed-up vs baseline: {app_s:.2f}x application, "
          f"{kern_s:.2f}x kernels\n")
    # Re-run once more keeping the live components for exact counters.
    components: dict = {}
    times = simulate_proposed(
        result.plan, result.fitted.host_other_s, params,
        components_out=components,
    )
    print(collect_stats(
        times,
        bus=components.get("bus"),
        noc=components.get("noc"),
        dma=components.get("dma"),
        engine=components.get("engine"),
    ).render())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    results = run_all()
    if getattr(args, "markdown", False):
        from .reporting import generate_markdown_report

        text = generate_markdown_report(results)
        print(text)
        if args.output:
            import pathlib

            pathlib.Path(args.output).write_text(text)
        return 0
    sections = [
        ("Fig. 4  — baseline vs software", render_fig4(results)),
        ("Table II — interconnect components", render_table2()),
        ("Fig. 5  — jpeg communication profile", render_fig5(results["jpeg"])),
        ("Fig. 6  — jpeg interconnect plan", render_fig6(results["jpeg"])),
        ("Table III / Fig. 7 — proposed-system speed-ups", render_table3(results)),
        ("Table IV — resource utilization", render_table4(results)),
        ("Fig. 8  — interconnect / kernel resources", render_fig8(results)),
        ("Fig. 9  — normalized energy", render_fig9(results)),
        ("Model vs simulation cross-check", render_simulation_crosscheck(results)),
    ]
    for title, body in sections:
        print(f"=== {title} ===")
        print(body)
        print()
    return 0


def _parse_param_value(text: str):
    """Best-effort scalar parsing for ``--param`` values."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def cmd_sweep(args: argparse.Namespace) -> int:
    from .errors import ConfigurationError
    from .service import DesignService
    from .sweep import SweepGrid, run_sweep, to_csv

    if args.profile_dir is not None and not args.simulate:
        raise ConfigurationError(
            "--profile-dir profiles simulated points; add --simulate"
        )
    param_grid = {}
    for spec in args.param:
        name, sep, values = spec.partition("=")
        if not sep or not values:
            raise ConfigurationError(
                f"--param expects NAME=V1,V2,... got {spec!r}"
            )
        param_grid[name] = [_parse_param_value(v) for v in values.split(",")]
    grid = SweepGrid(
        apps=[a for a in args.apps.split(",") if a],
        scales=[int(s) for s in args.scales.split(",") if s],
        param_grid=param_grid,
        simulate=args.simulate,
        seed=args.seed,
    )
    tracer = None
    if args.trace_out is not None:
        from .obs.trace import Tracer

        tracer = Tracer()
    service = DesignService(
        jobs=args.jobs, cache_dir=args.cache_dir, tracer=tracer,
        profile_dir=args.profile_dir,
    )
    points = run_sweep(grid, service=service)
    text = to_csv(points, args.output)
    if args.output is None:
        # CSV on stdout; keep metrics off it so piping stays clean.
        print(text, end="")
        if args.stats:
            print(service.render_stats(), file=sys.stderr)
    else:
        print(f"wrote {len(points)} sweep points to {args.output}")
        if args.stats:
            print(service.render_stats())
    if tracer is not None:
        import pathlib

        trace_path = pathlib.Path(args.trace_out)
        if trace_path.suffix == ".jsonl":
            tracer.write_jsonl(trace_path)
        else:
            tracer.write_chrome_trace(trace_path)
        print(f"wrote {len(tracer.events)} spans to {trace_path}",
              file=sys.stderr)
    if args.metrics_out is not None:
        from .obs.export import write_metrics

        out = write_metrics(service.stats(), args.metrics_out)
        print(f"wrote metrics snapshot to {out}", file=sys.stderr)
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .io import save_json
    from .service import DesignService
    from .verify import FuzzSpec, run_fuzz

    spec = FuzzSpec(
        min_kernels=args.min_kernels,
        max_kernels=args.max_kernels,
        edge_density=args.density,
        volume_distribution=args.distribution,
        fuzz_system_params=not args.fixed_params,
    )
    tracer = None
    if args.trace_out is not None:
        from .obs.trace import Tracer

        tracer = Tracer()
    from .verify import run_fuzz_job

    service = DesignService(jobs=args.jobs, tracer=tracer,
                            runner=run_fuzz_job)
    report = run_fuzz(
        spec=spec,
        seed=args.seed,
        cases=args.cases,
        shrink=args.shrink,
        shrink_budget=args.shrink_budget,
        service=service,
        tracer=tracer,
    )
    print(report.render())
    if args.report is not None:
        save_json(report.to_dict(), args.report)
        print(f"wrote fuzz report to {args.report}")
    if args.stats:
        print(service.render_stats(), file=sys.stderr)
    if tracer is not None:
        import pathlib

        trace_path = pathlib.Path(args.trace_out)
        if trace_path.suffix == ".jsonl":
            tracer.write_jsonl(trace_path)
        else:
            tracer.write_chrome_trace(trace_path)
        print(f"wrote {len(tracer.events)} spans to {trace_path}",
              file=sys.stderr)
    if args.metrics_out is not None:
        from .obs.export import write_metrics

        out = write_metrics(service.stats(), args.metrics_out)
        print(f"wrote metrics snapshot to {out}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from .server import ServerConfig
    from .server.runtime import serve

    config = ServerConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        max_sweep_points=args.max_sweep_points,
        drain_timeout_s=args.drain_timeout,
        event_log_path=args.event_log,
        event_log_max_mb=args.event_log_max_mb,
        flight_dir=args.flight_dir,
    )

    def _announce(server) -> None:
        print(f"repro server listening on {server.url} "
              f"(SIGTERM drains gracefully)", flush=True)

    return serve(config, ready=_announce)


def cmd_loadtest(args: argparse.Namespace) -> int:
    from .io import save_json
    from .server.loadtest import (
        DEFAULT_APPS,
        LoadtestConfig,
        format_report,
        run_loadtest,
    )

    config = LoadtestConfig(
        url=args.url,
        apps=tuple(args.apps) if args.apps else DEFAULT_APPS,
        requests=args.requests,
        concurrency=args.concurrency,
        tenant=args.tenant,
    )
    report = run_loadtest(config)
    print(format_report(report))
    if args.json_out:
        save_json(report, args.json_out)
        print(f"  report written to {args.json_out}")
    if (
        args.max_error_rate is not None
        and report["error_rate"] > args.max_error_rate
    ):
        print(
            f"FAIL: error rate {report['error_rate']:.3f} exceeds "
            f"--max-error-rate {args.max_error_rate:.3f}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from .obs.runtime.debug import render_top
    from .server import DesignClient

    client = DesignClient(args.url, tenant=args.tenant)
    if args.json:
        import json as json_mod

        # Machine-readable one-shot: the raw /v1/debug document, no
        # ANSI, no table formatting — scriptable with jq.
        print(json_mod.dumps(client.debug(), indent=2, sort_keys=True))
        return 0
    while True:
        doc = client.debug()
        metrics_text = client.metrics()
        screen = render_top(doc, metrics_text=metrics_text)
        if args.once:
            print(screen)
            return 0
        # Home the cursor + clear so the dashboard repaints in place.
        print(f"\x1b[H\x1b[2J{screen}", flush=True)
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def cmd_postmortem(args: argparse.Namespace) -> int:
    from .obs.flight import load_flight_report, render_flight_report

    doc = load_flight_report(args.dump)
    if args.json:
        from .io import canonical_json

        print(canonical_json(doc))
    else:
        print(render_flight_report(
            doc, events_shown=args.events, frames_shown=args.frames
        ))
    return 0


def cmd_apps(_args: argparse.Namespace) -> int:
    for name in APP_NAMES:
        app = get_application(name)
        kernels = ", ".join(app.kernel_names())
        print(f"{name:<8} kernels: {kernels}")
    return 0


def cmd_pareto(args: argparse.Namespace) -> int:
    from .explore import enumerate_design_points, pareto_front

    params = SystemParams()
    theta = params.theta_s_per_byte()
    fitted = fit_application(get_application(args.app), theta)
    config = DesignConfig(
        theta_s_per_byte=theta, stream_overhead_s=fitted.stream_overhead_s
    )
    points = enumerate_design_points(
        args.app, fitted.graph, config, fitted.host_other_s
    )
    front = {p.label for p in pareto_front(points)}
    print(f"{'':2}{'configuration':<20}{'kernels':>12}{'LUTs':>8}")
    for p in sorted(points, key=lambda p: p.kernels_seconds):
        mark = "*" if p.label in front else " "
        print(
            f"{mark:2}{p.label:<20}{p.kernels_seconds * 1e3:>10.3f}ms"
            f"{p.luts:>8}"
        )
    print("\n(* = Pareto-optimal)")
    return 0


def cmd_reconfig(args: argparse.Namespace) -> int:
    from .flow import to_deployment
    from .hw.device import Device
    from .hw.resources import ComponentKind, component_cost
    from .hw.synthesis import PLATFORM_BASE
    from .reconfig import ReconfigurationScheduler, WorkloadMix

    results = run_all(simulate=False)
    deployments = [to_deployment(r) for r in results.values()]
    device = Device("cli-device", args.device_luts, args.device_regs, 10**6)
    sched = ReconfigurationScheduler(
        deployments,
        PLATFORM_BASE + component_cost(ComponentKind.BUS),
        device=device,
    )
    mix = WorkloadMix.round_robin([d.name for d in deployments], args.rounds)
    print(f"device: {device.luts} LUTs / {device.regs} regs; "
          f"mix: {len(mix.sequence)} invocations, {len(mix.switches())} switches")
    for strategy, plan in sched.evaluate(mix).items():
        status = "ok " if plan.feasible else "N/A"
        print(
            f"  {strategy.value:<16} [{status}] {plan.resources.luts:>6} LUTs  "
            f"total {plan.total_seconds * 1e3:8.2f} ms  "
            f"(reconfig {plan.reconfig_seconds * 1e3:.2f} ms x{plan.reconfig_count})"
        )
    best = sched.best(mix)
    print(f"best: {best.strategy.value}")
    return 0


def cmd_portfolio(_args: argparse.Namespace) -> int:
    from .explore import portfolio_summary, render_portfolio

    params = SystemParams()
    theta = params.theta_s_per_byte()
    graphs = {
        name: fit_application(get_application(name), theta).graph
        for name in APP_NAMES
    }
    print(render_portfolio(portfolio_summary(graphs, theta)))
    return 0


_COMMANDS = {
    "profile": cmd_profile,
    "design": cmd_design,
    "explain": cmd_explain,
    "lint": cmd_lint,
    "static": cmd_static,
    "simulate": cmd_simulate,
    "report": cmd_report,
    "sweep": cmd_sweep,
    "fuzz": cmd_fuzz,
    "serve": cmd_serve,
    "loadtest": cmd_loadtest,
    "top": cmd_top,
    "postmortem": cmd_postmortem,
    "apps": cmd_apps,
    "pareto": cmd_pareto,
    "reconfig": cmd_reconfig,
    "portfolio": cmd_portfolio,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
