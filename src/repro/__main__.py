"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the paper's workflow:

* ``measure``  -- run one latency campaign and print the Table 3-style
  worst-case report plus a Figure 4-style histogram.
* ``compare``  -- run both OSes under one workload and print the section 4
  comparison ratios.
* ``mttf``     -- derive the Figure 6/7 soft-modem MTTF curves from a
  campaign.
* ``causes``   -- run the latency-cause tool and print Table 4-style
  episode traces.
* ``throughput`` -- the section 4.2 Winstone-style control experiment.
* ``serve``    -- run the experiment service (asyncio job queue, batching,
  backpressure) on a TCP port; ``--register HOST:PORT`` joins a fleet
  router's hash ring and pushes heartbeats.
* ``route``    -- run the fleet router/coordinator: shards submits across
  registered workers by cache key (consistent hashing), fails keys over
  when a worker dies, sheds load with retry-after hints.
* ``submit``   -- send one ``measure``-style cell to a running server --
  or through a router with ``--router HOST:PORT`` -- and print the same
  report.  ``--scenario SPEC`` submits every cell of a declarative
  scenario spec instead of one flag-built cell.
* ``run-scenario`` -- load a declarative scenario spec (YAML subset or
  JSON, see ``repro.scenarios``), expand its matrix into cells and run
  them locally (``--jobs``/``--cache-dir``) or through a fleet router
  (``--router HOST:PORT``).

A malformed scenario spec exits 2 with one line *per defect*, each
carrying the spec file's line and path (``repro.scenarios`` reports
every error, not just the first).

Invalid flag values (negative durations, zero worker counts, ...) are
rejected up front with a one-line error and exit status 2; they never
reach the simulator layers as a traceback.
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro.analysis.causes import summarize_episodes
from repro.analysis.mttf import mttf_curve
from repro.core.campaign import run_campaign
from repro.core.experiment import ExperimentConfig, build_loaded_os, run_latency_experiment
from repro.core.report import compare_sample_sets, format_figure4_panel
from repro.core.samples import LatencyKind
from repro.core.worst_case import WorstCaseTable
from repro.drivers.cause_tool import LatencyCauseTool
from repro.drivers.latency import LatencyToolConfig, WdmLatencyTool
from repro.kernel.boot import OS_NAMES
from repro.workloads.base import workload_names
from repro.workloads.throughput import ThroughputConfig, compare_throughput


def _add_common(parser: argparse.ArgumentParser, default_duration: float = 30.0) -> None:
    parser.add_argument("--workload", default="games", choices=workload_names())
    parser.add_argument("--duration", type=float, default=default_duration,
                        help="simulated seconds of measurement")
    parser.add_argument("--seed", type=int, default=1999)


def _print_measure_report(ss) -> None:
    print(f"{len(ss)} samples at {ss.sample_rate_hz():.0f} Hz\n")
    print(WorstCaseTable(ss).format())
    print()
    print(format_figure4_panel(ss, LatencyKind.THREAD, priority=28))


def cmd_measure(args) -> int:
    result = run_latency_experiment(
        ExperimentConfig(
            os_name=args.os, workload=args.workload,
            duration_s=args.duration, seed=args.seed,
        )
    )
    _print_measure_report(result.sample_set)
    return 0


def cmd_compare(args) -> int:
    configs = [
        ExperimentConfig(
            os_name=os_name, workload=args.workload,
            duration_s=args.duration, seed=args.seed,
        )
        for os_name in ("nt4", "win98")
    ]
    print(f"measuring nt4 + win98 (jobs={args.jobs})...", file=sys.stderr)
    report = run_campaign(configs, jobs=args.jobs, cache_dir=args.cache_dir)
    if args.cache_dir:
        print(
            f"cache: {report.cache_hits} hit(s), {report.cache_misses} miss(es)",
            file=sys.stderr,
        )
    nt4, win98 = report.sample_sets
    print(compare_sample_sets(nt4, win98).format())
    return 0


def cmd_mttf(args) -> int:
    result = run_latency_experiment(
        ExperimentConfig(
            os_name=args.os, workload=args.workload,
            duration_s=args.duration, seed=args.seed,
        )
    )
    ss = result.sample_set
    print("DPC-based datapump (Figure 6):")
    for point in mttf_curve(ss.latencies_ms(LatencyKind.DPC_INTERRUPT), compute_ms=2.0):
        print("  " + point.format())
    thread = ss.latencies_ms(LatencyKind.THREAD_INTERRUPT, priority=28)
    print("thread-based datapump (Figure 7):")
    for point in mttf_curve(thread, compute_ms=2.0):
        print("  " + point.format())
    return 0


def cmd_causes(args) -> int:
    os, _ = build_loaded_os(args.os, args.workload, seed=args.seed)
    tool = WdmLatencyTool(os, LatencyToolConfig())
    cause = LatencyCauseTool(tool, threshold_ms=args.threshold)
    tool.start()
    os.machine.run_for_ms(args.duration * 1000.0)
    print(cause.format_report(limit=4))
    print("\naggregate:")
    print(summarize_episodes(cause.episodes).format())
    return 0


def cmd_throughput(args) -> int:
    comparison = compare_throughput(ThroughputConfig(units=args.units, seed=args.seed))
    print(comparison.format())
    return 0


def _run_until_drained(server, banner: str) -> None:
    """Boot an async server object, print its banner, drain on SIGTERM."""
    import asyncio
    import signal

    async def _main() -> None:
        await server.start()
        # Parsed by the CI smoke jobs to discover the ephemeral port.
        print(f"repro {banner} listening on "
              f"{server.config.host}:{server.port}", flush=True)
        loop = asyncio.get_running_loop()

        def _drain() -> None:
            asyncio.ensure_future(server.shutdown())

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, _drain)
            except NotImplementedError:  # non-Unix event loops
                pass
        await server.wait_closed()
        print(f"repro {banner} drained and closed", flush=True)

    asyncio.run(_main())


def cmd_serve(args) -> int:
    from repro.service import ExperimentService, ServiceConfig

    service_config = ServiceConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        max_workers=args.jobs,
        cache_dir=args.cache_dir,
        register_with=args.register,
        worker_name=args.name,
        advertise_host=args.advertise_host,
    )
    _run_until_drained(ExperimentService(service_config), "service")
    return 0


def cmd_route(args) -> int:
    from repro.fleet import RouterConfig, FleetRouter

    workers = tuple(
        endpoint.strip()
        for endpoint in (args.workers or "").split(",")
        if endpoint.strip()
    )
    router_config = RouterConfig(
        host=args.host,
        port=args.port,
        workers=workers,
        cache_dir=args.cache_dir,
        heartbeat_interval_s=args.heartbeat_interval,
        heartbeat_timeout_s=args.heartbeat_timeout,
        forward_attempts=args.forward_attempts,
        client_rate=args.client_rate,
        client_burst=args.client_burst,
        interactive_inflight=args.interactive_inflight,
        batch_inflight=args.batch_inflight,
    )
    _run_until_drained(FleetRouter(router_config), "router")
    return 0


def _load_scenario_or_none(path: str):
    """Load a spec, printing the full defect report (or I/O error) on failure.

    Returns ``None`` after printing; callers translate that to exit 2.
    A malformed spec prints one line per problem, each with the file's
    line number and spec path -- the whole report, not just the first hit.
    """
    from repro.scenarios import ScenarioError, load_scenario

    try:
        return load_scenario(path)
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return None
    except OSError as exc:
        print(f"repro: error: cannot read scenario spec: {exc}", file=sys.stderr)
        return None


def _scenario_cell_line(cell, ss) -> str:
    """One summary line per cell: sample count, rate, worst latency, key."""
    worst = 0.0
    for kind in LatencyKind:
        values = ss.latencies_ms(kind)
        if values:
            worst = max(worst, max(values))
    return (f"{cell.label}: {len(ss)} samples at {ss.sample_rate_hz():.0f} Hz, "
            f"worst {worst:.3f} ms  [{cell.cache_key[:12]}]")


def cmd_run_scenario(args) -> int:
    scenario = _load_scenario_or_none(args.spec)
    if scenario is None:
        return 2
    if args.list:
        print(f"{scenario.name}: {len(scenario)} cell(s)")
        for cell in scenario.cells:
            print(f"  {cell.cache_key[:12]}  {cell.label}")
        return 0
    if args.router:
        from repro.service import ServiceClient, ServiceError

        router_host, _, router_port = args.router.rpartition(":")
        host, port = router_host or "127.0.0.1", int(router_port)
        try:
            client = ServiceClient(host=host, port=port, timeout=args.timeout)
        except OSError as exc:
            print(f"repro: error: cannot reach router at "
                  f"{host}:{port} ({exc})", file=sys.stderr)
            return 1
        print(f"{scenario.name}: {len(scenario)} cell(s) via {host}:{port}...",
              file=sys.stderr)
        with client:
            try:
                pairs = list(client.submit_scenario(scenario))
            except ServiceError as exc:
                hint = (f" (retry after {exc.retry_after_s}s)"
                        if exc.retry_after_s else "")
                print(f"repro: error: {exc}{hint}", file=sys.stderr)
                return 1
    else:
        print(f"{scenario.name}: {len(scenario)} cell(s) (jobs={args.jobs})...",
              file=sys.stderr)
        report = run_campaign(list(scenario.configs), jobs=args.jobs,
                              cache_dir=args.cache_dir)
        if args.cache_dir:
            print(f"cache: {report.cache_hits} hit(s), "
                  f"{report.cache_misses} miss(es)", file=sys.stderr)
        pairs = list(zip(scenario.cells, report.sample_sets))
    for cell, sample_set in pairs:
        print(_scenario_cell_line(cell, sample_set))
    if len(pairs) == 1:
        # A one-cell scenario gets the full measure-style report too.
        print()
        _print_measure_report(pairs[0][1])
    return 0


def cmd_submit(args) -> int:
    from repro.service import ServiceClient, ServiceError

    scenario = None
    if args.scenario:
        scenario = _load_scenario_or_none(args.scenario)
        if scenario is None:
            return 2
    config = ExperimentConfig(
        os_name=args.os, workload=args.workload,
        duration_s=args.duration, seed=args.seed,
    )
    host, port = args.host, args.port
    if args.router:
        # --router HOST:PORT targets a fleet router; same wire protocol.
        router_host, _, router_port = args.router.rpartition(":")
        host, port = router_host or "127.0.0.1", int(router_port)
    try:
        client = ServiceClient(host=host, port=port, timeout=args.timeout)
    except OSError as exc:
        print(f"repro: error: cannot reach service at "
              f"{host}:{port} ({exc})", file=sys.stderr)
        return 1
    with client:
        if scenario is not None:
            try:
                for cell, result in client.submit_scenario(
                    scenario, as_text=args.json, deadline_s=args.deadline,
                ):
                    if args.json:
                        print(result)
                    else:
                        print(_scenario_cell_line(cell, result))
            except ServiceError as exc:
                hint = (f" (retry after {exc.retry_after_s}s)"
                        if exc.retry_after_s else "")
                print(f"repro: error: {exc}{hint}", file=sys.stderr)
                return 1
            return 0
        if args.no_wait:
            print(client.submit_nowait(config))
            return 0
        try:
            if args.json:
                print(client.submit(config, deadline_s=args.deadline,
                                    as_text=True, lane=args.lane))
                return 0
            sample_set = client.submit(config, deadline_s=args.deadline,
                                       lane=args.lane)
        except ServiceError as exc:
            hint = (f" (retry after {exc.retry_after_s}s)"
                    if exc.retry_after_s else "")
            print(f"repro: error: {exc}{hint}", file=sys.stderr)
            return 1
    _print_measure_report(sample_set)
    return 0


#: Flag sanity bounds checked before any simulator layer runs:
#: (attribute, predicate, one-line requirement).
_FLAG_CHECKS = (
    ("duration", lambda v: v > 0, "--duration must be positive simulated seconds"),
    ("threshold", lambda v: v > 0, "--threshold must be a positive latency in ms"),
    ("units", lambda v: v > 0, "--units must be a positive work-unit count"),
    ("jobs", lambda v: v >= 1, "--jobs must be at least 1"),
    ("queue_limit", lambda v: v >= 1, "--queue-limit must be at least 1"),
    ("port", lambda v: v is None or 0 <= v <= 65535, "--port must be in 0..65535"),
    ("timeout", lambda v: v is None or v > 0, "--timeout must be positive seconds"),
    ("deadline", lambda v: v is None or v > 0, "--deadline must be positive seconds"),
    ("heartbeat_interval", lambda v: v > 0,
     "--heartbeat-interval must be positive seconds"),
    ("heartbeat_timeout", lambda v: v > 0,
     "--heartbeat-timeout must be positive seconds"),
    ("forward_attempts", lambda v: v >= 1, "--forward-attempts must be at least 1"),
    ("client_rate", lambda v: v > 0, "--client-rate must be positive tokens/s"),
    ("client_burst", lambda v: v > 0, "--client-burst must be positive tokens"),
    ("interactive_inflight", lambda v: v >= 1,
     "--interactive-inflight must be at least 1"),
    ("batch_inflight", lambda v: v >= 1, "--batch-inflight must be at least 1"),
    ("router", lambda v: v is None or ":" in v,
     "--router must look like HOST:PORT"),
)


def _validate_flags(args) -> "str | None":
    for name, predicate, message in _FLAG_CHECKS:
        if hasattr(args, name) and not predicate(getattr(args, name)):
            return f"{message} (got {getattr(args, name)!r})"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="one latency campaign")
    p.add_argument("--os", default="win98", choices=OS_NAMES)
    _add_common(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("compare", help="NT 4.0 vs Windows 98")
    _add_common(p)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for independent cells")
    p.add_argument("--cache-dir", default=None,
                   help="content-addressed result cache directory")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("mttf", help="soft-modem MTTF curves")
    p.add_argument("--os", default="win98", choices=OS_NAMES)
    _add_common(p)
    p.set_defaults(func=cmd_mttf)

    p = sub.add_parser("causes", help="latency-cause episodes")
    p.add_argument("--os", default="win98", choices=OS_NAMES)
    p.add_argument("--threshold", type=float, default=3.0)
    _add_common(p)
    p.set_defaults(func=cmd_causes)

    p = sub.add_parser("throughput", help="Winstone-style control experiment")
    p.add_argument("--units", type=int, default=200)
    p.add_argument("--seed", type=int, default=1999)
    p.set_defaults(func=cmd_throughput)

    p = sub.add_parser("serve", help="run the experiment-serving subsystem")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 picks an ephemeral port)")
    p.add_argument("--queue-limit", type=int, default=16,
                   help="bounded admission queue; beyond it submits get "
                        "an explicit 'overloaded' rejection")
    p.add_argument("--jobs", type=int, default=2,
                   help="simulation worker processes")
    p.add_argument("--cache-dir", default=None,
                   help="content-addressed result store (campaign-cache "
                        "format, replayable offline); point every fleet "
                        "worker at one shared directory")
    p.add_argument("--register", default=None, metavar="HOST:PORT",
                   help="self-register with a fleet router and push "
                        "heartbeats until drained")
    p.add_argument("--name", default=None,
                   help="stable worker name on the router's hash ring "
                        "(default: own host:port)")
    p.add_argument("--advertise-host", default=None,
                   help="host the router should dial back (default: the "
                        "bind host; set when binding 0.0.0.0)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("route", help="run the fleet router/coordinator")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 picks an ephemeral port)")
    p.add_argument("--workers", default=None, metavar="HOST:PORT[,HOST:PORT...]",
                   help="static worker seeds; workers may also register "
                        "dynamically via serve --register")
    p.add_argument("--cache-dir", default=None,
                   help="the shared result store: any cell any worker "
                        "computed is served without forwarding")
    p.add_argument("--heartbeat-interval", type=float, default=1.0,
                   help="worker health probe cadence in seconds")
    p.add_argument("--heartbeat-timeout", type=float, default=5.0,
                   help="silence past this marks a worker down")
    p.add_argument("--forward-attempts", type=int, default=4,
                   help="tries per submit across failover successors")
    p.add_argument("--client-rate", type=float, default=200.0,
                   help="per-client token-bucket refill (tokens/second)")
    p.add_argument("--client-burst", type=float, default=400.0,
                   help="per-client token-bucket burst capacity")
    p.add_argument("--interactive-inflight", type=int, default=64,
                   help="in-flight bound for the interactive lane")
    p.add_argument("--batch-inflight", type=int, default=16,
                   help="in-flight bound for the batch lane (sheds first)")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("run-scenario", help="run a declarative scenario spec")
    p.add_argument("spec", help="scenario spec file (YAML subset, or JSON "
                               "with a .json suffix)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for independent cells")
    p.add_argument("--cache-dir", default=None,
                   help="content-addressed result cache directory")
    p.add_argument("--router", default=None, metavar="HOST:PORT",
                   help="run the cells through a fleet router instead of "
                        "locally (identical cells coalesce fleet-wide)")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="socket timeout in seconds (with --router)")
    p.add_argument("--list", action="store_true",
                   help="print the expanded cells and cache keys, run nothing")
    p.set_defaults(func=cmd_run_scenario)

    p = sub.add_parser("submit", help="send one measure-style cell to a server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None)
    p.add_argument("--router", default=None, metavar="HOST:PORT",
                   help="submit through a fleet router instead of --port")
    p.add_argument("--scenario", default=None, metavar="SPEC",
                   help="submit every cell of a scenario spec instead of "
                        "one flag-built cell")
    p.add_argument("--lane", default=None, choices=("interactive", "batch"),
                   help="router admission lane (batch sheds first under load)")
    p.add_argument("--os", default="win98", choices=OS_NAMES)
    _add_common(p)
    p.add_argument("--deadline", type=float, default=None,
                   help="per-request deadline in wall seconds")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="socket timeout in seconds")
    p.add_argument("--no-wait", action="store_true",
                   help="queue the cell and print its job id")
    p.add_argument("--json", action="store_true",
                   help="print the raw serialized sample set")
    p.set_defaults(func=cmd_submit)

    args = parser.parse_args(argv)
    if args.command == "submit" and args.port is None and not args.router:
        print("repro: error: submit needs --port or --router HOST:PORT",
              file=sys.stderr)
        return 2
    if args.command == "submit" and args.scenario and args.no_wait:
        print("repro: error: --scenario submits every cell and waits; "
              "it cannot combine with --no-wait", file=sys.stderr)
        return 2
    problem = _validate_flags(args)
    if problem is not None:
        print(f"repro: error: {problem}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, NotADirectoryError) as exc:
        # A flag combination that slipped past the up-front checks must
        # still surface as a one-line error, never a traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed early (e.g. `| head`): not an error in us,
        # but the interpreter would otherwise print a traceback while
        # flushing stdout at exit.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
