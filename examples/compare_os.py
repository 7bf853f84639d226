#!/usr/bin/env python
"""The paper's headline comparison: NT 4.0 vs Windows 98 under one load.

Runs the same binary-portable WDM latency driver on both OS personalities
under an identical application stress load, then prints the section 4
comparison: weekly worst cases per service level and the ratios behind the
paper's "order of magnitude" claims.  Finishes with the section 4.2
counterpoint -- a Winstone-style throughput comparison of the same two
kernels that shows a few-percent difference where the latency view shows
orders of magnitude.
"""

import argparse

from repro import (
    ExperimentConfig,
    ThroughputConfig,
    compare_sample_sets,
    compare_throughput,
    run_latency_experiment,
    workload_names,
)


def measure_locally(configs):
    """The classic path: run each cell in this process."""
    sample_sets = []
    for config in configs:
        print(f"measuring {config.os_name} under {config.workload!r}...")
        sample_sets.append(run_latency_experiment(config).sample_set)
    return sample_sets


def measure_via_service(configs, server: str):
    """Route the cells through the experiment service.

    ``server`` is either ``host:port`` of a running ``python -m repro
    serve`` or the string ``local`` to boot a private in-process server.
    The served results are byte-identical to the local path -- the
    serving layer's determinism guarantee -- so the rest of the script
    cannot tell the difference.
    """
    from repro.service import ServiceClient, ServiceThread
    from repro.service.protocol import parse_endpoint

    if server == "local":
        print("booting a local experiment service...")
        with ServiceThread(max_workers=2) as thread:
            with ServiceClient(port=thread.port) as client:
                print(f"serving both cells via 127.0.0.1:{thread.port}...")
                return client.run_campaign(configs)
    host, port = parse_endpoint(server)
    with ServiceClient(host=host, port=port) as client:
        print(f"serving both cells via {server}...")
        return client.run_campaign(configs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="games", choices=workload_names())
    parser.add_argument("--duration", type=float, default=45.0)
    parser.add_argument("--seed", type=int, default=1999)
    parser.add_argument("--skip-throughput", action="store_true")
    parser.add_argument(
        "--serve", nargs="?", const="local", default=None, metavar="HOST:PORT",
        help="route measurement through the experiment service: with no "
             "value, boot a private local server; with HOST:PORT, use a "
             "running 'python -m repro serve'",
    )
    args = parser.parse_args()

    configs = [
        ExperimentConfig(
            os_name=os_name,
            workload=args.workload,
            duration_s=args.duration,
            seed=args.seed,
        )
        for os_name in ("nt4", "win98")
    ]
    if args.serve is not None:
        results = measure_via_service(configs, args.serve)
    else:
        results = measure_locally(configs)
    sample_sets = dict(zip(("nt4", "win98"), results))

    print()
    comparison = compare_sample_sets(sample_sets["nt4"], sample_sets["win98"])
    print(comparison.format())

    print("\nPaper claims, checked against this run:")
    checks = [
        ("NT high-RT thread ~ NT DPC (gap < 2x)", comparison.nt_thread_dpc_gap < 2.0),
        ("Win98 DPC >> NT DPC", comparison.nt_dpc_advantage_over_98_dpc > 2.0),
        ("Win98 DPC >> NT high-RT thread",
         comparison.nt_high_thread_advantage_over_98_dpc > 4.0),
        ("Win98 threads >> Win98 DPC",
         comparison.win98_dpc_advantage_over_own_threads > 3.0),
        ("NT prio-24 >> prio-28 (work-item thread)",
         comparison.nt_default_thread_penalty > 4.0),
    ]
    for label, ok in checks:
        print(f"  [{'PASS' if ok else 'MISS'}] {label}")

    if not args.skip_throughput:
        print("\n...and the view a throughput benchmark gives of the same kernels:")
        throughput = compare_throughput(ThroughputConfig(units=200, seed=args.seed))
        print("  " + throughput.format())
        print("  (the paper saw 10% average / 20% maximum deltas -- ")
        print("   throughput metrics simply cannot see the real-time difference)")


if __name__ == "__main__":
    main()
