"""Served-cell benchmark: scenario cells through the documented fleet.

Every run starts ``python -m repro route`` and one ``python -m repro
serve --jobs 2 --register ...`` on a fresh, empty store directory, waits
until the worker is live and its pool has run one throwaway cell, and
then drives the fleet over one connection, closed loop: the next request
goes out only after the previous reply was decoded to a ``SampleSet``.

Workloads (``--workload``):

* ``corpus-cold`` -- all 11 ``scenarios/`` specs admitted as one sweep
  through ``ServiceClient.stream_results`` (19 cells, 17 distinct, 224
  simulated seconds).  Each unit of a run is one sweep on fresh seeds.
* ``hot-replay`` -- set-up fills the store with the corpus cells; the run
  re-requests them in seeded shuffled passes, all served by the
  router's store.
* ``interactive-cold`` -- one distinct 1-simulated-second cell per
  request, cycling through every OS x workload pair; each misses.

The timed window runs whole units (a sweep, a pass, a cycle) until it
has lasted ``--seconds``; digests are checked between units, outside the
timed path.  ``--trace 0`` prints every end-to-end metric; ``--trace 1``
alternates untraced and traced units, then replays the workload's
distinct cells layer by layer (see ``ledger.py``) and prints every
per-layer metric.  The last stdout line is one JSON object::

    {"correct": true, "attempted": 19, "failed": 0, "metrics": {...}}

Every run appends its metrics, host steal and load average to
``.perfbench/runs.ndjson``; a traced run also writes its spans, ledger
and both tiers' ``stats`` to ``.perfbench/trace-<workload>-seed<N>.json``.

Run from the repository root::

    python3 perfbench/run.py --workload hot-replay --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test     # toy-size check of the harness
    python3 perfbench/run.py --write-pins    # re-pin default-seed digests
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))

try:
    from repro.core.campaign import cache_key
    from repro.core.experiment import ExperimentConfig
    from repro.core.export import sample_set_from_json
    from repro.service import ServiceClient, ServiceError
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}")

import cells
import fleet as fleet_mod
import ledger

WORKLOADS = ("corpus-cold", "hot-replay", "interactive-cold")

#: Fleet start-ups per run; set-up time is their median.
SETUP_REPEATS = 3

#: Router and worker counters that must not move in a healthy run.
_ROUTER_ALARMS = ("forward_retries", "failovers", "rejected_shutdown",
                  "shed_quota", "shed_lane", "unavailable")
_WORKER_ALARMS = ("rejected_overloaded", "rejected_shutdown", "failed",
                  "deadline_expired")


@dataclass
class Delivery:
    """One requested cell: what was expected and what came back."""

    config: ExperimentConfig
    latency_s: Optional[float] = None
    sample_set: object = None
    digest: Optional[str] = None
    error: Optional[str] = None


@dataclass
class Unit:
    traced: bool
    wall_s: float
    cpu_s: Dict[str, float]
    deliveries: List[Delivery]
    distinct: int


@dataclass
class Plan:
    """How one workload makes its units and sends them."""

    name: str
    make_unit: Callable[[int], List[ExperimentConfig]]
    send: Callable
    fill: bool = False
    #: Spans whose CPU is what one cell costs without the service.
    local_path: tuple = ("boot", "warmup", "measure", "collect")


def _sweep(client, configs, sent, tracer) -> List[Delivery]:
    """The ``run-scenario --router`` path: admit all, decode in order."""
    deliveries = [Delivery(config) for config in configs]
    start = time.perf_counter()
    with tracer.span("sweep"):
        stream = client.stream_results(sent, as_text=True)
        for index, delivery in enumerate(deliveries):
            try:
                with tracer.span("client.result"):
                    text = next(stream)
                with tracer.span("client.decode"):
                    delivery.sample_set = sample_set_from_json(text)
            except (ServiceError, ValueError) as exc:
                for rest in deliveries[index:]:
                    rest.error = str(exc)
                break
            delivery.latency_s = time.perf_counter() - start
    return deliveries


def _one_by_one(client, configs, sent, tracer) -> List[Delivery]:
    """``ServiceClient.submit`` per cell, each waited on and decoded."""
    deliveries = []
    for config, wire_config in zip(configs, sent):
        delivery = Delivery(config)
        start = time.perf_counter()
        try:
            with tracer.span("request"):
                with tracer.span("client.roundtrip"):
                    text = client.submit(wire_config, as_text=True)
                with tracer.span("client.decode"):
                    delivery.sample_set = sample_set_from_json(text)
            delivery.latency_s = time.perf_counter() - start
        except (ServiceError, ValueError) as exc:
            delivery.error = str(exc)
        deliveries.append(delivery)
    return deliveries


def _digest_all(deliveries: List[Delivery]) -> None:
    """Digest and drop each decoded set, outside the timed path."""
    for delivery in deliveries:
        if delivery.sample_set is not None:
            delivery.digest = cells.digest(delivery.sample_set)
            delivery.sample_set = None


def make_plan(name: str, seed: int, toy: bool) -> Plan:
    if name == "interactive-cold":
        return Plan(name, lambda unit: cells.interactive_unit(seed, unit, toy),
                    _one_by_one)
    corpus = cells.load_corpus(ROOT)
    if name == "corpus-cold":
        return Plan(name, lambda unit: cells.corpus_unit(corpus, seed, unit, toy),
                    _sweep)
    stored = cells.corpus_unit(corpus, seed, 0, toy)

    def shuffled_pass(unit: int) -> List[ExperimentConfig]:
        order = list(stored)
        random.Random(f"{seed}/{unit}").shuffle(order)
        return order

    return Plan(name, shuffled_pass, _one_by_one, fill=True,
                local_path=("store.get", "decode"))


def _counter_deltas(before: dict, after: dict) -> Dict[str, int]:
    return {name: after["counters"][name] - before["counters"].get(name, 0)
            for name in after["counters"]}


def _tail(latencies: List[float]):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``.  When no percentile above the
    median has ten samples beyond it (a single 19-cell sweep), the sample
    supports no tail and the maximum is reported as p100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - 11 if n - 11 >= n // 2 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def end_to_end(units: List[Unit], setup_s: float, rss_mb: float) -> Dict[str, tuple]:
    """Rates and CPU are medians over units; latencies pool every request."""
    rates = []
    for unit in units:
        done = [d for d in unit.deliveries if d.latency_s is not None]
        if done:
            sim_s = sum(d.config.duration_s for d in done)
            cpu_ms = sum(unit.cpu_s.values()) * 1e3
            rates.append((sim_s / unit.wall_s, cpu_ms / sim_s,
                          len(done) / unit.wall_s, cpu_ms / len(done)))
    if not rates:
        raise RuntimeError("no cell was delivered")
    sim_rate, cpu_per_sim_s, cell_rate, cpu_per_cell = (
        statistics.median(column) for column in zip(*rates))
    latencies = [d.latency_s for u in units for d in u.deliveries
                 if d.latency_s is not None]
    return {
        "setup_s": (setup_s, "s"),
        "sim_s_per_s": (sim_rate, "sim_s/s"),
        "cpu_ms_per_sim_s": (cpu_per_sim_s, "ms/sim_s"),
        "cells_per_s": (cell_rate, "cells/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (_tail(latencies)[0] * 1e3, "ms"),
        "cpu_ms_per_cell": (cpu_per_cell, "ms/cell"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False,
        swap_first: bool = False) -> dict:
    """One benchmark run; returns the result object printed last."""
    work = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems: List[str] = []
    fleet = None
    try:
        setups = []
        for repeat in range(SETUP_REPEATS):
            if fleet is not None and not fleet.stop():
                problems.append("a set-up fleet did not drain")
            start = time.perf_counter()
            plan = make_plan(workload, seed, toy)
            plan.make_unit(0)
            fleet = fleet_mod.Fleet(ROOT / "src", work / f"store{repeat}", work)
            fleet.start()
            setups.append(time.perf_counter() - start)
        fill_s = 0.0
        stored: Dict[str, str] = {}
        if plan.fill:
            start = time.perf_counter()
            stored = cells.reference_digests(plan.make_unit(0), store_dir=fleet.store_dir)
            fill_s = time.perf_counter() - start
        setup_s = statistics.median(setups) + fill_s

        tracer = ledger.Tracer()
        units, window = measure(fleet, plan, seconds, tracer if trace else None,
                                swap_first, problems)
        rss_mb = fleet.peak_rss_mb()
        replay = []
        if trace and not tracer.durations_ms("client.roundtrip"):
            with fleet.client() as client:
                replay = _one_by_one(client, plan.make_unit(0), plan.make_unit(0), tracer)
            _digest_all(replay)
    finally:
        if fleet is not None and not fleet.stop():
            problems.append("the fleet did not drain within the bound")

    deliveries = [d for u in units for d in u.deliveries] + replay
    expected = cells.expected_digests([d.config for d in deliveries], seed, known=stored)
    failed = sum(1 for d in deliveries
                 if d.error is not None or d.digest != expected.get(cache_key(d.config)))
    metrics = end_to_end(units, setup_s, rss_mb)
    report = {"workload": workload, "seed": seed, "units": len(units),
              "setups_s": setups, "fill_s": fill_s, "host": window["host"],
              "tail": _tail([d.latency_s for u in units for d in u.deliveries
                             if d.latency_s is not None])[1:],
              "problems": problems}
    if trace:
        metrics, report["ledger"] = traced_metrics(plan, units, window, tracer,
                                                   expected, work, problems)
    shutil.rmtree(work, ignore_errors=True)
    report["spans"] = tracer.spans
    return {"result": {"correct": failed == 0 and not problems,
                       "attempted": len(deliveries),
                       "failed": failed,
                       "metrics": {name: {"value": value, "unit": unit}
                                   for name, (value, unit) in metrics.items()}},
            "report": report}


def measure(fleet, plan: Plan, seconds: float, tracer: Optional[ledger.Tracer],
            swap_first: bool, problems: List[str]):
    """The timed window: whole units until ``seconds`` have passed.

    With a ``tracer``, every second unit records spans into it.
    """
    with fleet.client() as client, \
            ServiceClient(port=fleet.worker_port, timeout=60.0) as worker:
        router_before, worker_before = client.stats(), worker.stats()
        host_before = fleet_mod.host_noise()
        units: List[Unit] = []
        while (not units or sum(u.wall_s for u in units) < seconds
               or (tracer is not None and len(units) < 2)):
            traced = tracer is not None and len(units) % 2 == 1
            configs = plan.make_unit(len(units))
            sent = list(configs)
            if swap_first and not units:
                sent[0] = sent[0].with_overrides(seed=sent[0].seed + 1)
            cpu_before = fleet.cpu()
            start = time.perf_counter()
            deliveries = plan.send(client, configs, sent,
                                   tracer if traced else ledger.NullTracer())
            wall = time.perf_counter() - start
            cpu_after = fleet.cpu()
            _digest_all(deliveries)
            units.append(Unit(traced, wall, {role: cpu_after[role] - cpu_before[role]
                                             for role in cpu_after},
                              deliveries, len({cache_key(c) for c in sent})))
        host_after = fleet_mod.host_noise()
        router_after, worker_after = client.stats(), worker.stats()
    router_delta = _counter_deltas(router_before, router_after)
    worker_delta = _counter_deltas(worker_before, worker_after)
    delivered = sum(len(u.deliveries) for u in units)
    expected_sims = 0 if plan.fill else sum(u.distinct for u in units)
    if worker_delta["simulations"] != expected_sims:
        problems.append(f"worker ran {worker_delta['simulations']} simulations, "
                        f"expected {expected_sims}")
    if plan.fill and router_delta["cache_hits"] != delivered:
        problems.append(f"router store served {router_delta['cache_hits']} of "
                        f"{delivered} requests")
    for name in _ROUTER_ALARMS:
        if router_delta.get(name):
            problems.append(f"router counted {router_delta[name]} {name}")
    for name in _WORKER_ALARMS:
        if worker_delta.get(name):
            problems.append(f"worker counted {worker_delta[name]} {name}")
    jiffies = host_after["total_jiffies"] - host_before["total_jiffies"]
    window = {
        "stats": {"router": router_after, "worker": worker_after},
        "router_delta": router_delta,
        "host": {"steal_share": (host_after["steal_jiffies"]
                                 - host_before["steal_jiffies"]) / max(1, jiffies),
                 "load1_before": host_before["load1"],
                 "load1_after": host_after["load1"]},
    }
    return units, window


def _half(units: List[Unit], traced: bool) -> Dict[str, float]:
    part = [u for u in units if u.traced == traced]
    values = end_to_end(part, 0.0, 0.0)
    return {name: values[name][0] for name in
            ("latency_p50_ms", "cpu_ms_per_cell", "sim_s_per_s", "cpu_ms_per_sim_s")}


def traced_metrics(plan: Plan, units, window, tracer, expected, work, problems):
    """Per-layer metrics plus the serving and tracing ledgers."""
    loads = []
    for _ in range(5):
        start = time.perf_counter()
        cells.load_corpus(ROOT)
        loads.append((time.perf_counter() - start) * 1e3)
    served = [d for u in units if not u.traced for d in u.deliveries
              if d.latency_s is not None]
    counts = ledger.reexecute([d.config for d in served], tracer, work / "ledger-store")
    for key, value in counts.pop("digests").items():
        if expected.get(key) != value:
            problems.append(f"in-process replay of {key[:12]} digests differently")
    local_cpu = counts.pop("cpu_ms")
    router_delta = window["router_delta"]
    summary = {
        "served_cpu_ms_per_cell": sum(sum(u.cpu_s.values()) for u in units
                                      if not u.traced) * 1e3 / len(served),
        "local_cpu_ms_per_cell": statistics.fmean(
            sum(local_cpu[cache_key(d.config)].get(name, 0.0) for name in plan.local_path)
            for d in served),
        "pool_busy_share": sum(u.cpu_s["pool"] for u in units)
        / (fleet_mod.POOL_JOBS * sum(u.wall_s for u in units)),
        "store_hit_share": router_delta["cache_hits"] / max(1, router_delta["submitted"]),
    }
    stats = window["stats"]
    metrics = ledger.layer_metrics(tracer, counts, statistics.median(loads), summary,
                                   stats["worker"], stats["router"])
    off, on = _half(units, False), _half(units, True)
    report = {
        "tracing_overhead": {name: {"untraced": off[name], "traced": on[name],
                                    "delta": on[name] - off[name],
                                    "share_of_untraced": (on[name] - off[name]) / off[name]}
                             for name in off},
        "serving_overhead": {"served_cpu_ms_per_cell": summary["served_cpu_ms_per_cell"],
                             "local_cpu_ms_per_cell": summary["local_cpu_ms_per_cell"],
                             "local_path": list(plan.local_path)},
        "self_times": tracer.self_times(),
        "stats": stats,
    }
    return metrics, report


#: interactive-cold cycles pinned at the default seed; more run on a
#: reference instead.
PIN_CYCLES = 24


def write_pins() -> int:
    """Pin the default seed's corpus and interactive-cold digests."""
    configs = cells.corpus_unit(cells.load_corpus(ROOT), cells.DEFAULT_SEED, 0)
    for cycle in range(PIN_CYCLES):
        configs += cells.interactive_unit(cells.DEFAULT_SEED, cycle)
    digests = cells.reference_digests(configs)
    cells.PINS_PATH.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} cells in {cells.PINS_PATH}")
    return 0


def print_run(outcome: dict, out=sys.stdout) -> None:
    """The human-readable report, then the result as the last line."""
    report, result = outcome["report"], outcome["result"]
    host = report["host"]
    pct, n = report["tail"]
    print(f"{report['workload']} seed={report['seed']}: {report['units']} unit(s), "
          f"set-ups {', '.join(f'{s:.3f}' for s in report['setups_s'])} s "
          f"+ store fill {report['fill_s']:.3f} s", file=out)
    print(f"host: steal {host['steal_share']:.2%} of CPU time in the window, "
          f"load1 {host['load1_before']:.2f} -> {host['load1_after']:.2f}", file=out)
    print(f"latency tail: p{pct:.1f} of n={n}", file=out)
    for problem in report["problems"]:
        print(f"FAILED CHECK: {problem}", file=out)
    ledger_report = report.get("ledger")
    if ledger_report:
        serving = ledger_report["serving_overhead"]
        print(f"serving overhead: served {serving['served_cpu_ms_per_cell']:.3f} ms CPU "
              f"per cell (all processes, untraced units) minus local "
              f"{serving['local_cpu_ms_per_cell']:.3f} ms "
              f"({' + '.join(serving['local_path'])} in-process)", file=out)
        for name, row in ledger_report["tracing_overhead"].items():
            print(f"tracing overhead {name}: traced {row['traced']:.4f} - untraced "
                  f"{row['untraced']:.4f} = {row['delta']:+.4f} "
                  f"({row['share_of_untraced']:+.2%} of untraced)", file=out)
        print("span self time (ms): " + ", ".join(
            f"{name} {row['self_ms']:.1f}/{row['total_ms']:.1f} x{row['count']}"
            for name, row in ledger_report["self_times"].items()), file=out)
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}", file=out)
    print(f"attempted {result['attempted']}, failed {result['failed']}", file=out)
    print(json.dumps(result), file=out)


def save(outcome: dict) -> None:
    """Append the run to the run log; write a traced run's spans."""
    OUT_DIR.mkdir(exist_ok=True)
    report = dict(outcome["report"])
    spans = report.pop("spans")
    ledger_report = report.pop("ledger", None)
    with open(OUT_DIR / "runs.ndjson", "a") as log:
        log.write(json.dumps({**report, **outcome["result"]}) + "\n")
    if ledger_report is not None:
        path = OUT_DIR / f"trace-{report['workload']}-seed{report['seed']}.json"
        path.write_text(json.dumps({"ledger": ledger_report, "spans": spans}))


def self_test() -> int:
    """Toy-size runs: every metric printed with its unit; a swapped cell fails."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {trace: {m["name"]: m["unit"] for m in spec[key]}
              for trace, key in ((False, "end_to_end"), (True, "per_layer"))}
    failures = []
    for workload in WORKLOADS:
        for trace, seed, swap in ((False, cells.DEFAULT_SEED, False),
                                  (True, cells.DEFAULT_SEED, False), (False, 7, True)):
            printed = io.StringIO()
            print_run(run(workload, seed, 0.0, trace, toy=True, swap_first=swap), printed)
            result = json.loads(printed.getvalue().splitlines()[-1])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload} trace={int(trace)} seed={seed} swap={swap}"
            if units != wanted[trace]:
                failures.append(f"{label}: printed {units}, expected {wanted[trace]}")
            if swap and (result["correct"] or result["failed"] != 1):
                failures.append(f"{label}: swapped cell not counted as one failure")
            if not swap and (not result["correct"] or result["failed"]):
                failures.append(f"{label}: clean toy run failed:\n{printed.getvalue()}")
            print(f"self-test {label}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    for failure in failures:
        print(f"SELF-TEST FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=cells.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.write_pins:
        return write_pins()
    if args.workload is None:
        parser.error("--workload is required")
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    save(outcome)
    print_run(outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
