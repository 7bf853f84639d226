"""The traced run's layer ledger.

Spans are recorded from the benchmark's own files, around the public
calls into each layer: name, start, end, parent and the CPU the
benchmark process spent inside.  They stay in memory and are written out
when the run ends.  A layer's self time is its span minus its children.

:func:`reexecute` replays a workload's distinct cells phase by phase in
this process -- boot, warmup, measure, collect, encode, decode, wire
encode and parse, cache key, store put and get -- and then replays each
measurement window with the tool off, which splits the measured window
into the measurement driver's share and the workload's.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List, Sequence

from repro.core.campaign import CampaignCache, cache_key
from repro.core.experiment import ExperimentConfig, build_loaded_os
from repro.core.export import sample_set_from_json, sample_set_to_json
from repro.drivers.latency import WdmLatencyTool
from repro.service.protocol import encode_message, ok_response

from cells import digest

#: cache_key calls per cell; one call is a few tens of microseconds.
_CACHE_KEY_REPEATS = 20


class Tracer:
    """In-memory spans: ``[name, start_ns, end_ns, parent, cpu_ns]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter_ns(), None, parent, time.process_time_ns()]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = time.perf_counter_ns()
            record[4] = time.process_time_ns() - record[4]

    def durations_ms(self, name: str) -> List[float]:
        return [(end - start) / 1e6 for n, start, end, _, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        """Summed wall milliseconds of every span called ``name``."""
        return sum(end - start for n, start, end, _, _ in self.spans if n == name) / 1e6

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total ms and self ms (total minus children)."""
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ms[parent] += (end - start) / 1e6
        table: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = table.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start) / 1e6 - child_ms[index]
        return table


class NullTracer:
    """Tracing off: every span is a no-op."""

    def span(self, name: str):
        return nullcontext()


def reexecute(configs: Sequence[ExperimentConfig], tracer: Tracer,
              store_dir: Path) -> dict:
    """Run each distinct cell phase by phase.

    Returns summed counts, plus each cell's digest and its CPU
    milliseconds per span name, keyed by cache key.
    """
    store = CampaignCache(store_dir)
    counts = {"cells": 0, "sim_s": 0.0, "samples": 0, "bytes": 0, "events": 0,
              "tape_frames": 0, "interpreted_frames": 0, "ff_ticks": 0,
              "pit_ticks": 0}
    digests: Dict[str, str] = {}
    cpu_ms: Dict[str, Dict[str, float]] = {}
    for key, config in {cache_key(c): c for c in configs}.items():
        first_span = len(tracer.spans)
        with tracer.span("cell"):
            with tracer.span("boot"):
                os, _ = build_loaded_os(config.os_name, config.workload, config.seed,
                                        extra_profile=config.extra_profile)
            machine = os.machine
            engine = machine.engine
            with tracer.span("warmup"):
                if config.warmup_s > 0:
                    machine.run_for_ms(config.warmup_s * 1000.0)
            events_before = engine.events_processed
            with tracer.span("measure"):
                tool = WdmLatencyTool(os, config.tool)
                tool.start()
                machine.run_for_ms(config.duration_s * 1000.0)
            counts["events"] += engine.events_processed - events_before
            with tracer.span("collect"):
                sample_set = tool.collect(config.workload)
            with tracer.span("encode"):
                text = sample_set_to_json(sample_set)
            with tracer.span("decode"):
                sample_set_from_json(text)
            with tracer.span("protocol.encode"):
                line = encode_message(ok_response("r1", status="done", key="k" * 64,
                                                  cached=True, sample_set=text))
            with tracer.span("protocol.parse"):
                json.loads(line)
            with tracer.span("cache_key"):
                for _ in range(_CACHE_KEY_REPEATS):
                    cache_key(config)
            with tracer.span("store.put"):
                store.put_serialized(config, text)
            with tracer.span("store.get"):
                store.get_serialized(config)
        with tracer.span("workload.boot"):
            quiet_os, _ = build_loaded_os(config.os_name, config.workload, config.seed,
                                          extra_profile=config.extra_profile)
            if config.warmup_s > 0:
                quiet_os.machine.run_for_ms(config.warmup_s * 1000.0)
        with tracer.span("workload.window"):
            quiet_os.machine.run_for_ms(config.duration_s * 1000.0)
        digests[key] = digest(sample_set)
        cpu_ms[key] = {}
        for name, _, _, _, cpu_ns in tracer.spans[first_span:]:
            cpu_ms[key][name] = cpu_ms[key].get(name, 0.0) + cpu_ns / 1e6
        counts["cells"] += 1
        counts["sim_s"] += config.duration_s
        counts["samples"] += len(sample_set)
        counts["bytes"] += len(text)
        counts["tape_frames"] += engine.tape_frames
        counts["interpreted_frames"] += engine.interpreted_frames
        counts["ff_ticks"] += engine.ticks_fast_forwarded
        counts["pit_ticks"] += machine.pit.ticks
    counts["digests"] = digests
    counts["cpu_ms"] = cpu_ms
    return counts


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _stage_p50(stats: dict, stage: str) -> float:
    return (stats.get("stages", {}).get(stage) or {}).get("p50_ms", 0.0)


def layer_metrics(tracer: Tracer, counts: dict, load_ms: float,
                  window: dict, worker_stats: dict, router_stats: dict) -> Dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``window`` carries what the timed window measured: served and local
    CPU per cell, the pool's busy share and the router's store hit share.
    """
    cells, sim_s, samples = counts["cells"], counts["sim_s"], counts["samples"]
    measure = tracer.total("measure")
    quiet = tracer.total("workload.window")
    megabytes = counts["bytes"] / 1e6
    frames = counts["tape_frames"] + counts["interpreted_frames"]
    roundtrips = tracer.durations_ms("client.roundtrip")
    decodes = tracer.durations_ms("client.decode")
    return {
        "scenarios.load_ms": (load_ms, "ms"),
        "boot.ms_per_cell": (tracer.total("boot") / cells, "ms/cell"),
        "warmup.ms_per_cell": (tracer.total("warmup") / cells, "ms/cell"),
        "measure.ms_per_sim_s": (measure / sim_s, "ms/sim_s"),
        "workload.ms_per_sim_s": (quiet / sim_s, "ms/sim_s"),
        "driver.ms_per_sim_s": ((measure - quiet) / sim_s, "ms/sim_s"),
        "sim.events_per_sim_s": (counts["events"] / sim_s, "events/sim_s"),
        "sim.host_us_per_event": (measure * 1e3 / counts["events"], "us"),
        "sim.tape_frame_share": (_share(counts["tape_frames"], frames), "ratio"),
        "sim.ff_tick_share": (_share(counts["ff_ticks"], counts["pit_ticks"]), "ratio"),
        "samples.per_sim_s": (samples / sim_s, "samples/sim_s"),
        "export.encode_us_per_sample": (tracer.total("encode") * 1e3 / samples, "us/sample"),
        "export.decode_us_per_sample": (tracer.total("decode") * 1e3 / samples, "us/sample"),
        "export.bytes_per_sample": (counts["bytes"] / samples, "B/sample"),
        "protocol.encode_us_per_sample": (
            tracer.total("protocol.encode") * 1e3 / samples, "us/sample"),
        "protocol.parse_us_per_sample": (
            tracer.total("protocol.parse") * 1e3 / samples, "us/sample"),
        "campaign.cache_key_us": (
            tracer.total("cache_key") * 1e3 / (cells * _CACHE_KEY_REPEATS), "us"),
        "store.put_ms_per_mb": (tracer.total("store.put") / megabytes, "ms/MB"),
        "store.get_ms_per_mb": (tracer.total("store.get") / megabytes, "ms/MB"),
        "service.queue_wait_ms_p50": (_stage_p50(worker_stats, "queue_wait"), "ms"),
        "service.pool_busy_share": (window["pool_busy_share"], "ratio"),
        "router.forward_ms_p50": (_stage_p50(router_stats, "forward"), "ms"),
        "router.serve_ms_p50": (_stage_p50(router_stats, "serve"), "ms"),
        "router.store_hit_share": (window["store_hit_share"], "ratio"),
        "client.roundtrip_ms_p50": (statistics.median(roundtrips), "ms"),
        "client.decode_ms_p50": (statistics.median(decodes), "ms"),
        "serving.overhead_ms_per_cell": (
            window["served_cpu_ms_per_cell"] - window["local_cpu_ms_per_cell"], "ms/cell"),
    }
