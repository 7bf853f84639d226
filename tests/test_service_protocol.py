"""Unit tests for the service wire protocol, result store and metrics."""

import json

import pytest

from repro.core.campaign import cache_key
from repro.core.experiment import ExperimentConfig
from repro.core.export import sample_set_to_json
from repro.drivers.latency import LatencyToolConfig
from repro.kernel.dpc import DpcImportance
from repro.service.metrics import ServiceMetrics
from repro.service import protocol
from repro.service.protocol import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    MessageTooLarge,
    ProtocolError,
    config_from_wire,
    config_to_wire,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    request,
)
from repro.service.store import ResultStore
from repro.workloads.perturbations import VIRUS_SCANNER


# ----------------------------------------------------------------------
# Config (de)serialization
# ----------------------------------------------------------------------
class TestConfigWireFormat:
    def test_default_config_round_trips(self):
        config = ExperimentConfig()
        assert config_from_wire(config_to_wire(config)) == config

    def test_round_trip_preserves_cache_key(self):
        config = ExperimentConfig(os_name="nt4", workload="games", seed=7)
        rebuilt = config_from_wire(config_to_wire(config))
        assert cache_key(rebuilt) == cache_key(config)

    def test_nested_tool_and_enum_round_trip(self):
        config = ExperimentConfig(
            tool=LatencyToolConfig(
                pit_hz=500.0,
                thread_priorities=(26,),
                dpc_importance=DpcImportance.HIGH,
            )
        )
        rebuilt = config_from_wire(config_to_wire(config))
        assert rebuilt == config
        assert rebuilt.tool.dpc_importance is DpcImportance.HIGH
        assert isinstance(rebuilt.tool.thread_priorities, tuple)

    def test_extra_profile_round_trips(self):
        # The deepest nesting a real config carries: LoadProfile with
        # IntrusionSpecs, DurationDistributions and an IntrusionKind enum.
        config = ExperimentConfig(extra_profile=VIRUS_SCANNER)
        rebuilt = config_from_wire(config_to_wire(config))
        assert rebuilt == config
        assert cache_key(rebuilt) == cache_key(config)

    def test_wire_form_is_json_safe(self):
        text = json.dumps(config_to_wire(ExperimentConfig(extra_profile=VIRUS_SCANNER)))
        rebuilt = config_from_wire(json.loads(text))
        assert rebuilt == ExperimentConfig(extra_profile=VIRUS_SCANNER)

    def test_rejects_non_config_payload(self):
        with pytest.raises(ProtocolError):
            config_from_wire({"os_name": "win98"})
        with pytest.raises(ProtocolError):
            config_from_wire("win98")

    def test_rejects_unknown_dataclass(self):
        payload = config_to_wire(ExperimentConfig())
        payload["tool"]["__dataclass__"] = "EvilConfig"
        with pytest.raises(ProtocolError):
            config_from_wire(payload)

    def test_rejects_unknown_field(self):
        payload = config_to_wire(ExperimentConfig())
        payload["frobnication"] = 12
        with pytest.raises(ProtocolError):
            config_from_wire(payload)


# ----------------------------------------------------------------------
# Message framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_encode_decode_round_trip(self):
        line = encode_message({"verb": "stats", "id": "r1"})
        assert line.endswith(b"\n")
        message = decode_message(line)
        assert message["verb"] == "stats"
        assert message["v"] == PROTOCOL_VERSION

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_message(b"{truncated")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_message(b"[1,2,3]\n")

    def test_decode_rejects_wrong_version(self):
        with pytest.raises(ProtocolError, match="version"):
            decode_message(b'{"v": 99, "verb": "stats"}\n')

    def test_request_rejects_unknown_verb(self):
        with pytest.raises(ProtocolError):
            request("frobnicate")

    def test_encode_refuses_a_line_over_the_cap(self, monkeypatch):
        fits = encode_message(ok_response("r1", sample_set="x" * 100))
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", len(fits))
        assert encode_message(ok_response("r1", sample_set="x" * 100)) == fits
        with pytest.raises(MessageTooLarge, match=f"{len(fits) + 1}-byte .* "
                                                   f"{len(fits)}-byte line cap"):
            encode_message(ok_response("r1", sample_set="x" * 101))
        assert "too-large" in ERROR_CODES

    def test_response_shapes(self):
        ok = ok_response("r1", status="done")
        assert ok["ok"] is True and ok["id"] == "r1"
        err = error_response("r2", "overloaded", "queue full")
        assert err["ok"] is False
        assert err["error"]["code"] == "overloaded"


# ----------------------------------------------------------------------
# The result store
# ----------------------------------------------------------------------
def _cell_text(seed: int) -> str:
    # Stand-in serialized cell; the store never parses its contents.
    return json.dumps({"schema": "repro.sample_set/2", "seed": seed})


class TestResultStore:
    def test_memory_only_round_trip(self):
        store = ResultStore()
        config = ExperimentConfig(seed=1)
        assert store.get(config) is None
        store.put(config, _cell_text(1))
        assert store.get(config) == _cell_text(1)
        assert store.hot_hits == 1 and store.misses == 1

    def test_lru_evicts_oldest(self):
        store = ResultStore(hot_capacity=2)
        configs = [ExperimentConfig(seed=s) for s in (1, 2, 3)]
        for seed, config in enumerate(configs, start=1):
            store.put(config, _cell_text(seed))
        assert store.hot_size == 2
        assert store.get(configs[0]) is None  # evicted, no disk tier
        assert store.get(configs[2]) == _cell_text(3)

    def test_disk_tier_survives_lru_eviction(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path, hot_capacity=1)
        config_a = ExperimentConfig(seed=1)
        config_b = ExperimentConfig(seed=2)
        from repro.core.campaign import run_campaign

        # Real cells: the disk tier re-verifies fingerprints on load.
        cell_a = sample_set_to_json(
            run_campaign([config_a.with_overrides(duration_s=0.25)]).sample_sets[0]
        )
        config_a = config_a.with_overrides(duration_s=0.25)
        store.put(config_a, cell_a)
        store.put(config_b.with_overrides(duration_s=0.25), _cell_text(2))
        assert store.hot_size == 1  # cell_a evicted from the LRU...
        assert store.get(config_a) == cell_a  # ...but served from disk
        assert store.disk_hits == 1

    def test_get_uses_precomputed_key(self):
        store = ResultStore()
        config = ExperimentConfig(seed=9)
        key = cache_key(config)
        store.put(config, _cell_text(9), key=key)
        assert store.get(config, key=key) == _cell_text(9)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            ResultStore(hot_capacity=-1)

    def test_stats_shape(self):
        stats = ResultStore().stats()
        assert set(stats) == {
            "hot_size", "hot_capacity", "hot_hits", "disk_hits",
            "misses", "persistent",
        }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestServiceMetrics:
    def test_counters_start_at_zero_and_count(self):
        metrics = ServiceMetrics()
        assert metrics.counters["served"] == 0
        metrics.count("served")
        metrics.count("served", 2)
        assert metrics.counters["served"] == 3

    def test_unknown_counter_fails_loudly(self):
        with pytest.raises(KeyError):
            ServiceMetrics().count("typo")

    def test_percentiles(self):
        metrics = ServiceMetrics()
        for ms in range(1, 101):
            metrics.observe("serve", ms / 1000.0)
        stats = metrics.percentiles("serve")
        assert stats["count"] == 100
        assert stats["p50_ms"] == pytest.approx(51.0, abs=2.0)
        assert stats["p99_ms"] == pytest.approx(100.0, abs=2.0)
        assert stats["max_ms"] == pytest.approx(100.0)

    def test_empty_stage_is_none(self):
        assert ServiceMetrics().percentiles("execute") is None

    def test_snapshot_shape(self):
        metrics = ServiceMetrics()
        metrics.observe("queue_wait", 0.01)
        snapshot = metrics.snapshot(queue_depth=3)
        assert snapshot["gauges"]["queue_depth"] == 3
        assert "queue_wait" in snapshot["stages"]
        assert "execute" not in snapshot["stages"]
