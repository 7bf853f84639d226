"""The campaign runner: determinism, caching, and parallel merge order.

The campaign layer's whole contract is that ``jobs`` and ``cache_dir``
are pure go-faster knobs: whatever combination is used, the SampleSets
that come back are byte-identical to a fresh serial run.  These tests
pin that contract down with serialized-bytes comparisons, not just
statistics.
"""

import dataclasses
import enum
import json
from pathlib import Path

import pytest

from repro.core import campaign
from repro.core.campaign import (
    CACHE_SCHEMA,
    CampaignCache,
    _jsonable,
    cache_key,
    config_fingerprint,
    json_literal,
    run_campaign,
    run_sample_matrix,
)
from repro.core.experiment import ExperimentConfig
from repro.core.export import sample_set_to_json
from repro.core.replication import replicate_experiment
from repro.core.worst_case import WorstCaseTable
from repro.drivers.latency import LatencyToolConfig
from repro.kernel.dpc import DpcImportance
from repro.scenarios import load_scenario
from repro.service.store import ResultStore
from repro.workloads.perturbations import VIRUS_SCANNER

#: Short cells keep the full module under a few seconds.
DURATION_S = 0.5


def _configs(n=4):
    return [
        ExperimentConfig(os_name=os_name, workload="office",
                         duration_s=DURATION_S, seed=seed)
        for os_name in ("nt4", "win98")
        for seed in range(1999, 1999 + n // 2)
    ]


def _bytes(report):
    return [sample_set_to_json(s) for s in report.sample_sets]


# ----------------------------------------------------------------------
# Fingerprinting and cache keys
# ----------------------------------------------------------------------
class TestCacheKey:
    def test_same_config_same_key(self):
        a = ExperimentConfig(os_name="win98", workload="games", seed=7)
        b = ExperimentConfig(os_name="win98", workload="games", seed=7)
        assert cache_key(a) == cache_key(b)

    def test_seed_changes_key(self):
        base = ExperimentConfig(seed=1999)
        assert cache_key(base) != cache_key(ExperimentConfig(seed=2000))

    def test_every_top_level_field_changes_key(self):
        base = ExperimentConfig()
        variants = {
            "os_name": "nt4",
            "workload": "games",
            "duration_s": 31.0,
            "seed": 4242,
            "warmup_s": 2.0,
            "tool": LatencyToolConfig(pit_hz=500.0),
            "extra_profile": VIRUS_SCANNER,
        }
        for field, value in variants.items():
            changed = base.with_overrides(**{field: value})
            assert cache_key(changed) != cache_key(base), field

    def test_nested_field_changes_key(self):
        base = ExperimentConfig()
        tweaked_tool = dataclasses.replace(base.tool, thread_priorities=(24,))
        changed = base.with_overrides(tool=tweaked_tool)
        assert cache_key(changed) != cache_key(base)

    def test_fingerprint_is_canonical_json(self):
        import json

        payload = json.loads(config_fingerprint(ExperimentConfig()))
        assert payload["config"]["__dataclass__"] == "ExperimentConfig"
        assert "calibration_version" in payload


# ----------------------------------------------------------------------
# Parallel == serial, byte for byte
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_parallel_byte_identical_to_serial(self):
        configs = _configs(4)
        serial = run_campaign(configs, jobs=1)
        parallel = run_campaign(configs, jobs=4)
        assert _bytes(serial) == _bytes(parallel)

    def test_parallel_worst_case_tables_identical(self):
        configs = _configs(2)
        serial = run_campaign(configs, jobs=1)
        parallel = run_campaign(configs, jobs=2)
        for a, b in zip(serial.sample_sets, parallel.sample_sets):
            assert WorstCaseTable(a).format() == WorstCaseTable(b).format()

    def test_results_in_input_order(self):
        configs = _configs(4)
        report = run_campaign(configs, jobs=4)
        for config, sample_set in zip(report.configs, report.sample_sets):
            assert sample_set.os_name == config.os_name
            assert sample_set.workload == config.workload

    def test_run_sample_matrix_keys(self):
        matrix = run_sample_matrix(
            os_names=("win98",), workloads=("office", "games"),
            duration_s=DURATION_S,
        )
        assert set(matrix) == {("win98", "office"), ("win98", "games")}


# ----------------------------------------------------------------------
# The on-disk cache
# ----------------------------------------------------------------------
class TestCache:
    def test_second_run_fully_cache_served(self, tmp_path):
        configs = _configs(4)
        first = run_campaign(configs, jobs=1, cache_dir=tmp_path)
        assert first.cache_misses == len(configs)
        assert first.cache_hits == 0

        second = run_campaign(configs, jobs=1, cache_dir=tmp_path)
        assert second.cache_hits == len(configs)
        assert second.cache_misses == 0
        assert _bytes(first) == _bytes(second)

    def test_seed_change_misses_cache(self, tmp_path):
        config = ExperimentConfig(duration_s=DURATION_S, seed=1999)
        run_campaign([config], cache_dir=tmp_path)
        report = run_campaign(
            [config.with_overrides(seed=2000)], cache_dir=tmp_path
        )
        assert report.cache_misses == 1
        assert report.cache_hits == 0

    def test_config_change_misses_cache(self, tmp_path):
        config = ExperimentConfig(duration_s=DURATION_S)
        run_campaign([config], cache_dir=tmp_path)
        report = run_campaign(
            [config.with_overrides(workload="games")], cache_dir=tmp_path
        )
        assert report.cache_misses == 1

    def test_partial_hit(self, tmp_path):
        configs = _configs(4)
        run_campaign(configs[:2], cache_dir=tmp_path)
        report = run_campaign(configs, cache_dir=tmp_path)
        assert report.cache_hits == 2
        assert report.cache_misses == 2

    def test_corrupt_cache_file_is_a_miss(self, tmp_path):
        config = ExperimentConfig(duration_s=DURATION_S)
        cache = CampaignCache(tmp_path)
        run_campaign([config], cache_dir=tmp_path)
        path = cache._path(cache_key(config))
        path.write_text("{not json")
        report = run_campaign([config], cache_dir=tmp_path)
        assert report.cache_misses == 1
        # ...and the rerun repaired the entry.
        assert run_campaign([config], cache_dir=tmp_path).cache_hits == 1

    def test_truncated_entry_is_quarantined_not_fatal(self, tmp_path):
        # A writer killed mid-write on a filesystem without atomic rename
        # leaves a truncated JSON file.  The campaign must treat it as a
        # miss, move it aside to <key>.corrupt, and recompute -- never
        # crash the whole campaign.
        config = ExperimentConfig(duration_s=DURATION_S)
        cache = CampaignCache(tmp_path)
        run_campaign([config], cache_dir=tmp_path)
        path = cache._path(cache_key(config))
        intact = path.read_text()
        path.write_text(intact[: len(intact) // 2])  # hand-truncated

        report = run_campaign([config], cache_dir=tmp_path)
        assert report.cache_misses == 1
        quarantined = path.with_suffix(".corrupt")
        assert quarantined.exists()
        assert quarantined.read_text() == intact[: len(intact) // 2]
        # The recomputed entry is intact and served on the next run.
        assert run_campaign([config], cache_dir=tmp_path).cache_hits == 1

    def test_structurally_wrong_entry_is_quarantined(self, tmp_path):
        # Valid JSON, right schema + fingerprint, but the sample_set
        # payload is missing: quarantine, don't KeyError the campaign.
        import json

        config = ExperimentConfig(duration_s=DURATION_S)
        cache = CampaignCache(tmp_path)
        run_campaign([config], cache_dir=tmp_path)
        path = cache._path(cache_key(config))
        payload = json.loads(path.read_text())
        del payload["sample_set"]
        path.write_text(json.dumps(payload))
        assert cache.get(config) is None
        assert cache.quarantined == 1
        assert path.with_suffix(".corrupt").exists()

    def test_truncated_inner_sample_set_is_quarantined(self, tmp_path):
        import json

        config = ExperimentConfig(duration_s=DURATION_S)
        cache = CampaignCache(tmp_path)
        run_campaign([config], cache_dir=tmp_path)
        path = cache._path(cache_key(config))
        payload = json.loads(path.read_text())
        payload["sample_set"] = payload["sample_set"][:40]  # torn inner JSON
        path.write_text(json.dumps(payload))
        assert cache.get(config) is None
        assert path.with_suffix(".corrupt").exists()

    def test_serialized_round_trip_is_byte_exact(self, tmp_path):
        config = ExperimentConfig(duration_s=DURATION_S)
        fresh = run_campaign([config]).sample_sets[0]
        cache = CampaignCache(tmp_path)
        cache.put(config, fresh)
        assert cache.get_serialized(config) == sample_set_to_json(fresh)
        cache.put_serialized(config, sample_set_to_json(fresh))
        assert sample_set_to_json(cache.get(config)) == sample_set_to_json(fresh)

    def test_wrong_schema_is_a_miss(self, tmp_path):
        import json

        config = ExperimentConfig(duration_s=DURATION_S)
        cache = CampaignCache(tmp_path)
        run_campaign([config], cache_dir=tmp_path)
        path = cache._path(cache_key(config))
        payload = json.loads(path.read_text())
        payload["schema"] = "something/else"
        path.write_text(json.dumps(payload))
        assert cache.get(config) is None

    def test_cache_round_trip_preserves_bytes(self, tmp_path):
        config = ExperimentConfig(duration_s=DURATION_S)
        fresh = run_campaign([config]).sample_sets[0]
        cache = CampaignCache(tmp_path)
        cache.put(config, fresh)
        loaded = cache.get(config)
        assert sample_set_to_json(loaded) == sample_set_to_json(fresh)
        assert CACHE_SCHEMA.startswith("repro.campaign_cache/")

    def test_len_counts_entries(self, tmp_path):
        cache = CampaignCache(tmp_path)
        assert len(cache) == 0
        run_campaign(_configs(2), cache_dir=tmp_path)
        assert len(cache) == 2

    def test_each_cache_call_reduces_the_config_once(self, tmp_path, monkeypatch):
        """The path and the stored fingerprint come from one reduction."""
        config = _configs(2)[0]
        reductions = []

        def counted(value):
            if type(value) is ExperimentConfig:
                reductions.append(value)
            return _jsonable(value)

        monkeypatch.setattr(campaign, "_jsonable", counted)
        cache = CampaignCache(tmp_path)
        cache.put_serialized(config, "text")
        assert len(reductions) == 1
        assert cache.get_serialized(config) == "text"  # a disk hit
        assert len(reductions) == 2
        store = ResultStore(tmp_path)
        key = cache_key(config)
        reductions.clear()
        assert store.get_literal(config, key=key) == json_literal("text")
        store.put(config, "text", key=key)
        assert len(reductions) == 2


def _jsonable_reference(value):
    """The reduction as first written, one ``dataclasses`` call per node."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        payload = {
            f.name: _jsonable_reference(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__name__, **payload}
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "value": value.value}
    if isinstance(value, (tuple, list)):
        return [_jsonable_reference(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _jsonable_reference(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot fingerprint {type(value).__name__!r}")


def _reduction_cases():
    corpus = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.yaml"))
    configs = [config for path in corpus for config in load_scenario(path).configs]
    configs.append(ExperimentConfig(
        extra_profile=VIRUS_SCANNER,
        tool=LatencyToolConfig(dpc_importance=DpcImportance.HIGH),
    ))
    return configs


class TestJsonableReduction:
    @pytest.mark.parametrize("config", _reduction_cases())
    def test_equals_reference_in_value_and_key_order(self, config):
        reduced = _jsonable(config)
        reference = _jsonable_reference(config)
        assert reduced == reference
        assert json.dumps(reduced) == json.dumps(reference)

    def test_cases_cover_the_corpus_and_a_load_profile(self):
        configs = _reduction_cases()
        assert len(configs) >= 20  # the 19 corpus cells, plus one
        assert any(config.extra_profile is not None for config in configs)

    def test_int_and_str_enums_still_reduce_as_enums(self):
        class Level(enum.IntEnum):
            HIGH = 2

        class Mode(str, enum.Enum):
            FAST = "fast"

        for member in (Level.HIGH, Mode.FAST, DpcImportance.HIGH):
            assert _jsonable(member) == _jsonable_reference(member) == {
                "__enum__": type(member).__name__, "value": member.value,
            }


# ----------------------------------------------------------------------
# Rewired consumers
# ----------------------------------------------------------------------
class TestConsumers:
    def test_replicate_experiment_through_campaign(self, tmp_path):
        base = ExperimentConfig(duration_s=DURATION_S)
        serial = replicate_experiment(base, seeds=(1, 2))
        cached = replicate_experiment(
            base, seeds=(1, 2), jobs=2, cache_dir=tmp_path
        )
        assert [sample_set_to_json(s) for s in serial.sample_sets] == [
            sample_set_to_json(s) for s in cached.sample_sets
        ]
        # Replay is fully served from cache and still identical.
        replay = replicate_experiment(base, seeds=(1, 2), cache_dir=tmp_path)
        assert [sample_set_to_json(s) for s in replay.sample_sets] == [
            sample_set_to_json(s) for s in serial.sample_sets
        ]

    def test_cli_compare_accepts_jobs_and_cache_dir(self, tmp_path, capsys):
        from repro.__main__ import main

        rc = main([
            "compare", "--workload", "office", "--duration", str(DURATION_S),
            "--jobs", "2", "--cache-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "win98" in out.lower() or "ratio" in out.lower()
