"""Serialisation round-trips for measurement data, and the v2 codec's checks."""

import base64
import json
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import CampaignCache, cache_key, config_fingerprint
from repro.core.experiment import ExperimentConfig, run_latency_experiment
from repro.core.export import (
    SCHEMA,
    latencies_to_csv,
    sample_set_from_csv,
    sample_set_from_json,
    sample_set_to_csv,
    sample_set_to_json,
)
from repro.core.samples import LatencyKind, RawSample, SampleColumns, SampleSet
from repro.sim.clock import CpuClock
from tests.test_core_worst_case import synthetic_sample_set

#: Written by the per-sample ``repro.sample_set/1`` writer for this cell.
V1_DOCUMENT = Path(__file__).with_name("data") / "sample_set_v1.json"
V1_CONFIG = ExperimentConfig(os_name="nt4", workload="office", duration_s=0.2, seed=1999)


@pytest.fixture()
def sample_set():
    return synthetic_sample_set(n=50)


def _stream(sample_set):
    return list(sample_set.columns.fingerprint_stream())


class TestCsv:
    def test_round_trip(self, sample_set):
        text = sample_set_to_csv(sample_set)
        restored = sample_set_from_csv(text)
        assert restored.os_name == sample_set.os_name
        assert restored.workload == sample_set.workload
        assert restored.duration_s == sample_set.duration_s
        assert len(restored) == len(sample_set)
        assert restored.latencies_ms(LatencyKind.THREAD, priority=28) == \
            sample_set.latencies_ms(LatencyKind.THREAD, priority=28)

    def test_none_fields_survive(self):
        sample_set = SampleSet(CpuClock(), "nt4", "office", duration_s=1.0)
        sample_set.add(RawSample(seq=0, priority=28, t_read=5, delay_cycles=7, t_dpc=9))
        restored = sample_set_from_csv(sample_set_to_csv(sample_set))
        assert list(restored.iter_samples()) == list(sample_set.iter_samples())
        assert next(iter(restored.iter_samples())).t_isr is None

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            sample_set_from_csv("seq,priority\n1,2\n")

    def test_latencies_view(self, sample_set):
        text = latencies_to_csv(sample_set)
        lines = text.strip().splitlines()
        assert lines[0].startswith("seq,priority,")
        assert "thread_latency_ms" in lines[0]
        assert len(lines) == len(sample_set) + 1


class TestJson:
    def test_round_trip(self, sample_set):
        restored = sample_set_from_json(sample_set_to_json(sample_set))
        assert (restored.os_name, restored.workload, restored.duration_s) == (
            sample_set.os_name, sample_set.workload, sample_set.duration_s)
        assert restored.clock.hz == sample_set.clock.hz
        assert list(restored.iter_samples()) == list(sample_set.iter_samples())

    def test_schema_checked(self):
        with pytest.raises(ValueError):
            sample_set_from_json('{"schema": "other/9", "samples": []}')

    def test_indent_option(self, sample_set):
        pretty = sample_set_to_json(sample_set, indent=2)
        assert "\n  " in pretty
        assert sample_set_from_json(pretty).columns.t_thread == sample_set.columns.t_thread

    def test_document_layout(self, sample_set):
        document = json.loads(sample_set_to_json(sample_set))
        assert list(document) == ["schema", "os", "workload", "duration_s",
                                  "cpu_hz", "n", "columns"]
        assert document["schema"] == SCHEMA
        assert document["n"] == len(sample_set)
        assert tuple(document["columns"]) == SampleColumns.__slots__
        raw = zlib.decompress(base64.b64decode(document["columns"]["t_read"]))
        assert raw == b"".join(v.to_bytes(8, "little", signed=True)
                               for v in sample_set.columns.t_read)


class TestRealRunRoundTrip:
    def test_real_campaign_survives_export(self):
        from repro.core.worst_case import WorstCaseTable

        ss = run_latency_experiment(
            ExperimentConfig(os_name="win98", workload="office", duration_s=3.0, seed=8)
        ).sample_set
        restored = sample_set_from_csv(sample_set_to_csv(ss))
        original_table = WorstCaseTable(ss).format()
        restored_table = WorstCaseTable(restored).format()
        assert original_table == restored_table


# ----------------------------------------------------------------------
# The repro.sample_set/2 codec
# ----------------------------------------------------------------------
_INT64 = st.one_of(
    st.sampled_from([-1, 0, 2**63 - 1, -(2**63)]),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)


class TestCodec:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(*[_INT64] * 8), max_size=30),
           hz=st.integers(min_value=1, max_value=2**40),
           duration_s=st.floats(min_value=0.0, max_value=1e6))
    def test_arbitrary_columns_round_trip_exactly(self, rows, hz, duration_s):
        columns = SampleColumns()
        for row in rows:
            columns.append_cycle(*row)
        original = SampleSet(CpuClock(hz=hz), "win98", "games", duration_s,
                             columns=columns)
        text = sample_set_to_json(original)
        decoded = sample_set_from_json(text)
        assert _stream(decoded) == rows
        assert list(decoded.iter_samples()) == list(original.iter_samples())
        assert (decoded.clock.hz, decoded.duration_s) == (hz, duration_s)
        assert sample_set_to_json(decoded) == text

    def test_checked_in_v1_document_decodes_to_the_same_stream(self):
        decoded = sample_set_from_json(V1_DOCUMENT.read_text())
        fresh = run_latency_experiment(V1_CONFIG).sample_set
        assert (decoded.os_name, decoded.workload, decoded.duration_s,
                decoded.clock.hz) == ("nt4", "office", 0.2, fresh.clock.hz)
        assert len(decoded) == len(fresh) > 0
        assert _stream(decoded) == _stream(fresh)
        assert list(decoded.iter_samples()) == list(fresh.iter_samples())
        # ... and it re-encodes as v2, which is what a cache rewrite stores.
        assert sample_set_to_json(decoded) == sample_set_to_json(fresh)


def _valid_document() -> dict:
    return json.loads(sample_set_to_json(synthetic_sample_set(n=20)))


def _packed(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _with(**fields):
    return lambda doc: {**doc, **fields}


def _without(name):
    return lambda doc: {key: value for key, value in doc.items() if key != name}


def _column(name, value):
    def mutate(doc):
        doc["columns"][name] = value
        return doc
    return mutate


#: One defect per row (on a valid 20-row document); each must raise a
#: plain ValueError.
MALFORMED = {
    "not an object": lambda doc: [doc],
    "unknown schema": _with(schema="repro.sample_set/9"),
    "missing schema": _without("schema"),
    "v1 schema without samples": _with(schema="repro.sample_set/1"),
    "v1 record missing a field": _with(schema="repro.sample_set/1",
                                       samples=[{"seq": 0, "priority": 28}]),
    "v1 record not an object": _with(schema="repro.sample_set/1", samples=[[0, 28, 1, 2]]),
    "missing column": lambda doc: _with(columns={
        k: v for k, v in doc["columns"].items() if k != "t_dpc"})(doc),
    "columns not an object": lambda doc: _with(columns=list(doc["columns"].values()))(doc),
    "column not a string": _column("seq", 17),
    "bad base64": _column("t_isr", "not*base64!"),
    "non-ascii base64": _column("t_isr", "eJé="),
    "base64 but not zlib": _column("seq", _packed(bytes(160))),
    "truncated zlib": _column("seq", _packed(zlib.compress(bytes(160), 1)[:-6])),
    "byte count not a multiple of 8": _column(
        "t_read", _packed(zlib.compress(bytes(8 * 20 + 3), 1))),
    "fewer rows than n": _column("t_dpc", _packed(zlib.compress(bytes(8 * 19), 1))),
    "more rows than n": _with(n=19),
    "negative n": _with(n=-1),
    "n not an integer": _with(n="20"),
    "missing n": _without("n"),
    "missing cpu_hz": _without("cpu_hz"),
    "cpu_hz not positive": _with(cpu_hz=0),
    "cpu_hz a float": _with(cpu_hz=3e8),
    "missing os": _without("os"),
    "workload not a string": _with(workload=None),
    "duration_s a string": _with(duration_s="0.05"),
}


class TestMalformedDocuments:
    def test_the_table_starts_from_a_valid_document(self):
        assert len(sample_set_from_json(json.dumps(_valid_document()))) == 20

    @pytest.mark.parametrize("defect", sorted(MALFORMED))
    def test_raises_value_error(self, defect):
        text = json.dumps(MALFORMED[defect](_valid_document()))
        with pytest.raises(ValueError) as excinfo:
            sample_set_from_json(text)
        # Not a subclass such as binascii.Error leaking through.
        assert type(excinfo.value) is ValueError, repr(excinfo.value)


# ----------------------------------------------------------------------
# The campaign cache around the codec
# ----------------------------------------------------------------------
CACHE_CONFIG = ExperimentConfig(duration_s=0.25, seed=4242)


class TestCacheEntries:
    def test_corrupt_v2_entry_is_quarantined(self, tmp_path):
        cache = CampaignCache(tmp_path)
        path = cache.put(CACHE_CONFIG, synthetic_sample_set(n=30))
        entry = json.loads(path.read_text())
        inner = json.loads(entry["sample_set"])
        inner["columns"]["t_thread"] = inner["columns"]["t_thread"][:-8]
        entry["sample_set"] = json.dumps(inner)
        path.write_text(json.dumps(entry))
        assert cache.get(CACHE_CONFIG) is None
        assert cache.quarantined == 1 and cache.misses == 1
        assert path.with_suffix(".corrupt").exists() and not path.exists()

    def test_campaign_cache_v1_file_is_a_clean_miss(self, tmp_path):
        cache = CampaignCache(tmp_path)
        path = tmp_path / f"{cache_key(V1_CONFIG)}.json"
        path.write_text(json.dumps({
            "schema": "repro.campaign_cache/1",
            "fingerprint": config_fingerprint(V1_CONFIG),
            "sample_set": V1_DOCUMENT.read_text(),
        }))
        assert cache.get(V1_CONFIG) is None
        assert cache.get_serialized(V1_CONFIG) is None
        assert (cache.misses, cache.quarantined) == (2, 0)
        assert path.exists() and not path.with_suffix(".corrupt").exists()
        # The next put rewrites the entry in the current layout.
        cache.put(V1_CONFIG, sample_set_from_json(V1_DOCUMENT.read_text()))
        assert json.loads(path.read_text())["schema"] == "repro.campaign_cache/2"
        assert _stream(cache.get(V1_CONFIG)) == _stream(
            sample_set_from_json(V1_DOCUMENT.read_text()))
