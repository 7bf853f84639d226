"""Each stored result is escaped once and spliced into every line after.

A tier turns a finished result into its JSON string literal when the
result enters its :class:`ResultStore`; replies and cache files splice
that literal in.  What goes over the wire and onto disk must not change
by a byte: every expected line and file here is built with plain
``json.dumps`` of the whole message, the way each was encoded before
results were spliced.
"""

import json
import socket
import time

import pytest

from repro.core.campaign import (
    CACHE_SCHEMA,
    CampaignCache,
    cache_key,
    config_fingerprint,
    json_literal,
    run_campaign,
)
from repro.core.experiment import ExperimentConfig
from repro.core.export import sample_set_to_json
from repro.fleet import RouterThread
from repro.service import ServiceClient, ServiceThread, protocol
from repro.service import store as store_module
from repro.service.protocol import (
    PROTOCOL_VERSION,
    MessageTooLarge,
    config_to_wire,
    encode_message,
    ok_response,
    request,
)
from repro.service.store import ResultStore

#: Short cells for the served paths; the splice does not depend on length.
SHORT = ExperimentConfig(os_name="nt4", workload="office", duration_s=0.5, seed=1999)


def _serial_text(config):
    return sample_set_to_json(run_campaign([config]).sample_sets[0])


@pytest.fixture(scope="module")
def ten_second_text():
    """A real 10-simulated-second cell, as its sample-set text."""
    return _serial_text(
        ExperimentConfig(os_name="nt4", workload="office", duration_s=10.0, seed=1999)
    )


@pytest.fixture(scope="module")
def short_text():
    return _serial_text(SHORT)


def _reply_line(sample_set, **fields):
    """A reply line as a whole-message ``json.dumps`` encodes it."""
    payload = {"v": PROTOCOL_VERSION, "ok": True, **fields, "sample_set": sample_set}
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def _raw_submit(port, config, req_id="r1"):
    """One ``submit`` over a bare socket; the reply line exactly as sent."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(encode_message(request(
            "submit", req_id=req_id, config=config_to_wire(config), wait=True,
        )))
        with sock.makefile("rb") as stream:
            return stream.readline()


# ----------------------------------------------------------------------
# The splice itself
# ----------------------------------------------------------------------
class TestSplice:
    def test_spliced_line_equals_whole_message_encoding(self, ten_second_text):
        fields = dict(status="done", key="k" * 64, cached=True)
        spliced = encode_message(ok_response("r1", **fields), json_literal(ten_second_text))
        assert spliced == encode_message(
            ok_response("r1", **fields, sample_set=ten_second_text)
        )
        assert spliced == _reply_line(ten_second_text, id="r1", **fields)

    def test_literal_is_the_default_ascii_escape(self, ten_second_text):
        literal = json_literal(ten_second_text)
        assert literal == json.dumps(ten_second_text).encode("ascii")
        assert json.loads(literal) == ten_second_text

    def test_over_cap_splice_raises(self, monkeypatch):
        payload = ok_response("r1", status="done", key="k" * 64, cached=True)
        literal = json_literal("x" * 100)
        line = encode_message(dict(payload), literal)
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", len(line))
        assert encode_message(dict(payload), literal) == line  # exactly at the cap
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", len(line) - 1)
        with pytest.raises(MessageTooLarge) as excinfo:
            encode_message(dict(payload), literal)
        assert f"a {len(line)}-byte message exceeds" in str(excinfo.value)


# ----------------------------------------------------------------------
# Cache files and the store
# ----------------------------------------------------------------------
class TestStoredOnce:
    def test_put_serialized_writes_whole_entry_encoding(self, tmp_path, short_text):
        path = CampaignCache(tmp_path).put_serialized(SHORT, short_text)
        expected = json.dumps({
            "schema": CACHE_SCHEMA,
            "fingerprint": config_fingerprint(SHORT),
            "sample_set": short_text,
        }).encode("utf-8")
        assert path.read_bytes() == expected
        assert CampaignCache(tmp_path).get_serialized(SHORT) == short_text

    def test_put_literal_writes_the_same_file(self, tmp_path, short_text):
        first = CampaignCache(tmp_path / "a").put_serialized(SHORT, short_text)
        second = CampaignCache(tmp_path / "b").put_literal(SHORT, json_literal(short_text))
        assert first.read_bytes() == second.read_bytes()

    def test_store_keeps_one_literal_per_key(self, short_text):
        store = ResultStore()
        literal = store.put(SHORT, short_text)
        assert literal == json_literal(short_text)
        assert list(store._hot) == [cache_key(SHORT)]
        assert store._hot[cache_key(SHORT)] is literal
        assert store.get_literal(SHORT) is literal
        assert store.get(SHORT) == short_text

    def test_disk_hit_escapes_once(self, tmp_path, short_text, monkeypatch):
        CampaignCache(tmp_path).put_serialized(SHORT, short_text)
        escaped = []

        def counting(serialized):
            escaped.append(serialized)
            return json_literal(serialized)

        monkeypatch.setattr(store_module, "json_literal", counting)
        store = ResultStore(cache_dir=tmp_path)
        first = store.get_literal(SHORT)
        second = store.get_literal(SHORT)
        assert first is second == json_literal(short_text)
        assert escaped == [short_text]
        assert (store.disk_hits, store.hot_hits) == (1, 1)


# ----------------------------------------------------------------------
# Served lines
# ----------------------------------------------------------------------
class TestServedLines:
    def test_worker_job_and_store_hit_lines(self, tmp_path, short_text):
        key = cache_key(SHORT)
        with ServiceThread(cache_dir=tmp_path) as server:
            simulated = _raw_submit(server.port, SHORT)
            stored = _raw_submit(server.port, SHORT, req_id="r2")
            service = server.service
            (job,) = service._jobs.values()
            # The finished job shares the store's one literal.
            assert service.store._hot[key] is job.literal
        assert simulated == _reply_line(short_text, id="r1", status="done",
                                        job="job-1", key=key, cached=False)
        assert stored == _reply_line(short_text, id="r2", status="done",
                                     key=key, cached=True)

    def test_router_store_hit_line(self, tmp_path, short_text):
        CampaignCache(tmp_path).put_serialized(SHORT, short_text)
        with RouterThread(cache_dir=tmp_path) as router:
            line = _raw_submit(router.port, SHORT)
        assert line == _reply_line(short_text, id="r1", status="done",
                                   key=cache_key(SHORT), cached=True)

    def test_relayed_and_proxied_results_decode_to_serial_text(self, tmp_path):
        relayed_config = SHORT
        proxied_config = SHORT.with_overrides(seed=7)
        with RouterThread(heartbeat_interval_s=0.2) as router:
            with ServiceThread(register_with=f"127.0.0.1:{router.port}",
                               worker_name="w0"):
                with ServiceClient(port=router.port, timeout=60) as client:
                    deadline = time.monotonic() + 10.0
                    while (not client.fleet_stats()["registry"]["live"]
                           and time.monotonic() < deadline):
                        time.sleep(0.05)
                    relayed_line = _raw_submit(router.port, relayed_config)
                    job = client.submit_nowait(proxied_config)
                    proxied = client.result(job, as_text=True)
                relayed_literal = router.router.store._hot[cache_key(relayed_config)]
        relayed_text = _serial_text(relayed_config)
        assert relayed_line == _reply_line(
            relayed_text, id="r1", status="done", job="w0/job-1",
            key=cache_key(relayed_config), cached=False,
        )
        assert relayed_literal == json_literal(relayed_text)
        assert job.startswith("w0/")
        assert proxied == _serial_text(proxied_config)
