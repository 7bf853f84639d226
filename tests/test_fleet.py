"""The fleet tier, end to end: ring, registry, admission, router.

The unit layers (hash ring, worker registry, admission controller) are
tested with injected clocks and synthetic keys; the integration layers
run a real :class:`RouterThread` fronting real :class:`ServiceThread`
workers on ephemeral TCP sockets -- the same harness pattern as
``tests/test_service.py``, one tier up.

The acceptance criteria under test:

* **Sharding quality** -- key distribution across 3/5/8 workers stays
  within a 2x max/min ratio; one worker leaving or joining moves only
  that worker's keys (minimal movement).
* **Byte-identical through the router** -- a cell served through
  router -> worker -> wire equals serial ``run_campaign`` output, for
  both OS personalities, and *still* does after the owning worker dies
  mid-fleet and its key fails over.
* **Tiered admission** -- per-client quota and lane bounds shed with
  ``overloaded`` + ``retry_after_s``, never queue.
* **One membership path** -- ``register`` is how a worker joins, and
  joins again after its own or the router's restart or a refusal; a
  worker bound to every interface advertises an address the router can
  dial; the router's probes alone mark a dead worker down.
* **Typed unavailability** -- transport death surfaces as
  :class:`ServiceUnavailable`, and a broken ``stream_results`` reports
  exactly the cache keys it never delivered.
* **The scenario CLI through a router** -- ``run-scenario --router`` and
  ``submit --router --scenario --json`` print, in spec order, what the
  serial path computes, and a rerun is served from the router's store.
"""

import asyncio
import json
import socket
import threading
import time
from collections import Counter

import pytest

from repro.__main__ import main
from repro.core.campaign import CampaignCache, cache_key, run_campaign
from repro.core.experiment import ExperimentConfig
from repro.core.export import sample_set_to_json
from repro.fleet import (
    AdmissionController,
    AsyncServiceClient,
    HashRing,
    RouterThread,
    WorkerRegistry,
)
from repro.service import (
    ServiceClient,
    ServiceError,
    ServiceThread,
    ServiceUnavailable,
    protocol,
)
from repro.scenarios import load_scenario
from repro.service import client as client_module

#: Short cells keep the module fast; determinism is duration-independent.
DURATION_S = 0.5


def _config(os_name="win98", workload="games", seed=1999, **overrides):
    return ExperimentConfig(
        os_name=os_name, workload=workload, duration_s=DURATION_S, seed=seed,
        **overrides,
    )


def _serial_bytes(config):
    return sample_set_to_json(run_campaign([config]).sample_sets[0])


def _keys(count):
    return [f"key-{i}" for i in range(count)]


# ----------------------------------------------------------------------
# Consistent-hash ring
# ----------------------------------------------------------------------
class TestHashRing:
    @pytest.mark.parametrize("workers", [3, 5, 8])
    def test_distribution_balance(self, workers):
        ring = HashRing()
        for i in range(workers):
            ring.add(f"w{i}")
        counts = Counter(ring.lookup(key) for key in _keys(5000))
        assert len(counts) == workers  # every worker owns some keys
        assert max(counts.values()) / min(counts.values()) <= 2.0

    def test_minimal_movement_on_leave(self):
        ring = HashRing()
        for i in range(5):
            ring.add(f"w{i}")
        before = {key: ring.lookup(key) for key in _keys(5000)}
        ring.remove("w2")
        after = {key: ring.lookup(key) for key in _keys(5000)}
        moved = {key for key in before if before[key] != after[key]}
        # Exactly w2's keys moved -- nothing else was touched.
        assert moved == {key for key, node in before.items() if node == "w2"}
        assert all(after[key] != "w2" for key in moved)

    def test_minimal_movement_on_join_restores_mapping(self):
        ring = HashRing()
        for i in range(5):
            ring.add(f"w{i}")
        before = {key: ring.lookup(key) for key in _keys(5000)}
        ring.remove("w2")
        ring.add("w2")
        after = {key: ring.lookup(key) for key in _keys(5000)}
        # Rejoining restores the exact original sharding (positions are
        # content-derived, not insertion-order-derived).
        assert after == before

    def test_mapping_independent_of_insertion_order(self):
        a, b = HashRing(), HashRing()
        for name in ("w0", "w1", "w2"):
            a.add(name)
        for name in ("w2", "w0", "w1"):
            b.add(name)
        assert all(a.lookup(key) == b.lookup(key) for key in _keys(500))

    def test_chain_is_deterministic_and_distinct(self):
        ring = HashRing()
        for i in range(4):
            ring.add(f"w{i}")
        for key in _keys(50):
            chain = list(ring.chain(key))
            assert chain == list(ring.chain(key))
            assert sorted(chain) == ["w0", "w1", "w2", "w3"]
            assert chain[0] == ring.lookup(key)

    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            HashRing().lookup("anything")


# ----------------------------------------------------------------------
# Worker registry (health + failover routing)
# ----------------------------------------------------------------------
class TestWorkerRegistry:
    def _registry(self, n=3, clock=None):
        registry = WorkerRegistry(**({"clock": clock} if clock else {}))
        for i in range(n):
            registry.register(f"w{i}", "127.0.0.1", 9000 + i)
        return registry

    def test_failover_routes_to_ring_successor_and_back(self):
        registry = self._registry()
        key = "some-cache-key"
        owner = registry.owner(key)
        chain = list(registry.ring.chain(key))
        assert registry.route(key).name == owner == chain[0]
        registry.mark_down(owner)
        assert registry.route(key).name == chain[1]
        # Recovery restores the original owner: mark-down kept its ring
        # positions, so nothing re-sharded permanently.
        registry.mark_up(owner)
        assert registry.route(key).name == owner

    def test_route_none_when_all_down(self):
        registry = self._registry()
        for worker in registry.workers():
            registry.mark_down(worker.name)
        assert registry.route("k") is None
        assert registry.live_count() == 0

    def test_reregister_updates_endpoint_marks_up_keeps_sharding(self):
        registry = self._registry()
        key = "another-key"
        owner = registry.owner(key)
        registry.mark_down(owner)
        registry.register(owner, "127.0.0.1", 9999)  # restarted elsewhere
        worker = registry.get(owner)
        assert worker.state == "up" and worker.port == 9999
        assert registry.owner(key) == owner  # ring membership unchanged


# ----------------------------------------------------------------------
# Tiered admission
# ----------------------------------------------------------------------
class TestAdmission:
    def test_quota_shed_carries_exact_retry_after(self):
        clock = [0.0]
        adm = AdmissionController(client_rate=10.0, client_burst=2.0,
                                  clock=lambda: clock[0])
        assert adm.admit("alice").admitted
        assert adm.admit("alice").admitted
        shed = adm.admit("alice")
        assert not shed.admitted and shed.reason == "quota"
        assert shed.retry_after_s == pytest.approx(0.1)  # 1 token @ 10/s
        # The bucket refills on the injected clock.
        clock[0] = 0.2
        assert adm.admit("alice").admitted

    def test_quotas_are_per_client(self):
        clock = [0.0]
        adm = AdmissionController(client_rate=10.0, client_burst=1.0,
                                  clock=lambda: clock[0])
        assert adm.admit("alice").admitted
        assert not adm.admit("alice").admitted
        assert adm.admit("bob").admitted  # alice's burn doesn't charge bob

    def test_batch_lane_sheds_first_without_charging_quota(self):
        clock = [0.0]
        adm = AdmissionController(client_rate=100.0, client_burst=100.0,
                                  interactive_inflight=4, batch_inflight=1,
                                  clock=lambda: clock[0])
        assert adm.admit("c", "batch").admitted
        shed = adm.admit("c", "batch")
        assert not shed.admitted and shed.reason == "lane-full"
        assert shed.retry_after_s == pytest.approx(0.25)
        # Interactive still admits, and the lane-full shed did not take a
        # token from the client's bucket.
        assert adm.admit("c", "interactive").admitted
        adm.release("batch")
        assert adm.admit("c", "batch").admitted

    def test_gauges_track_inflight_and_sheds(self):
        adm = AdmissionController(batch_inflight=1)
        adm.admit("c", "interactive")
        adm.admit("c", "batch")
        adm.admit("c", "batch")  # shed: lane-full
        gauges = adm.gauges()
        assert gauges["inflight_interactive"] == 1
        assert gauges["inflight_batch"] == 1
        assert gauges["shed_lane"] == 1
        assert gauges["tracked_clients"] == 1


# ----------------------------------------------------------------------
# Router integration: byte-identical through the fleet
# ----------------------------------------------------------------------
def _fleet(tmp_path, workers=2, **router_overrides):
    """A started RouterThread plus ``workers`` registered ServiceThreads."""
    router = RouterThread(heartbeat_interval_s=0.2, **router_overrides).start()
    threads = [
        ServiceThread(
            cache_dir=tmp_path,
            register_with=f"127.0.0.1:{router.port}",
            worker_name=f"w{i}",
        ).start()
        for i in range(workers)
    ]
    _wait_live(router, workers)
    return router, threads


def _wait_live(router, expected, deadline_s=10.0):
    with ServiceClient(port=router.port) as client:
        for _ in range(int(deadline_s / 0.05)):
            if client.fleet_stats()["registry"]["live"] >= expected:
                return
            time.sleep(0.05)
    raise AssertionError(f"fleet never reached {expected} live workers")


# ----------------------------------------------------------------------
# Membership: register joins, router probes judge health
# ----------------------------------------------------------------------
def _registry_entry(router, name):
    with ServiceClient(port=router.port) as client:
        workers = client.fleet_stats()["registry"]["workers"]
    return next(worker for worker in workers if worker["name"] == name)


def _counters(tier):
    """The ``stats`` counters of a started RouterThread or ServiceThread."""
    with ServiceClient(port=tier.port) as client:
        return client.stats()["counters"]


class TestMembership:
    def test_restarted_worker_serves_its_first_routed_cell(self):
        # Probes too slow to run during the test: only registration can
        # tell the router that w0 restarted.
        router = RouterThread(heartbeat_interval_s=30.0).start()
        join = {"register_with": f"127.0.0.1:{router.port}", "worker_name": "w0"}
        worker = ServiceThread(**join).start()
        try:
            _wait_live(router, 1)
            with ServiceClient(port=router.port) as client:
                client.submit(_config(seed=1), as_text=True)
            worker.stop()
            worker = ServiceThread(**join).start()
            with ServiceClient(port=router.port) as client:
                for _ in range(200):
                    if client.stats()["counters"]["registrations"] >= 2:
                        break
                    time.sleep(0.05)
            assert _registry_entry(router, "w0")["port"] == worker.port
            config = _config(seed=2)
            with ServiceClient(port=router.port) as client:
                served = client.submit(config, as_text=True)
                counters = client.stats()["counters"]
        finally:
            worker.stop()
            router.stop()
        assert served == _serial_bytes(config)
        assert counters["failovers"] == 0 and counters["unavailable"] == 0

    def test_worker_reregisters_with_a_restarted_router(self):
        router = RouterThread(heartbeat_interval_s=0.2).start()
        port = router.port
        worker = ServiceThread(register_with=f"127.0.0.1:{port}",
                               worker_name="w0").start()
        try:
            _wait_live(router, 1)
            router.stop()
            router = RouterThread(port=port, heartbeat_interval_s=0.2).start()
            _wait_live(router, 1)
            config = _config()
            with ServiceClient(port=router.port) as client:
                served = client.submit(config, as_text=True)
        finally:
            worker.stop()
            router.stop()
        assert served == _serial_bytes(config)

    def test_probes_alone_mark_a_stopped_worker_down(self):
        router = RouterThread(heartbeat_interval_s=0.2).start()
        worker = ServiceThread(register_with=f"127.0.0.1:{router.port}",
                               worker_name="w0").start()
        try:
            _wait_live(router, 1)
            worker.stop()
            deadline = time.monotonic() + 2.0
            while (_registry_entry(router, "w0")["state"] != "down"
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            entry = _registry_entry(router, "w0")
        finally:
            worker.stop()
            router.stop()
        assert entry["state"] == "down"
        assert entry["forwards"] == 0  # no submit was needed to notice

    def test_wildcard_bound_worker_advertises_a_dialable_host(self):
        router = RouterThread(heartbeat_interval_s=0.2).start()
        worker = ServiceThread(host="",
                               register_with=f"127.0.0.1:{router.port}").start()
        try:
            _wait_live(router, 1, deadline_s=5.0)
            config = _config()
            with ServiceClient(port=router.port) as client:
                (entry,) = client.fleet_stats()["registry"]["workers"]
                served = client.submit(config, as_text=True)
        finally:
            worker.stop()
            router.stop()
        assert entry["host"] == "127.0.0.1"
        # The name defaults to the advertised host and port.
        assert entry["name"] == f"127.0.0.1:{entry['port']}"
        assert served == _serial_bytes(config)

    def test_refused_registration_is_counted_and_retried(self):
        attempts = []

        def refuse(msg):
            attempts.append(msg["verb"])
            return protocol.error_response(msg.get("id"), "bad-request", "no")

        # The scripted router keeps the connection open after refusing, so
        # only the worker's reading of the reply can start a second try.
        with _ScriptedServer(refuse) as router:
            worker = ServiceThread(register_with=f"127.0.0.1:{router.port}",
                                   worker_name="w0").start()
            try:
                deadline = time.monotonic() + 3.5
                while len(attempts) < 2 and time.monotonic() < deadline:
                    time.sleep(0.05)
                counters = _counters(worker)
            finally:
                worker.stop()
        assert attempts[:2] == ["register", "register"]
        assert counters["register_refused"] >= 1


class TestRouterDeterminism:
    @pytest.mark.parametrize("os_name,workload", [
        ("win98", "games"),
        ("nt4", "office"),
    ])
    def test_routed_cell_byte_identical_to_serial(self, tmp_path, os_name,
                                                  workload):
        config = _config(os_name, workload)
        router, workers = _fleet(tmp_path)
        try:
            with ServiceClient(port=router.port) as client:
                served = client.submit(config, as_text=True)
        finally:
            for worker in workers:
                worker.stop()
            router.stop()
        assert served == _serial_bytes(config)

    def test_duplicate_submits_route_to_one_worker(self, tmp_path):
        config = _config()
        router, workers = _fleet(tmp_path, workers=3)
        try:
            with ServiceClient(port=router.port) as client:
                first = client.submit(config, as_text=True)
                second = client.submit(config, as_text=True)
                fleet = client.fleet_stats()
            forwards = [w["forwards"] for w in fleet["registry"]["workers"]]
        finally:
            for worker in workers:
                worker.stop()
            router.stop()
        assert first == second == _serial_bytes(config)
        # One forward total: the repeat was served from the shared store.
        assert sum(forwards) == 1

    def test_router_reads_the_shared_store_and_never_writes_it(
            self, tmp_path, monkeypatch):
        config = _config()
        writes = []
        put_literal = CampaignCache.put_literal

        def counted(cache, *args, **kwargs):
            writes.append(cache.root)
            return put_literal(cache, *args, **kwargs)

        monkeypatch.setattr(CampaignCache, "put_literal", counted)
        router, workers = _fleet(tmp_path, workers=1, cache_dir=tmp_path)
        try:
            with ServiceClient(port=router.port) as client:
                routed = client.submit(config, as_text=True)
        finally:
            workers[0].stop()
            router.stop()
        assert writes == [tmp_path]  # the worker's, and only the worker's
        with RouterThread(cache_dir=tmp_path) as fresh:
            with ServiceClient(port=fresh.port) as client:
                assert client.submit(config, as_text=True) == routed
                stats = client.stats()
        assert stats["gauges"]["store"]["disk_hits"] == 1
        assert stats["counters"]["forwarded"] == 0

    def test_stream_results_through_router_matches_serial(self, tmp_path):
        configs = [
            _config("win98", "games"),
            _config("nt4", "office"),
            _config("win98", "games", seed=2000),
        ]
        serial = [sample_set_to_json(s) for s in run_campaign(configs)]
        router, workers = _fleet(tmp_path)
        try:
            with ServiceClient(port=router.port) as client:
                streamed = list(client.stream_results(configs, as_text=True))
        finally:
            for worker in workers:
                worker.stop()
            router.stop()
        # wait=False submits return "worker/job-N" ids and the results are
        # proxied back through the router -- still byte-identical, in order.
        assert streamed == serial

    def test_failover_after_worker_death_still_byte_identical(self, tmp_path):
        config = _config("nt4", "games")
        key = cache_key(config)
        router, workers = _fleet(tmp_path, workers=2, forward_attempts=4)
        try:
            owner = router.router.registry.route(key).name
            victim = int(owner[1:])  # worker names are w0 / w1
            workers[victim].stop()   # dies before ever computing the key
            with ServiceClient(port=router.port) as client:
                served = client.submit(config, as_text=True)
                fleet = client.fleet_stats()
            states = {w["name"]: w["state"]
                      for w in fleet["registry"]["workers"]}
        finally:
            for worker in workers:
                worker.stop()
            router.stop()
        assert served == _serial_bytes(config)
        assert states[owner] == "down"  # the death was observed, not hidden

    def test_no_live_workers_is_typed_unavailable_with_hint(self):
        with RouterThread() as router:
            with ServiceClient(port=router.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(_config())
        assert excinfo.value.code == "unavailable"
        assert excinfo.value.retry_after_s == pytest.approx(1.0)

    def test_async_submit_many_through_router_in_order(self, tmp_path):
        configs = [
            _config("win98", "games"),
            _config("nt4", "office"),
            _config("win98", "games"),  # duplicate: coalesces fleet-wide
        ]
        serial = [sample_set_to_json(s) for s in run_campaign(configs)]
        router, workers = _fleet(tmp_path)

        async def fan_out():
            async with AsyncServiceClient(port=router.port,
                                          pool_size=4) as client:
                return await client.submit_many(configs, as_text=True)

        try:
            results = asyncio.run(fan_out())
        finally:
            for worker in workers:
                worker.stop()
            router.stop()
        assert results == serial


# ----------------------------------------------------------------------
# The scenario CLI through a router
# ----------------------------------------------------------------------
_ROUTED_SPEC = """\
scenario: routed-pair
os: win98
workload: games
duration_s: 0.5
matrix:
  seed: [1, 2]
"""


@pytest.fixture(scope="class")
def routed_scenario(tmp_path_factory):
    """A router and one registered worker on a shared store, plus a
    two-cell spec file and its loaded scenario."""
    store = tmp_path_factory.mktemp("store")
    spec = tmp_path_factory.mktemp("spec") / "routed_pair.yaml"
    spec.write_text(_ROUTED_SPEC)
    router = RouterThread(cache_dir=store, heartbeat_interval_s=0.2).start()
    worker = ServiceThread(cache_dir=store,
                           register_with=f"127.0.0.1:{router.port}",
                           worker_name="w0").start()
    try:
        _wait_live(router, 1)
        yield router, worker, spec, load_scenario(spec)
    finally:
        worker.stop()
        router.stop()


class TestScenarioCliThroughRouter:
    def test_run_scenario_prints_each_cell_in_spec_order(self, routed_scenario,
                                                         capsys):
        router, _, spec, scenario = routed_scenario
        assert main(["run-scenario", str(spec),
                     "--router", f"127.0.0.1:{router.port}"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(scenario.cells) == 2
        for line, cell in zip(lines, scenario.cells):
            assert line.startswith(f"{cell.label}: ")
            assert line.endswith(f"[{cell.cache_key[:12]}]")

    def test_submit_scenario_json_prints_serial_bytes(self, routed_scenario,
                                                      capsys):
        router, _, spec, scenario = routed_scenario
        assert main(["submit", "--router", f"127.0.0.1:{router.port}",
                     "--scenario", str(spec), "--json"]) == 0
        serial = run_campaign(list(scenario.configs)).sample_sets
        expected = "".join(sample_set_to_json(ss) + "\n" for ss in serial)
        assert capsys.readouterr().out == expected

    def test_rerun_is_served_from_the_router_store(self, routed_scenario):
        router, worker, spec, _ = routed_scenario
        argv = ["run-scenario", str(spec), "--router", f"127.0.0.1:{router.port}"]
        assert main(argv) == 0
        hits = _counters(router)["cache_hits"]
        simulations = _counters(worker)["simulations"]
        assert main(argv) == 0
        assert _counters(router)["cache_hits"] == hits + 2
        assert _counters(worker)["simulations"] == simulations


# ----------------------------------------------------------------------
# Router admission over the wire
# ----------------------------------------------------------------------
class TestRouterAdmission:
    def test_quota_shed_is_overloaded_with_retry_after(self, tmp_path):
        config = _config()
        # Pre-compute the cell so the router can serve it from the shared
        # store with no workers at all -- isolating the admission path.
        run_campaign([config], cache_dir=tmp_path)
        with RouterThread(cache_dir=tmp_path, client_rate=0.5,
                          client_burst=1.0) as router:
            with ServiceClient(port=router.port) as client:
                assert client.submit(config, as_text=True)  # burns the burst
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(config)
                stats = client.stats()
        assert excinfo.value.code == "overloaded"
        assert excinfo.value.retry_after_s == pytest.approx(2.0, rel=0.2)
        assert stats["counters"]["shed_quota"] == 1

    def test_unknown_lane_is_bad_request(self, tmp_path):
        with RouterThread() as router:
            with ServiceClient(port=router.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(_config(), lane="bulk")
        assert excinfo.value.code == "bad-request"

    @pytest.mark.parametrize("fields", [
        {"name": "w0", "host": "127.0.0.1", "port": True},
        {"name": "w0", "host": "127.0.0.1", "port": 0},
        {"name": "w0", "host": "127.0.0.1", "port": 70000},
        {"host": "127.0.0.1", "port": 9000},
    ], ids=["port-true", "port-0", "port-70000", "no-name"])
    def test_bad_register_is_bad_request(self, fields):
        with RouterThread() as router:
            with ServiceClient(port=router.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client._request("register", **fields)
                workers = client.fleet_stats()["registry"]["workers"]
        assert excinfo.value.code == "bad-request"
        assert workers == []

    def test_stats_expose_uptime_lanes_and_workers(self, tmp_path):
        router, workers = _fleet(tmp_path)
        try:
            with ServiceClient(port=router.port) as client:
                stats = client.stats()
                alive = client.heartbeat()
        finally:
            for worker in workers:
                worker.stop()
            router.stop()
        assert stats["uptime_s"] >= 0.0
        assert stats["gauges"]["workers_live"] == 2
        assert stats["gauges"]["lane_limit_batch"] >= 1
        assert stats["gauges"]["queue_depth"] == 0
        assert alive["alive"] is True


# ----------------------------------------------------------------------
# Typed unavailability + undelivered-keys reporting
# ----------------------------------------------------------------------
class _ScriptedServer:
    """A bare NDJSON TCP server driven by a per-message handler.

    ``handler(msg)`` returns a reply dict, or ``None`` to slam the
    connection shut -- the knob the unavailability tests turn.
    """

    def __init__(self, handler):
        self.handler = handler
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            threading.Thread(target=self._client, args=(conn,),
                             daemon=True).start()

    def _client(self, conn):
        stream = conn.makefile("rwb")
        try:
            while True:
                line = stream.readline()
                if not line:
                    return
                reply = self.handler(json.loads(line))
                if reply is None:
                    return
                stream.write((json.dumps(reply) + "\n").encode())
                stream.flush()
        except (OSError, ValueError):
            pass
        finally:
            conn.close()

    def close(self):
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class TestServiceUnavailable:
    def test_server_eof_raises_typed_unavailable(self):
        with _ScriptedServer(lambda msg: None) as server:
            with pytest.raises(ServiceUnavailable):
                with ServiceClient(port=server.port) as client:
                    client.stats()

    def test_stream_results_reports_all_keys_when_submit_dies(self):
        configs = [_config(seed=s) for s in (1, 2, 3)]
        keys = [cache_key(config) for config in configs]
        with _ScriptedServer(lambda msg: None) as server:
            with ServiceClient(port=server.port) as client:
                with pytest.raises(ServiceUnavailable) as excinfo:
                    list(client.stream_results(configs))
        assert excinfo.value.undelivered == keys

    def test_stream_results_reports_tail_keys_when_result_dies(self):
        configs = [_config(seed=s) for s in (1, 2, 3)]
        keys = [cache_key(config) for config in configs]
        jobs = iter(range(100))

        def handler(msg):
            if msg["verb"] == "submit":
                return {"v": 1, "ok": True, "id": msg["id"],
                        "job": f"job-{next(jobs)}", "status": "queued"}
            if msg["verb"] == "result" and msg["job"] == "job-0":
                return {"v": 1, "ok": True, "id": msg["id"],
                        "status": "done", "sample_set": "first"}
            return None  # die on the second result fetch

        with _ScriptedServer(handler) as server:
            with ServiceClient(port=server.port) as client:
                delivered = []
                with pytest.raises(ServiceUnavailable) as excinfo:
                    for text in client.stream_results(configs, as_text=True):
                        delivered.append(text)
        assert delivered == ["first"]
        assert excinfo.value.undelivered == keys[1:]

    def test_async_client_honors_retry_after_then_succeeds(self):
        submits = []

        def handler(msg):
            if msg["verb"] != "submit":
                return None
            submits.append(msg)
            if len(submits) == 1:
                return {"v": 1, "ok": False, "id": msg["id"],
                        "error": {"code": "overloaded",
                                  "message": "shed (quota)",
                                  "retry_after_s": 0.01}}
            return {"v": 1, "ok": True, "id": msg["id"], "status": "done",
                    "sample_set": "payload"}

        async def run():
            async with AsyncServiceClient(port=server.port, retries=2,
                                          lane="batch",
                                          client_id="sweeper") as client:
                return await client.submit(_config(), as_text=True)

        with _ScriptedServer(handler) as server:
            assert asyncio.run(run()) == "payload"
        assert len(submits) == 2  # shed once, retried after the hint
        assert all(msg["lane"] == "batch" for msg in submits)
        assert all(msg["client"] == "sweeper" for msg in submits)

    def test_async_client_gives_up_after_bounded_retries(self):
        def handler(msg):
            return {"v": 1, "ok": False, "id": msg["id"],
                    "error": {"code": "overloaded", "message": "shed",
                              "retry_after_s": 0.005}}

        async def run():
            async with AsyncServiceClient(port=server.port,
                                          retries=1) as client:
                await client.submit(_config())

        with _ScriptedServer(handler) as server:
            with pytest.raises(ServiceError) as excinfo:
                asyncio.run(run())
        assert excinfo.value.code == "overloaded"


# ----------------------------------------------------------------------
# Worker-side satellites
# ----------------------------------------------------------------------
class TestWorkerSatellites:
    def test_worker_stats_include_uptime_and_queue_gauges(self):
        with ServiceThread() as server:
            with ServiceClient(port=server.port) as client:
                stats = client.stats()
        assert stats["uptime_s"] >= 0.0
        assert "queue_depth" in stats["gauges"]
        assert "queue_limit" in stats["gauges"]

    def test_worker_answers_heartbeat(self):
        with ServiceThread() as server:
            with ServiceClient(port=server.port) as client:
                pong = client.heartbeat()
        assert pong["alive"] is True
        assert pong["uptime_s"] >= 0.0


# ----------------------------------------------------------------------
# Over-cap results: a typed, immediate too-large error
# ----------------------------------------------------------------------
#: Requests and error lines fit in 2 KB; the cell's ~5.5 KB result does not.
SMALL_CAP = 2048
BIG_CELL = ExperimentConfig(os_name="nt4", workload="office", duration_s=0.5, seed=1999)


class TestTooLarge:
    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", SMALL_CAP)

    @staticmethod
    def _refused(client) -> float:
        """Submit the over-cap cell; return how long the refusal took."""
        start = time.monotonic()
        with pytest.raises(ServiceError) as excinfo:
            client.submit(BIG_CELL)
        assert excinfo.value.code == "too-large"
        assert f"{SMALL_CAP}-byte line cap" in excinfo.value.message
        return time.monotonic() - start

    def test_worker_refuses_an_over_cap_result(self, tmp_path):
        with ServiceThread(cache_dir=tmp_path) as server:
            with ServiceClient(port=server.port, timeout=30) as client:
                simulated = self._refused(client)
                stored = self._refused(client)
                counters = client.stats()["counters"]
        assert simulated < 1.0 and stored < 1.0
        assert counters["too_large"] == 2 and counters["served"] == 0
        assert counters["simulations"] == 1 and counters["cache_hits"] == 1

    def test_router_refuses_without_retry_or_failover(self, tmp_path):
        router, workers = _fleet(tmp_path, workers=1, cache_dir=tmp_path)
        try:
            with ServiceClient(port=router.port, timeout=30) as client:
                relayed = self._refused(client)  # the worker's refusal
                stored = self._refused(client)   # the router's shared store
                routed = client.stats()["counters"]
            with ServiceClient(port=workers[0].port) as worker:
                worked = worker.stats()["counters"]
        finally:
            workers[0].stop()
            router.stop()
        assert relayed < 1.0 and stored < 1.0
        assert routed["forwarded"] == 1 and routed["cache_hits"] == 1
        assert routed["too_large"] == 1 and routed["served"] == 0
        assert routed["forward_retries"] == routed["failovers"] == 0
        assert worked["too_large"] == 1 and worked["simulations"] == 1

    def test_client_types_a_line_that_reaches_its_own_cap(self, monkeypatch):
        # The server keeps the default cap; only the client's is small.
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", client_module.MAX_LINE_BYTES)
        monkeypatch.setattr(client_module, "MAX_LINE_BYTES", SMALL_CAP)
        with ServiceThread() as server:
            with ServiceClient(port=server.port, timeout=30) as client:
                self._refused(client)
                with pytest.raises(ServiceUnavailable):
                    client.stats()  # the desynchronised connection was dropped
