"""The experiment-serving subsystem, end to end.

Everything here runs a real server on a real ephemeral TCP socket (via
:class:`ServiceThread`) and talks to it with the sync client.  The three
pillars under test are the acceptance criteria of the serving layer:

* **Determinism over the wire** -- a served cell is byte-identical to
  serial ``run_campaign`` output, for both OS personalities.
* **Backpressure + coalescing** -- with queue bound Q, the (Q+1)-th
  distinct in-flight submit is rejected ``overloaded``; K submits of the
  same config run exactly one simulation.
* **Per-job dispatch** -- a short cell queued with a long one comes back
  without waiting for it.
* **Graceful drain** -- shutdown finishes admitted cells, rejects new
  submits, leaves the cache directory consistent (no ``.tmp``) and
  closes its own idle connections, on the worker and the router alike.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.campaign import cache_key, run_campaign
from repro.core.experiment import ExperimentConfig
from repro.core.export import sample_set_to_json
from repro.fleet import FleetRouter
from repro.service import ExperimentService, ServiceClient, ServiceError, ServiceThread
from repro.service.protocol import PROTOCOL_VERSION, encode_message, request

#: Short cells keep the module fast; determinism is duration-independent.
DURATION_S = 0.5


def _config(os_name="win98", workload="games", seed=1999, **overrides):
    return ExperimentConfig(
        os_name=os_name, workload=workload, duration_s=DURATION_S, seed=seed,
        **overrides,
    )


def _serial_bytes(config):
    return sample_set_to_json(run_campaign([config]).sample_sets[0])


# ----------------------------------------------------------------------
# Determinism over the wire
# ----------------------------------------------------------------------
class TestWireDeterminism:
    @pytest.mark.parametrize("os_name,workload", [
        ("win98", "games"),
        ("nt4", "office"),
    ])
    def test_served_cell_byte_identical_to_serial(self, os_name, workload):
        config = _config(os_name, workload)
        with ServiceThread() as server:
            with ServiceClient(port=server.port) as client:
                served = client.submit(config, as_text=True)
        assert served == _serial_bytes(config)

    def test_cache_hot_replay_still_byte_identical(self, tmp_path):
        config = _config()
        with ServiceThread(cache_dir=tmp_path) as server:
            with ServiceClient(port=server.port) as client:
                first = client.submit(config, as_text=True)
                second = client.submit(config, as_text=True)
                stats = client.stats()
        assert first == second == _serial_bytes(config)
        assert stats["counters"]["cache_hits"] == 1
        assert stats["counters"]["simulations"] == 1

    def test_stream_results_matches_serial_campaign_in_order(self):
        configs = [
            _config("win98", "office", seed=s) for s in (1999, 2000)
        ] + [_config("nt4", "office")]
        serial = [sample_set_to_json(s) for s in run_campaign(configs)]
        with ServiceThread(max_workers=2) as server:
            with ServiceClient(port=server.port) as client:
                streamed = list(client.stream_results(configs, as_text=True))
        assert streamed == serial

    def test_served_cell_is_replayable_by_run_campaign(self, tmp_path):
        # The store is layered on the campaign cache: a cell served over
        # the wire must be a normal cache hit for an offline campaign.
        config = _config()
        with ServiceThread(cache_dir=tmp_path) as server:
            with ServiceClient(port=server.port) as client:
                served = client.submit(config, as_text=True)
        report = run_campaign([config], cache_dir=tmp_path)
        assert report.cache_hits == 1 and report.cache_misses == 0
        assert sample_set_to_json(report.sample_sets[0]) == served

    def test_submit_returns_parsed_sample_set(self):
        with ServiceThread() as server:
            with ServiceClient(port=server.port) as client:
                sample_set = client.submit(_config())
        assert sample_set.os_name == "win98"
        assert sample_set.workload == "games"
        assert len(sample_set) > 0


# ----------------------------------------------------------------------
# Backpressure and coalescing
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_queue_bound_rejects_next_distinct_submit(self):
        queue_limit = 3
        with ServiceThread(queue_limit=queue_limit, start_paused=True) as server:
            with ServiceClient(port=server.port) as client:
                for seed in range(queue_limit):
                    client.submit_nowait(_config(seed=3000 + seed))
                with pytest.raises(ServiceError) as excinfo:
                    client.submit_nowait(_config(seed=3999))
                assert excinfo.value.code == "overloaded"
                stats = client.stats()
                assert stats["counters"]["rejected_overloaded"] == 1
                assert stats["gauges"]["queue_depth"] == queue_limit
            server.resume()  # drain what was admitted before stopping

    def test_coalesced_submit_is_not_rejected_when_full(self):
        # Coalescing happens before admission: a duplicate of an already
        # queued cell costs no queue slot even at the bound.
        with ServiceThread(queue_limit=1, start_paused=True) as server:
            with ServiceClient(port=server.port) as client:
                first = client.submit_nowait(_config(seed=1))
                again = client.submit_nowait(_config(seed=1))
                assert first == again
                with pytest.raises(ServiceError):
                    client.submit_nowait(_config(seed=2))
            server.resume()

    def test_k_submits_one_simulation(self):
        k = 4
        config = _config()
        with ServiceThread(start_paused=True) as server:
            with ServiceClient(port=server.port) as client:
                job_ids = {client.submit_nowait(config) for _ in range(k)}
                assert len(job_ids) == 1
                server.resume()
                job_id = job_ids.pop()
                results = {client.result(job_id, as_text=True) for _ in range(k)}
                stats = client.stats()
        assert len(results) == 1
        assert stats["counters"]["simulations"] == 1
        assert stats["counters"]["coalesced"] == k - 1
        assert stats["counters"]["submitted"] == 1

    def test_concurrent_waiting_clients_share_one_simulation(self):
        config = _config()
        received = []

        def _blocking_submit(port):
            with ServiceClient(port=port) as client:
                received.append(client.submit(config, as_text=True))

        with ServiceThread(start_paused=True) as server:
            threads = [
                threading.Thread(target=_blocking_submit, args=(server.port,))
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            # Both submits must be admitted (and coalesced) before dispatch.
            deadline = time.monotonic() + 10
            with ServiceClient(port=server.port) as client:
                while time.monotonic() < deadline:
                    counters = client.stats()["counters"]
                    if counters["submitted"] + counters["coalesced"] == 2:
                        break
                    time.sleep(0.01)
                server.resume()
                for thread in threads:
                    thread.join(timeout=60)
                stats = client.stats()
        assert len(received) == 2
        assert received[0] == received[1] == _serial_bytes(config)
        assert stats["counters"]["simulations"] == 1
        assert stats["counters"]["coalesced"] == 1


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
class TestDispatch:
    def test_short_cell_is_not_held_behind_a_long_one(self):
        # The long cell needs about ten times the short one's wall time,
        # so it must still be running when the short one comes back.
        long_cell = ExperimentConfig(os_name="nt4", workload="office",
                                     duration_s=10.0, seed=1999)
        with ServiceThread(max_workers=2, start_paused=True) as server:
            with ServiceClient(port=server.port) as client:
                warm = client.submit_nowait(_config("nt4", "idle", seed=7))
                server.resume()
                client.result(warm)
                server.pause()
                long_job = client.submit_nowait(long_cell)
                short_job = client.submit_nowait(_config("nt4", "idle"))
                server.resume()
                client.result(short_job)
                long_state = client.status(long_job)["status"]
                client.result(long_job)
                execute = client.stats()["stages"]["execute"]
        assert long_state == "running"
        # Each job's execute time is its own: warm and short sit far
        # below the long cell, not at its time.
        assert execute["count"] == 3
        assert execute["p50_ms"] < execute["max_ms"] / 2

    def test_dead_pool_process_fails_jobs_instead_of_stranding_them(self):
        with ServiceThread(max_workers=1) as server:
            with ServiceClient(port=server.port, timeout=30) as client:
                client.submit(_config("nt4", "idle"))
                (pid,) = server.service._executor._processes
                job = client.submit_nowait(ExperimentConfig(
                    os_name="nt4", workload="office", duration_s=60.0))
                os.kill(pid, signal.SIGKILL)
                with pytest.raises(ServiceError) as killed:
                    client.result(job)
                # The broken pool refuses the next cell at submit time.
                with pytest.raises(ServiceError) as refused:
                    client.submit(_config("nt4", "idle", seed=5))
                failed = client.stats()["counters"]["failed"]
            server.stop(timeout=30)  # the drain has nothing left to wait on
        assert killed.value.code == refused.value.code == "failed"
        assert "BrokenProcessPool" in refused.value.message
        assert failed == 2


# ----------------------------------------------------------------------
# Job lifecycle: status, watch, cancel, deadlines
# ----------------------------------------------------------------------
class TestJobLifecycle:
    def test_status_of_queued_then_done_job(self):
        with ServiceThread(start_paused=True) as server:
            with ServiceClient(port=server.port) as client:
                job_id = client.submit_nowait(_config())
                status = client.status(job_id)
                assert status["status"] == "queued"
                assert status["position"] == 0
                server.resume()
                client.result(job_id)
                assert client.status(job_id)["status"] == "done"

    def test_watch_streams_states_to_done(self):
        with ServiceThread(start_paused=True) as server:
            with ServiceClient(port=server.port) as client:
                job_id = client.submit_nowait(_config())
                server.resume()
                states = list(client.watch(job_id))
        assert states[-1] == "done"
        assert states == sorted(set(states), key=states.index)  # no repeats

    def test_cancel_queued_job(self):
        with ServiceThread(start_paused=True) as server:
            with ServiceClient(port=server.port) as client:
                job_id = client.submit_nowait(_config())
                response = client.cancel(job_id)
                assert response["status"] == "cancelled"
                assert client.status(job_id)["status"] == "cancelled"
                with pytest.raises(ServiceError) as excinfo:
                    client.result(job_id)
                assert excinfo.value.code == "cancelled"
                assert client.stats()["counters"]["cancelled"] == 1

    def test_cancel_done_job_is_not_cancellable(self):
        with ServiceThread(start_paused=True) as server:
            with ServiceClient(port=server.port) as client:
                job_id = client.submit_nowait(_config())
                server.resume()
                client.result(job_id)  # wait until done
                with pytest.raises(ServiceError) as excinfo:
                    client.cancel(job_id)
                assert excinfo.value.code == "not-cancellable"

    def test_cached_submit_nowait_returns_no_job(self):
        with ServiceThread() as server:
            with ServiceClient(port=server.port) as client:
                client.submit(_config())
                assert client.submit_nowait(_config()) is None

    def test_stream_results_with_warm_store(self):
        # A mixed stream (some cached, some fresh) keeps input order.
        configs = [_config(seed=1), _config(seed=2)]
        with ServiceThread() as server:
            with ServiceClient(port=server.port) as client:
                warm = client.submit(configs[0], as_text=True)
                streamed = list(client.stream_results(configs, as_text=True))
        assert streamed[0] == warm
        assert streamed == [_serial_bytes(c) for c in configs]

    def test_unknown_job_is_not_found(self):
        with ServiceThread() as server:
            with ServiceClient(port=server.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.status("job-404")
                assert excinfo.value.code == "not-found"

    def test_deadline_expires_but_job_completes(self):
        config = _config()
        with ServiceThread(start_paused=True) as server:
            with ServiceClient(port=server.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(config, deadline_s=0.2)
                assert excinfo.value.code == "deadline"
                assert client.stats()["counters"]["deadline_expired"] == 1
                server.resume()
                # The job was not torn down with the deadline: the same
                # cell is still served (and still byte-exact) afterwards.
                assert client.submit(config, as_text=True) == _serial_bytes(config)


# ----------------------------------------------------------------------
# Protocol error paths over a live socket
# ----------------------------------------------------------------------
class TestWireErrors:
    def _raw(self, client, line: bytes) -> dict:
        client._file.write(line)
        client._file.flush()
        return json.loads(client._file.readline())

    def test_wrong_version_rejected(self):
        with ServiceThread() as server:
            with ServiceClient(port=server.port) as client:
                response = self._raw(client, b'{"v": 99, "verb": "stats"}\n')
        assert response["ok"] is False
        assert response["error"]["code"] == "unsupported-version"

    def test_unknown_verb_rejected(self):
        with ServiceThread() as server:
            with ServiceClient(port=server.port) as client:
                response = self._raw(
                    client,
                    json.dumps({"v": PROTOCOL_VERSION, "verb": "frobnicate",
                                "id": "r9"}).encode() + b"\n",
                )
        assert response["error"]["code"] == "bad-request"
        assert response["id"] == "r9"

    def test_malformed_config_rejected(self):
        with ServiceThread() as server:
            with ServiceClient(port=server.port) as client:
                response = self._raw(
                    client,
                    json.dumps({"v": PROTOCOL_VERSION, "verb": "submit",
                                "config": {"os_name": "win98"}}).encode() + b"\n",
                )
        assert response["error"]["code"] == "bad-request"

    # JSON true decodes to a bool, which Python counts as the int 1.
    @pytest.mark.parametrize("deadline", [-1, True])
    def test_bad_deadline_rejected(self, deadline):
        with ServiceThread() as server:
            with ServiceClient(port=server.port) as client:
                from repro.service.protocol import config_to_wire

                response = self._raw(
                    client,
                    json.dumps({
                        "v": PROTOCOL_VERSION, "verb": "submit",
                        "config": config_to_wire(_config()),
                        "wait": True, "deadline_s": deadline,
                    }).encode() + b"\n",
                )
        assert response["error"]["code"] == "bad-request"


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
class TestGracefulShutdown:
    def test_shutdown_drains_admitted_work_and_leaves_cache_clean(self, tmp_path):
        config = _config()
        with ServiceThread(cache_dir=tmp_path, start_paused=True) as server:
            with ServiceClient(port=server.port) as client:
                job_id = client.submit_nowait(config)
                # shutdown() resumes a paused dispatcher and drains.
                response = client.shutdown()
                assert response["status"] == "closed"
                assert response["drained"] == 1
                # The drained cell was persisted before the socket closed.
                entry = tmp_path / f"{cache_key(config)}.json"
                assert entry.exists()
                # New submits on a surviving connection are rejected:
                # either an explicit shutting-down answer (the handler is
                # still draining the connection) or -- once the loop has
                # torn the socket down -- a typed ServiceUnavailable.
                # Which one wins is a benign teardown race; succeeding is
                # the only wrong outcome.
                with pytest.raises(ServiceError) as excinfo:
                    client.submit_nowait(_config(seed=5))
                assert excinfo.value.code in ("shutting-down", "unavailable")
        assert not list(tmp_path.glob("*.tmp"))
        assert job_id  # admitted before the drain began
        # ...and the drained result is byte-exact.
        report = run_campaign([config], cache_dir=tmp_path)
        assert report.cache_hits == 1

    def test_new_connections_refused_after_drain(self):
        with ServiceThread() as server:
            port = server.port
            with ServiceClient(port=port) as client:
                client.submit(_config())
                client.shutdown()
            server.stop()
            with pytest.raises(OSError):
                ServiceClient(port=port, timeout=2.0)

    def test_shutdown_is_idempotent(self):
        with ServiceThread() as server:
            with ServiceClient(port=server.port) as client:
                client.shutdown()
            server.stop()  # second drain must be a no-op, not a hang

    @pytest.mark.parametrize("tier", [ExperimentService, FleetRouter])
    def test_drain_closes_its_own_connections(self, tier):
        # From Python 3.12.1 asyncio.Server.wait_closed() waits for every
        # open connection, so a drain must close idle ones itself -- and
        # must not wait for the one that asked it to drain.
        async def roundtrip(reader, writer, verb):
            writer.write(encode_message(request(verb, req_id=verb)))
            await writer.drain()
            return json.loads(await asyncio.wait_for(reader.readline(), 5))

        async def scenario():
            served = tier()
            await served.start()
            idle = await asyncio.open_connection("127.0.0.1", served.port)
            asker = await asyncio.open_connection("127.0.0.1", served.port)
            try:
                assert (await roundtrip(*idle, "heartbeat"))["alive"] is True
                assert (await roundtrip(*asker, "shutdown"))["status"] == "closed"
                assert await asyncio.wait_for(idle[0].read(), 5) == b""
                await asyncio.wait_for(served.wait_closed(), 5)
            finally:
                idle[1].close()
                asker[1].close()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# The CLI: python -m repro serve / submit (real processes, SIGTERM drain)
# ----------------------------------------------------------------------
class TestServeCli:
    @pytest.fixture()
    def server_process(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(tmp_path / "cache")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        banner = process.stdout.readline()
        assert "listening on" in banner, banner
        port = int(banner.rsplit(":", 1)[1])
        yield process, port
        if process.poll() is None:
            process.terminate()  # a drain also reaps the pool's workers
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
        process.wait(timeout=30)

    def test_submit_against_live_server_and_sigterm_drain(self, server_process):
        from repro.__main__ import main

        process, port = server_process
        rc = main(["submit", "--port", str(port), "--os", "win98",
                   "--workload", "idle", "--duration", "2"])
        assert rc == 0
        process.send_signal(signal.SIGTERM)
        stdout, _ = process.communicate(timeout=60)
        assert process.returncode == 0
        assert "drained and closed" in stdout

    def test_submit_json_output_is_byte_exact(self, server_process, capsys):
        from repro.__main__ import main

        _, port = server_process
        config = ExperimentConfig(os_name="win98", workload="idle",
                                  duration_s=2.0, seed=1999)
        rc = main(["submit", "--port", str(port), "--os", "win98",
                   "--workload", "idle", "--duration", "2", "--json"])
        assert rc == 0
        printed = capsys.readouterr().out.rstrip("\n")
        assert printed == _serial_bytes(config)

    def test_submit_without_server_fails_cleanly(self, capsys):
        from repro.__main__ import main

        rc = main(["submit", "--port", "1", "--duration", "2"])
        assert rc == 1
        assert "cannot reach service" in capsys.readouterr().err
