#!/usr/bin/env python
"""CI smoke for the fleet tier: router + 2 workers, failover, restart, drain.

Boots a real ``python -m repro route`` subprocess plus two
``python -m repro serve --register`` worker subprocesses sharing one
result-store directory, then checks the fleet acceptance criteria over
real TCP.  Worker ``w1`` binds every interface (``--host 0.0.0.0``, no
``--advertise-host``), the way a worker on another machine would run.

1. Both workers register and go live on the router's hash ring, and the
   router holds a dialable host for ``w1``, not ``0.0.0.0``.
2. A mixed batch submitted *through the router* is byte-identical to a
   serial ``run_campaign`` of the same configs.
3. SIGTERM of one worker drains cleanly (exit 0, drain banner) and a
   cell owned by the dead worker fails over to the survivor -- still
   byte-identical.
4. The drained worker, relaunched under the same ``--name``, registers
   again and takes back its keys: a fresh cell it owns is forwarded to
   it, byte-identical, with no failover.
5. The shared cache directory ends consistent (no ``.tmp`` leftovers),
   and both workers and the router drain cleanly.

Exit status is non-zero on any violation, so CI can run this file
directly.
"""

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.campaign import cache_key, run_campaign  # noqa: E402
from repro.core.experiment import ExperimentConfig  # noqa: E402
from repro.core.export import sample_set_to_json  # noqa: E402
from repro.fleet import HashRing  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

DURATION_S = 1.0
BATCH = [
    ExperimentConfig(os_name="win98", workload="games",
                     duration_s=DURATION_S, seed=1999),
    ExperimentConfig(os_name="nt4", workload="office",
                     duration_s=DURATION_S, seed=1999),
    ExperimentConfig(os_name="win98", workload="office",
                     duration_s=DURATION_S, seed=2000),
]
WORKER_NAMES = ("w0", "w1")
#: Bound to every interface; it must advertise a host the router can dial.
WILDCARD_WORKER = "w1"


def _spawn(argv, env):
    return subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )


def _port_from_banner(process, what):
    banner = process.stdout.readline().strip()
    print(banner)
    assert "listening on" in banner, f"bad {what} banner: {banner!r}"
    return int(banner.rsplit(":", 1)[1])


def _wait_live(router_port, expected, deadline_s=30.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        with ServiceClient(port=router_port) as client:
            live = client.fleet_stats()["registry"]["live"]
        if live >= expected:
            return
        time.sleep(0.1)
    raise AssertionError(f"fleet never reached {expected} live workers")


def _counters(router_port):
    """(per-worker forwards, router failovers) as the router sees them."""
    with ServiceClient(port=router_port) as client:
        fleet = client.fleet_stats()
    forwards = {w["name"]: w["forwards"] for w in fleet["registry"]["workers"]}
    return forwards, fleet["router"]["counters"]["failovers"]


def _drain(process, what):
    """SIGTERM ``process`` and assert the clean-drain contract."""
    process.send_signal(signal.SIGTERM)
    stdout, _ = process.communicate(timeout=120)
    tail = stdout.strip().splitlines()
    print(f"[{what}] " + (tail[-1] if tail else "<no output>"))
    assert process.returncode == 0, f"{what} exited {process.returncode}"
    assert "drained and closed" in stdout, f"no drain banner from {what}"


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    serial = [sample_set_to_json(s) for s in run_campaign(BATCH)]
    procs = []
    with tempfile.TemporaryDirectory(prefix="repro-fleet-smoke-") as cache_dir:
        try:
            router = _spawn(
                [sys.executable, "-m", "repro", "route", "--port", "0",
                 "--cache-dir", cache_dir,
                 "--heartbeat-interval", "0.3", "--heartbeat-timeout", "3.0"],
                env,
            )
            procs.append(router)
            router_port = _port_from_banner(router, "router")

            def launch(name):
                bind = ["--host", "0.0.0.0"] if name == WILDCARD_WORKER else []
                worker = _spawn(
                    [sys.executable, "-m", "repro", "serve", "--port", "0",
                     "--cache-dir", cache_dir,
                     "--register", f"127.0.0.1:{router_port}",
                     "--name", name, *bind],
                    env,
                )
                procs.append(worker)
                _port_from_banner(worker, name)
                return worker

            workers = {name: launch(name) for name in WORKER_NAMES}

            _wait_live(router_port, expected=len(WORKER_NAMES))
            with ServiceClient(port=router_port) as client:
                fleet = client.fleet_stats()
            hosts = {w["name"]: w["host"] for w in fleet["registry"]["workers"]}
            assert hosts[WILDCARD_WORKER] not in ("0.0.0.0", ""), \
                f"{WILDCARD_WORKER} advertised its wildcard bind ({hosts})"
            print(f"fleet live: {len(WORKER_NAMES)} workers registered "
                  f"(hosts={hosts})")

            with ServiceClient(port=router_port) as client:
                served = [client.submit(config, as_text=True)
                          for config in BATCH]
                fleet = client.fleet_stats()
            assert served == serial, \
                "routed bytes differ from serial run_campaign"
            forwards = {w["name"]: w["forwards"]
                        for w in fleet["registry"]["workers"]}
            print(f"mixed batch byte-identical through router: OK "
                  f"(forwards={forwards})")

            # A fresh cell whose ring owner we kill before it ever runs:
            # the router must fail the key over to the survivor.  The
            # ring is content-derived, so this mirror predicts the owner.
            ring = HashRing()
            for name in WORKER_NAMES:
                ring.add(name)
            failover_cell = ExperimentConfig(
                os_name="nt4", workload="games",
                duration_s=DURATION_S, seed=4242,
            )
            victim = ring.lookup(cache_key(failover_cell))
            _drain(workers[victim], victim)
            print(f"worker {victim} (owner of the failover cell) drained "
                  "cleanly on SIGTERM")

            with ServiceClient(port=router_port) as client:
                failover = client.submit(failover_cell, as_text=True)
                fleet = client.fleet_stats()
            expected = sample_set_to_json(
                run_campaign([failover_cell]).sample_sets[0]
            )
            assert failover == expected, \
                "failover bytes differ from serial run_campaign"
            states = {w["name"]: w["state"]
                      for w in fleet["registry"]["workers"]}
            assert states[victim] == "down", \
                f"router never observed {victim} dying (states={states})"
            print(f"failover byte-identical via survivor: OK "
                  f"(states={states})")

            # Restart the victim under its old name: registering again is
            # its only way back, and its keys must come straight back.
            forwards, failovers = _counters(router_port)
            workers[victim] = launch(victim)
            _wait_live(router_port, expected=len(WORKER_NAMES))
            seed = 5000
            while True:
                restart_cell = ExperimentConfig(
                    os_name="win98", workload="games",
                    duration_s=DURATION_S, seed=seed,
                )
                if ring.lookup(cache_key(restart_cell)) == victim:
                    break
                seed += 1
            with ServiceClient(port=router_port) as client:
                restarted = client.submit(restart_cell, as_text=True)
            expected = sample_set_to_json(
                run_campaign([restart_cell]).sample_sets[0]
            )
            assert restarted == expected, \
                "bytes from the restarted worker differ from serial run_campaign"
            forwards_after, failovers_after = _counters(router_port)
            assert forwards_after[victim] == forwards[victim] + 1, \
                f"{victim} did not take its own key back ({forwards_after})"
            assert failovers_after == failovers, \
                f"failovers moved {failovers} -> {failovers_after}"
            print(f"restarted {victim} re-registered and served its key: OK "
                  f"(seed={seed}, forwards={forwards_after})")

            leftovers = list(Path(cache_dir).glob("*.tmp"))
            assert not leftovers, f"fleet leaked temp files: {leftovers}"
            entries = list(Path(cache_dir).glob("*.json"))
            assert len(entries) == len(BATCH) + 2, \
                f"expected {len(BATCH) + 2} cache entries, got {len(entries)}"
            print("shared result store consistent: OK")

            for name in WORKER_NAMES:
                _drain(workers[name], name)
            _drain(router, "router")
        finally:
            for process in procs:
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=30)
    print("fleet smoke: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
