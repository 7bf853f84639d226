"""The fleet under test, run as the README fleet quickstart runs it.

One ``python -m repro route`` and one ``python -m repro serve --jobs 2
--register ...`` subprocess share a fresh store directory.  Every other
knob stays at its default.  This module starts them, waits until the
worker is live and its pool has run one throwaway cell, accounts CPU and
peak RSS per process from ``/proc``, and stops them with SIGTERM and a
bounded wait.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.experiment import ExperimentConfig
from repro.service import ServiceClient

#: The worker's pool size: the fleet quickstart sized to a 2-core host.
POOL_JOBS = 2

#: Throwaway cell run once per start so the pool is warm before timing.
#: Its duration differs from every workload cell, so it never collides.
WARM_CELL = ExperimentConfig(os_name="nt4", workload="idle", duration_s=0.25)

_START_TIMEOUT_S = 60.0
_DRAIN_TIMEOUT_S = 30.0


def _read_banner(proc: subprocess.Popen, deadline: float) -> int:
    """Port from the ``repro <tier> listening on HOST:PORT`` line."""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError(f"pid {proc.pid} printed no banner in time")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if not ready:
            continue
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"pid {proc.pid} exited before listening "
                               f"(code {proc.wait()})")
        if " listening on " in line:
            return int(line.rsplit(":", 1)[1])


def _proc_stat(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    # Fields after the parenthesised command name, which may hold spaces.
    return text[text.rindex(")") + 2:].split()


def cpu_seconds(pid: int) -> float:
    """CPU time run so far by every thread of one live process.

    ``schedstat`` counts nanoseconds on the CPU; the tick-sampled
    ``utime``/``stime`` of ``/proc/<pid>/stat`` are too coarse for
    sub-second units.
    """
    total = 0
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0.0
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except OSError:
            pass  # the thread ended between the listing and the read
    return total / 1e9


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of one live process in MB (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (the worker's pool processes)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _proc_stat(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def host_noise() -> Dict[str, float]:
    """Hypervisor steal jiffies and the 1-minute load average, right now."""
    with open("/proc/stat") as handle:
        cpu = handle.readline().split()
    with open("/proc/loadavg") as handle:
        load1 = float(handle.read().split()[0])
    return {"steal_jiffies": int(cpu[8]), "total_jiffies": sum(map(int, cpu[1:])),
            "load1": load1}


class Fleet:
    """A router plus one registered worker on one store directory."""

    def __init__(self, src_dir: Path, store_dir: Path, log_dir: Path):
        self.src_dir = src_dir
        self.store_dir = store_dir
        self.log_dir = log_dir
        self.router: Optional[subprocess.Popen] = None
        self.worker: Optional[subprocess.Popen] = None
        self.router_port: Optional[int] = None
        self.worker_port: Optional[int] = None
        self.pool_pids: List[int] = []

    def _spawn(self, name: str, *args: str) -> subprocess.Popen:
        env = dict(os.environ, PYTHONPATH=str(self.src_dir))
        with open(self.log_dir / f"{name}.err", "ab") as err:
            return subprocess.Popen(
                [sys.executable, "-m", "repro", *args, "--cache-dir",
                 str(self.store_dir)],
                stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL,
                text=True, env=env,
            )

    def start(self) -> None:
        """Spawn both tiers; return once a throwaway cell went through."""
        deadline = time.monotonic() + _START_TIMEOUT_S
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.router = self._spawn("router", "route")
        self.router_port = _read_banner(self.router, deadline)
        self.worker = self._spawn(
            "worker", "serve", "--jobs", str(POOL_JOBS),
            "--register", f"127.0.0.1:{self.router_port}",
        )
        self.worker_port = _read_banner(self.worker, deadline)
        with self.client() as client:
            while client.fleet_stats()["registry"]["live"] < 1:
                if time.monotonic() > deadline:
                    raise RuntimeError("worker never registered with the router")
                time.sleep(0.005)
            client.submit(WARM_CELL, as_text=True)
        self.pool_pids = descendants(self.worker.pid)

    def client(self) -> ServiceClient:
        return ServiceClient(port=self.router_port, timeout=120.0)

    def pids(self) -> Dict[str, List[int]]:
        """Process ids by role, the benchmark process included."""
        return {"client": [os.getpid()], "router": [self.router.pid],
                "worker": [self.worker.pid], "pool": list(self.pool_pids)}

    def cpu(self) -> Dict[str, float]:
        """CPU seconds so far per role."""
        usage = {role: sum(cpu_seconds(pid) for pid in pids)
                 for role, pids in self.pids().items() if role != "client"}
        usage["client"] = time.process_time()
        return usage

    def peak_rss_mb(self) -> float:
        """The largest peak RSS of any process in the run."""
        return max(peak_rss_mb(pid) for pids in self.pids().values()
                   for pid in pids)

    def stop(self) -> bool:
        """SIGTERM both tiers; True if both drained within the bound."""
        procs = [p for p in (self.worker, self.router) if p is not None]
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + _DRAIN_TIMEOUT_S
        drained = True
        for proc in procs:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                drained = False
                proc.kill()
                proc.wait()
            proc.stdout.close()
        drained = drained and all(p.returncode == 0 for p in procs)
        # Pool processes exit with their worker; reap stragglers if not.
        for pid in self.pool_pids:
            fields = _proc_stat(pid)
            if fields is not None and fields[0] != "Z":
                drained = False
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        return drained
