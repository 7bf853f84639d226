"""Workload inputs and the correctness gate.

Inputs are made from the benchmark seed alone; the program only ever
sees the resulting :class:`ExperimentConfig` cells.  The default seed
leaves the scenario corpus exactly as written, and any other seed remaps
every cell's seed (and the replay order) through a hash, so duplicate
cells stay duplicates and distinct cells stay distinct.

Every delivered sample set is checked with the sample-stream digest the
golden-fingerprint tests use: against pinned digests at the default seed,
and against a serial ``run_latency_experiment`` reference otherwise.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.campaign import CampaignCache, cache_key
from repro.core.experiment import ExperimentConfig, run_latency_experiment
from repro.core.export import sample_set_to_json
from repro.kernel.boot import OS_NAMES
from repro.scenarios import load_scenario
from repro.workloads.base import workload_names

#: The seed at which the corpus runs exactly as written.
DEFAULT_SEED = 1999

#: interactive-cold cycles through every OS x workload pair.
PAIRS = tuple((os_name, workload) for os_name in OS_NAMES
              for workload in workload_names())

#: Simulated seconds of one interactive cell (after the default warmup).
INTERACTIVE_DURATION_S = 1.0

#: Simulated seconds every cell is shrunk to in the harness self-test.
TOY_DURATION_S = 0.5

PINS_PATH = Path(__file__).with_name("pins.json")

#: Processes that compute reference digests (and fill the hot store).
REFERENCE_PROCS = 2


def load_corpus(root: Path) -> List[ExperimentConfig]:
    """Every cell of the scenario corpus, in file and document order."""
    paths = sorted((root / "scenarios").glob("*.yaml"))
    if not paths:
        raise FileNotFoundError(f"no scenario specs under {root / 'scenarios'}")
    return [config for path in paths for config in load_scenario(path).configs]


def remap_seed(bench_seed: int, unit: int, cell_seed: int) -> int:
    """The seed a cell runs with in unit ``unit`` of a run."""
    if bench_seed == DEFAULT_SEED and unit == 0:
        return cell_seed
    token = f"{bench_seed}/{unit}/{cell_seed}".encode()
    return int.from_bytes(hashlib.sha256(token).digest()[:4], "big") >> 1


def corpus_unit(corpus: Sequence[ExperimentConfig], bench_seed: int, unit: int,
                toy: bool = False) -> List[ExperimentConfig]:
    """One corpus sweep; every unit of a run is a fresh, cold sweep."""
    overrides = {"duration_s": TOY_DURATION_S} if toy else {}
    return [config.with_overrides(seed=remap_seed(bench_seed, unit, config.seed),
                                  **overrides)
            for config in corpus]


def interactive_unit(bench_seed: int, unit: int,
                     toy: bool = False) -> List[ExperimentConfig]:
    """One cycle of distinct short cells, one per OS x workload pair."""
    seed = remap_seed(bench_seed, 0, DEFAULT_SEED + unit)
    duration = TOY_DURATION_S if toy else INTERACTIVE_DURATION_S
    return [ExperimentConfig(os_name=os_name, workload=workload,
                             duration_s=duration, seed=seed)
            for os_name, workload in PAIRS]


def digest(sample_set) -> str:
    """SHA-256 over every timestamp of every sample, in sample order."""
    h = hashlib.sha256()
    for s in sample_set.iter_samples():
        h.update(repr((s.seq, s.priority, s.t_read, s.delay_cycles,
                       s.t_assert, s.t_isr, s.t_dpc, s.t_thread)).encode())
    return h.hexdigest()


def reference_digest(config: ExperimentConfig,
                     store_dir: Optional[str] = None) -> str:
    """Digest of one cell run in-process; optionally store it as a worker would."""
    sample_set = run_latency_experiment(config).sample_set
    if store_dir is not None:
        CampaignCache(store_dir).put_serialized(config, sample_set_to_json(sample_set))
    return digest(sample_set)


def reference_digests(configs: Iterable[ExperimentConfig],
                      store_dir: Optional[Path] = None) -> Dict[str, str]:
    """Digest per distinct cell, each computed serially by one reference process."""
    distinct = {cache_key(config): config for config in configs}
    # Fork, not spawn: the benchmark runs no threads when it calls this,
    # and a spawn pool leaves a resource-tracker process running after
    # the pool itself has shut down.
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(REFERENCE_PROCS, mp_context=context) as pool:
        digests = pool.map(reference_digest, distinct.values(),
                           [None if store_dir is None else str(store_dir)] * len(distinct))
        return dict(zip(distinct, digests))


def load_pins() -> Dict[str, str]:
    try:
        return json.loads(PINS_PATH.read_text())
    except FileNotFoundError:
        return {}


def expected_digests(configs: Iterable[ExperimentConfig], bench_seed: int,
                     known: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Pinned digests at the default seed; a serial reference for the rest.

    ``known`` holds reference digests computed earlier in the run.
    """
    pins = load_pins() if bench_seed == DEFAULT_SEED else {}
    pins = {**(known or {}), **pins}
    keys = {cache_key(config): config for config in configs}
    expected = {key: pins[key] for key in keys if key in pins}
    missing = [config for key, config in keys.items() if key not in expected]
    if missing:
        expected.update(reference_digests(missing))
    return expected
