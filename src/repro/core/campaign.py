"""Parallel, memoized measurement campaigns.

The paper's experiment matrix is embarrassingly parallel: every cell is an
independent, seeded, bit-deterministic simulation (Figure 4 alone is
6 panel families x 4 workloads).  This module fans those cells across a
:class:`concurrent.futures.ProcessPoolExecutor` and memoizes finished
cells in a content-addressed on-disk cache, so that regenerating figures
after an analysis-side change costs seconds instead of re-simulating
hours.

Two properties make the cache sound:

* **Determinism** -- a cell is fully described by its frozen
  :class:`~repro.core.experiment.ExperimentConfig`; identical configs
  produce byte-identical :class:`~repro.core.samples.SampleSet`\\ s
  (asserted by ``tests/test_campaign.py``).
* **Content addressing** -- the cache key is the SHA-256 of a canonical
  JSON fingerprint of the whole config (every nested dataclass, enum and
  tuple) plus the code-calibration version.  Any config change, however
  deep, misses; any simulator behaviour change must bump
  :data:`CALIBRATION_VERSION` to invalidate the cache.

Merge order is deterministic: results always come back in input order, so
a parallel campaign is byte-identical to the same campaign run serially.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.experiment import ExperimentConfig, run_latency_experiment
from repro.core.export import sample_set_from_json, sample_set_to_json
from repro.core.samples import SampleSet

#: Bump whenever a simulator or calibration change alters what a given
#: ExperimentConfig produces (new intrusion model, retuned workload
#: magnitudes, engine ordering change...).  Cached results from older
#: versions are then never served.
CALIBRATION_VERSION = 1

#: On-disk layout version of the cache files themselves.  ``/2`` files
#: carry ``repro.sample_set/2`` text; a ``/1`` file (per-sample v1 text)
#: is a clean miss and gets rewritten, never served.
CACHE_SCHEMA = "repro.campaign_cache/2"


# ----------------------------------------------------------------------
# Config fingerprinting
# ----------------------------------------------------------------------
#: Types :func:`_jsonable` returns as they are.  Exact types only: an
#: ``IntEnum`` is an ``int`` but must still reduce as an enum.
_PRIMITIVES = frozenset((str, int, float, bool, type(None)))

#: Field names per type :func:`_jsonable` has met; ``None`` marks a type
#: that is not a dataclass.
_FIELD_NAMES: Dict[type, Optional[Tuple[str, ...]]] = {}


def _jsonable(value):
    """Reduce a config value to canonical JSON-compatible primitives.

    Dataclasses carry their class name so two config types with the same
    field values cannot collide; enums reduce to their value; tuples and
    lists both reduce to lists (configs use tuples for immutability only).
    """
    kind = type(value)
    if kind in _PRIMITIVES:
        return value
    try:
        names = _FIELD_NAMES[kind]
    except KeyError:
        names = _FIELD_NAMES[kind] = (
            tuple(f.name for f in dataclasses.fields(kind))
            if dataclasses.is_dataclass(kind) else None
        )
    if names is not None:
        payload = {"__dataclass__": kind.__name__}
        for name in names:
            payload[name] = _jsonable(getattr(value, name))
        return payload
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "value": value.value}
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot fingerprint {type(value).__name__!r} in an ExperimentConfig; "
        "add a reduction to repro.core.campaign._jsonable"
    )


def config_fingerprint(config: ExperimentConfig) -> str:
    """Canonical JSON fingerprint of one experiment cell.

    Includes :data:`CALIBRATION_VERSION`, so bumping it invalidates every
    previously cached result.
    """
    payload = {
        "calibration_version": CALIBRATION_VERSION,
        "config": _jsonable(config),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cache_key(config: ExperimentConfig) -> str:
    """Content address of one cell: SHA-256 hex of its fingerprint."""
    return _fingerprint_key(config_fingerprint(config))


def _fingerprint_key(fingerprint: str) -> str:
    return hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()


def json_literal(serialized: str) -> bytes:
    """``serialized`` as the quoted JSON string literal that cache files and
    result messages carry, escaped with ``json.dumps`` defaults (ASCII)."""
    return json.dumps(serialized).encode("ascii")


# ----------------------------------------------------------------------
# The on-disk cache
# ----------------------------------------------------------------------
class CampaignCache:
    """Content-addressed store of finished campaign cells.

    One JSON file per cell, named by :func:`cache_key`: the
    :data:`CACHE_SCHEMA` tag, the config fingerprint and the cell's
    :func:`~repro.core.export.sample_set_to_json` text.  Files carry the
    full fingerprint, which is re-verified on load so a (cosmically
    unlikely) hash collision or a hand-edited file can never serve wrong
    data.  Writes are atomic (temp file + rename) so a parallel campaign
    and a concurrent reader never see a torn file.

    A file that cannot be parsed at all (a writer killed on a filesystem
    without atomic rename, disk corruption, a hand-truncated entry) is
    *quarantined* -- renamed to ``<key>.corrupt`` -- and treated as a
    miss, so one bad entry can never take down a whole campaign.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise NotADirectoryError(
                f"cache dir {self.root} exists and is not a directory"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside to ``<key>.corrupt`` (best effort)."""
        self.quarantined += 1
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            pass

    def _load_serialized(self, config: ExperimentConfig) -> Optional[str]:
        """Return the stored ``sample_set`` JSON text for ``config``.

        Any unreadable / unparsable / structurally wrong file is
        quarantined and reported as a miss; only a clean fingerprint
        match returns data.
        """
        fingerprint = config_fingerprint(config)
        path = self._path(_fingerprint_key(fingerprint))
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError:
            self._quarantine(path)
            return None
        try:
            payload = json.loads(text)
            if (
                payload.get("schema") != CACHE_SCHEMA
                or payload.get("fingerprint") != fingerprint
            ):
                # Well-formed but not ours (schema bump, hash collision,
                # hand-edited): a plain miss, not corruption.
                return None
            serialized = payload["sample_set"]
            if not isinstance(serialized, str):
                raise KeyError("sample_set")
        except (json.JSONDecodeError, KeyError, AttributeError, TypeError):
            self._quarantine(path)
            return None
        return serialized

    def get_serialized(self, config: ExperimentConfig) -> Optional[str]:
        """Cached :func:`sample_set_to_json` text for ``config``, or ``None``.

        The byte-exact form :func:`put` stored -- the serving layer escapes
        it once into its :func:`json_literal` and never decodes the
        sample set itself.
        """
        serialized = self._load_serialized(config)
        if serialized is None:
            self.misses += 1
            return None
        self.hits += 1
        return serialized

    def get(self, config: ExperimentConfig) -> Optional[SampleSet]:
        """Return the cached SampleSet for ``config``, or ``None``."""
        serialized = self._load_serialized(config)
        if serialized is None:
            self.misses += 1
            return None
        try:
            sample_set = sample_set_from_json(serialized)
        except ValueError:
            self._quarantine(self._path(cache_key(config)))
            self.misses += 1
            return None
        self.hits += 1
        return sample_set

    def put(self, config: ExperimentConfig, sample_set: SampleSet) -> Path:
        """Store a finished cell (atomic; safe under concurrent writers)."""
        return self.put_serialized(config, sample_set_to_json(sample_set))

    def put_serialized(self, config: ExperimentConfig, serialized: str) -> Path:
        """Store an already-serialized cell (atomic; concurrent-writer safe)."""
        return self.put_literal(config, json_literal(serialized))

    def put_literal(self, config: ExperimentConfig, literal: bytes) -> Path:
        """Store a cell given as its :func:`json_literal`, spliced in as is.

        The file is byte-identical to ``json.dumps`` (default separators)
        of the entry with the decoded text as its last field, so the
        sample set is escaped once, by whoever made the literal.
        """
        fingerprint = config_fingerprint(config)
        path = self._path(_fingerprint_key(fingerprint))
        head = json.dumps({"schema": CACHE_SCHEMA, "fingerprint": fingerprint})
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(head[:-1].encode("ascii"))
                handle.write(b', "sample_set": ')
                handle.write(literal)
                handle.write(b"}")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def _run_cell(config: ExperimentConfig) -> SampleSet:
    """Worker-side body: one cell, SampleSet only.

    The full :class:`ExperimentResult` holds the live OS object graph
    (generators, machine state), which cannot cross a process boundary;
    the SampleSet is everything the figures need.
    """
    return run_latency_experiment(config).sample_set


@dataclass
class CampaignReport:
    """Bookkeeping for one :func:`run_campaign` call."""

    configs: Tuple[ExperimentConfig, ...]
    sample_sets: List[SampleSet] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    jobs: int = 1

    def __iter__(self):
        return iter(self.sample_sets)


def run_campaign(
    configs: Sequence[ExperimentConfig],
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
) -> CampaignReport:
    """Run every cell, fanning misses across processes, memoizing results.

    Args:
        configs: The cells, in the order results should come back.
        jobs: Worker processes for uncached cells.  ``jobs <= 1`` runs
            serially in-process (no executor spawned).
        cache_dir: Enables the on-disk cache rooted there.

    Returns:
        A :class:`CampaignReport` whose ``sample_sets`` list matches
        ``configs`` element-for-element -- the merge order is the input
        order regardless of which worker finished first, so parallel
        output is byte-identical to serial output.
    """
    configs = tuple(configs)
    cache = CampaignCache(cache_dir) if cache_dir is not None else None
    results: List[Optional[SampleSet]] = [None] * len(configs)

    pending: List[int] = []
    for index, config in enumerate(configs):
        cached = cache.get(config) if cache is not None else None
        if cached is not None:
            results[index] = cached
        else:
            pending.append(index)

    if pending:
        if jobs > 1 and len(pending) > 1:
            workers = min(jobs, len(pending))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for index, sample_set in zip(
                    pending, pool.map(_run_cell, [configs[i] for i in pending])
                ):
                    results[index] = sample_set
        else:
            for index in pending:
                results[index] = _run_cell(configs[index])
        if cache is not None:
            for index in pending:
                cache.put(configs[index], results[index])

    return CampaignReport(
        configs=configs,
        sample_sets=list(results),  # type: ignore[arg-type]
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=len(pending),
        jobs=jobs,
    )


def run_sample_matrix(
    os_names: Sequence[str] = ("nt4", "win98"),
    workloads: Sequence[str] = ("office", "workstation", "games", "web"),
    duration_s: float = 30.0,
    seed: int = 1999,
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
) -> Dict[Tuple[str, str], SampleSet]:
    """The OS x workload matrix (Figure 4 grid) through the campaign runner.

    The campaign-layer counterpart of
    :func:`repro.core.experiment.run_matrix`: returns SampleSets only,
    which is what every figure consumes, and in exchange can parallelize
    and memoize.
    """
    configs = [
        ExperimentConfig(
            os_name=os_name, workload=workload, duration_s=duration_s, seed=seed
        )
        for os_name in os_names
        for workload in workloads
    ]
    report = run_campaign(configs, jobs=jobs, cache_dir=cache_dir)
    return {
        (config.os_name, config.workload): sample_set
        for config, sample_set in zip(report.configs, report.sample_sets)
    }
