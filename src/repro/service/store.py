"""The result store: content-addressed persistence plus a hot LRU.

Layered on :class:`~repro.core.campaign.CampaignCache`, so every cell the
service ever serves is also a normal cache entry -- replayable offline by
``run_campaign(..., cache_dir=...)`` and byte-identical to what went over
the wire.  On top sits a small in-process LRU of serialized cells, so a
popular config is served from memory without touching disk or JSON.

A result is escaped exactly once, when it enters the store (a
:meth:`~ResultStore.put`, a disk hit, or a router relay, which goes to
the LRU only through :meth:`~ResultStore.remember`): the LRU keeps its
:func:`~repro.core.campaign.json_literal`, one object per entry and in
place of the text, and every cache file and reply that carries the
result splices that literal in (:meth:`CampaignCache.put_literal
<repro.core.campaign.CampaignCache.put_literal>`,
:func:`~repro.service.protocol.encode_message`).  The serving path never
decodes and re-encodes a sample set, which is both faster and what makes
the byte-identical determinism guarantee trivial to uphold.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Union

from repro.core.campaign import CampaignCache, cache_key, json_literal
from repro.core.experiment import ExperimentConfig


class ResultStore:
    """Serialized-cell store: optional disk tier under a hot LRU."""

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        hot_capacity: int = 64,
    ):
        if hot_capacity < 0:
            raise ValueError(f"hot_capacity must be >= 0, got {hot_capacity}")
        self.cache = CampaignCache(cache_dir) if cache_dir is not None else None
        self.hot_capacity = hot_capacity
        self._hot: "OrderedDict[str, bytes]" = OrderedDict()
        self.hot_hits = 0
        self.disk_hits = 0
        self.misses = 0

    def get(self, config: ExperimentConfig, key: Optional[str] = None) -> Optional[str]:
        """Serialized sample-set JSON for ``config``, or ``None``."""
        literal = self.get_literal(config, key=key)
        return None if literal is None else json.loads(literal)

    def get_literal(
        self, config: ExperimentConfig, key: Optional[str] = None
    ) -> Optional[bytes]:
        """The stored cell as its JSON string literal, or ``None``.

        A disk hit escapes the stored text once and keeps the literal hot.
        """
        key = key if key is not None else cache_key(config)
        hot = self._hot.get(key)
        if hot is not None:
            self._hot.move_to_end(key)
            self.hot_hits += 1
            return hot
        if self.cache is not None:
            serialized = self.cache.get_serialized(config)
            if serialized is not None:
                self.disk_hits += 1
                literal = json_literal(serialized)
                self.remember(key, literal)
                return literal
        self.misses += 1
        return None

    def put(
        self,
        config: ExperimentConfig,
        serialized: str,
        key: Optional[str] = None,
    ) -> bytes:
        """Persist a finished cell (disk write is atomic) and warm the LRU.

        Returns the cell's JSON string literal: the one object the LRU
        keeps for it, which a caller holding on to the result shares.
        """
        key = key if key is not None else cache_key(config)
        literal = json_literal(serialized)
        if self.cache is not None:
            self.cache.put_literal(config, literal)
        self.remember(key, literal)
        return literal

    def remember(self, key: str, literal: bytes) -> None:
        """Keep ``literal`` in the hot LRU only; the disk tier is untouched."""
        if self.hot_capacity == 0:
            return
        self._hot[key] = literal
        self._hot.move_to_end(key)
        while len(self._hot) > self.hot_capacity:
            self._hot.popitem(last=False)

    @property
    def hot_size(self) -> int:
        return len(self._hot)

    def stats(self) -> dict:
        return {
            "hot_size": self.hot_size,
            "hot_capacity": self.hot_capacity,
            "hot_hits": self.hot_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "persistent": self.cache is not None,
        }
