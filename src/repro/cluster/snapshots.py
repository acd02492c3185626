"""Snapshot exchange: how plan caches survive their worker.

Workers periodically publish each owned template's plan cache to a
shared directory using the checksummed crash-atomic
:class:`~repro.core.persistence.CacheFile` format (temp file +
fsync + rename + directory fsync).  A replacement worker — or a peer
inheriting a dead worker's partition — warm-starts by loading the
latest published snapshot, which restores the instance list and
shrunken memos and therefore almost all of the optimizer-call
investment: the chaos gate bounds a warm start at ≤20% of a cold
start's optimizer calls.

Corruption is tolerated by construction: ``load_or_none`` treats a
damaged or missing file as "no snapshot" (counted, never fatal), so a
fault injector garbling the directory degrades recovery to a cold
start instead of wedging it.
"""

from __future__ import annotations

import os
import threading
from typing import Optional

from ..core.persistence import CacheFile
from ..core.plan_cache import PlanCache

SNAPSHOT_SUFFIX = ".cache.json"


class SnapshotStore:
    """A directory of per-template cache snapshots shared by the fleet.

    One file per template (``<dir>/<template>.cache.json``): the *latest*
    publish wins, regardless of which worker wrote it — after a failover
    the inheriting peer's publishes simply continue the lineage.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        self.publishes = 0
        self.loads = 0
        self.corrupt_loads = 0

    def path_for(self, template_name: str) -> str:
        return os.path.join(self.directory, template_name + SNAPSHOT_SUFFIX)

    def publish_text(self, template_name: str, text: str) -> int:
        """Atomically publish one template's serialized cache (a
        :func:`~repro.core.persistence.dump_cache` text, which callers
        holding a shard lock produce under it); returns bytes written."""
        n = CacheFile(self.path_for(template_name)).save_text(text)
        with self._lock:
            self.publishes += 1
        return n

    def load(self, template_name: str) -> Optional[PlanCache]:
        """The latest published cache, or None (missing *or* corrupt).

        A corrupt snapshot is counted in ``corrupt_loads`` and reported
        as absent: warm-start degrades to cold-start, never crashes.
        """
        path = self.path_for(template_name)
        if not os.path.exists(path):
            return None
        cache = CacheFile(path).load_or_none()
        with self._lock:
            if cache is None:
                self.corrupt_loads += 1
            else:
                self.loads += 1
        return cache

    def published_templates(self) -> list[str]:
        return sorted(
            name[: -len(SNAPSHOT_SUFFIX)]
            for name in os.listdir(self.directory)
            if name.endswith(SNAPSHOT_SUFFIX)
        )

    def corrupt(self, template_name: str, garbage: bytes = b"\x00corrupt") -> None:
        """Deliberately damage a snapshot (fault injection only)."""
        path = self.path_for(template_name)
        if os.path.exists(path):
            with open(path, "r+b") as f:
                f.seek(max(0, os.path.getsize(path) // 2))
                f.write(garbage)
