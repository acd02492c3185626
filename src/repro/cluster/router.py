"""Consistent-hash routing of templates onto worker processes.

Partitioning by template keeps each template's plan cache, single-flight
table and λ accounting on exactly one live worker, so the per-template
guarantees of the single-process tier carry over unchanged.  The ring
uses virtual nodes so small clusters still partition evenly, and the
consistent-hash property bounds reshuffling: a worker death moves only
the dead worker's templates, each to the next live node on the ring —
the surviving workers' partitions are untouched, which is what makes
warm peers useful (their caches stay hot through a neighbour's crash).

Hashing is SHA-1 over stable strings, so the mapping is deterministic
across processes and runs — the supervisor, the tests and an operator
reading logs all compute the same owner for a template.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Optional, Sequence

DEFAULT_VNODES = 64


def _ring_hash(key: str) -> int:
    return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring over named nodes with virtual nodes.

    ``owner(key, alive)`` walks clockwise from the key's hash to the
    first *live* node, so failover routing needs no ring rebuild: the
    dead node's ranges fall through to their ring successors and
    everything else stays put.
    """

    def __init__(self, nodes: Sequence[str], vnodes: int = DEFAULT_VNODES) -> None:
        if not nodes:
            raise ValueError("HashRing needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node names on the ring")
        self.nodes = tuple(nodes)
        self.vnodes = vnodes
        points: list[tuple[int, str]] = []
        for node in nodes:
            for i in range(vnodes):
                points.append((_ring_hash(f"{node}#{i}"), node))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [n for _, n in points]
        self._all = frozenset(nodes)
        # (alive set, {key: owner}): swapped whole when the alive set
        # changes, so a racing reader never files an owner under the
        # wrong set.  Keys are template names, a bounded set.
        self._memo: tuple[frozenset, dict[str, str]] = (self._all, {})

    def owner(self, key: str, alive: Optional[Iterable[str]] = None) -> str:
        """The live node owning ``key``.

        ``alive=None`` means every node is live.  Raises ``LookupError``
        when no live node remains (total outage — callers shed).
        Memoised per key for the most recent alive set.
        """
        live = self._all if alive is None else frozenset(alive)
        if not live:
            raise LookupError("no live nodes on the ring")
        memo = self._memo
        if memo[0] != live:
            memo = self._memo = (live, {})
        node = memo[1].get(key)
        if node is None:
            node = memo[1][key] = self._walk(key, live)
        return node

    def _walk(self, key: str, live: frozenset) -> str:
        start = bisect.bisect_right(self._hashes, _ring_hash(key))
        n = len(self._owners)
        for step in range(n):
            node = self._owners[(start + step) % n]
            if node in live:
                return node
        raise LookupError("no live nodes on the ring")  # pragma: no cover

    def partition(
        self, keys: Iterable[str], alive: Optional[Iterable[str]] = None
    ) -> dict[str, list[str]]:
        """``{node: [keys...]}`` over the live nodes (sorted key lists)."""
        live = list(self.nodes if alive is None else alive)
        out: dict[str, list[str]] = {node: [] for node in live}
        for key in sorted(keys):
            out[self.owner(key, live)].append(key)
        return out
