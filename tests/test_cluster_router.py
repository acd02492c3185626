"""Consistent-hash ring: determinism, coverage, bounded reshuffling."""

from __future__ import annotations

import pytest

from repro.cluster.router import DEFAULT_VNODES, HashRing

NODES = ["w0", "w1", "w2", "w3"]
KEYS = [f"template_{i}" for i in range(40)]


def test_ring_is_deterministic_across_instances():
    a = HashRing(NODES)
    b = HashRing(list(NODES))
    assert [a.owner(k) for k in KEYS] == [b.owner(k) for k in KEYS]


def test_every_key_gets_a_valid_owner():
    ring = HashRing(NODES)
    for key in KEYS:
        assert ring.owner(key) in NODES


def test_partition_covers_every_key_exactly_once():
    ring = HashRing(NODES)
    parts = ring.partition(KEYS)
    assert set(parts) == set(NODES)
    flat = [k for keys in parts.values() for k in keys]
    assert sorted(flat) == sorted(KEYS)


def test_vnodes_spread_small_clusters():
    # With virtual nodes, no worker should own everything for a
    # reasonably sized key set — the whole point of vnodes.
    ring = HashRing(["w0", "w1"], vnodes=DEFAULT_VNODES)
    parts = ring.partition(KEYS)
    assert all(parts[n] for n in ("w0", "w1"))


def test_death_moves_only_the_dead_nodes_keys():
    ring = HashRing(NODES)
    before = {k: ring.owner(k) for k in KEYS}
    alive = [n for n in NODES if n != "w1"]
    after = {k: ring.owner(k, alive) for k in KEYS}
    for key in KEYS:
        if before[key] != "w1":
            # The consistent-hash property: survivors keep their keys.
            assert after[key] == before[key]
        else:
            assert after[key] in alive


def test_recovery_restores_the_original_mapping():
    ring = HashRing(NODES)
    before = {k: ring.owner(k) for k in KEYS}
    ring.owner("anything", ["w0", "w2"])  # some failover routing happened
    assert {k: ring.owner(k) for k in KEYS} == before


def test_cascading_deaths_until_total_outage():
    ring = HashRing(NODES)
    alive = list(NODES)
    while alive:
        assert ring.owner("template_7", alive) in alive
        alive.pop()
    with pytest.raises(LookupError):
        ring.owner("template_7", [])


def test_owner_is_memoised_per_alive_set(monkeypatch):
    from repro.cluster import router

    ring, fresh = HashRing(NODES), HashRing(NODES)
    everyone = {k: fresh.owner(k) for k in KEYS}
    hashed = []
    real = router._ring_hash
    monkeypatch.setattr(
        router, "_ring_hash", lambda key: hashed.append(key) or real(key)
    )
    alive = frozenset(n for n in NODES if n != "w1")
    first = [ring.owner(k, alive) for k in KEYS]
    assert "w1" not in first
    assert [ring.owner(k, alive) for k in KEYS] == first
    assert len(hashed) == len(KEYS)          # one walk per key
    # A new alive set drops the memo: w1's keys come back to it.
    assert {k: ring.owner(k) for k in KEYS} == everyone
    assert len(hashed) == 2 * len(KEYS)
    assert [ring.owner(k, sorted(alive)) for k in KEYS] == first


def test_invalid_rings_rejected():
    with pytest.raises(ValueError):
        HashRing([])
    with pytest.raises(ValueError):
        HashRing(["w0", "w0"])
