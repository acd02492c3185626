"""Persistence corruption round-trips: truncation, bit flips, checksum
mismatches, and crash-safe atomic saves.

The snapshot layer must never load damaged state silently — corruption
surfaces as :class:`CacheCorruptionError` — and a crash mid-save must
leave the previous snapshot intact (temp file + ``os.replace``).
"""

import hashlib
import json
import os
from dataclasses import asdict

import pytest

from repro.core.persistence import (
    CacheCorruptionError,
    CacheFile,
    _payload_checksum,
    dump_cache,
    load_cache,
)
from repro.core.scr import SCR
from repro.engine.api import EngineAPI
from repro.optimizer.optimizer import QueryOptimizer
from repro.workload.generator import instances_for_template


@pytest.fixture()
def populated_cache(toy_db, toy_template):
    optimizer = QueryOptimizer(
        toy_template, toy_db.stats, toy_db.estimator, toy_db.cost_model
    )
    engine = EngineAPI(toy_template, optimizer, toy_db.estimator)
    scr = SCR(engine, lam=2.0)
    for inst in instances_for_template(toy_template, 60, seed=31):
        scr.process(inst)
    return scr.cache


class TestChecksummedFormat:
    def test_dump_embeds_checksum(self, populated_cache):
        doc = json.loads(dump_cache(populated_cache))
        assert doc["version"] == 2
        assert len(doc["checksum"]) == 64          # SHA-256 hex digest
        assert "plans" in doc["payload"]

    def test_round_trip(self, populated_cache):
        restored = load_cache(dump_cache(populated_cache))
        assert restored.num_plans == populated_cache.num_plans
        assert restored.num_instances == populated_cache.num_instances

    def test_instance_rows_are_byte_identical_to_the_asdict_form(
        self, populated_cache
    ):
        """Rows read field by field dump exactly as ``dataclasses.asdict``
        rows did, so a snapshot's text and checksum do not move."""
        text = dump_cache(populated_cache)
        entries = list(populated_cache.instances())
        assert any(e.usage > 1 for e in entries)
        assert any(e.hits_selectivity or e.hits_cost for e in entries)
        payload = json.loads(text)["payload"]
        payload["instances"] = [
            {**asdict(entry), "sv": list(entry.sv)} for entry in entries
        ]
        assert text == json.dumps({
            "version": 2,
            "checksum": _payload_checksum(payload),
            "payload": payload,
        })

    def test_legacy_v1_document_still_loads(self, populated_cache):
        doc = json.loads(dump_cache(populated_cache))
        legacy = dict(doc["payload"])
        legacy["version"] = 1
        restored = load_cache(json.dumps(legacy))
        assert restored.num_plans == populated_cache.num_plans


class TestCorruptionDetection:
    def test_truncated_document(self, populated_cache):
        text = dump_cache(populated_cache)
        with pytest.raises(CacheCorruptionError, match="JSON"):
            load_cache(text[: len(text) // 2])

    def test_empty_document(self):
        with pytest.raises(CacheCorruptionError):
            load_cache("")

    def test_non_object_document(self):
        with pytest.raises(CacheCorruptionError, match="object"):
            load_cache("[1, 2, 3]")

    def test_bit_flipped_payload(self, populated_cache):
        doc = json.loads(dump_cache(populated_cache))
        doc["payload"]["instances"][0]["optimal_cost"] += 1.0
        with pytest.raises(CacheCorruptionError, match="checksum"):
            load_cache(json.dumps(doc))

    def test_checksum_field_tampered(self, populated_cache):
        doc = json.loads(dump_cache(populated_cache))
        doc["checksum"] = "0" * 64
        with pytest.raises(CacheCorruptionError, match="checksum"):
            load_cache(json.dumps(doc))

    def test_missing_checksum(self, populated_cache):
        doc = json.loads(dump_cache(populated_cache))
        del doc["checksum"]
        with pytest.raises(CacheCorruptionError, match="payload/checksum"):
            load_cache(json.dumps(doc))

    def test_malformed_v1_payload_raises_corruption(self):
        # Well-formed JSON, legacy version, but the payload is missing
        # fields — must surface as CacheCorruptionError, not KeyError.
        with pytest.raises(CacheCorruptionError, match="malformed"):
            load_cache('{"version": 1, "plans": [{"plan_id": 0}], "instances": []}')

    def test_unsupported_version_stays_value_error(self):
        with pytest.raises(ValueError, match="version"):
            load_cache('{"version": 99}')


#: An expression a tampered dump may put where an index belongs: if it
#: reached the compiled Recost function's source, calling the function
#: would raise this RuntimeError.
_INJECTED = "(_ for _ in ()).throw(RuntimeError('injected'))"


def _resealed(doc: dict) -> str:
    """``doc`` with a recomputed checksum: an unkeyed hash is no defence
    against a deliberate edit."""
    canonical = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return json.dumps(doc)


class TestNodeIndexValidation:
    """A dumped node's indices become source text of the compiled
    Recost function, so a tampered or corrupt one is rejected at load,
    before any plan is compiled."""

    @staticmethod
    def _node(doc: dict, field: str) -> dict:
        for plan in doc["payload"]["plans"]:
            for node in plan["nodes"]:
                if node[field] not in (-1, []):
                    return node
        raise AssertionError(f"no dumped node has a {field}")

    @pytest.mark.parametrize("field, value", [
        ("child_a", f"0 or {_INJECTED}"),
        ("child_a", 0.0),
        ("child_a", True),
        ("child_a", -1),       # a join without its outer input
        ("child_a", 10 ** 6),  # a later node, not an earlier one
        ("param_indices", [_INJECTED]),
        ("param_indices", [1.0]),
        ("param_indices", [-1]),
        ("op", "Exec"),
    ])
    def test_rejected_at_load(self, populated_cache, tmp_path, field, value):
        doc = json.loads(dump_cache(populated_cache))
        self._node(doc, "param_indices" if field == "op" else field)[field] = value
        text = _resealed(doc)
        with pytest.raises(CacheCorruptionError, match="plan node"):
            load_cache(text)
        # The warm-start path degrades to a cold start.
        path = tmp_path / "cache.json"
        path.write_text(text)
        assert CacheFile(str(path)).load_or_none() is None
        # So does the legacy format, which has no checksum at all.
        legacy = dict(json.loads(text)["payload"], version=1)
        with pytest.raises(CacheCorruptionError, match="plan node"):
            load_cache(json.dumps(legacy))

    def test_compiler_formats_integers_only(self, populated_cache, toy_db):
        from dataclasses import replace

        memo = next(iter(populated_cache.plans())).shrunken_memo
        sv = next(iter(populated_cache.instances())).sv
        for bad in (f"0 or {_INJECTED}", 1.0):
            node = replace(memo.nodes[0], param_indices=(bad,))
            tampered = replace(memo, nodes=(node,) + memo.nodes[1:])
            with pytest.raises(TypeError):
                tampered.recost(sv, toy_db.cost_model)


class TestSnapshotFileSafety:
    def test_corrupt_file_raises_and_is_left_intact(
        self, populated_cache, tmp_path
    ):
        path = tmp_path / "cache.json"
        snapshot = CacheFile(str(path))
        snapshot.save(populated_cache)
        damaged = path.read_text()[:100]
        path.write_text(damaged)
        with pytest.raises(CacheCorruptionError):
            snapshot.load()
        # The failed load must not touch the file (forensics).
        assert path.read_text() == damaged

    def test_crashed_save_preserves_previous_snapshot(
        self, populated_cache, tmp_path, monkeypatch
    ):
        path = tmp_path / "cache.json"
        snapshot = CacheFile(str(path))
        snapshot.save(populated_cache)
        before = path.read_bytes()

        def exploding_replace(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            snapshot.save(populated_cache)
        monkeypatch.undo()
        # Old snapshot intact and loadable; no temp litter left behind.
        assert path.read_bytes() == before
        assert snapshot.load().num_plans == populated_cache.num_plans
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_save_is_atomic_via_replace(self, populated_cache, tmp_path):
        path = tmp_path / "cache.json"
        snapshot = CacheFile(str(path))
        size = snapshot.save(populated_cache)
        assert size == len(path.read_text())
        # Saving over an existing snapshot keeps it loadable throughout.
        snapshot.save(populated_cache)
        assert snapshot.load().num_plans == populated_cache.num_plans

    def test_partial_write_tail_never_reaches_destination(
        self, populated_cache, tmp_path, monkeypatch
    ):
        # A worker dying mid-write leaves a short tail in the *temp*
        # file; the destination must keep the previous complete dump.
        path = tmp_path / "cache.json"
        snapshot = CacheFile(str(path))
        snapshot.save(populated_cache)
        before = path.read_bytes()

        real_fdopen = os.fdopen

        def truncating_fdopen(fd, *args, **kwargs):
            f = real_fdopen(fd, *args, **kwargs)
            real_write = f.write

            def short_write(text):
                real_write(text[: len(text) // 3])
                raise OSError("simulated power loss mid-write")

            f.write = short_write
            return f

        monkeypatch.setattr(os, "fdopen", truncating_fdopen)
        with pytest.raises(OSError, match="power loss"):
            snapshot.save(populated_cache)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert snapshot.load().num_plans == populated_cache.num_plans
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_partial_tail_on_disk_is_rejected_not_loaded(
        self, populated_cache, tmp_path
    ):
        # Defense in depth: if a torn dump *does* land on disk (e.g. a
        # non-atomic copy), the loader refuses it rather than restoring
        # a prefix of the cache.
        path = tmp_path / "cache.json"
        snapshot = CacheFile(str(path))
        snapshot.save(populated_cache)
        text = path.read_text()
        for cut in (len(text) - 1, len(text) - 7, len(text) // 2):
            path.write_text(text[:cut])
            with pytest.raises(CacheCorruptionError):
                snapshot.load()
            assert snapshot.load_or_none() is None

    def test_concurrent_reader_sees_old_or_new_never_torn(
        self, populated_cache, tmp_path
    ):
        # Readers racing a save must observe a complete document —
        # either generation, never a blend — because the publish is a
        # single rename.  Loop load() in a thread while the main thread
        # alternates saves of two distinguishable caches.
        import threading

        from repro.core.plan_cache import PlanCache

        path = tmp_path / "cache.json"
        snapshot = CacheFile(str(path))
        empty = PlanCache()
        snapshot.save(populated_cache)

        valid_counts = {0, populated_cache.num_plans}
        seen: list[int] = []
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    seen.append(snapshot.load().num_plans)
                except BaseException as exc:  # noqa: BLE001 - recorded for assert
                    errors.append(exc)

        t = threading.Thread(target=reader)
        t.start()
        try:
            for i in range(30):
                snapshot.save(empty if i % 2 else populated_cache)
        finally:
            stop.set()
            t.join(timeout=30)
        assert not errors, f"reader saw a torn snapshot: {errors[:3]}"
        assert seen and set(seen) <= valid_counts

    def test_load_or_none_missing_file(self, tmp_path):
        assert CacheFile(str(tmp_path / "absent.json")).load_or_none() is None

    def test_load_or_none_round_trip(self, populated_cache, tmp_path):
        path = tmp_path / "cache.json"
        snapshot = CacheFile(str(path))
        snapshot.save(populated_cache)
        restored = snapshot.load_or_none()
        assert restored is not None
        assert restored.num_plans == populated_cache.num_plans


class TestAdopt:
    def test_adopt_replaces_contents_in_place(self, populated_cache):
        from repro.core.plan_cache import PlanCache

        live = PlanCache()
        held = live  # aliases held by get_plan/manage_cache/spatial index
        restored = load_cache(dump_cache(populated_cache))
        live.adopt(restored)
        assert held is live
        assert live.num_plans == populated_cache.num_plans
        assert live.num_instances == populated_cache.num_instances

    def test_adopt_advances_epoch_past_stale_views(self, populated_cache):
        from repro.core.plan_cache import PlanCache

        live = PlanCache()
        stale = live.columnar()
        live.adopt(load_cache(dump_cache(populated_cache)))
        assert live.columnar().epoch > stale.epoch
        assert len(live.columnar()) == populated_cache.num_instances
