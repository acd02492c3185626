"""Plan-cache persistence: survive engine restarts.

Commercial plan caches persist across sessions; the paper's instance
5-tuples are ~100 bytes and the shrunken memos a few hundred KB per
plan (section 6.1), so serializing the whole cache is cheap.  This
module round-trips a :class:`~repro.core.plan_cache.PlanCache` through
a JSON document: the shrunken memos (all that re-costing and inference
need) plus the instance list.  Executable plan trees are rebuilt on
demand by re-optimizing at the anchor — they are intentionally *not*
serialized, matching the paper's note that alternative Recost
representations trade memory for time.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, fields
from typing import Optional

from ..optimizer.operators import PhysicalOp
from ..optimizer.recost import ShrunkenMemo, _RecostNode
from ..query.instance import SelectivityVector
from .plan_cache import CachedPlan, InstanceEntry, PlanCache


class CacheCorruptionError(ValueError):
    """A cache dump is truncated, bit-flipped or otherwise unusable.

    Subclasses :class:`ValueError` so pre-existing callers that caught
    broad validation errors keep working.
    """


def _payload_checksum(payload: dict) -> str:
    """SHA-256 over the canonical JSON encoding of the payload.

    The canonical form (sorted keys, no whitespace) survives a JSON
    round-trip bit-for-bit, so the checksum can be recomputed from the
    parsed document at load time.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _node_to_dict(node: _RecostNode) -> dict:
    data = {f.name: getattr(node, f.name) for f in fields(_RecostNode)}
    data["op"] = node.op.value
    return data


#: Operators with two inputs; a scan has none and every other one.
_BINARY = (PhysicalOp.HASH_JOIN, PhysicalOp.MERGE_JOIN, PhysicalOp.NESTED_LOOPS_JOIN)


def _node_from_dict(data: dict, position: int) -> _RecostNode:
    """Node ``position`` of a dumped plan.  Its indices become source
    text of the compiled Recost function, so each must be a JSON
    integer: a child an earlier node exactly where the operator has an
    input (else ``-1``), a parameter index non-negative."""
    values = {f.name: data[f.name] for f in fields(_RecostNode)}
    try:
        op = values["op"] = PhysicalOp(values["op"])
    except ValueError as exc:
        raise CacheCorruptionError(f"plan node {position}: {exc}") from exc
    inputs = 0 if op.is_scan else 2 if op in _BINARY else 1
    children = (values["child_a"], values["child_b"])
    params = values["param_indices"] = tuple(values["param_indices"])
    inner = values["inner_param_indices"] = tuple(values["inner_param_indices"])
    if (
        any(type(i) is not int for i in (*children, *params, *inner))
        or children[inputs:] != (-1,) * (2 - inputs)
        or not all(0 <= c < position for c in children[:inputs])
        or min(params + inner, default=0) < 0
    ):
        raise CacheCorruptionError(f"plan node {position}: bad index in {data!r}")
    return _RecostNode(**values)


def dump_cache(cache: PlanCache) -> str:
    """Serialize the plan cache to a JSON string."""
    plans = []
    for plan in cache.plans():
        sm = plan.shrunken_memo
        plans.append({
            "plan_id": plan.plan_id,
            "signature": plan.signature,
            "template_name": sm.template_name,
            "nodes": [_node_to_dict(n) for n in sm.nodes],
            "full_memo_groups": sm.full_memo_groups,
            "full_memo_expressions": sm.full_memo_expressions,
        })
    # One object per row, keys in InstanceEntry field order.  The fields
    # are read as they are: ``asdict`` would deep-copy each row's
    # SelectivityVector only for "sv" to replace the copy.
    instances = [
        {**vars(entry), "sv": list(entry.sv)} for entry in cache.instances()
    ]
    payload = {
        "plans": plans,
        "instances": instances,
        "evicted": {
            "hits_selectivity": cache.evicted_hits_selectivity,
            "hits_cost": cache.evicted_hits_cost,
            "recost_spend": cache.evicted_recost_spend,
            "never_hit": cache.evicted_never_hit,
        },
        "adopted": {
            "hits_selectivity": cache.adopted_hits_selectivity,
            "hits_cost": cache.adopted_hits_cost,
            "recost_spend": cache.adopted_recost_spend,
        },
    }
    return json.dumps({
        "version": 2,
        "checksum": _payload_checksum(payload),
        "payload": payload,
    })


def load_cache(text: str) -> PlanCache:
    """Rebuild a plan cache from :func:`dump_cache` output.

    Restored :class:`CachedPlan` entries carry ``plan=None`` — callers
    needing an executable tree re-optimize at any anchoring instance
    (one optimizer call per plan, amortized away by reuse).

    Raises
    ------
    CacheCorruptionError
        If the document is truncated, fails JSON parsing, is missing
        fields, or its embedded SHA-256 checksum does not match the
        payload.
    ValueError
        If the document parses cleanly but declares an unsupported
        format version.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CacheCorruptionError(
            f"cache dump is not valid JSON (truncated?): {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise CacheCorruptionError("cache dump is not a JSON object")
    version = data.get("version")
    if version == 2:
        payload = data.get("payload")
        stored = data.get("checksum")
        if not isinstance(payload, dict) or not isinstance(stored, str):
            raise CacheCorruptionError("cache dump missing payload/checksum")
        actual = _payload_checksum(payload)
        if actual != stored:
            raise CacheCorruptionError(
                f"cache dump checksum mismatch: stored {stored[:12]}..., "
                f"computed {actual[:12]}..."
            )
    elif version == 1:
        # Legacy un-checksummed format: the document is the payload.
        payload = data
    else:
        raise ValueError(f"unsupported cache dump version {version!r}")
    try:
        return _cache_from_payload(payload)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise CacheCorruptionError(
            f"cache dump payload is malformed: {exc!r}"
        ) from exc


def _cache_from_payload(data: dict) -> PlanCache:
    cache = PlanCache()
    id_map: dict[int, int] = {}
    for plan_data in data["plans"]:
        shrunken = ShrunkenMemo(
            template_name=plan_data["template_name"],
            signature=plan_data["signature"],
            nodes=tuple(
                _node_from_dict(n, i) for i, n in enumerate(plan_data["nodes"])
            ),
            full_memo_groups=plan_data["full_memo_groups"],
            full_memo_expressions=plan_data["full_memo_expressions"],
        )
        entry = CachedPlan(
            plan_id=cache._next_plan_id,
            signature=plan_data["signature"],
            plan=None,
            shrunken_memo=shrunken,
        )
        cache._plans[entry.plan_id] = entry
        cache._by_signature[entry.signature] = entry.plan_id
        id_map[plan_data["plan_id"]] = entry.plan_id
        cache._next_plan_id += 1
    cache.max_plans_seen = cache.num_plans
    for inst in data["instances"]:
        cache.add_instance(InstanceEntry(
            sv=SelectivityVector.from_sequence(inst["sv"]),
            plan_id=id_map[inst["plan_id"]],
            optimal_cost=inst["optimal_cost"],
            suboptimality=inst["suboptimality"],
            usage=inst["usage"],
            retired=inst["retired"],
            # Efficacy attribution arrived after v2 dumps existed; old
            # documents simply restore with zeroed counters.
            hits_selectivity=inst.get("hits_selectivity", 0),
            hits_cost=inst.get("hits_cost", 0),
            recost_spend=inst.get("recost_spend", 0),
            last_hit_tick=inst.get("last_hit_tick", -1),
        ))
    evicted = data.get("evicted", {})
    cache.evicted_hits_selectivity = evicted.get("hits_selectivity", 0)
    cache.evicted_hits_cost = evicted.get("hits_cost", 0)
    cache.evicted_recost_spend = evicted.get("recost_spend", 0)
    cache.evicted_never_hit = evicted.get("never_hit", 0)
    adopted = data.get("adopted", {})
    cache.adopted_hits_selectivity = adopted.get("hits_selectivity", 0)
    cache.adopted_hits_cost = adopted.get("hits_cost", 0)
    cache.adopted_recost_spend = adopted.get("recost_spend", 0)
    return cache


def _fsync_directory(directory: str) -> None:
    """Flush the directory entry after an ``os.replace``.

    The rename itself is atomic, but without a directory fsync a power
    loss can still forget *which* name the entry points at.  Filesystems
    that refuse fsync on directory handles (some network mounts) degrade
    to rename-only atomicity, which is what the previous behaviour was.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        dfd = os.open(directory, flags)
    except OSError:  # pragma: no cover - exotic filesystems only
        return
    try:
        os.fsync(dfd)
    except OSError:  # pragma: no cover - exotic filesystems only
        pass
    finally:
        os.close(dfd)


@dataclass(frozen=True)
class CacheFile:
    """Crash-safe dump/load against a file path.

    ``save`` writes to a temporary file in the target directory, fsyncs
    it, atomically renames it over the destination with
    :func:`os.replace`, and fsyncs the directory so the rename survives
    power loss — a crash mid-save leaves the previous snapshot intact,
    never a truncated one, and a reader racing a save always observes
    either the old or the new complete document.  ``load`` verifies the
    embedded checksum and raises :class:`CacheCorruptionError` on any
    damage, leaving the file untouched for forensics.
    """

    path: str

    def save(self, cache: PlanCache) -> int:
        return self.save_text(dump_cache(cache))

    def save_text(self, text: str) -> int:
        """Atomically publish an already-serialized dump.

        Split out so callers that must serialize under a lock (the
        cluster workers dump under the shard lock) can do the disk I/O
        outside it.
        """
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(self.path) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as f:
                f.write(text)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        _fsync_directory(directory)
        return len(text)

    def load(self) -> PlanCache:
        with open(self.path) as f:
            return load_cache(f.read())

    def load_or_none(self) -> Optional[PlanCache]:
        """Best-effort load: ``None`` on a missing or damaged snapshot.

        The warm-start path uses this — a corrupt or torn snapshot must
        degrade a replacement worker to a cold start, never crash it.
        """
        try:
            return self.load()
        except (OSError, CacheCorruptionError, ValueError):
            return None
