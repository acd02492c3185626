"""Seeded process-level fault injection against a live cluster.

The process-scope twin of :mod:`repro.engine.faults`: where that module
garbles individual engine calls, this one kills whole workers.  Four
fault kinds, all recoverable by design:

* ``kill`` — hard process kill (SIGKILL semantics; no drain, no final
  snapshot), the canonical crash the supervisor must absorb;
* ``stall`` — heartbeats stop while the process lives, exercising the
  missed-heartbeat death path and the late-response race;
* ``corrupt_snapshot`` — a published snapshot is damaged on disk, so
  the next warm-start must detect the checksum mismatch and fall back
  to a cold start;
* ``slow_start`` — the next respawn of a worker boots slowly,
  exercising the startup-timeout path and routing-while-starting.

Everything is driven by one seeded RNG, so a chaos run is replayable:
same seed, same fault sequence at the same request counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .snapshots import SnapshotStore
from .supervisor import ClusterSupervisor, WorkerState
from .transport import Control

FAULT_KINDS = ("kill", "stall", "corrupt_snapshot", "slow_start")


@dataclass
class ProcessFaultInjector:
    """Injects process faults into a supervisor-run cluster."""

    supervisor: ClusterSupervisor
    seed: int = 0
    #: Relative weights of the fault kinds, in :data:`FAULT_KINDS` order.
    weights: tuple[float, float, float, float] = (0.6, 0.2, 0.1, 0.1)
    #: Stalled heartbeats auto-resume after this many injections won't
    #: happen — the supervisor kills the stalled worker first; kept for
    #: completeness when timeouts are long.
    injected: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)
        self.store = SnapshotStore(self.supervisor.snapshot_dir)

    def _victims(self) -> list[str]:
        return [
            wid
            for wid, handle in self.supervisor.workers.items()
            if handle.state in (WorkerState.LIVE, WorkerState.STARTING)
        ]

    def inject_one(self) -> str:
        """Inject one weighted-random fault; returns ``kind:target``."""
        kind = self.rng.choices(FAULT_KINDS, weights=self.weights)[0]
        return self.inject(kind)

    def inject(self, kind: str) -> str:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; use {FAULT_KINDS}")
        victims = self._victims()
        if not victims and kind != "corrupt_snapshot":
            return "noop:no-victims"
        sup = self.supervisor
        if kind == "kill":
            wid = self.rng.choice(victims)
            handle = sup.workers[wid]
            kill = getattr(handle.process, "kill", None) or getattr(
                handle.process, "terminate", None
            )
            if kill is not None:
                kill()
            target = wid
        elif kind == "stall":
            wid = self.rng.choice(victims)
            sup._send(sup.workers[wid], Control("stall_heartbeats"))
            target = wid
        elif kind == "corrupt_snapshot":
            published = self.store.published_templates()
            if not published:
                return "noop:no-snapshots"
            template = self.rng.choice(published)
            self.store.corrupt(template)
            target = template
        else:  # slow_start: arm the victim's *next* respawn.
            wid = self.rng.choice(victims)
            handle = sup.workers[wid]
            handle.respawn_overrides["slow_start_seconds"] = self.rng.uniform(
                0.2, 0.8
            )
            kill = getattr(handle.process, "kill", None) or getattr(
                handle.process, "terminate", None
            )
            if kill is not None:
                kill()
            target = wid
        event = f"{kind}:{target}"
        self.injected.append(event)
        return event
