"""Reference manager: serial SCR per template under one global plan budget.

The oracle for ``TestSerialEquivalence``: the PQO manager with the
threads, locks, single-flight and quarantine taken away.  One
:class:`~repro.core.scr.SCR` per template; after every registration and
every ``rebalance_every`` processed instances the global budget is
re-divided in proportion to optimizer pressure (calls + 1, floor one
plan), rounding drift is trimmed from the largest share, and each cache
is shrunk to its share by evicting its least-used plans.  A one-worker
``ConcurrentPQOManager`` must reproduce it decision for decision.
"""

from __future__ import annotations

from repro.core.scr import SCR


class ReferenceManager:
    def __init__(self, database, global_plan_budget: int, rebalance_every: int):
        self.database = database
        self.global_plan_budget = global_plan_budget
        self.rebalance_every = rebalance_every
        self.scrs: dict[str, SCR] = {}
        self._since_rebalance = 0

    def register(self, template, lam: float) -> SCR:
        scr = self.scrs[template.name] = SCR(
            self.database.engine(template), lam=lam
        )
        self._rebalance()
        return scr

    def process(self, instance):
        choice = self.scrs[instance.template_name].process(instance)
        self._since_rebalance += 1
        if self._since_rebalance >= self.rebalance_every:
            self._since_rebalance = 0
            self._rebalance()
        return choice

    def _rebalance(self) -> None:
        scrs = list(self.scrs.values())
        weights = [scr.optimizer_calls + 1 for scr in scrs]
        budget = max(self.global_plan_budget, len(scrs))
        shares = [max(1, int(budget * w / sum(weights))) for w in weights]
        while sum(shares) > budget:
            shares[shares.index(max(shares))] -= 1
        for scr, share in zip(scrs, shares):
            scr.manage_cache.plan_budget = share
            while scr.cache.num_plans > share:
                scr.cache.drop_plan(scr.cache.min_usage_plan().plan_id)
