"""The four closed-loop workloads of the end-to-end benchmark.

Every workload is driven by ONE closed-loop client: callers of a plan
cache are query sessions that wait for their plan, and one client is the
only load this 2-core box reproduces (a second runnable Python thread
turns the p99 into the 5 ms GIL switch interval; see README.md).

A pass builds a *fresh* system (fresh database, fresh SCR / manager /
supervisor, empty plan cache — filling the cache *is* the online-PQO
workload) and replays the identical seeded request stream.
"""

from __future__ import annotations

import os
import random
import shutil
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.catalog.tpcds import tpcds_schema
from repro.catalog.tpch import tpch_schema
from repro.cluster import ClusterSupervisor, SnapshotStore, WorkerLostError, WorkerState
from repro.core.scr import SCR
from repro.engine.database import Database
from repro.engine.resilience import resilient_engine_factory
from repro.harness.oracle import Oracle
from repro.obs import Observability
from repro.obs.handle import base_engine
from repro.serving.manager import ConcurrentPQOManager
from repro.workload.generator import instances_for_template
from repro.workload.templates import tpcds_templates, tpch_templates

from spantree import Tracer

#: Database every workload runs against (the cluster workers build the
#: same one from ``WorkerSpec.db_scale`` / ``db_seed``).
DB_SCALE = 1.0
DB_SEED = 42

#: Requests audited against the oracle on the warm-up pass.
AUDIT_TARGET = 1200

BATCH = 16
#: ``serve_batch_obs`` evaluates its SLOs every this many batches, the
#: way an operator tick would; a count, not a timer, so every pass does
#: the same work.
SLO_TICK_BATCHES = 64
#: Outstanding ``submit()``s of the one ``cluster_2w`` client (= nproc).
CLUSTER_WINDOW = 2


SCHEMAS = {"tpch": tpch_schema, "tpcds": tpcds_schema}


def _children_cpu_seconds(pids) -> float:
    """utime+stime of live child processes, read from /proc."""
    ticks = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as f:
            # Fields after the parenthesised command name; utime and
            # stime are the 14th and 15th fields of the full line.
            fields = f.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


#: What one speed-probe slice takes on this box when it is quiet, run
#: back to back with ``scr_hit`` requests (the lower quartile over 135
#: passes).  Each workload scales it by its own ``probe_nominal``.
NOMINAL_PROBE_S = 73.5e-6


class SpeedProbe:
    """A fixed slice of reference work, timed in-band during a pass.

    This box is a shared 2-vCPU VM: for seconds to minutes at a time
    everything on it runs 5-70% slower (CPU time included, and the guest
    sees no steal).  The drive loops run this ~75 us slice — integer
    arithmetic, a small numpy kernel, and allocation/sort/dict churn, none
    of it the program's code — every 10-20 ms, always while nothing else of
    the benchmark is runnable.  The median slice time over a pass, against
    the workload's quiet-box value, is the machine-speed factor that pass's
    timings are rescaled by (measure.py); the median ignores the rare slice
    a preemption lands on.  Measured on 45 same-seed runs of ``scr_hit``:
    rescaling cut the run-to-run quartile spread of throughput from 4.5%
    to 1.4% and of p99 from 3.9% to 1.2%.

    ``nominal`` is the workload's quiet-box slice time in units of
    ``NOMINAL_PROBE_S``: a slice runs on the cache and vCPU state the
    program left behind (0.96 after an ``scr_hit`` request, 1.29 right
    after the client wakes from waiting on the cluster's workers).
    """

    def __init__(self, nominal: float) -> None:
        self.nominal_s = nominal * NOMINAL_PROBE_S
        self.samples: list[float] = []
        self._a = np.linspace(0.01, 1.0, 1024).reshape(256, 4)
        self._b = self._a[::-1].copy()

    def __call__(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(300):
            acc += (i * i) ^ (acc >> 3)
        (self._a / self._b).max(axis=1)
        rows = [(i * 7919 % 97, str(i), [i]) for i in range(48)]
        rows.sort()
        table: dict = {}
        for key, text, box in rows:
            table.setdefault(key, []).append((text, box))
        self.samples.append(time.perf_counter() - t0)

    @property
    def total_s(self) -> float:
        return sum(self.samples)

    @property
    def speed_factor(self) -> float:
        """> 1 when the machine ran slower than nominal during the pass."""
        return float(np.median(self.samples)) / self.nominal_s


@dataclass
class Drive:
    """What one pass over the stream measured."""

    wall_s: float
    cpu_s: float
    #: One latency sample per request (per batch for ``serve_batch_obs``).
    latency_us: np.ndarray
    #: Per sample: did it include an optimizer call.
    missed: np.ndarray
    failed: int
    #: Machine-speed factor the in-band probe read during the pass;
    #: ``wall_s`` and ``cpu_s`` are net of the time the probes took.
    speed_factor: float
    #: ``(stream index, shrunken memo | recosted plan cost, certified)``
    #: for the audited subsample; filled on the warm-up pass only.
    kept: list = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    #: Build-database + register / boot-until-Ready time (set by
    #: ``measure.one_pass``, which times ``setup``).
    setup_s: float = 0.0


class Workload:
    """One workload: a seeded stream plus how to build and drive the system."""

    name = ""
    why = ""
    lam = 1.0
    #: The drive loop runs the speed probe every this many latency samples.
    probe_every = 1
    #: Quiet-box probe slice time of this workload (see :class:`SpeedProbe`),
    #: the median factor of its ten A/A runs.
    probe_nominal = 1.0
    #: Pin the benchmark process to one vCPU for the run.
    single_cpu = True

    def __init__(self, seed: int, scale: float, out_dir: str) -> None:
        self.out_dir = out_dir
        #: Templates by name; ``build_stream`` fills it.
        self.by_name: dict = {}
        self.stream = self.build_stream(seed, scale)
        self.requests = len(self.stream)
        self.audit_every = max(1, self.requests // AUDIT_TARGET)
        self.settings: dict = {"clients": 1}

    # -- per-workload pieces --------------------------------------------------

    def build_stream(self, seed: int, scale: float) -> list:
        raise NotImplementedError

    def setup(self, audit: bool = False):
        """Build the fresh system (timed by the caller as ``setup_s``)."""
        raise NotImplementedError

    def instrument(self, system, tracer: Tracer) -> None:
        raise NotImplementedError

    def drive(self, system, keep: bool, tracer: Optional[Tracer]) -> Drive:
        raise NotImplementedError

    def close(self, system) -> None:
        """Stop whatever ``setup`` started."""

    def finish(self, system, drive: Drive) -> None:
        """Close the system and record the decision fingerprint."""
        raise NotImplementedError

    # -- shared ---------------------------------------------------------------

    def audit(self, kept: list) -> dict:
        """Check the kept responses against an independent oracle."""
        databases: dict[str, Database] = {}
        oracles: dict[str, Oracle] = {}
        chosen_sum = optimal_sum = 0.0
        max_subopt = 1.0
        violations = uncertified = 0
        for index, plan, certified in kept:
            instance = self.stream[index]
            sv = instance.sv
            oracle = oracles.get(instance.template_name)
            if oracle is None:
                template = self.by_name[instance.template_name]
                # The oracle's own database, built like the passes' ones.
                db = databases.get(template.database)
                if db is None:
                    db = databases[template.database] = Database.create(
                        SCHEMAS[template.database](DB_SCALE), seed=DB_SEED
                    )
                oracle = oracles[template.name] = Oracle(db, template)
            optimal = oracle.optimal(sv).optimal_cost
            chosen = plan if isinstance(plan, float) else oracle.plan_cost(plan, sv)
            chosen_sum += chosen
            optimal_sum += optimal
            if not certified:
                uncertified += 1
                continue
            subopt = max(1.0, chosen / optimal)
            max_subopt = max(max_subopt, subopt)
            if subopt > self.lam * (1 + 1e-9):
                violations += 1
        return {
            "audited": len(kept),
            "total_cost_ratio": max(1.0, chosen_sum / optimal_sum),
            "max_subopt": max_subopt,
            "violations": violations,
            "uncertified": uncertified,
        }


# -- bare SCR -----------------------------------------------------------------


class _BareSCR(Workload):
    """``SCR.process`` called directly: no serving tier, no obs."""

    database = "tpch"
    templates = staticmethod(tpch_templates)
    template_name = ""
    base_requests = 0

    def build_stream(self, seed, scale):
        self.template = next(
            t for t in self.templates() if t.name == self.template_name
        )
        self.by_name[self.template.name] = self.template
        m = max(50, int(self.base_requests * scale))
        return instances_for_template(self.template, m, seed=seed)

    def setup(self, audit=False):
        db = Database.create(SCHEMAS[self.database](DB_SCALE), seed=DB_SEED)
        return SCR(db.engine(self.template), lam=self.lam)

    def instrument(self, scr, tracer):
        _instrument_scr(tracer, scr)
        tracer.wrap(scr, "process", "core.scr_process")

    def drive(self, scr, keep, tracer):
        call = scr.process
        if tracer is not None:
            call = tracer.client_call(call)
        n = self.requests
        latency = np.empty(n)
        missed = np.zeros(n, dtype=bool)
        kept = []
        failed = 0
        every = self.audit_every
        probe, probe_every = SpeedProbe(self.probe_nominal), self.probe_every
        perf = time.perf_counter
        cpu0 = time.process_time()
        start = perf()
        for i, instance in enumerate(self.stream):
            if i % probe_every == 0:
                probe()
            t0 = perf()
            choice = call(instance)
            latency[i] = perf() - t0
            if choice.used_optimizer:
                missed[i] = True
            if not choice.certified:
                failed += 1
            if keep and i % every == 0:
                kept.append((i, choice.shrunken_memo, choice.certified))
        wall = perf() - start - probe.total_s
        cpu = time.process_time() - cpu0 - probe.total_s
        return Drive(
            wall, cpu, latency * 1e6, missed, failed, probe.speed_factor, kept
        )

    def finish(self, scr, drive):
        drive.fingerprint = {
            "optimizer_calls": scr.optimizer_calls,
            "recost_calls": scr.engine.counters.recost.calls,
            "plans_cached": scr.cache.num_plans,
            "instances_cached": scr.cache.num_instances,
        }
        drive.extras["core"] = _core_counts([scr])
        drive.extras["engine"] = _engine_counts([scr.engine])


class ScrHit(_BareSCR):
    name = "scr_hit"
    why = (
        "bare SCR.process, d=3, lambda=1.2: ~3% misses, so the getPlan probe "
        "(read path) is most of the wall; optimizer/recost gains barely move it"
    )
    template_name = "tpch_shipping_priority"
    lam = 1.2
    base_requests = 20000
    probe_every = 100
    probe_nominal = 0.96


class ScrMiss(_BareSCR):
    name = "scr_miss"
    why = (
        "bare SCR.process, d=6, lambda=1.5: ~28% misses, so optimize, commit, "
        "redundancy recosts and the columnar rebuild (write path) dominate"
    )
    database = "tpcds"
    templates = staticmethod(tpcds_templates)
    template_name = "tpcds_six_dim"
    lam = 1.5
    base_requests = 4000
    probe_every = 16
    probe_nominal = 0.97


# -- serving tier, everything on ------------------------------------------------


def _resilient():
    return resilient_engine_factory(seed=DB_SEED)


class _SixTemplates(Workload):
    """The first six TPC-H templates, equal shares, shuffled by the seed."""

    def shuffled_stream(self, seed: int, per_template: int) -> list:
        self.templates = tpch_templates()[:6]
        self.by_name = {t.name: t for t in self.templates}
        stream = []
        for i, template in enumerate(self.templates):
            stream.extend(
                instances_for_template(template, per_template, seed=seed * 1009 + i)
            )
        random.Random(seed).shuffle(stream)
        return stream


class ServeBatchObs(_SixTemplates):
    name = "serve_batch_obs"
    why = (
        "ConcurrentPQOManager.process_many batches of 16 over six templates "
        "(three robust) with spans, audit, calibration and SLO on: serving, "
        "obs and the batch probe are on the path"
    )
    lam = 1.5
    base_per_template = 2667
    probe_every = 4
    probe_nominal = 1.065

    def __init__(self, seed, scale, out_dir, obs_on: bool = True):
        self.obs_on = obs_on
        super().__init__(seed, scale, out_dir)
        self.settings.update(max_workers=1, batch=BATCH, dedupe=False)

    def build_stream(self, seed, scale):
        # Instances carry their selectivities directly (zero-width boxes):
        # boxes estimated from real parameters make the robust templates
        # miss 60-77% of the time, which would turn this into a second
        # optimizer workload instead of the serving/obs one (README.md).
        stream = self.shuffled_stream(
            seed, max(BATCH, int(self.base_per_template * scale))
        )
        stream = stream[:len(stream) - len(stream) % BATCH]
        self.batches = [
            stream[i:i + BATCH] for i in range(0, len(stream), BATCH)
        ]
        return stream

    def setup(self, audit=False):
        db = Database.create(tpch_schema(DB_SCALE), seed=DB_SEED)
        obs = None
        if self.obs_on:
            obs = Observability(spans_enabled=True)
            obs.attach_slo()
        manager = ConcurrentPQOManager(
            database=db, default_lambda=self.lam, max_workers=1, obs=obs,
            engine_wrapper=_resilient(),
        )
        for i, template in enumerate(self.templates):
            manager.register(
                template, check_mode="robust" if i % 2 else "point"
            )
        return manager

    def instrument(self, manager, tracer):
        _instrument_manager(tracer, manager)
        if manager.obs is not None:
            tracer.wrap(manager.obs.slo, "evaluate", "obs.slo_tick")

    def drive(self, manager, keep, tracer):
        call = manager.process_many
        if tracer is not None:
            call = tracer.client_call(call)
        slo = manager.obs.slo if manager.obs is not None else None
        n = len(self.batches)
        latency = np.empty(n)
        missed = np.zeros(n, dtype=bool)
        kept = []
        failed = 0
        every = self.audit_every
        probe, probe_every = SpeedProbe(self.probe_nominal), self.probe_every
        perf = time.perf_counter
        cpu0 = time.process_time()
        start = perf()
        for b, batch in enumerate(self.batches):
            if b % probe_every == 0:
                probe()
            t0 = perf()
            choices = call(batch, dedupe=False)
            latency[b] = perf() - t0
            for j, choice in enumerate(choices):
                if choice.used_optimizer:
                    missed[b] = True
                if not choice.certified:
                    failed += 1
                if keep and (b * BATCH + j) % every == 0:
                    kept.append(
                        (b * BATCH + j, choice.shrunken_memo, choice.certified)
                    )
            if slo is not None and (b + 1) % SLO_TICK_BATCHES == 0:
                slo.evaluate()
        wall = perf() - start - probe.total_s
        cpu = time.process_time() - cpu0 - probe.total_s
        return Drive(
            wall, cpu, latency * 1e6, missed, failed, probe.speed_factor, kept
        )

    def close(self, manager):
        manager.close()

    def finish(self, manager, drive):
        _finish_manager(manager, drive)


def _finish_manager(manager, drive: Drive) -> None:
    manager.close()
    states = list(manager._templates.values())
    drive.fingerprint = {
        "optimizer_calls": sum(s.scr.optimizer_calls for s in states),
        "recost_calls": sum(s.engine.counters.recost.calls for s in states),
        "plans_cached": sum(s.scr.cache.num_plans for s in states),
        "instances_cached": sum(s.scr.cache.num_instances for s in states),
    }
    drive.extras["core"] = _core_counts([s.scr for s in states])
    drive.extras["engine"] = _engine_counts([s.engine for s in states])
    drive.extras["serving"] = manager.serving_report()[-1]
    if manager.obs is not None:
        drive.extras["obs"] = {
            "spans_recorded": manager.obs.spans.total_recorded,
            "spans_dropped": manager.obs.spans.dropped,
        }


# -- two-worker cluster -----------------------------------------------------------


class Cluster2W(_SixTemplates):
    name = "cluster_2w"
    why = (
        "ClusterSupervisor with 2 spawned workers, window of 2 outstanding "
        "submits: pickle, two queue hops and supervisor bookkeeping do most "
        "of the work, core/optimizer little"
    )
    lam = 1.5
    base_per_template = 750
    probe_every = 16
    probe_nominal = 1.29
    single_cpu = False

    def __init__(self, seed, scale, out_dir):
        super().__init__(seed, scale, out_dir)
        self.settings.update(
            num_workers=2, threads=1, window=CLUSTER_WINDOW, start_method="spawn"
        )
        self._pass = 0

    def build_stream(self, seed, scale):
        return self.shuffled_stream(
            seed, max(20, int(self.base_per_template * scale))
        )

    def setup(self, audit=False):
        self._pass += 1
        snapshot_dir = os.path.join(self.out_dir, f"snap-{os.getpid()}-{self._pass}")
        shutil.rmtree(snapshot_dir, ignore_errors=True)
        supervisor = ClusterSupervisor(
            self.templates, num_workers=2, snapshot_dir=snapshot_dir,
            threads=1, lam=self.lam, db_scale=DB_SCALE, db_seed=DB_SEED,
            # Worker-side recost of the served plan, so the oracle can
            # audit certificates; warm-up (correctness) pass only.
            verify=audit,
        )
        boot0 = time.perf_counter()
        supervisor.start()
        try:
            deadline = time.monotonic() + 120.0
            while not all(
                h.state is WorkerState.LIVE for h in supervisor.workers.values()
            ):
                if time.monotonic() > deadline:
                    raise RuntimeError("cluster workers did not become Ready")
                time.sleep(0.002)
        except BaseException:
            supervisor.close()
            raise
        self.boot_s = time.perf_counter() - boot0
        return supervisor

    def instrument(self, supervisor, tracer):
        # Worker internals run in other processes; from outside only the
        # submit call itself can be wrapped (submit -> future done is the
        # latency sample the driver already stamps).
        tracer.wrap(supervisor, "submit", "cluster.submit")

    def drive(self, supervisor, keep, tracer):
        submit = supervisor.submit
        n = self.requests
        latency = np.zeros(n)
        responses: list = [None] * n
        window = threading.Semaphore(CLUSTER_WINDOW)
        perf = time.perf_counter
        pids = [h.process.pid for h in supervisor.workers.values()]

        spans = tracer.spans if tracer is not None else None

        def stamp(i, t0):
            def done(fut):
                t1 = perf()
                latency[i] = t1 - t0
                responses[i] = fut
                if spans is not None:
                    spans.append(["cluster.request", t0, t1, None, i])
                window.release()
            return done

        children0 = _children_cpu_seconds(pids)
        cpu0 = time.process_time()
        start = perf()
        def take_slot():
            # Every supervisor future terminates; the timeout only turns a
            # hung worker into an error instead of a hung benchmark.
            if not window.acquire(timeout=60.0):
                raise RuntimeError("cluster response did not arrive in 60 s")

        probe, probe_every = SpeedProbe(self.probe_nominal), self.probe_every
        for i, instance in enumerate(self.stream):
            if i % probe_every == 0:
                # Probe only at a quiescent point: with requests in flight,
                # three busy processes on two vCPUs slow the slice
                # themselves (2.4x) and it would measure the program, not
                # the machine.  Draining the window costs one bubble per
                # 16 requests, the same in every pass.
                for _ in range(CLUSTER_WINDOW):
                    take_slot()
                probe()
                for _ in range(CLUSTER_WINDOW):
                    window.release()
            take_slot()
            t0 = perf()
            fut = submit(instance.template_name, instance.sv.values, i)
            fut.add_done_callback(stamp(i, t0))
        for _ in range(CLUSTER_WINDOW):
            take_slot()
        wall = perf() - start - probe.total_s
        self_cpu = time.process_time() - cpu0 - probe.total_s
        children_cpu = _children_cpu_seconds(pids) - children0

        missed = np.zeros(n, dtype=bool)
        kept = []
        failed = 0
        served_by: dict[str, int] = {}
        optimizer_calls = recost_calls = 0
        sample = None
        for i, fut in enumerate(responses):
            if fut.exception() is not None:
                if not isinstance(fut.exception(), WorkerLostError):
                    raise fut.exception()
                failed += 1
                continue
            response = fut.result()
            if not (response.ok and response.certified):
                failed += 1
                continue
            sample = sample or response
            served_by[response.worker_id] = served_by.get(response.worker_id, 0) + 1
            recost_calls += response.recost_calls
            if response.used_optimizer:
                missed[i] = True
                optimizer_calls += 1
            if keep and i % self.audit_every == 0:
                kept.append((i, float(response.plan_cost_at_sv), True))
        drive = Drive(
            wall, self_cpu + children_cpu, latency * 1e6, missed, failed,
            probe.speed_factor, kept,
        )
        drive.fingerprint = {
            "optimizer_calls": optimizer_calls, "recost_calls": recost_calls,
        }
        drive.extras.update(
            supervisor_cpu_s=self_cpu,
            served_by=served_by,
            sample_response=sample,
            boot_s=self.boot_s,
        )
        return drive

    def close(self, supervisor):
        supervisor.close()
        shutil.rmtree(supervisor.snapshot_dir, ignore_errors=True)

    def finish(self, supervisor, drive):
        report = supervisor.cluster_report()
        ring = supervisor.ring.partition(self.by_name)
        supervisor.close()
        # Workers publish final snapshots on a graceful stop: the cache
        # sizes are read from those files, not from a racing heartbeat.
        store = SnapshotStore(supervisor.snapshot_dir)
        caches = [store.load(name) for name in store.published_templates()]
        shutil.rmtree(supervisor.snapshot_dir, ignore_errors=True)
        drive.fingerprint["plans_cached"] = sum(c.num_plans for c in caches)
        drive.fingerprint["instances_cached"] = sum(c.num_instances for c in caches)
        drive.extras.update(
            retries=report["retries"], worker_lost=report["worker_lost"],
            hash_ring=ring,
        )


class ClusterReference(Workload):
    """The stack one cluster worker runs, in this process, on the cluster
    workload's own stream: the IPC-free floor (traced run only)."""

    name = "cluster_2w.reference"
    lam = Cluster2W.lam

    def __init__(self, cluster: Cluster2W) -> None:
        self.templates = cluster.templates
        self.by_name = cluster.by_name
        self.stream = cluster.stream
        self.requests = cluster.requests

    def setup(self, audit=False):
        db = Database.create(tpch_schema(DB_SCALE), seed=DB_SEED)
        manager = ConcurrentPQOManager(
            database=db, default_lambda=self.lam, max_workers=1,
            obs=Observability(spans_enabled=False), engine_wrapper=_resilient(),
        )
        for template in self.templates:
            manager.register(template)
        return manager

    def instrument(self, manager, tracer):
        _instrument_manager(tracer, manager)

    def drive(self, manager, keep, tracer):
        submit = manager.submit
        wait = Future.result
        if tracer is not None:
            wait = tracer.traced(wait, "serving.await_result")

        def call(instance):
            return wait(submit(instance))

        if tracer is not None:
            call = tracer.client_call(call)
        n = self.requests
        latency = np.empty(n)
        missed = np.zeros(n, dtype=bool)
        perf = time.perf_counter
        start = perf()
        for i, instance in enumerate(self.stream):
            t0 = perf()
            choice = call(instance)
            latency[i] = perf() - t0
            if choice.used_optimizer:
                missed[i] = True
        wall = perf() - start
        return Drive(wall, 0.0, latency * 1e6, missed, 0, 1.0)

    def close(self, manager):
        manager.close()

    def finish(self, manager, drive):
        _finish_manager(manager, drive)


WORKLOADS = {w.name: w for w in (ScrHit, ScrMiss, ServeBatchObs, Cluster2W)}


# -- instrumentation (traced run) -------------------------------------------------


def _instrument_engine(tracer: Tracer, engine, seen: set) -> None:
    """Wrap the engine object the technique calls, and the optimizer and
    estimator underneath it, so engine self time is the facade's own."""
    resilient = hasattr(engine, "selectivity_vector_ex")
    suffix = "_ex" if resilient else ""
    tracer.wrap(engine, "selectivity_vector" + suffix, "engine.svector")
    tracer.wrap(engine, "selectivity_vector_with_error" + suffix, "engine.svector")
    tracer.wrap(engine, "optimize", "engine.optimize")
    tracer.wrap(engine, "recost", "engine.recost")
    base = base_engine(engine)
    tracer.wrap(base.optimizer, "optimize", "optimizer.optimize")
    tracer.wrap(base.optimizer, "recost", "optimizer.recost")
    estimator = base.estimator  # one per database, shared by its engines
    if id(estimator) not in seen:
        seen.add(id(estimator))
        tracer.wrap(estimator, "selectivity_vector", "selectivity.point")
        tracer.wrap(
            estimator, "selectivity_vector_with_error", "selectivity.interval"
        )


def _instrument_scr(tracer: Tracer, scr, seen: Optional[set] = None) -> None:
    _instrument_engine(tracer, scr.engine, seen if seen is not None else set())
    tracer.wrap(scr.get_plan, "probe", "core.probe")
    tracer.wrap(scr.get_plan, "probe_batch", "core.probe_batch")
    tracer.wrap(scr.get_plan, "commit", "core.commit")
    tracer.wrap(scr.manage_cache, "register", "core.manage_cache")


def _instrument_manager(tracer: Tracer, manager) -> None:
    seen: set = set()
    for name, state in manager._templates.items():
        _instrument_scr(tracer, state.scr, seen)
        shard = manager.shard(name)
        tracer.wrap(shard, "process", "serving.shard_process")
        tracer.wrap(shard, "process_batch", "serving.shard_batch")
    tracer.wrap(manager, "process_many", "serving.process_many")
    tracer.wrap(manager, "submit", "serving.submit")


def _core_counts(scrs) -> dict:
    """getPlan / manageCache counters, summed over templates."""
    total: dict = {}
    for scr in scrs:
        gp, mc = scr.get_plan, scr.manage_cache.stats
        for key, value in (
            ("selectivity_hits", gp.selectivity_hits),
            ("cost_hits", gp.cost_hits),
            ("misses", gp.misses),
            ("probe_recost_calls", gp.total_recost_calls),
            ("entries_scanned", gp.entries_scanned),
            ("plans_rejected_redundant", mc.plans_rejected_redundant),
            ("optimizer_calls", scr.optimizer_calls),
        ):
            total[key] = total.get(key, 0) + value
    return total


def _engine_counts(engines) -> dict:
    retries = faults = 0
    for engine in engines:
        resilience = engine.counters.resilience
        retries += resilience.retries
        faults += resilience.total_faults
    return {"retries": retries, "faults": faults}
