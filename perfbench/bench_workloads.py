"""The benchmark's four workloads: seeded inputs, operations, output checks.

Each workload is built once from ``--seed`` (the set-up the benchmark
times) and then yields the operations of one *pass*; the benchmark runs
passes back to back and times each.  Every operation is a call into the
library's public API, and every result is checked afterwards, outside
the timed region.  Why each workload exists, and which layers it should
and should not move, is recorded in ``perfbench/README.md``.

The workloads call the entry points through their modules
(``sb.run_tenant_replications`` rather than a name imported here), so a
traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, fields
from statistics import NormalDist
from typing import Any, Callable

import numpy as np

from repro.experiments.common import reference_distribution
from repro.policies import checkpointing as cp
from repro.sim import backend as sb
from repro.sim.cluster_vectorized import GangJob
from repro.sim.service_vectorized import ServiceBatchConfig
from repro.sim.tenancy_vectorized import BagSubmission, normalize_traffic
from repro.traces.catalog import default_catalog
from repro.traffic.arrivals import JobMix, PoissonProcess, TenantSpec

#: Absolute tolerance (hours) of every float comparison: the tolerance
#: of the repository's cross-backend equivalence tiers.
TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One operation of a pass: a library call and the check of its result."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


def _subseed(seed: int, *key: int) -> int:
    """A 32-bit seed derived from the workload seed and a key path."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def _instrument(on: bool):
    # ``None`` defers to the ambient instrumentation, which is off: the
    # untraced run passes exactly what a default caller passes.
    return True if on else None


# ----------------------------------------------------------------------
# Output checks (each returns a list of problems; empty means correct)
# ----------------------------------------------------------------------

def _check_accounting(out) -> list[str]:
    """Invariants every service/tenancy sweep must satisfy."""
    bad = []
    if not np.all(np.isfinite(out.makespan)) or np.any(out.makespan < 0):
        bad.append("makespan not finite and non-negative")
    if out.pool_vm_hours is not None and not np.allclose(
        out.pool_vm_hours.sum(axis=1), out.vm_hours, rtol=0, atol=TOL
    ):
        bad.append("per-pool hours do not sum to vm_hours")
    for name in ("vm_hours", "wasted_hours", "master_hours"):
        if np.any(getattr(out, name) < -TOL):
            bad.append(f"{name} negative")
    return bad


def check_service(n_jobs: int) -> Callable[[Any], list[str]]:
    def check(out) -> list[str]:
        bad = _check_accounting(out)
        if np.any(out.completed_jobs != n_jobs):
            bad.append("a replication did not finish every job of the bag")
        return bad

    return check


def check_tenancy(out) -> list[str]:
    bad = _check_accounting(out)
    if np.any(out.completed_jobs != out.admitted.sum(axis=1)):
        bad.append("an admitted job did not finish")
    fin, start = out.finish_times, out.start_times
    if not np.all(np.isfinite(fin[out.admitted])):
        bad.append("an admitted job has no finish time")
    if np.any(np.isfinite(fin[~out.admitted])):
        bad.append("a rejected job has a finish time")
    adm = out.admitted
    arrival = np.broadcast_to(out.job_arrival, adm.shape)
    if np.any(start[adm] < arrival[adm] - TOL) or np.any(fin[adm] < start[adm] - TOL):
        bad.append("job times out of order (arrival <= start <= finish)")
    return bad


def _check_plan(plan, job_hours: float) -> list[str]:
    bad = []
    if abs(sum(plan.segments) - job_hours) > TOL:
        bad.append(f"plan segments sum to {sum(plan.segments)} h, not {job_hours} h")
    if not (np.isfinite(plan.expected_makespan) and plan.expected_makespan >= job_hours):
        bad.append(f"expected makespan {plan.expected_makespan} is not >= the job")
    return bad


def check_monotone_plan(job_hours: float) -> Callable[[Any], list[str]]:
    """Section 4.3: the fresh-VM plan's intervals increase monotonically."""

    def check(plan) -> list[str]:
        bad = _check_plan(plan, job_hours)
        iv = plan.intervals_minutes()
        if any(b < a for a, b in zip(iv, iv[1:])):
            bad.append(f"checkpoint intervals not monotone: {iv}")
        return bad

    return check


_EXACT = ("n_events", "n_draws", "n_preemptions", "n_job_failures", "completed_jobs", "admitted")
_HOURS = ("makespan", "wasted_hours", "vm_hours", "master_hours", "pool_vm_hours",
          "start_times", "finish_times")


def check_pair(inner: Callable[[Any], list[str]]) -> Callable[[Any], list[str]]:
    """Event oracle vs vectorized kernel at one seed: exact counts and
    1e-9 hours, plus each side's own invariants."""

    def check(pair) -> list[str]:
        ev, vec = pair
        bad = [f"event: {p}" for p in inner(ev)] + [f"vectorized: {p}" for p in inner(vec)]
        for name in _EXACT:
            a, b = getattr(ev, name, None), getattr(vec, name, None)
            if a is not None and not np.array_equal(a, b):
                bad.append(f"{name} differs between event and vectorized")
        for name in _HOURS:
            a, b = getattr(ev, name, None), getattr(vec, name, None)
            if a is not None and not (
                np.shape(a) == np.shape(b)
                and np.allclose(a, b, rtol=0, atol=TOL, equal_nan=True)
            ):
                bad.append(f"{name} differs by more than {TOL} h")
        return bad

    return check


# ----------------------------------------------------------------------
# Digest of the simulated outputs
# ----------------------------------------------------------------------

def _feed(h, value) -> None:
    if isinstance(value, tuple) and not hasattr(value, "_fields"):
        for v in value:
            _feed(h, v)
    elif hasattr(value, "__dataclass_fields__"):
        for f in fields(value):
            if f.name != "stats":  # host timings, not outputs
                h.update(f.name.encode())
                _feed(h, getattr(value, f.name))
    elif isinstance(value, np.ndarray):
        h.update(str(value.dtype).encode() + str(value.shape).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())


def digest(value) -> str:
    """SHA-256 over every output array of a result (bytes, dtype, shape)."""
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def _tenant_specs(n: int, rate: float) -> list[TenantSpec]:
    """``n`` Poisson tenants with lognormal job mixes (the fig9-tenants
    shape); :func:`_traffic` uses their mixes and weights and stratifies
    their arrivals.  Mean job lengths are spread evenly over 0.4-0.9 h
    rather than drawn, so the seed moves arrivals and bag contents only."""
    return [
        TenantSpec(
            name=f"tenant-{i}",
            arrivals=PoissonProcess(rate),
            mix=JobMix(mean_hours=0.4 + 0.5 * i / max(n - 1, 1), cv=0.3,
                       widths=(1, 2), jobs_per_bag=(2, 3)),
            weight=float(i + 1),
        )
        for i in range(n)
    ]


def _stratified_hours(mix: JobMix, m: int) -> np.ndarray:
    """The mix's lognormal law at the ``m`` midpoint quantiles."""
    if mix.cv == 0.0:
        return np.full(m, mix.mean_hours)
    sigma = float(np.sqrt(np.log1p(mix.cv**2)))
    law = NormalDist(float(np.log(mix.mean_hours)) - 0.5 * sigma**2, sigma)
    z = [law.inv_cdf((i + 0.5) / m) for i in range(m)]
    return np.maximum(np.exp(z), mix.min_hours)


def _traffic(n: int, rate: float, horizon: float, seed: int, *key: int):
    """Seeded traffic of ``n`` tenants whose totals every seed shares.

    The ``round(n * rate * horizon)`` bags are dealt out over the
    tenants (the first tenants get one more when they do not divide);
    a tenant's ``k``-th of ``b`` bags arrives at a uniform random time
    in the ``k``-th ``1/b`` of the horizon (stratified, so that the
    seed cannot bunch arrivals into a burst).  Bag sizes cycle over
    the mix's ``jobs_per_bag`` range; the tenant's job lengths are its
    lognormal law at midpoint quantiles, and its widths cycle over the
    mix's widths along the sorted lengths.  The seed shuffles the sizes
    and the (length, width) pairs over the bags.  So every seed offers
    the fleet the same bags, jobs and node-hours, and moves only when
    each bag arrives and what it holds.
    Against plain ``sample_traffic`` draws conditioned on the bag count,
    this cuts the seed-to-seed spread of ``fleet``'s kernel rounds from
    10% to 3% and of its lifetime draws from 43% to 7%.
    """
    specs = _tenant_specs(n, rate)
    rng = np.random.default_rng(_subseed(seed, *key))
    total = round(n * rate * horizon)
    submissions = []
    for idx, spec in enumerate(specs):
        bags = total // n + (idx < total % n)
        lo, hi = spec.mix.jobs_per_bag
        sizes = rng.permutation(lo + np.arange(bags) % (hi - lo + 1))
        m = int(sizes.sum())
        # Widths cycle over the sorted lengths, so that each width gets
        # an even share of short and long jobs; pairs are then shuffled.
        order = rng.permutation(m)
        hours = _stratified_hours(spec.mix, m)[order]
        widths = np.asarray(spec.mix.widths)[order % len(spec.mix.widths)]
        times = (np.arange(bags) + rng.uniform(size=bags)) * (horizon / bags)
        first = np.concatenate(([0], np.cumsum(sizes)))
        for t, a, b in zip(times, first[:-1], first[1:]):
            jobs = tuple(GangJob(float(h), int(w)) for h, w in zip(hours[a:b], widths[a:b]))
            submissions.append(BagSubmission(tenant=idx, time=float(t), jobs=jobs))
    return specs, normalize_traffic(submissions)


class Tenants:
    """fig9-tenants: 2/4 tenants x 0.5/1.0 bags/h x fifo/fair/weighted on
    a shared 4-VM fleet, reuse on, admission cap 12, no checkpointing."""

    TENANT_COUNTS = (2, 4)
    RATES = (0.5, 1.0)
    POLICIES = ("fifo", "fair", "weighted")
    HORIZON = 6.0
    REPLICATIONS = 20

    def __init__(self, seed: int):
        self.dist = reference_distribution()
        self.dists = (self.dist,)
        self.cells = []
        for ti, n in enumerate(self.TENANT_COUNTS):
            for ri, rate in enumerate(self.RATES):
                specs, traffic = _traffic(n, rate, self.HORIZON, seed, 1, ti, ri)
                weights = tuple(s.weight for s in specs)
                self.cells.append((n, rate, traffic, weights, _subseed(seed, 2, ti, ri)))

    def ops(self, *, instrument: bool, serial: bool) -> list[Op]:
        out = []
        for n, rate, traffic, weights, run_seed in self.cells:
            for policy in self.POLICIES:
                def run(n=n, traffic=traffic, weights=weights, run_seed=run_seed, policy=policy):
                    return sb.run_tenant_replications(
                        self.dist, traffic, n_tenants=n,
                        n_replications=self.REPLICATIONS, seed=run_seed,
                        max_vms=4, scheduling=policy,
                        tenant_weights=weights if policy == "weighted" else None,
                        admission_cap=12, instrument=_instrument(instrument),
                    )
                out.append(Op(f"tenants/{n}x{rate}/{policy}", run, check_tenancy))
        return out


class Checkpoint:
    """Section 4.3 DP planning, used the three ways the code uses it."""

    FIG8_LENGTHS = (1.0, 3.0, 5.0, 7.0, 9.0)  # fig8-mc panel (b), step 0.1 h
    SERVICE_CONFIG = ServiceBatchConfig(
        max_vms=8, use_reuse_policy=False, checkpoint="dp",
        checkpoint_cost=0.1, checkpoint_step=0.25,
    )
    REPLICATIONS = 1000

    def __init__(self, seed: int):
        self.dist = reference_distribution()
        self.dists = (self.dist,)
        rng = np.random.default_rng(_subseed(seed, 1))
        # Plan reads at seeded start ages hit the table each miss built.
        self.ages = [float(a) for a in rng.uniform(0.0, 12.0, len(self.FIG8_LENGTHS))]
        # The longest job is pinned at 8 h so the walker's table has one
        # size; the others are seeded.
        self.bag = [(8.0, 2)] + [
            (float(h), int(w))
            for h, w in zip(rng.uniform(0.5, 6.0, 7), rng.integers(1, 5, 7))
        ]
        self.run_seed = _subseed(seed, 2)

    def ops(self, *, instrument: bool, serial: bool) -> list[Op]:
        # Fresh policies per pass: every pass solves from an empty cache.
        fig8 = cp.CheckpointPolicy(self.dist, step=0.1, delta=1.0 / 60.0)
        out = []
        for job, age in zip(self.FIG8_LENGTHS, self.ages):
            def run(job=job, age=age):
                return fig8.plan(job, 0.0), fig8.expected_makespan(job, age)

            def check(res, job=job):
                plan, aged = res
                bad = _check_plan(plan, job)
                if not (np.isfinite(aged) and aged >= job):
                    bad.append(f"aged expected makespan {aged} is not >= the job")
                return bad

            out.append(Op(f"checkpoint/fig8b/{job:g}h", run, check))

        def schedule():
            policy = cp.CheckpointPolicy(self.dist, step=1.0 / 30.0, delta=1.0 / 60.0)
            return policy.plan(5.0, 0.0)

        out.append(Op("checkpoint/schedule/5h", schedule, check_monotone_plan(5.0)))

        def service():
            return sb.run_service_replications(
                self.dist, self.bag, config=self.SERVICE_CONFIG,
                n_replications=self.REPLICATIONS, seed=self.run_seed,
                instrument=_instrument(instrument),
            )

        out.append(Op("checkpoint/service-dp", service, check_service(len(self.bag))))
        return out


class Fleet:
    """Thousands of replications of 4-tenant traffic on an 8-VM fleet with
    boot latency, hot spares and fixed-interval checkpoints, reuse off,
    streamed in chunks and sharded over ``nproc`` workers."""

    REPLICATIONS = 4000
    CHUNK = 1000

    def __init__(self, seed: int):
        self.dist = reference_distribution()
        self.dists = (self.dist,)
        _, self.traffic = _traffic(4, 0.75, 6.0, seed, 1)
        self.run_seed = _subseed(seed, 2)
        self.workers = len(os.sched_getaffinity(0))  # nproc

    def ops(self, *, instrument: bool, serial: bool) -> list[Op]:
        def run():
            return sb.run_tenant_replications(
                self.dist, self.traffic, n_tenants=4,
                n_replications=self.REPLICATIONS, seed=self.run_seed,
                chunk_size=self.CHUNK, workers=1 if serial else self.workers,
                max_vms=8, provision_latency=0.05, hot_spare_hours=0.5,
                checkpoint_interval=0.5, use_reuse_policy=False,
                scheduling="fair", instrument=_instrument(instrument),
            )

        return [Op("fleet/4000", run, check_tenancy)]


class Oracle:
    """The event backend on the tenants fair-policy traffic and on the
    fig9 service bag, each paired with the vectorized backend."""

    TENANT_REPLICATIONS = 16
    SERVICE_REPLICATIONS = 16

    def __init__(self, seed: int):
        self.dist = reference_distribution()
        catalog = default_catalog()
        # Fig. 9's nanoconfinement bag: 60 jobs of 14 min x 4 VMs.
        self.fig9_dist = catalog.distribution("n1-highcpu-32", "us-central1-c")
        self.dists = (self.dist, self.fig9_dist)
        self.bag = [(14.0 / 60.0, 4)] * 60
        _, self.traffic = _traffic(4, 0.5, Tenants.HORIZON, seed, 1, 1, 0)
        self.tenant_seed = _subseed(seed, 2)
        self.service_seed = _subseed(seed, 3)

    def ops(self, *, instrument: bool, serial: bool) -> list[Op]:
        def tenants(backend):
            return sb.run_tenant_replications(
                self.dist, self.traffic, n_tenants=4,
                n_replications=self.TENANT_REPLICATIONS, seed=self.tenant_seed,
                backend=backend, max_vms=4, scheduling="fair", admission_cap=12,
                instrument=_instrument(instrument),
            )

        def service(backend):
            return sb.run_service_replications(
                self.fig9_dist, self.bag, max_vms=16, use_reuse_policy=True,
                run_master=True, n_replications=self.SERVICE_REPLICATIONS,
                seed=self.service_seed, backend=backend,
                instrument=_instrument(instrument),
            )

        return [
            Op("oracle/tenants-fair",
               lambda: (tenants("event"), tenants("vectorized")),
               check_pair(check_tenancy)),
            Op("oracle/fig9-service",
               lambda: (service("event"), service("vectorized")),
               check_pair(check_service(len(self.bag)))),
        ]


WORKLOADS = {"tenants": Tenants, "checkpoint": Checkpoint, "fleet": Fleet, "oracle": Oracle}
