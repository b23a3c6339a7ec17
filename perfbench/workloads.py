"""The benchmark's workloads: seeded serving scenarios built from public knobs.

Each workload turns ``(seed, instance)`` into a :class:`Scenario` — the
``ServeConfig``, the cluster config and an optional fault plan — that
the measured process hands to ``make_server(...)`` and
``server.run(seed=...)``.  Every scenario serves its load through a
``ServeConfig.tenants`` roster, so the tickets themselves are generated
by ``build_streams`` inside ``run()``; the program receives nothing the
seed did not generate.

One ``--seed`` covers ``instances`` independent scenarios (instance
seeds ``1000 * seed + i``) whose tickets the sim metrics pool.
Gray-failure and chaos tails depend on where the seed drops a handful
of fault episodes, so a single scenario per seed would make
``sim_p99_ms`` swing by a third of its value or more from seed to seed;
pooled over several scenarios it is steady.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.core.config import MiccoConfig
from repro.faults import FaultPlan
from repro.gpusim import CostModel, Topology
from repro.integrity import IntegrityConfig
from repro.serve import HealthConfig, PoissonArrivals, ServeConfig, TenantSpec
from repro.workloads import WorkloadParams

MIB = 1024**2


@dataclass(frozen=True)
class Scenario:
    """Everything one measured run passes to the program."""

    serve: ServeConfig
    cluster: MiccoConfig
    faults: FaultPlan | None
    #: Simulated seed handed to ``server.run(seed=...)``.
    seed: int
    #: Tickets the roster generates (the conservation check's reference).
    tickets: int


@dataclass(frozen=True)
class Workload:
    name: str
    #: Independent scenarios per ``--seed``; sim metrics pool their tickets.
    instances: int
    #: Tickets per tenant in a measured run.
    tickets_per_tenant: int
    #: The latency limit behind ``sim_slo_attainment`` (simulated seconds).
    slo_s: float
    #: Layers this workload never calls: each must report 0 calls.
    bypassed: frozenset

    def scenario(self, seed: int, instance: int, tickets_per_tenant: int | None = None) -> Scenario:
        n = self.tickets_per_tenant if tickets_per_tenant is None else tickets_per_tenant
        return _BUILDERS[self.name](instance_seed(seed, instance), n)


def instance_seed(seed: int, instance: int) -> int:
    return 1000 * seed + instance


def _cluster(num_devices: int, devices_per_node: int) -> MiccoConfig:
    topo = Topology(num_devices=num_devices, devices_per_node=devices_per_node)
    return MiccoConfig(
        num_devices=num_devices, memory_bytes=64 * MIB, cost_model=CostModel(topology=topo)
    )


def _plan_seeds(seed: int, n: int) -> list[np.random.SeedSequence]:
    # Entropy distinct from the run seed, whose own spawned streams draw
    # the tenants' vectors and arrivals.
    return np.random.SeedSequence([seed, 0xFA17]).spawn(n)


def _tenants_saturated(seed: int, n: int) -> Scenario:
    rate = 20_000.0  # per tenant; the cluster drains ~2.2k vectors/s
    stream = WorkloadParams(num_vectors=n, vector_size=8, tensor_size=64, batch=2)
    tenants = (
        TenantSpec("heavy", PoissonArrivals(rate), stream, weight=3.0),
        TenantSpec("light", PoissonArrivals(rate), stream, weight=1.0),
    )
    serve = ServeConfig(
        queue_capacity=8192, tenants=tenants,
        schedule_latency_per_pair_s=1e-4, max_batch_vectors=4,
    )
    return Scenario(serve, _cluster(8, 4), None, seed, 2 * n)


#: Gray fault episodes are cut into this many equal time segments, each
#: with its own stragglers, node flap and heartbeat silence: many short
#: episodes put a steady share of tickets in the tail, where one long
#: episode decides p99 by where it happens to land.
GRAY_SEGMENTS = 8


def _sharded_learned_gray(seed: int, n: int) -> Scenario:
    rate = 800.0  # per tenant, below saturation
    stream = WorkloadParams(
        num_vectors=n, vector_size=8, tensor_size=256, repeated_rate=0.6, batch=2
    )
    tenants = (
        TenantSpec("a", PoissonArrivals(rate), stream),
        TenantSpec("b", PoissonArrivals(rate), stream),
    )
    serve = ServeConfig(
        sharded=True, routing="learned", sync_interval_s=0.04,
        queue_capacity=128, schedule_latency_per_pair_s=1e-4,
        health=HealthConfig(hedging=True), tenants=tenants,
        explore_floor=0.05, min_samples=3, refit_interval=2,
    )
    segment_s = n / rate / GRAY_SEGMENTS
    events = []
    for k, ss in enumerate(_plan_seeds(seed, GRAY_SEGMENTS)):
        part = FaultPlan.generate(
            ss, num_devices=12, horizon_s=segment_s,
            n_transient=0, n_transfer=0, n_straggler=2, n_device_lost=0,
            n_node_flap=1, n_heartbeat_loss=1,
        )
        events += [dataclasses.replace(e, time_s=e.time_s + k * segment_s) for e in part]
    return Scenario(serve, _cluster(12, 4), FaultPlan(tuple(events)), seed, 2 * n)


def _chaos_integrity(seed: int, n: int) -> Scenario:
    rate = 600.0  # per tenant, below saturation: any drop comes from a fault
    stream = WorkloadParams(
        num_vectors=n, vector_size=8, tensor_size=128, repeated_rate=0.6, batch=2
    )
    tenants = (
        TenantSpec("a", PoissonArrivals(rate), stream),
        TenantSpec("b", PoissonArrivals(rate), stream),
    )
    serve = ServeConfig(
        queue_capacity=256, schedule_latency_per_pair_s=1e-4, tenants=tenants,
        warm_restore=True, integrity=IntegrityConfig(mode="spot"),
    )
    (ss,) = _plan_seeds(seed, 1)
    plan = FaultPlan.generate(
        ss, num_devices=8, horizon_s=n / rate,
        n_transient=2, n_transfer=2, n_straggler=1, n_device_lost=1,
        n_data_corruption=1, n_tensor_bitflip=1,
    )
    return Scenario(serve, _cluster(8, 4), plan, seed, 2 * n)


_BUILDERS = {
    "tenants_saturated": _tenants_saturated,
    "sharded_learned_gray": _sharded_learned_gray,
    "chaos_integrity": _chaos_integrity,
}

_SHARDED_ONLY = frozenset({
    "serve.sharded.routing", "serve.sharded.learned", "serve.sharded.sync",
    "serve.health",
})

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tenants_saturated",
            instances=1, tickets_per_tenant=4000, slo_s=1.0,
            bypassed=_SHARDED_ONLY | {"faults", "integrity"},
        ),
        Workload(
            "sharded_learned_gray",
            instances=8, tickets_per_tenant=750, slo_s=5e-3,
            bypassed=frozenset({"integrity"}),
        ),
        Workload(
            "chaos_integrity",
            instances=6, tickets_per_tenant=750, slo_s=4e-3,
            bypassed=_SHARDED_ONLY,
        ),
    )
}
