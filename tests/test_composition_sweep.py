"""Composition sweep: seeded random feature combinations, run twice each.

Every config draws a serving mode, tenants, batching, the inflight
window, an autoscaler, a generated fault plan over all ten fault kinds,
recovery, warm restore, fault-aware admission, an integrity mode, a
routing policy, health and hedging from its index.  Each run must:

- finish without an exception;
- conserve tickets (``offered == completed + dropped``);
- replay byte-identically (report JSON and Chrome trace) on a second
  run in the same process.  Nothing is reset in between: tenant runs
  number tensor uids per run and single-stream vectors from an explicit
  base, so the replay proves that no process-global state leaks in.

The budget is small here; the CI sweep step raises it through the
``MICCO_SWEEP_CONFIGS`` environment variable.
"""

import os

import numpy as np
import pytest

from repro.core.config import MiccoConfig
from repro.faults import FaultPlan
from repro.gpusim import CostModel, Topology
from repro.serve import (
    AutoscalerConfig,
    HealthConfig,
    IntegrityConfig,
    PoissonArrivals,
    ServeConfig,
    TenantSpec,
    serve,
)
from repro.serve.sharded.routing import ROUTING_POLICIES
from repro.workloads import SyntheticWorkload, WorkloadParams
from tests.test_golden_equivalence import artifacts

MIB = 1024**2

#: Configs drawn per run of this module.
SWEEP_CONFIGS = int(os.environ.get("MICCO_SWEEP_CONFIGS", "64"))

#: Fault-plan knob for each of the ten fault kinds.
FAULT_KNOBS = (
    "n_transient", "n_transfer", "n_straggler", "n_device_lost",
    "n_node_lost", "n_link_lost", "n_heartbeat_loss", "n_node_flap",
    "n_data_corruption", "n_tensor_bitflip",
)


def draw(index: int) -> dict:
    """The ``serve()`` arguments of config ``index`` (builds its vectors)."""
    rng = np.random.default_rng([0xC0DE, index])

    def pick(options):
        return options[int(rng.integers(len(options)))]

    def coin(p=0.5):
        return bool(rng.random() < p)

    topo = Topology(num_devices=8, devices_per_node=4)
    cluster = MiccoConfig(
        num_devices=8, memory_bytes=64 * MIB, cost_model=CostModel(topology=topo)
    )
    n = int(rng.integers(12, 25))
    rate = pick((2_000.0, 6_000.0, 20_000.0))
    params = WorkloadParams(
        vector_size=8, tensor_size=64, repeated_rate=0.6, num_vectors=n, batch=2
    )
    tenants = ()
    if coin():
        tenants = (
            TenantSpec("a", PoissonArrivals(rate), params, weight=3.0),
            TenantSpec("b", PoissonArrivals(rate / 2), params, weight=1.0),
        )
    autoscaler = None
    if coin(0.3):
        initial = int(rng.integers(1, 5))
        autoscaler = AutoscalerConfig(
            min_devices=1, max_devices=int(rng.integers(initial, 9)),
            initial_devices=initial, up_queue_depth=int(rng.integers(1, 4)),
            warmup_s=pick((2e-4, 1e-3)), cooldown_s=1e-3, window_s=2e-3,
            replace_lost=coin(),
        )
    faults = None
    if coin(0.85):
        counts = {knob: int(rng.integers(0, 2)) for knob in FAULT_KNOBS}
        faults = FaultPlan.generate(
            int(rng.integers(2**31)), num_devices=8, horizon_s=n / rate, **counts
        )
    integrity = None
    if coin(0.4):
        integrity = IntegrityConfig(
            mode=pick(("off", "spot", "suspect-full")),
            audit_fraction=pick((0.1, 0.3)),
        )
    health = None
    if coin(0.4):
        health = HealthConfig(
            heartbeat_interval_s=1e-3, hedging=coin(), hedge_deadline_s=2e-3,
            adaptive_hedging=coin(0.3),
        )
    cfg = ServeConfig(
        queue_capacity=pick((8, 32)),
        max_inflight=int(rng.integers(1, 4)),
        max_batch_vectors=pick((1, 2, 4)),
        recover_faults=coin(0.8),
        tenants=tenants,
        autoscaler=autoscaler,
        faults=faults,
        warm_restore=coin(),
        fault_aware_admission=coin(0.3),
        sharded=coin(),
        sync_interval_s=pick((2e-3, 1e-2)),
        routing=pick(ROUTING_POLICIES),
        explore_floor=0.1, min_samples=4, refit_interval=4,
        health=health,
        integrity=integrity,
    )
    seed = int(rng.integers(2**31))
    if tenants:
        return dict(config=cfg, cluster=cluster, seed=seed)
    vectors = SyntheticWorkload(params, seed=seed, uid_base=0).vectors()
    return dict(
        config=cfg, cluster=cluster, seed=seed,
        vectors=vectors, arrivals=PoissonArrivals(rate),
    )


def run_config(index: int):
    """One run of config ``index``."""
    kwargs = draw(index)
    return serve(kwargs.pop("config"), **kwargs)


@pytest.mark.parametrize("index", range(SWEEP_CONFIGS))
def test_composition_runs_clean_and_replays(index, tmp_path):
    first = run_config(index)
    offered = len(first.arrival_s)
    assert offered == len(first.report.completed) + first.dropped
    once = artifacts(first, tmp_path, "first")
    twice = artifacts(run_config(index), tmp_path, "second")
    assert once == twice
