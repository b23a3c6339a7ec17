"""Lazy tenant streams: same vectors, same order, same bytes as eager ones.

A run draws each tenant's next vector only when that tenant's previous
arrival fires, and numbers tensor uids in run-scoped per-tenant blocks.
These tests pin that this is invisible in the output: the vectors equal
an eager, roster-order materialisation through the process-wide uid
counter; same-time arrivals keep their roster order; no tenant runs
ahead of its arrivals; and a run's artifacts do not depend on what else
the process generated before it.
"""

import numpy as np
import pytest

import repro.serve.server as server_module
from repro.core.config import MiccoConfig
from repro.gpusim import TraceConfig
from repro.gpusim.device import GIB
from repro.serve import PoissonArrivals, ServeConfig, TenantSpec, TraceArrivals, serve
from repro.serve.server import MiccoServer
from repro.serve.tenancy import build_streams
from repro.tensor.spec import reset_uid_counter
from repro.utils.rng import spawn_generators
from repro.workloads import SyntheticWorkload, WorkloadParams
from repro.workloads.synth import generate_stream
from tests.test_golden_equivalence import artifacts, sharded_cluster, tenant_roster

SEED = 11


def eager_streams(tenants, seed):
    """Every tenant's vectors drawn up front, in roster order, with uids
    from the process-wide counter started at zero and vector ids
    renumbered globally."""
    reset_uid_counter()
    rngs = spawn_generators(seed, 2 * len(tenants))
    streams, next_id = [], 0
    for i, spec in enumerate(tenants):
        vectors = SyntheticWorkload(spec.workload, seed=rngs[2 * i]).vectors()
        for v in vectors:
            v.vector_id = next_id
            next_id += 1
        streams.append(vectors)
    return streams


def fingerprint(vector):
    return vector.vector_id, [
        (p.left.uid, p.left.label, p.right.uid, p.right.label, p.out.uid, p.out.label)
        for p in vector.pairs
    ]


ROSTERS = {
    "mixed": (
        WorkloadParams(vector_size=8, tensor_size=64, repeated_rate=0.6, num_vectors=20, batch=2),
        WorkloadParams(vector_size=8, tensor_size=32, repeated_rate=0.3, num_vectors=15, batch=2),
    ),
    "rate-0-and-1": (
        WorkloadParams(vector_size=6, num_vectors=12, repeated_rate=0.0),
        WorkloadParams(vector_size=6, num_vectors=12, repeated_rate=1.0),
    ),
    "vector-size-2": (
        WorkloadParams(vector_size=2, num_vectors=9),
        WorkloadParams(vector_size=2, num_vectors=4, repeated_rate=1.0),
    ),
    "one-vector": (
        WorkloadParams(vector_size=8, num_vectors=1),
        WorkloadParams(vector_size=4, num_vectors=1),
        WorkloadParams(vector_size=8, num_vectors=3),
    ),
    "gaussian": (
        WorkloadParams(vector_size=16, num_vectors=10, distribution="gaussian", rank=3, tensor_size=16),
        WorkloadParams(vector_size=8, num_vectors=10, distribution="gaussian", sigma_frac=0.2),
    ),
}


@pytest.mark.parametrize("name", sorted(ROSTERS))
def test_lazy_streams_match_eager_materialisation(name):
    tenants = [
        TenantSpec(f"t{i}", PoissonArrivals(1_000.0), params)
        for i, params in enumerate(ROSTERS[name])
    ]
    eager = eager_streams(tenants, SEED)
    streams = build_streams(tenants, SEED)
    # Interleave the draws the way a run does: uids must not depend on
    # which tenant draws first.
    lazy = [[] for _ in streams]
    while any(s.drawn < len(s) for s in streams):
        for i, s in reversed(list(enumerate(streams))):
            if s.drawn < len(s):
                lazy[i].append(s.draw())
    assert [[fingerprint(v) for v in vs] for vs in lazy] == [
        [fingerprint(v) for v in vs] for vs in eager
    ]


@pytest.mark.parametrize("params", [p for roster in ROSTERS.values() for p in roster])
def test_uid_count_is_the_stream_block_size(params):
    vectors = SyntheticWorkload(params, seed=SEED, uid_base=100).vectors()
    uids = {u for v in vectors for p in v.pairs for u in (p.left.uid, p.right.uid, p.out.uid)}
    assert uids == set(range(100, 100 + params.uid_count()))


@pytest.mark.parametrize("n", range(2, 65))
def test_shuffle_makes_the_swaps_of_permutation(n):
    items = [object() for _ in range(n)]
    shuffled, indexed = np.random.default_rng(n), np.random.default_rng(n)
    got = list(items)
    shuffled.shuffle(got)
    assert got == [items[i] for i in indexed.permutation(n).tolist()]
    assert shuffled.random() == indexed.random()  # same draws consumed


def arrival_log(monkeypatch):
    """Record ``(tenant, vector_id)`` of every arrival the loop handles."""
    log = []
    on_arrival = MiccoServer._on_arrival

    def spy(self, run, event, now):
        log.append((event.ticket.tenant, event.ticket.vector.vector_id))
        on_arrival(self, run, event, now)

    monkeypatch.setattr(MiccoServer, "_on_arrival", spy)
    return log


@pytest.mark.parametrize("sharded", [False, True])
def test_same_time_arrivals_keep_roster_order(monkeypatch, sharded):
    times = [0.0, 0.0, 1e-3, 1e-3, 2e-3]
    params = WorkloadParams(vector_size=8, tensor_size=64, num_vectors=len(times), batch=2)
    tenants = (
        TenantSpec("a", TraceArrivals(times), params),
        TenantSpec("b", TraceArrivals(times), params),
    )
    log = arrival_log(monkeypatch)
    cfg = ServeConfig(tenants=tenants, sharded=sharded, routing="least-loaded")
    cluster = sharded_cluster() if sharded else MiccoConfig(num_devices=4, memory_bytes=2 * GIB)
    serve(cfg, cluster=cluster, seed=SEED)
    # Eager order: by time, then by global stream position (a's
    # vectors are 0..4, b's 5..9).
    expected = sorted(
        [("a", k) for k in range(5)] + [("b", 5 + k) for k in range(5)],
        key=lambda e: (times[e[1] % 5], e[1]),
    )
    assert log == expected


def test_no_tenant_draws_ahead_of_its_arrivals(monkeypatch):
    captured = []
    build = server_module.build_streams

    def capture(tenants, seed):
        captured.extend(build(tenants, seed))
        return captured

    monkeypatch.setattr(server_module, "build_streams", capture)
    delivered = {}
    on_arrival = MiccoServer._on_arrival
    checked = []

    def check(self, run, event, now):
        delivered[event.stream] = delivered.get(event.stream, 0) + 1
        for s in captured:
            assert s.drawn <= delivered.get(s, 0) + 1, (s.tenant, s.drawn, delivered.get(s, 0))
        checked.append(event)
        on_arrival(self, run, event, now)

    monkeypatch.setattr(MiccoServer, "_on_arrival", check)
    cfg = ServeConfig(queue_capacity=32, tenants=tenant_roster(n=40))
    result = serve(cfg, cluster=MiccoConfig(num_devices=4, memory_bytes=2 * GIB), seed=SEED)
    assert len(checked) == result.report.offered == 80
    assert all(s.drawn == len(s) for s in captured)


def test_repeated_tenant_runs_in_one_process_are_byte_identical(tmp_path):
    cfg = ServeConfig(queue_capacity=32, tenants=tenant_roster(), trace=TraceConfig("full"))
    cluster = MiccoConfig(num_devices=4, memory_bytes=2 * GIB)

    def run(tag):
        result = serve(cfg, cluster=cluster, seed=SEED)
        # The engine's device events carry tensor uids in their args.
        engine_path = tmp_path / f"{tag}_engine.json"
        result.engine_trace.save_chrome_trace(engine_path)
        return (*artifacts(result, tmp_path, tag), engine_path.read_bytes())

    first = run("first")
    # An unrelated stream draws uids from the process-wide counter.
    generate_stream(WorkloadParams(vector_size=8, num_vectors=5), seed=0)
    second = run("second")
    assert b'"uid"' in first[2]
    assert first == second
