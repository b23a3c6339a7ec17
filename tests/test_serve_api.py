"""Tests for the unified ``repro.serve.api.serve()`` entry point."""

import warnings

import pytest

from repro.core.config import MiccoConfig
from repro.errors import ConfigurationError
from repro.gpusim import CostModel, Topology
from repro.gpusim.device import GIB
from repro.schedulers.micco import MiccoScheduler
from repro.serve import (
    MiccoServer,
    PoissonArrivals,
    ServeConfig,
    ShardedServer,
    TenantSpec,
    make_server,
    serve,
)
from repro.workloads import SyntheticWorkload, WorkloadParams

CONFIG = MiccoConfig(num_devices=2, memory_bytes=2 * GIB)


def stream(num_vectors=8):
    params = WorkloadParams(
        vector_size=8, tensor_size=64, repeated_rate=0.5,
        num_vectors=num_vectors, batch=2,
    )
    return SyntheticWorkload(params, seed=3).vectors()


def tenant_cfg(**kwargs):
    spec = WorkloadParams(vector_size=8, tensor_size=64, num_vectors=6, batch=2)
    return ServeConfig(
        tenants=(
            TenantSpec("a", PoissonArrivals(500.0), spec, weight=2.0),
            TenantSpec("b", PoissonArrivals(500.0), spec, weight=1.0),
        ),
        **kwargs,
    )


def sharded_cluster(num_devices=4, per_node=2):
    topo = Topology(num_devices=num_devices, devices_per_node=per_node)
    return MiccoConfig(num_devices=num_devices, cost_model=CostModel(topology=topo))


class TestDispatch:
    def test_default_config_uses_single_loop(self):
        server = make_server(cluster=CONFIG)
        assert type(server) is MiccoServer

    def test_tenants_select_multi_tenant(self):
        # The single loop serves the tenant roster itself.
        server = make_server(tenant_cfg(), cluster=CONFIG)
        assert type(server) is MiccoServer

    def test_sharded_selects_sharded(self):
        server = make_server(ServeConfig(sharded=True), cluster=sharded_cluster())
        assert type(server) is ShardedServer

    def test_sharded_wins_over_tenants(self):
        server = make_server(tenant_cfg(sharded=True), cluster=sharded_cluster())
        assert type(server) is ShardedServer


class TestServe:
    def test_single_stream_matches_direct_construction(self):
        vectors = stream()
        via_api = serve(
            ServeConfig(queue_capacity=4),
            cluster=CONFIG,
            vectors=vectors,
            arrivals=PoissonArrivals(500.0),
            seed=11,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            direct = MiccoServer(
                MiccoScheduler(), CONFIG, ServeConfig(queue_capacity=4)
            ).run(vectors, PoissonArrivals(500.0), seed=11)
        assert via_api.summary() == direct.summary()

    def test_tenant_run(self):
        result = serve(tenant_cfg(), cluster=CONFIG, seed=5)
        assert result.tenants is not None
        assert set(result.tenants) == {"a", "b"}

    def test_sharded_run(self):
        result = serve(
            ServeConfig(sharded=True),
            cluster=sharded_cluster(),
            vectors=stream(),
            arrivals=PoissonArrivals(500.0),
            seed=2,
        )
        assert result.sharding is not None
        assert result.sharding["num_shards"] == 2

    def test_sharded_tenant_run(self):
        result = serve(tenant_cfg(sharded=True), cluster=sharded_cluster(), seed=2)
        assert result.sharding is not None
        assert result.tenants is not None

    def test_explicit_timestamps_accepted(self):
        vectors = stream(num_vectors=3)
        result = serve(
            cluster=CONFIG, vectors=vectors, arrivals=[0.0, 0.1, 0.2], seed=0
        )
        assert result.arrival_s == [0.0, 0.1, 0.2]

    def test_tenants_reject_explicit_stream(self):
        with pytest.raises(ConfigurationError):
            serve(tenant_cfg(), cluster=CONFIG, vectors=stream(), arrivals=[0.0])

    def test_single_stream_requires_vectors_and_arrivals(self):
        with pytest.raises(ConfigurationError):
            serve(ServeConfig(), cluster=CONFIG)
        with pytest.raises(ConfigurationError):
            serve(ServeConfig(), cluster=CONFIG, vectors=stream())


class TestDeprecation:
    def test_direct_construction_warns(self):
        with pytest.warns(DeprecationWarning, match="MiccoServer"):
            MiccoServer(config=CONFIG)
        with pytest.warns(DeprecationWarning, match="ShardedServer"):
            ShardedServer(
                config=sharded_cluster(), serve=ServeConfig(sharded=True)
            )

    def test_api_paths_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            make_server(cluster=CONFIG)
            serve(
                cluster=CONFIG,
                vectors=stream(num_vectors=2),
                arrivals=[0.0, 0.1],
                seed=0,
            )
