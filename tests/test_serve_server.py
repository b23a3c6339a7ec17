"""Integration tests for MiccoServer: the online serving event loop."""

import pytest

from repro.core.config import MiccoConfig
from repro.errors import ConfigurationError, WorkloadError
from repro.gpusim.device import GIB
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.groute import GrouteScheduler
from repro.schedulers.micco import MiccoScheduler
from repro.serve import MiccoServer, PoissonArrivals, ServeConfig
from repro.workloads import SyntheticWorkload, WorkloadParams

CONFIG = MiccoConfig(num_devices=2, memory_bytes=2 * GIB)


def stream(num_vectors=12, vector_size=8, seed=3):
    params = WorkloadParams(
        vector_size=vector_size, tensor_size=64, repeated_rate=0.5,
        num_vectors=num_vectors, batch=2,
    )
    return SyntheticWorkload(params, seed=seed).vectors()


def make_server(scheduler=None, serve=None):
    return MiccoServer(scheduler or MiccoScheduler(), CONFIG, serve or ServeConfig())


class TestDeterminism:
    def test_repeated_runs_identical(self):
        """Fixed seed ⇒ identical arrivals, percentiles and drop counts."""
        vectors = stream()
        results = []
        for _ in range(2):
            server = make_server(serve=ServeConfig(queue_capacity=4))
            results.append(server.run(vectors, PoissonArrivals(500.0), seed=11))
        a, b = results
        assert a.arrival_s == b.arrival_s
        assert a.summary() == b.summary()
        assert [r.latency_s for r in a.report.completed] == [
            r.latency_s for r in b.report.completed
        ]
        assert [d.vector_id for d in a.report.dropped] == [
            d.vector_id for d in b.report.dropped
        ]

    def test_rerun_on_same_server_resets(self):
        vectors = stream()
        server = make_server()
        first = server.run(vectors, PoissonArrivals(100.0), seed=5).summary()
        second = server.run(vectors, PoissonArrivals(100.0), seed=5).summary()
        assert first == second


class TestLifecycle:
    def test_all_vectors_accounted_for(self):
        vectors = stream(num_vectors=20)
        res = make_server(serve=ServeConfig(queue_capacity=2)).run(
            vectors, PoissonArrivals(5000.0), seed=1
        )
        assert res.report.offered == len(vectors)
        assert len(res.report.completed) + len(res.report.dropped) == len(vectors)

    def test_dropped_vectors_never_execute(self):
        vectors = stream(num_vectors=20)
        res = make_server(serve=ServeConfig(queue_capacity=1)).run(
            vectors, PoissonArrivals(20000.0), seed=1
        )
        assert res.dropped > 0
        executed_pairs = sum(r.pairs for r in res.report.completed)
        assert res.metrics.pairs_executed == executed_pairs

    def test_timestamps_ordered(self):
        vectors = stream()
        res = make_server().run(vectors, PoissonArrivals(300.0), seed=2)
        for r in res.report.completed:
            assert r.arrival_s <= r.dispatch_s <= r.sched_done_s <= r.complete_s

    def test_light_load_no_queueing(self):
        """At a trickle rate every vector dispatches on arrival."""
        vectors = stream()
        res = make_server().run(vectors, PoissonArrivals(0.5), seed=2)
        assert res.dropped == 0
        for r in res.report.completed:
            assert r.queue_wait_s == pytest.approx(0.0)

    def test_schedule_latency_model(self):
        serve = ServeConfig(schedule_latency_per_pair_s=1e-4)
        vectors = stream(vector_size=8)  # 4 pairs
        res = make_server(serve=serve).run(vectors, PoissonArrivals(1.0), seed=0)
        for r in res.report.completed:
            assert r.schedule_s == pytest.approx(4e-4)

    def test_devices_recorded(self):
        vectors = stream()
        res = make_server().run(vectors, PoissonArrivals(100.0), seed=0)
        for r in res.report.completed:
            assert r.devices
            assert all(0 <= d < CONFIG.num_devices for d in r.devices)


class TestSingleLoopRuntime:
    def test_unsharded_run_constructs_no_shard_view(self, monkeypatch):
        # The single loop's runtime places through the ClusterState
        # itself: no ShardView attribute delegation on its hot path.
        from repro.gpusim import CostModel, Topology
        from repro.serve import AutoscalerConfig, ShardView, serve

        built = []
        init = ShardView.__init__

        def counting_init(view, *args, **kwargs):
            built.append(view)
            init(view, *args, **kwargs)

        monkeypatch.setattr(ShardView, "__init__", counting_init)
        cfg = ServeConfig(
            max_batch_vectors=4,
            autoscaler=AutoscalerConfig(
                min_devices=1, max_devices=2, initial_devices=1,
                up_queue_depth=1, warmup_s=1e-3,
            ),
        )
        result = make_server(serve=cfg).run(stream(), PoissonArrivals(20_000.0), seed=0)
        assert result.autoscale["scale_ups"] >= 1
        assert built == []
        # Control: the sharded loop builds one view per node.
        topo = Topology(num_devices=4, devices_per_node=2)
        serve(
            cfg.with_(sharded=True),
            cluster=MiccoConfig(num_devices=4, cost_model=CostModel(topology=topo)),
            vectors=stream(), arrivals=PoissonArrivals(2000.0), seed=0,
        )
        assert len(built) == 2


    def test_unsharded_run_builds_no_router(self, monkeypatch):
        # An unsharded run is the one-runtime case of the serving loop,
        # not a pass-through router: no GlobalScheduler, hence no digest
        # syncs or health ticks, even with a health block configured.
        from repro.serve import HealthConfig
        from repro.serve.sharded.server import GlobalScheduler

        built = []
        init = GlobalScheduler.__init__

        def counting_init(router, *args, **kwargs):
            built.append(router)
            init(router, *args, **kwargs)

        monkeypatch.setattr(GlobalScheduler, "__init__", counting_init)
        cfg = ServeConfig(health=HealthConfig(hedging=True))
        result = make_server(serve=cfg).run(stream(), PoissonArrivals(2000.0), seed=0)
        assert built == []
        assert result.sharding is None and result.health is None


class TestTraceModes:
    """``ServeConfig.trace`` applies to unsharded and sharded runs alike."""

    @pytest.mark.parametrize("mode", ["off", "full"])
    @pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
    def test_trace_mode_is_honoured(self, sharded, mode, tmp_path):
        from repro.gpusim import CostModel, Topology
        from repro.gpusim.trace import TraceConfig, TraceRecorder
        from repro.serve import serve
        from repro.tensor.spec import reset_uid_counter

        topo = Topology(num_devices=4, devices_per_node=2)
        cluster = MiccoConfig(num_devices=4, cost_model=CostModel(topology=topo))

        def run(trace):
            reset_uid_counter()
            return serve(
                ServeConfig(sharded=sharded, trace=trace), cluster=cluster,
                vectors=stream(), arrivals=PoissonArrivals(2000.0), seed=0,
            )

        result = run(TraceConfig(mode=mode))
        assert result.trace_mode == mode
        if mode == "off":
            assert result.engine_trace is None
            assert len(result.to_trace()) == 0
        else:
            assert isinstance(result.engine_trace, TraceRecorder)
            assert len(result.engine_trace) > 0
            assert len(result.to_trace()) > 0
        # Tracing observes the run; it never changes what the run does.
        result.to_json(tmp_path / "traced.json")
        run(None).to_json(tmp_path / "default.json")
        assert (tmp_path / "traced.json").read_bytes() == (
            tmp_path / "default.json"
        ).read_bytes()


class TestArrivalsInput:
    def test_explicit_timestamps(self):
        vectors = stream(num_vectors=3)
        res = make_server().run(vectors, [0.0, 0.1, 0.2])
        assert res.arrival_s == [0.0, 0.1, 0.2]
        assert len(res.report.completed) == 3

    def test_short_timestamp_list_rejected(self):
        with pytest.raises(WorkloadError):
            make_server().run(stream(num_vectors=3), [0.0, 0.1])

    def test_empty_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            make_server().run([], PoissonArrivals(1.0))


class TestBackpressure:
    def test_overload_sheds_and_saturates(self):
        vectors = stream(num_vectors=30)
        res = make_server(serve=ServeConfig(queue_capacity=4)).run(
            vectors, PoissonArrivals(50000.0), seed=9
        )
        assert res.dropped > 0
        assert res.queue["dropped"] == res.dropped
        assert res.queue["peak_depth"] == 4

    def test_larger_queue_fewer_drops(self):
        vectors = stream(num_vectors=30)
        small = make_server(serve=ServeConfig(queue_capacity=2)).run(
            vectors, PoissonArrivals(50000.0), seed=9
        )
        big = make_server(serve=ServeConfig(queue_capacity=16)).run(
            vectors, PoissonArrivals(50000.0), seed=9
        )
        assert big.dropped < small.dropped

    def test_max_inflight_pipelines(self):
        """A wider inflight window never increases end-to-end latency sums."""
        vectors = stream(num_vectors=20)
        serial = make_server(serve=ServeConfig(max_inflight=1)).run(
            vectors, PoissonArrivals(2000.0), seed=4
        )
        piped = make_server(serve=ServeConfig(max_inflight=2)).run(
            vectors, PoissonArrivals(2000.0), seed=4
        )
        assert piped.report.makespan_s <= serial.report.makespan_s * 1.05


class TestPredictor:
    def test_predictor_consulted_per_vector(self):
        calls = []

        class StubPredictor:
            def predict_bounds(self, chars):
                calls.append(chars)
                return ReuseBounds(0, 2, 0)

        vectors = stream(num_vectors=5)
        server = MiccoServer(MiccoScheduler(), CONFIG, predictor=StubPredictor())
        server.run(vectors, PoissonArrivals(10.0), seed=0)
        assert len(calls) == 5
        assert server.scheduler.bounds == ReuseBounds(0, 2, 0)

    def test_predictor_ignored_for_boundless_scheduler(self):
        class ExplodingPredictor:
            def predict_bounds(self, chars):  # pragma: no cover - must not run
                raise AssertionError("should not be consulted")

        vectors = stream(num_vectors=3)
        server = MiccoServer(GrouteScheduler(), CONFIG, predictor=ExplodingPredictor())
        res = server.run(vectors, PoissonArrivals(10.0), seed=0)
        assert len(res.report.completed) == 3


class TestServeConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(queue_capacity=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(queue_policy="lifo")
        with pytest.raises(ConfigurationError):
            ServeConfig(max_inflight=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(schedule_latency_per_pair_s=-1e-6)

    def test_with_override(self):
        assert ServeConfig().with_(queue_capacity=3).queue_capacity == 3


class TestServeConfigVersioning:
    """Versioned JSON: v2 added the resilience knobs, v3 the batching knobs."""

    V2_KEYS = (
        "warm_restore", "journal_capacity", "prewarm_fraction",
        "fault_aware_admission", "admission_min_success",
    )
    V3_KEYS = ("max_batch_vectors", "batch_memory_frac")

    def test_v2_fields_validate(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(journal_capacity=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(prewarm_fraction=0.0)
        with pytest.raises(ConfigurationError):
            ServeConfig(prewarm_fraction=1.5)
        with pytest.raises(ConfigurationError):
            ServeConfig(admission_min_success=1.0)

    def test_v3_fields_validate(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(max_batch_vectors=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(batch_memory_frac=0.0)
        with pytest.raises(ConfigurationError):
            ServeConfig(batch_memory_frac=1.5)

    def test_v3_round_trip(self, tmp_path):
        import json

        cfg = ServeConfig(
            warm_restore=True, journal_capacity=128, prewarm_fraction=0.25,
            fault_aware_admission=True, admission_min_success=0.8,
            max_batch_vectors=4, batch_memory_frac=0.3,
        )
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        on_disk = json.loads(path.read_text())
        assert on_disk["version"] == ServeConfig.CONFIG_VERSION == 8
        assert ServeConfig.from_json(path) == cfg

    def test_version_1_file_loads_with_later_defaults(self, tmp_path):
        import json

        path = tmp_path / "old.json"
        path.write_text(json.dumps({"version": 1, "queue_capacity": 7}))
        cfg = ServeConfig.from_json(path)
        assert cfg.queue_capacity == 7
        assert cfg.warm_restore is False
        assert cfg.fault_aware_admission is False
        assert cfg.max_batch_vectors == 1

    def test_version_2_file_loads_with_v3_defaults(self, tmp_path):
        import json

        path = tmp_path / "v2.json"
        path.write_text(json.dumps({"version": 2, "warm_restore": True}))
        cfg = ServeConfig.from_json(path)
        assert cfg.warm_restore is True
        assert cfg.max_batch_vectors == 1
        assert cfg.batch_memory_frac == 0.5

    @pytest.mark.parametrize("key, value", [
        ("warm_restore", True),
        ("journal_capacity", 64),
        ("prewarm_fraction", 0.5),
        ("fault_aware_admission", True),
        ("admission_min_success", 0.7),
        ("max_batch_vectors", 4),
        ("batch_memory_frac", 0.3),
    ])
    def test_newer_keys_rejected_in_version_1_file(self, tmp_path, key, value):
        import json

        path = tmp_path / "old.json"
        path.write_text(json.dumps({"version": 1, key: value}))
        with pytest.raises(ConfigurationError):
            ServeConfig.from_json(path)

    @pytest.mark.parametrize("key, value", [
        ("max_batch_vectors", 4),
        ("batch_memory_frac", 0.3),
    ])
    def test_v3_keys_rejected_in_version_2_file(self, tmp_path, key, value):
        import json

        path = tmp_path / "v2.json"
        path.write_text(json.dumps({"version": 2, key: value}))
        with pytest.raises(ConfigurationError):
            ServeConfig.from_json(path)

    def test_unknown_version_rejected(self, tmp_path):
        import json

        path = tmp_path / "future.json"
        path.write_text(json.dumps({"version": 9}))
        with pytest.raises(ConfigurationError, match="version"):
            ServeConfig.from_json(path)

    def test_v6_trace_block_round_trips(self, tmp_path):
        import json

        from repro.gpusim.trace import TraceConfig

        cfg = ServeConfig(trace=TraceConfig(mode="sampling", sample_stride=8))
        path = tmp_path / "v6.json"
        cfg.to_json(path)
        on_disk = json.loads(path.read_text())
        assert on_disk["version"] == 8
        assert on_disk["trace"] == {"mode": "sampling", "sample_stride": 8}
        assert ServeConfig.from_json(path) == cfg

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_v6_trace_key_rejected_in_older_files(self, tmp_path, version):
        import json

        path = tmp_path / "older.json"
        path.write_text(json.dumps({"version": version, "trace": {"mode": "full"}}))
        with pytest.raises(ConfigurationError):
            ServeConfig.from_json(path)

    def test_unversioned_dict_assumes_current(self):
        cfg = ServeConfig.from_dict({"warm_restore": True, "max_batch_vectors": 2})
        assert cfg.warm_restore is True
        assert cfg.max_batch_vectors == 2
