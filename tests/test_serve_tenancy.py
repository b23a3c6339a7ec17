"""Unit tests for tenant specs, stream building and per-tenant reports."""

import pytest

from repro.errors import ConfigurationError
from repro.serve import (
    PoissonArrivals,
    ServeConfig,
    SloTargets,
    TenantSpec,
    TraceArrivals,
    make_server,
)
from repro.serve.slo import LatencyReport
from repro.serve.tenancy import build_streams, tenant_sections
from repro.serve.timeline import Ticket
from repro.workloads import WorkloadParams
from tests.conftest import make_vector


def spec(name="t", rate=100.0, weight=1.0, num_vectors=4, **slo):
    return TenantSpec(
        name,
        PoissonArrivals(rate),
        WorkloadParams(num_vectors=num_vectors, vector_size=8, tensor_size=32),
        weight=weight,
        slo=SloTargets(**slo),
    )


class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TenantSpec("", PoissonArrivals(1.0))
        with pytest.raises(ConfigurationError):
            TenantSpec("a", PoissonArrivals(1.0), weight=0.0)
        with pytest.raises(ConfigurationError):
            TenantSpec("a", "poisson")  # not an ArrivalProcess

    def test_dict_round_trip(self):
        s = spec("heavy", rate=250.0, weight=3.0, p99_s=0.5, max_drop_rate=0.1)
        assert TenantSpec.from_dict(s.to_dict()) == s

    def test_from_dict_rejects_unknown_keys(self):
        d = spec().to_dict()
        d["priority"] = 7
        with pytest.raises(ConfigurationError):
            TenantSpec.from_dict(d)

    def test_from_dict_needs_name_and_arrivals(self):
        with pytest.raises(ConfigurationError):
            TenantSpec.from_dict({"name": "a"})

    def test_num_vectors_property(self):
        assert spec(num_vectors=7).num_vectors == 7


class TestSloTargets:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SloTargets(p99_s=0.0)
        with pytest.raises(ConfigurationError):
            SloTargets(max_drop_rate=1.5)

    def test_attainment_met_and_missed(self):
        report = LatencyReport()
        t = Ticket(vector=make_vector(n_pairs=2), arrival_s=0.0)
        t.dispatch_s = t.sched_done_s = 0.0
        t.complete_s = 0.1
        report.add_completion(t)
        ok = SloTargets(p99_s=1.0).attainment(report)
        assert ok["attained"] and ok["checks"]["p99_s"]["met"]
        miss = SloTargets(p99_s=0.01).attainment(report)
        assert not miss["attained"]

    def test_unset_targets_vacuously_attained(self):
        assert SloTargets().attainment(LatencyReport())["attained"]
        assert SloTargets().attainment(LatencyReport())["checks"] == {}

    def test_target_with_no_completions_is_unmet(self):
        res = SloTargets(p99_s=1.0).attainment(LatencyReport())
        assert not res["attained"]  # NaN percentile cannot satisfy a target


class TestBuildStreams:
    def test_deterministic_per_seed(self):
        tenants = (spec("a", weight=2.0), spec("b"))
        s1 = build_streams(tenants, seed=5)
        s2 = build_streams(tenants, seed=5)
        assert [st.times for st in s1] == [st.times for st in s2]
        assert [
            [v.num_tensors for v in st.vectors] for st in s1
        ] == [[v.num_tensors for v in st.vectors] for st in s2]

    def test_different_seeds_differ(self):
        tenants = (spec("a"),)
        assert build_streams(tenants, 1)[0].times != build_streams(tenants, 2)[0].times

    def test_vector_ids_globally_unique(self):
        streams = build_streams((spec("a", num_vectors=3), spec("b", num_vectors=3)), 0)
        ids = [v.vector_id for st in streams for v in st.vectors]
        assert ids == list(range(6))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ConfigurationError):
            build_streams((spec("a"), spec("a")), 0)

    def test_rejects_empty_roster(self):
        with pytest.raises(ConfigurationError):
            build_streams((), 0)


class TestTenantSections:
    def make_report(self):
        report = LatencyReport()
        for i, tenant in enumerate(["a", "a", "b"]):
            t = Ticket(vector=make_vector(n_pairs=2, vector_id=i), arrival_s=0.0, tenant=tenant)
            t.dispatch_s = t.sched_done_s = 0.0
            t.complete_s = 0.1 * (i + 1)
            report.add_completion(t)
        return report

    def test_sections_slice_by_tenant(self):
        report = self.make_report()
        sections = tenant_sections(report, [spec("a", weight=2.0), spec("b")])
        assert sections["a"]["summary"]["completed"] == 2
        assert sections["b"]["summary"]["completed"] == 1
        assert sections["a"]["weight"] == 2.0

    def test_for_tenant_view(self):
        report = self.make_report()
        sub = report.for_tenant("a")
        assert len(sub.completed) == 2
        assert report.tenant_names() == ["a", "b"]


class TestServeConfigTenancy:
    def test_tenant_names_must_be_unique(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(tenants=(spec("a"), spec("a")))

    def test_json_round_trip(self, tmp_path):
        from repro.serve import AutoscalerConfig

        cfg = ServeConfig(
            queue_capacity=16,
            tenants=(spec("heavy", weight=3.0, p99_s=0.5), spec("light")),
            autoscaler=AutoscalerConfig(max_devices=4, p99_target_s=0.1),
        )
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        assert ServeConfig.from_json(path) == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            ServeConfig.from_dict({"queue_capcity": 3})


class TestMultiTenantServer:
    def test_requires_tenants(self):
        # run() with neither a vector stream nor a tenant roster.
        with pytest.raises(ConfigurationError):
            make_server(ServeConfig()).run(seed=0)

    def test_per_tenant_sections_in_result(self):
        cfg = ServeConfig(tenants=(spec("a", weight=2.0), spec("b")))
        result = make_server(cfg).run(seed=0)
        assert set(result.tenants) == {"a", "b"}
        assert result.summary()["tenants"]["a"]["summary"]["offered"] == 4
        assert result.queue["policy"] == "weighted"

    def test_deterministic_per_seed(self):
        cfg = ServeConfig(tenants=(spec("a"), spec("b")))
        server = make_server(cfg)
        assert server.run(seed=3).summary() == server.run(seed=3).summary()

    def test_weighted_shares_under_saturation(self):
        # Both tenants arrive at t≈0 (trace arrivals) with equal demand;
        # weight 3:1 should let the heavy tenant finish ~3/4 of the
        # early dispatches.
        n = 12
        heavy = TenantSpec(
            "heavy",
            TraceArrivals([0.0] * n),
            WorkloadParams(num_vectors=n, vector_size=8, tensor_size=32),
            weight=3.0,
        )
        light = TenantSpec(
            "light",
            TraceArrivals([0.0] * n),
            WorkloadParams(num_vectors=n, vector_size=8, tensor_size=32),
            weight=1.0,
        )
        cfg = ServeConfig(queue_capacity=64, tenants=(heavy, light))
        result = make_server(cfg).run(seed=0)
        completions = sorted(result.report.completed, key=lambda r: r.dispatch_s)
        first_half = completions[: n]
        share = sum(1 for r in first_half if r.tenant == "heavy") / len(first_half)
        assert share == pytest.approx(0.75, abs=0.1)
