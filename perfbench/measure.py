"""One measured run in its own process: set up, warm up, run, check, report.

Invoked by :mod:`perfbench.run` as
``python -m perfbench.measure WORKLOAD SEED INSTANCE SPAWN_NS MODE [SPANS]``
and prints one JSON record on stdout.  ``SPAWN_NS`` is the parent's
``time.monotonic_ns()`` just before it started this interpreter, so
``setup_s`` covers interpreter start, ``import repro`` and
``make_server(...)``.  ``MODE`` is ``plain`` (one timed run),
``repeat`` (plus an in-process repeat whose summary must hash the same)
or ``traced`` (plus a repeat with every layer wrapped, see
:mod:`perfbench.trace`).
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from repro.serve import make_server

from perfbench.workloads import WORKLOADS, Scenario, Workload

#: Tickets per tenant of the untimed warm-up run.
WARMUP_TICKETS = 32


def summary_sha(summary: dict) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


def serve_once(server, sc: Scenario):
    """``run()`` plus ``summary()``, timed together."""
    gc.collect()
    t0 = time.perf_counter()
    result = server.run(seed=sc.seed, faults=sc.faults)
    summary = result.summary()
    return result, summary, time.perf_counter() - t0


def check_run(server, result, summary: dict, sc: Scenario) -> list[str]:
    """The correctness checks every run must pass; returns the failures."""
    failures = []
    offered, completed, dropped = (summary[k] for k in ("offered", "completed", "dropped"))
    if not offered == completed + dropped == sc.tickets:
        failures.append(
            f"conservation: generated {sc.tickets}, offered {offered}, "
            f"completed {completed} + dropped {dropped}"
        )
    for spec in sc.serve.tenants:
        t = summary["tenants"][spec.name]["summary"]
        if not t["offered"] == t["completed"] + t["dropped"] == spec.num_vectors:
            failures.append(
                f"conservation[{spec.name}]: generated {spec.num_vectors}, offered "
                f"{t['offered']}, completed {t['completed']} + dropped {t['dropped']}"
            )
    try:
        server.cluster.check_invariants()
    except AssertionError as exc:
        failures.append(f"cluster invariants: {exc}")
    integ = summary.get("integrity")
    if integ is not None and integ["detected"] != integ["repaired"] + integ["flagged"]:
        failures.append(
            f"integrity conservation: detected {integ['detected']} != repaired "
            f"{integ['repaired']} + flagged {integ['flagged']}"
        )
    return failures


def sim_record(result, summary: dict, workload: Workload) -> dict:
    """The run's simulated outputs; :mod:`perfbench.run` pools them per seed."""
    latencies = [r.latency_s for r in result.report.completed]
    return {
        "latency_ms": [s * 1e3 for s in latencies],
        "within_slo": sum(1 for s in latencies if s <= workload.slo_s),
        "offered": summary["offered"],
        "completed": summary["completed"],
        "throughput_vps": summary["throughput_vps"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, result, summary: dict, traced_wall: float, wall: float) -> dict:
    """Every ``PER_LAYER`` metric of one traced run."""
    times = tracer.layer_times()
    calls = tracer.site_calls()
    tickets = summary["offered"]
    out = {}
    for layer, t in times.items():
        out[f"{layer}.calls"] = t["calls"]
        out[f"{layer}.self_s"] = t["self_s"]

    def self_ns_per(layer, n):
        return _ratio(times[layer]["self_s"] * 1e9, n)

    out["workloads.ns_per_ticket"] = self_ns_per("workloads", tickets)

    out["serve.queueing.sim_rejected"] = sum(q.dropped for q in tracer.queues)
    out["serve.queueing.sim_peak_depth"] = max((q.peak_depth for q in tracer.queues), default=0)
    out["serve.queueing.sim_mean_wait_ms"] = summary["mean_queue_wait_s"] * 1e3

    events = summary["events_processed"]
    out["serve.timeline.events"] = events
    out["serve.timeline.events_per_ticket"] = _ratio(events, tickets)
    out["serve.timeline.events_per_s"] = _ratio(events, wall)

    out["schedulers.micco.ns_per_pair"] = self_ns_per(
        "schedulers.micco", calls.get(("schedulers.micco", "MiccoScheduler.choose"), 0)
    )
    pairs = sum(
        n for (layer, site), n in calls.items()
        if layer == "gpusim.engine" and site != "ExecutionEngine.drain_outputs"
    )
    out["gpusim.engine.ns_per_pair"] = self_ns_per("gpusim.engine", pairs)
    counts = result.metrics.counts
    out["gpusim.engine.sim_reuse_hit_ratio"] = _ratio(
        counts.reuse_hits, counts.reuse_hits + counts.input_fetches
    )
    out["gpusim.engine.sim_transfers"] = counts.input_fetches
    out["gpusim.engine.sim_evictions"] = counts.evictions
    busy = float(result.metrics.device_time_s.sum())
    out["gpusim.engine.sim_device_busy_frac"] = _ratio(
        busy, result.metrics.num_devices * summary["makespan_s"]
    )

    out["serve.sharded.routing.sim_forwards"] = (summary.get("sharding") or {}).get("forwards", 0)
    routing = summary.get("routing") or {}
    out["serve.sharded.learned.sim_refits"] = sum(
        s["refits"] for s in routing.get("per_shard", {}).values()
    )
    out["serve.sharded.learned.sim_explored_frac"] = _ratio(
        routing.get("explored", 0), routing.get("decisions", 0)
    )
    hedges = (summary.get("health") or {}).get("hedges", {})
    out["serve.health.sim_hedges"] = hedges.get("launched", 0)
    out["serve.health.sim_hedge_clone_win_ratio"] = _ratio(
        hedges.get("won_by_clone", 0), hedges.get("launched", 0)
    )
    faults = summary.get("faults") or {}
    for key in ("transient_failures", "device_losses", "rescheduled_pairs"):
        out[f"faults.sim_{key}"] = faults.get(key, 0)
    integ = summary.get("integrity") or {}
    for key in ("audited_pairs", "detected", "escaped", "audit_overhead_frac"):
        out[f"integrity.sim_{key}"] = integ.get(key, 0)
    out["serve.slo.ns_per_ticket"] = self_ns_per("serve.slo", tickets)

    out["loop.residual_s"] = traced_wall - sum(t["self_s"] for t in times.values())
    out["trace.overhead_frac"] = traced_wall / wall - 1.0
    return out


def measure(workload: Workload, seed: int, instance: int, spawn_ns: int, mode: str,
            spans_path: Path | None = None, tickets_per_tenant: int | None = None) -> dict:
    """Set up, warm up and serve one scenario; returns the run's record.

    ``tickets_per_tenant`` shrinks the scenario (the benchmark's own
    tests use it for smoke runs).
    """
    sc = workload.scenario(seed, instance, tickets_per_tenant)
    server = make_server(sc.serve, cluster=sc.cluster)
    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9

    warm = workload.scenario(seed, instance, tickets_per_tenant=WARMUP_TICKETS)
    make_server(warm.serve, cluster=warm.cluster).run(seed=warm.seed, faults=warm.faults).summary()

    result, summary, wall = serve_once(server, sc)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = check_run(server, result, summary, sc)
    sha = summary_sha(summary)
    record = {
        "instance": instance,
        "offered": summary["offered"],
        "wall_s": wall,
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
        "sha": sha,
        "sim": sim_record(result, summary, workload),
    }
    if mode == "repeat":
        _, again, _ = serve_once(server, sc)
        if summary_sha(again) != sha:
            failures.append("determinism: in-process repeat changed summary() bytes")
    elif mode == "traced":
        from perfbench.trace import Tracer, install

        del result, summary
        tracer = Tracer()
        uninstall = install(tracer)
        try:
            origin = time.perf_counter_ns()
            t_result, t_summary, traced_wall = serve_once(server, sc)
        finally:
            uninstall()
        failures += check_run(server, t_result, t_summary, sc)
        if summary_sha(t_summary) != sha:
            failures.append("determinism: traced repeat changed summary() bytes")
        layers = layer_metrics(tracer, t_result, t_summary, traced_wall, wall)
        used = sorted(
            layer for layer in workload.bypassed if layers[f"{layer}.calls"] != 0
        )
        if used:
            failures.append(f"bypass: layers predicted unused were called: {used}")
        record["traced_wall_s"] = traced_wall
        record["layers"] = layers
        if spans_path is not None:
            tracer.write(spans_path, origin)
    record["failures"] = failures
    return record


def main(argv: list[str]) -> int:
    name, seed, instance, spawn_ns, mode, *rest = argv
    if mode not in ("plain", "repeat", "traced"):
        raise SystemExit(f"unknown mode {mode!r}")
    record = measure(
        WORKLOADS[name], int(seed), int(instance), int(spawn_ns), mode,
        Path(rest[0]) if rest else None,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
