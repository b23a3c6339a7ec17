#!/usr/bin/env python
"""Multi-tenant serving walkthrough: weighted fairness + autoscaling.

Two tenants share one simulated MICCO cluster: a high-priority
"analysis" pipeline (weight 3) and a best-effort "adhoc" stream
(weight 1, bursty traffic).  We run the same offered load three ways:

1. global FIFO admission — whoever arrives first wins, weights ignored;
2. weighted-fair admission — dispatches split ~3:1 under saturation;
3. weighted-fair plus a p99-driven autoscaler — the device pool starts
   at one device, grows on queue build-up or tail-latency pressure
   (paying a cold-start warm-up per device), and retires devices again
   when the burst passes, draining their in-flight work onto the
   survivors.

Everything is seeded and replayable; rerunning prints identical
numbers.

Run:  python examples/multi_tenant_serving.py
"""

from repro import (
    AutoscalerConfig,
    MiccoConfig,
    SloTargets,
    TenantSpec,
    WorkloadParams,
)
from repro.serve import BurstyArrivals, PoissonArrivals, ServeConfig, serve

SEED = 7


def tenants() -> tuple[TenantSpec, ...]:
    stream = WorkloadParams(vector_size=8, tensor_size=64, num_vectors=40, batch=2)
    return (
        TenantSpec(
            "analysis",
            PoissonArrivals(8_000.0),
            stream,
            weight=3.0,
            slo=SloTargets(p99_s=0.01, max_drop_rate=0.05),
        ),
        TenantSpec(
            "adhoc",
            BurstyArrivals(12_000.0, 200.0, mean_on_s=0.002, mean_off_s=0.01),
            stream,
            weight=1.0,
            slo=SloTargets(p99_s=0.05),
        ),
    )


def run(policy: str, autoscale: bool, devices: int = 4):
    cfg = ServeConfig(
        queue_capacity=128,
        queue_policy=policy,
        tenants=tenants(),
        autoscaler=AutoscalerConfig(
            min_devices=1,
            max_devices=4,
            p99_target_s=0.004,
            window_s=0.05,
            up_queue_depth=3,
            warmup_s=0.001,
            cooldown_s=0.005,
        )
        if autoscale
        else None,
    )
    # serve() sees the tenant roster on the config and dispatches the
    # multi-tenant server; no server class named anywhere.
    return serve(cfg, cluster=MiccoConfig(num_devices=devices), seed=SEED)


def describe(tag: str, result) -> None:
    s = result.summary()
    print(f"\n== {tag} ==")
    print(
        f"  global: {s['completed']}/{s['offered']} served, "
        f"p99 {s['p99_s'] * 1e3:.3f} ms, policy {s['queue']['policy']}"
    )
    for name, sec in result.tenants.items():
        t = sec["summary"]
        verdict = "ok" if sec["slo"]["attained"] else "MISS"
        print(
            f"  {name:<9} w={sec['weight']:g}  p99 {t['p99_s'] * 1e3:7.3f} ms  "
            f"mean wait {t['mean_queue_wait_s'] * 1e3:7.3f} ms  slo {verdict}"
        )
    if result.autoscale is not None:
        a = result.autoscale
        print(f"  autoscale: {a['scale_ups']} up, {a['scale_downs']} down")
        for act in a["actions"][:6]:
            print(
                f"    t={act['time_s'] * 1e3:7.2f} ms  {act['action']:<6} "
                f"device {act['device']}  alive {act['alive_after']}  ({act['reason']})"
            )


def main() -> None:
    fifo = run("fifo", autoscale=False)
    fair = run("auto", autoscale=False)
    minimal = run("auto", autoscale=False, devices=1)
    scaled = run("auto", autoscale=True)

    describe("global FIFO (weights ignored)", fifo)
    describe("weighted-fair admission", fair)
    describe("weighted-fair, fixed 1-device pool", minimal)
    describe("weighted-fair + p99 autoscaler (starts at 1 device)", scaled)

    # Weighted-fair should cut the heavy tenant's queue wait relative to
    # FIFO; the autoscaler should beat the fixed pool it starts from.
    fifo_wait = fifo.tenant_report("analysis").summary()["mean_queue_wait_s"]
    fair_wait = fair.tenant_report("analysis").summary()["mean_queue_wait_s"]
    print(
        f"\nanalysis-tenant mean wait: fifo {fifo_wait * 1e3:.3f} ms "
        f"-> weighted {fair_wait * 1e3:.3f} ms"
    )
    print(
        f"global p99: fixed 1-device pool {minimal.p99 * 1e3:.3f} ms "
        f"-> autoscaled {scaled.p99 * 1e3:.3f} ms "
        f"(fixed 4-device upper bound {fair.p99 * 1e3:.3f} ms)"
    )


if __name__ == "__main__":
    main()
