"""Metric names, units and directions — the single table ``BENCHMARK.json`` mirrors.

"host" values are wall-clock measurements of the simulator on the
machine running it; "sim" values are read off the modelled cluster's
clock and repeat exactly at a fixed seed.
"""

from __future__ import annotations

#: End-to-end metrics: ``name -> (unit, better)``.
END_TO_END = {
    "tickets_per_s": ("tickets/s", "higher"),      # host
    "peak_rss_mib": ("MiB", "lower"),              # host
    "setup_s": ("s", "lower"),                     # host
    "sim_p50_ms": ("ms", "lower"),
    "sim_p99_ms": ("ms", "lower"),
    "sim_throughput_vps": ("vectors/s", "higher"),
    "sim_slo_attainment": ("fraction", "higher"),
    "completed_frac": ("fraction", "higher"),
}

_EXTRAS = {
    "workloads": {"ns_per_ticket": "ns"},
    "serve.queueing": {
        "sim_rejected": "count", "sim_peak_depth": "count", "sim_mean_wait_ms": "ms",
    },
    "serve.timeline": {
        "events": "count", "events_per_ticket": "count", "events_per_s": "1/s",
    },
    "schedulers.micco": {"ns_per_pair": "ns"},
    "gpusim.engine": {
        "ns_per_pair": "ns", "sim_reuse_hit_ratio": "fraction",
        "sim_transfers": "count", "sim_evictions": "count",
        "sim_device_busy_frac": "fraction",
    },
    "serve.sharded.routing": {"sim_forwards": "count"},
    "serve.sharded.learned": {"sim_refits": "count", "sim_explored_frac": "fraction"},
    "serve.sharded.sync": {},
    "serve.health": {"sim_hedges": "count", "sim_hedge_clone_win_ratio": "fraction"},
    "faults": {
        "sim_transient_failures": "count", "sim_device_losses": "count",
        "sim_rescheduled_pairs": "count",
    },
    "integrity": {
        "sim_audited_pairs": "count", "sim_detected": "count", "sim_escaped": "count",
        "sim_audit_overhead_frac": "fraction",
    },
    "serve.slo": {"ns_per_ticket": "ns"},
}


def _per_layer() -> dict[str, tuple[str, str]]:
    out = {}
    for layer, extras in _EXTRAS.items():
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.self_s"] = ("s", "lower")
        for name, unit in extras.items():
            better = "lower"
            if name in ("events_per_s", "sim_reuse_hit_ratio", "sim_hedge_clone_win_ratio"):
                better = "higher"
            out[f"{layer}.{name}"] = (unit, better)
    out["loop.residual_s"] = ("s", "lower")
    out["trace.overhead_frac"] = ("fraction", "lower")
    return out


#: Per-layer metrics from the traced run: ``name -> (unit, better)``.
PER_LAYER = _per_layer()
