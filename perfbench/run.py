"""Benchmark command: serve one workload repeatedly, one process per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs cycles over the workload's scenarios (see
:mod:`perfbench.workloads`) until ``S`` seconds have passed, each run
in a fresh interpreter (:mod:`perfbench.measure`), so set-up time and
peak RSS are per run.  Every run is checked for correctness, and runs
of one scenario must produce byte-identical ``summary()`` output.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of traced runs.  The last line of standard output is
one JSON object: ``correct``, ``attempted`` (runs), ``failed`` (runs
with a failed check) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: One measured process may take this long before the run is abandoned.
RUN_TIMEOUT_S = 120.0

WORKLOAD_NAMES = ("tenants_saturated", "sharded_learned_gray", "chaos_integrity")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def spawn(workload: str, seed: int, instance: int, mode: str, spans: Path | None) -> dict:
    """Run one measured process; returns its record or raises RuntimeError."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    # One thread: no BLAS worker pool competing for the second core.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    cmd = [sys.executable, "-m", "perfbench.measure", workload, str(seed), str(instance)]
    spawn_ns = time.monotonic_ns()
    cmd += [str(spawn_ns), mode] + ([str(spans)] if spans is not None else [])
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"measured run exited with code {proc.returncode}: {cmd}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(args, instances: int) -> list[dict]:
    """Whole cycles over the scenarios until ``--seconds`` have passed."""
    records = []
    start = time.monotonic()
    cycle = 0
    while cycle == 0 or time.monotonic() - start < args.seconds:
        for i in range(instances):
            if args.trace:
                mode = "traced"
            else:
                mode = "repeat" if cycle == 0 else "plain"
            spans = None
            if args.trace and cycle == 0:
                spans = ROOT / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}-i{i}.json.gz"
            records.append(spawn(args.workload, args.seed, i, mode, spans))
        cycle += 1
    return records


def aggregate(records: list[dict], trace: bool) -> tuple[dict, list[str]]:
    """Median metrics plus the list of failed checks (one entry per run)."""
    failures = []
    first_sha: dict[int, str] = {}
    for n, r in enumerate(records):
        ref = first_sha.setdefault(r["instance"], r["sha"])
        run_failures = list(r["failures"])
        if r["sha"] != ref:
            run_failures.append(
                f"determinism: scenario {r['instance']} summary() differs across processes"
            )
        if run_failures:
            failures.append(f"run {n} (scenario {r['instance']}): " + "; ".join(run_failures))

    med = statistics.median
    if trace:
        names = records[0]["layers"].keys()
        return {k: med(r["layers"][k] for r in records) for k in names}, failures
    per_instance = {}
    for r in records:
        per_instance.setdefault(r["instance"], r["sim"])
    metrics = {
        "tickets_per_s": med(r["offered"] / r["wall_s"] for r in records),
        "peak_rss_mib": med(r["peak_rss_mib"] for r in records),
        "setup_s": med(r["setup_s"] for r in records),
    }
    metrics.update(pooled_sim_metrics(list(per_instance.values())))
    return metrics, failures


def pooled_sim_metrics(sims: list[dict]) -> dict:
    """Sim metrics of one seed: its scenarios' tickets pooled into one population."""
    latencies = np.concatenate([np.asarray(s["latency_ms"], dtype=float) for s in sims])
    offered = sum(s["offered"] for s in sims)
    return {
        "sim_p50_ms": float(np.percentile(latencies, 50)),
        "sim_p99_ms": float(np.percentile(latencies, 99)),
        "sim_throughput_vps": statistics.median(s["throughput_vps"] for s in sims),
        "sim_slo_attainment": sum(s["within_slo"] for s in sims) / offered,
        "completed_frac": sum(s["completed"] for s in sims) / offered,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOADS

    try:
        records = collect(args, WORKLOADS[args.workload].instances)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics, failures = aggregate(records, bool(args.trace))
    spec = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(spec):
        print(f"perfbench: metric set mismatch: {sorted(set(metrics) ^ set(spec))}", file=sys.stderr)
        return 1
    for line in failures:
        print(f"perfbench: CHECK FAILED {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} runs={len(records)} failed={len(failures)}")
    for name, (unit, better) in spec.items():
        print(f"{name:44s} {metrics[name]:>16.6g} {unit:10s} ({better} is better)")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": spec[name][0]} for name in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
