"""On-disk golden manifest: fixed-seed artifacts pinned by SHA-256.

``tests/test_golden_equivalence.py`` compares a default run with a
traced run in one process, so a change that moves both alike is
invisible to it.  This suite pins the serialized
artifacts themselves: for every mode below, the SHA-256 of the
latency-report JSON and of the rendered Chrome trace must match
``tests/golden/manifest.json``.

The test never rewrites the manifest.  A deliberate behaviour change
regenerates it with ``PYTHONPATH=src python tools/regen_golden.py``,
and the reason goes into the change's notes.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.serve.sharded.learned import LearnedRouting
from tests.test_golden_equivalence import artifacts, run_mode

MANIFEST_PATH = Path(__file__).parent / "golden" / "manifest.json"

#: Every serving mode the manifest pins.  Between them they run each
#: single-loop and sharded-loop control path at least once: bounds
#: rescaling, autoscaling (initial shrink, scale up/down, warm-up,
#: loss replacement), batching, flap restores, node loss, blame
#: quarantine, health + hedging and every routing policy.  The last
#: three pin where the two loops still differ: the order orphaned
#: tickets re-execute in (``tenant-loss``, ``sharded-tenant-loss``) and
#: whether a pool with no alive device keeps dispatching
#: (``single-pool-empty``).  ``learned-wrap`` is the only mode whose
#: learned-routing models outgrow their sample window.
GOLDEN_MODES = (
    "single",
    "tenants",
    "batched",
    "integrity",
    "node-loss",
    "autoscale",
    "single-flap",
    "single-quarantine",
    "sharded",
    "sharded-least-loaded",
    "sharded-threshold-local",
    "learned",
    "health-hedging",
    "sharded-node-loss",
    "sharded-autoscale",
    "sharded-flap",
    "sharded-integrity",
    "tenant-loss",
    "sharded-tenant-loss",
    "single-pool-empty",
    "learned-wrap",
)


def mode_digests(mode: str, workdir: Path) -> dict:
    """SHA-256 of the report JSON and the Chrome trace of one mode's run."""
    report, trace = artifacts(run_mode(mode), workdir, mode)
    return {
        "report_sha256": hashlib.sha256(report).hexdigest(),
        "trace_sha256": hashlib.sha256(trace).hexdigest(),
    }


def load_manifest() -> dict:
    return json.loads(MANIFEST_PATH.read_text())["modes"]


def test_manifest_pins_exactly_the_golden_modes():
    assert sorted(load_manifest()) == sorted(GOLDEN_MODES)


@pytest.mark.parametrize("mode", GOLDEN_MODES)
def test_artifacts_match_manifest(mode, tmp_path):
    assert mode_digests(mode, tmp_path) == load_manifest()[mode]


def test_learned_wrap_outgrows_the_window():
    """Every shard model refits past a full window, or the pin is moot."""
    window = LearnedRouting().window
    per_shard = run_mode("learned-wrap").routing["per_shard"]
    assert len(per_shard) == 2
    assert all(shard["samples"] > window for shard in per_shard.values())


#: The modes whose bytes go through ``numpy.linalg.lstsq`` (learned
#: routing's online refits), and so depend on the BLAS/LAPACK build.
LSTSQ_MODES = {"learned", "learned-wrap"}


def test_only_learned_modes_call_lstsq(monkeypatch):
    """Record which golden modes call ``lstsq`` (matmul/dot not counted)."""
    lstsq = np.linalg.lstsq
    calls = Counter()

    def counted(*args, **kwargs):
        calls[mode] += 1
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    for mode in GOLDEN_MODES:
        run_mode(mode)
    assert set(calls) == LSTSQ_MODES
