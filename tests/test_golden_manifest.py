"""On-disk golden manifest: fixed-seed artifacts pinned by SHA-256.

``tests/test_golden_equivalence.py`` compares two simulator cores in one
process, so a change to the serving loops, which both cores share, is
invisible to it.  This suite pins the serialized artifacts themselves:
for every mode below, the SHA-256 of the latency-report JSON and of the
rendered Chrome trace must match ``tests/golden/manifest.json``.

The test never rewrites the manifest.  A deliberate behaviour change
regenerates it with ``PYTHONPATH=src python tools/regen_golden.py``,
and the reason goes into the change's notes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tests.test_golden_equivalence import artifacts, run_mode

MANIFEST_PATH = Path(__file__).parent / "golden" / "manifest.json"

#: Every serving mode the manifest pins.  Between them they run each
#: single-loop and sharded-loop control path at least once: bounds
#: rescaling, autoscaling (initial shrink, scale up/down, warm-up,
#: loss replacement), batching, flap restores, node loss, blame
#: quarantine, health + hedging and every routing policy.
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
