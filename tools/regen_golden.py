"""Regenerate ``tests/golden/manifest.json`` from the current tree.

Run from the repository root::

    PYTHONPATH=src python tools/regen_golden.py          # rewrite
    PYTHONPATH=src python tools/regen_golden.py --check  # diff only

Rewriting the manifest re-baselines the fixed-seed behaviour contract;
do it only for an intended behaviour change and record why.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from tests.test_golden_manifest import GOLDEN_MODES, MANIFEST_PATH, mode_digests  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="report modes whose hashes differ; write nothing",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        modes = {mode: mode_digests(mode, Path(tmp)) for mode in GOLDEN_MODES}
    if args.check:
        old = json.loads(MANIFEST_PATH.read_text())["modes"] if MANIFEST_PATH.exists() else {}
        changed = sorted(m for m in set(modes) | set(old) if modes.get(m) != old.get(m))
        for mode in changed:
            print(f"changed: {mode}")
        return 1 if changed else 0
    MANIFEST_PATH.parent.mkdir(parents=True, exist_ok=True)
    MANIFEST_PATH.write_text(json.dumps({"modes": modes}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(modes)} modes to {MANIFEST_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
