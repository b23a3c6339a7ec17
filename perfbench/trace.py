"""Outside-in per-layer tracing: wrap each layer's public calls with spans.

The program is not instrumented.  :func:`install` replaces each layer's
entry points — at class level, or at the module attribute a
``from … import`` bound — with a wrapper that records one span
``(layer, start_ns, end_ns, parent)`` per call in memory.  The serving
loop is single-threaded, so spans nest strictly and a span's self time
is its duration minus its direct children's durations.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from pathlib import Path

import numpy as np

from repro.faults.injector import FaultInjector
from repro.faults.journal import ResidencyJournal
from repro.gpusim.engine import ExecutionEngine
from repro.integrity import IntegrityState
from repro.schedulers.micco import MiccoScheduler
from repro.serve.health import HealthMonitor
from repro.serve.queueing import AdmissionQueue
from repro.serve.server import ServeResult
from repro.serve.sharded.learned import LearnedRouting
from repro.serve.sharded.routing import RoutingPolicy
from repro.serve.sharded.server import GlobalScheduler
from repro.serve.slo import LatencyReport
from repro.serve.timeline import Timeline

# ``repro.serve`` is also a function re-exported by the ``repro`` package,
# which shadows the subpackage for ``import repro.serve.server as ...``.
single_server = importlib.import_module("repro.serve.server")
sharded_server = importlib.import_module("repro.serve.sharded.server")

#: Every traced layer, in report order.
LAYERS = (
    "workloads",
    "serve.queueing",
    "serve.timeline",
    "schedulers.micco",
    "gpusim.engine",
    "serve.sharded.routing",
    "serve.sharded.learned",
    "serve.sharded.sync",
    "serve.health",
    "faults",
    "integrity",
    "serve.slo",
)


class Tracer:
    """In-memory span store plus the wrapper that feeds it.

    A span is ``(site, start_ns, end_ns, parent)``: ``site`` indexes
    :attr:`sites`, the ``(layer, entry point)`` it was recorded at, and
    ``parent`` is the index of the enclosing span (-1 at top level).
    """

    def __init__(self):
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.sites: list[tuple[str, str]] = []
        self._site_ids: dict[tuple[str, str], int] = {}
        self._stack: list[int] = []
        #: Admission queues created while installed (peak-depth readout).
        self.queues: list[AdmissionQueue] = []

    def wrap(self, layer: str, name: str, fn):
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        key = (layer, name)
        site = self._site_ids.get(key)
        if site is None:
            site = self._site_ids[key] = len(self.sites)
            self.sites.append(key)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (site, t0, t1, parent)

        return traced

    def site_calls(self) -> dict[tuple[str, str], int]:
        """Calls per ``(layer, entry point)``."""
        counts = np.bincount(
            [s[0] for s in self.spans], minlength=len(self.sites)
        ) if self.spans else np.zeros(len(self.sites), dtype=np.int64)
        return {site: int(counts[i]) for i, site in enumerate(self.sites)}

    def layer_times(self) -> dict[str, dict]:
        """``{layer: {"calls": n, "self_s": s}}`` for every layer in :data:`LAYERS`."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
        if not self.spans:
            return out
        arr = np.array(self.spans, dtype=np.int64)
        dur = arr[:, 2] - arr[:, 1]
        child = np.zeros(len(arr), dtype=np.int64)
        has_parent = arr[:, 3] >= 0
        np.add.at(child, arr[has_parent, 3], dur[has_parent])
        layer_of_site = np.array([LAYERS.index(layer) for layer, _ in self.sites])
        layer = layer_of_site[arr[:, 0]]
        calls = np.bincount(layer, minlength=len(LAYERS))
        self_ns = np.bincount(layer, weights=dur - child, minlength=len(LAYERS))
        for i, name in enumerate(LAYERS):
            out[name] = {"calls": int(calls[i]), "self_s": float(self_ns[i]) / 1e9}
        return out

    def write(self, path: Path, origin_ns: int) -> None:
        """Dump the spans (times relative to ``origin_ns``) as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "sites": [list(site) for site in self.sites],
            "columns": ["site", "start_ns", "end_ns", "parent"],
            "spans": [[site, t0 - origin_ns, t1 - origin_ns, p] for site, t0, t1, p in self.spans],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def _targets():
    """``(owner, attribute, layer)`` for every wrapped entry point."""
    journal = [
        name for name, fn in vars(ResidencyJournal).items()
        if not name.startswith("_") and inspect.isfunction(fn)
    ]
    return [
        (single_server, "build_streams", "workloads"),
        (sharded_server, "build_streams", "workloads"),
        *((AdmissionQueue, m, "serve.queueing") for m in ("offer", "pop", "pop_batch")),
        *((Timeline, m, "serve.timeline") for m in ("push", "pop")),
        *((MiccoScheduler, m, "schedulers.micco") for m in ("choose", "begin_vector")),
        *((ExecutionEngine, m, "gpusim.engine") for m in ("execute_pair", "drain_outputs")),
        (GlobalScheduler, "route", "serve.sharded.routing"),
        *(
            (cls, "choose", "serve.sharded.routing")
            for cls in RoutingPolicy.__subclasses__() if cls is not LearnedRouting
        ),
        *((LearnedRouting, m, "serve.sharded.learned") for m in ("choose", "note_outcome")),
        (GlobalScheduler, "sync", "serve.sharded.sync"),
        *((HealthMonitor, m, "serve.health") for m in ("beat", "evaluate")),
        (FaultInjector, "poll", "faults"),
        *((ResidencyJournal, m, "faults") for m in journal),
        *(
            (IntegrityState, m, "integrity")
            for m in ("note_compute", "sampled", "audit_detected", "note_reported")
        ),
        *((LatencyReport, m, "serve.slo") for m in ("add_completion", "add_drop")),
        (ServeResult, "summary", "serve.slo"),
    ]


def install(tracer: Tracer):
    """Wrap every layer entry point; returns a function that undoes it."""
    saved = []
    for owner, attr, layer in _targets():
        raw = vars(owner)[attr]
        saved.append((owner, attr, raw))
        setattr(owner, attr, tracer.wrap(layer, f"{owner.__name__}.{attr}", raw))

    runner = vars(ExecutionEngine)["pair_runner"]

    def pair_runner(self):
        return tracer.wrap("gpusim.engine", "ExecutionEngine.pair_runner()", runner(self))

    queue_init = vars(AdmissionQueue)["__init__"]

    def init(self, *args, **kwargs):
        queue_init(self, *args, **kwargs)
        tracer.queues.append(self)

    for owner, attr, fn in ((ExecutionEngine, "pair_runner", pair_runner),
                            (AdmissionQueue, "__init__", init)):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, fn)

    def uninstall():
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)

    return uninstall
