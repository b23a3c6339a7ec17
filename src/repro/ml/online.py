"""Incremental refit support: a sliding-window online regressor.

The offline models in this package (:mod:`repro.ml.linear`,
:mod:`repro.ml.forest`, ...) are batch learners: one ``fit`` over a
materialized training set.  Online consumers — the learned routing
policy in :mod:`repro.serve.sharded.learned` — instead observe one
``(features, target)`` sample at a time and want predictions that
track a drifting target (a shard slowing down mid-run) without paying
a full refit per observation.

:class:`SlidingWindowRegressor` wraps any batch model behind a bounded
sample window and an amortized refit schedule: samples accumulate in a
``deque(maxlen=window)`` and the wrapped model is refit from the
current window every ``refit_interval`` observations (and once
immediately when ``min_samples`` is first reached).  Everything is
deterministic: no RNG is drawn, and the refit cadence is a pure
function of the observation sequence.

The window lives in a preallocated *doubled* ring buffer of
``2 * window`` rows: sample ``i`` is written at ring slot
``i % window`` and again ``window`` rows later, so the last ``window``
samples are always one contiguous, chronological slice.  A refit hands
that slice to ``fit`` as a view, with no per-refit stacking or copy.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.ml.linear import LinearRegression


class SlidingWindowRegressor:
    """A batch regressor refit incrementally over a bounded window.

    Parameters
    ----------
    model_factory:
        Zero-argument callable returning a fresh batch model with
        ``fit(X, y)`` / ``predict(X)`` (default
        :class:`~repro.ml.linear.LinearRegression`).  A fresh model is
        built per refit so stale coefficients never leak across
        windows.
    window:
        Maximum samples retained; older samples fall off the far end.
        The model's ``fit`` receives the retained samples as read-only
        views into the ring buffer and must not keep them.
    refit_interval:
        Observations between refits once the model is warm.
    min_samples:
        Observations required before the first fit (at least 2 — the
        linear model refuses to fit a line through fewer points).
    """

    def __init__(
        self,
        model_factory=LinearRegression,
        *,
        window: int = 512,
        refit_interval: int = 16,
        min_samples: int = 8,
    ):
        if window < 2:
            raise ModelError(f"window must be >= 2, got {window}")
        if refit_interval < 1:
            raise ModelError(
                f"refit_interval must be >= 1, got {refit_interval}"
            )
        if min_samples < 2:
            raise ModelError(f"min_samples must be >= 2, got {min_samples}")
        if min_samples > window:
            raise ModelError(
                f"min_samples ({min_samples}) cannot exceed window ({window})"
            )
        self._factory = model_factory
        self.window = int(window)
        #: Doubled ring buffer, allocated at the first sample (whose
        #: length fixes the feature count).
        self._X: np.ndarray | None = None
        self._y = np.empty(2 * self.window)
        self.refit_interval = int(refit_interval)
        self.min_samples = int(min_samples)
        self._model = None
        self._since_fit = 0
        self.samples = 0  #: total observations ever fed in
        self.refits = 0  #: completed refits

    @property
    def fitted(self) -> bool:
        return self._model is not None

    def observe(self, x, y: float) -> bool:
        """Feed one sample; returns ``True`` when a refit happened."""
        x = np.asarray(x, dtype=np.float64)
        if self._X is None:
            self._X = np.empty((2 * self.window, x.shape[-1]))
        slot = self.samples % self.window
        self._X[slot] = self._X[slot + self.window] = x
        self._y[slot] = self._y[slot + self.window] = float(y)
        self.samples += 1
        self._since_fit += 1
        warm_enough = self.samples >= self.min_samples  # min_samples <= window
        due = self._model is None or self._since_fit >= self.refit_interval
        if not (warm_enough and due):
            return False
        self._model = self._factory().fit(*self.retained)
        self._since_fit = 0
        self.refits += 1
        return True

    @property
    def retained(self) -> tuple[np.ndarray, np.ndarray]:
        """The retained ``(X, y)`` samples, oldest first, as read-only views."""
        n = min(self.samples, self.window)
        start = (self.samples - n) % self.window
        X = (self._X if self._X is not None else np.empty((0, 0)))[start:start + n]
        y = self._y[start:start + n]
        X.flags.writeable = y.flags.writeable = False
        return X, y

    def predict_one(self, x) -> float | None:
        """Predicted target for one feature row, ``None`` while cold."""
        if self._model is None:
            return None
        out = self._model.predict(np.asarray(x, dtype=np.float64))
        return float(np.asarray(out).reshape(-1)[0])
