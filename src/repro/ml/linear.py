"""Ordinary-least-squares linear regression (multi-output).

The paper's weakest baseline model (Table IV, R² ≈ 0.57): the
characteristics→bounds relationship is non-linear, which is the whole
argument for the tree ensembles.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


class LinearRegression:
    """``y = X w + b`` fit by ``numpy.linalg.lstsq``.

    Features are standardized internally for numerical conditioning;
    coefficients are reported in original units via ``coef_`` /
    ``intercept_``.
    """

    def __init__(self):
        self.coef_: np.ndarray | None = None
        self.intercept_: np.ndarray | None = None

    def fit(self, X, y) -> "LinearRegression":
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(y, dtype=np.float64)
        if Y.ndim == 1:
            Y = Y[:, None]
        if X.ndim != 2 or X.shape[0] != Y.shape[0]:
            raise ModelError(f"shape mismatch: X {X.shape}, y {Y.shape}")
        if X.shape[0] < 2:
            raise ModelError("need at least 2 samples to fit a line")
        # ``X.mean``/``X.std`` fused: the same float ops in the same
        # order, with the deviations computed once and the design
        # matrix written in place of an ``hstack`` copy.
        n, d = X.shape
        mu = np.add.reduce(X, axis=0) / n
        dev = X - mu
        sd = np.sqrt(np.add.reduce(dev * dev, axis=0) / n)
        sd[sd == 0] = 1.0
        A = np.empty((n, d + 1))
        np.divide(dev, sd, out=A[:, :d])
        A[:, d] = 1.0
        W, *_ = np.linalg.lstsq(A, Y, rcond=None)
        w_std = W[:-1]
        b_std = W[-1]
        self.coef_ = (w_std.T / sd).T
        self.intercept_ = b_std - (mu / sd) @ w_std
        return self

    def predict(self, X) -> np.ndarray:
        if self.coef_ is None:
            raise ModelError("predict called before fit")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        return X @ self.coef_ + self.intercept_
