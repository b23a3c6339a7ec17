"""SlidingWindowRegressor: incremental refits over a bounded window."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml import SlidingWindowRegressor
from repro.ml.linear import LinearRegression


def feed_line(model, n, slope=2.0, intercept=1.0, start=0):
    """Feed n samples of y = slope*x + intercept."""
    for i in range(start, start + n):
        x = float(i)
        model.observe([x], slope * x + intercept)


class TestValidation:
    def test_window_too_small(self):
        with pytest.raises(ModelError, match="window"):
            SlidingWindowRegressor(window=1)

    def test_refit_interval_too_small(self):
        with pytest.raises(ModelError, match="refit_interval"):
            SlidingWindowRegressor(refit_interval=0)

    def test_min_samples_too_small(self):
        with pytest.raises(ModelError, match="min_samples"):
            SlidingWindowRegressor(min_samples=1)

    def test_min_samples_cannot_exceed_window(self):
        with pytest.raises(ModelError, match="cannot exceed"):
            SlidingWindowRegressor(window=4, min_samples=8)


class TestColdStart:
    def test_predicts_none_until_min_samples(self):
        m = SlidingWindowRegressor(min_samples=4)
        assert m.predict_one([0.0]) is None
        feed_line(m, 3)
        assert not m.fitted
        assert m.predict_one([0.0]) is None

    def test_first_fit_at_min_samples(self):
        m = SlidingWindowRegressor(min_samples=4, refit_interval=16)
        feed_line(m, 3)
        assert m.refits == 0
        m.observe([3.0], 7.0)  # 4th sample of y = 2x + 1
        assert m.fitted and m.refits == 1
        assert m.predict_one([10.0]) == pytest.approx(21.0)


class TestRefitCadence:
    def test_refits_every_interval_once_warm(self):
        m = SlidingWindowRegressor(min_samples=2, refit_interval=4)
        refit_at = [i for i in range(20) if (m.observe([float(i)], float(i)))]
        # First fit at sample index 1 (min_samples reached), then every
        # 4th observation after it.
        assert refit_at == [1, 5, 9, 13, 17]
        assert m.refits == 5
        assert m.samples == 20

    def test_observe_reports_refits(self):
        m = SlidingWindowRegressor(min_samples=2, refit_interval=2)
        assert m.observe([0.0], 0.0) is False
        assert m.observe([1.0], 1.0) is True
        assert m.observe([2.0], 2.0) is False
        assert m.observe([3.0], 3.0) is True


class TestWindow:
    def test_old_samples_fall_off_and_drift_is_tracked(self):
        # First regime y = x; second regime y = x + 100.  After the
        # window fills with regime-2 samples, predictions must follow
        # the new line with no memory of the old one.
        m = SlidingWindowRegressor(window=8, min_samples=2, refit_interval=1)
        for i in range(8):
            m.observe([float(i)], float(i))
        for i in range(8):
            m.observe([float(i)], float(i) + 100.0)
        assert m.predict_one([4.0]) == pytest.approx(104.0)

    def test_window_bounds_retained_samples(self):
        m = SlidingWindowRegressor(window=4, min_samples=2, refit_interval=1)
        feed_line(m, 100)
        assert m.samples == 100
        X, y = m.retained
        assert len(X) == len(y) == 4


class TestRingBufferBitIdentity:
    """Refits over the ring buffer equal a fresh fit over the window."""

    @pytest.mark.parametrize("window", [2, 7, 64])
    @pytest.mark.parametrize("refit_interval", [1, 3, 16])
    def test_every_refit_matches_a_fresh_fit(self, window, refit_interval):
        rng = np.random.default_rng(window * 100 + refit_interval)
        n, d = 3 * window, 5
        xs = rng.standard_normal((n, d)) * [1.0, 10.0, 1e-3, 0.0, 1.0]
        xs[:, 4] = rng.integers(0, 3, size=n)  # integer-valued column
        ys = xs @ [1.0, -2.0, 3.0, 0.0, 0.5] + rng.standard_normal(n)
        m = SlidingWindowRegressor(
            window=window, refit_interval=refit_interval, min_samples=2
        )
        probe = rng.standard_normal(d)
        refits = 0
        for i in range(n):
            if not m.observe(xs[i], ys[i]):
                continue
            refits += 1
            lo = max(0, i + 1 - window)
            ref = LinearRegression().fit(
                np.stack(list(xs[lo:i + 1])), np.array(ys[lo:i + 1])
            )
            assert np.array_equal(m._model.coef_, ref.coef_)
            assert np.array_equal(m._model.intercept_, ref.intercept_)
            assert m.predict_one(probe) == ref.predict(probe).item()
        assert refits == m.refits >= 1

    def test_retained_is_chronological_and_read_only(self):
        m = SlidingWindowRegressor(window=4, min_samples=2)
        X, y = m.retained
        assert len(X) == len(y) == 0
        for i in range(10):
            m.observe([float(i), -float(i)], float(i))
        X, y = m.retained
        assert y.tolist() == [6.0, 7.0, 8.0, 9.0]
        assert X[:, 0].tolist() == [6.0, 7.0, 8.0, 9.0]
        with pytest.raises(ValueError):
            y[0] = 0.0


class TestDeterminism:
    def test_same_feed_same_predictions(self):
        a = SlidingWindowRegressor(min_samples=3, refit_interval=2)
        b = SlidingWindowRegressor(min_samples=3, refit_interval=2)
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(32, 2))
        ys = xs @ [1.5, -0.5] + rng.normal(scale=0.1, size=32)
        for x, y in zip(xs, ys):
            a.observe(x, y)
            b.observe(x, y)
        probe = [0.3, -0.2]
        assert a.predict_one(probe) == b.predict_one(probe)
        assert a.refits == b.refits
