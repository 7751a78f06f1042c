import math

import numpy as np
import pytest

from epatest.series import (
    LOSS_FUNCTIONS,
    as_loss_series,
    autocovariance,
    cosine_coefficient,
    loss_differential,
    periodogram,
)

from reference import (
    naive_autocovariance,
    naive_cosine_coefficient,
    naive_periodogram,
)


class TestAsLossSeries:
    def test_passes_through_floats(self):
        out = as_loss_series([1, 2, 3])
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            as_loss_series([[1.0, 2.0]])

    def test_rejects_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            as_loss_series([1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            as_loss_series([1.0, bad, 2.0])


class TestLossDifferential:
    def test_squared_hand_value(self):
        d = loss_differential([1.0, 2.0], [2.0, 1.0], "squared")
        np.testing.assert_allclose(d, [-3.0, 3.0])

    def test_absolute_hand_value(self):
        d = loss_differential([1.0, -2.0], [2.0, 1.0], "absolute")
        np.testing.assert_allclose(d, [-1.0, 1.0])

    def test_default_loss_is_squared(self):
        e1, e2 = [1.0, 3.0], [2.0, 2.0]
        np.testing.assert_array_equal(
            loss_differential(e1, e2), loss_differential(e1, e2, "squared")
        )

    def test_unknown_loss(self):
        with pytest.raises(ValueError, match="unknown loss"):
            loss_differential([1.0, 2.0], [2.0, 1.0], "huber")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatched shapes"):
            loss_differential([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_loss_function_registry(self):
        assert set(LOSS_FUNCTIONS) == {"squared", "absolute"}


class TestAutocovariance:
    def test_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        d = rng.standard_normal(64)
        gamma = autocovariance(d, 10)
        for j in range(11):
            assert gamma[j] == pytest.approx(naive_autocovariance(d, j), abs=1e-12)

    def test_lag0_is_biased_variance(self):
        d = np.array([1.0, 2.0, 3.0, 4.0])
        assert autocovariance(d, 0)[0] == pytest.approx(np.var(d))

    def test_maxlag_bounds(self):
        d = np.arange(5.0)
        with pytest.raises(ValueError, match=r"maxlag"):
            autocovariance(d, 5)
        with pytest.raises(ValueError, match=r"maxlag"):
            autocovariance(d, -1)


@pytest.mark.parametrize("transform, name", [
    (autocovariance, "maxlag"),
    (periodogram, "frequency index"),
    (cosine_coefficient, "basis index"),
])
def test_integer_index(transform, name):
    d = np.random.default_rng(4).standard_normal(12)
    np.testing.assert_array_equal(transform(d, 2.0), transform(d, 2))
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got 1.5$"):
        transform(d, 1.5)


class TestPeriodogram:
    def test_matches_naive(self):
        rng = np.random.default_rng(1)
        d = rng.standard_normal(37)
        for j in (1, 5, 18):
            assert periodogram(d, j) == pytest.approx(naive_periodogram(d, j), rel=1e-12)

    def test_pure_cosine_concentrates_at_own_frequency(self):
        P, j = 64, 4
        t = np.arange(1, P + 1)
        d = np.cos(2.0 * np.pi * j * t / P)
        # complex sum has modulus P/2 at lambda_j, zero at other Fourier
        # frequencies, so I(lambda_j) = (P/2)^2 / (2 pi P) = P / (8 pi)
        assert periodogram(d, j) == pytest.approx(P / (8.0 * np.pi), rel=1e-9)
        assert periodogram(d, j + 1) == pytest.approx(0.0, abs=1e-12)

    def test_level_shift_invariant(self):
        rng = np.random.default_rng(2)
        d = rng.standard_normal(50)
        assert periodogram(d, 3) == pytest.approx(periodogram(d + 7.5, 3), rel=1e-9)

    def test_index_bounds(self):
        d = np.arange(10.0)
        with pytest.raises(ValueError, match="frequency index"):
            periodogram(d, 0)
        with pytest.raises(ValueError, match="frequency index"):
            periodogram(d, 6)


class TestCosineCoefficient:
    def test_matches_naive(self):
        rng = np.random.default_rng(3)
        d = rng.standard_normal(41)
        for j in (1, 7, 40):
            assert cosine_coefficient(d, j) == pytest.approx(
                naive_cosine_coefficient(d, j), rel=1e-12
            )

    def test_recovers_basis_vector(self):
        P, j = 32, 5
        t = np.arange(1, P + 1)
        d = math.sqrt(2.0 / P) * np.cos(np.pi * j * (t - 0.5) / P)
        # type-II basis vectors are orthonormal
        assert cosine_coefficient(d, j) == pytest.approx(1.0, rel=1e-12)
        assert cosine_coefficient(d, j + 1) == pytest.approx(0.0, abs=1e-12)

    def test_level_shift_invariant(self):
        rng = np.random.default_rng(4)
        d = rng.standard_normal(50)
        assert cosine_coefficient(d, 2) == pytest.approx(
            cosine_coefficient(d - 3.25, 2), abs=1e-10
        )

    def test_index_bounds(self):
        d = np.arange(10.0)
        with pytest.raises(ValueError, match="basis index"):
            cosine_coefficient(d, 0)
        with pytest.raises(ValueError, match="basis index"):
            cosine_coefficient(d, 10)
