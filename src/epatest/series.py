"""Loss-differential series primitives.

Builds the loss-differential series from two forecast-error sequences and
provides the sample transforms every downstream variance estimator is
defined in terms of: autocovariances about the sample mean, periodogram
ordinates at Fourier frequencies, and type-II cosine-series coefficients.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LOSS_FUNCTIONS",
    "as_loss_series",
    "loss_differential",
    "autocovariance",
    "periodogram",
    "cosine_coefficient",
]

LOSS_FUNCTIONS = {
    "squared": lambda e: e * e,
    "absolute": np.abs,
}


def as_loss_series(d) -> np.ndarray:
    """Coerce ``d`` to a validated 1-D float64 loss-differential series.

    The series must hold at least two observations and be free of NaN or
    infinite entries; missing data is resolved at load time, not here.
    """
    arr = np.asarray(d, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"series must be one-dimensional, got shape {arr.shape}")
    if arr.size < 2:
        raise ValueError(f"series needs at least 2 observations, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("series contains NaN or non-finite entries")
    return arr


def loss_differential(e1, e2, loss: str = "squared") -> np.ndarray:
    """Loss differential ``L(e1_t) - L(e2_t)`` of two forecast-error series.

    Parameters
    ----------
    e1, e2 : array_like
        Forecast errors (actual minus forecast) of the two competing
        forecasts, aligned on the same target dates.
    loss : str
        Key into :data:`LOSS_FUNCTIONS`; ``"squared"`` or ``"absolute"``.

    Returns
    -------
    numpy.ndarray
        The per-period loss differential. Positive entries favour
        forecast 2, negative entries favour forecast 1.
    """
    try:
        loss_fn = LOSS_FUNCTIONS[loss]
    except KeyError:
        known = ", ".join(sorted(LOSS_FUNCTIONS))
        raise ValueError(f"unknown loss {loss!r}; expected one of: {known}") from None
    a1 = np.asarray(e1, dtype=float)
    a2 = np.asarray(e2, dtype=float)
    if a1.shape != a2.shape:
        raise ValueError(f"error series have mismatched shapes {a1.shape} and {a2.shape}")
    d = loss_fn(a1) - loss_fn(a2)
    return as_loss_series(d)


def autocovariance(d, maxlag: int) -> np.ndarray:
    """Biased sample autocovariances of ``d`` at lags ``0..maxlag``.

    gamma_j = P^{-1} sum_{t=1}^{P-j} (d_t - dbar)(d_{t+j} - dbar), with the
    divisor P at every lag so that kernel-weighted sums stay well behaved.
    """
    d = as_loss_series(d)
    P = d.size
    if not 0 <= maxlag <= P - 1:
        raise ValueError(f"maxlag must lie in [0, {P - 1}], got {maxlag}")
    return autocovariance_rows(d[None, :], maxlag)[0]


def periodogram(d, j: int) -> float:
    """Periodogram ordinate of ``d`` at the Fourier frequency 2*pi*j/P.

    I(lambda_j) = |(2*pi*P)^{-1/2} sum_{t=1}^P d_t exp(-i lambda_j t)|^2.
    At j >= 1 the complex exponentials sum to zero over a full cycle, so the
    ordinate is invariant to adding a constant to the series.
    """
    d = as_loss_series(d)
    P = d.size
    if not 1 <= j <= P // 2:
        raise ValueError(f"frequency index must lie in [1, {P // 2}], got {j}")
    return float(periodogram_rows(d[None, :], [j])[0, 0])


def cosine_coefficient(d, j: int) -> float:
    """Type-II cosine-series coefficient of ``d`` at basis index ``j``.

    lambda_j = sqrt(2/P) sum_{t=1}^P d_t cos(pi j (t - 1/2) / P). The basis
    functions are orthogonal to constants, so the coefficient is invariant
    to adding a constant to the series and no demeaning is applied.
    """
    d = as_loss_series(d)
    P = d.size
    if not 1 <= j <= P - 1:
        raise ValueError(f"basis index must lie in [1, {P - 1}], got {j}")
    return float(cosine_coefficient_rows(d[None, :], [j])[0, 0])


# Row kernels: each takes a 2-D array with one series per row and returns
# one result row per series. They do no validation; the one-series
# functions above check their input and call them on a single row.


def autocovariance_rows(X: np.ndarray, maxlag: int) -> np.ndarray:
    """Autocovariances at lags ``0..maxlag`` of every row of ``X``, shape (rows, maxlag + 1)."""
    P = X.shape[1]
    x = X - X.mean(axis=1, keepdims=True)
    gamma = np.empty((X.shape[0], maxlag + 1))
    for j in range(maxlag + 1):
        gamma[:, j] = np.vecdot(x[:, : P - j], x[:, j:])
    return gamma / P


def periodogram_rows(X: np.ndarray, js) -> np.ndarray:
    """Periodogram ordinates at the frequency indices ``js`` of every row of ``X``.

    One real FFT per row; the transform's time origin at t = 0 instead of
    t = 1 only rotates each coefficient's phase, so the modulus is the same.
    """
    P = X.shape[1]
    z = np.fft.rfft(X, axis=1)[:, np.asarray(js)]
    return np.abs(z) ** 2 / (2.0 * np.pi * P)


def cosine_coefficient_rows(X: np.ndarray, js) -> np.ndarray:
    """Type-II cosine coefficients at the basis indices ``js`` of every row of ``X``.

    One product with the len(js) x P cosine basis, taken as a dot product
    per (row, index) pair: a matrix product's summation order depends on
    the number of rows, and a row's coefficients must not depend on which
    other rows share the call.
    """
    P = X.shape[1]
    t = np.arange(1, P + 1)
    basis = np.cos(np.pi * np.asarray(js)[:, None] * (t - 0.5) / P)
    return np.sqrt(2.0 / P) * np.vecdot(X[:, None, :], basis)
