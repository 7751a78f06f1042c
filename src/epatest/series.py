"""Loss-differential series primitives.

Builds the loss-differential series from two forecast-error sequences and
provides the sample transforms every downstream variance estimator is
defined in terms of: autocovariances about the sample mean, periodogram
ordinates at Fourier frequencies, and type-II cosine-series coefficients.
"""

from __future__ import annotations

import functools

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


def as_integer(value, what: str = "bandwidth", lo: int | None = None,
               hi: int | None = None) -> int:
    """``value`` as an int if it is integral and within [``lo``, ``hi``]; 3,
    ``np.int64(3)`` and 3.0 all give 3. Either bound may be None (no bound).

    This is the one rule every integer argument of the package follows. A
    value that is not integral raises ValueError("<what> must be an integer,
    got <value!r>"). One out of range raises ValueError("<what> must <rule>,
    got <int>"), the rule being "be a nonnegative integer" at ``lo`` 0, "be a
    positive integer" at ``lo`` 1, "lie in [lo, hi]" when ``hi`` is given and
    "be at least <lo>" otherwise.
    """
    try:
        integer = int(value)
    except (TypeError, ValueError, OverflowError):
        integer = None
    if integer is None or integer != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if (lo is not None and integer < lo) or (hi is not None and integer > hi):
        if hi is not None:
            rule = f"lie in [{lo}, {hi}]"
        elif lo in (0, 1):
            rule = f"be a {('nonnegative', 'positive')[lo]} integer"
        else:
            rule = f"be at least {lo}"
        raise ValueError(f"{what} must {rule}, got {integer}")
    return integer


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
    maxlag = as_integer(maxlag, "maxlag", 0, d.size - 1)
    return autocovariance_rows(d[None, :], maxlag)[0]


def periodogram(d, j: int) -> float:
    """Periodogram ordinate of ``d`` at the Fourier frequency 2*pi*j/P.

    I(lambda_j) = |(2*pi*P)^{-1/2} sum_{t=1}^P d_t exp(-i lambda_j t)|^2.
    At j >= 1 the complex exponentials sum to zero over a full cycle, so the
    ordinate is invariant to adding a constant to the series.
    """
    d = as_loss_series(d)
    j = as_integer(j, "frequency index", 1, d.size // 2)
    return float(periodogram_rows(d[None, :], [j])[0, 0])


def cosine_coefficient(d, j: int) -> float:
    """Type-II cosine-series coefficient of ``d`` at basis index ``j``.

    lambda_j = sqrt(2/P) sum_{t=1}^P d_t cos(pi j (t - 1/2) / P). The basis
    functions are orthogonal to constants, so the coefficient is invariant
    to adding a constant to the series and no demeaning is applied.
    """
    d = as_loss_series(d)
    j = as_integer(j, "basis index", 1, d.size - 1)
    return float(cosine_coefficient_rows(d[None, :], range(j, j + 1))[0, 0])


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


@functools.lru_cache(maxsize=256)  # bounded: a sweep over every B would keep O(P^3) doubles
def _cosine_basis(P: int, js: range) -> np.ndarray:
    """The len(js) x P type-II cosine basis at the indices ``js``, read-only and cached."""
    t = np.arange(1, P + 1)
    basis = np.cos(np.pi * np.asarray(js)[:, None] * (t - 0.5) / P)
    basis.flags.writeable = False
    return basis


def cosine_coefficient_rows(X: np.ndarray, js: range) -> np.ndarray:
    """Type-II cosine coefficients at the basis indices ``js`` of every row of ``X``.

    ``js`` is a range, the key of the cached basis. Each coefficient is a
    dot product of a row with a basis vector, not part of a matrix product,
    whose summation order depends on the number of rows: a row's
    coefficients must not depend on which other rows share the call.
    """
    P = X.shape[1]
    return np.sqrt(2.0 / P) * np.vecdot(X[:, None, :], _cosine_basis(P, js))


# Doubles of band storage in one time block of arma_response's solve.
_BAND_DOUBLES = 2**15


def arma_response(ar, ma, T: int, keep: int) -> tuple[np.ndarray, int, int]:
    """Impulse response g over T lags of ma(L) / (1 - ar[0] L - ar[1] L^2 - ...), as (G, n, L):
    the read-only spectrum of g cut to its support S, the smallest lag with sum_{m>S} |g[m]|
    <= 2^-53 sum |g|; the FFT length n >= keep + S, so no wrap-around reaches the last ``keep``
    outputs; and the count L = min(S, T - keep) of innovations before them that reach them.

    g solves g[t] - ar[0] g[t-1] - ... - ar[K-1] g[t-K] = ma[t] from rest, the ``ma`` taps
    zero-padded to T: a unit-diagonal lower-triangular banded system, solved in place by
    LAPACK's ``dtbtrs`` in time blocks of B = min(max(_BAND_DOUBLES // (K + 1), K), T) values,
    so the band storage stays at (K + 1) x B whatever T is. The K values of g before a block
    enter the right-hand sides of its first K equations.
    """
    # Imported here, so that `epatest test` and ucr runs never load them.
    from scipy import fft
    from scipy.linalg import lapack

    a = np.concatenate(([1.0], -np.asarray(ar, dtype=float)))
    K = a.size - 1
    g = np.zeros(T)  # the padded taps, overwritten block by block by the response
    g[: len(ma)] = ma
    B = min(max(_BAND_DOUBLES // (K + 1), K), T)
    band = np.repeat(a[:, None], B, axis=1)
    # carry[t, m] is the weight of g[s - K + m] in equation s + t of a block at s.
    lag = K + np.arange(K)[:, None] - np.arange(K)
    carry = np.where(lag <= K, a[np.minimum(lag, K)], 0.0)
    for s in range(0, T, B):
        rhs = g[s : s + B, None]  # a contiguous column, which dtbtrs overwrites
        if s:
            rhs[:K] -= carry[: rhs.shape[0]] @ g[s - K : s, None]
        lapack.dtbtrs(band[:, : rhs.shape[0]], rhs, uplo="L", diag="U", overwrite_b=1)
    tail = np.cumsum(np.abs(g)[::-1])[::-1]  # tail[m] = sum of |g[m:]|
    S = int(np.count_nonzero(tail[1:] > 2.0**-53 * tail[0]))
    n = fft.next_fast_len(keep + S, real=True)
    G = fft.rfft(g[: S + 1], n)
    G.flags.writeable = False
    return G, n, min(S, T - keep)


def filter_tail_rows(eps: np.ndarray, response, keep: int) -> np.ndarray:
    """The last ``keep`` outputs of the filter of an :func:`arma_response`
    run from rest over each row of ``eps`` (or a 1-D ``eps``), every row alike."""
    from scipy import fft

    G, n, L = response
    T = eps.shape[-1]
    return fft.irfft(fft.rfft(eps[..., T - keep - L :], n) * G, n)[..., L : L + keep]
