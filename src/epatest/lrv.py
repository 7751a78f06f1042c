"""Long-run variance estimators and automatic bandwidth rules.

Four estimators of the long-run variance sigma^2 = sum_j gamma_j of the
loss-differential series, each paired elsewhere with its own reference
distribution: truncated rectangular and Bartlett kernel estimators in the
time domain, an equal-weighted cosine (orthonormal-series) estimator, and a
Daniell weighted-periodogram estimator in the frequency domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import (
    as_loss_series,
    autocovariance_rows,
    cosine_coefficient_rows,
    periodogram_rows,
)

__all__ = [
    "LrvEstimate",
    "BANDWIDTH_RULES",
    "bandwidth",
    "lrv_rectangular",
    "lrv_bartlett",
    "lrv_ewc",
    "lrv_wpe",
]

# Guarded floor/ceil: plain math.floor/ceil on expressions like
# 0.4 * 1000**(2/3) lands on the wrong integer because the power computes to
# 99.99999999999997. The 1e-9 nudge absorbs representation error without
# affecting any genuinely fractional value.
_EPS = 1e-9


def _floor(x: float) -> int:
    return math.floor(x + _EPS)


def _ceil(x: float) -> int:
    return math.ceil(x - _EPS)


# Automatic bandwidth rules, each a function of the sample size P.
BANDWIDTH_RULES = {
    "llsw": lambda P: _ceil(1.3 * math.sqrt(P)),
    "nw1994": lambda P: _ceil(4.0 * (P / 100.0) ** (2.0 / 9.0)),
    "textbook": lambda P: _ceil(0.75 * P ** (1.0 / 3.0)),
    "ci_baseline": lambda P: _floor(math.sqrt(P)),
    "ewc_default": lambda P: _floor(0.4 * P ** (2.0 / 3.0)),
    "wpe_default": lambda P: _floor(P ** (1.0 / 3.0)),
}


def bandwidth(rule: str, P: int) -> int:
    """Evaluate a named automatic bandwidth rule at sample size ``P``.

    The raw rule value is clamped to the estimator's admissible range:
    [1, P - 1] for the lag-window and cosine rules, [1, floor(P/2)] for the
    periodogram rule ``wpe_default``.
    """
    try:
        rule_fn = BANDWIDTH_RULES[rule]
    except KeyError:
        known = ", ".join(sorted(BANDWIDTH_RULES))
        raise ValueError(f"unknown bandwidth rule {rule!r}; expected one of: {known}") from None
    if P < 2:
        raise ValueError(f"sample size must be at least 2, got {P}")
    upper = P // 2 if rule == "wpe_default" else P - 1
    return max(1, min(rule_fn(P), upper))


@dataclass(frozen=True)
class LrvEstimate:
    """A long-run variance estimate together with how it was produced.

    ``nonpositive`` is True exactly when ``value <= 0``; in regular use that
    is reachable only for the rectangular kernel, whose weights do not form
    a positive semi-definite sequence.
    """

    value: float
    kernel: str
    bandwidth: int
    nonpositive: bool


def _make_estimate(value: float, kernel: str, bw: int) -> LrvEstimate:
    value = float(value)
    return LrvEstimate(value=value, kernel=kernel, bandwidth=bw, nonpositive=value <= 0.0)


# Admissible bandwidths of each estimator at sample size P. Shared by the
# estimators below and by the test procedures in dmtests, which check them
# before any data is seen.


def check_horizon(h: int, P: int) -> None:
    if h < 1:
        raise ValueError(f"forecast horizon must be at least 1, got {h}")
    if h - 1 > P - 1:
        raise ValueError(f"horizon {h} needs at least {h} observations, got {P}")


def check_lag_bandwidth(M: int, P: int) -> None:
    if not 1 <= M <= P - 1:
        raise ValueError(f"bandwidth must lie in [1, {P - 1}], got {M}")


def check_basis_size(B: int, P: int) -> None:
    if not 1 <= B <= P - 1:
        raise ValueError(f"number of basis functions must lie in [1, {P - 1}], got {B}")


def check_ordinate_count(m: int, P: int) -> None:
    if not 1 <= m <= P // 2:
        raise ValueError(f"number of ordinates must lie in [1, {P // 2}], got {m}")


def lrv_rectangular(d, h: int) -> LrvEstimate:
    """Truncated rectangular (flat-weight) estimator for an h-step loss differential.

    sigma^2 = gamma_0 + 2 sum_{j=1}^{h-1} gamma_j, the exact long-run
    variance form when the differential is MA(h-1). The unweighted sum can
    come out nonpositive in finite samples; that is reported, not repaired.
    """
    d = as_loss_series(d)
    check_horizon(h, d.size)
    value = rectangular_rows(autocovariance_rows(d[None, :], h - 1), h)[0]
    return _make_estimate(value, "rectangular", h - 1)


def lrv_bartlett(d, M: int) -> LrvEstimate:
    """Bartlett (triangular-weight) kernel estimator with bandwidth ``M``.

    sigma^2 = gamma_0 + 2 sum_{j=1}^{M-1} (1 - j/M) gamma_j. The weight at
    lag M is zero, so the sum stops at M - 1; M = 1 reduces to gamma_0.
    Bartlett weights are positive semi-definite, hence the value is
    nonnegative up to rounding (tiny negative roundoff is clipped to zero).
    """
    d = as_loss_series(d)
    check_lag_bandwidth(M, d.size)
    value = bartlett_rows(autocovariance_rows(d[None, :], M - 1), M)[0]
    return _make_estimate(value, "bartlett", M)


def lrv_ewc(d, B: int) -> LrvEstimate:
    """Equal-weighted cosine estimator: mean of the first ``B`` squared coefficients.

    sigma^2 = B^{-1} sum_{j=1}^B lambda_j^2 with lambda_j the type-II
    cosine coefficients of the raw series. Nonnegative by construction and
    invariant to level shifts because the basis is orthogonal to constants.
    """
    d = as_loss_series(d)
    check_basis_size(B, d.size)
    return _make_estimate(ewc_rows(d[None, :], B)[0], "ewc", B)


def lrv_wpe(d, m: int) -> LrvEstimate:
    """Daniell weighted-periodogram estimator with ``m`` ordinates.

    sigma^2 = (2 pi / m) sum_{j=1}^m I(lambda_j), the flat average of the
    first m periodogram ordinates scaled to estimate the spectrum at the
    origin. Nonnegative by construction; no demeaning is needed since the
    ordinates at j >= 1 ignore the sample mean.
    """
    d = as_loss_series(d)
    check_ordinate_count(m, d.size)
    return _make_estimate(wpe_rows(d[None, :], m)[0], "wpe", m)


# Row kernels of the four estimators: one estimate per row of a 2-D input,
# without validation. The time-domain ones read an autocovariance array
# from series.autocovariance_rows holding at least lags 0..h-1 or 0..M-1,
# so several bandwidths can share one array.


def rectangular_rows(gamma: np.ndarray, h: int) -> np.ndarray:
    return gamma[:, 0] + 2.0 * np.sum(gamma[:, 1:h], axis=1)


def bartlett_rows(gamma: np.ndarray, M: int) -> np.ndarray:
    lags = np.arange(1, M)
    value = gamma[:, 0] + 2.0 * np.sum((1.0 - lags / M) * gamma[:, 1:M], axis=1)
    return np.maximum(value, 0.0)


def ewc_rows(X: np.ndarray, B: int) -> np.ndarray:
    return np.mean(cosine_coefficient_rows(X, np.arange(1, B + 1)) ** 2, axis=1)


def wpe_rows(X: np.ndarray, m: int) -> np.ndarray:
    return (2.0 * np.pi / m) * np.sum(periodogram_rows(X, np.arange(1, m + 1)), axis=1)
