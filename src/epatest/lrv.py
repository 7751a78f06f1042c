"""Long-run variance estimators and automatic bandwidth rules.

Four estimators of the long-run variance sigma^2 = sum_j gamma_j of the
loss-differential series, each paired elsewhere with its own reference
distribution: truncated rectangular and Bartlett kernel estimators in the
time domain, an equal-weighted cosine (orthonormal-series) estimator, and a
Daniell weighted-periodogram estimator in the frequency domain.

Each estimator is defined once, as an entry of :data:`ESTIMATORS` keyed by
its kernel name: its bandwidth check, the largest autocovariance lag it
reads, and its row kernel. :func:`variance_rows` evaluates any set of
(kernel, bandwidth) pairs on a matrix of series from one shared
autocovariance array; the tests in :mod:`epatest.dmtests` and the
one-series ``lrv_*`` functions both call it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .series import (
    as_integer,
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

    ``nonpositive`` is computed, not passed: it is True exactly when
    ``value <= 0``. In regular use that is reachable only for the
    rectangular kernel, whose weights do not form a positive semi-definite
    sequence.
    """

    value: float
    kernel: str
    bandwidth: int
    nonpositive: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "nonpositive", bool(self.value <= 0.0))


def _check_lags(lags: int, P: int) -> int:
    h = as_integer(lags + 1, "forecast horizon")
    if h < 1:
        raise ValueError(f"forecast horizon must be at least 1, got {h}")
    if h >= P:
        raise ValueError(f"horizon {h} needs at least {h + 1} observations, got {P}")
    return h - 1


def _check_range(what: str, upper: Callable[[int], int]) -> Callable[[int, int], int]:
    def check(bw, P: int) -> int:
        bw = as_integer(bw)
        if not 1 <= bw <= upper(P):
            raise ValueError(f"{what} must lie in [1, {upper(P)}], got {bw}")
        return bw
    return check


@dataclass(frozen=True)
class Estimator:
    """One long-run variance estimator, as an entry of :data:`ESTIMATORS`.

    ``check(bandwidth, P)`` returns an admissible bandwidth as an int and
    raises ValueError for any other. ``maxlag(bandwidth)`` is the largest
    autocovariance lag that ``rows(gamma, bandwidth)`` reads, or None when
    ``rows(X, bandwidth)`` reads the series itself. ``rows`` does no
    validation.
    """

    check: Callable[[int, int], int]
    maxlag: Callable[[int], int] | None
    rows: Callable[[np.ndarray, int], np.ndarray]


# The estimators by kernel name. The rectangular bandwidth is its lag
# count, h - 1 for an h-step forecast.
ESTIMATORS = {
    "rectangular": Estimator(
        _check_lags,
        lambda lags: lags,
        lambda gamma, lags: gamma[:, 0] + 2.0 * np.sum(gamma[:, 1 : lags + 1], axis=1),
    ),
    "bartlett": Estimator(
        _check_range("bandwidth", lambda P: P - 1),
        lambda M: M - 1,
        lambda gamma, M: np.maximum(gamma[:, 0] + 2.0 * np.sum(
            (1.0 - np.arange(1, M) / M) * gamma[:, 1:M], axis=1), 0.0),
    ),
    "ewc": Estimator(
        _check_range("number of basis functions", lambda P: P - 1),
        None,
        lambda X, B: np.mean(cosine_coefficient_rows(X, np.arange(1, B + 1)) ** 2, axis=1),
    ),
    "wpe": Estimator(
        _check_range("number of ordinates", lambda P: P // 2),
        None,
        lambda X, m: (2.0 * np.pi / m) * np.sum(periodogram_rows(X, np.arange(1, m + 1)), axis=1),
    ),
}


def variance_rows(estimates, X: np.ndarray) -> list[np.ndarray]:
    """One estimate per row of ``X`` for each (kernel, bandwidth) pair in ``estimates``.

    ``X`` holds one validated series per row and the bandwidths are
    assumed admissible. The time-domain estimators share one
    autocovariance array up to the largest lag any of them reads.
    """
    estimates = [(ESTIMATORS[kernel], bw) for kernel, bw in estimates]
    lags = [est.maxlag(bw) for est, bw in estimates if est.maxlag is not None]
    gamma = autocovariance_rows(X, max(lags)) if lags else None
    return [est.rows(X if est.maxlag is None else gamma, bw) for est, bw in estimates]


def _estimate(kernel: str, d, bw: int) -> LrvEstimate:
    d = as_loss_series(d)
    bw = ESTIMATORS[kernel].check(bw, d.size)
    value = float(variance_rows([(kernel, bw)], d[None, :])[0][0])
    return LrvEstimate(value=value, kernel=kernel, bandwidth=bw)


def lrv_rectangular(d, h: int) -> LrvEstimate:
    """Truncated rectangular (flat-weight) estimator for an h-step loss differential.

    sigma^2 = gamma_0 + 2 sum_{j=1}^{h-1} gamma_j, the exact long-run
    variance form when the differential is MA(h-1). The unweighted sum can
    come out nonpositive in finite samples; that is reported, not repaired.
    Needs h < P: at h = P the sum is zero in exact arithmetic.
    """
    return _estimate("rectangular", d, h - 1)


def lrv_bartlett(d, M: int) -> LrvEstimate:
    """Bartlett (triangular-weight) kernel estimator with bandwidth ``M``.

    sigma^2 = gamma_0 + 2 sum_{j=1}^{M-1} (1 - j/M) gamma_j. The weight at
    lag M is zero, so the sum stops at M - 1; M = 1 reduces to gamma_0.
    Bartlett weights are positive semi-definite, hence the value is
    nonnegative up to rounding (tiny negative roundoff is clipped to zero).
    """
    return _estimate("bartlett", d, M)


def lrv_ewc(d, B: int) -> LrvEstimate:
    """Equal-weighted cosine estimator: mean of the first ``B`` squared coefficients.

    sigma^2 = B^{-1} sum_{j=1}^B lambda_j^2 with lambda_j the type-II
    cosine coefficients of the raw series. Nonnegative by construction and
    invariant to level shifts because the basis is orthogonal to constants.
    """
    return _estimate("ewc", d, B)


def lrv_wpe(d, m: int) -> LrvEstimate:
    """Daniell weighted-periodogram estimator with ``m`` ordinates.

    sigma^2 = (2 pi / m) sum_{j=1}^m I(lambda_j), the flat average of the
    first m periodogram ordinates scaled to estimate the spectrum at the
    origin. Nonnegative by construction; no demeaning is needed since the
    ordinates at j >= 1 ignore the sample mean.
    """
    return _estimate("wpe", d, m)
