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
from collections.abc import Callable, Sequence
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

    The raw rule value is clamped to [1, P - 1]. No rule leaves an
    estimator's own range: ``wpe_default``'s floor(P^(1/3)) never exceeds
    floor(P/2), the largest number of periodogram ordinates.
    """
    try:
        rule_fn = BANDWIDTH_RULES[rule]
    except KeyError:
        known = ", ".join(sorted(BANDWIDTH_RULES))
        raise ValueError(f"unknown bandwidth rule {rule!r}; expected one of: {known}") from None
    P = as_integer(P, "sample size", 2)
    return max(1, min(rule_fn(P), P - 1))


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


def _bartlett_rows(gamma: np.ndarray, Ms) -> np.ndarray:
    """The Bartlett estimates at the bandwidths ``Ms``, one row each. With prefix sums A_k of
    gamma_j and C_k of j gamma_j over j = 1..k, the weighted sum is A_{M-1} - C_{M-1} / M."""
    M, K = np.array(Ms), max(Ms)
    weights = np.minimum(np.arange(K), [[1], [K]])[:, :, None]  # 0, 1, ..., 1 and 0, 1, ..., K - 1
    A, C = np.cumsum(gamma[:, :K].T * weights, axis=1)[:, M - 1]
    return np.maximum(gamma[:, 0] + 2.0 * (A - C / M[:, None]), 0.0)


@dataclass(frozen=True)
class Estimator:
    """One long-run variance estimator, as an entry of :data:`ESTIMATORS`.

    ``check(bandwidth, P)`` returns an admissible bandwidth as an int and
    raises ValueError for any other. ``maxlag(bandwidth)`` is the largest lag
    ``rows(gamma, bandwidths)`` reads at it, or None when ``rows(X, bandwidths)``
    reads the series. ``rows`` gives one row per bandwidth and does no validation.
    """

    check: Callable[[int, int], int]
    maxlag: Callable[[int], int] | None
    rows: Callable[[np.ndarray, tuple[int, ...]], Sequence[np.ndarray]]


# The estimators by kernel name. The rectangular bandwidth is its lag
# count, h - 1 for an h-step forecast.
ESTIMATORS = {
    "rectangular": Estimator(
        lambda lags, P: as_integer(lags + 1, "forecast horizon", 1, P - 1) - 1,
        lambda lags: lags,
        lambda gamma, ks: [gamma[:, 0] + 2.0 * np.sum(gamma[:, 1 : k + 1], axis=1) for k in ks],
    ),
    "bartlett": Estimator(
        lambda M, P: as_integer(M, "bandwidth", 1, P - 1),
        lambda M: M - 1,
        _bartlett_rows,
    ),
    "ewc": Estimator(
        lambda B, P: as_integer(B, "bandwidth", 1, P - 1),
        None,
        lambda X, Bs: [np.mean(cosine_coefficient_rows(X, range(1, B + 1)) ** 2, axis=1)
                       for B in Bs],
    ),
    "wpe": Estimator(
        lambda m, P: as_integer(m, "bandwidth", 1, P // 2),
        None,
        lambda X, ms: [(2.0 * np.pi / m) * np.sum(periodogram_rows(X, np.arange(1, m + 1)), axis=1)
                       for m in ms],
    ),
}


def variance_rows(estimates, X: np.ndarray) -> list[np.ndarray]:
    """One estimate per row of ``X`` for each (kernel, bandwidth) pair in ``estimates``.

    ``X`` holds one validated series per row and the bandwidths are
    assumed admissible. The time-domain estimators share one
    autocovariance array up to the largest lag any of them reads. Each
    kernel is called once, with its distinct bandwidths; a pair listed more
    than once gets the same array at each listing.
    """
    estimates = [(kernel, bw) for kernel, bw in estimates]
    grids = {}  # each kernel's distinct bandwidths, in order
    for kernel, bw in estimates:
        grids.setdefault(kernel, {})[bw] = None
    lags = [ESTIMATORS[k].maxlag(max(bws)) for k, bws in grids.items() if ESTIMATORS[k].maxlag]
    gamma = autocovariance_rows(X, max(lags)) if lags else None
    values = {}
    for kernel, bws in grids.items():
        est = ESTIMATORS[kernel]
        rows = est.rows(X if est.maxlag is None else gamma, tuple(bws))
        values.update(zip([(kernel, bw) for bw in bws], rows))
    return [values[pair] for pair in estimates]


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
    In one :func:`variance_rows` call every bandwidth is read off two prefix sums.
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
