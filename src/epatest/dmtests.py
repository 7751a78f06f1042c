"""Tests of equal predictive ability on a loss-differential series.

All procedures share one statistic shape, sqrt(P) * mean(d) / sigma_hat,
and differ in the long-run variance estimator sigma_hat^2 and the reference
distribution used to judge it. Standard-asymptotics versions hold the
bandwidth negligible relative to P and compare against the normal (or a
degrees-of-freedom-corrected t); fixed-smoothing versions treat the
bandwidth fraction as fixed and use critical values that grow with it.
Every test is two-sided.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field
from decimal import Decimal
from types import SimpleNamespace

import numpy as np
from scipy import special

from .lrv import ESTIMATORS, LrvEstimate, variance_rows
from .lrv import bandwidth as rule_bandwidth
from .series import as_integer, as_loss_series

__all__ = [
    "DegenerateVarianceError",
    "UnsupportedLevelError",
    "TestOutcome",
    "ImPartition",
    "dm_statistic",
    "dm_test_r",
    "dm_test_m",
    "dm_test_bt",
    "dm_test_bt_fb",
    "dm_test_ewc_fb",
    "dm_test_wpe_fb",
    "dm_test_im",
    "fixed_b_critical_value",
    "im_partition",
]


# The two reference distributions, with the ``sf`` and ``ppf`` signatures of
# SciPy's ``norm`` and ``t``. They evaluate the same scipy.special functions
# SciPy's distributions do, so every value is the same to the bit, without
# importing SciPy's statistics package.
stats = SimpleNamespace(
    norm=SimpleNamespace(sf=lambda x: special.ndtr(np.negative(x)), ppf=special.ndtri),
    t=SimpleNamespace(sf=lambda x, df: special.stdtr(df, np.negative(x)),
                      ppf=lambda q, df: special.stdtrit(df, q)),
)


class DegenerateVarianceError(ArithmeticError):
    """A variance estimate came out nonpositive, or at the round-off level of
    the series (see :func:`tally`), so no statistic exists."""

    def __init__(self, kernel: str, bandwidth: int, value: float):
        self.kernel = kernel
        self.bandwidth = bandwidth
        self.value = value
        super().__init__(
            f"{'nonpositive' if value <= 0.0 else 'round-off'} variance estimate {value:g} "
            f"({kernel} kernel, bandwidth {bandwidth}); statistic undefined"
        )

    def __reduce__(self):  # pickled by its fields, so that it crosses a process boundary
        return type(self), (self.kernel, self.bandwidth, self.value)


class UnsupportedLevelError(ValueError):
    """The procedure has no critical values at the requested level."""


@dataclass(frozen=True)
class TestOutcome:
    """Result of one equal-predictive-ability test.

    ``rej`` is True exactly when ``abs(stat) > critical_value``; whenever a
    p-value is defined it agrees with that decision at level ``cl``.
    ``pval`` is None for procedures whose reference distribution is known
    only through tabulated critical values. ``df`` is None under normal
    asymptotics.
    """

    method: str
    stat: float
    rej: bool
    cl: float
    critical_value: float
    pval: float | None = None
    bandwidth: int | None = None
    df: float | None = None


@dataclass(frozen=True)
class Procedure:
    """One test at one sample size and level: everything that does not depend on the data.

    Built by :func:`procedure`, which checks the test's arguments and
    evaluates its reference distribution once; :func:`tally` then
    applies it to any number of series of that length. ``kernel`` names the
    variance estimator (a key of :data:`epatest.lrv.ESTIMATORS`, or
    ``block-means``) and ``bandwidth`` its size (h - 1 lags, M, B, m or q).
    ``reference`` is ``normal``, ``t`` (with ``df``) or ``fixed-b``, which
    has no p-value. ``scale`` multiplies the statistic.
    """

    method: str
    kernel: str
    bandwidth: int
    cl: float
    critical_value: float
    reference: str
    df: float | None = None
    scale: float = 1.0


@dataclass(frozen=True)
class Method:
    """One entry of the battery: how a label becomes a :class:`Procedure`.

    ``kernel`` is the variance estimator. ``param`` names the argument that
    sets its bandwidth (``M``, ``B``, ``m`` or ``q``; None when the label
    fixes it), and ``default`` gives the bandwidth when that argument is
    absent: a rule of :data:`epatest.lrv.BANDWIDTH_RULES`, a fixed count,
    or None for the horizon's h - 1 lags; no wrapper or CLI flag restates it.
    ``reference`` is ``normal``, ``t`` with ``df(P, bandwidth)`` degrees of
    freedom, or ``fixed-b``. ``scale(P, h)``, when given, multiplies the statistic.
    """

    kernel: str
    param: str | None
    default: str | int | None
    reference: str
    df: Callable[[int, int], float] | None = None
    scale: Callable[[int, int], float] | None = None


def _small_sample_factor(P: int, h: int) -> float:
    factor_sq = (P + 1.0 - 2.0 * h + h * (h - 1.0) / P) / P
    if factor_sq <= 0.0:
        raise ValueError(
            f"small-sample correction factor is nonpositive at P={P}, h={h}; "
            "the horizon is too large for this sample"
        )
    return float(np.sqrt(factor_sq))


# The battery, in the order ``epatest test --method all`` reports it.
METHODS = {
    "dm_r": Method("rectangular", None, None, "normal"),
    "dm_m": Method("rectangular", None, None, "t", lambda P, lags: P - 1, _small_sample_factor),
    "dm_nw": Method("bartlett", "M", "nw1994", "normal"),
    "dm_nw_l": Method("bartlett", None, "llsw", "normal"),
    "dm_fb": Method("bartlett", "M", "llsw", "fixed-b"),
    "dm_ewc": Method("ewc", "B", "ewc_default", "t", lambda P, B: B),
    "dm_wpe": Method("wpe", "m", "wpe_default", "t", lambda P, m: 2 * m),
    "dm_im": Method("block-means", "q", 2, "t", lambda P, q: q - 1),
}


def procedure(
    label: str, P: int, h: int, cl: float, bandwidth: int | None = None, rule: str | None = None
) -> Procedure:
    """The test ``label`` at sample size ``P``, horizon ``h`` and level ``cl``.

    ``label`` is a key of :data:`METHODS`, or ``dm_im_q<q>`` for the block
    test with q blocks, q in ASCII digits without leading zeros, so each
    test has one spelling. ``bandwidth`` overrides the entry's default and
    ``rule`` its bandwidth rule. Every argument is checked here, before any
    data is seen; only the rectangular-kernel tests read ``h``.
    """
    blocks = label.removeprefix("dm_im_q")
    if blocks.isdecimal() and label == f"dm_im_q{int(blocks)}":
        label, bandwidth = "dm_im", int(blocks)
    if label not in METHODS:
        raise ValueError(f"unknown method {label!r}; expected one of: {', '.join(METHODS)}")
    method = METHODS[label]
    if method.reference == "fixed-b":
        if cl != 0.05:
            raise UnsupportedLevelError(
                f"fixed-b critical values are tabulated for cl=0.05 only, got cl={cl}"
            )
    elif not 0.0 < cl < 1.0:
        raise ValueError(f"significance level must lie in (0, 1), got {cl}")
    P = as_integer(P, "sample size", 2)
    scale = 1.0 if method.scale is None else method.scale(P, h)
    if bandwidth is None:
        default = rule or method.default
        if isinstance(default, str):
            default = rule_bandwidth(default, P)
        bandwidth = h - 1 if default is None else default
    if method.kernel == "block-means":
        bandwidth = im_partition(P, bandwidth).q
    else:
        bandwidth = ESTIMATORS[method.kernel].check(bandwidth, P)
    df = None
    if method.reference == "normal":
        crit = float(stats.norm.ppf(1.0 - cl / 2.0))
    elif method.reference == "t":
        df = method.df(P, bandwidth)
        crit = float(stats.t.ppf(1.0 - cl / 2.0, df))
    else:
        crit = fixed_b_critical_value(bandwidth / P)
    return Procedure(label, method.kernel, bandwidth, cl, crit, method.reference, df, scale)


def _variance_floor(X: np.ndarray) -> np.ndarray:
    """Per row, the largest variance estimate that is round-off: (P eps)^2 mean(x^2).

    The transforms of a constant series come out at round-off of its level,
    not at zero; a constant's estimates stay below a fifth of this floor,
    and a relative noise of 1e-9 already lifts them far above it.
    """
    P = X.shape[1]
    return (P * np.finfo(float).eps) ** 2 / P * np.einsum("ij,ij->i", X, X)


def _studentize(means: np.ndarray, variance: np.ndarray, floor: np.ndarray, P: int) -> np.ndarray:
    """sqrt(P) * mean / sqrt(variance) per row; NaN where the variance is at most ``floor``."""
    return np.sqrt(P) * means / np.sqrt(np.where(variance > floor, variance, np.nan))


@functools.lru_cache(maxsize=256)
def _blocks(P: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Start indices and float sizes of :func:`im_partition`'s blocks, read-only and cached."""
    sizes = im_partition(P, q).block_sizes
    starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
    sizes = np.asarray(sizes, dtype=float)
    starts.flags.writeable = sizes.flags.writeable = False
    return starts, sizes


def _block_means_rows(X: np.ndarray, q: int, floor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    starts, sizes = _blocks(X.shape[1], q)
    means = np.add.reduceat(X, starts, axis=1) / sizes
    grand = means.mean(axis=1)
    s2 = np.sum((means - grand[:, None]) ** 2, axis=1) / (q - 1)
    # The statistic is sqrt(P) * grand / sqrt(s2 * P / q): s2 * P / q is its
    # long-run variance estimate, the one the floor applies to.
    stat = grand / np.sqrt(np.where(s2 * (X.shape[1] / q) > floor, s2, np.nan) / q)
    return stat, s2


def tally(procedures, X: np.ndarray) -> list[tuple]:
    """Every procedure on every row of ``X``, one validated series of the procedures' length each.

    Per procedure: the statistic, variance estimate and |statistic| of every
    row, then the counts of rows that reject at the critical value and of
    degenerate rows, whose variance estimate is at most the round-off floor
    (P eps)^2 mean(x^2). The floor is zero for a row of zeros, so every
    nonpositive estimate is degenerate too. A degenerate row's statistic is
    NaN and its |statistic| 0.0, which never rejects. This is the one
    degenerate rule; :func:`outcomes` and :func:`dm_statistic` read it.
    """
    stat = np.empty((len(procedures), X.shape[0]))
    variance = np.empty_like(stat)
    floor = _variance_floor(X)
    kernel = [i for i, p in enumerate(procedures) if p.kernel in ESTIMATORS]
    if kernel:
        variance[kernel] = variance_rows(
            [(procedures[i].kernel, procedures[i].bandwidth) for i in kernel], X)
        scale = np.array([[procedures[i].scale] for i in kernel])
        stat[kernel] = scale * _studentize(X.mean(axis=1), variance[kernel], floor, X.shape[1])
    for i, p in enumerate(procedures):
        if p.kernel == "block-means":
            stat[i], variance[i] = _block_means_rows(X, p.bandwidth, floor)
    degenerate = np.isnan(stat)
    abs_stat = np.where(degenerate, 0.0, np.abs(stat))
    crit = np.array([[p.critical_value] for p in procedures])
    return list(zip(stat, variance, abs_stat,
                    np.count_nonzero(abs_stat > crit, axis=1).tolist(),
                    np.count_nonzero(degenerate, axis=1).tolist()))


def size_corrected_critical_value(abs_stats, cl: float = 0.05) -> float | np.ndarray:
    """Empirical (1 - cl) quantile critical value from archived null statistics.

    Returns the ceil((1 - cl) n)-th order statistic (1-based) of the
    absolute statistics; the index is computed in integer arithmetic on
    the decimal value of ``cl``, so at cl = 0.05 sample sizes divisible by
    20 land exactly on the intended element. A 1-D ``abs_stats`` gives a
    float; a 2-D one gives the array of its rows' critical values.
    """
    a = np.asarray(abs_stats, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] == 0:
        raise ValueError("need a 1-D or 2-D array of absolute statistics with nonempty rows")
    if not 0.0 < cl < 1.0:
        raise ValueError(f"significance level must lie in (0, 1), got {cl}")
    num, den = Decimal(repr(float(cl))).as_integer_ratio()
    idx = -(-(den - num) * a.shape[-1] // den)
    crit = np.sort(a, axis=-1)[..., idx - 1]
    return float(crit) if crit.ndim == 0 else crit


def outcomes(procedures, d: np.ndarray, strict: bool = True) -> list:
    """Every procedure on the single validated series ``d``: the one-row case of :func:`tally`.

    A degenerate variance estimate (nonpositive or round-off, by
    :func:`tally`'s rule) raises :class:`DegenerateVarianceError`; with
    ``strict=False`` the error stands unraised in that procedure's place
    instead, so one degenerate estimator leaves the other outcomes intact.
    """
    results = []
    for p, (stat, variance, *_) in zip(procedures, tally(procedures, d[None, :])):
        stat, variance = stat.item(), variance.item()
        if np.isnan(stat):
            error = DegenerateVarianceError(p.kernel, p.bandwidth, variance)
            if strict:
                raise error
            results.append(error)
            continue
        pval = None
        if p.reference == "normal":
            pval = float(2.0 * stats.norm.sf(abs(stat)))
        elif p.reference == "t":
            pval = float(2.0 * stats.t.sf(abs(stat), p.df))
        rej = abs(stat) > p.critical_value
        results.append(
            TestOutcome(p.method, stat, rej, p.cl, p.critical_value, pval, p.bandwidth, p.df)
        )
    return results


def _one_row(label: str, d, h=1, cl=0.05, bandwidth=None, rule=None) -> TestOutcome:
    d = as_loss_series(d)
    return outcomes([procedure(label, d.size, h, cl, bandwidth, rule)], d)[0]


def dm_statistic(d, lrv: LrvEstimate) -> float:
    """sqrt(P) * mean(d) / sqrt(lrv.value), the common studentized statistic.

    Raises :class:`DegenerateVarianceError` when the variance estimate is
    nonpositive or round-off by :func:`tally`'s rule, rather than
    fabricating a sign via a complex root or a statistic from rounding.
    """
    d = as_loss_series(d)
    stat = _studentize(np.array([d.mean()]), np.array([lrv.value]),
                       _variance_floor(d[None, :]), d.size)[0]
    if np.isnan(stat):
        raise DegenerateVarianceError(lrv.kernel, lrv.bandwidth, lrv.value)
    return float(stat)


def dm_test_r(d, h: int = 1, cl: float = 0.05) -> TestOutcome:
    """Original test: rectangular variance truncated at h - 1, normal critical values.

    For an h-step forecast the loss differential is treated as MA(h-1), so
    the variance sums the first h - 1 autocovariances with flat weights.
    """
    return _one_row("dm_r", d, h, cl)


def dm_test_m(d, h: int = 1, cl: float = 0.05) -> TestOutcome:
    """Small-sample modification: scaled statistic against t with P - 1 degrees of freedom.

    The statistic is dm_test_r's multiplied by
    sqrt((P + 1 - 2h + h(h-1)/P) / P), which offsets the finite-sample bias
    of the truncated variance estimator under multi-step forecasting.
    """
    return _one_row("dm_m", d, h, cl)


def dm_test_bt(d, M: int | None = None, rule: str | None = None, cl: float = 0.05) -> TestOutcome:
    """Bartlett-kernel test under standard asymptotics (normal critical values).

    ``M`` overrides the automatic bandwidth; otherwise ``rule`` picks it
    (default ``METHODS["dm_nw"]``'s, the data-size rule ceil(4 (P/100)^{2/9})).
    The outcome is labelled ``dm_nw_l`` when ``dm_nw_l``'s wider rule,
    ceil(1.3 sqrt(P)), is selected automatically, ``dm_nw`` otherwise.
    """
    label = "dm_nw_l" if (M is None and rule == METHODS["dm_nw_l"].default) else "dm_nw"
    return _one_row(label, d, cl=cl, bandwidth=M, rule=rule)


def fixed_b_critical_value(b: float) -> float:
    """Two-sided 5% fixed-b critical value for the Bartlett-kernel statistic.

    Cubic response surface in the bandwidth fraction b = M/P:
    1.9600 + 2.9694 b + 0.4160 b^2 - 0.5324 b^3, valid on [0, 1]. At b = 0
    it collapses to the normal critical value; at b = 1 it reaches 4.8130.
    """
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"bandwidth fraction must lie in [0, 1], got {b}")
    return 1.9600 + 2.9694 * b + 0.4160 * b**2 - 0.5324 * b**3


def dm_test_bt_fb(d, M: int | None = None, rule: str | None = None,
                  cl: float = 0.05) -> TestOutcome:
    """Bartlett-kernel test under fixed-b asymptotics.

    Same statistic as :func:`dm_test_bt` (by default at ``METHODS["dm_fb"]``'s
    bandwidth, ceil(1.3 sqrt(P))) but compared against the fixed-b critical
    value at b = M/P, so a generous bandwidth no longer inflates size. Only the
    5% level is tabulated (others raise :class:`UnsupportedLevelError`); no p-value.
    """
    return _one_row("dm_fb", d, cl=cl, bandwidth=M, rule=rule)


def dm_test_ewc_fb(d, B: int | None = None, cl: float = 0.05) -> TestOutcome:
    """Equal-weighted cosine test with its exact fixed-smoothing reference, t with B df.

    With B cosine coefficients the variance estimate is an average of B
    asymptotically independent chi-squared(1) terms, making the studentized
    statistic t-distributed with B degrees of freedom. Default
    B = floor(0.4 P^{2/3}).
    """
    return _one_row("dm_ewc", d, cl=cl, bandwidth=B)


def dm_test_wpe_fb(d, m: int | None = None, cl: float = 0.05) -> TestOutcome:
    """Weighted-periodogram test with fixed-smoothing reference t with 2m df.

    Averaging m periodogram ordinates gives a variance estimate with 2m
    effective chi-squared degrees of freedom. Default m = floor(P^{1/3}).
    """
    return _one_row("dm_wpe", d, cl=cl, bandwidth=m)


@dataclass(frozen=True)
class ImPartition:
    """Balanced partition of P observations into q contiguous blocks.

    ``q`` is computed, not passed: it is the number of blocks.
    """

    q: int = field(init=False)
    block_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "q", len(self.block_sizes))


def im_partition(P: int, q: int) -> ImPartition:
    """Split ``P`` observations into ``q`` contiguous blocks as evenly as possible.

    With P = q*b0 + r, the first r blocks get b0 + 1 observations and the
    remaining q - r blocks get b0, so sizes differ by at most one and sum
    to P exactly. ``q`` may be any integral number (3.0 gives 3 blocks)
    from 2 to P.
    """
    P = as_integer(P, "sample size", 2)
    q = as_integer(q, "bandwidth", 2, P)
    b0, r = divmod(P, q)
    sizes = (b0 + 1,) * r + (b0,) * (q - r)
    return ImPartition(block_sizes=sizes)


def dm_test_im(d, q: int | None = None, cl: float = 0.05) -> TestOutcome:
    """Block t-test: an ordinary t-test on q contiguous block means.

    The series is split into q balanced blocks (default ``METHODS["dm_im"]``'s
    q = 2), each block mean is treated as one approximately independent
    observation, and the one-sample t statistic with q - 1 degrees of freedom
    is applied. Exact under Gaussian independence, robust to dependence for modest q.
    """
    return _one_row("dm_im", d, cl=cl, bandwidth=q)
