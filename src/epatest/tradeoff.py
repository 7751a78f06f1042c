"""Bandwidth size-power tradeoff diagnostic for the fixed-b Bartlett test.

Choosing the bandwidth M moves the fixed-b test along a tradeoff: small M
keeps critical values tight (good power) but understates long-run variance
under persistence (size distortion), while large M fixes size at a real
power cost. This module fits a low-order autoregression to the observed
loss differential, then simulates that fitted world to estimate, for every
candidate M, (a) the null rejection rate minus the nominal 5% and (b) the
worst-case gap to an oracle power envelope after size correction. Plotted
against each other these trace the curve a practitioner uses to judge
whether a rejection is an artifact of the bandwidth choice.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import signal, stats

from .data import ForecastDataset
from .data import loss_series as data_loss_series
from .dmtests import evaluate, outcomes, procedure
from .lrv import bandwidth
from .mc import size_corrected_critical_value
from .series import as_loss_series

__all__ = [
    "FittedArModel",
    "TradeoffConfig",
    "TradeoffPoint",
    "fit_ar",
    "simulate_from_model",
    "size_distortion",
    "oracle_power",
    "max_power_loss",
    "default_bandwidth_grid",
    "build_tradeoff_curve",
]

logger = logging.getLogger(__name__)

SIMULATION_BURN_IN = 500
NOMINAL_LEVEL = 0.05


@dataclass(frozen=True)
class FittedArModel:
    """Least-squares AR fit of the demeaned loss differential.

    ``implied_lrv`` is the long-run variance of the fitted process,
    sigma_eps^2 / (1 - sum(phi))^2, which anchors the oracle power
    envelope.
    """

    order: int
    coefficients: tuple[float, ...]
    innovation_variance: float
    sample_mean: float
    implied_lrv: float


def _is_stationary(coefficients) -> bool:
    # Companion eigenvalues are the roots of z^p - phi_1 z^{p-1} - ... - phi_p.
    roots = np.roots(np.concatenate(([1.0], -np.asarray(coefficients))))
    return bool(np.all(np.abs(roots) < 1.0))


def _conditional_ls(x: np.ndarray, p: int, start: int):
    """Least-squares AR(p) on x[start:] given the preceding values as presample.

    Returns (coefficients, residual sum of squares, number of fitted
    observations); order 0 has no coefficients and RSS = sum of squares.
    """
    n = x.size - start
    y = x[start:]
    if p == 0:
        return (), float(np.dot(y, y)), n
    X = np.column_stack([x[start - k : x.size - k] for k in range(1, p + 1)])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    return tuple(float(c) for c in coef), float(np.dot(resid, resid)), n


def fit_ar(d, max_order: int | None = None) -> FittedArModel:
    """Fit an autoregression to ``d`` by conditional least squares, order by AIC.

    Candidate orders 0..max_order (default min(10, P // 4)) all condition
    on the same presample x[:max_order], so their AICs compare likelihoods
    of the same observations; nonstationary fits are discarded and the AIC
    minimizer among the stationary ones wins (order 0 is always a
    candidate, so selection cannot come up empty). The selected order is
    then refit on its own maximal conditional sample for the reported
    coefficients and innovation variance. AIC uses n log(sigma_eps^2) + 2p
    with sigma_eps^2 = RSS / (n - p).
    """
    d = as_loss_series(d)
    P = d.size
    if max_order is None:
        max_order = min(10, P // 4)
    if max_order < 0:
        raise ValueError(f"max_order must be nonnegative, got {max_order}")
    if P < 2 * max_order + 2:
        raise ValueError(
            f"series of length {P} is too short for max_order={max_order}; "
            "need at least 2 * max_order + 2 observations"
        )
    x = d - d.mean()
    best: tuple | None = None
    n_sel = P - max_order
    for p in range(max_order + 1):
        coefs, rss, n = _conditional_ls(x, p, max_order)
        if p and not _is_stationary(coefs):
            continue
        resid_var = rss / (n - p) if n > p else 0.0
        aic = n_sel * math.log(resid_var) + 2.0 * p if resid_var > 0.0 else -math.inf
        if best is None or aic < best[0]:
            best = (aic, p)
    if best is None:  # pragma: no cover
        warnings.warn("no stationary autoregressive fit; falling back to white noise")
        best = (0.0, 0)
    order = best[1]
    coefs, rss, n = _conditional_ls(x, order, order)
    if order and not _is_stationary(coefs):
        # The refit widened the sample into nonstationarity; keep the
        # selection-sample fit, which is stationary by construction.
        coefs, rss, n = _conditional_ls(x, order, max_order)
    resid_var = rss / (n - order) if n > order else 0.0
    implied = resid_var / (1.0 - sum(coefs)) ** 2 if order else resid_var
    return FittedArModel(
        order=order,
        coefficients=coefs,
        innovation_variance=resid_var,
        sample_mean=float(d.mean()),
        implied_lrv=float(implied),
    )


def simulate_from_model(model: FittedArModel, P: int, shift: float, rng) -> np.ndarray:
    """Draw a length-P path from the fitted autoregression, plus a mean shift.

    Gaussian innovations at the fitted variance drive the recursion from
    zero initial conditions; a 500-observation burn-in is discarded so the
    retained path is effectively stationary. ``shift`` = 0 simulates the
    null of zero mean, nonzero values simulate alternatives.
    """
    if P < 1:
        raise ValueError(f"path length must be positive, got {P}")
    rng = np.random.default_rng(rng)
    eps = rng.standard_normal(SIMULATION_BURN_IN + P) * math.sqrt(
        max(model.innovation_variance, 0.0)
    )
    if model.order:
        a = np.concatenate(([1.0], -np.asarray(model.coefficients)))
        path = signal.lfilter([1.0], a, eps)
    else:
        path = eps
    return path[SIMULATION_BURN_IN:] + shift


def _null_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng([seed, rep])


def _null_statistics(model: FittedArModel, P: int, grid, n_sim: int, seed: int):
    """Fixed-b statistics at every bandwidth in ``grid`` on one set of null paths.

    Simulates the ``n_sim`` null paths once, as rows of a matrix, and
    evaluates the test at every bandwidth from one autocovariance array.
    Returns the procedures and, per bandwidth, the (statistic, variance)
    arrays over the paths; degenerate variance estimates give NaN
    statistics (tallied in the debug log).
    """
    procedures = [procedure("dm_fb", P, 1, NOMINAL_LEVEL, M) for M in grid]
    paths = np.stack([
        simulate_from_model(model, P, 0.0, _null_rng(seed, rep)) for rep in range(n_sim)
    ])
    results = evaluate(procedures, paths)
    for proc, (stat, _) in zip(procedures, results):
        degenerate = np.count_nonzero(np.isnan(stat))
        if degenerate:
            logger.debug(
                "fixed-b null statistics (P=%d, M=%d): %d of %d replications degenerate",
                P, proc.bandwidth, degenerate, n_sim,
            )
    return procedures, results


def _size_distortions(procedures, results, n_sim: int) -> list[float]:
    return [
        np.count_nonzero(np.abs(stat) > proc.critical_value) / n_sim - NOMINAL_LEVEL
        for proc, (stat, _) in zip(procedures, results)
    ]


def _max_power_losses(model: FittedArModel, P: int, results, grid_size: int) -> list[float]:
    sigma = math.sqrt(model.implied_lrv)
    sqrt_p = math.sqrt(P)
    z975 = float(stats.norm.ppf(0.975))
    z99 = float(stats.norm.ppf(0.99))
    delta_max = (z975 + z99) * sigma / sqrt_p
    shifts = delta_max * np.arange(1, grid_size + 1) / grid_size
    envelope = np.array([oracle_power(model.implied_lrv, P, s) for s in shifts])
    # Rows are bandwidths, columns replications; degenerate replications
    # count as |statistic| = 0 under the null and never reject.
    stat0 = np.array([stat for stat, _ in results])
    variance = np.array([variance for _, variance in results])
    sd = np.sqrt(np.where(variance > 0.0, variance, np.nan))
    null_abs = np.where(np.isnan(stat0), 0.0, np.abs(stat0))
    crit = np.array([size_corrected_critical_value(row) for row in null_abs])[:, None]
    # Common random numbers: an alternative path is the null path plus the
    # shift, and the Bartlett variance estimate is shift-invariant.
    power = np.column_stack([
        np.mean(np.abs(stat0 + sqrt_p * s / sd) > crit, axis=1) for s in shifts
    ])
    return [float(max(0.0, np.max(envelope - row))) for row in power]


def size_distortion(
    model: FittedArModel, P: int, M: int, n_sim: int = 5000, seed: int = 0
) -> float:
    """Null rejection rate of the fixed-b test at bandwidth ``M``, minus 5%.

    Simulates ``n_sim`` null paths from the fitted model and runs the
    actual test on each. Degenerate variance estimates count as
    non-rejections (and are tallied in the debug log). Positive values mean
    the bandwidth leaves the test oversized in this fitted world. This is
    the one-bandwidth case of :func:`build_tradeoff_curve`.
    """
    if n_sim < 1:
        raise ValueError(f"n_sim must be positive, got {n_sim}")
    procedures, results = _null_statistics(model, P, (M,), n_sim, seed)
    return _size_distortions(procedures, results, n_sim)[0]


def oracle_power(true_lrv: float, P: int, shift: float) -> float:
    """Power envelope of the infeasible 5% test that knows the long-run variance.

    With known variance the statistic is exactly normal with noncentrality
    u = shift sqrt(P) / sigma, so two-sided power is
    Phi(-z_{0.975} + u) + Phi(-z_{0.975} - u). Symmetric in the sign of
    ``shift`` and nondecreasing in its magnitude; equals 0.05 at shift 0.
    """
    if true_lrv <= 0.0:
        raise ValueError(f"long-run variance must be positive, got {true_lrv}")
    z = stats.norm.ppf(0.975)
    u = shift * math.sqrt(P) / math.sqrt(true_lrv)
    return float(stats.norm.cdf(-z + u) + stats.norm.cdf(-z - u))


def max_power_loss(
    model: FittedArModel,
    P: int,
    M: int,
    n_sim: int = 5000,
    grid_size: int = 20,
    seed: int = 0,
) -> float:
    """Worst-case size-corrected power shortfall against the oracle envelope.

    A grid of mean shifts runs from delta_max / grid_size up to
    delta_max = (z_{0.975} + z_{0.99}) sigma / sqrt(P), the shift at which
    the oracle already rejects 99% of the time. For each shift the
    simulated test's power is computed after an empirical 95th-percentile
    size correction from the same replications' null statistics (common
    random numbers: an alternative path is the null path plus the shift,
    and the Bartlett variance estimate is shift-invariant). The reported
    loss is the largest oracle-minus-test gap on the grid, floored at zero.
    This is the one-bandwidth case of :func:`build_tradeoff_curve`.
    """
    if n_sim < 1:
        raise ValueError(f"n_sim must be positive, got {n_sim}")
    if grid_size < 1:
        raise ValueError(f"grid_size must be positive, got {grid_size}")
    if model.implied_lrv <= 0.0:
        raise ValueError("fitted model has nonpositive long-run variance")
    _, results = _null_statistics(model, P, (M,), n_sim, seed)
    return _max_power_losses(model, P, results, grid_size)[0]


@dataclass(frozen=True)
class TradeoffConfig:
    """Settings for :func:`build_tradeoff_curve`."""

    bandwidth_grid: tuple[int, ...] | None = None
    n_sim: int = 5000
    alternative_grid_size: int = 20
    seed: int = 0
    max_ar_order: int | None = None

    def __post_init__(self):
        if self.n_sim < 100:
            raise ValueError(
                f"rejection rates need at least 100 simulations, got {self.n_sim}"
            )
        if self.alternative_grid_size < 1:
            raise ValueError(
                f"alternative_grid_size must be positive, got {self.alternative_grid_size}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class TradeoffPoint:
    """One bandwidth's coordinates on the size-power tradeoff curve.

    ``rejected`` records whether the fixed-b test at this bandwidth rejects
    on the observed series itself, so the curve can show where along the
    tradeoff the empirical rejections live.
    """

    M: int
    size_distortion: float
    max_power_loss: float
    rejected: bool


def default_bandwidth_grid(P: int) -> tuple[int, ...]:
    """Bandwidths 1..min(2 ceil(1.3 sqrt(P)), P - 1); always contains the automatic M."""
    top = min(2 * bandwidth("llsw", P), P - 1)
    return tuple(range(1, top + 1))


def build_tradeoff_curve(
    forecast_data, config: TradeoffConfig | None = None
) -> list[TradeoffPoint]:
    """Estimate the size-power tradeoff of the fixed-b test on observed data.

    ``forecast_data`` is a :class:`~epatest.data.ForecastDataset` (whose
    squared-error loss differential is the series under test) or a loss
    differential directly. Fits the autoregressive model once and simulates
    its null paths once, then for every bandwidth in the grid computes the
    simulated size distortion, the worst-case size-corrected power loss, and
    the test's actual decision on the series. Every bandwidth sees the same
    replications, so curves are deterministic given the config and smooth
    across adjacent bandwidths.
    """
    if config is None:
        config = TradeoffConfig()
    d = forecast_data
    if isinstance(forecast_data, ForecastDataset):
        d = data_loss_series(forecast_data, loss="squared")
    d = as_loss_series(d)
    P = d.size
    if P < 10:
        raise ValueError(f"need at least 10 observations for the diagnostic, got {P}")
    grid = config.bandwidth_grid
    if grid is None:
        grid = default_bandwidth_grid(P)
    grid = tuple(int(M) for M in grid)
    if not grid:
        raise ValueError("bandwidth grid is empty")
    for M in grid:
        if not 1 <= M <= P - 1:
            raise ValueError(f"bandwidth {M} outside [1, {P - 1}]")
    model = fit_ar(d, config.max_ar_order)
    if model.innovation_variance <= 0.0:
        raise ValueError("fitted innovation variance is zero; series is degenerate")
    procedures, results = _null_statistics(model, P, grid, config.n_sim, config.seed)
    return [
        TradeoffPoint(M=M, size_distortion=sd, max_power_loss=loss, rejected=outcome.rej)
        for M, sd, loss, outcome in zip(
            grid,
            _size_distortions(procedures, results, config.n_sim),
            _max_power_losses(model, P, results, config.alternative_grid_size),
            outcomes(procedures, d),
        )
    ]
