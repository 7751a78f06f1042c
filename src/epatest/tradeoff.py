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
from dataclasses import dataclass, field

import numpy as np
from scipy import signal, stats

from ._streams import check_seed, keyed_rows
from .data import ForecastDataset
from .data import loss_series as data_loss_series
from .dmtests import evaluate, outcomes, procedure
from .lrv import bandwidth
from .mc import size_corrected_critical_value
from .series import as_integer, as_loss_series

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

    ``order`` and ``implied_lrv`` are computed, not passed: the order is
    the number of coefficients, and ``implied_lrv`` is the long-run
    variance of the fitted process, sigma_eps^2 / (1 - sum(phi))^2 (sigma_eps^2
    at order 0), which anchors the oracle power envelope. Coefficients
    summing to 1 are a unit root, whose long-run variance is undefined;
    they raise ValueError.
    """

    order: int = field(init=False)
    coefficients: tuple[float, ...]
    innovation_variance: float
    sample_mean: float
    implied_lrv: float = field(init=False)

    def __post_init__(self):
        denominator = 1.0 - sum(self.coefficients)
        if denominator == 0.0:
            raise ValueError(
                f"fitted AR({len(self.coefficients)}) has a unit root (coefficients sum "
                "to 1); its long-run variance is undefined"
            )
        object.__setattr__(self, "order", len(self.coefficients))
        object.__setattr__(self, "implied_lrv",
                           float(self.innovation_variance / denominator**2))


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
    max_order = min(10, P // 4) if max_order is None else as_integer(max_order, "max_order")
    if max_order < 0:
        raise ValueError(f"max_order must be nonnegative, got {max_order}")
    if P < 2 * max_order + 2:
        raise ValueError(
            f"series of length {P} is too short for max_order={max_order}; "
            "need at least 2 * max_order + 2 observations"
        )
    x = d - d.mean()
    aics = {}
    for p in range(max_order + 1):
        coefs, rss, n = _conditional_ls(x, p, max_order)
        if p == 0 or _is_stationary(coefs):
            resid_var = rss / (n - p)
            aics[p] = n * math.log(resid_var) + 2.0 * p if resid_var > 0.0 else -math.inf
    order = min(aics, key=aics.get)  # the lowest order among equal AICs
    coefs, rss, n = _conditional_ls(x, order, order)
    if order and not _is_stationary(coefs):
        # The refit widened the sample into nonstationarity; keep the
        # selection-sample fit, which is stationary by construction.
        coefs, rss, n = _conditional_ls(x, order, max_order)
    return FittedArModel(coefs, rss / (n - order), float(d.mean()))


def _model_paths(model: FittedArModel, E: np.ndarray, shift: float) -> np.ndarray:
    """The fitted autoregression driven by each row of standard normals ``E``.

    The rows are scaled to the fitted innovation variance and filtered from
    zero initial conditions; the first ``SIMULATION_BURN_IN`` values of each
    path are dropped and ``shift`` is added to the rest.
    """
    eps = E * math.sqrt(max(model.innovation_variance, 0.0))
    if model.order:
        a = np.concatenate(([1.0], -np.asarray(model.coefficients)))
        eps = signal.lfilter([1.0], a, eps, axis=1)
    return eps[:, SIMULATION_BURN_IN:] + shift


def simulate_from_model(model: FittedArModel, P: int, shift: float, rng) -> np.ndarray:
    """Draw a length-P path from the fitted autoregression, plus a mean shift.

    Gaussian innovations at the fitted variance drive the recursion from
    zero initial conditions; a 500-observation burn-in is discarded so the
    retained path is effectively stationary. ``shift`` = 0 simulates the
    null of zero mean, nonzero values simulate alternatives.
    """
    if P < 1:
        raise ValueError(f"path length must be positive, got {P}")
    E = np.random.default_rng(rng).standard_normal((1, SIMULATION_BURN_IN + P))
    return _model_paths(model, E, shift)[0]


def _null_rng(seed: int, rep: int) -> np.random.Generator:
    """The generator of null path ``rep``: :func:`_null_statistics` draws
    ``simulate_from_model(model, P, 0.0, _null_rng(seed, rep))`` as that
    path, without constructing the generator."""
    return np.random.default_rng([seed, rep])


def _null_statistics(model: FittedArModel, P: int, procedures, n_sim: int, seed: int):
    """Statistics of the fixed-b ``procedures`` on one set of null paths.

    Simulates the ``n_sim`` null paths once, as rows of a matrix, and
    evaluates the test at every bandwidth from one autocovariance array.
    Returns, per procedure, the (statistic, variance) arrays over the
    paths; degenerate variance estimates give NaN statistics (tallied in
    the debug log).
    """
    paths = np.empty((n_sim, P))
    keyed_rows(paths, [seed], SIMULATION_BURN_IN + P, lambda E: _model_paths(model, E, 0.0))
    results = evaluate(procedures, paths)
    for proc, (stat, _) in zip(procedures, results):
        degenerate = np.count_nonzero(np.isnan(stat))
        if degenerate:
            logger.debug(
                "fixed-b null statistics (P=%d, M=%d): %d of %d replications degenerate",
                P, proc.bandwidth, degenerate, n_sim,
            )
    return results


def _size_distortions(procedures, results, n_sim: int) -> list[float]:
    return [
        np.count_nonzero(np.abs(stat) > proc.critical_value) / n_sim - NOMINAL_LEVEL
        for proc, (stat, _) in zip(procedures, results)
    ]


def _max_power_losses(model: FittedArModel, P: int, results, grid_size: int) -> list[float]:
    sigma = math.sqrt(model.implied_lrv)
    sqrt_p = math.sqrt(P)
    z975, z99 = stats.norm.ppf([0.975, 0.99]).tolist()
    delta_max = (z975 + z99) * sigma / sqrt_p
    shifts = delta_max * np.arange(1, grid_size + 1) / grid_size
    envelope = oracle_power(model.implied_lrv, P, shifts)
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


def _positive_count(value, name: str) -> int:
    value = as_integer(value, name)
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


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
    n_sim = _positive_count(n_sim, "n_sim")
    procedures = [procedure("dm_fb", P, 1, NOMINAL_LEVEL, M)]
    results = _null_statistics(model, P, procedures, n_sim, seed)
    return _size_distortions(procedures, results, n_sim)[0]


def oracle_power(true_lrv: float, P: int, shift: float) -> float:
    """Power envelope of the infeasible 5% test that knows the long-run variance.

    With known variance the statistic is exactly normal with noncentrality
    u = shift sqrt(P) / sigma, so two-sided power is
    Phi(-z_{0.975} + u) + Phi(-z_{0.975} - u). Symmetric in the sign of
    ``shift`` and nondecreasing in its magnitude; equals 0.05 at shift 0.
    ``shift`` may also be an array of shifts, which gives the array of
    powers.
    """
    if true_lrv <= 0.0:
        raise ValueError(f"long-run variance must be positive, got {true_lrv}")
    z = stats.norm.ppf(0.975)
    u = np.asarray(shift) * math.sqrt(P) / math.sqrt(true_lrv)
    power = stats.norm.cdf(-z + u) + stats.norm.cdf(-z - u)
    return float(power) if power.ndim == 0 else power


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
    n_sim = _positive_count(n_sim, "n_sim")
    grid_size = _positive_count(grid_size, "grid_size")
    if model.implied_lrv <= 0.0:
        raise ValueError("fitted model has nonpositive long-run variance")
    procedures = [procedure("dm_fb", P, 1, NOMINAL_LEVEL, M)]
    results = _null_statistics(model, P, procedures, n_sim, seed)
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
        # Integral floats are stored as ints (150.0 -> 150); other values are refused.
        n_sim = as_integer(self.n_sim, "n_sim")
        if n_sim < 100:
            raise ValueError(f"rejection rates need at least 100 simulations, got {n_sim}")
        checked = {
            "n_sim": n_sim,
            "alternative_grid_size": _positive_count(self.alternative_grid_size,
                                                     "alternative_grid_size"),
            "seed": check_seed(self.seed),
        }
        if self.max_ar_order is not None:
            checked["max_ar_order"] = as_integer(self.max_ar_order, "max_ar_order")
        for name, value in checked.items():
            object.__setattr__(self, name, value)


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
    if not grid:
        raise ValueError("bandwidth grid is empty")
    procedures = [procedure("dm_fb", P, 1, NOMINAL_LEVEL, M) for M in grid]
    model = fit_ar(d, config.max_ar_order)
    if model.innovation_variance <= 0.0:
        raise ValueError("fitted innovation variance is zero; series is degenerate")
    results = _null_statistics(model, P, procedures, config.n_sim, config.seed)
    return [
        TradeoffPoint(M=proc.bandwidth, size_distortion=sd, max_power_loss=loss,
                      rejected=outcome.rej)
        for proc, sd, loss, outcome in zip(
            procedures,
            _size_distortions(procedures, results, config.n_sim),
            _max_power_losses(model, P, results, config.alternative_grid_size),
            outcomes(procedures, d),
        )
    ]
