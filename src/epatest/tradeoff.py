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
from scipy import special

from ._streams import check_reps, keyed_rows
from .data import ForecastDataset
from .data import loss_series as data_loss_series
from .dmtests import METHODS, outcomes, procedure, size_corrected_critical_value, tally
from .lrv import bandwidth
from .series import ar_filter_rows, as_integer, as_loss_series

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
    of the same observations. The AIC minimizer among the stationary fits
    wins, the lowest order on ties: the first stationary fit in (AIC, order)
    order, so the fits after it are never checked (order 0 counts as
    stationary, so selection cannot come up empty). The selected order is
    then refit on its own maximal conditional sample for the reported
    coefficients and innovation variance. AIC uses n log(sigma_eps^2) + 2p
    with sigma_eps^2 = RSS / (n - p). A fit whose innovation variance is
    at most machine epsilon times the series' variance is made of
    round-off (the series has no sampling noise) and raises ValueError, as
    does a unit root.
    """
    d = as_loss_series(d)
    P = d.size
    # A fit of order max_order needs P >= 2 * max_order + 2.
    max_order = (min(10, P // 4) if max_order is None
                 else as_integer(max_order, "max_order", 0, (P - 2) // 2))
    x = d - d.mean()
    fits = [_conditional_ls(x, p, max_order) for p in range(max_order + 1)]
    aics = [n * math.log(rss / (n - p)) + 2.0 * p if rss / (n - p) > 0.0 else -math.inf
            for p, (_, rss, n) in enumerate(fits)]
    order = next(p for p in sorted(range(max_order + 1), key=lambda p: (aics[p], p))
                 if p == 0 or _is_stationary(fits[p][0]))
    coefs, rss, n = _conditional_ls(x, order, order)
    if order and not _is_stationary(coefs):
        # The refit widened the sample into nonstationarity; keep the
        # selection-sample fit, which is stationary by construction.
        coefs, rss, n = _conditional_ls(x, order, max_order)
    model = FittedArModel(coefs, rss / (n - order), float(d.mean()))
    # Relative to the series, so a fit made of round-off is refused too.
    if model.innovation_variance <= np.finfo(float).eps * np.var(d):
        raise ValueError("fitted innovation variance is zero; series is degenerate")
    return model


def _model_paths(model: FittedArModel, E: np.ndarray, shift: float) -> np.ndarray:
    """The fitted autoregression driven by each row of standard normals ``E``.

    The rows are scaled to the fitted innovation variance and passed
    through the autoregression from zero initial conditions by the banded
    triangular solve of :func:`epatest.series.ar_filter_rows`, which treats
    every row alike, so a path simulated alone equals the same path in a
    batch; the first ``SIMULATION_BURN_IN`` values of each path are dropped
    and ``shift`` is added to the rest.
    """
    eps = E * math.sqrt(max(model.innovation_variance, 0.0))
    a = np.concatenate(([1.0], -np.asarray(model.coefficients)))
    return ar_filter_rows(a, eps)[:, SIMULATION_BURN_IN:] + shift


def simulate_from_model(model: FittedArModel, P: int, shift: float, rng) -> np.ndarray:
    """Draw a length-P path from the fitted autoregression, plus a mean shift.

    Gaussian innovations at the fitted variance drive the recursion from
    zero initial conditions; a 500-observation burn-in is discarded so the
    retained path is effectively stationary. ``shift`` = 0 simulates the
    null of zero mean, nonzero values simulate alternatives.
    """
    P = as_integer(P, "path length", 1)
    E = np.random.default_rng(rng).standard_normal((1, SIMULATION_BURN_IN + P))
    return _model_paths(model, E, shift)[0]


def _null_rng(seed: int, rep: int) -> np.random.Generator:
    """The generator of null path ``rep``: :func:`_null_summary` draws
    ``simulate_from_model(model, P, 0.0, _null_rng(seed, rep))`` as that
    path, without constructing the generator."""
    return np.random.default_rng([seed, rep])


def _procedures(P: int, grid) -> list:
    """The fixed-b test at each bandwidth of ``grid`` (None: :func:`default_bandwidth_grid`)."""
    if grid is None:
        grid = default_bandwidth_grid(P)
    return [procedure("dm_fb", P, 1, 0.05, M) for M in grid]


def _null_summary(model: FittedArModel, P: int, procedures, config, with_power: bool = True):
    """Size distortions and max power losses (None without ``with_power``) of ``procedures``,
    all read off one tally of ``config.n_sim`` null paths, drawn once as rows of a matrix; a
    degenerate path (by :func:`epatest.dmtests.tally`) never rejects and is counted in the log."""
    P = as_integer(P, "sample size", 2)  # the one-bandwidth functions pass theirs as given
    if with_power and model.implied_lrv <= 0.0:
        raise ValueError("fitted model has nonpositive long-run variance")
    paths = np.empty((config.n_sim, P))
    keyed_rows(paths, [config.seed], SIMULATION_BURN_IN + P, lambda E: _model_paths(model, E, 0.0))
    tallies = tally(procedures, paths)
    sizes = []
    for proc, (*_, rejections, degenerate) in zip(procedures, tallies):
        if degenerate:
            logger.debug("fixed-b null statistics (P=%d, M=%d): %d of %d replications degenerate",
                         P, proc.bandwidth, degenerate, config.n_sim)
        sizes.append(rejections / config.n_sim - proc.cl)
    if not with_power:
        return sizes, None
    sqrt_p = math.sqrt(P)
    z975, z99 = special.ndtri([0.975, 0.99]).tolist()
    delta_max = (z975 + z99) * math.sqrt(model.implied_lrv) / sqrt_p
    grid_size = config.alternative_grid_size
    shifts = delta_max * np.arange(1, grid_size + 1) / grid_size
    envelope = oracle_power(model.implied_lrv, P, shifts)
    # Rows are bandwidths, columns replications.
    stat0, variance, null_abs, _, _ = map(np.array, zip(*tallies))
    sd = np.sqrt(np.where(np.isnan(stat0), np.nan, variance))
    # dm_fb is tabulated at one level only, so every procedure here has the same cl.
    crit = size_corrected_critical_value(null_abs, procedures[0].cl)[:, None]
    # Common random numbers: an alternative path is the null path plus the
    # shift, and the Bartlett variance estimate is shift-invariant (so a
    # path degenerate under the null stays NaN and never rejects).
    power = np.column_stack([
        np.mean(np.abs(stat0 + sqrt_p * s / sd) > crit, axis=1) for s in shifts
    ])
    return sizes, [float(max(0.0, np.max(envelope - row))) for row in power]


def size_distortion(
    model: FittedArModel, P: int, M: int, n_sim: int = 5000, seed: int = 0
) -> float:
    """Null rejection rate of the fixed-b test at bandwidth ``M``, minus 5%.

    Simulates ``n_sim`` null paths from the fitted model and runs the
    actual test on each; a degenerate variance estimate is a non-rejection,
    by :func:`epatest.dmtests.tally`. Positive values mean
    the bandwidth leaves the test oversized in this fitted world. This is
    the one-bandwidth case of :func:`build_tradeoff_curve`, and ``n_sim``
    and ``seed`` follow :class:`TradeoffConfig`'s rules.
    """
    config = TradeoffConfig(n_sim=n_sim, seed=seed)
    return _null_summary(model, P, _procedures(P, (M,)), config, with_power=False)[0][0]


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
    P = as_integer(P, "sample size", 1)
    z = special.ndtri(0.975)
    u = np.asarray(shift) * math.sqrt(P) / math.sqrt(true_lrv)
    power = special.ndtr(-z + u) + special.ndtr(-z - u)
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
    This is the one-bandwidth case of :func:`build_tradeoff_curve`, and
    ``n_sim``, ``grid_size`` (as ``alternative_grid_size``) and ``seed``
    follow :class:`TradeoffConfig`'s rules.
    """
    config = TradeoffConfig(n_sim=n_sim, alternative_grid_size=grid_size, seed=seed)
    return _null_summary(model, P, _procedures(P, (M,)), config)[1][0]


@dataclass(frozen=True)
class TradeoffConfig:
    """Settings for :func:`build_tradeoff_curve`.

    ``bandwidth_grid`` may be a ``range``, which is never expanded before
    its bandwidths are checked against the series length. Any other grid,
    an iterator included, is stored as a tuple.
    """

    bandwidth_grid: range | tuple[int, ...] | None = None
    n_sim: int = 5000
    alternative_grid_size: int = 20
    seed: int = 0
    max_ar_order: int | None = None

    def __post_init__(self):
        # Integral floats are stored as ints (150.0 -> 150); other values are refused.
        checked = {
            "n_sim": check_reps(self.n_sim, "n_sim", "simulation"),
            "alternative_grid_size": as_integer(self.alternative_grid_size,
                                                "alternative_grid_size", 1),
            "seed": as_integer(self.seed, "seed", 0),
        }
        if self.max_ar_order is not None:
            checked["max_ar_order"] = as_integer(self.max_ar_order, "max_ar_order", 0)
        grid = self.bandwidth_grid
        # A range repeats nothing, and listing it could take any amount of
        # memory; any other grid is stored as a tuple, so an iterator is
        # read once, here.
        if grid is not None and not isinstance(grid, range):
            grid = checked["bandwidth_grid"] = tuple(grid)
            seen = set()
            for M in grid:
                if M in seen:
                    raise ValueError(f"bandwidth {M} is listed more than once")
                seen.add(M)
        if grid is not None and not grid:
            raise ValueError("bandwidth grid is empty")
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
    """Bandwidths 1..min(2 M, P - 1), M dm_fb's automatic bandwidth in ``METHODS``; contains M."""
    top = min(2 * bandwidth(METHODS["dm_fb"].default, P), P - 1)
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
    if isinstance(forecast_data, ForecastDataset):
        forecast_data = data_loss_series(forecast_data, loss="squared")
    d = as_loss_series(forecast_data)
    P = d.size
    if P < 10:
        raise ValueError(f"need at least 10 observations for the diagnostic, got {P}")
    procedures = _procedures(P, config.bandwidth_grid)
    # fit_ar checks this too, under its own argument name, max_order.
    if config.max_ar_order is not None:
        as_integer(config.max_ar_order, "max_ar_order", 0, (P - 2) // 2)
    model = fit_ar(d, config.max_ar_order)
    sizes, losses = _null_summary(model, P, procedures, config)
    return [TradeoffPoint(proc.bandwidth, sd, loss, outcome.rej)
            for proc, sd, loss, outcome in zip(procedures, sizes, losses, outcomes(procedures, d))]
