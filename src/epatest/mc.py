"""Monte Carlo harness for finite-sample size and size-corrected power.

Two rolling-forecast data-generating processes, each comparing a zero
forecast against a rolling-window mean over the preceding ``R_tilde``
observations of the target series:

* unconditional-rolling: the target is an MA(h-1) with weights 0.5^k around
  a nonzero mean calibrated so both forecasts have equal population MSE
  when the estimation window matches ``R_tilde``;
* conditional-rolling: the target follows a zero-mean autoregression whose
  lag-h..lag-(h+R-1) coefficients are all 1/(2R), making the rolling mean
  informative; equal MSE again holds exactly at R = R_tilde.

Off-diagonal combinations (R != R_tilde) violate equal predictive ability
and map out power. Replications are archived as absolute statistics so
size-corrected power can be computed against the matched null cell.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from decimal import Decimal
from functools import lru_cache

import numpy as np
from scipy import fft, signal

from ._streams import check_seed, keyed_rows
from .dmtests import evaluate, procedure
from .series import as_integer

__all__ = [
    "DgpSpec",
    "ExperimentResult",
    "DEFAULT_METHODS",
    "DEFAULT_H_SET",
    "DEFAULT_R_SET",
    "DEFAULT_P_SET",
    "CR_BURN_IN",
    "ma_weights",
    "ma_autocovariances",
    "calibrate_mu",
    "make_spec",
    "experiment_grid",
    "simulate_ucr",
    "simulate_cr",
    "run_experiment",
    "size_corrected_critical_value",
    "size_corrected_power",
]

DEFAULT_H_SET = (1, 3, 12)
DEFAULT_R_SET = (25, 75, 125, 175)
DEFAULT_P_SET = (25, 75, 125, 175, 1000)
CR_BURN_IN = 10_000

# Methods evaluated on every cell, as dmtests.procedure labels (dm_im_q<q> is the
# block test with q blocks); dm_wpe, a small-sample liability, is left out.
DEFAULT_METHODS = (
    "dm_r",
    "dm_m",
    "dm_nw",
    "dm_nw_l",
    "dm_fb",
    "dm_ewc",
    "dm_im_q2",
    "dm_im_q5",
    "dm_im_q10",
)

_FAMILY_CODES = {"ucr": 0, "cr": 1}


@dataclass(frozen=True)
class DgpSpec:
    """One simulation cell: DGP family and its design parameters.

    ``R`` parameterizes the data-generating process (the MSE-equalizing
    window for the unconditional family, the autoregressive lag span for
    the conditional one); ``R_tilde`` is the window the rolling forecast
    actually uses. ``mu``, the target-series mean, is computed, not passed:
    :func:`calibrate_mu` of (h, R) for the unconditional family, zero for
    the conditional one.
    """

    family: str
    h: int
    R: int
    R_tilde: int
    P: int
    mu: float = field(init=False)

    def __post_init__(self):
        if self.family not in _FAMILY_CODES:
            raise ValueError(f"unknown DGP family {self.family!r}; expected 'ucr' or 'cr'")
        for name in ("h", "R", "R_tilde", "P"):
            v = as_integer(getattr(self, name), name)
            if v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, v)
        mu = calibrate_mu(self.h, self.R) if self.family == "ucr" else 0.0
        object.__setattr__(self, "mu", mu)


def ma_weights(h: int) -> np.ndarray:
    """Moving-average weights (1, 0.5, ..., 0.5^{h-1}) shared by both DGPs."""
    if h < 1:
        raise ValueError(f"horizon must be at least 1, got {h}")
    return 0.5 ** np.arange(h)


def ma_autocovariances(h: int) -> np.ndarray:
    """Autocovariances gamma_0..gamma_{h-1} of the MA(h-1) with weights 0.5^k."""
    theta = ma_weights(h)
    return np.array([np.dot(theta[: h - j], theta[j:]) for j in range(h)])


def calibrate_mu(h: int, R: int) -> float:
    """Target-series mean that equalizes the two population MSEs.

    The zero forecast errs by the full series (mean plus noise); the
    R-window rolling mean errs by independent noise plus its own sampling
    variance. Equality of mean squared errors requires
    mu^2 = Var(rolling mean) = R^{-2} [R gamma_0 + 2 sum_{j=1}^{h-1} (R-j) gamma_j].
    """
    if h < 1:
        raise ValueError(f"horizon must be at least 1, got {h}")
    if R < h:
        raise ValueError(
            f"the variance formula assumes the window covers the MA dependence; "
            f"need R >= h, got R={R}, h={h}"
        )
    gamma = ma_autocovariances(h)
    acc = R * gamma[0]
    for j in range(1, h):
        acc += 2.0 * (R - j) * gamma[j]
    return float(np.sqrt(acc) / R)


def make_spec(family: str, h: int, R: int, R_tilde: int, P: int) -> DgpSpec:
    """Build a :class:`DgpSpec`; the same as ``DgpSpec(family, h, R, R_tilde, P)``."""
    return DgpSpec(family, h, R, R_tilde, P)


def experiment_grid(
    families=("ucr", "cr"),
    h_set=DEFAULT_H_SET,
    r_set=DEFAULT_R_SET,
    rt_set=DEFAULT_R_SET,
    p_set=DEFAULT_P_SET,
) -> list[DgpSpec]:
    """Cartesian product of cell parameters as a list of specs."""
    return [
        make_spec(fam, h, R, Rt, P)
        for fam in families
        for h in h_set
        for R in r_set
        for Rt in rt_set
        for P in p_set
    ]


def _width(spec: DgpSpec) -> int:
    """Innovations one replication draws: the path the forecasts use plus its presample."""
    T_tot = spec.R_tilde + spec.P + spec.h - 1
    return T_tot + (spec.h - 1 if spec.family == "ucr" else CR_BURN_IN)


def _simulate_rows(spec: DgpSpec, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Targets and rolling-mean forecasts along the path each row of innovations drives.

    ``E`` holds one replication's ``_width(spec)`` standard normals per row.
    Forecast origins are the ``P`` dates with a full ``R_tilde`` window of
    past values; each targets the value ``h`` steps ahead. The competing
    forecast, identically zero, is left implicit. Every replication of the
    package, batched or not, is simulated here.
    """
    Rt, P, h = spec.R_tilde, spec.P, spec.h
    T_tot = Rt + P + h - 1
    if spec.family == "ucr":
        # h-1 presample innovations so the first retained value already has
        # the full MA window behind it.
        Y = spec.mu + signal.lfilter(ma_weights(h), [1.0], E, axis=1)[:, h - 1 :]
    else:
        Y = _cr_recursion(E, h, spec.R, T_tot)
    csum = np.zeros((Y.shape[0], T_tot + 1))
    np.cumsum(Y, axis=1, out=csum[:, 1:])
    rolling_mean = (csum[:, Rt : Rt + P] - csum[:, :P]) / Rt
    return Y[:, Rt + h - 1 : Rt + h - 1 + P], rolling_mean


def _cr_recursion(eps: np.ndarray, h: int, R: int, keep: int | None = None) -> np.ndarray:
    """The last ``keep`` values (default all) of the conditional-rolling
    recursion run over each row of ``eps`` (or over a 1-D ``eps``) from zero
    initial conditions.

    The recursion is a linear time-invariant filter started at rest, so each
    output is the convolution of the innovations with the filter's impulse
    response g. With g's spectrum cached per (h, R, T, keep), a replication
    costs one real FFT of length n >= T + keep - 1 each way, instead of a
    T-step recursion with h + R taps; at that n the circular wrap-around of
    the product does not reach the ``keep`` values returned.
    """
    T = eps.shape[-1]
    keep = T if keep is None else keep
    G, n = _cr_spectrum(h, R, T, keep)
    return fft.irfft(fft.rfft(eps, n) * G, n)[..., T - keep : T]


@lru_cache(maxsize=1)
def _cr_spectrum(h: int, R: int, T: int, keep: int) -> tuple[np.ndarray, int]:
    """Read-only spectrum of the recursion's impulse response over all T steps,
    and its transform length n: the first fast length at which circular
    convolution equals linear convolution on the last ``keep`` outputs."""
    a = np.zeros(h + R)
    a[0] = 1.0
    a[h:] = -1.0 / (2.0 * R)
    impulse = np.zeros(T)
    impulse[0] = 1.0
    g = signal.lfilter(ma_weights(h), a, impulse)
    n = fft.next_fast_len(T + keep - 1, real=True)
    G = fft.rfft(g, n)
    G.flags.writeable = False
    return G, n


def simulate(spec: DgpSpec, rng):
    """One replication of the spec's family: (target, forecast1, forecast2).

    ``rng`` is a generator or anything ``np.random.default_rng`` accepts.
    """
    E = np.random.default_rng(rng).standard_normal((1, _width(spec)))
    target, rolling_mean = _simulate_rows(spec, E)
    return target[0], np.zeros(spec.P), rolling_mean[0]


def simulate_ucr(spec: DgpSpec, rng):
    """One unconditional-rolling replication: (target, forecast1, forecast2)."""
    if spec.family != "ucr":
        raise ValueError(f"spec has family {spec.family!r}, expected 'ucr'")
    return simulate(spec, rng)


def simulate_cr(spec: DgpSpec, rng):
    """One conditional-rolling replication: (target, forecast1, forecast2)."""
    if spec.family != "cr":
        raise ValueError(f"spec has family {spec.family!r}, expected 'cr'")
    return simulate(spec, rng)


@dataclass
class ExperimentResult:
    """Rejection rates and per-replication statistic archives for a grid run.

    Keys are ``(method, family, R, R_tilde, h, P)``. Archives hold the
    absolute statistic of every replication (0.0 for replications whose
    variance estimate degenerated; those are counted as non-rejections and
    tallied in ``degenerate_counts``).
    """

    rejection_rates: dict = field(default_factory=dict)
    archives: dict = field(default_factory=dict)
    degenerate_counts: dict = field(default_factory=dict)
    n_reps: int = 0
    cl: float = 0.05
    seed: int = 0
    methods: tuple = ()
    specs: tuple = ()


def _cell_key(spec: DgpSpec) -> tuple:
    return (spec.family, spec.R, spec.R_tilde, spec.h, spec.P)


def _loss_differentials(spec: DgpSpec, n_reps: int, seed: int) -> np.ndarray:
    """The cell's replications as an ``n_reps x P`` matrix, one loss differential per row.

    Row ``rep`` is simulated from the stream of
    ``np.random.default_rng([seed, family code, h, R, R_tilde, P, rep])``.
    """
    def loss_rows(E):
        # The zero forecast errs by the target itself.
        target, rolling_mean = _simulate_rows(spec, E)
        e2 = target - rolling_mean
        return target * target - e2 * e2

    D = np.empty((n_reps, spec.P))
    key = [seed, _FAMILY_CODES[spec.family], spec.h, spec.R, spec.R_tilde, spec.P]
    keyed_rows(D, key, _width(spec), loss_rows)
    return D


def run_experiment(
    specs,
    methods=DEFAULT_METHODS,
    n_reps: int = 5000,
    cl: float = 0.05,
    seed: int = 0,
    progress: Callable[[int, int, DgpSpec], None] | None = None,
) -> ExperimentResult:
    """Run every method on ``n_reps`` replications of every cell in ``specs``.

    Replication streams are keyed by (seed, family, h, R, R_tilde, P, rep),
    so each cell's draws are independent of which other cells are in the
    grid and of the method list; rerunning any subset reproduces the full
    run's numbers exactly.

    Every argument, including each method's support for the level ``cl``
    at each cell's sample size, is checked before anything is simulated.
    ``progress``, if given, is called as ``progress(i, n_cells, spec)``
    before the work of the i-th cell (1-based) starts.
    """
    specs = tuple(specs)
    methods = tuple(methods)
    if not specs:
        raise ValueError("the experiment grid has no cells")
    if not methods:
        raise ValueError("the method list is empty")
    for i, m in enumerate(methods):
        if m not in DEFAULT_METHODS:
            known = ", ".join(sorted(DEFAULT_METHODS))
            raise ValueError(f"unknown method {m!r}; expected one of: {known}")
        if m in methods[:i]:
            raise ValueError(f"method {m!r} is listed more than once")
    cells = [_cell_key(spec) for spec in specs]
    for i, spec in enumerate(specs):
        if cells[i] in cells[:i]:
            raise ValueError(f"cell family={spec.family} h={spec.h} R={spec.R} "
                             f"R_tilde={spec.R_tilde} P={spec.P} is listed more than once")
    n_reps = as_integer(n_reps, "n_reps")
    if n_reps < 100:
        raise ValueError(f"rejection rates need at least 100 replications, got {n_reps}")
    seed = check_seed(seed)
    # Reference distributions depend on the cell only through (P, h).
    plans = {}
    for spec in specs:
        if (spec.P, spec.h) not in plans:
            plans[spec.P, spec.h] = [procedure(m, spec.P, spec.h, cl) for m in methods]
    result = ExperimentResult(
        n_reps=n_reps, cl=cl, seed=seed, methods=methods, specs=specs
    )
    for i, spec in enumerate(specs, start=1):
        if progress is not None:
            progress(i, len(specs), spec)
        procedures = plans[spec.P, spec.h]
        D = _loss_differentials(spec, n_reps, seed)
        for m, proc, (stat, _) in zip(methods, procedures, evaluate(procedures, D)):
            key = (m,) + _cell_key(spec)
            degenerate = np.isnan(stat)
            abs_stat = np.where(degenerate, 0.0, np.abs(stat))
            result.rejection_rates[key] = (
                np.count_nonzero(abs_stat > proc.critical_value) / n_reps
            )
            result.archives[key] = abs_stat
            result.degenerate_counts[key] = int(np.count_nonzero(degenerate))
    return result


def size_corrected_critical_value(abs_stats, cl: float = 0.05) -> float:
    """Empirical (1 - cl) quantile critical value from archived null statistics.

    Returns the ceil((1 - cl) n)-th order statistic (1-based) of the
    absolute statistics; the index is computed in integer arithmetic on
    the decimal value of ``cl``, so at cl = 0.05 sample sizes divisible by
    20 land exactly on the intended element.
    """
    a = np.asarray(abs_stats, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("need a nonempty 1-D array of absolute statistics")
    if not 0.0 < cl < 1.0:
        raise ValueError(f"significance level must lie in (0, 1), got {cl}")
    num, den = Decimal(repr(float(cl))).as_integer_ratio()
    idx = -(-(den - num) * a.size // den)
    return float(np.sort(a)[idx - 1])


def size_corrected_power(result: ExperimentResult, cell: tuple, method: str) -> float:
    """Share of a cell's archived statistics exceeding its matched null critical value.

    ``cell`` is (R, R_tilde, h, P) — or (family, R, R_tilde, h, P) when the
    result mixes both families. The matched null is the diagonal cell with
    the same estimation-window length, (family, R, R, h, P), which must be
    present in the same result (identical replication streams make the
    correction internally consistent). The critical value is taken at the
    run's level ``result.cl``, so on the diagonal itself this returns
    1 - ceil((1 - cl) n)/n by construction.
    """
    cell = tuple(cell)
    if len(cell) == 4:
        families = {s.family for s in result.specs}
        if len(families) != 1:
            raise ValueError(
                "cell (R, R_tilde, h, P) is ambiguous over a multi-family result; "
                "pass (family, R, R_tilde, h, P)"
            )
        cell = (next(iter(families)),) + cell
    elif len(cell) != 5:
        raise ValueError(
            "cell must be (R, R_tilde, h, P) or (family, R, R_tilde, h, P), "
            f"got {cell!r}"
        )
    family, R, R_tilde, h, P = cell
    diag_key = (method, family, R, R, h, P)
    if diag_key not in result.archives:
        raise KeyError(
            f"diagonal null cell {diag_key[1:]} for method {method!r} is not in the "
            "experiment; include R_tilde == R cells in the same run"
        )
    cell_key = (method,) + cell
    if cell_key not in result.archives:
        raise KeyError(f"cell {cell!r} for method {method!r} is not in the experiment")
    crit = size_corrected_critical_value(result.archives[diag_key], result.cl)
    return float(np.mean(result.archives[cell_key] > crit))
