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

import os
import signal
import sys
import traceback
from collections.abc import Callable
from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._streams import check_reps, keyed_rows
from .dmtests import procedure, size_corrected_critical_value, tally
from .series import ar_filter_rows, as_integer

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
    "experiment_grid",
    "simulate",
    "run_experiment",
    "size_corrected_critical_value",
    "size_corrected_power",
    "size_corrected_powers",
]

DEFAULT_H_SET = (1, 3, 12)
DEFAULT_R_SET = (25, 75, 125, 175)
DEFAULT_P_SET = (25, 75, 125, 175, 1000)
CR_BURN_IN = 10_000

# The default battery of dmtests.procedure labels (dm_im_q<q> is the block test
# with q blocks); only the default leaves out dm_wpe, a small-sample liability.
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
            object.__setattr__(self, name, as_integer(getattr(self, name), name, 1))
        mu = calibrate_mu(self.h, self.R) if self.family == "ucr" else 0.0
        object.__setattr__(self, "mu", mu)


def ma_weights(h: int) -> np.ndarray:
    """Moving-average weights (1, 0.5, ..., 0.5^{h-1}) shared by both DGPs."""
    return 0.5 ** np.arange(as_integer(h, "horizon", 1))


def ma_autocovariances(h: int) -> np.ndarray:
    """Autocovariances gamma_0..gamma_{h-1} of the MA(h-1) with weights 0.5^k."""
    theta = ma_weights(h)
    return np.array([np.dot(theta[: theta.size - j], theta[j:]) for j in range(theta.size)])


def calibrate_mu(h: int, R: int) -> float:
    """Target-series mean that equalizes the two population MSEs.

    The zero forecast errs by the full series (mean plus noise); the
    R-window rolling mean errs by independent noise plus its own sampling
    variance. Equality of mean squared errors requires
    mu^2 = Var(rolling mean) = R^{-2} [R gamma_0 + 2 sum_{j=1}^{h-1} (R-j) gamma_j].
    The formula assumes the window covers the MA dependence, so R must be at
    least h.
    """
    gamma = ma_autocovariances(h)
    R = as_integer(R, "R", gamma.size)
    acc = R * gamma[0]
    for j in range(1, gamma.size):
        acc += 2.0 * (R - j) * gamma[j]
    return float(np.sqrt(acc) / R)


def experiment_grid(
    families=("ucr", "cr"),
    h_set=DEFAULT_H_SET,
    r_set=DEFAULT_R_SET,
    rt_set=DEFAULT_R_SET,
    p_set=DEFAULT_P_SET,
) -> list[DgpSpec]:
    """Cartesian product of cell parameters as a list of specs."""
    return [
        DgpSpec(fam, h, R, Rt, P)
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

    The unconditional-rolling MA filter is defined by its summation order:
    value t is (((e[t] theta[h-1] + e[t+1] theta[h-2]) + ...) + e[t+h-1]
    theta[0]), summed left to right over the whole chunk at once, one
    shifted multiply-add per lag. The weights are powers of two, so every
    product is exact. For h <= 15 this equals ``np.convolve(e, theta,
    "valid")`` bit for bit; from h = 16 on, ``np.convolve`` sums through a
    BLAS dot product that groups the terms differently, and the two differ
    in the last bits.
    """
    Rt, P, h = spec.R_tilde, spec.P, spec.h
    T_tot = Rt + P + h - 1
    if spec.family == "ucr":
        # h-1 presample innovations so the first retained value already has
        # the full MA window behind it.
        theta = ma_weights(h)
        Y = E[:, :T_tot] * theta[h - 1]
        for j in range(1, h):
            Y += E[:, j : j + T_tot] * theta[h - 1 - j]
        Y += spec.mu
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
    response g. Only the lags 0..S of g that carry all but 2^-53 of its mass
    are used: each replication transforms just the innovations that reach a
    returned value through those lags, the last keep + L of the T given
    (L = min(S, T - keep)), by one real FFT of length n each way against
    the cached spectrum of g's first S + 1 taps. At that n the circular
    wrap-around reaches only the L leading outputs, which are dropped.
    """
    # scipy.fft is imported where it is used, so that only a process that
    # simulates the cr family loads it: `epatest test` and ucr runs start
    # without it.
    from scipy import fft

    T = eps.shape[-1]
    keep = T if keep is None else keep
    G, n, L = _cr_spectrum(h, R, T, keep)
    return fft.irfft(fft.rfft(eps[..., T - keep - L :], n) * G, n)[..., L : L + keep]


@lru_cache(maxsize=1)
def _cr_spectrum(h: int, R: int, T: int, keep: int) -> tuple[np.ndarray, int, int]:
    """Read-only spectrum of the recursion's truncated impulse response, its
    transform length n, and the count L of leading innovations a window needs.

    The MA part's impulse response is its weights, so g over all T steps is
    those weights, zero-padded to T, passed once through the autoregression
    by :func:`epatest.series.ar_filter_rows`. Its support S < T is the
    smallest lag with sum_{m>S} g[m] <= 2^-53 sum_m g[m]; since g is
    positive (positive MA weights and AR coefficients), that bounds both the
    innovations left out of the window and the taps left out of the filter.
    With L = min(S, T - keep), n is the first fast length >= keep + S, which
    keeps the circular wrap-around of S + 1 taps off the last ``keep``
    outputs. When S = T - 1 this is the untruncated convolution over the
    whole path.
    """
    from scipy import fft

    a = np.zeros(h + R)
    a[0] = 1.0
    a[h:] = -1.0 / (2.0 * R)
    b = np.zeros(T)
    b[:h] = ma_weights(h)
    g = ar_filter_rows(a, b)
    tail = np.cumsum(g[::-1])[::-1]  # tail[m] = sum of g[m:]
    S = int(np.count_nonzero(tail[1:] > 2.0**-53 * tail[0]))
    n = fft.next_fast_len(keep + S, real=True)
    G = fft.rfft(g[: S + 1], n)
    G.flags.writeable = False
    return G, n, min(S, T - keep)


def simulate(spec: DgpSpec, rng):
    """One replication of the spec's family: (target, forecast1, forecast2).

    ``rng`` is a generator or anything ``np.random.default_rng`` accepts.
    """
    E = np.random.default_rng(rng).standard_normal((1, _width(spec)))
    target, rolling_mean = _simulate_rows(spec, E)
    return target[0], np.zeros(spec.P), rolling_mean[0]


@dataclass
class ExperimentResult:
    """Rejection rates and per-replication statistic archives for a grid run.

    Keys are ``(method, family, R, R_tilde, h, P)``. Archives hold the
    absolute statistic of every replication, by :func:`epatest.dmtests.tally`
    (0.0 where the variance estimate degenerated: a non-rejection, counted
    in ``degenerate_counts``).
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


def _default_jobs() -> int:
    """The CPUs this process may run on (``os.cpu_count()`` if unknown), or 1 without fork."""
    if not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _cells(run_cell, specs, workers: int, progress):
    """``run_cell(i)`` of every cell i in grid order, by ``workers`` processes: this one, or
    forked ones, each sent the next cell index when free; ``progress`` is called as a cell is
    handed out. The first failure in grid order is raised, as in one process; a worker's death
    is a ChildProcessError. However the generator ends, every worker is killed and joined."""
    n = len(specs)
    if workers == 1:
        for i, spec in enumerate(specs):
            progress(i + 1, n, spec)
            yield run_cell(i)
        return
    import multiprocessing.connection

    def serve(conn, k):  # worker k: (None, each cell's result) or (exception, traceback)
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
        for end in procs:  # the parent's ends, so that its death reads as EOF
            end.close()
        if hasattr(os, "sched_setaffinity"):  # unpinned, workers of short cells took turns
            cpus = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        with suppress(EOFError, OSError):  # the parent is gone: exit quietly
            for i in iter(conn.recv, None):
                try:
                    conn.send((None, run_cell(i)))
                except Exception as exc:
                    conn.send((exc, traceback.format_exc()))

    if any(spec.family == "cr" for spec in specs):  # loaded once here, not in every worker
        import scipy.fft, scipy.linalg  # noqa: E401, F401
    ctx = multiprocessing.get_context("fork")
    procs, busy, done, order = {}, {}, {}, iter(range(n))  # procs, busy: by conn; done: by cell

    def hand_out(conn):  # the next cell, or None once every cell is out: the worker exits
        i = next(order, None)
        if i is not None:
            progress(i + 1, n, specs[i])
            busy[conn] = i
        conn.send(i)

    try:
        for k in range(workers):  # workers <= n: each is forked as it takes its first cell
            for stream in filter(None, (sys.stdout, sys.stderr)):
                stream.flush()  # or the worker could write the buffered text again
            conn, child = ctx.Pipe()
            procs[conn] = ctx.Process(target=serve, args=(child, k), daemon=True)
            procs[conn].start()
            child.close()  # so that the worker's death reads as EOF here
            hand_out(conn)
        for i in range(n):
            # each cell before i came back from a live worker that took the next cell, so cell i
            # is recorded or held by a worker wait() reports, alive or dead: never an empty wait
            while i not in done:
                for conn in multiprocessing.connection.wait(list(busy)):
                    j = busy.pop(conn)
                    try:
                        done[j] = conn.recv()
                    except EOFError:  # the worker died, say by the out-of-memory killer
                        procs[conn].join()
                        code = procs[conn].exitcode
                        how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                        done[j] = ChildProcessError(
                            f"a worker died on cell {j + 1}, {specs[j]}: {how}"), None
                    else:
                        hand_out(conn)
            exc, value = done.pop(i)
            if exc is not None:  # the first failure in grid order, as in one process
                raise exc from (value and RuntimeError(f"raised in a worker process:\n{value}"))
            yield value
    finally:
        for proc in procs.values():
            proc.kill()
        for proc in procs.values():
            proc.join()


def run_experiment(
    specs,
    methods=DEFAULT_METHODS,
    n_reps: int = 5000,
    cl: float = 0.05,
    seed: int = 0,
    progress: Callable[[int, int, DgpSpec], None] | None = None,
    jobs: int = 1,
) -> ExperimentResult:
    """Run every method on ``n_reps`` replications of every cell in ``specs``.

    Replication streams are keyed by (seed, family, h, R, R_tilde, P, rep),
    so each cell's draws are independent of which other cells are in the
    grid and of the method list; rerunning any subset reproduces the full
    run's numbers exactly.

    Every argument is checked before anything is simulated: ``dmtests.procedure``
    plans each label of ``methods`` at ``cl`` for every distinct (P, h), and two
    labels that plan one test (``dm_im`` and ``dm_im_q2``) are refused.
    ``progress``, if given, is called as ``progress(i, n_cells, spec)``
    as the i-th cell (1-based) is handed out, before its work starts. The
    cells run in ``min(jobs, n_cells)`` worker processes: this one, or forked
    ones (``jobs`` above 1 needs the fork start method), each holding one cell
    at a time. The result, key order and every bit included, is the same for
    any ``jobs``.
    """
    specs = tuple(specs)
    methods = tuple(methods)
    if not specs:
        raise ValueError("the experiment grid has no cells")
    if not methods:
        raise ValueError("the method list is empty")
    seen = set()
    for spec in specs:
        if _cell_key(spec) in seen:
            raise ValueError(f"cell family={spec.family} h={spec.h} R={spec.R} "
                             f"R_tilde={spec.R_tilde} P={spec.P} is listed more than once")
        seen.add(_cell_key(spec))
    n_reps = check_reps(n_reps, "n_reps", "replication")
    seed = as_integer(seed, "seed", 0)
    jobs = as_integer(jobs, "jobs", 1)
    if jobs > 1 and not hasattr(os, "fork"):
        raise ValueError("jobs above 1 need the fork start method, which this platform lacks")
    # Reference distributions depend on the cell only through (P, h).
    plans = {}
    for spec in specs:
        if (spec.P, spec.h) not in plans:
            plans[spec.P, spec.h] = [procedure(m, spec.P, spec.h, cl) for m in methods]
    plan = plans[specs[0].P, specs[0].h]  # equal here means equal at every (P, h)
    for i, m in enumerate(methods):
        if plan[i] in plan[:i]:
            first = methods[plan.index(plan[i])]
            raise ValueError(f"method {m!r} is listed more than once" if m == first
                             else f"methods {first!r} and {m!r} are the same test")
    result = ExperimentResult(
        n_reps=n_reps, cl=cl, seed=seed, methods=methods, specs=specs
    )

    def run_cell(i: int) -> list:  # (abs_stat, rejections, degenerate) per method
        D = _loss_differentials(specs[i], n_reps, seed)
        return [t[2:] for t in tally(plans[specs[i].P, specs[i].h], D)]

    cells = _cells(run_cell, specs, min(jobs, len(specs)), progress or (lambda *cell: None))
    for tallies, spec in zip(cells, specs):
        for m, (abs_stat, rejections, degenerate) in zip(methods, tallies):
            key = (m,) + _cell_key(spec)
            result.rejection_rates[key] = rejections / n_reps
            result.archives[key] = abs_stat
            result.degenerate_counts[key] = degenerate
    return result


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
    return _column_powers(result, {cell_key: diag_key})[cell_key]


def size_corrected_powers(result: ExperimentResult) -> dict:
    """:func:`size_corrected_power` of every archived cell whose diagonal null cell was run.

    One (method, family, h, P) column of archives is stacked at a time, so
    the extra memory is one column's archives, not the grid's.
    """
    columns = {}
    for m, f, R, Rt, h, P in result.archives:
        if (m, f, R, R, h, P) in result.archives:
            columns.setdefault((m, f, h, P), {})[m, f, R, Rt, h, P] = (m, f, R, R, h, P)
    return {k: v for col in columns.values() for k, v in _column_powers(result, col).items()}


def _column_powers(result: ExperimentResult, diagonal_of: dict) -> dict:
    """The powers of the cells of one column, keys of ``diagonal_of``, which maps
    each to its diagonal null cell: one sort of the nulls, one comparison of the cells."""
    nulls = list(dict.fromkeys(diagonal_of.values()))
    crit = size_corrected_critical_value([result.archives[k] for k in nulls], result.cl)
    rows = [nulls.index(k) for k in diagonal_of.values()]
    exceed = np.array([result.archives[k] for k in diagonal_of]) > crit[rows, None]
    return dict(zip(diagonal_of, np.mean(exceed, axis=1).tolist()))
