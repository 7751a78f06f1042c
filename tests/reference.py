"""Independent reference implementations used as test oracles.

Everything here is a deliberately naive transcription — plain Python loops
and quadrature — sharing no code path with the package, so agreement is
evidence of correctness rather than of consistency.
"""

import cmath
import csv
import math

import numpy as np
from scipy import integrate, signal


def naive_autocovariance(d, j):
    d = list(map(float, d))
    P = len(d)
    dbar = sum(d) / P
    return sum((d[t] - dbar) * (d[t + j] - dbar) for t in range(P - j)) / P


def naive_lrv_rectangular(d, h):
    acc = naive_autocovariance(d, 0)
    for j in range(1, h):
        acc += 2.0 * naive_autocovariance(d, j)
    return acc


def naive_lrv_bartlett(d, M):
    acc = naive_autocovariance(d, 0)
    for j in range(1, M):
        acc += 2.0 * (1.0 - j / M) * naive_autocovariance(d, j)
    return acc


def naive_cosine_coefficient(d, j):
    d = list(map(float, d))
    P = len(d)
    return math.sqrt(2.0 / P) * sum(
        d[t - 1] * math.cos(math.pi * j * (t - 0.5) / P) for t in range(1, P + 1)
    )


def naive_lrv_ewc(d, B):
    return sum(naive_cosine_coefficient(d, j) ** 2 for j in range(1, B + 1)) / B


def naive_periodogram(d, j):
    d = list(map(float, d))
    P = len(d)
    lam = 2.0 * math.pi * j / P
    s = sum(d[t - 1] * cmath.exp(-1j * lam * t) for t in range(1, P + 1))
    return abs(s) ** 2 / (2.0 * math.pi * P)


def naive_lrv_wpe(d, m):
    return (2.0 * math.pi / m) * sum(
        naive_periodogram(d, j) for j in range(1, m + 1)
    ) / 1.0


def normal_cdf(x):
    """Standard normal CDF by quadrature of the density."""
    val, _ = integrate.quad(
        lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi), 0.0, x
    )
    return 0.5 + val


def t_cdf(x, df):
    """Student-t CDF by quadrature of the density."""
    c = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) / math.sqrt(
        df * math.pi
    )
    val, _ = integrate.quad(
        lambda u: c * (1.0 + u * u / df) ** (-(df + 1) / 2.0), 0.0, x
    )
    return 0.5 + val


def _bisect(f, target, lo, hi, tol=1e-12):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def normal_quantile(p):
    return _bisect(normal_cdf, p, -40.0, 40.0)


def t_quantile(p, df):
    return _bisect(lambda x: t_cdf(x, df), p, -400.0, 400.0)


def normal_tail(x):
    """Standard normal upper tail P(Z > x) by quadrature of the density from x
    on, to relative accuracy, so that tails far below 1e-16 are resolved."""
    val, _ = integrate.quad(lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi),
                            x, math.inf, epsabs=0.0, epsrel=1e-13)
    return val


def t_tail(x, df):
    """Student-t upper tail P(T > x) by quadrature of the density from x on."""
    c = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) / math.sqrt(df * math.pi)
    val, _ = integrate.quad(lambda u: c * (1.0 + u * u / df) ** (-(df + 1) / 2.0),
                            x, math.inf, epsabs=0.0, epsrel=1e-13)
    return val


def upper_quantile(tail, p, hi):
    """The x in (0, hi) with tail(x) = p, by bisection."""
    return _bisect(lambda x: -tail(x), -p, 0.0, hi)


def ar_lfilter(a, x):
    """``x`` (each row of a 2-D ``x``) passed through 1/a(L) from rest by SciPy's direct filter."""
    return signal.lfilter([1.0], a, x, axis=-1)


def cr_recursion_lfilter(eps, h, R):
    """The conditional-rolling recursion as a direct filter: the MA(h-1) with
    weights 0.5^k, then the autoregression with lag-h..lag-(h+R-1)
    coefficients 1/(2R), both run over the whole path from rest."""
    x = signal.lfilter(0.5 ** np.arange(h), [1.0], eps)
    a = np.zeros(h + R)
    a[0] = 1.0
    a[h:] = -1.0 / (2.0 * R)
    return signal.lfilter([1.0], a, x)


def ucr_loss_differential(eps, mu, h, R_tilde, P):
    """One unconditional-rolling replication's loss differential, built one
    path at a time: the MA(h-1) path by ``np.convolve`` over the innovations
    (the first h-1 of them presample), the rolling means from one cumulative
    sum, then the squared error of the zero forecast minus that of the
    rolling mean at each of the P origins."""
    y = mu + np.convolve(eps, 0.5 ** np.arange(h), mode="valid")
    csum = np.concatenate(([0.0], np.cumsum(y)))
    rolling_mean = (csum[R_tilde : R_tilde + P] - csum[:P]) / R_tilde
    target = y[R_tilde + h - 1 : R_tilde + h - 1 + P]
    e1 = target - np.zeros(P)
    e2 = target - rolling_mean
    return e1 * e1 - e2 * e2


def cr_loss_differential(eps, h, R, R_tilde, P):
    """One conditional-rolling replication's loss differential, built one
    path at a time: the recursion by ``cr_recursion_lfilter`` over all the
    innovations, of which all but the last R_tilde + P + h - 1 outputs are
    burn-in, the rolling means from one cumulative sum, then the squared error of the
    zero forecast minus that of the rolling mean at each of the P origins."""
    y = cr_recursion_lfilter(eps, h, R)[eps.size - (R_tilde + P + h - 1) :]
    csum = np.concatenate(([0.0], np.cumsum(y)))
    rolling_mean = (csum[R_tilde : R_tilde + P] - csum[:P]) / R_tilde
    target = y[R_tilde + h - 1 : R_tilde + h - 1 + P]
    e1 = target - np.zeros(P)
    e2 = target - rolling_mean
    return e1 * e1 - e2 * e2


def _ar_least_squares(x, p, start):
    """Least-squares AR(p) on x[start:] given the values before it: coefficients, RSS, n."""
    y = x[start:]
    if p == 0:
        return (), float(np.dot(y, y)), y.size
    X = np.column_stack([x[start - k : x.size - k] for k in range(1, p + 1)])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    return tuple(float(c) for c in coef), float(np.dot(resid, resid)), y.size


def _ar_stationary(coefficients):
    return bool(np.all(np.abs(np.roots([1.0, *(-c for c in coefficients)])) < 1.0))


def naive_fit_ar(d, max_order=None):
    """AR order by AIC through an exhaustive search: every order 0..max_order
    is fitted on the sample after x[:max_order] and checked for
    stationarity, and the lowest AIC among the stationary ones wins (the
    lowest order on ties). The winner is refit on its own maximal sample,
    unless that refit is nonstationary. Returns (coefficients, innovation
    variance, sample mean), or raises ValueError for a unit root or a fit
    made of round-off."""
    d = np.asarray(d, dtype=float)
    if max_order is None:
        max_order = min(10, d.size // 4)
    x = d - d.mean()
    aics = {}
    for p in range(max_order + 1):
        coefs, rss, n = _ar_least_squares(x, p, max_order)
        if p == 0 or _ar_stationary(coefs):
            resid_var = rss / (n - p)
            aics[p] = n * math.log(resid_var) + 2.0 * p if resid_var > 0.0 else -math.inf
    order = min(aics, key=aics.get)
    coefs, rss, n = _ar_least_squares(x, order, order)
    if order and not _ar_stationary(coefs):
        coefs, rss, n = _ar_least_squares(x, order, max_order)
    if 1.0 - sum(coefs) == 0.0:
        raise ValueError(
            f"fitted AR({order}) has a unit root (coefficients sum to 1); its long-run "
            "variance is undefined"
        )
    innovation_variance = rss / (n - order)
    if innovation_variance <= np.finfo(float).eps * np.var(d):
        raise ValueError("fitted innovation variance is zero; series is degenerate")
    return coefs, innovation_variance, float(d.mean())


def naive_load_csv(path, forecast_cols, realization_col, na_policy, date_col=None,
                   date_range=None):
    """``load_csv`` on a valid file, one ``csv.DictReader`` record at a time.

    Returns (f1, f2, realization, dates), with dates None without a date column.
    """
    lo, hi = date_range or (None, None)
    kept, dates = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for record in csv.DictReader(fh):
            date = record[date_col].strip() if date_col is not None else None
            if (lo is not None and date < lo) or (hi is not None and date > hi):
                continue
            cells = [record[name].strip() for name in (*forecast_cols, realization_col)]
            values = [math.nan if cell in ("", "NA", "#N/A") else float(cell) for cell in cells]
            if na_policy == "drop" and any(math.isnan(v) for v in values):
                continue
            kept.append(values)
            dates.append(date)
    columns = [np.array([values[k] for values in kept], dtype=float) for k in range(3)]
    return (*columns, tuple(dates) if date_col is not None else None)
