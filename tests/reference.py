"""Independent reference implementations used as test oracles.

Everything here is a deliberately naive transcription — plain Python loops
and quadrature — sharing no code path with the package, so agreement is
evidence of correctness rather than of consistency.
"""

import cmath
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
