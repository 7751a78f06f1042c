"""Release acceptance gate: twelve end-to-end checks.

Each test prints one CRITERION line with its measured numbers, so
``pytest -s tests/test_acceptance.py`` reads as a checklist. Criterion 6
and the second half of criterion 11 need the external quarterly real-GDP
forecast file described in conftest.py; criterion 6 skips with a clear
message when it is absent and criterion 11 then covers only its
self-contained synthetic half.

Criteria 7, 8 and 11 run 5000-replication Monte Carlo grids with a fixed
seed; the whole module takes a couple of minutes.
"""

import math

import numpy as np
import pytest

from epatest import (
    DegenerateVarianceError,
    TradeoffConfig,
    bandwidth,
    build_tradeoff_curve,
    calibrate_mu,
    dm_test_bt,
    dm_test_bt_fb,
    dm_test_ewc_fb,
    dm_test_im,
    dm_test_m,
    dm_test_r,
    dm_test_wpe_fb,
    fixed_b_critical_value,
    im_partition,
    load_csv,
    loss_series,
    lrv_bartlett,
    lrv_ewc,
    lrv_rectangular,
    lrv_wpe,
    mc,
)

from reference import (
    naive_lrv_bartlett,
    naive_lrv_ewc,
    naive_lrv_rectangular,
    naive_lrv_wpe,
)

N_REPS = 5000
SEED = 0


# ---------------------------------------------------------------------------
# expensive shared fixtures


@pytest.fixture(scope="module")
def ucr_size_result():
    """Null rejection rates on the diagonal R = R~ at P = 75, h in {1, 12}."""
    specs = [
        mc.DgpSpec("ucr", h, R, R, 75) for h in (1, 12) for R in mc.DEFAULT_R_SET
    ]
    return mc.run_experiment(
        specs, methods=("dm_r", "dm_fb", "dm_nw_l"), n_reps=N_REPS, seed=SEED
    )


@pytest.fixture(scope="module")
def cr_size_result():
    """Null rejection rates on the diagonal at P = 1000, h = 3, block test."""
    specs = [mc.DgpSpec("cr", 3, R, R, 1000) for R in mc.DEFAULT_R_SET]
    return mc.run_experiment(specs, methods=("dm_im_q5",), n_reps=N_REPS, seed=SEED)


@pytest.fixture(scope="module")
def power_result():
    """Alternatives R > R~ = 25 at P = 1000, h = 1, plus their size diagonals."""
    pairs = ((75, 25), (125, 25), (175, 25), (75, 75), (125, 125), (175, 175))
    specs = [mc.DgpSpec("ucr", 1, R, Rt, 1000) for R, Rt in pairs]
    return mc.run_experiment(
        specs, methods=("dm_fb", "dm_nw_l"), n_reps=N_REPS, seed=SEED
    )


def _rgdp_series(path, window, na_policy):
    """Squared-error loss differential of the no-change vs. survey forecasts."""
    dataset = load_csv(
        path,
        forecast_cols=("NCfor_Step1", "SPFfor_Step1"),
        realization_col="Realiz1",
        na_policy=na_policy,
        date_col="X1",
        date_range=window,
    )
    return loss_series(dataset, loss="squared")


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_bandwidth_rules():
    expected = {
        ("llsw", 40): 9,
        ("ci_baseline", 40): 6,
        ("wpe_default", 40): 3,
        ("ewc_default", 40): 4,
        ("nw1994", 100): 4,
    }
    for (rule, P), want in expected.items():
        got = bandwidth(rule, P)
        assert got == want, f"{rule}({P}) = {got}, want {want}"
    print("CRITERION 1: PASS — all five automatic bandwidth rules exact")


def test_criterion_02_fixed_b_polynomial():
    assert fixed_b_critical_value(0.0) == 1.9600
    at_example = fixed_b_critical_value(0.225)
    assert abs(at_example - 2.64311) <= 1e-5
    print(
        f"CRITERION 2: PASS — cv(0) = 1.96 exactly, cv(0.225) = {at_example:.7f} "
        f"within 1e-5 of 2.64311"
    )


def test_criterion_03_small_sample_identity():
    rng = np.random.default_rng(20260301)
    n_degenerate = 0
    worst = 0.0
    for _ in range(1000):
        P = int(rng.integers(10, 201))
        h = int(rng.integers(1, 5))
        d = rng.standard_normal(P)
        try:
            base = dm_test_r(d, h=h)
        except DegenerateVarianceError:
            # both procedures share the rectangular variance estimate, so
            # they must fail on exactly the same series
            n_degenerate += 1
            with pytest.raises(DegenerateVarianceError):
                dm_test_m(d, h=h)
            continue
        adjusted = dm_test_m(d, h=h)
        factor = math.sqrt((P + 1 - 2 * h + h * (h - 1) / P) / P)
        worst = max(worst, abs(adjusted.stat - factor * base.stat))
    assert worst <= 1e-12
    print(
        f"CRITERION 3: PASS — worst |adjusted - factor * base| = {worst:.2e} over "
        f"1000 series ({n_degenerate} degenerate pairs agreed)"
    )


def test_criterion_04_lrv_oracles():
    rng = np.random.default_rng(4040)
    worst = 0.0

    def check(got, want):
        nonlocal worst
        err = abs(got - want) / abs(want)
        worst = max(worst, err)
        assert err <= 1e-10

    for _ in range(100):
        P = int(rng.integers(10, 120))
        d = rng.standard_normal(P)
        h = int(rng.integers(1, 6))
        check(lrv_rectangular(d, h).value, naive_lrv_rectangular(d, h))
        M = int(rng.integers(1, P))
        # the library floors negative Bartlett sums at zero
        check(lrv_bartlett(d, M).value, max(naive_lrv_bartlett(d, M), 0.0))
        B = int(rng.integers(1, P))
        check(lrv_ewc(d, B).value, naive_lrv_ewc(d, B))
        m = int(rng.integers(1, P // 2 + 1))
        check(lrv_wpe(d, m).value, naive_lrv_wpe(d, m))
    print(f"CRITERION 4: PASS — worst relative error {worst:.2e} across 400 estimates")


def test_criterion_05_invariances():
    rng = np.random.default_rng(5150)
    procedures = [
        lambda d, h: dm_test_r(d, h=h),
        lambda d, h: dm_test_m(d, h=h),
        lambda d, h: dm_test_bt(d),
        lambda d, h: dm_test_bt_fb(d),
        lambda d, h: dm_test_ewc_fb(d),
        lambda d, h: dm_test_wpe_fb(d),
        lambda d, h: dm_test_im(d, q=4),
    ]
    n_stats = 0
    for P in (20, 40, 75, 150):
        for h in (1, 2, 4):
            d = rng.standard_normal(P) + 0.2
            for proc in procedures:
                s0 = proc(d, h).stat
                tol = 1e-10 * max(1.0, abs(s0))
                for c in (0.1, 3.7, 2500.0):
                    assert abs(proc(c * d, h).stat - s0) <= tol
                assert abs(proc(-d, h).stat + s0) <= tol
                n_stats += 1
            B = bandwidth("ewc_default", P)
            m = bandwidth("wpe_default", P)
            for shift in (7.5, -40.0):
                assert abs(
                    lrv_ewc(d + shift, B).value - lrv_ewc(d, B).value
                ) <= 1e-10 * lrv_ewc(d, B).value
                assert abs(
                    lrv_wpe(d + shift, m).value - lrv_wpe(d, m).value
                ) <= 1e-10 * lrv_wpe(d, m).value
            assert lrv_bartlett(d, bandwidth("llsw", P)).value >= 0.0
            assert lrv_ewc(d, B).value >= 0.0
            assert lrv_wpe(d, m).value >= 0.0
    # alternating series drives the Bartlett sum negative; the floor must hold
    assert lrv_bartlett(np.tile([1.0, -1.0], 40), 2).value >= 0.0
    print(
        f"CRITERION 5: PASS — scale and sign invariance of {n_stats} statistics, "
        f"level-shift invariance and nonnegativity of the smoothed estimators"
    )


# reference values for the no-change vs. survey comparison, 2 d.p.
RUNNING_EXAMPLE = [
    ("dm_r h=1", lambda d: dm_test_r(d, h=1), 2.79, True),
    ("dm_m h=1", lambda d: dm_test_m(d, h=1), 2.76, True),
    ("dm_nw", lambda d: dm_test_bt(d), 2.24, True),
    ("dm_fb", lambda d: dm_test_bt_fb(d), 2.26, False),
    ("dm_ewc", lambda d: dm_test_ewc_fb(d), 1.83, False),
    ("dm_wpe", lambda d: dm_test_wpe_fb(d), 1.98, False),
    ("dm_im q=5", lambda d: dm_test_im(d, q=5), 2.15, False),
]


def test_criterion_06_running_example(rgdp_path):
    d = _rgdp_series(rgdp_path, ("2007:01", "2016:04"), "drop")
    assert d.size == 40
    for name, proc, want, want_rej in RUNNING_EXAMPLE:
        out = proc(d)
        assert round(out.stat, 2) == want, f"{name}: stat {out.stat:.4f}, want {want}"
        assert out.rej == want_rej, f"{name}: rej = {out.rej}, want {want_rej}"
    # full-sample row under the zero-fill convention
    d_full = _rgdp_series(rgdp_path, ("1987:01", "2016:04"), "zero")
    assert d_full.size == 120
    trio = (
        round(dm_test_r(d_full, h=1).stat, 2),
        round(dm_test_bt_fb(d_full, M=10).stat, 2),
        round(dm_test_wpe_fb(d_full, m=4).stat, 2),
    )
    assert trio == (4.85, 4.47, 5.21), trio
    print(
        "CRITERION 6: PASS — seven statistics with their decisions and the "
        "three full-sample statistics reproduced at 2 d.p."
    )


def test_criterion_07_monte_carlo_size(ucr_size_result, cr_size_result):
    def diagonal_average(result, method, family, h, P):
        rates = [
            result.rejection_rates[(method, family, R, R, h, P)]
            for R in mc.DEFAULT_R_SET
        ]
        return float(np.mean(rates))

    checks = [
        ("dm_r h=12 P=75", diagonal_average(ucr_size_result, "dm_r", "ucr", 12, 75), 0.160, 0.02),
        ("dm_fb h=12 P=75", diagonal_average(ucr_size_result, "dm_fb", "ucr", 12, 75), 0.052, 0.015),
        ("dm_nw_l h=1 P=75", diagonal_average(ucr_size_result, "dm_nw_l", "ucr", 1, 75), 0.099, 0.02),
        ("dm_im_q5 h=3 P=1000", diagonal_average(cr_size_result, "dm_im_q5", "cr", 3, 1000), 0.093, 0.02),
    ]
    for name, got, center, tol in checks:
        assert abs(got - center) <= tol, f"{name}: {got:.4f} outside {center} ± {tol}"
    summary = ", ".join(f"{name} = {got:.4f}" for name, got, _, _ in checks)
    print(f"CRITERION 7: PASS — diagonal-average sizes {summary}")


def test_criterion_08_size_corrected_power(power_result):
    # the same llsw-bandwidth Bartlett statistic underlies both procedures,
    # so size correction must erase their critical-value difference entirely
    for key, archive in power_result.archives.items():
        if key[0] == "dm_fb":
            assert np.array_equal(archive, power_result.archives[("dm_nw_l",) + key[1:]])
    cells = [(R, 25, 1, 1000) for R in (75, 125, 175)]
    fb = [mc.size_corrected_power(power_result, cell, "dm_fb") for cell in cells]
    nwl = [mc.size_corrected_power(power_result, cell, "dm_nw_l") for cell in cells]
    assert fb == nwl
    average = float(np.mean(fb))
    assert abs(average - 0.806) <= 0.03, average
    for R in (75, 125, 175):
        on_diagonal = mc.size_corrected_power(power_result, (R, R, 1, 1000), "dm_fb")
        assert abs(on_diagonal - 0.05) <= 1.0 / N_REPS
    print(
        f"CRITERION 8: PASS — corrected-power maps bit-identical; average over "
        f"R in {{75, 125, 175}} = {average:.4f}; diagonals within 1/{N_REPS} of 0.05"
    )


def test_criterion_09_calibration():
    assert calibrate_mu(1, 25) == 0.2
    mu3 = calibrate_mu(3, 25)
    assert abs(mu3 - 0.34482) <= 1e-5
    ratios = []
    for h, R in ((1, 25), (3, 25)):
        spec = mc.DgpSpec("ucr", h, R, R, 1_000_000)
        target, f1, f2 = mc.simulate(spec, np.random.default_rng(20260816))
        d = (target - f1) ** 2 - (target - f2) ** 2
        # overlapping forecast windows make d serially dependent, so the
        # standard error comes from means of 1000 long blocks
        block_means = d.reshape(1000, 1000).mean(axis=1)
        se = block_means.std(ddof=1) / math.sqrt(1000)
        assert abs(d.mean()) <= 3.0 * se, (h, R, d.mean(), se)
        ratios.append(abs(d.mean()) / se)
    print(
        f"CRITERION 9: PASS — mu(1,25) = 0.2 exactly, mu(3,25) = {mu3:.6f}; "
        f"million-draw loss gaps at {ratios[0]:.2f} and {ratios[1]:.2f} standard errors"
    )


def test_criterion_10_null_exactness():
    notes = []
    for family, h, R in (("ucr", 2, 75), ("cr", 3, 75)):
        spec = mc.DgpSpec(family, h, R, R, 1_000_000)
        target, f1, f2 = mc.simulate(spec, np.random.default_rng(20260817))
        d = (target - f1) ** 2 - (target - f2) ** 2
        block_means = d.reshape(1000, 1000).mean(axis=1)
        se = block_means.std(ddof=1) / math.sqrt(1000)
        assert abs(d.mean()) <= 3.0 * se, (family, d.mean(), se)
        notes.append(f"{family} at {abs(d.mean()) / se:.2f} SE")
    print(f"CRITERION 10: PASS — matched-window mean loss differentials: {', '.join(notes)}")


def test_criterion_11_tradeoff_pattern(rgdp_optional):
    d = np.random.default_rng(11).standard_normal(60) + 0.3
    curve = build_tradeoff_curve(d, TradeoffConfig(n_sim=N_REPS, seed=0))
    assert [p.M for p in curve] == list(range(1, 23))
    for p in curve:
        assert -0.05 <= p.size_distortion <= 0.95
        assert 0.0 <= p.max_power_loss <= 1.0
        assert p.rejected == dm_test_bt_fb(d, M=p.M).rej
    assert curve == build_tradeoff_curve(d, TradeoffConfig(n_sim=N_REPS, seed=0))
    reseeded = build_tradeoff_curve(d, TradeoffConfig(n_sim=N_REPS, seed=1))
    # two independent seeds differ by at most 4 standard errors of a
    # difference of simulated rates: 4 * sqrt(2) * sqrt(0.25 / n_sim)
    budget = 4.0 * math.sqrt(2.0 * 0.25 / N_REPS)
    for p, q in zip(curve, reseeded):
        assert abs(p.size_distortion - q.size_distortion) <= budget
        assert abs(p.max_power_loss - q.max_power_loss) <= budget
    if rgdp_optional is None:
        note = "real-data half skipped (quarterly real-GDP file not present)"
    else:
        observed = _rgdp_series(rgdp_optional, ("2007:01", "2016:04"), "drop")
        obs_curve = build_tradeoff_curve(observed, TradeoffConfig(n_sim=N_REPS, seed=0))
        rejected_at = {p.M for p in obs_curve if p.rejected}
        assert rejected_at == {1, 2, 3}, rejected_at
        note = "observed-data rejections exactly at M in {1, 2, 3}"
    print(
        f"CRITERION 11: PASS — flags match the fixed-b test at every bandwidth; "
        f"curves deterministic, reseeded drift within {budget:.4f}; {note}"
    )


def test_criterion_12_block_test_exactness():
    assert im_partition(10, 3).block_sizes == (4, 3, 3)
    rng = np.random.default_rng(12)
    hits = sum(dm_test_im(rng.standard_normal(100), q=5).rej for _ in range(10_000))
    rate = hits / 10_000
    assert abs(rate - 0.05) <= 0.01
    print(
        f"CRITERION 12: PASS — iid Gaussian size {rate:.4f} at q=5 over 10000 "
        f"replications; partition(10, 3) = (4, 3, 3)"
    )
