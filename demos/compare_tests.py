"""Run every test procedure on one rolling-forecast comparison.

A calibrated no-change benchmark meets a rolling-mean forecast whose
window is five times longer than the one the benchmark was calibrated
against, so the rolling forecast holds a real but modest edge. At an
eight-step horizon the loss differential is strongly autocorrelated,
and with n = 120 the procedures genuinely disagree: the verdict depends
on how each one absorbs the dependence.
"""

import numpy as np

from epatest import (
    dm_test_bt,
    dm_test_bt_fb,
    dm_test_ewc_fb,
    dm_test_im,
    dm_test_m,
    dm_test_r,
    dm_test_wpe_fb,
    loss_differential,
    mc,
)

H = 8


def main():
    spec = mc.DgpSpec("ucr", h=H, R=25, R_tilde=125, P=120)
    target, f1, f2 = mc.simulate(spec, np.random.default_rng(27))
    d = loss_differential(target - f1, target - f2, loss="squared")
    print(f"loss differential: n = {d.size}, mean = {d.mean():+.4f}, "
          f"lag-1 autocorr = {np.corrcoef(d[:-1], d[1:])[0, 1]:+.3f}")
    print()

    outcomes = [
        dm_test_r(d, h=H),
        dm_test_m(d, h=H),
        dm_test_bt(d),
        dm_test_bt_fb(d),
        dm_test_ewc_fb(d),
        dm_test_wpe_fb(d),
        dm_test_im(d, q=5),
    ]
    print(f"{'method':<8} {'stat':>7} {'crit':>6} {'bw':>3}  decision")
    for o in outcomes:
        verdict = "reject equal accuracy" if o.rej else "no rejection"
        print(f"{o.method:<8} {o.stat:+7.3f} {o.critical_value:6.3f} "
              f"{o.bandwidth:>3}  {verdict}")
    print()
    print("dm_r and dm_fb land on nearly the same statistic, but the fixed-b")
    print("critical value prices in the variance estimation and withholds the")
    print("rejection; dm_nw instead loses it through a shorter bandwidth that")
    print("absorbs more dependence into the variance. With this much")
    print("autocorrelation in d, n = 120 is simply not a comfortable sample.")


if __name__ == "__main__":
    main()
