#!/usr/bin/env python3
"""Shift-function sweeps for the reference potential.

Builds the spectral family once (one dense eigensolve per h) and runs the
weak, integrated, and derivative comparisons against the closed-form
coefficients, printing one table per check.  The h = 1/128 solve takes about
half a minute.
"""
import argparse
import math
import time

import numpy as np

import ssf_lab as sl
from ssf_lab.quantization import Grid1D, WindowTheta, required_points
from ssf_lab.ssf import build_pair, derivative_check, weak_pairing, weyl_check


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--hmin", type=float, default=1 / 128,
                    help="smallest h of the dyadic sweep starting at 1/16")
    args = ap.parse_args()

    v = sl.reference_potential()
    cert = sl.escape_check_dilation(v, 2.0)
    print(f"escape certificate at tau0=2: valid={cert.valid} "
          f"C={cert.C:.4f} threshold_bound={cert.threshold_bound:.4f}")

    hs = []
    h = 1 / 16
    while h >= args.hmin * (1 - 1e-12):
        hs.append(h)
        h /= 2

    pairs = {}
    for h in hs:
        t0 = time.time()
        grid = Grid1D(R=12.0, M=required_points(12.0, h, 3.24), h=h, tau_max=3.24)
        pairs[h] = build_pair(v, grid)
        pairs[h].P1.eigenvalues()
        print(f"built pair at h=1/{round(1/h)} (M={grid.M}) in {time.time()-t0:.1f}s")

    f_bump = sl.bump_test_function((1.8, 2.2))
    c0_ref = sl.c0(v, f_bump)
    print(f"\nweak pairing vs c0 = {c0_ref:.8f}")
    errs = []
    for h in hs:
        val = 2 * math.pi * h * weak_pairing(pairs[h], f_bump)
        errs.append((h, abs(val - c0_ref)))
        print(f"  h=1/{round(1/h):4d}  2*pi*h*pairing = {val:+.8f}  "
              f"rel err = {abs(val-c0_ref)/abs(c0_ref):.3%}")
    print(f"  fitted order: {sl.fit_order(errs).slope:.2f}")

    taus = np.linspace(1.8, 2.2, 41)
    a0_ref = sl.a0(v, taus)
    rep = weyl_check(pairs, taus, a0_ref, WindowTheta("bump_at_zero", eps=0.25), cert)
    print(f"\nintegrated (Weyl-type) check over tau in [1.8, 2.2]: {rep.verdict}")
    for h, e, r in zip(rep.hs, rep.sup_errors, rep.sup_rel_errors):
        print(f"  h=1/{round(1/h):4d}  sup err = {e:.3e}  sup rel = {r:.3%}")
    print(f"  fitted remainder order: {rep.fitted_order:.2f}")

    f_plat = sl.plateau_test_function((1.2, 2.8), (1.6, 2.4))
    g0_ref = sl.gamma0(v, 2.0)
    repd = derivative_check(pairs, 2.0, f_plat, WindowTheta("bump_at_zero", eps=0.5),
                            g0_ref, cert)
    print(f"\nderivative check at tau0=2 vs gamma0 = {g0_ref:.8f}: {repd.verdict}")
    for h, val, r in zip(repd.hs, repd.values, repd.rel_errors):
        print(f"  h=1/{round(1/h):4d}  value = {val:+.8f}  rel err = {r:.3%}")
    print(f"  residual order: {repd.residual_order:.2f}")


if __name__ == "__main__":
    main()
