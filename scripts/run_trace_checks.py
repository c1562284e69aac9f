#!/usr/bin/env python3
"""Trace-formula sweeps: negligibility, locality, and the leading term.

Scalar free control plus the conical-crossing symbol; each check prints its
h-ladder and the fitted slope or relative error.  The checks are the numerics
alone: the shell certificates are printed beside them, and only the harness
withholds a verdict when one is not valid.
"""
import numpy as np

import ssf_lab as sl
from ssf_lab.bumps import Bump1D, ProductCutoff
from ssf_lab.quantization import (WindowTheta, grid_for, theorem1_check, theorem2_check,
                                  theorem3_check)
from ssf_lab.symbols import schrodinger_symbol

CHI = ProductCutoff(g=Bump1D(0, 2.0), k=Bump1D(0, 2.0))


def grids(hs, R, tau_max):
    return [grid_for(h, R, tau_max, 8192) for h in hs]


def show(name, rep):
    print(f"\n{name}: {rep.verdict}")
    for row in rep.rows():
        print("  " + "  ".join(f"{k}={row[k]:.4g}" for k in ("h", "value", "rel_error")))


def main():
    v0 = sl.model_potential("constant", v_inf=0.0, N=1)
    cert = sl.check_on_energy_shell(schrodinger_symbol(v0), 1.0,
                                    ((-2.5, 2.5), (-2.0, 2.0)), grid_points=41)
    print(f"free shell certificate: valid={cert.valid} C0={cert.C0:.3f}")

    hs5 = [1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256]
    f_wide = sl.bump_test_function((0.3, 1.7))
    rep1 = theorem1_check(v0, CHI, f_wide, 1.0, grids(hs5, 6.0, 2.56),
                          WindowTheta("bump_positive", eps=1.0))
    print(f"\nnegligibility (one-sided window): {rep1.verdict}, slope {rep1.slope:.2f}")
    for h, val in zip(rep1.hs, rep1.values):
        print(f"  h=1/{round(1/h):4d}  |trace| = {val:.3e}")

    far = sl.model_potential("diagonal_bumps", depths=[0.5], centers=[7.0], widths=[0.4])
    f_loc = sl.bump_test_function((0.8, 1.2))
    rep2 = theorem2_check(v0, far, CHI, f_loc, np.linspace(0.9, 1.1, 9),
                          grids([1 / 16, 1 / 32, 1 / 64, 1 / 128], 12.0, 1.69),
                          WindowTheta("bump_at_zero", eps=0.3))
    print(f"\nlocality (far perturbation): {rep2.verdict}, "
          f"slope {rep2.slope if rep2.slope is not None else 'below floor'}")
    for h, val in zip(rep2.hs, rep2.values):
        print(f"  h=1/{round(1/h):4d}  sup |trace diff| = {val:.3e}")

    f3 = sl.bump_test_function((0.5, 1.5))
    w3 = WindowTheta("bump_at_zero", eps=0.25)
    hs4 = [1 / 16, 1 / 32, 1 / 64, 1 / 128]
    show("leading term, scalar control",
         theorem3_check(v0, CHI, f3, 1.0, grids(hs4, 6.0, 2.0), w3, rel_threshold=0.02))

    vc = sl.model_potential("conical_crossing")
    certc = sl.check_on_energy_shell(schrodinger_symbol(vc), 1.0,
                                     ((-2.5, 2.5), (-2.0, 2.0)), grid_points=41)
    print(f"\ncrossing shell certificate: valid={certc.valid} C0={certc.C0:.3f}")
    show("leading term, crossing symbol",
         theorem3_check(vc, CHI, f3, 1.0, grids(hs4, 6.0, 2.0), w3, rel_threshold=0.05))


if __name__ == "__main__":
    main()
