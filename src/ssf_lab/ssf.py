"""Spectral-shift estimators for a perturbed/free operator pair on one grid.

The perturbed operator carries the potential V, the free one its constant
limit; both share the grid so boundary and discretization effects cancel in
differences.  Every estimator reads only the two spectra, so ``build_pair``
solves P1 once, reads P0's analytic spectrum and returns a ``SpectralPair``
of sorted eigenvalues; the operators and their dense matrices do not outlive
it.  The finite-box surrogate for the shift function is the counting
difference

    s_h(tau) ~ N1(tau) - N0(tau),

whose mollified version and whose pairings against test functions reproduce
the leading coefficients of the coefficients module:

* 2 pi h * (-tr(f(P1) - f(P0)))        ->  c0(f)        (weak pairing),
* 2 pi h * mollified counting diff     ->  a0(tau)      (integrated form),
* 2 pi h * mollified density diff      ->  f(tau) gamma0(tau)  (derivative form).

The three h-sweeps below (``weak_check``, ``weyl_check``,
``derivative_check``) take a list of ``SpectralPair`` in sweep order, h
decreasing, and the leading term ``reference``, and end in a comparison
``SweepReport``.  They are the numerics alone: the harness makes each
reference (``_REFERENCES``) and decides, from the escape certificate,
whether the Weyl-type and derivative verdicts are issued at all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import TestFunction
from .quantization import (
    Grid1D,
    SweepReport,
    WindowRangeError,
    WindowTheta,
    _check_window,
    _relative_errors,
    build_schrodinger,
    fourier_window,
    sweep_verdict,
    window_primitive,
)
from .symbols import MatrixPotential, model_potential

__all__ = [
    "MarginError",
    "WindowRangeError",
    "SpectralPair",
    "build_pair",
    "weak_pairing",
    "ssf_mollified",
    "mollified_density_pairing",
    "weak_check",
    "weyl_check",
    "derivative_check",
]


class MarginError(ValueError):
    """Potential has not decayed to its limit inside the box margin."""


@dataclass(frozen=True)
class SpectralPair:
    """Sorted spectra of the perturbed (``lam1``) and free (``lam0``)
    operators on one grid."""

    grid: Grid1D
    lam1: np.ndarray
    lam0: np.ndarray

    @property
    def h(self) -> float:
        return self.grid.h


def _check_edge(v: MatrixPotential, R: float) -> None:
    """MarginError when |V - V_inf| exceeds 1e-10 on 9 points within 1 of
    each edge of the box [-R, R] (one ``v.on`` call)."""
    seam = np.linspace(R - 1.0, R, 9)
    worst = float(np.max(np.abs(v.on(np.concatenate([-seam, seam])) - v.v_infinity)))
    if worst > 1e-10:
        raise MarginError(f"|V - V_inf| = {worst:.2e} at the box edge exceeds 1e-10; enlarge R")


def build_pair(v: MatrixPotential, grid: Grid1D) -> SpectralPair:
    """Solve P1 for its values and read P0's analytic constant-potential
    spectrum; no dense matrix outlives the call.  The values solve runs in
    place on P1's matrix, so the call's peak is that one matrix and a
    workspace of a few vectors.  MarginError when the potential has not
    reached its limit at the box edge (``_check_edge``).

    If the two spectra are equal bitwise, as they are when the hermitian
    parts of the V samples equal the limit at every node, ``lam0`` *is*
    ``lam1`` (shared object), so every difference-based estimator vanishes
    exactly.
    """
    _check_edge(v, grid.R)
    p1 = build_schrodinger(v, grid)
    lam1 = p1.eigenvalues()
    free = model_potential("constant", v_inf=np.diag(v.v_infinity).real, N=v.N)
    lam0 = build_schrodinger(free, grid).eigenvalues()
    return SpectralPair(grid, lam1, lam1 if np.array_equal(lam1, lam0) else lam0)


def weak_pairing(pair: SpectralPair, f: TestFunction) -> float:
    """-[sum_j f(lambda_j^1) - sum_j f(lambda_j^0)] over the full spectra."""
    _check_window(pair.grid, f.support[1])
    s1 = float(np.sum(f(pair.lam1)))
    s0 = float(np.sum(f(pair.lam0)))
    return -(s1 - s0)


def ssf_mollified(pair: SpectralPair, w: WindowTheta, tau):
    """Mollified counting difference: each eigenvalue contributes a smoothed
    step (the primitive of the window kernel) instead of a unit jump.
    WindowRangeError for a tau above the pair's reliable window."""
    if not w.is_even:
        raise ValueError("mollified counting uses the even window")
    lam1, lam0 = pair.lam1, pair.lam0
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    _check_window(pair.grid, float(np.max(taus)), "tau")
    h = pair.h
    up = window_primitive(w, h, taus[:, None] - lam1[None, :]).sum(axis=1)
    dn = window_primitive(w, h, taus[:, None] - lam0[None, :]).sum(axis=1)
    out = up - dn
    return float(out[0]) if np.ndim(tau) == 0 else out


def weak_check(
    pairs: list[SpectralPair],
    f: TestFunction,
    reference: float,
    *,
    order_threshold: float = 1.5,
    rel_threshold: float = 0.03,
) -> SweepReport:
    """2 pi h * weak pairing against ``reference``, the closed-form c0(f),
    with the fitted order of the residual; the weak asymptotics need no
    certificate."""
    values = [2.0 * math.pi * pair.h * weak_pairing(pair, f) for pair in pairs]
    return sweep_verdict([pair.h for pair in pairs], values, order_threshold, rel_threshold,
                         reference=reference)


def weyl_check(
    pairs: list[SpectralPair],
    taus,
    reference,
    w: WindowTheta,
    *,
    order_threshold: float = 0.7,
    rel_threshold: float = 0.05,
) -> SweepReport:
    """sup-tau error of 2 pi h * mollified counting against ``reference``, the
    closed-form a0 on ``taus``, with the fitted order of the remainder.

    The report's values are the sup errors, its reference is max |a0| and
    its relative errors are the sup of the pointwise ones.  The expansion
    holds under a shell or escape hypothesis for the window.
    """
    taus = np.asarray(taus, dtype=float)
    ref = np.asarray(reference, dtype=float)
    sup_err = []
    sup_rel = []
    for pair in pairs:
        vals = 2.0 * math.pi * pair.h * np.asarray(ssf_mollified(pair, w, taus))
        err = np.abs(vals - ref)
        sup_err.append(float(np.max(err)))
        sup_rel.append(float(np.max(_relative_errors(err, ref))))
    return sweep_verdict([pair.h for pair in pairs], sup_err, order_threshold, rel_threshold,
                         reference=float(np.max(np.abs(ref))), rel_errors=sup_rel)


def mollified_density_pairing(pair: SpectralPair, f: TestFunction, w: WindowTheta,
                              tau) -> float:
    """sum_j f(l_j^1) K(tau - l_j^1) - sum_j f(l_j^0) K(tau - l_j^0).
    WindowRangeError when supp f reaches above the pair's reliable window."""
    _check_window(pair.grid, f.support[1])
    lam1, lam0 = pair.lam1, pair.lam0
    h = pair.h
    up = float(np.sum(f(lam1) * np.real(fourier_window(w, h, tau - lam1))))
    dn = float(np.sum(f(lam0) * np.real(fourier_window(w, h, tau - lam0))))
    return up - dn


def derivative_check(
    pairs: list[SpectralPair],
    tau0: float,
    f: TestFunction,
    w: WindowTheta,
    reference: float,
    *,
    order_threshold: float = 1.5,
    rel_threshold: float = 0.05,
) -> SweepReport:
    """Fixed-eps mollified density difference at tau0 against ``reference``,
    its limit f(tau0) * gamma0(tau0); the residual should carry the
    even-power signature.  The pointwise expansion holds under the escape
    hypothesis.
    """
    if not w.is_even:
        raise ValueError("derivative check uses the even window")
    values = [2.0 * math.pi * pair.h * mollified_density_pairing(pair, f, w, tau0)
              for pair in pairs]
    return sweep_verdict([pair.h for pair in pairs], values, order_threshold, rel_threshold,
                         reference=float(reference))
