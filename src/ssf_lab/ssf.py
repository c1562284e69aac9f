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
* 2 pi h * mollified density diff      ->  gamma0(tau)  (derivative form).

The three h-sweeps below (``weak_check``, ``weyl_check``,
``derivative_check``) take a dict from h to ``SpectralPair`` and end in the
quantization module's ``SweepReport``: comparison verdicts on the last
relative error and the fitted order of the residuals.  The Weyl-type and
derivative sweeps gate themselves on the certificates produced by the
microhyperbolicity module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import TestFunction
from .quantization import (
    CertificateError,
    Grid1D,
    SweepReport,
    WindowTheta,
    build_schrodinger,
    fourier_window,
    potential_samples,
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
    "ssf_counting",
    "ssf_mollified",
    "mollified_density_pairing",
    "weak_check",
    "weyl_check",
    "derivative_check",
]


class MarginError(ValueError):
    """Potential has not decayed to its limit inside the box margin."""


class WindowRangeError(ValueError):
    """Test function support exceeds the reliable energy window."""


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


def build_pair(v: MatrixPotential, grid: Grid1D) -> SpectralPair:
    """Solve P1 for its values and read P0's analytic constant-potential
    spectrum; no dense matrix outlives the call.  The values solve runs in
    place on P1's matrix, so the call's peak is that one matrix and a
    workspace of a few vectors.  MarginError when |V - V_inf| exceeds 1e-10
    within 1 of the box edge.

    If the hermitian parts of the V samples equal the limit bitwise at every
    node, ``lam0`` *is* ``lam1`` (shared object) so every difference-based
    estimator vanishes exactly.
    """
    seam = np.linspace(grid.R - 1.0, grid.R, 9)
    worst = 0.0
    for x in np.concatenate([-seam, seam]):
        worst = max(worst, float(np.max(np.abs(np.asarray(v.eval(float(x))) - v.v_infinity))))
    if worst > 1e-10:
        raise MarginError(f"|V - V_inf| = {worst:.2e} at the box edge exceeds 1e-10; enlarge R")
    lam1 = build_schrodinger(v, grid).eigenvalues()
    samples = potential_samples(v, grid)
    free = model_potential("constant", v_inf=np.diag(v.v_infinity).real, N=v.N)
    if np.array_equal(samples, np.broadcast_to(free.eval(0.0), samples.shape)):
        return SpectralPair(grid, lam1, lam1)
    return SpectralPair(grid, lam1, build_schrodinger(free, grid).eigenvalues())


def _check_window(pair: SpectralPair, top: float, what: str = "support") -> None:
    """WindowRangeError when ``top``, the top of an f's support or of a tau
    grid, lies above the energies the pair's grid resolves."""
    tau_max = pair.grid.tau_max
    if tau_max is None:
        tau_max = pair.grid.reliable_tau_max()
    if top > tau_max + 1e-12:
        raise WindowRangeError(f"{what} up to {top} exceeds the reliable window {tau_max}")


def weak_pairing(pair: SpectralPair, f: TestFunction) -> float:
    """-[sum_j f(lambda_j^1) - sum_j f(lambda_j^0)] over the full spectra."""
    _check_window(pair, f.support[1])
    s1 = float(np.sum(f(pair.lam1)))
    s0 = float(np.sum(f(pair.lam0)))
    return -(s1 - s0)


def ssf_counting(pair: SpectralPair, tau) -> int | np.ndarray:
    """Counting difference N1(tau) - N0(tau); ties count by multiplicity."""
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    n1 = np.searchsorted(pair.lam1, taus, side="right")
    n0 = np.searchsorted(pair.lam0, taus, side="right")
    out = (n1 - n0).astype(int)
    return int(out[0]) if np.ndim(tau) == 0 else out


def ssf_mollified(pair: SpectralPair, w: WindowTheta, eps: float | None, tau):
    """Mollified counting difference: each eigenvalue contributes a smoothed
    step (the primitive of the window kernel) instead of a unit jump.
    WindowRangeError for a tau above the pair's reliable window."""
    if not w.is_even:
        raise ValueError("mollified counting uses the even window")
    if eps is not None:
        w = w.with_eps(eps)
    lam1, lam0 = pair.lam1, pair.lam0
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    _check_window(pair, float(np.max(taus)), "tau")
    h = pair.h
    up = window_primitive(w, h, taus[:, None] - lam1[None, :]).sum(axis=1)
    dn = window_primitive(w, h, taus[:, None] - lam0[None, :]).sum(axis=1)
    out = up - dn
    return float(out[0]) if np.ndim(tau) == 0 else out


def _descending(pairs: dict) -> np.ndarray:
    return np.asarray(sorted(pairs.keys(), reverse=True), dtype=float)


def weak_check(
    pairs: dict[float, SpectralPair],
    f: TestFunction,
    c0_reference: float,
    order_threshold: float = 1.5,
    rel_threshold: float = 0.03,
) -> SweepReport:
    """2 pi h * weak pairing against the closed-form c0(f), with the fitted
    order of the residual; residuals all below 1e-12 count as exact.

    ``pairs`` maps h to a SpectralPair.  The weak asymptotics need no
    certificate.
    """
    hs = _descending(pairs)
    values = [2.0 * math.pi * h * weak_pairing(pairs[h], f) for h in hs]
    return sweep_verdict(hs, values, order_threshold, rel_threshold,
                         reference=c0_reference, floor=1e-12)


def weyl_check(
    pairs: dict[float, SpectralPair],
    taus,
    a0_reference,
    w: WindowTheta,
    certificate,
    order_threshold: float = 0.7,
    rel_threshold: float = 0.05,
) -> SweepReport:
    """sup-tau error of 2 pi h * mollified counting against the closed-form
    leading coefficient a0 on ``taus``, with the fitted order of the remainder.

    ``pairs`` maps h to a SpectralPair.  The report's values are the sup
    errors, its reference is max |a0| and its relative errors are the sup of
    the pointwise ones.  Requires a valid shell or escape certificate for
    the window.
    """
    if certificate is None or not getattr(certificate, "valid", False):
        raise CertificateError("weyl check requires a valid certificate for the window")
    taus = np.asarray(taus, dtype=float)
    ref = np.asarray(a0_reference, dtype=float)
    hs = _descending(pairs)
    sup_err = []
    sup_rel = []
    for h in hs:
        vals = 2.0 * math.pi * h * np.asarray(ssf_mollified(pairs[h], w, None, taus))
        err = np.abs(vals - ref)
        sup_err.append(float(np.max(err)))
        sup_rel.append(float(np.max(err / np.abs(ref))))
    return sweep_verdict(hs, sup_err, order_threshold, rel_threshold,
                         reference=float(np.max(np.abs(ref))), errors=sup_err,
                         rel_errors=sup_rel)


def mollified_density_pairing(pair: SpectralPair, f: TestFunction, w: WindowTheta,
                              tau) -> float:
    """sum_j f(l_j^1) K(tau - l_j^1) - sum_j f(l_j^0) K(tau - l_j^0).
    WindowRangeError when supp f reaches above the pair's reliable window."""
    _check_window(pair, f.support[1])
    lam1, lam0 = pair.lam1, pair.lam0
    h = pair.h
    up = float(np.sum(f(lam1) * np.real(fourier_window(w, h, tau - lam1))))
    dn = float(np.sum(f(lam0) * np.real(fourier_window(w, h, tau - lam0))))
    return up - dn


def derivative_check(
    pairs: dict[float, SpectralPair],
    tau0: float,
    f: TestFunction,
    w: WindowTheta,
    gamma0_reference: float,
    certificate,
    order_threshold: float = 1.5,
    rel_threshold: float = 0.05,
) -> SweepReport:
    """Fixed-eps mollified density difference at tau0 against the closed-form
    density coefficient; the residual should carry the even-power signature.

    Gated by an escape certificate (the hypothesis of the pointwise
    expansion); ``f`` should be 1 near tau0.
    """
    if certificate is None or not getattr(certificate, "valid", False):
        raise CertificateError("derivative check requires a valid escape certificate")
    if not w.is_even:
        raise ValueError("derivative check uses the even window")
    hs = _descending(pairs)
    values = [2.0 * math.pi * h * mollified_density_pairing(pairs[h], f, w, tau0) for h in hs]
    return sweep_verdict(hs, values, order_threshold, rel_threshold,
                         reference=float(gamma0_reference))
