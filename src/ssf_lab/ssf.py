"""Spectral-shift estimators for a perturbed/free operator pair on one grid.

The perturbed operator carries the potential V, the free one its constant
limit; both share the grid so boundary and discretization effects cancel in
differences.  The finite-box surrogate for the shift function is the
counting difference

    s_h(tau) ~ N1(tau) - N0(tau),

whose mollified version and whose pairings against test functions reproduce
the leading coefficients of the coefficients module:

* 2 pi h * (-tr(f(P1) - f(P0)))        ->  c0(f)        (weak pairing),
* 2 pi h * mollified counting diff     ->  a0(tau)      (integrated form),
* 2 pi h * mollified density diff      ->  gamma0(tau)  (derivative form).

The h-sweeps below fit the order of the residuals and gate themselves on the
certificates produced by the microhyperbolicity module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import TestFunction
from .quantization import (
    CertificateError,
    Grid1D,
    GridOperator,
    WindowTheta,
    build_schrodinger,
    fourier_window,
    loglog_slope,
    potential_samples,
    window_primitive,
)
from .symbols import MatrixPotential, model_potential

__all__ = [
    "MarginError",
    "WindowRangeError",
    "OperatorPair",
    "build_pair",
    "weak_pairing",
    "ssf_counting",
    "ssf_mollified",
    "SSFEstimate",
    "ssf_estimate",
    "WeylReport",
    "weyl_check",
    "DerivativeReport",
    "derivative_check",
]


class MarginError(ValueError):
    """Potential has not decayed to its limit inside the box margin."""


class WindowRangeError(ValueError):
    """Test function support exceeds the reliable energy window."""


@dataclass(frozen=True)
class OperatorPair:
    """Perturbed and free operators sharing one grid."""

    P1: GridOperator
    P0: GridOperator
    potential: MatrixPotential

    @property
    def grid(self) -> Grid1D:
        return self.P1.grid

    @property
    def h(self) -> float:
        return self.grid.h


def build_pair(v: MatrixPotential, grid: Grid1D, margin_tol: float = 1e-10) -> OperatorPair:
    """Assemble (P1, P0); P0 gets the analytic constant-potential spectrum
    and builds its dense matrix only if ``P0.matrix`` is read.

    If the hermitian parts of the V samples equal the limit bitwise at every
    node, P0 *is* P1 (shared object) so every difference-based estimator
    vanishes exactly.
    """
    seam = np.linspace(grid.R - 1.0, grid.R, 9)
    worst = 0.0
    for x in np.concatenate([-seam, seam]):
        worst = max(worst, float(np.max(np.abs(np.asarray(v.eval(float(x))) - v.v_infinity))))
    if worst > margin_tol:
        raise MarginError(
            f"|V - V_inf| = {worst:.2e} at the box edge exceeds {margin_tol:.0e}; enlarge R"
        )
    p1 = build_schrodinger(v, grid)
    samples = potential_samples(v, grid)
    free = model_potential("constant", v_inf=np.diag(v.v_infinity).real, N=v.N)
    if np.array_equal(samples, np.broadcast_to(free.eval(0.0), samples.shape)):
        return OperatorPair(P1=p1, P0=p1, potential=v)
    return OperatorPair(P1=p1, P0=build_schrodinger(free, grid), potential=v)


def _check_window(pair: OperatorPair, f: TestFunction) -> None:
    tau_max = pair.grid.tau_max
    if tau_max is None:
        tau_max = pair.grid.reliable_tau_max()
    if f.support[1] > tau_max + 1e-12:
        raise WindowRangeError(
            f"support up to {f.support[1]} exceeds the reliable window {tau_max}"
        )


def weak_pairing(pair: OperatorPair, f: TestFunction) -> float:
    """-[sum_j f(lambda_j^1) - sum_j f(lambda_j^0)] over the full spectra."""
    _check_window(pair, f)
    s1 = float(np.sum(f(pair.P1.eigenvalues())))
    s0 = float(np.sum(f(pair.P0.eigenvalues())))
    return -(s1 - s0)


def ssf_counting(pair: OperatorPair, tau) -> int | np.ndarray:
    """Counting difference N1(tau) - N0(tau); ties count by multiplicity."""
    lam1 = pair.P1.eigenvalues()
    lam0 = pair.P0.eigenvalues()
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    n1 = np.searchsorted(lam1, taus, side="right")
    n0 = np.searchsorted(lam0, taus, side="right")
    out = (n1 - n0).astype(int)
    return int(out[0]) if np.ndim(tau) == 0 else out


def ssf_mollified(pair: OperatorPair, w: WindowTheta, eps: float | None, tau):
    """Mollified counting difference: each eigenvalue contributes a smoothed
    step (the primitive of the window kernel) instead of a unit jump."""
    if not w.is_even:
        raise ValueError("mollified counting uses the even window")
    if eps is not None:
        w = w.with_eps(eps)
    lam1 = pair.P1.eigenvalues()
    lam0 = pair.P0.eigenvalues()
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    h = pair.h
    if pair.P1 is pair.P0:
        out = np.zeros_like(taus)
        return float(out[0]) if np.ndim(tau) == 0 else out
    up = window_primitive(w, h, taus[:, None] - lam1[None, :]).sum(axis=1)
    dn = window_primitive(w, h, taus[:, None] - lam0[None, :]).sum(axis=1)
    out = up - dn
    return float(out[0]) if np.ndim(tau) == 0 else out


@dataclass(frozen=True)
class SSFEstimate:
    """tau-indexed shift estimates with the method and mollification used."""

    tau_grid: np.ndarray
    values: np.ndarray
    method: str
    h: float
    eps: float | None
    grid_R: float
    grid_M: int

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("tau,value,method,h,eps\n")
            for t, v in zip(self.tau_grid, self.values):
                fh.write(f"{t!r},{v!r},{self.method},{self.h!r},{self.eps!r}\n")


def ssf_estimate(pair: OperatorPair, taus, method: str = "mollified_counting",
                 w: WindowTheta | None = None, eps: float | None = None) -> SSFEstimate:
    taus = np.asarray(taus, dtype=float)
    if method == "counting":
        vals = ssf_counting(pair, taus).astype(float)
        used_eps = None
    elif method == "mollified_counting":
        w = w or WindowTheta()
        vals = np.asarray(ssf_mollified(pair, w, eps, taus), dtype=float)
        used_eps = eps if eps is not None else w.eps
    else:
        raise ValueError(f"unknown method {method!r}")
    return SSFEstimate(tau_grid=taus, values=vals, method=method, h=pair.h,
                       eps=used_eps, grid_R=pair.grid.R, grid_M=pair.grid.M)


@dataclass(frozen=True)
class WeylReport:
    hs: np.ndarray
    sup_errors: np.ndarray
    sup_rel_errors: np.ndarray
    fitted_order: float | None
    verdict: str
    tau_grid: np.ndarray
    reference: np.ndarray

    def rows(self):
        for h, e, r in zip(self.hs, self.sup_errors, self.sup_rel_errors):
            yield {"h": h, "value": e, "reference": float(np.max(np.abs(self.reference))),
                   "rel_error": r, "fitted_slope": self.fitted_order if self.fitted_order is not None else float("nan")}


def weyl_check(
    pairs: dict[float, OperatorPair],
    taus,
    a0_reference: Callable[[float], float] | np.ndarray,
    w: WindowTheta,
    certificate,
    order_threshold: float = 0.7,
    rel_threshold: float = 0.05,
) -> WeylReport:
    """sup-tau error of 2 pi h * mollified counting against the closed-form
    leading coefficient, with the fitted order of the remainder.

    ``pairs`` maps h to an OperatorPair (descending h).  Requires a valid
    shell or escape certificate for the window.
    """
    if certificate is None or not getattr(certificate, "valid", False):
        raise CertificateError("weyl check requires a valid certificate for the window")
    taus = np.asarray(taus, dtype=float)
    if callable(a0_reference):
        ref = np.array([a0_reference(float(t)) for t in taus])
    else:
        ref = np.asarray(a0_reference, dtype=float)
    hs = np.asarray(sorted(pairs.keys(), reverse=True), dtype=float)
    sup_err = []
    sup_rel = []
    for h in hs:
        pair = pairs[h]
        vals = 2.0 * math.pi * h * np.asarray(ssf_mollified(pair, w, None, taus))
        err = np.abs(vals - ref)
        sup_err.append(float(np.max(err)))
        sup_rel.append(float(np.max(err / np.abs(ref))))
    sup_err = np.asarray(sup_err)
    sup_rel = np.asarray(sup_rel)
    order = loglog_slope(hs, sup_err) if np.all(sup_err > 0) else None
    ok = sup_rel[-1] <= rel_threshold and (order is None or order >= order_threshold)
    return WeylReport(hs=hs, sup_errors=sup_err, sup_rel_errors=sup_rel,
                      fitted_order=order, verdict="PASS" if ok else "FAIL",
                      tau_grid=taus, reference=ref)


@dataclass(frozen=True)
class DerivativeReport:
    hs: np.ndarray
    values: np.ndarray
    reference: float
    rel_errors: np.ndarray
    residual_order: float | None
    verdict: str

    def rows(self):
        for h, v, e in zip(self.hs, self.values, self.rel_errors):
            yield {"h": h, "value": v, "reference": self.reference, "rel_error": e,
                   "fitted_slope": self.residual_order if self.residual_order is not None else float("nan")}


def mollified_density_pairing(pair: OperatorPair, f: TestFunction, w: WindowTheta,
                              tau) -> float:
    """sum_j f(l_j^1) K(tau - l_j^1) - sum_j f(l_j^0) K(tau - l_j^0)."""
    lam1 = pair.P1.eigenvalues()
    lam0 = pair.P0.eigenvalues()
    if pair.P1 is pair.P0:
        return 0.0
    h = pair.h
    up = float(np.sum(f(lam1) * np.real(fourier_window(w, h, tau - lam1))))
    dn = float(np.sum(f(lam0) * np.real(fourier_window(w, h, tau - lam0))))
    return up - dn


def derivative_check(
    pairs: dict[float, OperatorPair],
    tau0: float,
    f: TestFunction,
    w: WindowTheta,
    gamma0_reference: float,
    certificate,
    order_threshold: float = 1.5,
    rel_threshold: float = 0.05,
) -> DerivativeReport:
    """Fixed-eps mollified density difference at tau0 against the closed-form
    density coefficient; the residual should carry the even-power signature.

    Gated by an escape certificate (the hypothesis of the pointwise
    expansion); ``f`` should be 1 near tau0.
    """
    if certificate is None or not getattr(certificate, "valid", False):
        raise CertificateError("derivative check requires a valid escape certificate")
    if not w.is_even:
        raise ValueError("derivative check uses the even window")
    hs = np.asarray(sorted(pairs.keys(), reverse=True), dtype=float)
    values = np.array([
        2.0 * math.pi * h * mollified_density_pairing(pairs[h], f, w, tau0) for h in hs
    ])
    ref = float(gamma0_reference)
    rel = np.abs(values - ref) / max(abs(ref), 1e-300)
    resid = np.abs(values - ref)
    order = loglog_slope(hs, resid) if np.all(resid > 0) else None
    ok = rel[-1] <= rel_threshold and (order is None or order >= order_threshold)
    return DerivativeReport(hs=hs, values=values, reference=ref, rel_errors=rel,
                            residual_order=order, verdict="PASS" if ok else "FAIL")
