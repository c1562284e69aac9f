"""Constructions of the microhyperbolic framework that no run reaches, kept
as references for the tests.

The runners certify a symbol on a sampled energy shell
(``check_on_energy_shell``) and check escape; the tests also check the
framework's pointwise definition, its direction search and crossing
condition, and the global extension and spectral flattening built on them.
Those live here, with the small helpers only tests call:
``hermitian_eigen``, the smoothstep cutoff and the counting difference of a
``SpectralPair``.  Each single-point check runs the library's own stacked
code (``_jets``, ``_check_jet``, ``_find_directions``) on one point, and a
direction is a plain float vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ssf_lab.microhyperbolicity import (
    C1_LADDER,
    MicrohyperbolicityCertificate,
    _check_jet,
    _find_directions,
    _jets,
    _min_eigs,
    default_kernel_tol,
    default_shell_tol,
)
from ssf_lab.ssf import SpectralPair
from ssf_lab.symbols import (
    MatrixPotential,
    MatrixSymbol,
    _hermitian_parts,
    require_hermitian,
)


def hermitian_eigen(a: np.ndarray) -> tuple:
    """Eigendecomposition: the sorted real values and the orthonormal vector
    columns, as ``np.linalg.eigh`` gives them.

    Rejects inputs whose asymmetry exceeds ``require_hermitian``'s
    tolerance; ties in the spectrum are resolved by the (deterministic)
    underlying LAPACK ordering.
    """
    values, vectors = np.linalg.eigh(require_hermitian(a))
    return values, vectors


def smootherstep(t):
    """Order-7 polynomial step: 0 for t<=0, 1 for t>=1, C^3 across the joins."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return t**4 * (35.0 + t * (-84.0 + t * (70.0 - 20.0 * t)))


def radial_cutoff(r):
    """Radial cutoff: 1 for r<=1, 0 for r>=2, polynomial smoothstep between."""
    r = np.asarray(r, dtype=float)
    return 1.0 - smootherstep(r - 1.0)


def ssf_counting(pair: SpectralPair, tau) -> int | np.ndarray:
    """Counting difference N1(tau) - N0(tau); ties count by multiplicity."""
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    n1 = np.searchsorted(pair.lam1, taus, side="right")
    n0 = np.searchsorted(pair.lam0, taus, side="right")
    out = (n1 - n0).astype(int)
    return int(out[0]) if np.ndim(tau) == 0 else out


class KernelSplitError(ValueError):
    """Spectrum of H(rho0) cannot be split unambiguously at the kernel tolerance."""


@dataclass(frozen=True)
class CrossingResult:
    """Direction search on the kernel of V(x0) - tau0 at a touching level."""

    ok: bool
    T1: np.ndarray | None
    C: float | None
    kernel_dim: int
    best_value: float
    note: str = ""


def unit(t) -> np.ndarray:
    """The direction ``t`` as a float vector divided by its norm."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return t / np.linalg.norm(t)


def one_point(rho) -> tuple:
    """The phase point rho = (x, xi) as the one-point x and xi arrays a
    symbol's array form takes."""
    rho = np.asarray(rho, dtype=float).reshape(2)
    return rho[:1], rho[1:]


def directional_derivative(h: MatrixSymbol, rho, t) -> np.ndarray:
    """<T, grad H(rho)> as a hermitian matrix, T the normalized ``t``."""
    return np.tensordot(unit(t), h.gradient_on(*one_point(rho))[0], axes=(0, 0))


def check_definition(h: MatrixSymbol, rho, t, c0: float, c1: float) -> float:
    """Slack of the compensated inequality at rho.

    Returns min-eig(<T, grad H> + C1 H*H - C0 I); a nonnegative value is
    exactly equivalent to the defining quadratic-form inequality for all w.
    ``_check_jet`` forms each rung of its C1 ladder as this does, so each of
    its slacks equals this value bit for bit.
    """
    a = require_hermitian(h.on(*one_point(rho))[0])
    g = directional_derivative(h, rho, t)
    mat = g + c1 * (a.conj().T @ a) - c0 * np.eye(h.N)
    return float(np.linalg.eigvalsh(mat).min())


def _jet(h: MatrixSymbol, rho):
    """The jet at one point, with the default kernel tolerance."""
    return _jets(h, np.atleast_1d(np.asarray(rho, dtype=float))[None, :], None)[0]


def check_pointwise(h: MatrixSymbol, rho0, t) -> MicrohyperbolicityCertificate:
    """Kernel-form check at a single point, with constants by doubling search.

    The compression S of <T, grad H(rho0)> onto the near-kernel must be
    positive definite; the certificate stores C0 = min-eig(S)/2 and the
    smallest ladder C1 that makes the compensated inequality hold at rho0.
    An invertible H(rho0) passes trivially with C0 = sigma_min/2.  The
    kernel tolerance is ``default_kernel_tol``.  The certificate is built
    from ``_check_jet``'s (valid, C0, C1, margin) at the point.
    """
    jet = _jet(h, rho0)
    valid, c0, c1, margin = _check_jet(jet, t)
    return MicrohyperbolicityCertificate(
        valid=valid, points=jet.rho[None, :], T=unit(t), C0=c0, C1=c1,
        kernel_tol=jet.kernel_tol, margin=margin, failures=[] if valid else [jet.rho],
    )


def find_direction(h: MatrixSymbol, rho0) -> np.ndarray | None:
    """Maximize the kernel-projected directional derivative over unit T on
    the phase plane.

    256 equally spaced angles on the unit circle, then 40 golden-section
    steps around the best.  Returns the unit vector, or None when no
    direction gives a positive value.  The kernel tolerance is
    ``default_kernel_tol``.
    """
    directions, found = _find_directions(h, [_jet(h, rho0)])
    return directions[0] if found[0] else None


def crossing_condition(v: MatrixPotential, x0, tau0: float) -> CrossingResult:
    """Search a spatial direction making <T1, grad V(x0)> positive on
    ker(V(x0) - tau0 I).

    Levels within ``default_shell_tol(tau0)`` of tau0 count as the kernel.
    The candidates are +-1.
    """
    x0 = np.reshape(np.asarray(x0, dtype=float), 1)
    a = require_hermitian(v.on(x0)[0]) - tau0 * np.eye(v.N)
    values, vectors = hermitian_eigen(a)
    mask = np.abs(values) <= default_shell_tol(tau0)
    if not np.any(mask):
        return CrossingResult(ok=False, T1=None, C=None, kernel_dim=0,
                              best_value=-math.inf, note="no level touches tau0")
    vk = vectors[:, mask]
    grad = v.gradient_on(x0)[0]
    proj = np.stack([vk.conj().T @ gi @ vk for gi in grad])

    cands = np.array([[1.0], [-1.0]])
    vals = _min_eigs(cands, proj)
    i_best = int(np.argmax(vals))
    best, fbest = cands[i_best], float(vals[i_best])
    if fbest <= 0.0:
        return CrossingResult(ok=False, T1=None, C=None, kernel_dim=int(mask.sum()),
                              best_value=fbest)
    return CrossingResult(ok=True, T1=best, C=1.0 / fbest, kernel_dim=int(mask.sum()),
                          best_value=fbest)


def linearized_block_symbol(
    h: MatrixSymbol,
    rho0,
    kernel_tol: float | None = None,
) -> MatrixSymbol:
    """Globally defined symbol: affine in rho on the kernel block of H(rho0),
    frozen on the invertible complement, expressed in the original frame.

    The conjugating matrix is taken unitary (the eigenvector matrix of the
    hermitian H(rho0)), which keeps every block hermitian.  The symbol is an
    array form without an analytic gradient: its gradients are central
    differences.
    """
    rho0 = np.atleast_1d(np.asarray(rho0, dtype=float))
    a = require_hermitian(h.on(*one_point(rho0))[0])
    if kernel_tol is None:
        kernel_tol = default_kernel_tol(a)
    values, u = hermitian_eigen(a)
    mags = np.abs(values)
    ambiguous = (mags > kernel_tol) & (mags <= 10.0 * kernel_tol)
    if np.any(ambiguous):
        raise KernelSplitError(
            f"eigenvalue magnitude {mags[ambiguous].min():.3e} within a factor 10 "
            f"of kernel_tol={kernel_tol:.3e}; choose a different kernel_tol"
        )
    kernel, rest = np.flatnonzero(mags <= kernel_tol), np.flatnonzero(mags > kernel_tol)
    # kernel-block gradient components in the eigenframe, (2, r, r)
    uk = u[:, kernel]
    gk = np.stack([uk.conj().T @ gi @ uk for gi in h.gradient_on(*one_point(rho0))[0]])
    # frozen complement
    m22 = u[:, rest].conj().T @ a @ u[:, rest]

    def _eval_on(x, xi):
        delta = np.column_stack([x, xi]) - rho0
        out = np.zeros((len(delta), h.N, h.N), dtype=complex)
        out[:, kernel[:, None], kernel] = np.tensordot(delta, gk, axes=(1, 0))
        out[:, rest[:, None], rest] = m22
        return _hermitian_parts(u @ out @ u.conj().T)

    return MatrixSymbol(N=h.N, eval_on=_eval_on, name=f"linearized({h.name})")


@dataclass(frozen=True)
class ExtensionReport:
    ok: bool
    delta: float
    C0: float
    C1: float
    worst_slack: float
    n_halvings: int
    grid_slacks: np.ndarray
    far_slacks: np.ndarray


def extend_to_global(h: MatrixSymbol, rho0, t,
                     delta: float) -> tuple[MatrixSymbol, ExtensionReport]:
    """Cutoff interpolation between H near rho0 and its affine/block model.

    H_delta(rho) = chi((rho-rho0)/delta) (H - H0)(rho) + H0(rho) with a fixed
    smoothstep radial cutoff, an array form without an analytic gradient;
    evaluation returns H(rho) verbatim inside |rho-rho0| <= delta.  The
    verification report scans check_definition on a 9-point grid per axis
    over |rho-rho0| <= 4 delta plus far-field samples; delta is halved (and,
    if the frozen block needs it, C1 enlarged along the doubling ladder)
    until the worst slack is positive, at most 20 times; after that the
    report has ``ok=False``.
    """
    rho0 = np.atleast_1d(np.asarray(rho0, dtype=float))
    tv = unit(t)
    base = check_pointwise(h, rho0, tv)
    if not base.valid:
        raise ValueError("symbol is not microhyperbolic at rho0 in direction T")
    h0 = linearized_block_symbol(h, rho0, kernel_tol=base.kernel_tol)

    def make_symbol(dlt: float) -> MatrixSymbol:
        def _eval_on(x, xi):
            r = np.linalg.norm(np.column_stack([x, xi]) - rho0, axis=1)[:, None, None] / dlt
            near, lin = h.on(x, xi), h0.on(x, xi)
            return np.where(r <= 1.0, near, radial_cutoff(r) * (near - lin) + lin)

        return MatrixSymbol(N=h.N, eval_on=_eval_on,
                            name=f"extended({h.name},delta={dlt:g})")

    dim = 2

    def verification_points(dlt: float):
        axes = [np.linspace(-4.0 * dlt, 4.0 * dlt, 9)] * dim
        mesh = np.meshgrid(*axes, indexing="ij")
        near = np.stack([m.ravel() for m in mesh], axis=1) + rho0
        far = []
        for radius in (8.0 * dlt, 40.0 * dlt, 200.0 * dlt):
            for i in range(dim):
                for sgn in (+1.0, -1.0):
                    e = np.zeros(dim)
                    e[i] = sgn * radius
                    far.append(rho0 + e)
        return near, np.asarray(far)

    delta_cur = float(delta)
    n_halvings = 0
    while True:
        hd = make_symbol(delta_cur)
        near, far = verification_points(delta_cur)
        for c1 in [c for c in C1_LADDER if c >= base.C1]:
            near_slacks = np.array([
                check_definition(hd, rho, tv, base.C0, c1) for rho in near
            ])
            far_slacks = np.array([
                check_definition(hd, rho, tv, base.C0, c1) for rho in far
            ])
            worst = float(min(near_slacks.min(), far_slacks.min()))
            if worst > 0.0:
                report = ExtensionReport(ok=True, delta=delta_cur, C0=base.C0,
                                         C1=c1, worst_slack=worst,
                                         n_halvings=n_halvings,
                                         grid_slacks=near_slacks,
                                         far_slacks=far_slacks)
                return hd, report
        n_halvings += 1
        if n_halvings > 20:
            report = ExtensionReport(ok=False, delta=delta_cur, C0=base.C0,
                                     C1=C1_LADDER[-1], worst_slack=worst,
                                     n_halvings=n_halvings - 1,
                                     grid_slacks=near_slacks,
                                     far_slacks=far_slacks)
            return hd, report
        delta_cur *= 0.5


def _flatten_scalar(t, a: float):
    """Odd monotone C^3 map: identity on [-a, a], constant 1.5a beyond 2a."""
    t = np.asarray(t, dtype=float)
    s = np.abs(t) / a
    out = np.where(s <= 1.0, s, 0.0)
    mid = (s > 1.0) & (s < 2.0)
    u = s[mid] - 1.0
    # primitive of (1 - smootherstep): u - 7u^5 + 14u^6 - 10u^7 + 2.5u^8
    out[mid] = 1.0 + u - 7.0 * u**5 + 14.0 * u**6 - 10.0 * u**7 + 2.5 * u**8
    out[s >= 2.0] = 1.5
    return np.sign(t) * a * out


def flatten_symbol(h: MatrixSymbol, a: float) -> MatrixSymbol:
    """Spectral application of a bounded flattening map.

    f(t) = t for |t| < a, monotone, constant for |t| > 2a, so the flattened
    symbol is bounded by 1.5a.  Points where the local spectral radius is
    below a return H(rho) verbatim.
    """
    if not a > 0:
        raise ValueError("linear-window radius must be positive")

    def _eval_on(x, xi):
        mats = h.on(x, xi)
        vals, vecs = np.linalg.eigh(require_hermitian(mats))
        flat = (vecs * _flatten_scalar(vals, a)[:, None, :]) @ np.conj(np.swapaxes(vecs, 1, 2))
        inside = np.max(np.abs(vals), axis=1, initial=0.0) < a
        return np.where(inside[:, None, None], mats, flat)

    return MatrixSymbol(N=h.N, eval_on=_eval_on, name=f"flattened({h.name},a={a:g})")
