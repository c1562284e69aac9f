"""Hermitian matrix fields, phase-space symbols, and eigenvalue branches.

Conventions used throughout the package:

* a potential V maps a point x in R^n to an N x N hermitian matrix; its
  channel eigenvalues sorted increasingly are the "branches" e_1 <= ... <= e_N;
* a symbol H maps a phase-space point (x, xi) to an N x N hermitian matrix;
  the model of interest is the Schrodinger symbol xi^2 I_N + V(x);
* gradients are stacked as (d/dx_1 ... d/dx_n, d/dxi_1 ... d/dxi_n), i.e. an
  array of shape (2n, N, N); for n=1 that is simply (d/dx, d/dxi).

For n = 1 scalar coordinates are accepted everywhere.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "NonHermitianError",
    "EigenBranchSet",
    "MatrixPotential",
    "MatrixSymbol",
    "hermiticity_defect",
    "require_hermitian",
    "hermitian_eigen",
    "branches",
    "symbol_gradient",
    "schrodinger_matrices",
    "schrodinger_symbol",
    "shifted_symbol",
    "model_potential",
    "combine_potentials",
]

# Pauli-type building blocks for the two-channel models.
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]])


class NonHermitianError(ValueError):
    """Input matrix is not hermitian within tolerance; carries the defect."""

    def __init__(self, defect: float, tol: float):
        self.defect = defect
        self.tol = tol
        super().__init__(f"max asymmetry {defect:.3e} exceeds tolerance {tol:.3e}")


def hermiticity_defect(a: np.ndarray) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def require_hermitian(a: np.ndarray, atol: float = 1e-12, rtol: float = 1e-12) -> np.ndarray:
    """Validate hermiticity and return the symmetrized matrix."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    tol = atol + rtol * scale
    defect = hermiticity_defect(a)
    if defect > tol:
        raise NonHermitianError(defect, tol)
    return 0.5 * (a + a.conj().T)


@dataclass(frozen=True)
class EigenBranchSet:
    """Sorted eigenvalues and orthonormal eigenvector columns of a hermitian matrix."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T


def fast_eigvalsh(a: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of a hermitian matrix or a stack (..., N, N), with
    closed forms for N <= 2 (hot inner loops).

    The 2x2 form runs on each matrix's own Python scalars, so a matrix has
    the same eigenvalues alone as in a stack; ``np.hypot`` and ``np.abs`` on
    arrays differ from ``math.hypot`` and ``abs`` in the last bit on some
    inputs.
    """
    a = np.asarray(a)
    n = a.shape[-1]
    if n == 1:
        return a[..., 0, :].real.copy()
    if n == 2:
        return np.array([_eigvals_2x2(e[0].real, e[3].real, e[1])
                         for e in a.reshape(-1, 4).tolist()]).reshape(a.shape[:-1])
    return np.linalg.eigvalsh(a)


def _eigvals_2x2(a00: float, a11: float, a01) -> tuple:
    m = 0.5 * (a00 + a11)
    r = math.hypot(0.5 * (a00 - a11), abs(a01))
    return (m - r, m + r)


def hermitian_eigen(a: np.ndarray, atol: float = 1e-12, rtol: float = 1e-12) -> EigenBranchSet:
    """Eigendecomposition with sorted real values and orthonormal vectors.

    Rejects inputs whose asymmetry exceeds tolerance; ties in the spectrum are
    resolved by the (deterministic) underlying LAPACK ordering.
    """
    sym = require_hermitian(a, atol=atol, rtol=rtol)
    values, vectors = np.linalg.eigh(sym)
    return EigenBranchSet(values=values, vectors=vectors)


def _as_point(x, n: int) -> np.ndarray:
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.shape != (n,):
        raise ValueError(f"point of dimension {pt.shape} does not match n={n}")
    return pt


@dataclass(frozen=True)
class MatrixPotential:
    """Smooth hermitian N x N field V(x) with limit v_infinity at infinity.

    ``eval`` maps x (scalar for n=1, length-n array otherwise) to an (N, N)
    hermitian array.  ``grad`` maps x to an (n, N, N) stack of partial
    derivatives; when absent, gradients fall back to central differences.
    ``mu`` records the decay exponent of V - v_infinity (models built here
    have Gaussian envelopes, so any finite exponent is valid).
    """

    n: int
    N: int
    eval: Callable
    grad: Callable | None
    v_infinity: np.ndarray
    mu: float = 6.0
    radial: bool = False
    name: str = ""

    def __post_init__(self):
        v_inf = np.asarray(self.v_infinity, dtype=complex)
        if v_inf.shape != (self.N, self.N):
            raise ValueError("v_infinity shape does not match channel count")
        off = v_inf - np.diag(np.diag(v_inf))
        if np.max(np.abs(off), initial=0.0) > 1e-14:
            raise ValueError("v_infinity must be diagonal")
        diag = np.diag(v_inf).real
        if np.any(np.diff(diag) < -1e-14):
            raise ValueError("diagonal of v_infinity must be non-decreasing")
        if not self.mu > self.n:
            raise ValueError("decay exponent mu must exceed the dimension n")
        object.__setattr__(self, "v_infinity", np.diag(diag).astype(float))

    def __call__(self, x) -> np.ndarray:
        return require_hermitian(self.eval(x), atol=1e-12, rtol=1e-12)

    def gradient(self, x, fd_step: float | None = None) -> np.ndarray:
        if self.grad is not None:
            g = np.asarray(self.grad(x))
            if self.n == 1 and g.shape == (self.N, self.N):
                g = g[None, :, :]
            return np.stack([0.5 * (gi + gi.conj().T) for gi in g])
        return _finite_difference_gradient(self.eval, x, self.n, fd_step)

    def thresholds(self) -> np.ndarray:
        """Channel limits at infinity, computed through the same values-only
        eigen path as the branches so that V == v_infinity cancels bitwise."""
        return np.linalg.eigvalsh(self.v_infinity)

    def decay_constant(self, samples: np.ndarray) -> float:
        """Fitted C with ||V(x) - v_inf|| <= C <x>^(-mu) over the samples."""
        mu = min(self.mu, 16.0)
        best = 0.0
        for x in np.atleast_1d(samples):
            diff = self(x) - self.v_infinity
            nrm = float(np.linalg.norm(diff, 2))
            r2 = float(np.sum(np.atleast_1d(x) ** 2))
            best = max(best, nrm * (1.0 + r2) ** (mu / 2.0))
        return best


@dataclass(frozen=True)
class MatrixSymbol:
    """Phase-space symbol H(x, xi) valued in hermitian N x N matrices."""

    n: int
    N: int
    eval: Callable
    grad: Callable | None = None
    name: str = ""

    def __call__(self, x, xi) -> np.ndarray:
        return require_hermitian(self.eval(x, xi), atol=1e-12, rtol=1e-12)

    def at(self, rho: np.ndarray) -> np.ndarray:
        x, xi = _split_phase_point(rho, self.n)
        return self(x, xi)

    def gradient(self, rho, fd_step: float | None = None) -> np.ndarray:
        return symbol_gradient(self, rho, fd_step=fd_step)


def _split_phase_point(rho, n: int):
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if rho.shape != (2 * n,):
        raise ValueError(f"phase point of shape {rho.shape} does not match 2n={2*n}")
    if n == 1:
        return float(rho[0]), float(rho[1])
    return rho[:n], rho[n:]


def _finite_difference_gradient(evaluate, x, n, fd_step):
    """Hermitized central differences of ``evaluate`` in each of the n
    coordinates, with a step scaled by 1 + |x|."""
    x_arr = _as_point(x, n)
    step = fd_step if fd_step is not None else 1e-5 * (1.0 + float(np.linalg.norm(x_arr)))
    comps = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        xp, xm = x_arr + e, x_arr - e
        if np.all(xp == x_arr) or np.all(xm == x_arr):
            raise FloatingPointError("finite-difference step underflow at this point")
        up = xp[0] if n == 1 else xp
        um = xm[0] if n == 1 else xm
        d = (np.asarray(evaluate(up)) - np.asarray(evaluate(um))) / (2.0 * step)
        comps.append(0.5 * (d + d.conj().T))
    return np.stack(comps)


def symbol_gradient(h: MatrixSymbol, rho, fd_step: float | None = None) -> np.ndarray:
    """(2n, N, N) gradient of a symbol, analytic when available.

    Finite-difference fallback uses a step scaled with |rho| so the relative
    truncation error stays uniform; each component is hermitized.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if h.grad is not None:
        x, xi = _split_phase_point(rho, h.n)
        g = np.asarray(h.grad(x, xi))
        return np.stack([0.5 * (gi + gi.conj().T) for gi in g])

    return _finite_difference_gradient(lambda pt: h.eval(*_split_phase_point(pt, h.n)),
                                       rho, 2 * h.n, fd_step)


def branches(v: MatrixPotential, x) -> EigenBranchSet:
    """Sorted channel eigenvalues e_1(x) <= ... <= e_N(x) of V(x)."""
    return hermitian_eigen(v(x))


def schrodinger_matrices(v_at: np.ndarray, xi) -> np.ndarray:
    """The n = 1 Schrodinger symbol xi^2 I_N + V for V values ``v_at``
    (..., N, N) paired with scalar momenta ``xi`` (...); the symbol of
    ``schrodinger_symbol`` is this at one point."""
    xi2 = xi * xi
    if getattr(xi2, "ndim", 0):
        xi2 = xi2[..., None, None]
    return xi2 * _identity(np.shape(v_at)[-1]) + v_at


@functools.cache
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def schrodinger_symbol(v: MatrixPotential) -> MatrixSymbol:
    """The symbol xi^2 I_N + V(x) with exact kinetic part and exact gradient."""
    eye = np.eye(v.N)

    if v.n == 1:
        def _eval(x, xi):
            return schrodinger_matrices(v.eval(x), xi)

        def _grad(x, xi):
            gv = v.gradient(x)
            return np.concatenate([gv, (2.0 * xi * eye)[None, :, :]])
    else:
        def _eval(x, xi):
            return float(np.dot(xi, xi)) * eye + v.eval(x)

        def _grad(x, xi):
            gv = v.gradient(x)
            kinetic = np.stack([2.0 * xii * eye for xii in np.atleast_1d(xi)])
            return np.concatenate([gv, kinetic])

    return MatrixSymbol(n=v.n, N=v.N, eval=_eval, grad=_grad, name=f"xi^2+{v.name or 'V'}")


def shifted_symbol(p: MatrixSymbol, tau0: float) -> MatrixSymbol:
    """The symbol tau0*I - p, the object whose kernel marks the energy shell."""
    eye = np.eye(p.N)

    def _eval(x, xi):
        return tau0 * eye - np.asarray(p.eval(x, xi))

    if p.grad is not None:
        def _grad(x, xi):
            return -np.asarray(p.grad(x, xi))
    else:
        _grad = None

    return MatrixSymbol(n=p.n, N=p.N, eval=_eval, grad=_grad, name=f"{tau0}-({p.name})")


def _gauss_envelope(x):
    return math.exp(-x * x)


def model_potential(kind: str, **params) -> MatrixPotential:
    """Library of one-dimensional model potentials with analytic gradients.

    Kinds: ``constant``, ``diagonal_bumps``, ``avoided_crossing``,
    ``conical_crossing``, ``reference``.  All models decay to their limit with
    Gaussian envelopes, so the decay hypothesis holds for every exponent.
    """
    if kind == "constant":
        diag = np.atleast_1d(np.asarray(params.get("v_inf", 0.0), dtype=float))
        if params.get("N") is not None and int(params["N"]) != diag.size:
            if diag.size == 1:
                diag = np.repeat(diag, int(params["N"]))
            else:
                raise ValueError("channel count does not match v_inf length")
        if diag.size < 1:
            raise ValueError("need at least one channel")
        n_ch = diag.size
        v_inf = np.diag(np.sort(diag))
        zero = np.zeros((1, n_ch, n_ch))

        return MatrixPotential(
            n=1, N=n_ch,
            eval=lambda x, _m=v_inf: _m.copy(),
            grad=lambda x, _z=zero: _z.copy(),
            v_infinity=v_inf, name=f"constant{tuple(np.diag(v_inf))}",
        )

    if kind == "diagonal_bumps":
        depths = np.atleast_1d(np.asarray(params["depths"], dtype=float))
        centers = np.atleast_1d(np.asarray(params.get("centers", np.zeros_like(depths)), dtype=float))
        widths = np.atleast_1d(np.asarray(params.get("widths", np.ones_like(depths)), dtype=float))
        diag_inf = np.atleast_1d(np.asarray(params.get("v_inf", np.zeros_like(depths)), dtype=float))
        if not (len(depths) == len(centers) == len(widths) == len(diag_inf)):
            raise ValueError("per-channel parameter lengths disagree")
        if np.any(np.diff(diag_inf) < 0):
            raise ValueError("v_inf diagonal must be non-decreasing")
        n_ch = len(depths)

        def _eval(x):
            u = (x - centers) / widths
            return np.diag(diag_inf + depths * np.exp(-u * u))

        def _grad(x):
            u = (x - centers) / widths
            return np.diag(depths * np.exp(-u * u) * (-2.0 * u / widths))[None, :, :]

        return MatrixPotential(n=1, N=n_ch, eval=_eval, grad=_grad,
                               v_infinity=np.diag(diag_inf), name="diagonal_bumps")

    if kind == "conical_crossing":
        amp = float(params.get("amp", 1.0))

        def _eval(x):
            return amp * x * _gauss_envelope(x) * SIGMA3

        def _grad(x):
            return (amp * _gauss_envelope(x) * (1.0 - 2.0 * x * x) * SIGMA3)[None, :, :]

        return MatrixPotential(n=1, N=2, eval=_eval, grad=_grad,
                               v_infinity=np.zeros((2, 2)), name="conical_crossing")

    if kind == "avoided_crossing":
        amp = float(params.get("amp", 1.0))
        gap = float(params["gap"])

        def _eval(x):
            return amp * x * _gauss_envelope(x) * SIGMA3 + gap * SIGMA1

        def _grad(x):
            return (amp * _gauss_envelope(x) * (1.0 - 2.0 * x * x) * SIGMA3)[None, :, :]

        # the gap term does not decay, so fold it into nothing: the model is
        # meant for local crossing studies; its limit is the constant gap term,
        # which is not diagonal.  Rotate channels so the limit is diagonal.
        # V = a(x) sigma3 + g sigma1; conjugating by the Hadamard-type unitary
        # R = (sigma1 + sigma3)/sqrt(2) swaps sigma1 <-> sigma3, giving
        # V' = a(x) sigma1 + g sigma3 with diagonal limit diag(g, -g) -> sort.
        r = (SIGMA1 + SIGMA3) / math.sqrt(2.0)

        def _eval_rot(x, _e=_eval):
            return r @ _e(x) @ r

        def _grad_rot(x, _g=_grad):
            return np.stack([r @ gi @ r for gi in _g(x)])

        return MatrixPotential(n=1, N=2, eval=_eval_rot, grad=_grad_rot,
                               v_infinity=np.diag([-gap, gap]), name=f"avoided_crossing(g={gap})")

    if kind == "reference":
        def _eval(x):
            ex = math.exp(-x * x)
            ex1 = math.exp(-(x - 1.0) ** 2)
            return np.array([[-ex, 0.5 * ex], [0.5 * ex, 0.5 * ex1]])

        def _grad(x):
            ex = math.exp(-x * x)
            ex1 = math.exp(-(x - 1.0) ** 2)
            return np.array([[[2.0 * x * ex, -x * ex], [-x * ex, -(x - 1.0) * ex1]]])

        return MatrixPotential(n=1, N=2, eval=_eval, grad=_grad,
                               v_infinity=np.zeros((2, 2)), name="reference")

    raise ValueError(f"unknown model potential kind: {kind!r}")


def combine_potentials(v0: MatrixPotential, v1: MatrixPotential, scale: float = 1.0) -> MatrixPotential:
    """V0 + scale * V1 (used for families like V0 + h*V1 swept over h)."""
    if (v0.n, v0.N) != (v1.n, v1.N):
        raise ValueError("potentials live on different spaces")

    def _eval(x):
        return np.asarray(v0.eval(x)) + scale * np.asarray(v1.eval(x))

    def _grad(x):
        return v0.gradient(x) + scale * v1.gradient(x)

    v_inf = v0.v_infinity + scale * v1.v_infinity
    return MatrixPotential(n=v0.n, N=v0.N, eval=_eval, grad=_grad,
                           v_infinity=v_inf, mu=min(v0.mu, v1.mu),
                           name=f"{v0.name}+{scale}*{v1.name}")
