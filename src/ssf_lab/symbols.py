"""Hermitian matrix fields, phase-space symbols, and eigenvalue branches.

Conventions used throughout the package, which is one-dimensional:

* a potential V maps a point x of the line to an N x N hermitian matrix; its
  channel eigenvalues sorted increasingly are the "branches" e_1 <= ... <= e_N;
* a symbol H maps a phase-space point (x, xi) to an N x N hermitian matrix;
  the model of interest is the Schrodinger symbol xi^2 I_N + V(x);
* gradients are stacked as (d/dx, d/dxi), i.e. an array of shape (2, N, N).

A potential or symbol is built from its array form alone: ``eval_on`` maps
K points at once, shape (K,), to (K, N, N), and the optional ``grad_on``
gives the (K, 1, N, N) gradients (a symbol's take x and xi as two such
arrays and give (K, 2, N, N)).  ``v.on(xs)`` and ``v.gradient_on(xs)`` call
them; without ``grad_on`` the gradients are central differences over the
whole array.  A scalar call, ``v(x)``, ``v.gradient(x)``, ``h(x, xi)``,
``h.at(rho)`` or ``h.gradient(rho)``, is the one row of the array form at
that point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "NonHermitianError",
    "MatrixPotential",
    "MatrixSymbol",
    "require_hermitian",
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


def _hermitian_parts(g: np.ndarray) -> np.ndarray:
    """(G + G^H)/2 of every matrix of a stack (..., N, N)."""
    return 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))


HERMITIAN_ATOL = HERMITIAN_RTOL = 1e-12


def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate hermiticity and return the symmetrized matrix.

    A stack (..., N, N) is checked matrix by matrix, each against its own
    tolerance HERMITIAN_ATOL + HERMITIAN_RTOL max|a_ij|, and the first one
    that fails, in stack order, raises."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    adj = np.conj(np.swapaxes(a, -1, -2))
    defects = np.max(np.abs(a - adj), axis=(-2, -1), initial=0.0).ravel()
    tols = HERMITIAN_ATOL + HERMITIAN_RTOL * np.max(np.abs(a), axis=(-2, -1), initial=0.0).ravel()
    bad = np.flatnonzero(defects > tols)
    if bad.size:
        raise NonHermitianError(float(defects[bad[0]]), float(tols[bad[0]]))
    return _hermitian_parts(a)


def fast_eigvalsh(a: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of a hermitian matrix or a stack (..., N, N), with
    closed forms for N <= 2 (hot inner loops).

    The 2x2 form m -+ hypot((a00 - a11)/2, |a01|), m = (a00 + a11)/2, runs on
    whole arrays except for the modulus of a complex a01 and the hypot,
    which go through ``abs`` and ``math.hypot`` one element at a time:
    ``np.abs`` and ``np.hypot`` differ from them in the last bit on some
    inputs.  So a matrix has the same eigenvalues alone as in a stack.
    """
    a = np.asarray(a)
    n = a.shape[-1]
    if n == 1:
        return a[..., 0, :].real.copy()
    if n == 2:
        flat = a.reshape(-1, 4)
        a00, a11, a01 = flat[:, 0].real, flat[:, 3].real, flat[:, 1]
        mod = map(abs, a01.tolist()) if np.iscomplexobj(a01) else np.abs(a01).tolist()
        r = np.fromiter(map(math.hypot, (0.5 * (a00 - a11)).tolist(), mod), float, len(flat))
        m = 0.5 * (a00 + a11)
        return np.stack([m - r, m + r], axis=-1).reshape(a.shape[:-1])
    return np.linalg.eigvalsh(a)


def _row(c) -> np.ndarray:
    """One point, or one half of a phase-space point, as the single-row
    array of shape (1,) an array form takes."""
    return np.asarray(c, dtype=float).reshape((1,))


def _central_differences(evaluate, pts: np.ndarray) -> np.ndarray:
    """Hermitized central differences of ``evaluate`` at every row of ``pts``
    (K, d) in each of its d coordinates, with the step 1e-5 (1 + |row|):
    one ``evaluate`` call over the 2dK shifted rows, (K, d, N, N)."""
    k, d = pts.shape
    step = 1e-5 * (1.0 + np.linalg.norm(pts, axis=1))
    shifts = np.eye(d)[:, None, :] * step[:, None]
    vals = np.asarray(evaluate(np.concatenate([(pts + shifts).reshape(-1, d),
                                               (pts - shifts).reshape(-1, d)])))
    up, down = vals.reshape(2, d, k, *vals.shape[1:])
    return _hermitian_parts(np.swapaxes((up - down) / (2.0 * step[:, None, None]), 0, 1))


@dataclass(frozen=True)
class MatrixPotential:
    """Smooth hermitian N x N field V(x) with limit v_infinity at infinity.

    ``eval_on`` maps K points, shape (K,), to the (K, N, N) hermitian
    values; ``grad_on``, when given, to the (K, 1, N, N) derivatives, and
    otherwise gradients are central differences.
    """

    N: int
    eval_on: Callable
    v_infinity: np.ndarray
    grad_on: Callable | None = None
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
        object.__setattr__(self, "v_infinity", np.diag(diag).astype(float))

    def __call__(self, x) -> np.ndarray:
        return require_hermitian(self.on(_row(x))[0])

    def on(self, xs) -> np.ndarray:
        """V at every point of ``xs`` as one (K, N, N) array (not symmetrized)."""
        return np.asarray(self.eval_on(np.asarray(xs, dtype=float)))

    def gradient(self, x) -> np.ndarray:
        return self.gradient_on(_row(x))[0]

    def gradient_on(self, xs) -> np.ndarray:
        """The hermitized gradient at every point of ``xs``, (K, 1, N, N)."""
        xs = np.asarray(xs, dtype=float)
        if self.grad_on is not None:
            return _hermitian_parts(np.asarray(self.grad_on(xs)))
        return _central_differences(lambda pts: self.on(pts[:, 0]), xs.reshape(len(xs), 1))

    def thresholds(self) -> np.ndarray:
        """Channel limits at infinity, computed through the same values-only
        eigen path as the branches so that V == v_infinity cancels bitwise."""
        return np.linalg.eigvalsh(self.v_infinity)


@dataclass(frozen=True)
class MatrixSymbol:
    """Phase-space symbol H(x, xi) valued in hermitian N x N matrices.

    ``eval_on`` maps arrays x and xi of K points each, shape (K,), to
    (K, N, N); ``grad_on``, when given, to the (K, 2, N, N) gradients
    (d/dx, d/dxi), and otherwise gradients are central differences in the
    two phase-space coordinates."""

    N: int
    eval_on: Callable
    grad_on: Callable | None = None
    name: str = ""

    def __call__(self, x, xi) -> np.ndarray:
        return require_hermitian(self.on(_row(x), _row(xi))[0])

    @staticmethod
    def _halves(rho) -> tuple:
        rho = np.asarray(rho, dtype=float)
        if rho.shape != (2,):
            raise ValueError(f"a phase point is (x, xi), got shape {rho.shape}")
        return rho[:1], rho[1:]

    def at(self, rho) -> np.ndarray:
        """H at the phase-space point rho = (x, xi), symmetrized."""
        return self(*self._halves(rho))

    def on(self, x, xi) -> np.ndarray:
        """H at the K points (x[k], xi[k]) as one (K, N, N) array (not symmetrized)."""
        return np.asarray(self.eval_on(np.asarray(x, dtype=float), np.asarray(xi, dtype=float)))

    def gradient(self, rho) -> np.ndarray:
        """The hermitized (2, N, N) gradient at the phase-space point rho."""
        return self.gradient_on(*self._halves(rho))[0]

    def gradient_on(self, x, xi) -> np.ndarray:
        """The hermitized gradient at the K points (x[k], xi[k]), (K, 2, N, N)."""
        x, xi = np.asarray(x, dtype=float), np.asarray(xi, dtype=float)
        if self.grad_on is not None:
            return _hermitian_parts(np.asarray(self.grad_on(x, xi)))
        return _central_differences(lambda rhos: self.on(rhos[:, 0], rhos[:, 1]),
                                    np.column_stack([x, xi]))


def schrodinger_symbol(v: MatrixPotential) -> MatrixSymbol:
    """The symbol xi^2 I_N + V(x) with exact kinetic part and exact
    gradient, written as its array form over ``v.on`` and ``v.gradient_on``."""
    eye = np.eye(v.N)

    def _eval_on(x, xi):
        return (xi * xi)[:, None, None] * eye + v.on(x)

    def _grad_on(x, xi):
        kinetic = (2.0 * xi)[:, None, None, None] * eye
        return np.concatenate([v.gradient_on(x), kinetic], axis=1)

    return MatrixSymbol(N=v.N, eval_on=_eval_on, grad_on=_grad_on, name=f"xi^2+{v.name or 'V'}")


def shifted_symbol(p: MatrixSymbol, tau0: float) -> MatrixSymbol:
    """The symbol tau0*I - p, the object whose kernel marks the energy shell,
    written as its array form over ``p.on`` and ``p.gradient_on``."""
    eye = np.eye(p.N)
    return MatrixSymbol(N=p.N, eval_on=lambda x, xi: tau0 * eye - p.on(x, xi),
                        grad_on=lambda x, xi: -p.gradient_on(x, xi), name=f"{tau0}-({p.name})")


def _gauss(xs: np.ndarray) -> np.ndarray:
    """exp(-x^2) at every x, through ``math.exp`` one element at a time:
    numpy's vector exp differs from it in the last bit on some inputs."""
    return np.fromiter(map(math.exp, (-xs * xs).tolist()), float, len(xs))


def _diagonals(d: np.ndarray) -> np.ndarray:
    """The (K, N, N) diagonal matrices of the rows of d (K, N)."""
    out = np.zeros(d.shape + d.shape[-1:])
    idx = np.arange(d.shape[-1])
    out[:, idx, idx] = d
    return out


# the params each model kind reads; ``model_potential`` refuses any other
MODEL_PARAMS = {
    "constant": ("v_inf", "N"),
    "diagonal_bumps": ("depths", "centers", "widths", "v_inf"),
    "conical_crossing": ("amp",),
    "avoided_crossing": ("amp", "gap"),
    "reference": (),
    "island": ("amp",),
    "rotating_crossing": ("c",),
}


def model_potential(kind: str, **params) -> MatrixPotential:
    """Library of one-dimensional model potentials with analytic gradients.

    Kinds: ``constant``, ``diagonal_bumps``, ``avoided_crossing``,
    ``conical_crossing``, ``reference``, ``island`` (amp x^2 exp(-x^2), amp 3
    by default) and ``rotating_crossing`` (exp(-x^2)(x sigma3 + c x^2
    sigma1), c 1 by default).  All models decay to their limit with Gaussian
    envelopes, so the decay hypothesis holds for every exponent.  Each is
    written once, as its array form (``eval_on``, ``grad_on``); its scalar
    calls are rows of it.  A param the kind does not read (``MODEL_PARAMS``)
    is a ValueError.
    """
    unread = sorted(set(params) - set(MODEL_PARAMS.get(kind, params)))
    if unread:
        raise ValueError(f"model {kind!r} reads no {', '.join(unread)}")
    zero2 = np.zeros((2, 2))
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
        return MatrixPotential(
            N=n_ch, eval_on=lambda xs: np.repeat(v_inf[None], len(xs), axis=0),
            grad_on=lambda xs: np.zeros((len(xs), 1, n_ch, n_ch)),
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

        # numpy's exp, as this model always used: it is elementwise the same
        # for any array shape, so rows equal scalar calls
        def _on(xs):
            u = (xs[:, None] - centers) / widths
            return _diagonals(diag_inf + depths * np.exp(-u * u))

        def _grad_on(xs):
            u = (xs[:, None] - centers) / widths
            return _diagonals(depths * np.exp(-u * u) * (-2.0 * u / widths))[:, None]

        return MatrixPotential(N=len(depths), eval_on=_on, grad_on=_grad_on,
                               v_infinity=np.diag(diag_inf), name="diagonal_bumps")

    if kind == "conical_crossing":
        amp = float(params.get("amp", 1.0))
        return MatrixPotential(
            N=2, eval_on=lambda xs: (amp * xs * _gauss(xs))[:, None, None] * SIGMA3,
            grad_on=lambda xs: ((amp * _gauss(xs) * (1.0 - 2.0 * xs * xs))[:, None, None, None]
                                * SIGMA3),
            v_infinity=zero2, name="conical_crossing",
        )

    if kind == "avoided_crossing":
        amp = float(params.get("amp", 1.0))
        gap = float(params["gap"])
        # V = a(x) sigma3 + g sigma1 has the non-diagonal limit g sigma1.
        # Conjugating by the Hadamard-type unitary R = (sigma1 + sigma3)/sqrt(2)
        # swaps sigma1 <-> sigma3, giving V' = a(x) sigma1 + g sigma3 with
        # diagonal limit diag(g, -g) -> sort.
        r = (SIGMA1 + SIGMA3) / math.sqrt(2.0)
        return MatrixPotential(
            N=2,
            eval_on=lambda xs: r @ ((amp * xs * _gauss(xs))[:, None, None] * SIGMA3
                                    + gap * SIGMA1) @ r,
            grad_on=lambda xs: r @ ((amp * _gauss(xs) * (1.0 - 2.0 * xs * xs))[:, None, None, None]
                                    * SIGMA3) @ r,
            v_infinity=np.diag([-gap, gap]), name=f"avoided_crossing(g={gap})",
        )

    if kind == "reference":
        def _envelopes(xs):
            # -(x - 1)^2 by Python's float power, as the scalar form always did
            shifted = np.fromiter((math.exp(-(y ** 2)) for y in (xs - 1.0).tolist()),
                                  float, len(xs))
            return _gauss(xs), shifted

        def _on(xs):
            ex, ex1 = _envelopes(xs)
            out = np.empty((len(xs), 2, 2))
            out[:, 0, 0] = -ex
            out[:, 0, 1] = out[:, 1, 0] = 0.5 * ex
            out[:, 1, 1] = 0.5 * ex1
            return out

        def _grad_on(xs):
            ex, ex1 = _envelopes(xs)
            out = np.empty((len(xs), 1, 2, 2))
            out[:, 0, 0, 0] = 2.0 * xs * ex
            out[:, 0, 0, 1] = out[:, 0, 1, 0] = -xs * ex
            out[:, 0, 1, 1] = -(xs - 1.0) * ex1
            return out

        return MatrixPotential(N=2, eval_on=_on, grad_on=_grad_on, v_infinity=zero2,
                               name="reference")

    if kind == "island":
        amp = float(params.get("amp", 3.0))
        return MatrixPotential(
            N=1, eval_on=lambda xs: (amp * xs * xs * _gauss(xs))[:, None, None],
            grad_on=lambda xs: (2.0 * amp * xs * (1.0 - xs * xs) * _gauss(xs))[:, None, None, None],
            v_infinity=np.zeros((1, 1)), name="island",
        )

    if kind == "rotating_crossing":
        c = float(params.get("c", 1.0))

        def _on(xs):
            field = xs[:, None, None] * SIGMA3 + (c * xs * xs)[:, None, None] * SIGMA1
            return _gauss(xs)[:, None, None] * field

        def _grad_on(xs):
            field = ((1.0 - 2.0 * xs * xs)[:, None, None] * SIGMA3
                     + (2.0 * c * xs * (1.0 - xs * xs))[:, None, None] * SIGMA1)
            return (_gauss(xs)[:, None, None] * field)[:, None]

        return MatrixPotential(N=2, eval_on=_on, grad_on=_grad_on, v_infinity=zero2,
                               name="rotating_crossing")

    raise ValueError(f"unknown model potential kind: {kind!r}")


def combine_potentials(v0: MatrixPotential, v1: MatrixPotential) -> MatrixPotential:
    """V0 + V1, its array form that of the two terms, each evaluated by its ``on``."""
    if v0.N != v1.N:
        raise ValueError("potentials have different channel counts")

    def _eval_on(xs):
        return v0.on(xs) + v1.on(xs)

    def _grad_on(xs):
        return v0.gradient_on(xs) + v1.gradient_on(xs)

    return MatrixPotential(N=v0.N, eval_on=_eval_on, grad_on=_grad_on,
                           v_infinity=v0.v_infinity + v1.v_infinity,
                           name=f"{v0.name}+{v1.name}")
