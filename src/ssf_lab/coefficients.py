"""Closed-form leading coefficients of the spectral-shift expansions.

For a potential with channel branches e_1(x) <= ... <= e_N(x) and limits
thr_k at infinity, this module evaluates

* ``gamma0``  -- the density coefficient
      (omega_n/2) sum_k int [(tau - e_k(x))_+^((n-2)/2) - (tau - thr_k)_+^((n-2)/2)] dx,
* ``a0``      -- its tau-primitive (requires zero limit)
      (omega_n/n) sum_k int [(tau - e_k(x))_+^(n/2) - tau_+^(n/2)] dx,
* ``c0``      -- the weak-pairing coefficient
      (omega_n/2) sum_k int int [f(thr_k + t) - f(e_k(x) + t)] t^((n-2)/2) dt dx,
* ``gamma0_localized`` -- the phase-space localized density, realized as the
  tau-derivative of the cutoff band volume of the symbol.

Sign bookkeeping: the weak pairing -tr(f(P1) - f(P0)) expands with c0, while
the counting difference N1 - N0 expands with a0 and its derivative gamma0;
consequently c0(f) = -int f(t) gamma0(t) dt (fixed empirically by the
constant-shift case and enforced by the test suite).

Integrands are always formed as pointwise differences so a potential equal to
its own limit yields exact zeros.  The inverse-square-root endpoint
singularities of the n=1 density are removed by bracketing the turning points
of tau - e_k(x) (scan grid plus bisection to 1e-12) and substituting
x = turning_point +/- u^2 locally.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .bumps import ProductCutoff, bump_profile, transition
from .quadrature import adaptive_gauss, gauss_rule
from .symbols import MatrixPotential, MatrixSymbol, fast_eigvalsh

__all__ = [
    "ThresholdError",
    "TestFunction",
    "bump_test_function",
    "plateau_test_function",
    "raised_cosine_test_function",
    "sphere_volume",
    "gamma0",
    "a0",
    "c0",
    "gamma0_localized",
    "LocalizedDensity",
    "CoefficientProfile",
    "coefficient_profile",
]

DEFAULT_BOX_RADIUS = 8.0  # model potentials are flat to < 1e-12 outside
TURNING_SCAN = 2048


class ThresholdError(ValueError):
    """tau is too close to a channel limit; the integrand difference is not integrable."""


@dataclass(frozen=True)
class TestFunction:
    """Smooth real test function with compact support [alpha, beta]."""

    support: tuple[float, float]
    eval: Callable
    kind: str = "bump"
    _nodes: np.ndarray = field(default=None, repr=False, compare=False)
    _weights: np.ndarray = field(default=None, repr=False, compare=False)

    def __call__(self, t):
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        a, b = self.support
        out = np.zeros_like(arr)
        inside = (arr > a) & (arr < b)
        if np.any(inside):
            out[inside] = self.eval(arr[inside])
        if np.ndim(t) == 0:
            return float(out[0])
        return out

    def quadrature(self, order: int = 200):
        """Cached Gauss nodes and weights on the support."""
        if self._nodes is None:
            xn, xw = gauss_rule(order)
            a, b = self.support
            nodes = 0.5 * (a + b) + 0.5 * (b - a) * xn
            weights = 0.5 * (b - a) * xw
            object.__setattr__(self, "_nodes", nodes)
            object.__setattr__(self, "_weights", weights)
        return self._nodes, self._weights

    def integral(self) -> float:
        nodes, weights = self.quadrature()
        return float(np.sum(weights * self(nodes)))

    def shifted(self, s: float) -> "TestFunction":
        a, b = self.support
        inner = self.eval
        return TestFunction(support=(a + s, b + s),
                           eval=lambda t: inner(np.asarray(t) - s),
                           kind=self.kind)


def bump_test_function(support: tuple[float, float]) -> TestFunction:
    a, b = support
    if not b > a:
        raise ValueError("empty support")
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return TestFunction(support=(a, b),
                        eval=lambda t: bump_profile((np.asarray(t) - mid) / half),
                        kind="bump")


def plateau_test_function(support: tuple[float, float],
                          plateau: tuple[float, float] | None = None) -> TestFunction:
    """Equal to 1 on the plateau, smooth monotone shoulders down to 0."""
    a, b = support
    if plateau is None:
        w = 0.25 * (b - a)
        plateau = (a + w, b - w)
    p_lo, p_hi = plateau
    if not (a < p_lo < p_hi < b):
        raise ValueError("plateau must sit strictly inside the support")

    def _eval(t):
        t = np.asarray(t, dtype=float)
        left = transition((p_lo - t) / (p_lo - a))
        right = transition((t - p_hi) / (b - p_hi))
        return left * right

    return TestFunction(support=(a, b), eval=_eval, kind="plateau")


def raised_cosine_test_function(support: tuple[float, float]) -> TestFunction:
    a, b = support
    mid, half = 0.5 * (a + b), 0.5 * (b - a)

    def _eval(t):
        u = (np.asarray(t, dtype=float) - mid) / half
        return 0.5 * (1.0 + np.cos(np.pi * np.clip(u, -1.0, 1.0)))

    return TestFunction(support=(a, b), eval=_eval, kind="raised_cosine")


def sphere_volume(n: int) -> float:
    """omega_n, the measure of the unit sphere S^(n-1): 2, 2*pi, 4*pi, ..."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _branch_values(v: MatrixPotential, xs: np.ndarray) -> np.ndarray:
    """Sorted channel eigenvalues on a 1d coordinate grid, shape (len(xs), N)."""
    if v.n == 1:
        mats = np.stack([np.asarray(v.eval(float(x))) for x in xs])
    else:
        e1 = np.zeros(v.n)
        e1[0] = 1.0
        mats = np.stack([np.asarray(v.eval(float(x) * e1)) for x in xs])
    mats = 0.5 * (mats + np.conj(np.transpose(mats, (0, 2, 1))))
    return np.linalg.eigvalsh(mats)


def _branch_fn(v: MatrixPotential, k: int):
    def fn(xs):
        return _branch_values(v, np.atleast_1d(np.asarray(xs, dtype=float)))[:, k]
    return fn


def _turning_points(branch, tau: float, lo: float, hi: float,
                    scan: int = TURNING_SCAN) -> list[float]:
    """Roots of tau - e_k(x) on [lo, hi]: bracket on a scan grid, bisect to 1e-12."""
    xs = np.linspace(lo, hi, scan)
    vals = tau - branch(xs)
    roots = []
    sign = np.sign(vals)
    for i in range(len(xs) - 1):
        if sign[i] == 0.0:
            roots.append(float(xs[i]))
            continue
        if sign[i] * sign[i + 1] < 0.0:
            a, b = float(xs[i]), float(xs[i + 1])
            fa = float(vals[i])
            for _ in range(60):
                m = 0.5 * (a + b)
                fm = tau - float(branch(np.array([m]))[0])
                if fa * fm <= 0.0:
                    b = m
                else:
                    a, fa = m, fm
                if b - a < 1e-12:
                    break
            roots.append(0.5 * (a + b))
    if sign[-1] == 0.0:
        roots.append(float(xs[-1]))
    return sorted(roots)


def _integrate_singular_difference(branch, tau: float, c_inf: float,
                                   lo: float, hi: float, atol: float,
                                   weight=None) -> float:
    """int_lo^hi w(x) [(tau - e(x))_+^(-1/2) - c_inf] dx, turning points handled.

    ``weight`` defaults to 1.  On cells where the positive part vanishes the
    contribution is the exact constant -c_inf * (cell measure); on positive
    cells the local substitution x = turning_point +/- u^2 removes the
    endpoint singularity.  The integrand is formed as a pointwise difference
    so a branch bitwise equal to its limit integrates to exactly zero.
    """
    w = weight if weight is not None else (lambda x: np.ones_like(np.asarray(x, float)))
    pts = _turning_points(branch, tau, lo, hi)
    edges = [lo] + [p for p in pts if lo < p < hi] + [hi]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a < 1e-13:
            continue
        mid_val = tau - float(branch(np.array([0.5 * (a + b)]))[0])
        if mid_val <= 0.0:
            if c_inf != 0.0:
                if weight is None:
                    total += -c_inf * (b - a)
                else:
                    total += adaptive_gauss(lambda xs: -c_inf * w(xs), a, b, atol=atol)
            continue
        a_sing = any(abs(a - p) < 1e-9 for p in pts)
        b_sing = any(abs(b - p) < 1e-9 for p in pts)

        def plain(xs):
            xs = np.asarray(xs, dtype=float)
            base = np.clip(tau - branch(xs), 0.0, None)
            with np.errstate(divide="ignore"):
                vals = np.where(base > 0.0, base ** -0.5, 0.0)
            return w(xs) * (vals - c_inf)

        m = 0.5 * (a + b)
        if a_sing:
            def left(u):
                u = np.asarray(u, dtype=float)
                xs = a + u * u
                base = np.clip(tau - branch(xs), 0.0, None)
                with np.errstate(divide="ignore"):
                    vals = np.where(base > 0.0, base ** -0.5, 0.0)
                return 2.0 * u * w(xs) * (vals - c_inf)
            total += adaptive_gauss(left, 0.0, math.sqrt(m - a), atol=atol)
        else:
            total += adaptive_gauss(plain, a, m, atol=atol)
        if b_sing:
            def right(u):
                u = np.asarray(u, dtype=float)
                xs = b - u * u
                base = np.clip(tau - branch(xs), 0.0, None)
                with np.errstate(divide="ignore"):
                    vals = np.where(base > 0.0, base ** -0.5, 0.0)
                return 2.0 * u * w(xs) * (vals - c_inf)
            total += adaptive_gauss(right, 0.0, math.sqrt(b - m), atol=atol)
        else:
            total += adaptive_gauss(plain, m, b, atol=atol)
    return total


def _radial_weight(n: int):
    if n == 1:
        return None
    return lambda xs: sphere_volume(n) * np.asarray(xs, dtype=float) ** (n - 1)


def _coordinate_range(v: MatrixPotential, x_range):
    if x_range is not None:
        return x_range
    if v.n == 1:
        return (-DEFAULT_BOX_RADIUS, DEFAULT_BOX_RADIUS)
    if not v.radial:
        raise NotImplementedError("n >= 2 coefficients need a radial potential")
    return (0.0, DEFAULT_BOX_RADIUS)


def gamma0(v: MatrixPotential, tau: float, n: int | None = None,
           atol: float = 1e-10, x_range=None, threshold_tol: float = 1e-6) -> float:
    """Leading density coefficient at energy tau.

    Rejects tau within ``threshold_tol`` of a channel limit: there the
    integrand difference fails to be integrable.
    """
    n = v.n if n is None else n
    if n not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    thresholds = v.thresholds()
    if np.min(np.abs(tau - thresholds)) < threshold_tol:
        raise ThresholdError(f"tau={tau} is within {threshold_tol} of a channel limit")
    lo, hi = _coordinate_range(v, x_range)
    weight = _radial_weight(n)
    exponent = 0.5 * (n - 2)
    total = 0.0
    for k in range(v.N):
        thr = float(thresholds[k])
        c_inf = (tau - thr) ** exponent if tau > thr else 0.0
        branch = _branch_fn(v, k)

        if exponent < 0.0:
            total += _integrate_singular_difference(branch, tau, c_inf, lo, hi,
                                                    atol=atol, weight=weight)
        else:
            def diff(xs, _b=branch, _c=c_inf):
                xs = np.asarray(xs, dtype=float)
                base = np.clip(tau - _b(xs), 0.0, None)
                vals = base ** exponent
                wgt = np.ones_like(xs) if weight is None else weight(xs)
                return wgt * (vals - _c)

            pts = _turning_points(branch, tau, lo, hi)
            total += adaptive_gauss(diff, lo, hi, atol=atol, breakpoints=pts)
    return 0.5 * sphere_volume(n) * total


def a0(v: MatrixPotential, tau: float, n: int | None = None,
       atol: float = 1e-10, x_range=None, threshold_tol: float = 1e-6) -> float:
    """Leading coefficient of the counting difference; needs a zero limit."""
    n = v.n if n is None else n
    if n not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    if float(np.max(np.abs(v.v_infinity))) > 1e-13:
        raise ValueError("a0 requires the potential limit to be zero")
    if abs(tau) < threshold_tol:
        raise ThresholdError(f"tau={tau} is too close to the threshold 0")
    lo, hi = _coordinate_range(v, x_range)
    weight = _radial_weight(n)
    exponent = 0.5 * n
    tau_pow = tau ** exponent if tau > 0.0 else 0.0
    total = 0.0
    for k in range(v.N):
        branch = _branch_fn(v, k)

        def diff(xs, _b=branch):
            xs = np.asarray(xs, dtype=float)
            base = np.clip(tau - _b(xs), 0.0, None)
            wgt = np.ones_like(xs) if weight is None else weight(xs)
            return wgt * (base ** exponent - tau_pow)

        pts = _turning_points(branch, tau, lo, hi)
        total += adaptive_gauss(diff, lo, hi, atol=atol, breakpoints=pts)
    return sphere_volume(n) / n * total


def c0(v: MatrixPotential, f: TestFunction, n: int | None = None,
       atol: float = 1e-9, x_range=None) -> float:
    """Weak-pairing coefficient: pairs with -tr(f(P1) - f(P0)).

    The inner energy integral runs over t in (0, inf) restricted to where
    either argument meets supp f; the substitution u^2 = t regularizes the
    n = 1 endpoint and gives int g(t) t^((n-2)/2) dt = 2 int g(u^2) u^(n-1) du
    in every dimension.
    """
    n = v.n if n is None else n
    if n not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    lo, hi = _coordinate_range(v, x_range)
    weight = _radial_weight(n)
    alpha, beta = f.support
    thresholds = v.thresholds()

    def inner(x: float) -> float:
        evals = _branch_values(v, np.array([x]))[0]
        total = 0.0
        for k in range(v.N):
            thr = float(thresholds[k])
            ek = float(evals[k])
            u_hi = math.sqrt(max(0.0, beta - min(ek, thr)))
            if u_hi <= 0.0:
                continue

            def g(us, _e=ek, _t=thr):
                us = np.asarray(us, dtype=float)
                t = us * us
                return 2.0 * us ** (n - 1) * (f(_t + t) - f(_e + t))

            total += adaptive_gauss(g, 0.0, u_hi, atol=atol)
        return total

    def outer(xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        vals = np.array([inner(float(x)) for x in xs])
        wgt = np.ones_like(xs) if weight is None else weight(xs)
        return wgt * vals

    value = adaptive_gauss(outer, lo, hi, atol=atol)
    return 0.5 * sphere_volume(n) * value


def _ray_point(v: MatrixPotential, r: float):
    e1 = np.zeros(v.n)
    e1[0] = 1.0
    return r * e1


@dataclass(frozen=True)
class LocalizedDensity:
    value: float
    converged: bool
    estimates: np.ndarray
    steps: np.ndarray


class _BranchGrid(NamedTuple):
    """Sorted symbol branches on the Gauss x-nodes times an xi scan."""

    x: np.ndarray        # (x_order,) Gauss nodes on chi's x-support
    w: np.ndarray        # (x_order,) Gauss weights on [-1, 1]
    xis: np.ndarray      # (scan,) uniform scan of chi's xi-support
    values: np.ndarray   # (x_order, scan, N) branch values


def _branch_grid(p: MatrixSymbol, chi: ProductCutoff, x_order: int,
                 scan: int) -> _BranchGrid:
    """The tau-independent branch scan shared by every band volume of one symbol."""
    if p.n != 1:
        raise NotImplementedError("band volume is implemented for n = 1")
    (xa, xb) = chi.x_support
    (qa, qb) = chi.xi_support
    xn, xw = gauss_rule(x_order)
    xm = 0.5 * (xa + xb) + 0.5 * (xb - xa) * xn
    xis = np.linspace(qa, qb, scan)
    mats = np.stack([np.asarray(p.eval(float(x), float(q))) for x in xm for q in xis])
    mats = 0.5 * (mats + np.conj(np.transpose(mats, (0, 2, 1))))
    values = np.linalg.eigvalsh(mats).reshape(len(xm), len(xis), p.N)
    return _BranchGrid(x=xm, w=xw, xis=xis, values=values)


def _band_volume(p: MatrixSymbol, chi: ProductCutoff, tau: float,
                 grid: _BranchGrid, atol: float) -> float:
    """Omega(tau) = int chi(x, xi) #{k : branch_k(x, xi) <= tau} dx dxi.

    ``grid`` is ``_branch_grid(p, chi, ...)``; the scan brackets the branch
    crossings of tau, which are then bisected on p itself.
    """
    (xa, xb) = chi.x_support
    (qa, qb) = chi.xi_support
    xis = grid.xis
    total = 0.0
    for x, wx, branch_grid in zip(grid.x, grid.w, grid.values):
        cell = 0.0
        for k in range(p.N):
            vals = branch_grid[:, k] - tau

            def hk(q, _k=k, _x=x):
                m = np.asarray(p.eval(float(_x), float(q)))
                return float(fast_eigvalsh(0.5 * (m + m.conj().T))[_k]) - tau

            roots = []
            head, tail = vals[:-1], vals[1:]
            for i in np.flatnonzero((head == 0.0) | (head * tail < 0.0)):
                if vals[i] == 0.0:
                    roots.append(float(xis[i]))
                else:
                    a, b = float(xis[i]), float(xis[i + 1])
                    fa = float(vals[i])
                    for _ in range(60):
                        mq = 0.5 * (a + b)
                        fm = hk(mq)
                        if fa * fm <= 0.0:
                            b = mq
                        else:
                            a, fa = mq, fm
                        if b - a < 1e-12:
                            break
                    roots.append(0.5 * (a + b))
            edges = [qa] + roots + [qb]
            for a, b in zip(edges[:-1], edges[1:]):
                if b - a < 1e-13:
                    continue
                if hk(0.5 * (a + b)) <= 0.0:
                    cell += adaptive_gauss(lambda q: chi.k(q), a, b, atol=atol)
        total += wx * chi.g(float(x)) * cell
    return 0.5 * (xb - xa) * total


def gamma0_localized(p: MatrixSymbol, chi: ProductCutoff, tau: float,
                     dtau: float = 0.02, rtol: float = 1e-5,
                     x_order: int = 96, scan: int = 1024,
                     atol: float = 1e-11, max_halvings: int = 10) -> LocalizedDensity:
    """tau-derivative of the cutoff band volume by step-halved central
    differences with Richardson acceleration.

    Flags non-convergence (typically tau at a branch critical value) instead
    of raising.
    """
    grid = _branch_grid(p, chi, x_order, scan)

    def central(step: float) -> float:
        up = _band_volume(p, chi, tau + step, grid, atol)
        dn = _band_volume(p, chi, tau - step, grid, atol)
        return (up - dn) / (2.0 * step)

    steps = [dtau]
    d_vals = [central(dtau)]
    extrapolated = []
    converged = False
    for i in range(1, max_halvings + 1):
        step = dtau / 2**i
        steps.append(step)
        d_vals.append(central(step))
        rich = (4.0 * d_vals[-1] - d_vals[-2]) / 3.0
        if extrapolated and abs(rich - extrapolated[-1]) <= rtol * max(abs(rich), 1e-14):
            extrapolated.append(rich)
            converged = True
            break
        extrapolated.append(rich)
    return LocalizedDensity(value=float(extrapolated[-1]), converged=converged,
                            estimates=np.asarray(extrapolated),
                            steps=np.asarray(steps))


@dataclass(frozen=True)
class CoefficientProfile:
    """gamma0 and a0 sampled on an energy grid."""

    tau_grid: np.ndarray
    gamma0: np.ndarray
    a0: np.ndarray
    n: int

    @property
    def omega_n(self) -> float:
        return sphere_volume(self.n)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("tau,gamma0,a0\n")
            for t, g, aa in zip(self.tau_grid, self.gamma0, self.a0):
                fh.write(f"{t!r},{g!r},{aa!r}\n")


def coefficient_profile(v: MatrixPotential, taus, n: int | None = None,
                        atol: float = 1e-10) -> CoefficientProfile:
    taus = np.asarray(taus, dtype=float)
    n = v.n if n is None else n
    g = np.array([gamma0(v, float(t), n=n, atol=atol) for t in taus])
    aa = np.array([a0(v, float(t), n=n, atol=atol) for t in taus])
    return CoefficientProfile(tau_grid=taus, gamma0=g, a0=aa, n=n)
