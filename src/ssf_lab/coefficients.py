"""Closed-form leading coefficients of the spectral-shift expansions.

For a potential with channel branches e_1(x) <= ... <= e_N(x) and limits
thr_k at infinity, this module evaluates

* ``gamma0``  -- the density coefficient
      (omega_n/2) sum_k int [(tau - e_k(x))_+^((n-2)/2) - (tau - thr_k)_+^((n-2)/2)] dx,
* ``a0``      -- its tau-primitive (requires zero limit)
      (omega_n/n) sum_k int [(tau - e_k(x))_+^(n/2) - tau_+^(n/2)] dx,
* ``c0``      -- the weak-pairing coefficient
      (omega_n/2) sum_k int int [f(thr_k + t) - f(e_k(x) + t)] t^((n-2)/2) dt dx,
* ``gamma0_localized`` -- the phase-space localized density (n = 1)
      sum_k int g(x) [k(s_k) + k(-s_k)] / (2 s_k) dx,  s_k = (tau - e_k(x))_+^(1/2),
  for a product cutoff g(x) k(xi): the tau-derivative of its band volume.

Sign bookkeeping: the weak pairing -tr(f(P1) - f(P0)) expands with c0, while
the counting difference N1 - N0 expands with a0 and its derivative gamma0;
consequently c0(f) = -int f(t) gamma0(t) dt (fixed empirically by the
constant-shift case and enforced by the test suite).

Integrands are always formed as pointwise differences so a potential equal to
its own limit yields exact zeros.  The inverse-square-root endpoint
singularities of the n=1 densities are removed by bracketing the turning points
of tau - e_k(x) and substituting x = turning_point +/- u^2 locally.

``gamma0`` and ``a0`` take one tau or an array of them.  One call scans all
branches once on a fixed grid, brackets the turning points of every tau and
channel from that scan, and bisects all brackets in lock-step (one branch
evaluation per step, each root to rounding level).
Every integral of the call then goes through one breadth-first batch of
``adaptive_gauss_batch``, as do the inner energy integrals of ``c0`` and the
cells of ``gamma0_localized``.  The values are bitwise those of one tau, one
channel and one integral at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bumps import ProductCutoff, bump_profile, transition
from .quadrature import adaptive_gauss_batch, gauss_rule
from .symbols import MatrixPotential

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
    """Sorted channel eigenvalues on a 1d coordinate grid, shape (len(xs), N),
    from one ``v.on`` call (for n >= 2 along the first axis)."""
    xs = np.asarray(xs, dtype=float)
    if v.n != 1:
        e1 = np.zeros(v.n)
        e1[0] = 1.0
        xs = xs[:, None] * e1
    mats = v.on(xs)
    mats = 0.5 * (mats + np.conj(np.transpose(mats, (0, 2, 1))))
    return np.linalg.eigvalsh(mats)


def _branch_at(v: MatrixPotential, xs: np.ndarray, k: np.ndarray) -> np.ndarray:
    """e_{k[i]}(xs[i]): one channel per node, each distinct node solved once
    (the integrals of a batch often share their nodes)."""
    nodes, at = np.unique(xs, return_inverse=True)
    return _branch_values(v, nodes)[at, k]


def _taus(tau) -> tuple[np.ndarray, bool]:
    arr = np.asarray(tau, dtype=float)
    return np.atleast_1d(arr).ravel(), arr.ndim == 0


def _bisect(value, a: np.ndarray, b: np.ndarray, fa: np.ndarray) -> np.ndarray:
    """Midpoints of the brackets [a, b] of the sign changes of ``value``,
    bisected in lock-step: ``value(live, m)`` gives the values at the
    midpoints m of the brackets ``live``, one call per step.  A bracket stops
    once its midpoint rounds to one of its ends, so its root is found to
    rounding level, or after 60 steps (a bracket about 0 narrows to 2^-60
    of its width).  ``fa`` holds the values at ``a``; the three arrays are
    updated in place."""
    live = np.arange(a.size)
    for _ in range(60):
        m = 0.5 * (a[live] + b[live])
        inside = (m != a[live]) & (m != b[live])
        live, m = live[inside], m[inside]
        if live.size == 0:
            break
        fm = value(live, m)
        left = fa[live] * fm <= 0.0
        b[live[left]] = m[left]
        a[live[~left]] = m[~left]
        fa[live[~left]] = fm[~left]
    return 0.5 * (a + b)


def _turning_points(v: MatrixPotential, taus: np.ndarray, lo: float, hi: float,
                    scan: int = TURNING_SCAN) -> list[list[list[float]]]:
    """Sorted roots of tau - e_k(x) on [lo, hi] for every tau and channel k.

    One scan of all branches on ``scan`` nodes brackets the roots; all brackets
    are then bisected in lock-step (``_bisect``), one branch evaluation per
    step, until each root is found to rounding level.
    """
    xs = np.linspace(lo, hi, scan)
    vals = taus[:, None, None] - _branch_values(v, xs)[None, :, :]  # (T, scan, N)
    sign = np.sign(vals)
    roots = [[[] for _ in range(v.N)] for _ in taus]
    for t, i, k in zip(*np.nonzero(sign == 0.0)):
        roots[t][k].append(float(xs[i]))
    bt, bi, bk = np.nonzero(sign[:, :-1, :] * sign[:, 1:, :] < 0.0)
    tau_b = taus[bt]
    found = _bisect(lambda live, m: tau_b[live] - _branch_at(v, m, bk[live]),
                    xs[bi], xs[bi + 1], vals[bt, bi, bk])
    for t, k, r in zip(bt, bk, found):
        roots[t][k].append(float(r))
    return [[sorted(rk) for rk in rt] for rt in roots]


def _power_differences(v: MatrixPotential, taus: np.ndarray, consts: np.ndarray,
                       exponent: float, weight, roots, lo: float, hi: float,
                       atol: float) -> np.ndarray:
    """int_lo^hi w(x) [(tau - e_k(x))_+^exponent - consts[t, k]] dx for every
    tau and channel, shape (T, N), as one batch with the turning points as
    breakpoints."""
    count = taus.size * v.N
    tau_o = np.repeat(taus, v.N)
    k_o = np.tile(np.arange(v.N), taus.size)
    c_o = consts.ravel()

    def diff(owner, xs):
        base = np.clip(tau_o[owner] - _branch_at(v, xs, k_o[owner]), 0.0, None)
        vals = base ** exponent - c_o[owner]
        return vals if weight is None else weight(xs) * vals

    out = adaptive_gauss_batch(diff, np.full(count, lo), np.full(count, hi), atol,
                               breakpoints=[pts for rt in roots for pts in rt])
    return out.reshape(taus.size, v.N)


_PLAIN, _FROM_LEFT, _FROM_RIGHT = 0, 1, 2


def _singular_differences(v: MatrixPotential, taus: np.ndarray, c_inf: np.ndarray,
                          roots, lo: float, hi: float, atol: float,
                          weight=None) -> np.ndarray:
    """int_lo^hi [w(x, b) b^(-1/2) - c_inf[t, k]] dx with b = (tau - e_k(x))_+
    for every tau and channel, shape (T, N); w is 1 if ``weight`` is None.

    The turning points cut [lo, hi] into cells.  On cells where the positive
    part vanishes the contribution is the exact constant -c_inf * (cell
    measure); each positive cell is integrated in two halves, and a half that
    ends at a turning point is substituted x = turning_point +/- u^2, which
    removes the endpoint singularity.  The integrand is formed as a pointwise
    difference so a branch bitwise equal to its limit integrates to exactly
    zero.  All halves of all cells are one batch; each (tau, k) sums its
    terms in cell order.
    """
    cells = []  # (t, k, a, b)
    for t, rt in enumerate(roots):
        for k, pts in enumerate(rt):
            edges = [lo] + [p for p in pts if lo < p < hi] + [hi]
            cells += [(t, k, a, b) for a, b in zip(edges[:-1], edges[1:]) if b - a >= 1e-13]
    mid_vals = []
    if cells:
        t_c, k_c, a_c, b_c = (np.array(col) for col in zip(*cells))
        mid_vals = taus[t_c] - _branch_at(v, 0.5 * (a_c + b_c), k_c)
    terms = [[[] for _ in range(v.N)] for _ in taus]
    spec = []  # (t, k, kind, anchor, lower, upper)
    for (t, k, a, b), mid_val in zip(cells, mid_vals):
        c = float(c_inf[t, k])
        if mid_val <= 0.0:
            if c != 0.0:
                terms[t][k].append(-c * (b - a))
            continue
        pts = roots[t][k]
        m = 0.5 * (a + b)
        terms[t][k].append(len(spec))
        if any(abs(a - p) < 1e-9 for p in pts):
            spec.append((t, k, _FROM_LEFT, a, 0.0, math.sqrt(m - a)))
        else:
            spec.append((t, k, _PLAIN, 0.0, a, m))
        terms[t][k].append(len(spec))
        if any(abs(b - p) < 1e-9 for p in pts):
            spec.append((t, k, _FROM_RIGHT, b, 0.0, math.sqrt(b - m)))
        else:
            spec.append((t, k, _PLAIN, 0.0, m, b))
    values = []
    if spec:
        t_o, k_o, kind, anchor, lower, upper = (np.array(col) for col in zip(*spec))
        tau_o = taus[t_o]
        c_o = c_inf[t_o, k_o]

        def integrand(owner, u):
            kd = kind[owner]
            xs = np.where(kd == _FROM_LEFT, anchor[owner] + u * u,
                          np.where(kd == _FROM_RIGHT, anchor[owner] - u * u, u))
            base = np.clip(tau_o[owner] - _branch_at(v, xs, k_o[owner]), 0.0, None)
            with np.errstate(divide="ignore"):
                vals = np.where(base > 0.0, base ** -0.5, 0.0)
            if weight is not None:
                vals = weight(xs, base) * vals
            return np.where(kd == _PLAIN, vals - c_o[owner], 2.0 * u * (vals - c_o[owner]))

        values = adaptive_gauss_batch(integrand, lower, upper, atol)
    out = np.zeros((taus.size, v.N))
    for t, rt in enumerate(terms):
        for k, tk in enumerate(rt):
            total = 0.0
            for term in tk:
                total += term if isinstance(term, float) else float(values[term])
            out[t, k] = total
    return out


def _radial_weight(n: int):
    if n == 1:
        return None
    return lambda xs: sphere_volume(n) * np.asarray(xs, dtype=float) ** (n - 1)


def _coordinate_range(v: MatrixPotential):
    if v.n == 1:
        return (-DEFAULT_BOX_RADIUS, DEFAULT_BOX_RADIUS)
    if not v.radial:
        raise NotImplementedError("n >= 2 coefficients need a radial potential")
    return (0.0, DEFAULT_BOX_RADIUS)


def _channel_sum(parts: np.ndarray) -> np.ndarray:
    """Sum of (T, N) per-channel parts over channels, in channel order."""
    total = np.zeros(parts.shape[0])
    for k in range(parts.shape[1]):
        total += parts[:, k]
    return total


def gamma0(v: MatrixPotential, tau, atol: float = 1e-10):
    """Leading density coefficient at energy tau (a float, or an array of tau).

    Rejects tau within 1e-6 of a channel limit: there the integrand
    difference fails to be integrable.
    """
    n = v.n
    if n not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    taus, scalar = _taus(tau)
    thresholds = v.thresholds()
    for t in taus:
        if np.min(np.abs(t - thresholds)) < 1e-6:
            raise ThresholdError(f"tau={float(t)} is within 1e-06 of a channel limit")
    lo, hi = _coordinate_range(v)
    exponent = 0.5 * (n - 2)
    c_inf = np.array([[(float(t) - float(thr)) ** exponent if t > thr else 0.0
                       for thr in thresholds] for t in taus]).reshape(taus.size, v.N)
    roots = _turning_points(v, taus, lo, hi)
    if exponent < 0.0:
        parts = _singular_differences(v, taus, c_inf, roots, lo, hi, atol)
    else:
        parts = _power_differences(v, taus, c_inf, exponent, _radial_weight(n), roots,
                                   lo, hi, atol)
    out = 0.5 * sphere_volume(n) * _channel_sum(parts)
    return float(out[0]) if scalar else out


def a0(v: MatrixPotential, tau, atol: float = 1e-10):
    """Leading coefficient of the counting difference (a float, or an array
    of tau); needs a zero limit and rejects tau within 1e-6 of 0."""
    n = v.n
    if n not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    if float(np.max(np.abs(v.v_infinity))) > 1e-13:
        raise ValueError("a0 requires the potential limit to be zero")
    taus, scalar = _taus(tau)
    for t in taus:
        if abs(t) < 1e-6:
            raise ThresholdError(f"tau={float(t)} is too close to the threshold 0")
    lo, hi = _coordinate_range(v)
    exponent = 0.5 * n
    tau_pow = np.array([float(t) ** exponent if t > 0.0 else 0.0 for t in taus])
    roots = _turning_points(v, taus, lo, hi)
    parts = _power_differences(v, taus, np.repeat(tau_pow[:, None], v.N, axis=1),
                               exponent, _radial_weight(n), roots, lo, hi, atol)
    out = sphere_volume(n) / n * _channel_sum(parts)
    return float(out[0]) if scalar else out


def c0(v: MatrixPotential, f: TestFunction, atol: float = 1e-9) -> float:
    """Weak-pairing coefficient: pairs with -tr(f(P1) - f(P0)).

    The inner energy integral runs over t in (0, inf) restricted to where
    either argument meets supp f; the substitution u^2 = t regularizes the
    n = 1 endpoint and gives int g(t) t^((n-2)/2) dt = 2 int g(u^2) u^(n-1) du
    in every dimension.  Each evaluation of the outer x-integrand computes the
    inner integrals of all its nodes and channels as one batch.
    """
    n = v.n
    if n not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    lo, hi = _coordinate_range(v)
    weight = _radial_weight(n)
    beta = f.support[1]
    thresholds = v.thresholds()

    def outer(owner, xs):
        evals = _branch_values(v, xs)
        thr = np.broadcast_to(thresholds, evals.shape)
        u_hi = np.sqrt(np.maximum(0.0, beta - np.minimum(evals, thr)))
        node, channel = np.nonzero(u_hi > 0.0)
        e_o, t_o = evals[node, channel], thr[node, channel]

        def g(j, us):
            t = us * us
            return 2.0 * us ** (n - 1) * (f(t_o[j] + t) - f(e_o[j] + t))

        inner = adaptive_gauss_batch(g, np.zeros(node.size), u_hi[node, channel], atol)
        vals = np.zeros(xs.size)
        for k in range(v.N):  # each node sums its channels in order
            vals[node[channel == k]] += inner[channel == k]
        return vals if weight is None else weight(xs) * vals

    value = float(adaptive_gauss_batch(outer, [lo], [hi], atol)[0])
    return 0.5 * sphere_volume(n) * value


def gamma0_localized(v: MatrixPotential, chi: ProductCutoff, tau: float,
                     atol: float = 1e-11) -> float:
    """Phase-space localized density at energy tau for n = 1,

        sum_k int g(x) [k(s_k) + k(-s_k)] / (2 s_k) dx,  s_k = sqrt(tau - e_k(x)),

    over {e_k(x) < tau} within supp g, for the product cutoff chi = g(x) k(xi).
    It is the tau-derivative of the cutoff band volume of xi^2 + V(x), taken
    in closed form: the localized Weyl density of states (Dimassi-Sjostrand,
    Spectral Asymptotics in the Semi-Classical Limit, 1999).  The turning
    points of the branches in supp g and their endpoint substitution are
    those of ``gamma0``, and all cells are one batch.

    Raises QuadratureError where the integral does not converge, as at a
    branch critical value inside supp g, where it diverges.
    """
    if v.n != 1:
        raise NotImplementedError("the localized density is implemented for n = 1")
    taus = np.array([float(tau)])
    lo, hi = chi.x_support

    def weight(xs, base):
        s = np.sqrt(base)
        return 0.5 * chi.g(xs) * (chi.k(s) + chi.k(-s))

    parts = _singular_differences(v, taus, np.zeros((1, v.N)), _turning_points(v, taus, lo, hi),
                                  lo, hi, atol, weight)
    return float(_channel_sum(parts)[0])


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


def coefficient_profile(v: MatrixPotential, taus, atol: float = 1e-10) -> CoefficientProfile:
    taus = np.asarray(taus, dtype=float)
    return CoefficientProfile(tau_grid=taus, gamma0=gamma0(v, taus, atol=atol),
                              a0=a0(v, taus, atol=atol), n=v.n)
