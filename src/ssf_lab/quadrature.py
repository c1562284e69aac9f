"""Deterministic Gauss-Legendre quadrature with adaptive bisection.

The adaptive driver compares an embedded 15/31-point Gauss pair per panel and
bisects until the panel error estimate clears its share of the tolerance.  It
integrates many independent intervals at once, breadth first: at each depth a
single call of the integrand evaluates both rules on every live panel of every
interval.  Accepted panel values are then summed bottom up, each split panel
as ``left + right``, which is exactly the order of a depth-first recursion, so
results are bitwise reproducible run to run and independent of how many
intervals share a batch.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_rule",
    "fixed_gauss",
    "adaptive_gauss",
    "adaptive_gauss_batch",
    "tensor_gauss_2d",
    "QuadratureError",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge within its depth budget."""


@lru_cache(maxsize=64)
def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def fixed_gauss(f, a: float, b: float, order: int = 40) -> float:
    """Single-panel Gauss-Legendre; f must accept an array of nodes."""
    nodes, weights = gauss_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return float(half * np.sum(weights * np.asarray(f(mid + half * nodes))))


def adaptive_gauss(
    f,
    a: float,
    b: float,
    atol: float = 1e-10,
    rtol: float = 1e-10,
    max_depth: int = 48,
    breakpoints=(),
) -> float:
    """Adaptive Gauss-Legendre of f(x) on [a, b]; optional interior breakpoints.

    One interval of ``adaptive_gauss_batch``; callers with more than one
    integral should batch them instead.
    """
    return float(adaptive_gauss_batch(lambda owner, x: f(x), [a], [b], atol, rtol,
                                      max_depth, [breakpoints])[0])


def adaptive_gauss_batch(f, a, b, atol: float = 1e-10, rtol: float = 1e-10,
                         max_depth: int = 48, breakpoints=None) -> np.ndarray:
    """Integrals of f over the K intervals [a[i], b[i]], computed together.

    ``f(owner, x)`` gets a 1-d array of nodes and the index i of the interval
    each node belongs to, and returns the integrand values at those nodes.
    ``breakpoints``, if given, holds one sequence of interior breakpoints per
    interval.

    Each interval is split at its breakpoints into segments that share its
    absolute tolerance equally and are summed left to right.  A panel is
    accepted when its error estimate is at most max(atol, rtol*|value|,
    floor), the panel budget atol halving with each bisection; the floor is
    one percent of ``atol``, so deep slivers near regularized endpoints are
    accepted instead of chasing impossible budgets.  A panel still above 1000
    times its tolerance at ``max_depth`` raises QuadratureError.  A reversed
    interval gives the negated integral, an empty one exactly 0.0.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    count = a.size
    seg_owner, seg_lo, seg_hi, seg_atol, seg_pos = [], [], [], [], []
    for i in range(count):
        lo, hi = (a[i], b[i]) if a[i] <= b[i] else (b[i], a[i])
        if lo == hi:
            continue
        inner = () if breakpoints is None else breakpoints[i]
        cuts = sorted({float(lo), float(hi), *(float(p) for p in inner if lo < p < hi)})
        share = atol / max(1, len(cuts) - 1)
        for j, (c0, c1) in enumerate(zip(cuts[:-1], cuts[1:])):
            seg_owner.append(i)
            seg_lo.append(c0)
            seg_hi.append(c1)
            seg_atol.append(share)
            seg_pos.append(j)
    seg_owner = np.asarray(seg_owner, dtype=np.intp)
    seg_pos = np.asarray(seg_pos, dtype=np.intp)
    values = _breadth_first(f, seg_owner, np.asarray(seg_lo, dtype=float),
                            np.asarray(seg_hi, dtype=float),
                            np.asarray(seg_atol, dtype=float), 0.01 * atol, rtol,
                            max_depth)
    total = np.zeros(count)
    for j in range(int(seg_pos.max()) + 1 if seg_pos.size else 0):
        at = seg_pos == j
        total[seg_owner[at]] += values[at]
    return np.where(b < a, -total, total)


def _breadth_first(f, owner, a, b, atol, floor, rtol, max_depth) -> np.ndarray:
    """Adaptive values of the panels [a, b], one tree level per integrand call."""
    n15, w15 = gauss_rule(15)
    n31, w31 = gauss_rule(31)
    levels = []  # per depth: (panel values, mask of split panels)
    for depth in range(max_depth + 1):
        if a.size == 0:
            break
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x15 = mid[:, None] + half[:, None] * n15
        x31 = mid[:, None] + half[:, None] * n31
        x = np.concatenate([x15.ravel(), x31.ravel()])
        fx = np.broadcast_to(np.asarray(
            f(np.concatenate([np.repeat(owner, 15), np.repeat(owner, 31)]), x), dtype=float),
            x.shape)
        cut = 15 * a.size
        lo = half * np.sum(w15 * fx[:cut].reshape(-1, 15), axis=1)
        hi = half * np.sum(w31 * fx[cut:].reshape(-1, 31), axis=1)
        err = np.abs(hi - lo)
        tol = np.fmax(np.fmax(atol, rtol * np.abs(hi)), floor)
        if depth == max_depth:
            bad = np.flatnonzero(err > 1e3 * tol)
            if bad.size:
                i = bad[0]
                raise QuadratureError(
                    f"panel [{a[i]}, {b[i]}] error {err[i]:.3e} above tolerance at max depth"
                )
            split = np.zeros(a.size, dtype=bool)
        else:
            split = ~(err <= tol)
        levels.append((hi, split))
        # children of the split panels, interleaved left, right
        a, b, m = a[split], b[split], mid[split]
        a, b = np.stack([a, m], axis=1).ravel(), np.stack([m, b], axis=1).ravel()
        owner = np.repeat(owner[split], 2)
        atol = np.repeat(0.5 * atol[split], 2)
    below = None
    for values, split in reversed(levels):
        if below is not None:
            values[split] = below[0::2] + below[1::2]
        below = values
    return below if below is not None else np.zeros(0)


def tensor_gauss_2d(f, x_range, y_range, nx: int = 80, ny: int = 80) -> float:
    """Tensor-product Gauss rule for smooth f(x, y) on a box.

    f is called with broadcastable arrays (nx, 1) and (1, ny).
    """
    xn, xw = gauss_rule(nx)
    yn, yw = gauss_rule(ny)
    xa, xb = x_range
    ya, yb = y_range
    xm = 0.5 * (xa + xb) + 0.5 * (xb - xa) * xn
    ym = 0.5 * (ya + yb) + 0.5 * (yb - ya) * yn
    vals = np.asarray(f(xm[:, None], ym[None, :]))
    jac = 0.25 * (xb - xa) * (yb - ya)
    return float(jac * np.einsum("i,j,ij->", xw, yw, vals))
