"""Smooth compactly supported profiles, cutoffs, and scalar phase-space fields.

Everything here is vectorized over numpy arrays and vanishes *exactly*
outside its stated support (no 1e-300 tails), which keeps truncated
integrals and degenerate-input identities exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "transition",
    "bump_profile",
    "Bump1D",
    "ProductCutoff",
    "ScalarPhaseFunction",
    "dilation_generator",
]


def _phi(u):
    # exp(-1/u) continued by 0; the standard C-infinity glue factor
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def transition(s):
    """C-infinity monotone ramp: 1 for s<=0, 0 for s>=1."""
    s = np.asarray(s, dtype=float)
    a = _phi(1.0 - s)
    b = _phi(s)
    return a / (a + b + np.finfo(float).tiny)


def bump_profile(u):
    """C-infinity bump on (-1,1), normalized to peak value 1 at u=0."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


@dataclass(frozen=True)
class Bump1D:
    """Smooth bump g(x) supported on [center-halfwidth, center+halfwidth]."""

    center: float = 0.0
    halfwidth: float = 1.0

    def __post_init__(self):
        # a zero width has no support: every value, and every trace, is 0
        if not (math.isfinite(self.halfwidth) and self.halfwidth > 0):
            raise ValueError(f"halfwidth must be positive and finite, got {self.halfwidth!r}")

    def __call__(self, x):
        u = (np.asarray(x, dtype=float) - self.center) / self.halfwidth
        return bump_profile(u)

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.halfwidth, self.center + self.halfwidth)


@dataclass(frozen=True)
class ProductCutoff:
    """Phase-space cutoff chi(x, xi) = g(x) * k(xi) with compact supports."""

    g: Bump1D = field(default_factory=Bump1D)
    k: Bump1D = field(default_factory=Bump1D)

    def __call__(self, x, xi):
        return self.g(x) * self.k(xi)

    @property
    def x_support(self) -> tuple[float, float]:
        return self.g.support

    @property
    def xi_support(self) -> tuple[float, float]:
        return self.k.support


@dataclass(frozen=True)
class ScalarPhaseFunction:
    """Scalar G(x, xi) with an explicit phase-space gradient, given by its
    array form.

    ``eval_on(x, xi)`` maps K points (x and xi of shape (K,)) to the K
    values, and ``grad_on(x, xi)`` to the (K, 2) gradients (dG/dx, dG/dxi).
    """

    eval_on: Callable
    grad_on: Callable
    name: str = ""

    def gradient_on(self, x, xi) -> np.ndarray:
        """The (K, 2) gradients at the K points (x[k], xi[k])."""
        return np.asarray(self.grad_on(np.asarray(x, dtype=float), np.asarray(xi, dtype=float)),
                          dtype=float)


def dilation_generator() -> ScalarPhaseFunction:
    """G(x, xi) = x xi, the generator of phase-space dilations."""
    return ScalarPhaseFunction(eval_on=lambda x, xi: x * xi,
                               grad_on=lambda x, xi: np.column_stack([xi, x]), name="x.xi")
