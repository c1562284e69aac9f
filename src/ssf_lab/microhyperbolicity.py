"""Certify or refute the structural hypotheses behind the trace asymptotics.

A symbol H is microhyperbolic at rho0 in a unit direction T when the
directional derivative <T, grad H> is positive definite after compensating
with a multiple of H*H:

    <T, grad H(rho)> + C1 H(rho)* H(rho) - C0 I  >=  0   (C0 > 0).

Equivalently (kernel form), the compression of <T, grad H(rho0)> onto
ker H(rho0) is positive definite.  This module certifies that form on a
sampled energy shell, with a fixed direction or one searched at each point,
certifies escape on the shell by a bracket with an escape function, and
extrapolates boundary values of resolvent integrals of a potential's
Schrodinger symbol.

The shell check works on plain arrays.  A direction is a float vector: the
one given as ``T`` is validated and normalized once, where it comes in
(``_unit_direction``), and the direction search returns the (K, 2) array of
its directions and the mask of the points where one is positive.  Each
point's check (``_check_jet``) returns its (valid, C0, C1, margin), and
the shell's certificate holds their worst values; it is the one
certificate object the check makes.

All checkers return certificate objects with a ``valid`` flag rather than
raising: a refutation is an ordinary result, not an error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bumps import ProductCutoff, ScalarPhaseFunction
from .quadrature import adaptive_gauss_batch, gauss_rule
from .symbols import (
    MatrixPotential,
    MatrixSymbol,
    _hermitian_parts,
    fast_eigvalsh,
    require_hermitian,
    shifted_symbol,
)

__all__ = [
    "MicrohyperbolicityCertificate",
    "EscapeCertificate",
    "BoundaryValue",
    "default_kernel_tol",
    "check_on_energy_shell",
    "escape_check_general",
    "escape_check_dilation",
    "boundary_value_extrapolate",
]

C1_LADDER = [float(2**k) for k in range(21)]  # doubling search 1, 2, ..., 2^20
_COARSE = 256  # coarse direction samples of the direction search
_REFINE_STEPS = 40  # golden-section steps of the direction search


def _unit_direction(t) -> np.ndarray:
    """The direction ``t`` as a float vector divided by its norm; ValueError
    for a non-finite component, whose norm no comparison would refuse, and
    for a zero vector or one whose norm overflows."""
    v = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(v)):
        raise ValueError(f"direction {v.tolist()} has a non-finite component")
    nrm = float(np.linalg.norm(v))
    if not 0.0 < nrm < math.inf:
        raise ValueError(f"cannot normalize the direction {v.tolist()} of norm {nrm}")
    return v / nrm


def _failures_json(failures: list) -> list:
    """The first 32 failures: notes stay strings, sample points become float lists."""
    return [p if isinstance(p, str) else list(map(float, np.atleast_1d(p)))
            for p in failures[:32]]


@dataclass(frozen=True)
class MicrohyperbolicityCertificate:
    """Verified constants over a sampled point set (or a refutation)."""

    valid: bool
    points: np.ndarray
    T: np.ndarray | None
    C0: float
    C1: float
    kernel_tol: float
    margin: float
    tau0: float | None = None
    empty_shell: bool = False
    failures: list = field(default_factory=list)

    @property
    def certifies(self) -> bool:
        """Whether the certificate carries the hypothesis: it is valid, or
        the shell is empty, which certifies it vacuously."""
        return self.valid or self.empty_shell

    def to_json_dict(self) -> dict:
        return {
            "tau0": self.tau0,
            "T": None if self.T is None else [float(v) for v in np.atleast_1d(self.T)],
            "C0": float(self.C0),
            "C1": float(self.C1),
            "margin": float(self.margin),
            "n_points": int(np.atleast_2d(self.points).shape[0]) if np.size(self.points) else 0,
            "valid": bool(self.valid),
            "empty_shell": bool(self.empty_shell),
            "failures": _failures_json(self.failures),
        }


@dataclass(frozen=True)
class EscapeCertificate:
    """Positive lower bound for a bracket inequality over an energy shell."""

    valid: bool
    tau0: float
    G_kind: str
    C: float
    samples: np.ndarray
    shell_tol: float
    failures: list = field(default_factory=list)
    threshold_bound: float | None = None

    @property
    def certifies(self) -> bool:
        """Whether the certificate carries the hypothesis: it is valid."""
        return self.valid

    def to_json_dict(self) -> dict:
        return {
            "tau0": float(self.tau0),
            "G_kind": self.G_kind,
            "C": float(self.C),
            "margin": float(self.C),
            "n_points": int(np.atleast_2d(self.samples).shape[0]) if np.size(self.samples) else 0,
            "shell_tol": float(self.shell_tol),
            "valid": bool(self.valid),
            "threshold_bound": None if self.threshold_bound is None else float(self.threshold_bound),
            "failures": _failures_json(self.failures),
        }


def default_kernel_tol(a: np.ndarray) -> float:
    """Near-kernel threshold 1e-8 ||H(rho0)|| + 1e-12 (spectra are never exactly zero)."""
    return 1e-8 * float(np.linalg.norm(a, 2)) + 1e-12


class _Jet(NamedTuple):
    """What the point checks read of H at one phase-space point."""

    rho: np.ndarray
    a: np.ndarray            # H(rho)
    kernel_tol: float
    grad: np.ndarray         # grad H(rho), (2, N, N)
    values: np.ndarray       # eigh of H(rho): sorted eigenvalues
    vectors: np.ndarray      # and their orthonormal eigenvector columns


def _jets(h: MatrixSymbol, rhos: np.ndarray, kernel_tol: float | None) -> list:
    """The jet of every row of ``rhos`` (K, 2): H, its gradient and the eigh
    of H each come from one call over all K points, and each point's
    hermiticity is checked (``require_hermitian``, first failure in order)."""
    x, xi = rhos[:, 0], rhos[:, 1]
    a = require_hermitian(h.on(x, xi))
    values, vectors = np.linalg.eigh(a)
    grad = h.gradient_on(x, xi)
    return [_Jet(rho, a[k], default_kernel_tol(a[k]) if kernel_tol is None else kernel_tol,
                 grad[k], values[k], vectors[k])
            for k, rho in enumerate(rhos)]


def _check_jet(jet: _Jet, t) -> tuple:
    """Kernel-form check at the jet's point in the direction ``t``, as
    ``(valid, C0, C1, margin)``: C0 = min-eig(S)/2 for S the compression of
    <T, grad H> onto the near-kernel (sigma_min/2 for an invertible H), and
    the smallest ladder C1 that certifies the point.  A compression that is
    not positive gives (False, c, 0, c) for its min-eig c, and an exhausted
    ladder (False, C0, 2^20, the largest slack)."""
    tv = np.asarray(t, dtype=float)
    tv = tv / np.linalg.norm(tv)
    # <T, grad H>, T normalized once more, as the tests' one-point reference
    # (``directional_derivative`` in tests/mh_constructions.py) forms it
    g = np.tensordot(tv / np.linalg.norm(tv), jet.grad, axes=(0, 0))
    mask = np.abs(jet.values) <= jet.kernel_tol
    if not np.any(mask):
        c0 = 0.5 * float(np.min(np.abs(jet.values)))
    else:
        vk = jet.vectors[:, mask]
        c = float(np.linalg.eigvalsh(vk.conj().T @ g @ vk).min())
        if c <= 0.0:
            return False, c, 0.0, c
        c0 = 0.5 * c

    # the whole C1 ladder as one stacked problem; each rung is formed as the
    # tests' ``check_definition`` forms the slack of one C1, so each slack
    # equals its value bit for bit
    a = jet.a
    rungs = g + np.asarray(C1_LADDER)[:, None, None] * (a.conj().T @ a) - c0 * np.eye(len(a))
    slacks = np.linalg.eigvalsh(rungs)[:, 0]
    passing = np.flatnonzero(slacks >= 0.0)
    if passing.size:
        i = int(passing[0])
        return True, c0, C1_LADDER[i], float(slacks[i])
    return False, c0, C1_LADDER[-1], float(slacks.max())


def _min_eigs(tvecs: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """min-eig of <T, proj> for every row T of ``tvecs``, as one stacked problem.

    Each <T, proj> is a (1, dim) @ (dim, r*r) product, the one
    ``np.tensordot(T, proj, axes=(0, 0))`` makes for a single T, so every value
    is bit-identical to a single-direction call; one (k, dim) @ (dim, r*r)
    product would round differently.  A leading axis of ``proj`` (one
    projection per point, with ``tvecs`` of shape (points, k, dim)) is kept as
    a batch of such products.
    """
    *lead, dim, r, _ = proj.shape
    flat = proj.reshape(*lead, 1, dim, r * r)
    stacked = np.matmul(tvecs[..., None, :], flat)
    return np.linalg.eigvalsh(stacked.reshape(*stacked.shape[:-2], r, r))[..., 0]


def _unit(phis: np.ndarray) -> np.ndarray:
    """Rows (cos phi, sin phi), from libm's cos and sin one angle at a time."""
    angles = phis.tolist()
    return np.column_stack([np.fromiter(map(math.cos, angles), float, len(angles)),
                            np.fromiter(map(math.sin, angles), float, len(angles))])


def _find_directions(h: MatrixSymbol, jets: list) -> tuple:
    """The unit T maximizing the kernel-projected directional derivative at
    every point of ``jets``, as rows of a (K, 2) array, and the (K,) mask of
    the points where it is positive: elsewhere no T makes it so.

    The points whose kernel projections share rank and dtype run in
    lock-step: the coarse scan and each golden-section step are one stacked
    eigvalsh over the points, and every value is the one a single point
    computes.
    """
    projs = []
    for jet in jets:
        mask = np.abs(jet.values) <= jet.kernel_tol
        if not np.any(mask):
            # invertible point: any direction certifies; pick the one maximizing
            # the full directional derivative for definiteness
            mask = np.ones(h.N, dtype=bool)
        vk = jet.vectors[:, mask]
        projs.append(np.stack([vk.conj().T @ gi @ vk for gi in jet.grad]))
    groups: dict = {}
    for i, proj in enumerate(projs):
        groups.setdefault((proj.shape[1], proj.dtype.str), []).append(i)
    directions = np.empty((len(jets), 2))
    found = np.empty(len(jets), dtype=bool)
    for members in groups.values():
        directions[members], found[members] = _golden_section(
            np.stack([projs[i] for i in members]))
    return directions, found


def _golden_section(projs: np.ndarray) -> tuple:
    """Best unit direction on the circle for each (2, r, r) projection of
    ``projs``: 256 coarse angles, then 40 golden-section steps, all points
    at once.  The (P, 2) directions, and the mask of those whose value is
    positive."""
    angles = np.linspace(0.0, 2.0 * math.pi, _COARSE, endpoint=False)
    vals = _min_eigs(_unit(angles)[None], projs)
    i_best = np.argmax(vals, axis=1)
    lo = angles[i_best] - 2.0 * math.pi / _COARSE
    hi = angles[i_best] + 2.0 * math.pi / _COARSE
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = _min_eigs(np.stack([_unit(c), _unit(d)], axis=1), projs).T
    for _ in range(_REFINE_STEPS):
        # fc > fd keeps [lo, d] and probes a new c; otherwise [c, hi] and a new d
        right = fc > fd
        hi = np.where(right, d, hi)
        lo = np.where(right, lo, c)
        probe = np.where(right, hi - invphi * (hi - lo), lo + invphi * (hi - lo))
        fp = _min_eigs(_unit(probe)[:, None, :], projs)[:, 0]
        c, d = np.where(right, probe, d), np.where(right, c, probe)
        fc, fd = np.where(right, fp, fd), np.where(right, fc, fp)
    best = _unit(0.5 * (lo + hi))
    fbest = _min_eigs(best[:, None, :], projs)[:, 0]
    return best, fbest > 0.0


def _axis(side, grid_points: int, name: str) -> np.ndarray:
    """``grid_points`` evenly spaced samples of the (lo, hi) ``side``.
    ValueError unless hi > lo and grid_points >= 2: a degenerate sample
    would check the hypothesis at one point, or at none."""
    lo, hi = side
    if not hi > lo:
        raise ValueError(f"{name} needs hi > lo, got {[lo, hi]}")
    if grid_points < 2:
        raise ValueError(f"grid_points must be at least 2, got {grid_points}")
    return np.linspace(lo, hi, grid_points)


def shell_sample(
    p: MatrixSymbol,
    tau0: float,
    box,
    shell_tol: float,
    grid_points: int = 61,
) -> np.ndarray:
    """Uniform box grid filtered to min_k |tau0 - l_k(x, xi)| <= shell_tol.

    l_k are the eigenvalues of the hermitian part of p(x, xi), for any
    symbol; for a Schrodinger symbol they are xi^2 + e_k(x).  The points are
    x-major, and p is evaluated by one ``p.on`` call over the whole grid.
    The box is the phase plane, each side with hi > lo, sampled at
    grid_points >= 2, and shell_tol is positive (ValueError otherwise).
    """
    if not shell_tol > 0:
        raise ValueError(f"shell_tol must be positive, got {shell_tol!r}")
    x_side, xi_side = box
    xs = np.repeat(_axis(x_side, grid_points, "the box's x side"), grid_points)
    xis = np.tile(_axis(xi_side, grid_points, "the box's xi side"), grid_points)
    vals = np.linalg.eigvalsh(_hermitian_parts(p.on(xs, xis)))
    near = np.min(np.abs(tau0 - vals), axis=1) <= shell_tol
    return np.column_stack([xs[near], xis[near]])


def default_shell_tol(tau0: float) -> float:
    # the shell is measure zero and must be thickened for sampling
    return 0.05 * (1.0 + abs(tau0))


def check_on_energy_shell(
    p: MatrixSymbol,
    tau0: float,
    box,
    shell_tol: float | None = None,
    T=None,
    grid_points: int = 61,
) -> MicrohyperbolicityCertificate:
    """Check tau0 - p on the sampled energy shell, aggregating worst constants.

    A direction ``T`` is checked at every shell point (a zero or
    non-finite one is a ValueError before the shell is sampled); without
    one each point searches its own, which the certificate does not keep.
    The kernel tolerance is the shell tolerance, so that branches within the
    sampling thickness of the shell count as near-kernel.  H, its
    gradient and its eigh at all shell points are each one stacked call
    (``_jets``), shared by the direction search and the pointwise check.
    """
    if shell_tol is None:
        shell_tol = default_shell_tol(tau0)
    kernel_tol = shell_tol
    t_fixed = None if T is None else _unit_direction(T)
    h = shifted_symbol(p, tau0)
    pts = shell_sample(p, tau0, box, shell_tol, grid_points)
    if pts.size == 0:
        return MicrohyperbolicityCertificate(
            valid=False, points=pts, T=None, C0=0.0, C1=0.0,
            kernel_tol=kernel_tol, margin=0.0, tau0=tau0, empty_shell=True,
        )

    jets = _jets(h, pts, kernel_tol)
    if t_fixed is None:
        directions, found = _find_directions(h, jets)
    else:
        directions, found = np.broadcast_to(t_fixed, pts.shape), np.ones(len(jets), dtype=bool)
    # (valid, C0, C1, margin) at every point; a point without a direction fails
    valid, c0, c1, margin = map(np.array, zip(*(
        _check_jet(jet, t) if ok else (False, 0.0, 0.0, 0.0)
        for jet, t, ok in zip(jets, directions, found))))
    worst_c1 = float(np.max(c1[valid], initial=0.0))
    if not valid.all():
        return MicrohyperbolicityCertificate(
            valid=False, points=pts, T=t_fixed, C0=0.0, C1=worst_c1,
            kernel_tol=kernel_tol, margin=-math.inf, tau0=tau0,
            failures=list(pts[~valid]),
        )
    return MicrohyperbolicityCertificate(
        valid=True, points=pts, T=t_fixed, C0=float(c0.min()), C1=worst_c1,
        kernel_tol=kernel_tol, margin=float(margin.min()), tau0=tau0,
    )


def escape_check_general(
    p: MatrixSymbol,
    g: ScalarPhaseFunction,
    tau0: float,
    box,
    shell_tol: float | None = None,
    grid_points: int = 61,
) -> EscapeCertificate:
    """Certify the bracket {p, G} = dG/dx . dp/dxi - dG/dxi . dp/dx positive
    definite on the sampled energy shell.  The gradients of p and G at all
    shell points are one ``gradient_on`` call each, and the brackets one
    stacked eigvalsh."""
    if shell_tol is None:
        shell_tol = default_shell_tol(tau0)
    pts = shell_sample(p, tau0, box, shell_tol, grid_points)
    if pts.size == 0:
        return EscapeCertificate(valid=False, tau0=tau0, G_kind=g.name or "general",
                                 C=0.0, samples=pts, shell_tol=shell_tol,
                                 failures=["empty shell"])
    gp = p.gradient_on(pts[:, 0], pts[:, 1])
    gg = g.gradient_on(pts[:, 0], pts[:, 1])[:, :, None, None]
    brackets = gg[:, 0] * gp[:, 1] - gg[:, 1] * gp[:, 0]
    ws = np.linalg.eigvalsh(brackets)[:, 0]
    worst = float(ws.min())
    failures = [pts[i].copy() for i in np.flatnonzero(ws <= 0.0)]
    valid = not failures
    return EscapeCertificate(valid=valid, tau0=tau0, G_kind=g.name or "general",
                             C=worst if valid else 0.0, samples=pts,
                             shell_tol=shell_tol, failures=failures)


def escape_check_dilation(
    v: MatrixPotential,
    tau0: float,
    x_range=(-8.0, 8.0),
    grid_points: int = 2001,
) -> EscapeCertificate:
    """Dilation-generator escape check for Schrodinger symbols.

    Certifies min-eig(2 (tau0 - e_k(x)) I - x . grad V(x)) >= C > 0 over every
    channel k and every sampled x in the classically allowed region
    tau0 - e_k(x) >= -1e-9 (the certificate's ``shell_tol``), and reports the
    crude sufficient threshold sup||x.gradV/2|| + sup||V|| for comparison
    (tau0 above it guarantees success).  V and its gradient at the samples
    are one ``v.on`` and one ``v.gradient_on`` call.  ValueError unless
    x_range has hi > lo and grid_points >= 2.
    """
    allowed_tol = 1e-9
    xs = _axis(x_range, grid_points, "x_range")
    # the first non-hermitian sample, in sample order, raises
    mats = require_hermitian(v.on(xs))
    gvs = v.gradient_on(xs)[:, 0]
    sup_v = float(np.max(np.linalg.norm(mats, 2, axis=(1, 2)), initial=0.0))
    xgv = xs[:, None, None] * gvs
    sup_xdv = 0.5 * float(np.max(np.linalg.norm(xgv, 2, axis=(1, 2)), initial=0.0))
    evals = np.linalg.eigh(mats)[0]
    # (x, k) pairs of the classically allowed region, x-major as sampled
    ix, ks = np.nonzero(~(tau0 - evals < -allowed_tol))
    dil = 2.0 * (tau0 - evals[ix, ks])[:, None, None] * np.eye(v.N) - xgv[ix]
    ws = np.linalg.eigvalsh(dil)[:, 0]
    samples = np.column_stack([xs[ix], ks.astype(float)])
    failures = [samples[i].copy() for i in np.flatnonzero(ws <= 0.0)]
    worst = float(ws.min()) if ws.size else 0.0
    valid = worst > 0.0 and not failures
    return EscapeCertificate(
        valid=valid, tau0=tau0, G_kind="dilation", C=worst, samples=samples,
        shell_tol=allowed_tol, failures=failures, threshold_bound=sup_xdv + sup_v,
    )


@dataclass(frozen=True)
class BoundaryValue:
    value: complex
    error: float
    converged: bool
    ratios: np.ndarray
    extrapolants: np.ndarray


def _resolvent_trace_at(vx: np.ndarray, xm: np.ndarray, xw: np.ndarray, g: complex,
                        chi: ProductCutoff, z: complex, sandwich: bool) -> complex:
    """integral of chi * g * tr[(z-p)^-2] (or g * tr[(z-p)^-1]) d rho, g a
    scalar, for p = xi^2 + V and ``vx`` the values of V at the Gauss x-nodes
    ``xm`` (weights ``xw``) on supp chi.

    The real and imaginary xi-integrals of every x-node are the intervals of
    one adaptive_gauss_batch call: interval 2i is the real part at x-node i,
    2i+1 the imaginary part.  p at a point is xi^2 I + V(x), formed as
    ``schrodinger_symbol`` forms it, with V read from ``vx``.
    """
    (xa, xb) = chi.x_support
    (qa, qb) = chi.xi_support
    eye = np.eye(vx.shape[-1])

    def integrand(owner, xi):
        # the two parts of one x-node share most of their points: solve each once
        pts, back = np.unique(owner // 2 + 1j * xi, return_inverse=True)
        node, xi = pts.real.astype(np.intp), pts.imag
        dz = z - fast_eigvalsh((xi * xi)[:, None, None] * eye + vx[node])
        val = g * np.sum(1.0 / (dz * dz) if sandwich else 1.0 / dz, axis=-1) * chi(xm[node], xi)
        val = val[back]
        return np.where(owner % 2 == 0, val.real, val.imag)

    parts = adaptive_gauss_batch(integrand, np.full(2 * len(xm), qa), np.full(2 * len(xm), qb),
                                 atol=1e-11, rtol=1e-11)
    return 0.5 * (xb - xa) * np.sum(xw * (parts[0::2] + 1j * parts[1::2]))


def boundary_value_extrapolate(
    v: MatrixPotential,
    g_field,
    chi: ProductCutoff,
    tau: float,
    side: int = +1,
    form: str = "sandwich",
    levels: int = 9,
    x_order: int = 48,
) -> BoundaryValue:
    """Richardson extrapolation of a resolvent integral to the real axis,
    for the Schrodinger symbol p = xi^2 + V of the potential ``v``.

    ``form="sandwich"`` evaluates tr[(z-p)^-1 G (z-p)^-1]; ``form="single"``
    evaluates tr[(z-p)^-1 G] (the density route used by the localized
    coefficient cross-check).  G is a scalar or a scalar multiple of the
    identity; any other ``g_field`` raises ValueError.  z = tau + i*side*eps
    with eps halving from 0.1; V is evaluated once, by one ``v.on`` call at
    the ``x_order`` Gauss x-nodes on supp chi, and each level integrates the
    xi-integrals of all x-nodes in one ``adaptive_gauss_batch`` call with
    atol = rtol = 1e-11.  Non-convergence is flagged when the last
    extrapolant differences stop contracting by a factor 1.5.
    """
    if form not in ("sandwich", "single"):
        raise ValueError(f"unknown form {form!r}")
    if side not in (+1, -1):
        raise ValueError("side must be +1 or -1")
    g = np.asarray(g_field)
    if g.shape == (v.N, v.N) and np.array_equal(g, g[0, 0] * np.eye(v.N)):
        g = g[0, 0]
    if g.ndim != 0 or not np.issubdtype(g.dtype, np.number):
        raise ValueError("G must be a scalar or a scalar multiple of the identity")
    (xa, xb) = chi.x_support
    xn, xw = gauss_rule(x_order)
    xm = 0.5 * (xa + xb) + 0.5 * (xb - xa) * xn
    vx = v.on(xm)
    eps_list = [0.1 / 2**i for i in range(levels)]
    raw = np.array([
        _resolvent_trace_at(vx, xm, xw, complex(g), chi, tau + 1j * side * eps,
                            form == "sandwich")
        for eps in eps_list
    ])
    # Richardson triangle assuming an error series in powers of eps
    table = [raw]
    for j in range(1, levels):
        fac = 2.0**j
        prev = table[-1]
        table.append((fac * prev[1:] - prev[:-1]) / (fac - 1.0))
    diag = np.array([table[j][0] for j in range(levels)])
    diffs = np.abs(np.diff(diag))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = diffs[:-1] / np.where(diffs[1:] == 0.0, np.nan, diffs[1:])
    # the raw levels carry quadrature errors up to ~3e-11 relative (against
    # atol = rtol = 1e-13, on the test symbols), which the triangle amplifies;
    # differences below 1e-8 relative count as converged
    scale = max(1.0, float(np.abs(diag[-1])))
    tiny = diffs[-1] <= 1e-8 * scale
    tail = ratios[-2:][np.isfinite(ratios[-2:])]
    converged = bool(tiny or (tail.size and np.all(tail >= 1.5)))
    return BoundaryValue(
        value=complex(diag[-1]),
        error=float(diffs[-1]) if diffs.size else 0.0,
        converged=converged,
        ratios=ratios,
        extrapolants=diag,
    )
