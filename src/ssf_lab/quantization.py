"""Periodic 1D Fourier-spectral discretization and Weyl quantization.

The grid covers x in [-R, R) with M points and carries the scaled momenta
p_m = (pi h / R) m, m = -M/2 .. M/2-1, so the kinetic operator is exactly
diagonal with symbol p^2 on the momentum window.  Energies are reliable up
to tau_max = (pi h M / (2R))^2 / 4, i.e. the momentum window must cover
twice the classical shell radius (the assembly-time coverage rule).

Weyl quantization of a cutoff a(x, xi) produces the dense matrix

    A[i, j] = dx * (dp / 2 pi h) * sum_m exp(i d_ij p_m / h) a(mid_ij, p_m),

with d_ij the minimal-image periodic difference and mid_ij the matching
periodic midpoint (on the half-step grid).  For symbols depending on x only
the momentum sum is a discrete delta and is evaluated in closed form, so
multiplication operators come out exactly diagonal.

A ``GridOperator`` answers two requests: its spectrum, from a values-only
solve in place, or its eigenpairs in an energy window (lo, hi], which is
all a smoothed trace reads of them.  Each dense allocation, a matrix or the
eigenvectors of a solve, admits its own bytes against the host's physical
memory where it is made, so a step that cannot fit stops with
``MemoryBudgetError`` before it allocates.

Smoothed spectral traces sum f(lambda_j) K(tau - lambda_j) <u_j, A u_j> over
the eigenpairs with lambda_j in supp f, where K is the scaled inverse
Fourier transform of a window theta(t/eps): K(s) = (eps/h) Phi(eps s / h)
with an h-independent profile Phi cached per window shape.  Phi and Phi'
are tabulated once per process and shape on 26 081 knots (four uniform
segments up to y = 1200) by a 768-node Gauss rule; on each segment the
phase exp(i u y) is split into a coarse and a fine factor, so the tables
are a few small matrix products and never a knots x nodes phase matrix.
Between knots Phi is interpolated by piecewise cubic Hermite polynomials.

Every h-sweep of the package ends in one ``SweepReport`` from
``sweep_verdict``: a value per h, the relative errors against a reference,
the log-log order ``fit_order`` fits to the errors (at least 3 h with
max/min >= 4) and PASS/FAIL in a decay or a comparison form.  The three
trace-formula checks below are such sweeps, on grids from ``grid_for``;
the ssf module holds the weak, Weyl-type and derivative sweeps.
"""
from __future__ import annotations

import ctypes
import functools
import inspect
import math
import os
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .bumps import ProductCutoff, bump_profile, transition
from .quadrature import gauss_rule
from .symbols import MatrixPotential

__all__ = [
    "CoverageError",
    "MemoryBudgetError",
    "SupportMarginError",
    "GridMismatchError",
    "Grid1D",
    "GridOperator",
    "required_points",
    "grid_for",
    "potential_samples",
    "build_schrodinger",
    "weyl_quantize",
    "WindowTheta",
    "fourier_window",
    "window_primitive",
    "smoothed_trace",
    "ConfigError",
    "CertificateError",
    "SlopeFit",
    "fit_order",
    "SweepReport",
    "sweep_verdict",
    "theorem1_check",
    "theorem2_check",
    "theorem3_check",
]


class CoverageError(ValueError):
    """Momentum window too small for the configured energy range."""

    def __init__(self, msg: str, required_m: int | None = None):
        super().__init__(msg)
        self.required_m = required_m


class MemoryBudgetError(MemoryError):
    """An allocation that would need more bytes than the host's memory."""

    def __init__(self, msg: str, required: int, available: int):
        super().__init__(msg)
        self.required = required
        self.available = available


class SupportMarginError(ValueError):
    """Symbol support too close to the periodic seam or the momentum edge."""


class GridMismatchError(ValueError):
    """Operators live on different grids."""


def required_points(R: float, h: float, tau_max: float) -> int:
    """Smallest even M with momentum coverage pi h (M/2) / R >= 2 sqrt(tau_max)."""
    m = math.ceil(4.0 * R * math.sqrt(tau_max) / (math.pi * h))
    return m + (m % 2)


@dataclass(frozen=True)
class Grid1D:
    """Periodic grid x in [-R, R), M even points, semiclassical parameter h."""

    R: float
    M: int
    h: float
    tau_max: float | None = None

    def __post_init__(self):
        if self.M < 2 or self.M % 2:
            raise ValueError("M must be even and >= 2")
        if not (self.R > 0 and 0 < self.h):
            raise ValueError("R and h must be positive")
        if self.tau_max is not None:
            need = required_points(self.R, self.h, self.tau_max)
            if self.M < need:
                raise CoverageError(
                    f"M={self.M} below coverage for tau_max={self.tau_max}: need M>={need}",
                    required_m=need,
                )

    @property
    def dx(self) -> float:
        return 2.0 * self.R / self.M

    @property
    def dp(self) -> float:
        return math.pi * self.h / self.R

    @property
    def nodes(self) -> np.ndarray:
        return -self.R + self.dx * np.arange(self.M)

    @property
    def half_nodes(self) -> np.ndarray:
        return -self.R + 0.5 * self.dx * np.arange(2 * self.M)

    @property
    def momenta(self) -> np.ndarray:
        return self.dp * np.arange(-self.M // 2, self.M // 2)

    @property
    def momenta_fft_order(self) -> np.ndarray:
        return self.dp * np.fft.fftfreq(self.M, 1.0 / self.M)

    @property
    def p_max(self) -> float:
        return self.dp * (self.M // 2)

    def reliable_tau_max(self) -> float:
        return (0.5 * self.p_max) ** 2


def grid_for(h: float, R: float, tau_max: float | None, m_cap: int,
             M: int | None = None) -> Grid1D:
    """The grid of one sweep step: ``M`` points if given, else the fewest that
    cover ``tau_max``; CoverageError, with the required M, beyond ``m_cap``."""
    m = M if M else required_points(R, h, tau_max)
    if m > m_cap:
        raise CoverageError(
            f"h={h} needs M={m} > cap {m_cap}: raise h, shrink R, or raise m_cap",
            required_m=m,
        )
    return Grid1D(R=R, M=m, h=h, tau_max=None if tau_max is None else float(tau_max))


def _kinetic_column(grid: Grid1D) -> np.ndarray:
    """First column c of the kinetic matrix F* diag(p^2) F, symmetrized.

    The matrix is the real symmetric circulant K[i, j] = c[(i - j) % M] with
    c[m] = (r[m] + r[-m]) / 2, where r is the first column of the plain
    circulant k; so K equals (k + k^T) / 2 entry for entry.
    """
    r = np.fft.ifft(grid.momenta_fft_order**2).real
    return 0.5 * (r + np.roll(r[::-1], 1))


def _circulant(c: np.ndarray) -> np.ndarray:
    """Read-only view C[i, j] = c[(i - j) % M] of the circulant with first column c."""
    m = c.size
    return np.lib.stride_tricks.sliding_window_view(np.concatenate([c[1:], c]), m)[:, ::-1]


_CHECK_TILE = 256  # side of the square tiles of the hermiticity check
# entries per chunk of rows of a split matrix's column gather, and per block
# of columns of the plane waves, so no temporary of the array's size is made
_ROW_BLOCK = 1 << 16


def _checked_hermitian(matrix: np.ndarray, dim: int) -> np.ndarray:
    """``matrix`` as float64 or complex128, made exactly hermitian; ValueError
    when its shape does not match ``dim``, an entry is NaN or infinite, or
    its hermiticity defect exceeds 1e-11 of its largest entry.

    Defect and scale are taken over square tiles: each tile A[I, J] with
    I <= J against A[J, I]^H, so no temporary of the matrix's size is formed
    and both operands stay in cache; the pairs cover every entry, and a
    pair with a non-finite scale is refused.  A matrix whose defect is
    exactly 0 is returned as it is, since (A + A^H) / 2 equals A then.
    """
    matrix = np.asarray(matrix)
    if matrix.shape != (dim, dim):
        raise ValueError(f"matrix shape {matrix.shape} does not match grid")
    matrix = matrix.astype(complex if matrix.dtype.kind == "c" else float, copy=False)
    scales, defects = [], []
    for lo in range(0, dim, _CHECK_TILE):
        rows = slice(lo, lo + _CHECK_TILE)
        for lo2 in range(lo, dim, _CHECK_TILE):
            cols = slice(lo2, lo2 + _CHECK_TILE)
            upper, lower = matrix[rows, cols], matrix[cols, rows]
            scales += [np.max(np.abs(upper)), np.max(np.abs(lower))]
            if not np.all(np.isfinite(scales[-2:])):
                raise ValueError("matrix has a non-finite entry")
            defects.append(np.max(np.abs(upper - lower.conj().T)))
    scale = float(np.max(scales)) or 1.0
    defect = float(np.max(defects))
    if defect > 1e-11 * scale:
        raise ValueError(f"relative hermiticity defect {defect/scale:.2e} too large")
    if defect == 0.0:
        return matrix
    return 0.5 * (matrix + matrix.conj().T)


@functools.cache
def _lapack_eigh() -> dict | None:
    """numpy's own ILP64 hermitian eigensolvers by (dtype, driver): the
    divide-and-conquer ``dsyevd``/``zheevd`` ("evd") and the windowed
    ``dsyevr``/``zheevr`` ("evr"); None when the LAPACK numpy links exports
    them under neither naming (MKL, Accelerate, an LP64 system LAPACK).  The
    OpenBLAS bundled in numpy's wheels prefixes its symbols ``scipy_``; that
    is a symbol name, not the scipy package."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    char, ptr, i64 = ctypes.c_char_p, ctypes.c_void_p, ctypes.POINTER(ctypes.c_int64)
    f64 = ctypes.POINTER(ctypes.c_double)
    names = ("dsyevd", "zheevd", "dsyevr", "zheevr")
    for prefix in ("scipy_", ""):
        try:
            dsyevd, zheevd, dsyevr, zheevr = (getattr(lib, f"{prefix}{name}_64_") for name in names)
        except AttributeError:
            continue
        # jobz, uplo, n, a, lda, w, work, lwork, [rwork, lrwork,] iwork, liwork, info
        dsyevd.argtypes = [char, char, i64, ptr, i64, ptr, ptr, i64, ptr, i64, i64]
        zheevd.argtypes = [char, char, i64, ptr, i64, ptr, ptr, i64, ptr, i64, ptr, i64, i64]
        # jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz,
        # isuppz, work, lwork, [rwork, lrwork,] iwork, liwork, info
        evr = [char, char, char, i64, ptr, i64, f64, f64, i64, i64, f64, i64, ptr, ptr, i64,
               ptr, ptr, i64]
        dsyevr.argtypes = evr + [ptr, i64, i64]
        zheevr.argtypes = evr + [ptr, i64, ptr, i64, i64]
        for routine in (dsyevd, zheevd, dsyevr, zheevr):
            routine.restype = None
        real, cplx = np.dtype(float), np.dtype(complex)
        return {(real, "evd"): dsyevd, (cplx, "evd"): zheevd,
                (real, "evr"): dsyevr, (cplx, "evr"): zheevr}
    return None


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library lacks it."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except AttributeError:
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def _return_free_heap() -> None:
    """Give the pages of freed heap blocks back to the system before a dense
    allocation.  glibc raises its mmap threshold to the largest block freed
    (up to 32 MiB), so arrays of a few MB, such as a small grid's matrix or
    a solve's temporaries, live on the heap, and once freed their pages stay
    resident below the next, larger matrix.  A no-op without glibc."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def _routine(routines: dict, a: np.ndarray, driver: str):
    """The in-place ``driver`` for the square matrix ``a`` and its leading
    dimension: ``a`` is C-contiguous or a view into a larger C-ordered
    array, with a column stride of one item and a row stride of at least n
    items.  ValueError for any other array."""
    n = a.shape[0]
    if a.shape != (n, n) or (a.dtype, driver) not in routines:
        raise ValueError(f"cannot solve a {a.shape} {a.dtype} matrix in place")
    rows, cols = a.strides
    lda, rest = divmod(rows, a.itemsize)
    if n > 1 and (cols != a.itemsize or rest or lda < n):
        raise ValueError(f"cannot solve a matrix with strides {a.strides} in place")
    return routines[a.dtype, driver], ctypes.c_int64(max(lda, 1))


def _lapack_call(routine, head: list, dtype) -> None:
    """Call ``routine`` with its arguments ``head`` and then its workspaces
    (work, lwork, [rwork, lrwork,] iwork, liwork) and info, the workspaces
    at the optimal sizes of a query first.  They are freed on return."""
    is_complex = dtype.kind == "c"

    def call(work, rwork, iwork, sizes):
        info = ctypes.c_int64(0)
        lwork, lrwork, liwork = (ctypes.c_int64(size) for size in sizes)
        args = [*head, work.ctypes.data, lwork]
        if is_complex:
            args += [rwork.ctypes.data, lrwork]
        routine(*args, iwork.ctypes.data, liwork, info)
        return info.value

    work, rwork, iwork = np.zeros(1, dtype), np.zeros(1), np.zeros(1, np.int64)
    call(work, rwork, iwork, (-1, -1, -1))
    sizes = int(work[0].real), int(rwork[0]), int(iwork[0])
    work, rwork, iwork = np.empty(sizes[0], dtype), np.empty(sizes[1]), np.empty(sizes[2], np.int64)
    info = call(work, rwork, iwork, sizes)
    if info > 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    if info < 0:
        raise ValueError(f"argument {-info} of the eigensolver is illegal")


def _evd(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the hermitian matrix ``a``, bit for bit those of
    ``np.linalg.eigvalsh``; the solve overwrites ``a``, which may be a view
    with a leading dimension (``_routine``).

    ``a`` goes to ?syevd/?heevd in place, with numpy's arguments: uplo 'L'
    and the optimal workspace of a size query (a smaller one changes the
    blocking of the tridiagonal reduction, and so the bits).  LAPACK reads
    the C-ordered buffer as its transpose, which is A itself once a complex
    matrix is conjugated.  Where numpy's LAPACK does not export the
    routines, numpy solves a copy.
    """
    routines = _lapack_eigh()
    if routines is None:
        return np.linalg.eigvalsh(a)
    routine, lda = _routine(routines, a, "evd")
    if a.dtype.kind == "c":
        np.conjugate(a, out=a)
    n = ctypes.c_int64(a.shape[0])
    w = np.empty(a.shape[0])
    _lapack_call(routine, [b"N", b"L", n, a.ctypes.data, lda, w.ctypes.data], a.dtype)
    return w


def _in_window(values: np.ndarray, lo: float, hi: float) -> slice:
    """The slice of the ascending ``values`` that lies in (lo, hi]."""
    return slice(*np.searchsorted(values, (lo, hi), side="right"))


_ABSTOL = 2.0 * np.finfo(float).tiny  # where LAPACK's bisection is most accurate


def _evr(a: np.ndarray, lo: float, hi: float):
    """The eigenvalues of the hermitian matrix ``a`` in (lo, hi] and their
    eigenvectors, as the C-contiguous columns of a (n, k) array; either
    bound may be infinite.  The solve overwrites ``a``, which may be a view
    with a leading dimension (``_routine``).

    ``a`` goes to ?syevr/?heevr in place with range 'V': LAPACK finds the k
    values by bisection on the tridiagonal form and back-transforms only
    their vectors.  It reads the C-ordered buffer as its transpose, the
    conjugate of a complex A, so its vectors are conjugated on the way out.
    They are the first k rows of a C-ordered n x n array Z, the bound LAPACK
    asks for when k is not known in advance; only the rows written become
    resident.  Where numpy's LAPACK does not export the routines, numpy
    solves a copy and the window is selected from it.
    """
    routines = _lapack_eigh()
    if routines is None:
        w, v = np.linalg.eigh(a)
        keep = _in_window(w, lo, hi)
        return w[keep], np.ascontiguousarray(v[:, keep])
    routine, lda = _routine(routines, a, "evr")
    n = ctypes.c_int64(a.shape[0])
    found = ctypes.c_int64(0)
    w = np.empty(a.shape[0])
    z = np.empty(a.shape, a.dtype)
    isuppz = np.empty(2 * a.shape[0], np.int64)
    _lapack_call(routine, [b"V", b"V", b"L", n, a.ctypes.data, lda, ctypes.c_double(lo),
                           ctypes.c_double(hi), ctypes.c_int64(1), n, ctypes.c_double(_ABSTOL),
                           found, w.ctypes.data, z.ctypes.data, n, isuppz.ctypes.data], a.dtype)
    rows = z[:found.value]
    if a.dtype.kind == "c":
        np.conjugate(rows, out=rows)
    return w[:found.value].copy(), rows.T.copy()


class GridOperator:
    """Dense hermitian operator on the grid, asked for one of two things: its
    spectrum (``eigenvalues``, solved once and cached) or the eigenpairs in
    a window (``eigenpairs``, solved for each call, nothing cached).  A
    ``matrix`` must match the grid, be finite and be hermitian to 1e-11
    relative; it is kept exactly hermitian, as float64 or complex128.

    A dense solve runs LAPACK in place: ?syevd/?heevd for values
    (``_evd``), ?syevr/?heevr for the pairs of a window (``_evr``), so it
    holds the matrix and no copy of it.  An operator made with an
    ``assemble`` callable in place of the matrix gives its matrix to the
    solve and drops it; a later read of ``.matrix`` assembles it again.  A
    cutoff from ``weyl_quantize`` is assembled this way on its first read,
    and since a cutoff is never solved, it keeps its matrix from then on.
    An operator made from a caller's array keeps it unchanged and solves a
    copy.

    Each allocation admits its own bytes against the host's memory where it
    is made (``MemoryBudgetError`` when they do not fit): an assembly its
    matrix, and a pairs solve, before it starts, the matrix and up to dim
    eigenvectors twice over (as LAPACK writes them and as columns), three
    matrices, and a fourth for the copy of a caller's array.

    An operator that ``build_schrodinger`` finds has no entries between its
    N channels is split: ``eigenpairs`` solves each channel's M x M block
    (rows and columns c::N) alone, where it lies in the matrix, drops the
    matrix, merges the values by a stable sort and makes each eigenvector
    zero on the other channels' rows.

    Constant-potential operators carry an ``analytic`` spectrum instead:
    plane waves tensored with channel eigenvectors.  Their matrix is built
    on the first read of ``.matrix``, checked like a passed matrix and kept.
    An operator whose spectrum alone is read never holds a dense matrix,
    and ``eigenpairs`` forms only the window's plane waves.
    """

    # no eigenvectors are cached; the attribute stays, fixed at None, for
    # perfbench's solve counter, which reads it to tell a solve from a hit
    _vectors = None

    def __init__(self, grid: Grid1D, N: int, matrix: np.ndarray | None = None,
                 label: str = "", *, assemble=None, analytic: tuple | None = None):
        if (matrix is None) == (assemble is None):
            raise ValueError("give exactly one of matrix and assemble")
        self.grid = grid
        self.N = N
        self.label = label
        self._analytic = analytic
        self._split = False
        self._assemble = assemble
        self._matrix = None if matrix is None else _checked_hermitian(matrix, self.dim)
        self._values: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.grid.M * self.N

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = _checked_hermitian(self._assemble(), self.dim)
        return self._matrix

    def _release(self) -> None:
        """Drop the held matrix if it can be assembled again."""
        if self._assemble is not None:
            self._matrix = None

    def _solve_input(self) -> np.ndarray:
        """The matrix for an in-place solve: the held one, released, or a
        copy of a caller's array."""
        mat = self.matrix
        if self._assemble is None:
            return mat.copy()
        self._release()
        return np.ascontiguousarray(mat)

    def eigenvalues(self) -> np.ndarray:
        if self._values is None:
            if self._analytic is not None:
                self._values = self._analytic_values()
            else:
                self._values = _evd(self._solve_input())
        return self._values

    def eigenpairs(self, *, window: tuple[float, float] = (-math.inf, math.inf)
                   ) -> tuple[np.ndarray, np.ndarray]:
        """The k ascending eigenvalues in ``window`` = (lo, hi] and a (dim, k)
        array of their eigenvectors as columns, the whole spectrum by
        default: plane waves for an analytic spectrum, else ``_evr`` (per
        channel block when split), after the admission of three matrices."""
        lo, hi = window
        if self._analytic is not None:
            return self._analytic_pairs(lo, hi)
        matrices = 3 if self._assemble is not None else 4  # with a caller's array, its copy
        _admit(matrices * self.matrix.nbytes, self.label, "the matrix and its eigenvectors")
        if self._split:
            return self._split_pairs(lo, hi)
        return _evr(self._solve_input(), lo, hi)

    def _split_pairs(self, lo: float, hi: float):
        """``_evr`` on each channel block, where it lies in the held matrix.
        Channel c's eigenvector j goes to column rank[offset_c + j] of the
        merged order, on the rows c::N.

        Each row's columns are first gathered into channel-major order, a
        few rows at a time, so that channel c's block (rows and columns c::N)
        becomes the view ``mat[c::N, c M:(c + 1) M]``, with leading dimension
        N dim.  The matrix is dropped after the last block is solved, and the
        merged eigenvector array is made after that."""
        n, m = self.N, self.grid.M
        mat = self.matrix
        self._release()
        step = max(1, _ROW_BLOCK // self.dim)
        for first in range(0, self.dim, step):
            rows = mat[first:first + step]
            rows[...] = rows.reshape(-1, m, n).transpose(0, 2, 1).reshape(rows.shape)
        solved = [_evr(mat[c::n, c * m:(c + 1) * m], lo, hi) for c in range(n)]
        del mat, rows
        vals, blocks = zip(*solved)
        del solved
        offsets = np.cumsum([0] + [v.size for v in vals])
        vals = np.concatenate(vals)
        order = np.argsort(vals, kind="stable")
        rank = np.empty(vals.size, dtype=np.intp)
        rank[order] = np.arange(vals.size)
        vectors = np.zeros((self.dim, vals.size), dtype=blocks[0].dtype)
        for c, block in enumerate(blocks):
            vectors[c::n, rank[offsets[c]:offsets[c + 1]]] = block
        return vals[order], vectors

    # -- analytic spectrum for constant potentials ------------------------
    def _analytic_order(self):
        channel_vals, _ = self._analytic
        p2 = self.grid.momenta**2
        vals = (p2[:, None] + channel_vals[None, :]).ravel()
        order = np.argsort(vals, kind="stable")
        return vals, order

    def _analytic_values(self) -> np.ndarray:
        vals, order = self._analytic_order()
        return vals[order]

    def _analytic_pairs(self, lo: float, hi: float):
        vals, order = self._analytic_order()
        vals = vals[order]
        keep = _in_window(vals, lo, hi)
        return vals[keep], self._plane_waves(order[keep])

    def _plane_waves(self, flat: np.ndarray) -> np.ndarray:
        """Column j is the plane wave m tensored with channel vector k, for
        flat[j] = m N + k.  The output is filled a block of columns at a
        time, and each block's phases exp(i x p / h) are formed in place in
        one complex (M, step) buffer.  Admitted: the (dim, k) result, that
        buffer of at most ``_ROW_BLOCK`` entries, and as much again for
        numpy's iteration buffers and the index arrays."""
        _, channel_vecs = self._analytic
        _admit(16 * (flat.size * self.dim + 2 * _ROW_BLOCK), self.label,
               "the plane-wave vectors")
        m_idx, k_idx = np.divmod(flat, self.N)
        grid = self.grid
        nodes = grid.nodes
        vectors = np.empty((grid.M, self.N, flat.size), dtype=complex)
        step = max(1, _ROW_BLOCK // grid.M)
        buffer = np.empty((grid.M, min(step, flat.size)), dtype=complex)
        for lo in range(0, flat.size, step):
            cols = slice(lo, lo + step)
            phases = buffer[:, :min(step, flat.size - lo)]
            phases.real = 0.0
            np.outer(nodes, grid.momenta[m_idx[cols]] / grid.h, out=phases.imag)
            np.exp(phases, out=phases)
            phases /= math.sqrt(grid.M)
            np.multiply(phases[:, None, :], channel_vecs[None, :, k_idx[cols]],
                        out=vectors[:, :, cols])
        return vectors.reshape(self.dim, flat.size)


def potential_samples(v: MatrixPotential, grid: Grid1D) -> np.ndarray:
    """Hermitian parts (V + V^H)/2 of the potential at the grid nodes, (M, N, N)."""
    blocks = []
    for x in grid.nodes:
        b = np.asarray(v.eval(float(x)))
        blocks.append(0.5 * (b + b.conj().T))
    return np.stack(blocks)


def _assemble_schrodinger(grid: Grid1D, samples: np.ndarray) -> np.ndarray:
    """Kinetic circulant tensor identity plus block-diagonal potential, written
    into one array of the final dtype (real unless a sample is complex)."""
    if not np.any(samples.imag):
        samples = samples.real
    n_ch = samples.shape[1]
    dim = grid.M * n_ch
    mat = np.zeros((dim, dim), dtype=np.result_type(samples.dtype, np.float64))
    kin = _circulant(_kinetic_column(grid))
    for c in range(n_ch):
        mat[c::n_ch, c::n_ch] = kin
    # entry (j N + a, j N + b) of the flat matrix, for j = 0 .. M-1
    flat = mat.reshape(-1)
    for a in range(n_ch):
        for b in range(n_ch):
            flat[a * dim + b::n_ch * (dim + 1)] += samples[:, a, b]
    return mat


def physical_memory() -> int:
    """Bytes of physical memory of the host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _admit(required: int, label: str, what: str) -> None:
    available = physical_memory()
    if required > available:
        raise MemoryBudgetError(
            f"{label} needs {required} B (about {required / 2**20:.0f} MiB) for {what}, "
            f"the host has {available} B (about {available / 2**20:.0f} MiB): "
            f"raise h or shrink R",
            required=required, available=available,
        )


def build_schrodinger(v: MatrixPotential, grid: Grid1D) -> GridOperator:
    """Kinetic circulant tensor identity plus block potential.

    The dense matrix is assembled at once, except for constant potentials:
    they get an analytic spectrum and a dense matrix that is built only when
    ``.matrix`` is read.  A potential whose off-diagonal samples are all 0
    gives a split operator, whose eigenpairs are solved one channel at a
    time.

    The matrix's bytes are checked against the host's physical memory
    before each assembly: MemoryBudgetError, with both figures, when they do
    not fit.  A solve admits what it adds itself (``GridOperator``), and an
    analytic spectrum its plane-wave vectors when they are formed.
    """
    if v.n != 1:
        raise NotImplementedError("the quantization engine is one-dimensional")
    samples = potential_samples(v, grid)
    label = f"schrodinger({v.name})"
    dim = grid.M * v.N
    dtype = complex if np.any(samples.imag) else float

    def assemble():
        _admit(np.dtype(dtype).itemsize * dim * dim, label, "the matrix")
        _return_free_heap()
        return _assemble_schrodinger(grid, samples)

    if np.any(samples != samples[0]):
        op = GridOperator(grid=grid, N=v.N, label=label, assemble=assemble)
        op._split = v.N > 1 and not np.any(samples[:, ~np.eye(v.N, dtype=bool)])
        op.matrix  # assembled here, where the build is timed; the first solve takes it
        return op

    b0 = samples[0]
    off = b0 - np.diag(np.diag(b0))
    if np.max(np.abs(off), initial=0.0) == 0.0:
        channel_vals = np.diag(b0).real.copy()
        channel_vecs = np.eye(v.N, dtype=complex)
    else:
        channel_vals, channel_vecs = np.linalg.eigh(b0)
    return GridOperator(grid=grid, N=v.N, label=label,
                        assemble=assemble,
                        analytic=(channel_vals, channel_vecs))


def _index_tables(grid: Grid1D):
    idx = np.arange(grid.M)
    return _index_block(grid.M, idx, idx)


def _index_block(m_pts: int, rows: np.ndarray, cols: np.ndarray):
    """Minimal-image lags, half-grid midpoint indices and antipodal ties for
    the entries (rows x cols) of an M x M Weyl matrix."""
    delta = (rows[:, None] - cols[None, :] + m_pts // 2) % m_pts - m_pts // 2
    mid_idx = (2 * cols[None, :] + delta) % (2 * m_pts)
    # at the antipodal lag |delta| = M/2 the minimal image ties and the two
    # candidate midpoints differ by R; they are averaged to keep the matrix
    # hermitian (the phase factor is the same for both representatives)
    ambiguous = delta == -(m_pts // 2)
    return delta, mid_idx, ambiguous


def _midpoint_values(values_half: np.ndarray, mid_idx, ambiguous, m_pts: int):
    out = values_half[mid_idx]
    if np.any(ambiguous):
        other = values_half[(mid_idx + m_pts) % (2 * m_pts)]
        out = np.where(ambiguous, 0.5 * (out + other), out)
    return out


def weyl_quantize(a, grid: Grid1D, general_m_cap: int = 2048) -> GridOperator:
    """Weyl quantization of a scalar phase-space symbol on the grid.

    Accepted symbols: a number (multiple of the identity), a function of x
    alone (multiplication operator; both assembled through the closed-form
    discrete delta, hence exact), a ``ProductCutoff`` g(x) k(xi) (separable
    fast path), or a general callable a(x, xi) (table path, M capped for
    memory).  A ``ProductCutoff``'s x-support must keep 2.0 clear of the
    periodic seam at +-R; its xi-support must sit inside the momentum window.

    A ``ProductCutoff`` is checked here and assembled on the first read of
    ``.matrix``, so in ``smoothed_trace`` it is built after H's eigenpairs
    are solved and never sits beside H's matrix.  Its bytes (8 M^2, or
    16 M^2 for a complex result) are admitted against the host's memory
    before each pass of the assembly.
    """
    m_pts = grid.M

    if isinstance(a, (int, float)):
        return GridOperator(grid=grid, N=1,
                            matrix=float(a) * np.eye(m_pts), label=f"const({a})")

    if isinstance(a, ProductCutoff):
        _check_margins(a, grid)
        label = "weyl(product)"

        def assemble():
            _admit(8 * m_pts * m_pts, label, "the cutoff matrix")
            return _product_matrix(a, grid, label)

        return GridOperator(grid=grid, N=1, label=label, assemble=assemble)

    if callable(a):
        n_args = len(inspect.signature(a).parameters)
        if n_args == 1:
            return GridOperator(grid=grid, N=1,
                                matrix=np.diag(np.asarray(a(grid.nodes), dtype=float)),
                                label="weyl(multiplication)")
        if m_pts > general_m_cap:
            raise MemoryError(
                f"general symbol table needs M <= {general_m_cap}; use a ProductCutoff"
            )
        amp = np.asarray(a(grid.half_nodes[:, None], grid.momenta_fft_order[None, :]),
                         dtype=complex)
        table = np.fft.ifft(amp, axis=1)
        delta, mid_idx, ambiguous = _index_tables(grid)
        mat = table[mid_idx, delta % m_pts]
        if np.any(ambiguous):
            other = table[(mid_idx + m_pts) % (2 * m_pts), delta % m_pts]
            mat = np.where(ambiguous, 0.5 * (mat + other), mat)
        mat = 0.5 * (mat + mat.conj().T)
        return GridOperator(grid=grid, N=1, matrix=mat, label="weyl(general)")

    raise TypeError(f"cannot quantize object of type {type(a)!r}")


_WEYL_BLOCK = 1 << 16  # entries per row block of a ProductCutoff's Weyl matrix


def _product_matrix(chi: ProductCutoff, grid: Grid1D, label: str) -> np.ndarray:
    """The hermitized Weyl matrix (B + B^H) / 2 of g(x) k(xi), with
    B[i, j] = g(mid_ij) kappa[delta_ij % M], real when its imaginary part is
    at most 1e-14 of its largest entry.

    Built in blocks of rows, so no M x M temporary is made.  The midpoint
    index is symmetric in (i, j) and delta_ji = -delta_ij mod M (the
    antipodal tie included), so row i of B^T is g(mid_ij) kappa[-delta_ij % M]:
    every entry is the product the full B would hold.  A complex result
    (rare: k not even) takes a second pass, admitted as ``label`` first.
    """
    m_pts = grid.M
    kappa = np.fft.ifft(chi.k(grid.momenta_fft_order))
    kappa_rev = kappa[(-np.arange(m_pts)) % m_pts]
    g_half = chi.g(grid.half_nodes)
    idx = np.arange(m_pts)
    step = max(1, _WEYL_BLOCK // m_pts)

    def rows_of(lo):
        delta, mid_idx, ambiguous = _index_block(m_pts, idx[lo:lo + step], idx)
        g_mid = _midpoint_values(g_half, mid_idx, ambiguous, m_pts)
        lag = delta % m_pts
        return 0.5 * (g_mid * kappa[lag] + (g_mid * kappa_rev[lag]).conj())

    mat = np.empty((m_pts, m_pts))
    imag, scale = 0.0, 0.0
    for lo in range(0, m_pts, step):
        block = rows_of(lo)
        mat[lo:lo + step] = block.real
        imag = max(imag, float(np.max(np.abs(block.imag), initial=0.0)))
        scale = max(scale, float(np.max(np.abs(block.real))))
    if imag <= 1e-14 * max(1.0, scale):
        return mat
    del mat
    _admit(16 * m_pts * m_pts, label, "the complex cutoff matrix")
    mat = np.empty((m_pts, m_pts), dtype=complex)
    for lo in range(0, m_pts, step):
        mat[lo:lo + step] = rows_of(lo)
    return mat


def _check_margins(chi: ProductCutoff, grid: Grid1D) -> None:
    xa, xb = chi.x_support
    if xa < -grid.R + 2.0 or xb > grid.R - 2.0:
        raise SupportMarginError(
            f"x-support [{xa}, {xb}] violates the margin 2.0 inside [-R, R)"
        )
    qa, qb = chi.xi_support
    if qa < -grid.p_max or qb > grid.p_max:
        raise SupportMarginError(
            f"xi-support [{qa}, {qb}] exceeds the momentum window +-{grid.p_max:.3f}"
        )


# ---------------------------------------------------------------------------
# smoothing windows
# ---------------------------------------------------------------------------

_PROFILE_CACHE: dict[str, "_WindowProfile"] = {}
_PROFILE_YMAX = 1200.0  # the one-sided window tail is Gevrey-slow
_GL_ORDER = 768
# uniform knot segments (start, stop, step) of the profile tables
_PROFILE_SEGMENTS = (
    (0.0, 16.0, 0.002),
    (16.0, 64.0, 0.01),
    (64.0, 256.0, 0.05),
    (256.0, _PROFILE_YMAX + 0.1, 0.1),
)


def _theta_eval(kind: str, t):
    t = np.asarray(t, dtype=float)
    if kind == "bump_at_zero":
        # identically 1 on |t| <= 1/4, supported in (-1, 1)
        return transition((np.abs(t) - 0.25) * (4.0 / 3.0))
    if kind == "bump_positive":
        # supported in (1/2, 1)
        return bump_profile(4.0 * t - 3.0)
    raise ValueError(f"unknown window kind {kind!r}")


def _segment_phase_sum(seg: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k w[r, k] exp(i u_k y) for every weight row r and every knot y of
    one uniform segment, as an array (rows, knots).

    With a block size B ~ sqrt(n), each knot is y[bB + j] = y[bB] + (y[j] - y[0]),
    so exp(i u y) factors into a coarse and a fine phase and the whole segment
    is one (rows * n/B x 768) @ (768 x B) product: (n/B + B) * 768 exponentials
    instead of n * 768, and no n x 768 phase matrix.
    """
    n = seg.size
    block = math.isqrt(n - 1) + 1
    coarse = np.exp(1j * np.outer(seg[::block], u))
    coarse = (w[:, None, :] * coarse).reshape(-1, u.size)
    fine = np.exp(1j * np.outer(seg[:block] - seg[0], u))
    return (coarse @ fine.T).reshape(w.shape[0], -1)[:, :n]


class _WindowProfile:
    """h-independent profile Phi(y) = (1/2pi) int theta(u) exp(i u y) du.

    Phi and Phi' are tabulated on the knots ``ys`` and interpolated by cubic
    Hermite polynomials, one per cell between neighbouring knots.  Each cell
    keeps its Horner coefficients in the local coordinate t in [0, 1]; a
    point finds its cell by arithmetic on the uniform segment that holds it.
    The even profile is real and also keeps the primitive: the exact
    integral of every cell before it plus the integral over the partial cell.
    Phi is 0 beyond ``ys[-1]`` and the primitive is constant there.
    """

    def __init__(self, kind: str):
        self.kind = kind
        if kind == "bump_at_zero":
            supp = (-1.0, 1.0)
        else:
            supp = (0.5, 1.0)
        segments = [np.arange(*seg) for seg in _PROFILE_SEGMENTS]
        ys = np.concatenate(segments)
        un, uw = gauss_rule(_GL_ORDER)
        mid, half = 0.5 * (supp[0] + supp[1]), 0.5 * (supp[1] - supp[0])
        u = mid + half * un
        w = half * uw * _theta_eval(kind, u)
        table = np.concatenate(
            [_segment_phase_sum(seg, u, np.stack([w, 1j * u * w])) for seg in segments],
            axis=1)
        table /= 2.0 * math.pi
        self.even = kind == "bump_at_zero"
        self.ys = ys
        if self.even:
            table = table.real
        vals, ders = table
        # segment i covers [start_i, start_{i+1}) in cells of width step_i; the
        # last cell of a segment ends on the first knot of the next, and the
        # last knot ys[-1] starts no cell
        self._starts = np.array([seg[0] for seg in _PROFILE_SEGMENTS])
        steps = np.array([seg[2] for seg in _PROFILE_SEGMENTS])
        self._inv_steps = 1.0 / steps
        sizes = np.array([seg.size for seg in segments])
        self._offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self._last_cell = sizes - 1
        self._last_cell[-1] -= 1
        d = np.repeat(steps, sizes)[:-1]
        f0, f1, g0, g1 = vals[:-1], vals[1:], d * ders[:-1], d * ders[1:]
        # p(t) = c0 + c1 t + c2 t^2 + c3 t^3 on each cell
        self._coef = np.stack([f0, g0, 3.0 * (f1 - f0) - 2.0 * g0 - g1,
                               2.0 * (f0 - f1) + g0 + g1])
        self.total = None
        if self.even:
            # exact cell integrals d (f0 + f1) / 2 + d^2 (f0' - f1') / 12, and
            # the primitive's coefficients on each cell
            cells = d * (0.5 * (f0 + f1) + (g0 - g1) / 12.0)
            self._before = np.concatenate([[0.0], np.cumsum(cells[:-1])])
            self._anti = d * self._coef / np.array([1.0, 2.0, 3.0, 4.0])[:, None]
            self.total = 2.0 * float(self._primitive_part(ys[-1:])[0])

    def _locate(self, ay: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell index and local coordinate t of each point 0 <= ay <= ys[-1]."""
        seg = np.searchsorted(self._starts, ay, side="right") - 1
        pos = (ay - self._starts[seg]) * self._inv_steps[seg]
        k = np.minimum(np.floor(pos), self._last_cell[seg])
        return self._offsets[seg] + k.astype(np.intp), pos - k

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        ay = np.abs(y)
        inside = ay <= self.ys[-1]
        cell, t = self._locate(ay[inside])
        c0, c1, c2, c3 = (c[cell] for c in self._coef)
        out = np.zeros(ay.shape, dtype=self._coef.dtype)
        out[inside] = c0 + t * (c1 + t * (c2 + t * c3))
        if self.even:
            return out
        return np.where(y >= 0, out, np.conj(out))

    def _primitive_part(self, ay: np.ndarray) -> np.ndarray:
        """int_0^{ay} Phi(u) du for 0 <= ay <= ys[-1]."""
        cell, t = self._locate(ay)
        q1, q2, q3, q4 = (q[cell] for q in self._anti)
        return self._before[cell] + t * (q1 + t * (q2 + t * (q3 + t * q4)))

    def primitive(self, y):
        """int_{-inf}^{y} Phi(u) du (even profiles only)."""
        if not self.even:
            raise ValueError("primitive is only defined for the even window")
        y = np.asarray(y, dtype=float)
        ay = np.clip(np.abs(y), 0.0, self.ys[-1])
        part = self._primitive_part(ay)
        return 0.5 * self.total + np.sign(y) * part


def _profile(kind: str) -> _WindowProfile:
    if kind not in _PROFILE_CACHE:
        _PROFILE_CACHE[kind] = _WindowProfile(kind)
    return _PROFILE_CACHE[kind]


@dataclass(frozen=True)
class WindowTheta:
    """Window theta(t/eps) used to mollify energies at scale eps * h^-1.

    ``bump_at_zero`` equals 1 on |t| <= eps/4 (even, real transform);
    ``bump_positive`` is supported in eps * (1/2, 1) (one-sided, complex
    transform).
    """

    kind: str = "bump_at_zero"
    eps: float = 0.25

    def __post_init__(self):
        if self.kind not in ("bump_at_zero", "bump_positive"):
            raise ValueError(f"unknown window kind {self.kind!r}")
        if not self.eps > 0:
            raise ValueError("eps must be positive")

    def theta(self, t):
        return _theta_eval(self.kind, np.asarray(t, dtype=float) / self.eps)

    def with_eps(self, eps: float) -> "WindowTheta":
        return replace(self, eps=float(eps))

    @property
    def is_even(self) -> bool:
        return self.kind == "bump_at_zero"


def fourier_window(w: WindowTheta, h: float, s):
    """Scaled inverse transform (1/2 pi h) int exp(i t s / h) theta(t/eps) dt.

    Equals (eps/h) Phi(eps s / h) for the cached h-independent profile Phi;
    real for the even window, complex for the one-sided one.
    """
    prof = _profile(w.kind)
    scalar = np.ndim(s) == 0
    y = w.eps * np.atleast_1d(np.asarray(s, dtype=float)) / h
    vals = (w.eps / h) * prof(y)
    if scalar:
        return vals[0] if not prof.even else float(vals[0])
    return vals


def window_primitive(w: WindowTheta, h: float, s):
    """Primitive of fourier_window in s: a smoothed step rising to theta(0)."""
    prof = _profile(w.kind)
    scalar = np.ndim(s) == 0
    y = w.eps * np.atleast_1d(np.asarray(s, dtype=float)) / h
    vals = prof.primitive(y)
    return float(vals[0]) if scalar else vals


# ---------------------------------------------------------------------------
# smoothed spectral traces
# ---------------------------------------------------------------------------


_PRODUCT_BLOCK = 1 << 22  # bytes of A U per column block of a cutoff diagonal
# BLAS computes a product's columns in small groups and may round the
# columns after the last whole group differently; blocks of a multiple of
# 32 columns keep the groups of the whole product, and so its bits
_BLOCK_COLUMNS = 32


def _cutoff_diagonal(a_op: GridOperator, vecs: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """<u_j, A u_j> for the columns u_j = vecs[:, j], j in ``cols``,
    eigenvectors of an operator with A's channel count or of one with N
    channels when A is per-channel scalar (then A acts on the M x (N b)
    array of a block's rows).

    The product A U is formed for a block of about ``_PRODUCT_BLOCK`` bytes
    of columns at a time and summed down its columns, so neither the whole
    (dim, k) product nor a copy of the selected columns is made.  A real A
    applies to complex columns as to the float64 view of their real and
    imaginary parts, so no complex copy of A is made, and the sum is
    conj(sum u_j conj(A u_j)), so no conjugate copy of the columns."""
    if a_op.N != 1 and vecs.shape[0] != a_op.dim:
        raise GridMismatchError("channel counts are incompatible")
    mat = a_op.matrix
    width = _PRODUCT_BLOCK // (vecs.shape[0] * vecs.itemsize)
    step = max(_BLOCK_COLUMNS, width - width % _BLOCK_COLUMNS)
    out = np.empty(len(cols), dtype=np.result_type(mat, vecs))
    for lo in range(0, len(cols), step):
        out[lo:lo + step] = _block_diagonal(mat, np.take(vecs, cols[lo:lo + step], axis=1))
    return out


def _block_diagonal(mat: np.ndarray, block: np.ndarray) -> np.ndarray:
    """<u_j, A u_j> for the columns of one C-ordered block; its product with
    A is freed on return, before the next block is taken."""
    rows = block.reshape(mat.shape[0], -1)
    if mat.dtype.kind == "f" and rows.dtype.kind == "c":
        t = (mat @ rows.view(float)).view(complex)
    else:
        t = mat @ rows
    t = np.conjugate(t, out=t).reshape(block.shape)
    return np.einsum("ij,ij->j", block, t).conj()


def smoothed_trace(a_op: GridOperator | None, h_op: GridOperator, f, w: WindowTheta,
                   tau):
    """tr(A f(H) K_w(tau - H)) evaluated through the eigendecomposition.

    ``a_op=None`` means the identity.  Returns a complex scalar (or array over
    tau); for the even window and hermitian A the imaginary part is at
    rounding level.  With a cutoff only the eigenpairs with lambda in the
    support of f (``f.support``; the whole line for an f without one) are
    solved, and <u_j, A u_j> is formed only where f(lambda_j) is not 0, in
    column blocks (``_cutoff_diagonal``).  A's matrix is first read after
    that solve has dropped H's, so a cutoff from ``weyl_quantize`` is
    assembled when H's matrix is gone.
    """
    if a_op is not None and a_op.grid != h_op.grid:
        raise GridMismatchError("cutoff and Hamiltonian live on different grids")
    if a_op is None:
        lam = h_op.eigenvalues()
    else:
        lam, vecs = h_op.eigenpairs(window=getattr(f, "support", (-math.inf, math.inf)))
    fv = np.broadcast_to(f(lam) if callable(f) else f, lam.shape).astype(float)
    if a_op is None:
        weights = fv.astype(complex)
    else:
        cols = np.flatnonzero(fv)
        lam, fv = lam[cols], fv[cols]
        weights = fv * _cutoff_diagonal(a_op, vecs, cols)
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    kern = fourier_window(w, h_op.grid.h, taus[:, None] - lam[None, :])
    vals = kern @ weights
    return vals[0] if np.ndim(tau) == 0 else vals


# ---------------------------------------------------------------------------
# h-sweep verdicts
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    """Config fails schema validation."""


class CertificateError(RuntimeError):
    """The check requires a valid certificate for its hypothesis."""


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares order of an error sequence against h on log-log axes."""

    hs: np.ndarray
    errors: np.ndarray
    slope: float | None
    intercept: float | None
    residual: float | None
    below_floor: bool
    verdict: str
    threshold: float | None = None


def fit_order(pairs, threshold: float | None = None, floor: float = 1e-12) -> SlopeFit:
    """Fit log(error) vs log(h); needs >= 3 non-negative pairs and spread >= 4.

    Errors all below ``floor`` give verdict BELOW_FLOOR.  An exact zero
    among larger errors has no logarithm: the fit gives slope None and
    verdict NO_FIT, a property of the result rather than of the config.
    """
    pairs = list(pairs)
    hs = np.asarray([p[0] for p in pairs], dtype=float)
    errs = np.asarray([p[1] for p in pairs], dtype=float)
    if np.all(np.abs(errs) < floor):
        return SlopeFit(hs=hs, errors=errs, slope=None, intercept=None,
                        residual=None, below_floor=True, verdict="BELOW_FLOOR",
                        threshold=threshold)
    if len(pairs) < 3:
        raise ConfigError("slope fit needs at least 3 points")
    if np.any(errs < 0):
        raise ConfigError("slope fit needs non-negative errors")
    if float(np.max(hs) / np.min(hs)) < 4.0:
        raise ConfigError("h-spread max/min must be at least 4 for a slope fit")
    if np.any(errs == 0):
        return SlopeFit(hs=hs, errors=errs, slope=None, intercept=None,
                        residual=None, below_floor=False, verdict="NO_FIT",
                        threshold=threshold)
    logs_h = np.log(hs)
    logs_e = np.log(errs)
    coef = np.polyfit(logs_h, logs_e, 1)
    fitted = np.polyval(coef, logs_h)
    resid = float(np.sqrt(np.mean((logs_e - fitted) ** 2)))
    slope = float(coef[0])
    verdict = "PASS" if threshold is None or slope >= threshold else "FAIL"
    return SlopeFit(hs=hs, errors=errs, slope=slope, intercept=float(coef[1]),
                    residual=resid, below_floor=False, verdict=verdict,
                    threshold=threshold)


_DECAY_FLOOR = 1e-10  # decay values below this count as exact zeros


@dataclass(frozen=True)
class SweepReport:
    """One h-sweep: a value per h, its relative error against the reference,
    the fitted log-log order of the errors and the verdict."""

    COLUMNS: ClassVar[tuple] = ("h", "value", "reference", "rel_error", "fitted_slope")

    hs: np.ndarray
    values: np.ndarray
    reference: float
    rel_errors: np.ndarray
    slope: float | None
    below_floor: bool
    verdict: str

    def rows(self):
        slope = self.slope if self.slope is not None else float("nan")
        for h, v, e in zip(self.hs, self.values, self.rel_errors):
            yield dict(zip(self.COLUMNS, (h, v, self.reference, e, slope)))


def sweep_verdict(hs, values, order_threshold: float, rel_threshold: float | None = None,
                  *, reference: float = 0.0, errors=None, rel_errors=None,
                  floor: float = 0.0) -> SweepReport:
    """The verdict of one h-sweep, in one of two forms.

    Decay (``rel_threshold`` None): the values are the errors, fitted above
    a floor of 1e-10; PASS when the fitted order reaches ``order_threshold``
    or every value is below the floor.

    Comparison: the errors are |values - reference| and the relative errors
    those over |reference|, unless both are given.  PASS when the last
    relative error is within ``rel_threshold`` and the fit is not FAIL, so a
    fit that is BELOW_FLOOR (every error below ``floor``) or NO_FIT (an exact
    zero among the errors) leaves the relative threshold to decide.
    """
    hs = np.asarray(hs, dtype=float)
    values = np.asarray(values, dtype=float)
    if rel_threshold is None:
        fit = fit_order(zip(hs, values), order_threshold, _DECAY_FLOOR)
        ok = fit.verdict in ("PASS", "BELOW_FLOOR")
        rel_errors = values
    else:
        if errors is None:
            errors = np.abs(values - reference)
            rel_errors = errors / max(abs(reference), 1e-300)
        fit = fit_order(zip(hs, errors), order_threshold, floor)
        ok = rel_errors[-1] <= rel_threshold and fit.verdict != "FAIL"
    return SweepReport(hs=hs, values=values, reference=float(reference),
                       rel_errors=np.asarray(rel_errors, dtype=float), slope=fit.slope,
                       below_floor=fit.below_floor, verdict="PASS" if ok else "FAIL")


# ---------------------------------------------------------------------------
# empirical theorem checks
# ---------------------------------------------------------------------------


def _require_valid(certificate) -> None:
    # an empty shell certifies the hypothesis vacuously
    if certificate is not None and getattr(certificate, "empty_shell", False):
        return
    if certificate is None or not getattr(certificate, "valid", False):
        raise CertificateError("a valid certificate for the hypothesis is required")


def theorem1_check(
    v: MatrixPotential,
    chi: ProductCutoff,
    f,
    tau0: float,
    h_list,
    certificate,
    window_kind: str = "bump_positive",
    eps_rule=None,
    R: float = 6.0,
    tau_max: float | None = None,
    m_cap: int = 8192,
    slope_threshold: float = 3.0,
) -> SweepReport:
    """Decay of the off-zero-window smoothed trace along an h-sweep.

    With the one-sided window the trace should vanish to high order in h on a
    certified shell; the decay verdict is PASS when the fitted slope reaches
    the threshold or every value is below 1e-10.  Running it with the even
    window instead exhibits the leading 1/(2 pi h) growth (negative slope),
    which callers use as the non-applicability control.
    """
    _require_valid(certificate)
    if eps_rule is None:
        eps_rule = math.sqrt
    tau_max = tau_max if tau_max is not None else 1.6 * abs(tau0) + 0.5
    values = []
    for h in h_list:
        grid = grid_for(h, R, tau_max, m_cap)
        a_op = weyl_quantize(chi, grid)
        h_op = build_schrodinger(v, grid)
        eps = eps_rule(h) if callable(eps_rule) else float(eps_rule)
        w = WindowTheta(kind=window_kind, eps=eps)
        values.append(abs(complex(smoothed_trace(a_op, h_op, f, w, tau0))))
    return sweep_verdict(list(h_list), values, slope_threshold)


def theorem2_check(
    v0: MatrixPotential,
    v1: MatrixPotential,
    chi: ProductCutoff,
    f,
    taus,
    h_list,
    window: WindowTheta,
    R: float = 10.0,
    tau_max: float | None = None,
    m_cap: int = 8192,
    d_sep: float = 2.0,
    slope_threshold: float = 3.0,
) -> SweepReport:
    """Locality: traces of two operators agreeing near supp chi must differ
    only to high order in h (decay verdict).  Rejects perturbations closer
    than ``d_sep``."""
    probe = np.linspace(-R, R, 4001)
    diff = np.array([
        np.max(np.abs(np.asarray(v1.eval(float(x))) - np.asarray(v0.eval(float(x)))))
        for x in probe
    ])
    moved = probe[diff > 1e-12]
    xa, xb = chi.x_support
    if moved.size:
        overlap = bool(np.any((moved >= xa) & (moved <= xb)))
        gap = 0.0 if overlap else float(
            np.min(np.where(moved > xb, moved - xb, xa - moved))
        )
        if overlap or gap < d_sep:
            raise SupportMarginError(
                f"perturbation support within {d_sep} of the cutoff support (gap {gap:.2f})"
            )
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    tau_max = tau_max if tau_max is not None else 1.6 * float(np.max(np.abs(taus))) + 0.5
    values = []
    for h in h_list:
        grid = grid_for(h, R, tau_max, m_cap)
        a_op = weyl_quantize(chi, grid)
        op0 = build_schrodinger(v0, grid)
        op1 = build_schrodinger(v1, grid)
        t1 = smoothed_trace(a_op, op1, f, window, taus)
        t0 = smoothed_trace(a_op, op0, f, window, taus)
        values.append(float(np.max(np.abs(t1 - t0))))
    return sweep_verdict(list(h_list), values, slope_threshold)


def theorem3_check(
    v: MatrixPotential,
    chi: ProductCutoff,
    f,
    tau: float,
    h_list,
    window: WindowTheta,
    certificate,
    R: float = 6.0,
    tau_max: float | None = None,
    m_cap: int = 8192,
    rel_threshold: float = 0.05,
    order_threshold: float = 1.0,
) -> SweepReport:
    """Leading term of the localized trace: 2 pi h tr(...) against
    f(tau) * gamma0_localized(tau), with the fitted order of the residual."""
    from .coefficients import gamma0_localized

    _require_valid(certificate)
    if not window.is_even:
        raise ValueError("the leading-term check uses the even window")
    dens = gamma0_localized(v, chi, tau)
    if not dens.converged:
        raise CertificateError("localized density did not converge at this tau")
    f_at = float(f(tau)) if callable(f) else float(f)
    reference = f_at * dens.value
    tau_max = tau_max if tau_max is not None else 1.6 * abs(tau) + 0.5
    values = []
    for h in h_list:
        grid = grid_for(h, R, tau_max, m_cap)
        a_op = weyl_quantize(chi, grid)
        h_op = build_schrodinger(v, grid)
        tr = smoothed_trace(a_op, h_op, f, window, tau)
        values.append(2.0 * math.pi * h * float(np.real(tr)))
    return sweep_verdict(list(h_list), values, order_threshold, rel_threshold,
                         reference=reference)
