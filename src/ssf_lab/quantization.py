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
multiplication operators come out exactly diagonal.  A ``ProductCutoff``'s
matrix is made a block of rows at a time, and assembled only when
``.matrix`` is read.

A ``GridOperator`` answers two requests: its spectrum, from a values-only
solve in place, or its eigenpairs in an energy window (lo, hi], which is
all a smoothed trace reads of them.  A Schrodinger operator holds only the
triangle of its matrix that LAPACK reads; one with no coupling between its
channels holds only the triangles of its channel blocks.  Each dense
allocation, a matrix or the eigenvectors of a solve, admits its own bytes
against the host's physical memory where it is made, so a step that cannot
fit stops with ``MemoryBudgetError`` before it allocates.

Smoothed spectral traces sum f(lambda_j) K(tau - lambda_j) <u_j, A u_j> over
the eigenpairs with lambda_j in supp f, with <u_j, A u_j> formed from A's
rows a block at a time, so no cutoff is assembled; K is the scaled inverse
Fourier transform of a window theta(t/eps): K(s) = (eps/h) Phi(eps s / h)
with an h-independent profile Phi cached per window shape.  Phi and Phi'
on 26 081 knots (four uniform segments up to y = 1200) ship with the
package, one table per shape, built by ``scripts/window_profiles.py``; a
process loads a shape's table on first use.  Between knots Phi is
interpolated by piecewise cubic Hermite polynomials.

Every h-sweep of the package ends in one ``SweepReport`` from
``sweep_verdict``: a value per h, the relative errors against a reference,
the log-log order ``fit_order`` fits to the errors (at least 3 h with
max/min >= 4) and PASS/FAIL in a decay or a comparison form.  The three
trace-formula checks below are such sweeps, one value per grid given (none
when supp f reaches above a grid's reliable window: ``WindowRangeError``);
the ssf module holds the weak, Weyl-type and derivative sweeps.
"""
from __future__ import annotations

import ctypes
import functools
import inspect
import math
import mmap
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .bumps import ProductCutoff, bump_profile, transition
from .quadrature import QuadratureError
from .symbols import MatrixPotential

__all__ = [
    "CoverageError",
    "MemoryBudgetError",
    "SupportMarginError",
    "GridMismatchError",
    "WindowRangeError",
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


class WindowRangeError(ValueError):
    """Test function support exceeds the reliable energy window."""


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


def grid_for(h: float, R: float, tau_max: float, m_cap: int) -> Grid1D:
    """The grid of one sweep step: the fewest points that cover ``tau_max``;
    CoverageError, with the required M, beyond ``m_cap``."""
    m = required_points(R, h, tau_max)
    if m > m_cap:
        raise CoverageError(
            f"h={h} needs M={m} > cap {m_cap}: raise h, shrink R, or raise m_cap",
            required_m=m,
        )
    return Grid1D(R=R, M=m, h=h, tau_max=float(tau_max))


def _check_window(grid: Grid1D, top: float, what: str = "support") -> None:
    """WindowRangeError when ``top``, the top of an f's support or of a tau
    grid, lies above the energies ``grid`` resolves."""
    tau_max = grid.reliable_tau_max() if grid.tau_max is None else grid.tau_max
    if top > tau_max + 1e-12:
        raise WindowRangeError(f"{what} up to {top} exceeds the reliable window {tau_max}")


def _kinetic_column(grid: Grid1D) -> np.ndarray:
    """First column c of the kinetic matrix F* diag(p^2) F, symmetrized.

    The matrix is the real symmetric circulant K[i, j] = c[(i - j) % M] with
    c[m] = (r[m] + r[-m]) / 2, where r is the first column of the plain
    circulant k; so K equals (k + k^T) / 2 entry for entry.
    """
    r = np.fft.ifft(grid.momenta_fft_order**2).real
    return 0.5 * (r + np.roll(r[::-1], 1))


_CHECK_TILE = 256  # side of the square tiles of the hermiticity check
# entries per block of columns of the plane waves, so no temporary of the
# array's size is made
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
    ``np.linalg.eigvalsh``; only the upper triangle of ``a`` is read, and
    the solve overwrites it.  ``a`` may be a view with a leading dimension
    (``_routine``).

    ``a`` goes to ?syevd/?heevd in place, with numpy's arguments: uplo 'L'
    and the optimal workspace of a size query (a smaller one changes the
    blocking of the tridiagonal reduction, and so the bits).  LAPACK reads
    the C-ordered buffer as its transpose, so its lower triangle is the
    upper one of ``a``, which is A itself once a complex matrix's upper
    triangle is conjugated, row by row.  Where numpy's LAPACK does not
    export the routines, numpy solves a copy of A^H, whose lower triangle
    it reads.
    """
    routines = _lapack_eigh()
    if routines is None:
        return np.linalg.eigvalsh(a.conj().T)
    routine, lda = _routine(routines, a, "evd")
    if a.dtype.kind == "c":
        for i in range(a.shape[0]):
            np.conjugate(a[i, i:], out=a[i, i:])
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
    bound may be infinite.  Only the upper triangle of ``a`` is read, and
    the solve overwrites it; ``a`` may be a view with a leading dimension
    (``_routine``).

    ``a`` goes to ?syevr/?heevr in place with range 'V': LAPACK finds the k
    values by bisection on the tridiagonal form and back-transforms only
    their vectors; for the whole line it takes range 'A', about three times
    as fast by MRRR.  It reads the C-ordered buffer as its transpose, the
    conjugate of a complex A, so its vectors are conjugated on the way out.
    They are the first k rows of a C-ordered n x n array Z, the bound LAPACK
    asks for when k is not known in advance; only the rows written become
    resident.  Where numpy's LAPACK does not export the routines, numpy
    solves a copy of A^H and the window is selected from it.
    """
    routines = _lapack_eigh()
    if routines is None:
        w, v = np.linalg.eigh(a.conj().T)
        keep = _in_window(w, lo, hi)
        return w[keep], np.ascontiguousarray(v[:, keep])
    routine, lda = _routine(routines, a, "evr")
    n = ctypes.c_int64(a.shape[0])
    found = ctypes.c_int64(0)
    w = np.empty(a.shape[0])
    z = np.empty(a.shape, a.dtype)
    isuppz = np.empty(2 * a.shape[0], np.int64)
    span = b"A" if (lo, hi) == (-math.inf, math.inf) else b"V"
    _lapack_call(routine, [b"V", span, b"L", n, a.ctypes.data, lda, ctypes.c_double(lo),
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

    ``.matrix`` returns what the operator holds.  With ``upper_only`` that
    is the C-order upper triangle of a (dim, dim) array, the part the
    solves read, and its strictly lower entries read 0; the assembly is
    trusted to be hermitian and is not checked (``build_schrodinger``
    checks its inputs).  Such an operator cannot act as a matrix, so
    ``smoothed_trace`` refuses it as a cutoff.  ``_row_blocks`` reads the
    matrix a block of rows at a time: slices of the held matrix, or, while
    none is held, the blocks of the operator's ``rows`` source (a
    ``ProductCutoff``'s), so that nothing is assembled.

    What an operator holds is a (K, m, m) stack of independent blocks, block
    c on the rows and columns c::K, each solved alone: a (dim, dim) matrix
    is K = 1, and an operator that ``build_schrodinger`` finds has no
    entries between its N channels holds the (N, M, M) stack of the upper
    triangles of its channel blocks, which is its ``.matrix``.
    ``eigenvalues`` merges the blocks' values by a stable sort, and
    ``eigenpairs`` puts each block's eigenvectors on its rows, zero on the
    other blocks' rows.

    Each allocation admits its own bytes against the host's memory where it
    is made (``MemoryBudgetError`` when they do not fit): an assembly its
    matrix, and a pairs solve, before it starts, K + 2 of what the operator
    holds: the blocks, their eigenvectors as LAPACK writes them and the
    merged (dim, k) array, for k up to dim; three matrices, a fourth for
    the copy of a caller's array, and N + 2 stacks for a split operator.

    Constant-potential operators carry an ``analytic`` spectrum instead:
    plane waves tensored with channel eigenvectors.  Their matrix is built
    on the first read of ``.matrix`` and kept.
    An operator whose spectrum alone is read never holds a dense matrix,
    and ``eigenpairs`` forms only the window's plane waves.
    """

    # no eigenvectors are cached; the attribute stays, fixed at None, for
    # perfbench's solve counter, which reads it to tell a solve from a hit
    _vectors = None

    def __init__(self, grid: Grid1D, N: int, matrix: np.ndarray | None = None,
                 label: str = "", *, assemble=None, analytic: tuple | None = None,
                 upper_only: bool = False, rows=None):
        if (matrix is None) == (assemble is None):
            raise ValueError("give exactly one of matrix and assemble")
        self.grid = grid
        self.N = N
        self.label = label
        self.upper_only = upper_only
        self._analytic = analytic
        self._rows = rows
        self._assemble = assemble
        self._matrix = None if matrix is None else _checked_hermitian(matrix, self.dim)
        self._values: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.grid.M * self.N

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            mat = self._assemble()
            self._matrix = mat if self.upper_only else _checked_hermitian(mat, self.dim)
        return self._matrix

    def _release(self) -> None:
        """Drop the held matrix if it can be assembled again."""
        if self._assemble is not None:
            self._matrix = None

    def _blocks(self) -> np.ndarray:
        """What is solved on, in place, as a (K, m, m) stack: the held matrix,
        released, or a copy of a caller's array."""
        mat = self.matrix
        if self._assemble is None:
            mat = mat.copy()
        self._release()
        return np.ascontiguousarray(mat).reshape(-1, *mat.shape[-2:])

    def _row_blocks(self):
        """(lo, rows lo:lo + b of the matrix) for blocks of b rows, about
        ``_WEYL_BLOCK`` entries each, in order."""
        if self._matrix is None and self._rows is not None:
            return self._rows.blocks()
        mat = self.matrix
        step = max(1, _WEYL_BLOCK // mat.shape[1])
        return ((lo, mat[lo:lo + step]) for lo in range(0, mat.shape[0], step))

    def eigenvalues(self) -> np.ndarray:
        if self._values is None:
            if self._analytic is not None:
                self._values = self._analytic_values()
            else:
                values = [_evd(block) for block in self._blocks()]
                self._values = np.sort(np.concatenate(values), kind="stable")
        return self._values

    def eigenpairs(self, *, window: tuple[float, float] = (-math.inf, math.inf)
                   ) -> tuple[np.ndarray, np.ndarray]:
        """The k ascending eigenvalues in ``window`` = (lo, hi] and a (dim, k)
        array of their eigenvectors as columns, the whole spectrum by
        default: plane waves for an analytic spectrum, else ``_evr`` on each
        block in place, after the admission of K + 2 of what the operator
        holds (and one more for a caller's array, whose copy is solved).

        The stack is dropped after the last block is solved, and the merged
        array is made after that: block c's eigenvector j goes to column
        rank[offset_c + j] of the merged order, on the rows c::K.  Nothing
        else refers to the stack, so ``del`` frees it before that array."""
        lo, hi = window
        if self._analytic is not None:
            return self._analytic_pairs(lo, hi)
        stacks = self.dim // self.matrix.shape[-1] + 2 + (self._assemble is None)
        _admit(stacks * self.matrix.nbytes, self.label, "the matrix and its eigenvectors")
        stack = self._blocks()
        n = len(stack)
        solved = [_evr(block, lo, hi) for block in stack]
        del stack
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
    """Hermitian parts (V + V^H)/2 of the potential at the grid nodes, (M, N, N),
    from one ``v.on`` call over all nodes."""
    b = v.on(grid.nodes)
    return 0.5 * (b + np.conj(np.swapaxes(b, 1, 2)))


def _zeros_in_small_pages(shape: tuple, dtype) -> np.ndarray:
    """A zeroed C-ordered array in a private anonymous mapping of 4 KiB
    pages, each resident only once it is written.  numpy's allocator asks
    for huge pages (``madvise``) for arrays of 4 MiB or more, and one 2 MiB
    page of a triangle's diagonal would hold 2 MiB of the other triangle.
    The mapping is unmapped when the array is freed."""
    dtype = np.dtype(dtype)
    buf = mmap.mmap(-1, dtype.itemsize * math.prod(shape), flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype).reshape(shape)


def _assemble_schrodinger(grid: Grid1D, samples: np.ndarray, split: bool = False) -> np.ndarray:
    """The C-order upper triangle of the kinetic circulant tensor identity
    plus the block-diagonal potential, written into a (dim, dim) array of
    the final dtype (real unless a sample is complex) whose other entries
    are 0 and never written (``_zeros_in_small_pages``).  With ``split``
    (no entries between the channels) the N channel blocks alone, as an
    (N, M, M) stack: block c is the one-channel matrix of the samples
    (:, c, c), the rows and columns c::N of the whole one.

    Row i N + a holds the kinetic entries c[(i - j) % M] = c[j - i] at the
    columns j N + a, j >= i (c is symmetric), and the potential samples
    (i, a, b), b >= a, at the columns i N + b."""
    if not np.any(samples.imag):
        samples = samples.real
    n_ch = samples.shape[1]
    parts = [samples[:, c:c + 1, c:c + 1] for c in range(n_ch)] if split else [samples]
    dim = grid.M * parts[0].shape[1]
    out = _zeros_in_small_pages((len(parts), dim, dim), np.result_type(samples.dtype, np.float64))
    kin = _kinetic_column(grid)
    for mat, part in zip(out, parts):
        n = part.shape[1]
        for row in range(dim):
            mat[row, row::n] = kin[:grid.M - row // n]
        # entry (j N + a, j N + b) of the flat matrix, for j = 0 .. M-1
        flat = mat.reshape(-1)
        for a in range(n):
            for b in range(a, n):
                flat[a * dim + b::n * (dim + 1)] += part[:, a, b]
    return out if split else out[0]


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

    The operator holds its matrix as the C-order upper triangle alone
    (``upper_only``: the triangle LAPACK reads), in 4 KiB pages of which
    only the triangle's become resident.  It is assembled at once, except
    for constant potentials: they get an analytic spectrum and a matrix
    that is built only when ``.matrix`` is read.  A potential whose
    off-diagonal samples are all 0 is split: it holds the upper triangles of
    its N channel blocks alone, an (N, M, M) stack, and solves them one at a
    time.

    The potential samples (V + V^H)/2 and the symmetrized kinetic column
    make the matrix exactly hermitian, so what is checked is that they are
    finite: ValueError before anything is assembled when they are not.
    What is assembled, dim^2 items or N M^2 for a split operator, is checked
    against the host's physical memory before each assembly:
    MemoryBudgetError, with both figures, when it does not fit.  A solve
    admits what it adds itself (``GridOperator``), and an analytic spectrum
    its plane-wave vectors when they are formed.
    """
    if v.n != 1:
        raise NotImplementedError("the quantization engine is one-dimensional")
    samples = potential_samples(v, grid)
    label = f"schrodinger({v.name})"
    if not (np.all(np.isfinite(samples)) and np.all(np.isfinite(_kinetic_column(grid)))):
        raise ValueError(f"{label} has a non-finite potential sample or kinetic entry")
    itemsize = np.dtype(complex if np.any(samples.imag) else float).itemsize

    def assembler(split: bool):
        items = v.N * grid.M**2 if split else (v.N * grid.M) ** 2

        def assemble():
            _admit(itemsize * items, label, "the channel blocks" if split else "the matrix")
            _return_free_heap()
            return _assemble_schrodinger(grid, samples, split=split)
        return assemble

    if np.any(samples != samples[0]):
        split = v.N > 1 and not np.any(samples[:, ~np.eye(v.N, dtype=bool)])
        op = GridOperator(grid=grid, N=v.N, label=label, assemble=assembler(split),
                          upper_only=True)
        op.matrix  # assembled here, where the build is timed; the first solve takes it
        return op

    b0 = samples[0]
    off = b0 - np.diag(np.diag(b0))
    if np.max(np.abs(off), initial=0.0) == 0.0:
        channel_vals = np.diag(b0).real.copy()
        channel_vecs = np.eye(v.N, dtype=complex)
    else:
        channel_vals, channel_vecs = np.linalg.eigh(b0)
    return GridOperator(grid=grid, N=v.N, label=label, assemble=assembler(False),
                        upper_only=True, analytic=(channel_vals, channel_vecs))


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


_GENERAL_M_CAP = 2048  # the largest M of a general symbol's (2M, M) table


def weyl_quantize(a, grid: Grid1D) -> GridOperator:
    """Weyl quantization of a scalar phase-space symbol on the grid.

    Accepted symbols: a number (multiple of the identity), a function of x
    alone (multiplication operator; both assembled through the closed-form
    discrete delta, hence exact), a ``ProductCutoff`` g(x) k(xi) (separable
    fast path), or a general callable a(x, xi) (table path, M capped for
    memory).  A ``ProductCutoff``'s x-support must keep 2.0 clear of the
    periodic seam at +-R; its xi-support must sit inside the momentum window.

    A ``ProductCutoff`` is checked here and gets its rows (``_ProductRows``),
    which ``smoothed_trace`` reads a block at a time, so a trace never
    assembles its matrix.  The matrix is assembled from the same rows on the
    first read of ``.matrix``, after its bytes (8 M^2, or 16 M^2 for a
    complex one) are admitted against the host's memory.
    """
    m_pts = grid.M

    if isinstance(a, (int, float)):
        return GridOperator(grid=grid, N=1,
                            matrix=float(a) * np.eye(m_pts), label=f"const({a})")

    if isinstance(a, ProductCutoff):
        _check_margins(a, grid)
        label = "weyl(product)"
        rows = _ProductRows(a, grid)

        def assemble():
            _admit(rows.dtype.itemsize * m_pts * m_pts, label, "the cutoff matrix")
            return _product_matrix(rows)

        return GridOperator(grid=grid, N=1, label=label, assemble=assemble, rows=rows)

    if callable(a):
        n_args = len(inspect.signature(a).parameters)
        if n_args == 1:
            return GridOperator(grid=grid, N=1,
                                matrix=np.diag(np.asarray(a(grid.nodes), dtype=float)),
                                label="weyl(multiplication)")
        if m_pts > _GENERAL_M_CAP:
            raise MemoryError(
                f"general symbol table needs M <= {_GENERAL_M_CAP}; use a ProductCutoff"
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


_WEYL_BLOCK = 1 << 16  # entries per block of rows of a matrix, made or read


class _ProductRows:
    """The rows of the hermitized Weyl matrix (B + B^H) / 2 of g(x) k(xi),
    with B[i, j] = g(mid_ij) kappa[delta_ij % M], a block of about
    ``_WEYL_BLOCK`` entries at a time, so no M x M array is made.  The
    midpoint index is symmetric in (i, j) and delta_ji = -delta_ij mod M
    (the antipodal tie included), so row i of B^T is g(mid_ij)
    kappa[-delta_ij % M]: every entry is the product the full B would hold.

    The midpoint values are those of g at the half-grid points, or, at
    the antipodal lag M/2 (``_index_block``), their averages with the values
    R away; ``g_and_ties`` holds both, in that order.

    The matrix is real (``dtype``) when its imaginary part is at most 1e-14
    of its largest real entry (or of 1), which is decided here, before any
    row is made.  The entries of lag l are g(mid) kappa_l with kappa_l =
    (kappa[l] + conj kappa[-l]) / 2, for every midpoint value of the parity
    of l (the averages at l = M/2), so each part's largest entry is the
    largest over l of that part of kappa_l times the largest of those |g|.
    A real matrix's rows are made from the real parts of kappa alone."""

    def __init__(self, chi: ProductCutoff, grid: Grid1D):
        m = grid.M
        kappa = np.fft.ifft(chi.k(grid.momenta_fft_order))
        kappa_rev = kappa[(-np.arange(m)) % m]
        g = chi.g(grid.half_nodes)
        self.g_and_ties = np.concatenate([g, 0.5 * (g + np.roll(g, -m))])
        # the largest |g(mid)| of each parity, of the values and of the ties
        most = np.abs(self.g_and_ties).reshape(2, m, 2).max(axis=1)
        reach = np.resize(most[0], m)
        reach[m // 2] = most[1, (m // 2) % 2]
        per_lag = 0.5 * (kappa + kappa_rev.conj())
        imag = float(np.max(reach * np.abs(per_lag.imag)))
        scale = float(np.max(reach * np.abs(per_lag.real)))
        if imag <= 1e-14 * max(1.0, scale):
            kappa, kappa_rev = kappa.real.copy(), kappa_rev.real.copy()
        self.m, self.kappa, self.kappa_rev = m, kappa, kappa_rev
        self.dtype = kappa.dtype

    def blocks(self):
        """(lo, rows lo:lo + b) for blocks of b rows, in order.

        The lag delta_ij and the kappa factors depend on (i - j) mod M
        alone, and the midpoint index of (lo + i, lo + j) is that of (i, j)
        plus 2 lo, so row lo + i is row i of the first block rolled by lo
        columns, with g rolled by 2 lo half-steps.  The first block's indices
        and kappa factors are formed once; each block is then one gather of
        its midpoint values, the products and the roll.  g(mid) conj(kappa)
        is conj(g(mid) kappa) for a real g, so the rows are the bits of the
        direct products."""
        m = self.m
        idx = np.arange(m)
        step = max(1, _WEYL_BLOCK // m)
        delta, mid, ambiguous = _index_block(m, idx[:step], idx)
        lag = delta % m
        forward, backward = self.kappa[lag], self.kappa_rev[lag].conj()
        pick = np.where(ambiguous, mid + 2 * m, mid)
        del delta, mid, ambiguous, lag
        for lo in range(0, m, step):
            n = min(step, m - lo)
            g_mid = np.roll(self.g_and_ties.reshape(2, -1), -2 * lo, axis=1).reshape(-1)[pick[:n]]
            yield lo, np.roll(0.5 * (g_mid * forward[:n] + g_mid * backward[:n]), lo, axis=1)


def _product_matrix(rows: _ProductRows) -> np.ndarray:
    """The M x M matrix of ``rows``, filled a block at a time."""
    mat = np.empty((rows.m, rows.m), rows.dtype)
    for lo, block in rows.blocks():
        mat[lo:lo + len(block)] = block
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
# uniform knot segments (start, stop, step) of the profile tables
_PROFILE_SEGMENTS = (
    (0.0, 16.0, 0.002),
    (16.0, 64.0, 0.01),
    (64.0, 256.0, 0.05),
    (256.0, _PROFILE_YMAX + 0.1, 0.1),
)
# the tables of Phi and Phi' on the knots, one .npy per window kind, shipped
# with the package and written by the generator
_PROFILE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "profiles")
_PROFILE_GENERATOR = "scripts/window_profiles.py --write"


def _theta_eval(kind: str, t):
    t = np.asarray(t, dtype=float)
    if kind == "bump_at_zero":
        # identically 1 on |t| <= 1/4, supported in (-1, 1)
        return transition((np.abs(t) - 0.25) * (4.0 / 3.0))
    if kind == "bump_positive":
        # supported in (1/2, 1)
        return bump_profile(4.0 * t - 3.0)
    raise ValueError(f"unknown window kind {kind!r}")


def _profile_path(kind: str) -> str:
    return os.path.join(_PROFILE_DIR, f"{kind}.npy")


def _load_profile_table(kind: str, knots: int) -> np.ndarray:
    """The shipped (2, knots) table of Phi and Phi' of one window kind:
    float64 for the even window, complex128 for the one-sided one.  A
    missing, unreadable or mis-shaped table is a ValueError naming the
    generator; nothing here builds one."""
    path = _profile_path(kind)
    shape = (2, knots)
    dtype = np.dtype(np.float64 if kind == "bump_at_zero" else np.complex128)
    try:
        table = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise ValueError(f"cannot read the {kind} window profile {path} ({exc}); "
                         f"rebuild it with python {_PROFILE_GENERATOR}") from exc
    if table.shape != shape or table.dtype != dtype:
        raise ValueError(f"the {kind} window profile {path} holds {table.shape} {table.dtype}, "
                         f"not {shape} {dtype}; rebuild it with python {_PROFILE_GENERATOR}")
    return table


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
        segments = [np.arange(*seg) for seg in _PROFILE_SEGMENTS]
        ys = np.concatenate(segments)
        self.even = kind == "bump_at_zero"
        self.ys = ys
        vals, ders = _load_profile_table(kind, ys.size)
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


def _cutoff_diagonal(a_op: GridOperator, vecs: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """<u_j, A u_j> for the columns u_j = vecs[:, j], j in the ascending
    ``cols``, eigenvectors of an operator with A's channel count or of one
    with N channels when A is per-channel scalar (then A acts on each
    channel's M rows of a column).

    A is read a block of rows R at a time (``GridOperator._row_blocks``),
    which adds sum_{i in R} conj(u_ij) (A_R u_j)_i, so no cutoff is
    assembled; the product A_R U is formed on a view of the columns cols[0]
    to cols[-1], so no copy of them is made.  A real A applies to complex
    columns as to the float64 view of their real and imaginary parts, a
    complex A to real columns as its real and imaginary parts, and the sum
    is conj(sum u_ij conj((A u_j)_i)), so no complex or conjugate copy of
    the columns is made."""
    if a_op.N != 1 and vecs.shape[0] != a_op.dim:
        raise GridMismatchError("channel counts are incompatible")
    if cols.size == 0:
        return np.zeros(0, dtype=complex)
    span = vecs[:, cols[0]:cols[-1] + 1].reshape(a_op.dim, -1, cols[-1] + 1 - cols[0])
    total = 0.0
    for lo, rows in a_op._row_blocks():
        for c in range(span.shape[1]):
            u = span[:, c]
            if rows.dtype.kind == u.dtype.kind:
                t = rows @ u
            elif rows.dtype.kind == "f":
                t = (rows @ u.view(float)).view(complex)
            else:  # a complex A on real columns: no complex copy of them
                t = rows.real @ u + 1j * (rows.imag @ u)
            np.conjugate(t, out=t)
            total = total + np.einsum("ij,ij->j", u[lo:lo + len(rows)], t)
    return np.conjugate(total)[cols - cols[0]]


def smoothed_trace(a_op: GridOperator | None, h_op: GridOperator, f, w: WindowTheta,
                   tau):
    """tr(A f(H) K_w(tau - H)) evaluated through the eigendecomposition.

    ``a_op=None`` means the identity.  Returns a complex scalar (or array over
    tau); for the even window and hermitian A the imaginary part is at
    rounding level.  With a cutoff only the eigenpairs with lambda in the
    support of f (``f.support``; the whole line for an f without one) are
    solved, and <u_j, A u_j> is formed only from the first to the last j
    where f(lambda_j) is not 0, from A's rows a block at a time
    (``_cutoff_diagonal``): a cutoff from ``weyl_quantize`` is never
    assembled, and a held matrix is read in slices.  A cutoff that holds
    only its upper triangle (``GridOperator.upper_only``), such as a
    Schrodinger operator, is a ValueError.
    """
    if a_op is not None and a_op.grid != h_op.grid:
        raise GridMismatchError("cutoff and Hamiltonian live on different grids")
    if a_op is not None and a_op.upper_only:
        raise ValueError(f"the cutoff {a_op.label} holds only its upper triangle")
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
    """A quantity the check's hypothesis should make finite does not converge."""


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


def _check_ladder(hs) -> None:
    """ConfigError unless the h-ladder admits a slope fit."""
    if len(hs) < 3 or float(np.max(hs) / np.min(hs)) < 4.0:
        raise ConfigError("a slope fit needs at least 3 h with max/min >= 4, not "
                          f"{[float(h) for h in hs]}")


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
    _check_ladder(hs)
    if np.any(errs < 0):
        raise ConfigError("slope fit needs non-negative errors")
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
_COMPARISON_FLOOR = 1e-12  # comparison errors below this count as exact


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
                  *, reference: float = 0.0, errors=None, rel_errors=None) -> SweepReport:
    """The verdict of one h-sweep, in one of two forms.

    Decay (``rel_threshold`` None): the values are the errors, fitted above
    a floor of 1e-10; PASS when the fitted order reaches ``order_threshold``
    or every value is below the floor.

    Comparison: the errors are |values - reference| and the relative errors
    those over |reference|, unless both are given.  PASS when the last
    relative error is within ``rel_threshold`` and the fit is not FAIL, so a
    fit that is BELOW_FLOOR (every error below 1e-12) or NO_FIT (an exact
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
        fit = fit_order(zip(hs, errors), order_threshold, _COMPARISON_FLOOR)
        ok = rel_errors[-1] <= rel_threshold and fit.verdict != "FAIL"
    return SweepReport(hs=hs, values=values, reference=float(reference),
                       rel_errors=np.asarray(rel_errors, dtype=float), slope=fit.slope,
                       below_floor=fit.below_floor, verdict="PASS" if ok else "FAIL")


# ---------------------------------------------------------------------------
# empirical theorem checks
# ---------------------------------------------------------------------------


def theorem1_check(
    v: MatrixPotential,
    chi: ProductCutoff,
    f,
    tau0: float,
    grids,
    window: WindowTheta,
    *,
    order_threshold: float = 3.0,
) -> SweepReport:
    """Decay of the off-zero-window smoothed trace along an h-sweep.

    With the one-sided window the trace should vanish to high order in h on a
    certified shell; the decay verdict is PASS when the fitted slope reaches
    the threshold or every value is below 1e-10.  Running it with the even
    window instead exhibits the leading 1/(2 pi h) growth (negative slope),
    which callers use as the non-applicability control.  Every h takes the
    one ``window``.
    """
    for grid in grids:
        _check_window(grid, f.support[1])
    values = []
    for grid in grids:
        tr = smoothed_trace(weyl_quantize(chi, grid), build_schrodinger(v, grid), f, window, tau0)
        values.append(abs(complex(tr)))
    return sweep_verdict([grid.h for grid in grids], values, order_threshold)


def theorem2_check(
    v0: MatrixPotential,
    v1: MatrixPotential,
    chi: ProductCutoff,
    f,
    taus,
    grids,
    window: WindowTheta,
    *,
    d_sep: float = 2.0,
    order_threshold: float = 3.0,
) -> SweepReport:
    """Locality: traces of two operators agreeing near supp chi must differ
    only to high order in h (decay verdict).  Rejects perturbations closer
    than ``d_sep``, as seen on 4001 points of the box of ``grids[0]``, where
    each potential is evaluated by one ``on`` call."""
    for grid in grids:
        _check_window(grid, f.support[1])
    probe = np.linspace(-grids[0].R, grids[0].R, 4001)
    diff = np.max(np.abs(v1.on(probe) - v0.on(probe)), axis=(1, 2))
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
    values = []
    for grid in grids:
        a_op = weyl_quantize(chi, grid)
        op0 = build_schrodinger(v0, grid)
        op1 = build_schrodinger(v1, grid)
        t1 = smoothed_trace(a_op, op1, f, window, taus)
        t0 = smoothed_trace(a_op, op0, f, window, taus)
        values.append(float(np.max(np.abs(t1 - t0))))
    return sweep_verdict([grid.h for grid in grids], values, order_threshold)


def theorem3_check(
    v: MatrixPotential,
    chi: ProductCutoff,
    f,
    tau: float,
    grids,
    window: WindowTheta,
    *,
    rel_threshold: float = 0.05,
    order_threshold: float = 1.0,
) -> SweepReport:
    """Leading term of the localized trace: 2 pi h tr(...) against
    f(tau) * gamma0_localized(tau), with the fitted order of the residual.

    Raises CertificateError, before any operator is built, where the
    localized density does not converge (a branch critical value in supp chi).
    """
    from .coefficients import gamma0_localized

    if not window.is_even:
        raise ValueError("the leading-term check uses the even window")
    for grid in grids:
        _check_window(grid, f.support[1])
    try:
        dens = gamma0_localized(v, chi, tau)
    except QuadratureError as err:
        raise CertificateError("localized density did not converge at this tau") from err
    reference = float(f(tau)) * dens
    values = []
    for grid in grids:
        tr = smoothed_trace(weyl_quantize(chi, grid), build_schrodinger(v, grid), f, window, tau)
        values.append(2.0 * math.pi * grid.h * float(np.real(tr)))
    return sweep_verdict([grid.h for grid in grids], values, order_threshold, rel_threshold,
                         reference=reference)
