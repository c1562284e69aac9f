"""Periodic 1D Fourier-spectral discretization and Weyl quantization.

A grid is made from (R, h, tau_max): it covers x in [-R, R) with M points,
the fewest even M whose momentum window covers twice the classical shell
radius at tau_max (pi h M / (2R) >= 2 sqrt(tau_max)), and carries the
scaled momenta p_m = (pi h / R) m, m = -M/2 .. M/2-1, so the kinetic
operator is exactly diagonal with symbol p^2 on the momentum window.

Weyl quantization of a cutoff chi(x, xi) = g(x) k(xi) (a ``ProductCutoff``)
is the matrix

    A[i, j] = dx * (dp / 2 pi h) * sum_m exp(i d_ij p_m / h) chi(mid_ij, p_m),

with d_ij the minimal-image periodic difference and mid_ij the matching
periodic midpoint (on the half-step grid).  ``weyl_quantize`` returns the
cutoff as the source of A's rows, made a block at a time, and of its
wrapped-diagonal sums; nothing makes the M x M array.

A ``GridOperator`` is a Schrodinger operator from ``build_schrodinger``,
which holds only the triangle LAPACK reads.  It answers its spectrum, from
a values-only solve in place, or its eigenpairs in an energy window (lo,
hi].  One with invariant blocks (``SplitOperator``) is solved a block at a
time, each spectrum once: its uncoupled channels, and the two eigenspaces
of its reflection x -> -x (node j to node (-j) mod M, with a signed
channel involution U) where it commutes with it, each of about half the
dimension; a channel that the reflection maps onto another is that one's
solve, reflected.  Each dense allocation admits its bytes against the
host's memory where it is made (``MemoryBudgetError``).

Smoothed traces sum f(lambda_j) K(tau - lambda_j) <u_j, A u_j> over the
eigenpairs with lambda_j in supp f, for a cutoff A that acts on each
channel alike, with no cutoff assembled: on a constant potential
<u_j, A u_j> is an FFT of A's wrapped-diagonal sums, else it is formed
from A's rows a block at a time.  K(s) = (eps/h)
Phi(eps s / h) is the scaled inverse Fourier transform of a window
theta(t/eps); Phi and Phi' on 26 081 knots (four uniform segments up to
y = 1200) ship with the package (``scripts/window_profiles.py``), one
table per window shape, interpolated by cubic Hermite polynomials.

Every h-sweep ends in one ``SweepReport`` from ``sweep_verdict``: a value
per h, the relative errors against a reference its caller makes, the
least-squares log-log order of the errors (at least 3 h with max/min >= 4)
and PASS/FAIL in a decay or a comparison form.  The three trace-formula
checks below are such sweeps, one value per grid (none when supp f reaches
above a grid's tau_max: ``WindowRangeError``); the ssf module holds the
weak, Weyl-type and derivative sweeps, one value per ``SpectralPair``.
"""
from __future__ import annotations

import ctypes
import functools
import itertools
import math
import mmap
import os
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .bumps import ProductCutoff, bump_profile, transition
from .symbols import MatrixPotential, _hermitian_parts

__all__ = [
    "CoverageError",
    "MemoryBudgetError",
    "SupportMarginError",
    "GridMismatchError",
    "WindowRangeError",
    "Grid1D",
    "GridOperator",
    "SplitOperator",
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
    """Periodic grid x in [-R, R) for the semiclassical parameter h that
    resolves the energies up to ``tau_max``: its M, derived, is the fewest
    even points that cover them (``required_points``)."""

    R: float
    h: float
    tau_max: float
    M: int = field(init=False)

    def __post_init__(self):
        if not (self.R > 0 and self.h > 0 and self.tau_max > 0):
            raise ValueError("R, h and tau_max must be positive")
        object.__setattr__(self, "M", required_points(self.R, self.h, self.tau_max))

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


def grid_for(h: float, R: float, tau_max: float, m_cap: int) -> Grid1D:
    """The grid of one sweep step: the fewest points that cover ``tau_max``;
    CoverageError, with the required M, beyond ``m_cap``."""
    grid = Grid1D(R=R, h=h, tau_max=float(tau_max))
    if grid.M > m_cap:
        raise CoverageError(
            f"h={h} needs M={grid.M} > cap {m_cap}: raise h, shrink R, or raise m_cap",
            required_m=grid.M,
        )
    return grid


def _check_window(grid: Grid1D, top: float, what: str = "support") -> None:
    """WindowRangeError when ``top``, the top of an f's support or of a tau
    grid, lies above the energies ``grid`` resolves."""
    if top > grid.tau_max + 1e-12:
        raise WindowRangeError(f"{what} up to {top} exceeds the reliable window {grid.tau_max}")


def _kinetic_column(grid: Grid1D) -> np.ndarray:
    """First column c of the kinetic matrix F* diag(p^2) F, symmetrized.

    The matrix is the real symmetric circulant K[i, j] = c[(i - j) % M] with
    c[m] = (r[m] + r[-m]) / 2, where r is the first column of the plain
    circulant k; so K equals (k + k^T) / 2 entry for entry.
    """
    r = np.fft.ifft(grid.momenta_fft_order**2).real
    return 0.5 * (r + np.roll(r[::-1], 1))


@functools.cache
def _lapack_eigh() -> dict | None:
    """numpy's own ILP64 hermitian eigensolvers by (dtype, driver): the
    divide-and-conquer ``dsyevd``/``zheevd`` ("evd") and the windowed
    ``dsyevr``/``zheevr`` ("evr"); None when numpy's LAPACK exports them
    under neither naming (MKL, Accelerate, an LP64 system LAPACK).  The
    OpenBLAS in numpy's wheels prefixes its symbols ``scipy_``."""
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
    ``np.linalg.eigvalsh``; only the upper triangle of ``a``, which may be a
    view with a leading dimension (``_routine``), is read, and overwritten.

    ``a`` goes to ?syevd/?heevd in place, with numpy's arguments: uplo 'L'
    and the optimal workspace of a size query (a smaller one changes the
    blocking of the tridiagonal reduction, and so the bits).  LAPACK reads
    the C-ordered buffer as its transpose, whose lower triangle is A itself
    once a complex matrix's upper triangle is conjugated, row by row.
    Without those routines numpy solves a copy of A^H.
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
    eigenvectors, as the columns of a (n, k) array; either bound may be
    infinite.  Only the upper triangle of ``a`` is read, and the solve
    overwrites it; ``a`` may be a view with a leading dimension
    (``_routine``).

    ``a`` goes to ?syevr/?heevr in place with range 'V': LAPACK finds the k
    values by bisection on the tridiagonal form and back-transforms only
    their vectors; for the whole line it takes range 'A', about three times
    as fast by MRRR.  It reads the C-ordered buffer as its transpose, the
    conjugate of a complex A, so its vectors are conjugated on the way out.
    They are the first k rows of a packed n x n Z of small pages
    (``_zeros_in_small_pages``), the bound LAPACK asks for when k is not
    known in advance; only the rows written become resident, and their
    F-contiguous (n, k) transposed view is returned, with no copy.  Where numpy's LAPACK does
    not export the routines, numpy solves a copy of A^H and the window is
    selected from it.
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
    z = _zeros_in_small_pages(a.shape[0], a.dtype, aligned=False)
    isuppz = np.empty(2 * a.shape[0], np.int64)
    span = b"A" if (lo, hi) == (-math.inf, math.inf) else b"V"
    _lapack_call(routine, [b"V", span, b"L", n, a.ctypes.data, lda, ctypes.c_double(lo),
                           ctypes.c_double(hi), ctypes.c_int64(1), n, ctypes.c_double(_ABSTOL),
                           found, w.ctypes.data, z.ctypes.data, n, isuppz.ctypes.data], a.dtype)
    rows = z[:found.value]
    if a.dtype.kind == "c":
        np.conjugate(rows, out=rows)
    return w[:found.value].copy(), rows.T


class GridOperator:
    """A Schrodinger operator from ``build_schrodinger``, asked for its
    spectrum (``eigenvalues``, solved once and cached) or the eigenpairs in
    a window (``eigenpairs``, solved per call).  Its matrix is the C-order
    upper triangle of a (dim, dim) view, whose rows may have a page-aligned
    leading dimension (``_zeros_in_small_pages``), as ``assemble`` writes
    it; the other entries are 0.

    Solves run LAPACK in place (``_evd``, ``_evr``) on the view as it is:
    the operator gives its matrix to the solve and drops it, and a later
    ``.matrix`` assembles it again.  Each allocation admits its bytes
    against the host's memory where it is made (``MemoryBudgetError``): an
    assembly its matrix, a pairs solve two matrices, the matrix and
    LAPACK's eigenvectors (k up to dim, returned as a view with no copy).

    A constant potential's operator carries an ``analytic`` spectrum, the
    channel values that the squared momenta shift to its eigenvalues, and
    builds its matrix only when ``.matrix`` is read: ``eigenvalues``
    solves nothing and ``smoothed_trace`` forms no eigenvector, while
    ``eigenpairs`` solves the assembled matrix.

    Its dimension is M N, the grid's points times its channels, unless
    ``dim`` gives another: a block of a ``SplitOperator`` that is a parity
    eigenspace holds about half of its channels' M N.
    """

    # no eigenvectors are cached; the attribute stays, fixed at None, for
    # perfbench's solve counter, which reads it to tell a solve from a hit
    _vectors = None

    def __init__(self, grid: Grid1D, N: int, label: str = "", *, assemble,
                 analytic: np.ndarray | None = None, dim: int | None = None):
        self.grid = grid
        self.N = N
        self.dim = grid.M * N if dim is None else dim
        self.label = label
        self._analytic = analytic
        self._assemble = assemble
        self._matrix: np.ndarray | None = None
        self._values: np.ndarray | None = None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self._assemble()
        return self._matrix

    def _solved(self) -> np.ndarray:
        """The held matrix, dropped since it can be assembled again, to be
        solved on in place; a view with a leading dimension is handed over
        as it is, since a contiguous copy would make every page resident."""
        mat = self.matrix
        self._matrix = None
        return mat

    def eigenvalues(self) -> np.ndarray:
        if self._values is None:
            if self._analytic is not None:
                vals, order = self._analytic_order()
                self._values = vals[order]
            else:
                self._values = _evd(self._solved())
        return self._values

    def eigenpairs(self, *, window: tuple[float, float] = (-math.inf, math.inf)
                   ) -> tuple[np.ndarray, np.ndarray]:
        """The k ascending eigenvalues in ``window`` = (lo, hi] and a (dim, k)
        array of their eigenvectors as columns, the whole spectrum by
        default: ``_evr`` in place, after the admission of two matrices.  An
        empty window, hi <= lo, gives 0 values and a (dim, 0) array with
        nothing solved, and a held matrix stays held."""
        lo, hi = window
        if not lo < hi:
            return np.zeros(0), np.zeros((self.dim, 0))
        _admit(2 * self.matrix.nbytes, self.label, "the matrix and its eigenvectors")
        return _evr(self._solved(), lo, hi)

    # -- analytic spectrum for constant potentials ------------------------
    def _analytic_order(self):
        p2 = self.grid.momenta**2
        vals = (p2[:, None] + self._analytic[None, :]).ravel()
        order = np.argsort(vals, kind="stable")
        return vals, order

    def _analytic_pairs(self, lo: float, hi: float):
        """The ascending values in (lo, hi] and their flat indices m N + k."""
        vals, order = self._analytic_order()
        keep = _in_window(vals[order], lo, hi)
        return vals[order][keep], order[keep]


class SplitOperator:
    """A Schrodinger operator solved as a direct sum of invariant blocks,
    with no matrix of its own (``build_schrodinger`` makes one).

    ``parts`` holds (op, placements): a ``GridOperator`` block ``op``,
    solved once, and the summands it stands for, each a (channels, embed)
    pair.  ``channels`` names the channels on whose rows (j N + c) the
    summand's eigenvectors live, and ``embed`` maps op's eigenvectors, the
    columns of a (op.dim, k) array, to grid order on those rows (row j n +
    the place of c in ``channels``); None keeps them as solved.  The blocks
    are, for the operator's reflection S = Pi (x) U (``_reflection``):

    - an uncoupled channel c, solved on its own M x M block;
    - a channel that S maps onto an earlier one: a second placement of
      the earlier channel's blocks, with the vectors reflected,
      u[j] -> u[(-j) mod M] (``_reflected``), and nothing assembled;
    - the two eigenspaces of S in a channel, or in all N channels of a
      coupled operator, each on a block of about half the dimension
      (``_parity_blocks``).

    Each block assembles its matrix for its solve and drops it after, so a
    solve holds one block at a time.  ``eigenvalues`` merges the summands'
    values by a stable sort; ``smoothed_trace`` asks the blocks for their
    pairs itself, and a split operator has no pairs of its own."""

    def __init__(self, grid: Grid1D, N: int, parts: tuple, label: str):
        self.grid = grid
        self.N = N
        self.parts = parts
        self.label = label
        self._values: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.grid.M * self.N

    def eigenvalues(self) -> np.ndarray:
        if self._values is None:
            values = []
            for op, placements in self.parts:
                values += [op.eigenvalues()] * len(placements)
            self._values = np.sort(np.concatenate(values), kind="stable")
        return self._values


def potential_samples(v: MatrixPotential, grid: Grid1D) -> np.ndarray:
    """Hermitian parts (V + V^H)/2 of the potential at the grid nodes, (M, N, N),
    from one ``v.on`` call over all nodes."""
    return _hermitian_parts(v.on(grid.nodes))


def _zeros_in_small_pages(n: int, dtype, aligned: bool = True) -> np.ndarray:
    """A zeroed (n, n) C-ordered array in a private anonymous mapping of
    small pages, each resident only once written and unmapped when the
    array is freed.  numpy's allocator asks for huge pages for arrays of
    4 MiB or more, and one 2 MiB page of a triangle's diagonal would hold
    2 MiB of the other triangle.

    ``aligned`` (for an upper triangle), with k = PAGESIZE / itemsize items
    to a page and n > k: lda is n rounded up to a multiple of k, and the
    mapping starts (-n itemsize) mod PAGESIZE bytes before the first row,
    so that every row ends on a page boundary: row i's upper part fills
    ceil((n - i) / k) pages, and no page holds the tail of one row and the
    head of the next.  Otherwise, or for n <= k, lda = n, and whole rows (a
    solve's eigenvectors) fill their pages.  The (n, n) view is returned,
    with a row stride of lda items (``_routine`` takes it)."""
    dtype = np.dtype(dtype)
    per_page = mmap.PAGESIZE // dtype.itemsize
    aligned = aligned and n > per_page
    lda = -(-n // per_page) * per_page if aligned else n
    lead = -n * dtype.itemsize % mmap.PAGESIZE if aligned else 0
    buf = mmap.mmap(-1, lead + dtype.itemsize * n * lda, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype, offset=lead).reshape(n, lda)[:, :n]


def _assemble_schrodinger(grid: Grid1D, samples: np.ndarray, parity=None) -> np.ndarray:
    """The C-order upper triangle of the kinetic circulant tensor identity
    plus the block-diagonal potential, in a (dim, dim) view from
    ``_zeros_in_small_pages`` of the final dtype (real unless a sample is
    complex) whose other entries are 0 and never written.  Row i N + a holds
    the kinetic entries c[(i - j) % M] = c[j - i] at the columns j N + a,
    j >= i, and the samples (i, a, b), b >= a, at the columns i N + b.
    Every write indexes the view: a reshape of it would be a copy.

    With ``parity`` = (allowed, p), the block of one eigenspace of the
    reflection (``_parity_blocks``) instead, on the sites i = 0 .. M/2: its
    basis vector (i, k), for each allowed[i, k] in row-major order, is
    q_i (x) w_k, with q_i = e_i at the fixed sites 0 and M/2 and (e_i +
    p_k e_(M-i)) / sqrt 2 between.  The kinetic entry of (i, k) and (j, k)
    is w_i w_j (c[j - i] + p_k c[i + j]), w = 1/sqrt 2 at a fixed site and
    1 between, and ``samples`` (M/2 + 1, n, n) are the potential's
    compressions to the sites."""
    if not np.any(samples.imag):
        samples = samples.real
    n = samples.shape[1]
    dtype = np.result_type(samples.dtype, np.float64)
    kin = _kinetic_column(grid)
    if parity is None:
        dim = grid.M * n
        mat = _zeros_in_small_pages(dim, dtype)
        for row in range(dim):
            mat[row, row::n] = kin[:grid.M - row // n]
        allowed = np.ones((grid.M, n), dtype=bool)
        place = np.arange(dim).reshape(grid.M, n)
    else:
        allowed, p = parity
        sites, chans = np.nonzero(allowed)
        mat = _zeros_in_small_pages(sites.size, dtype)
        weight = np.where((sites > 0) & (sites < grid.M // 2), 1.0, math.sqrt(0.5))
        for k in range(n):
            rows = np.flatnonzero(chans == k)
            i, w = sites[rows], weight[rows]
            for a, row in enumerate(rows):
                mat[row, rows[a:]] = w[a] * w[a:] * (kin[i[a:] - i[a]]
                                                      + p[k] * kin[(i[a] + i[a:]) % grid.M])
        place = np.zeros(allowed.shape, dtype=np.intp)
        place[allowed] = np.arange(sites.size)
    for a in range(n):
        for b in range(a, n):
            both = allowed[:, a] & allowed[:, b]
            mat[place[both, a], place[both, b]] += samples[both, a, b]
    return mat


# reflected samples that agree to this share of max(1, max |sample|) are taken
# as equal: the nodes x_j and x_(M-j) are negatives to a few ulp of R
_REFLECTION_TOL = 1e-12


def _reflects(samples: np.ndarray, image: np.ndarray, tol: float) -> bool:
    """Whether the samples at the reflected nodes, samples[(-j) mod M],
    equal ``image`` (M, n, n) within ``tol``: x -> -x maps node j to node
    (-j) mod M on the periodic grid."""
    m = len(samples)
    return float(np.max(np.abs(samples[(-np.arange(m)) % m] - image))) <= tol


def _reflection(samples: np.ndarray, tol: float):
    """The reflection of an operator with the node samples ``samples``
    (M, n, n): a signed channel involution U, as (perm, signs) with U e_a =
    signs[a] e_perm[a], for which the reflected samples equal U s U^T
    (``_reflects``), so that S = Pi (x) U commutes with the operator; None
    where none does.  U and -U act alike, so signs[0] is 1; U = I is tried
    first, and a permutation whose diagonals do not match is not tried
    with any signs."""
    n = samples.shape[1]
    diagonals = np.diagonal(samples, axis1=1, axis2=2)
    for perm in map(np.array, itertools.permutations(range(n))):
        if not (np.array_equal(perm[perm], np.arange(n))
                and _reflects(diagonals, diagonals[:, perm], tol)):
            continue
        for tail in itertools.product((1.0, -1.0), repeat=n - 1):
            signs = np.array((1.0,) + tail)
            if np.array_equal(signs[perm], signs) and _reflects(
                    samples, np.outer(signs, signs) * samples[:, perm][:, :, perm], tol):
                return perm, signs
    return None


def _channel_basis(perm: np.ndarray, signs: np.ndarray):
    """(W, d): the real orthonormal eigenvectors of U = (perm, signs), as
    W's columns, and their eigenvalues d = +-1.  A fixed channel a is its
    own, with signs[a]; a swapped pair a < b has (e_a + e_b)/sqrt 2 in
    column a, with signs[a], and (e_a - e_b)/sqrt 2 in column b, with
    -signs[a]; a diagonal U's W is the identity, which changes no bit."""
    n = len(perm)
    w, d, r = np.zeros((n, n)), signs.copy(), math.sqrt(0.5)
    for a, b in enumerate(perm):
        if a == b:
            w[a, a] = 1.0
        elif a < b:
            w[[a, b], a] = r
            w[[a, b], b] = r, -r
            d[b] = -signs[a]
    return w, d


def _parity_blocks(grid: Grid1D, samples: np.ndarray, reflection, label: str, block) -> list:
    """The two eigenspaces of S = Pi (x) U (``_reflection``) on the
    channels of ``samples`` (M, n, n), as [(op, embed)], op made by
    ``block(samples, label, parity)`` and ``embed`` its vectors'
    grid order (``_parity_embed``).

    In U's eigenbasis W (eigenvalues d), the sigma = +-1 eigenspace is
    spanned by q_i (x) w_k with spatial parity p_k = sigma d_k: at the
    fixed sites 0 and M/2 the channels with d_k = sigma, between them
    every channel.  Its dimension is n (M/2 - 1) plus twice the channels
    with d_k = sigma.  The samples are compressed to it exactly, (s[i] +
    P s[-i] P)/2 at the sites between, P = diag(p), so each block is the
    operator's own compression, whatever the reflection's rounding."""
    perm, signs = reflection
    w, d = _channel_basis(perm, signs)
    tilde = w.T @ samples @ w
    m, half = grid.M, grid.M // 2
    sites = np.arange(half + 1)
    fixed = (sites == 0) | (sites == half)
    out = []
    for sigma, sign in ((1.0, "+"), (-1.0, "-")):
        p = sigma * d
        allowed = ~fixed[:, None] | (d == sigma)[None, :]
        comp = tilde[:half + 1].copy()
        comp[1:half] = 0.5 * (tilde[1:half] + np.outer(p, p) * tilde[m - 1:half:-1])
        op = block(comp, f"{label}{sign}", (allowed, p))
        out.append((op, functools.partial(_parity_embed, m, allowed, p, w)))
    return out


def _parity_embed(m: int, allowed: np.ndarray, p: np.ndarray, w, vecs: np.ndarray) -> np.ndarray:
    """The columns of ``vecs``, in the basis of a parity block
    (``_assemble_schrodinger``), in grid order: an (M n, k) array whose
    row j n + a is sum_k W[a, k] q_i[j] v[(i, k)]."""
    half, n, k = m // 2, allowed.shape[1], vecs.shape[1]
    coef = np.zeros((half + 1, n, k), dtype=vecs.dtype)
    coef[allowed] = vecs
    coef[1:half] *= math.sqrt(0.5)
    out = np.empty((m, n, k), dtype=vecs.dtype)
    out[:half + 1] = coef
    out[half + 1:] = p[:, None] * coef[half - 1:0:-1]
    return (w @ out).reshape(m * n, k)


def _reflected(embed, vecs: np.ndarray) -> np.ndarray:
    """One channel's vectors as ``embed`` places them (as solved for None),
    reflected: u[j] -> u[(-j) mod M]."""
    u = vecs if embed is None else embed(vecs)
    return u[(-np.arange(len(u))) % len(u)]


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


def build_schrodinger(v: MatrixPotential, grid: Grid1D) -> GridOperator | SplitOperator:
    """Kinetic circulant tensor identity plus block potential.

    The operator holds the C-order upper triangle alone, in small pages of
    which only the triangle's become resident.  It is assembled at once,
    except for a constant potential, which gets an analytic spectrum and a
    matrix built when ``.matrix`` is read, and for one that splits into
    blocks: a ``SplitOperator``, each of whose blocks is assembled just
    before its solve.  An operator splits where its off-diagonal samples
    are all 0, into its channels, or where it commutes with its reflection
    S = Pi (x) U (``_reflection``), into S's two eigenspaces; a channel
    that S maps onto an earlier one is that channel's blocks, reflected.

    The samples (V + V^H)/2 and the symmetrized kinetic column make the
    matrix exactly hermitian, so they are checked only to be finite
    (ValueError).  What is assembled at once, dim^2 items or the largest
    block's, is admitted against the host's physical memory here, before
    anything is assembled (MemoryBudgetError, with both figures); each
    assembly admits its bytes again, and a solve what it adds.
    """
    samples = potential_samples(v, grid)
    label = f"schrodinger({v.name})"
    if not (np.all(np.isfinite(samples)) and np.all(np.isfinite(_kinetic_column(grid)))):
        raise ValueError(f"{label} has a non-finite potential sample or kinetic entry")
    itemsize = np.dtype(complex if np.any(samples.imag) else float).itemsize

    def block(part: np.ndarray, name: str, parity=None, analytic=None) -> GridOperator:
        """The operator of the samples ``part``, on a parity basis if given."""
        dim = part.shape[1] * grid.M if parity is None else int(parity[0].sum())

        def assemble():
            _admit(itemsize * dim ** 2, name, "the matrix")
            return _assemble_schrodinger(grid, part, parity)
        return GridOperator(grid=grid, N=part.shape[1], label=name, assemble=assemble,
                            analytic=analytic, dim=dim)

    if np.all(samples == samples[0]):
        b0 = samples[0]
        off = b0 - np.diag(np.diag(b0))
        if np.max(np.abs(off), initial=0.0) == 0.0:
            channel_vals = np.diag(b0).real.copy()
        else:
            channel_vals = np.linalg.eigvalsh(b0)
        return block(samples, label, analytic=channel_vals)

    tol = _REFLECTION_TOL * max(1.0, float(np.max(np.abs(samples))))
    split = v.N > 1 and not np.any(samples[:, ~np.eye(v.N, dtype=bool)])
    # the samples of each channel of a split operator, else of the whole
    groups = [samples[:, c:c + 1, c:c + 1] for c in range(v.N)] if split else [samples]
    placed = []  # the (op, embed) summands of each group
    for c, part in enumerate(groups):
        partner = next((e for e in range(c) if _reflects(part, groups[e], tol)), None)
        if partner is not None:
            placed.append([(op, functools.partial(_reflected, embed))
                           for op, embed in placed[partner]])
            continue
        reflection = _reflection(part, tol)
        name = f"{label}[{c}]" if split else label
        if reflection is not None:
            placed.append(_parity_blocks(grid, part, reflection, name, block))
        elif split:
            placed.append([(block(part, name), None)])
        else:
            op = block(samples, label)
            op.matrix  # assembled here, where the build is timed; the first solve takes it
            return op
    _admit(itemsize * max(op.dim for mine in placed for op, _ in mine) ** 2, label,
           "its largest block")
    by_block: dict = {}
    for c, mine in enumerate(placed):
        for op, embed in mine:
            by_block.setdefault(op, []).append(((c,) if split else tuple(range(v.N)), embed))
    return SplitOperator(grid, v.N, tuple((op, tuple(p)) for op, p in by_block.items()), label)


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


def weyl_quantize(chi: ProductCutoff, grid: Grid1D) -> _ProductRows:
    """Weyl quantization of the cutoff chi(x, xi) = g(x) k(xi) on the grid,
    as the source of its matrix's rows and lag sums (``_ProductRows``),
    which a trace reads: the M x M matrix is never made.  TypeError for
    anything but a ``ProductCutoff``; SupportMarginError unless its
    x-support keeps 2.0 clear of the periodic seam at +-R and its
    xi-support sits inside the momentum window.
    """
    if not isinstance(chi, ProductCutoff):
        raise TypeError(f"weyl_quantize takes a ProductCutoff, not {type(chi).__name__}")
    _check_margins(chi, grid)
    return _ProductRows(chi, grid)


_WEYL_BLOCK = 1 << 16  # entries per block of a cutoff's rows


class _ProductRows:
    """The cutoff ``weyl_quantize`` makes on ``grid``: the rows of the
    hermitized Weyl matrix (B + B^H) / 2 of g(x) k(xi), with B[i, j] =
    g(mid_ij) kappa[delta_ij % M], a block of about ``_WEYL_BLOCK`` entries
    at a time (``blocks``), and its lag sums (``lag_sums``), so no M x M
    array is made.  The midpoint index is symmetric in (i, j) and delta_ji =
    -delta_ij mod M (the antipodal tie included), so row i of B^T is
    g(mid_ij) kappa[-delta_ij % M]: every entry is the product the full B
    would hold.  ``g_and_ties`` holds g at the half-grid points and, for the
    antipodal lag M/2 (``_index_block``), its averages with the values R
    away.

    The matrix is real (``dtype``), made from the real parts of kappa alone,
    when its imaginary part is at most 1e-14 of its largest real entry (or
    of 1), decided before any row is made.  The entries of lag l are g(mid)
    kappa_l, kappa_l = (kappa[l] + conj kappa[-l]) / 2, for every midpoint
    value of l's parity (the averages at l = M/2), so each part's largest
    entry is the largest over l of that part of kappa_l times that |g|."""

    label = "weyl(product)"

    def __init__(self, chi: ProductCutoff, grid: Grid1D):
        self.grid = grid
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

        The lag and the kappa factors depend on (i - j) mod M alone, and the
        midpoint index of (lo + i, lo + j) is that of (i, j) plus 2 lo, so
        row lo + i is row i of the first block rolled by lo columns, with g
        rolled by 2 lo half-steps: the first block's indices and kappa
        factors are formed once, and each block is one gather, the products
        and the roll.  g(mid) conj(kappa) is conj(g(mid) kappa) for a real
        g, so the rows are the bits of the direct products."""
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

    def lag_sums(self) -> np.ndarray:
        """s[l] = sum_i A[i, (i - l) mod M] in O(M): the entries of lag l are
        g(mid) kappa_l, and their midpoints run once over the half-grid
        points of the parity of l's minimal image (the nodes for an even
        one), S_0 and S_1 summed; the antipodal ties sum to the same."""
        m = self.m
        parity_sums = self.g_and_ties[:2 * m].reshape(m, 2).sum(axis=0)
        delta = (np.arange(m) + m // 2) % m - m // 2
        return parity_sums[delta % 2] * (0.5 * (self.kappa + self.kappa_rev.conj()))


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
    Hermite polynomials, one per cell.  A point finds its cell by arithmetic
    on the uniform segment that holds it, and the cell's Horner
    coefficients in t in [0, 1] are formed from its two knots' values when
    the point is evaluated, so a profile holds the (2, knots) table, ``ys``
    and, for the even kind, ``_before`` and ``total``.  The even profile is
    real and has the primitive: the exact integral of every cell before a
    point plus that over its partial cell.  Phi is 0 beyond ``ys[-1]``.
    """

    def __init__(self, kind: str):
        self.kind = kind
        segments = [np.arange(*seg) for seg in _PROFILE_SEGMENTS]
        ys = np.concatenate(segments)
        self.even = kind == "bump_at_zero"
        self.ys = ys
        self._table = _load_profile_table(kind, ys.size)
        # segment i covers [start_i, start_{i+1}) in cells of width step_i; the
        # last cell of a segment ends on the first knot of the next, and the
        # last knot ys[-1] starts no cell
        self._starts = np.array([seg[0] for seg in _PROFILE_SEGMENTS])
        self._steps = np.array([seg[2] for seg in _PROFILE_SEGMENTS])
        self._inv_steps = 1.0 / self._steps
        sizes = np.array([seg.size for seg in segments])
        self._offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self._last_cell = sizes - 1
        self._last_cell[-1] -= 1
        self.total = None
        if self.even:
            # exact cell integrals d (f0 + f1) / 2 + d^2 (f0' - f1') / 12
            vals, ders = self._table
            d = np.repeat(self._steps, sizes)[:-1]
            f0, f1, g0, g1 = vals[:-1], vals[1:], d * ders[:-1], d * ders[1:]
            cells = d * (0.5 * (f0 + f1) + (g0 - g1) / 12.0)
            self._before = np.concatenate([[0.0], np.cumsum(cells[:-1])])
            self.total = 2.0 * float(self._primitive_part(ys[-1:])[0])

    def _locate(self, ay: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell index, local coordinate t and cell width d of each point
        0 <= ay <= ys[-1]."""
        seg = np.searchsorted(self._starts, ay, side="right") - 1
        pos = (ay - self._starts[seg]) * self._inv_steps[seg]
        k = np.minimum(np.floor(pos), self._last_cell[seg])
        return self._offsets[seg] + k.astype(np.intp), pos - k, self._steps[seg]

    def _coefficients(self, cell: np.ndarray, d: np.ndarray) -> tuple:
        """c0..c3 of p(t) = c0 + c1 t + c2 t^2 + c3 t^3 on each given cell."""
        vals, ders = self._table
        f0, f1, g0, g1 = vals[cell], vals[cell + 1], d * ders[cell], d * ders[cell + 1]
        return f0, g0, 3.0 * (f1 - f0) - 2.0 * g0 - g1, 2.0 * (f0 - f1) + g0 + g1

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        ay = np.abs(y)
        inside = ay <= self.ys[-1]
        cell, t, d = self._locate(ay[inside])
        c0, c1, c2, c3 = self._coefficients(cell, d)
        out = np.zeros(ay.shape, dtype=self._table.dtype)
        out[inside] = c0 + t * (c1 + t * (c2 + t * c3))
        if self.even:
            return out
        return np.where(y >= 0, out, np.conj(out))

    def _primitive_part(self, ay: np.ndarray) -> np.ndarray:
        """int_0^{ay} Phi(u) du for 0 <= ay <= ys[-1]: on the cell, the
        primitive's coefficients d c_k / (k + 1)."""
        cell, t, d = self._locate(ay)
        q1, q2, q3, q4 = (d * c / k for c, k in zip(self._coefficients(cell, d),
                                                      (1.0, 2.0, 3.0, 4.0)))
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


def _cutoff_diagonal(a: _ProductRows, vecs: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """<u_j, A u_j> for the columns u_j = vecs[:, j], j in the ascending
    ``cols``, eigenvectors of a one-channel operator or of one with N
    channels, on each of whose channels the cutoff A acts alike (on the M
    rows c::N of a column).

    A is read a block of rows R at a time (``a.blocks()``), adding sum_{i
    in R} conj(u_ij) (A_R u_j)_i, on a view of the columns cols[0] to
    cols[-1].  Column-major columns (``_evr``'s) are copied once to C
    order, admitted, where a per-channel A would read their channel rows,
    or a real A their float view, strided.  A real A applies to complex
    columns as to their float64 view, a complex A to real ones as its real
    and imaginary parts, and the sum is conj(sum u_ij conj((A u_j)_i)), so
    no complex or conjugate copy is made."""
    if cols.size == 0:
        # the dtype of a non-empty sum: real for a real A and real columns
        return np.zeros(0, np.result_type(a.dtype, vecs.dtype))
    m = a.grid.M
    span = vecs[:, cols[0]:cols[-1] + 1]
    if span.strides[0] == span.itemsize and (
            vecs.shape[0] != m or (span.dtype.kind, a.dtype.kind) == ("c", "f")):
        _admit(span.nbytes, a.label, "a C-ordered copy of the eigenvectors")
        span = np.ascontiguousarray(span)
    span = span.reshape(m, -1, span.shape[1])
    total = 0.0
    for lo, rows in a.blocks():
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


def _plane_wave_diagonal(a: _ProductRows, h_op: GridOperator, flat: np.ndarray) -> np.ndarray:
    """<u, A u> for the plane waves u = e_m (x) c_k, flat = m N + k, of an
    analytic spectrum, none formed.  With e_m[i] = exp(i x_i p_m / h) /
    sqrt(M), <e_m, A e_m> = (1/M) sum_l s[l] exp(-2 pi i m' l / M), m' = m -
    M/2, for A's lag sums s (``a.lag_sums()``): an FFT of s read at m' mod
    M.  A acts on each channel alike, so the unit c_k drops out."""
    m = h_op.grid.M
    return (np.fft.fft(a.lag_sums()) / m)[(flat // h_op.N - m // 2) % m]


def _weighted_pairs(a: _ProductRows, h_op: GridOperator, f, window, embeds=(None,)) -> list:
    """(lambda_j, f(lambda_j) <u_j, A u_j>) for the eigenpairs of ``h_op`` in
    ``window`` where f(lambda_j) is not 0, from an analytic spectrum's
    values or else one ``eigenpairs`` solve, whose vectors are dropped on
    return: one pair of arrays for each of ``embeds``, the maps of the
    vectors to grid order (None keeps them as solved) that a
    ``SplitOperator`` places them by.  Each maps only the columns from the
    first to the last weighted one."""
    analytic = h_op._analytic is not None
    if analytic:
        lam, flat = h_op._analytic_pairs(*window)
    else:
        lam, vecs = h_op.eigenpairs(window=window)
    fv = np.broadcast_to(f(lam), lam.shape).astype(float)
    cols = np.flatnonzero(fv)
    if analytic:
        return [(lam[cols], fv[cols] * _plane_wave_diagonal(a, h_op, flat[cols]))]
    first, last = (cols[0], cols[-1] + 1) if cols.size else (0, 0)
    span = vecs[:, first:last]
    return [(lam[cols], fv[cols] * _cutoff_diagonal(a, span if embed is None else embed(span),
                                                   cols - first))
            for embed in embeds]


def smoothed_trace(a: _ProductRows, h_op: GridOperator | SplitOperator, f, w: WindowTheta,
                   tau):
    """tr(A f(H) K_w(tau - H)) evaluated through the eigendecomposition, for
    a cutoff A from ``weyl_quantize`` and a callable f.

    Returns a scalar (or array over tau), real when the window, A and the
    eigenvectors are; for the even window and hermitian A the imaginary
    part is at rounding level.  Only the eigenpairs with lambda in the
    support of f (``f.support``; the whole line for an f without one) and
    f(lambda) not 0 are weighted.  An analytic spectrum is not solved and
    forms no eigenvector (``_plane_wave_diagonal``); any other is solved on
    that window, and <u_j, A u_j> formed from A's rows a block at a time
    (``_cutoff_diagonal``).  A's matrix is never made.

    A cutoff acts on each of H's channels alike.  A is read through its
    row source (``blocks``, ``lag_sums``): anything without one, such as an
    operator from ``build_schrodinger``, is a TypeError, as is an f that
    is not callable, and a cutoff on another grid a GridMismatchError, all
    before anything is solved.

    On a ``SplitOperator`` the cutoff is applied to its blocks in turn:
    each assembles its matrix, is solved and gets its <u_j, A u_j> on each
    of its placements' vectors (a mirror channel's are its partner's,
    reflected), and drops its matrix and eigenvectors before the next.
    The summands' (lambda_j, weight) lists are merged by one stable sort
    on lambda.
    """
    if not hasattr(a, "blocks"):
        raise TypeError(f"{getattr(a, 'label', type(a).__name__)} is not a cutoff: "
                        "it has no rows to read; make one with weyl_quantize")
    if a.grid != h_op.grid:
        raise GridMismatchError("cutoff and Hamiltonian live on different grids")
    if not callable(f):
        raise TypeError(f"f must be a function of the eigenvalues, not {type(f).__name__}")
    window = getattr(f, "support", (-math.inf, math.inf))
    parts = [part for op, placements in getattr(h_op, "parts", [(h_op, [((), None)])])
             for part in _weighted_pairs(a, op, f, window, [embed for _, embed in placements])]
    lam = np.concatenate([part[0] for part in parts])
    order = np.argsort(lam, kind="stable")
    lam, weights = lam[order], np.concatenate([part[1] for part in parts])[order]
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    kern = fourier_window(w, h_op.grid.h, taus[:, None] - lam[None, :])
    vals = kern @ weights
    return vals[0] if np.ndim(tau) == 0 else vals


# ---------------------------------------------------------------------------
# h-sweep verdicts
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    """Config fails schema validation."""


def _check_ladder(hs) -> None:
    """ConfigError unless the h-ladder admits a slope fit."""
    if len(hs) < 3 or float(np.max(hs) / np.min(hs)) < 4.0:
        raise ConfigError("a slope fit needs at least 3 h with max/min >= 4, not "
                          f"{[float(h) for h in hs]}")


def _log_slope(hs: np.ndarray, errors: np.ndarray, floor: float) -> tuple[float | None, bool]:
    """The least-squares slope of log(error) against log(h), and whether
    every error is below ``floor`` (then there is no slope).  An exact zero
    among larger errors has no logarithm and no slope either: a property of
    the result, so it is not refused; a negative error is a ValueError."""
    if np.all(np.abs(errors) < floor):
        return None, True
    _check_ladder(hs)
    if np.any(errors < 0):
        raise ValueError("a slope fit needs non-negative errors")
    if np.any(errors == 0):
        return None, False
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0]), False


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
        """One row of Python floats per h, in ``COLUMNS`` order."""
        slope = float("nan") if self.slope is None else self.slope
        for h, v, e in zip(self.hs.tolist(), self.values.tolist(), self.rel_errors.tolist()):
            yield [h, v, self.reference, e, slope]


def _relative_errors(errors, reference):
    """Errors over |reference|, elementwise, with the reference's modulus
    held at 1e-300 or above: an exact zero against a zero reference has
    relative error 0, not NaN."""
    return errors / np.maximum(np.abs(reference), 1e-300)


def sweep_verdict(hs, values, order_threshold: float, rel_threshold: float | None = None,
                  *, reference: float = 0.0, rel_errors=None) -> SweepReport:
    """The verdict of one h-sweep, in one of two forms, on the least-squares
    slope of log(error) against log(h).  The slope needs at least 3 h with
    max/min >= 4 (ConfigError) and non-negative errors (ValueError); there
    is none when every error is below the floor or one is exactly zero.

    Decay (``rel_threshold`` None): the values are the errors, fitted above
    a floor of 1e-10; PASS when the slope reaches ``order_threshold`` or
    every value is below the floor, so an exact zero among larger values
    fails.  It takes no ``rel_errors``.

    Comparison: the errors are |values - reference| and the relative errors
    those over |reference|; when ``rel_errors`` is given, the values are the
    errors.  PASS when the last relative error is within ``rel_threshold``
    and no slope falls short of ``order_threshold``, so with no slope (every
    error below 1e-12, or an exact zero among them) the relative threshold
    decides.
    """
    hs = np.asarray(hs, dtype=float)
    values = np.asarray(values, dtype=float)
    if rel_threshold is None:
        if rel_errors is not None:
            raise ValueError("a decay sweep's relative errors are its values")
        slope, below_floor = _log_slope(hs, values, _DECAY_FLOOR)
        ok = below_floor or (slope is not None and slope >= order_threshold)
        rel_errors = values
    else:
        if rel_errors is None:
            errors = np.abs(values - reference)
            rel_errors = _relative_errors(errors, reference)
        else:
            errors = values
        slope, below_floor = _log_slope(hs, errors, _COMPARISON_FLOOR)
        ok = rel_errors[-1] <= rel_threshold and (slope is None or slope >= order_threshold)
    return SweepReport(hs=hs, values=values, reference=float(reference),
                       rel_errors=np.asarray(rel_errors, dtype=float), slope=slope,
                       below_floor=below_floor, verdict="PASS" if ok else "FAIL")


# ---------------------------------------------------------------------------
# empirical theorem checks
# ---------------------------------------------------------------------------


def theorem1_check(v: MatrixPotential, chi: ProductCutoff, f, tau0: float, grids,
                   window: WindowTheta, *, order_threshold: float = 3.0) -> SweepReport:
    """Decay of the off-zero-window smoothed trace along an h-sweep.

    With the one-sided window the trace should vanish to high order in h on
    a certified shell: PASS when the fitted slope reaches the threshold or
    every value is below 1e-10.  The even window instead shows the leading
    1/(2 pi h) growth (negative slope), the non-applicability control.
    """
    for grid in grids:
        _check_window(grid, f.support[1])
    values = []
    for grid in grids:
        tr = smoothed_trace(weyl_quantize(chi, grid), build_schrodinger(v, grid), f, window, tau0)
        values.append(abs(complex(tr)))
    return sweep_verdict([grid.h for grid in grids], values, order_threshold)


def _check_separation(v0: MatrixPotential, v1: MatrixPotential, chi: ProductCutoff, R: float,
                      d_sep: float) -> None:
    """SupportMarginError where V1 differs from V0 within ``d_sep`` of the
    cutoff's x-support, probed on 4001 points of [-R, R] (one ``on`` call
    per potential)."""
    probe = np.linspace(-R, R, 4001)
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


def theorem2_check(v0: MatrixPotential, v1: MatrixPotential, chi: ProductCutoff, f, taus,
                   grids, window: WindowTheta, *, d_sep: float = 2.0,
                   order_threshold: float = 3.0) -> SweepReport:
    """Locality: traces of two operators agreeing near supp chi must differ
    only to high order in h (decay verdict).  Rejects perturbations closer
    than ``d_sep`` to supp chi (``_check_separation``)."""
    for grid in grids:
        _check_window(grid, f.support[1])
    _check_separation(v0, v1, chi, grids[0].R, d_sep)
    values = []
    for grid in grids:
        a_op = weyl_quantize(chi, grid)
        op0 = build_schrodinger(v0, grid)
        op1 = build_schrodinger(v1, grid)
        t1 = smoothed_trace(a_op, op1, f, window, taus)
        t0 = smoothed_trace(a_op, op0, f, window, taus)
        values.append(float(np.max(np.abs(t1 - t0))))
    return sweep_verdict([grid.h for grid in grids], values, order_threshold)


def theorem3_check(v: MatrixPotential, chi: ProductCutoff, f, tau: float, grids,
                   window: WindowTheta, reference: float, *, rel_threshold: float = 0.05,
                   order_threshold: float = 1.0) -> SweepReport:
    """Leading term of the localized trace: 2 pi h tr(...) against
    ``reference``, its limit f(tau) * gamma0_localized(tau), with the fitted
    order of the residual."""
    if not window.is_even:
        raise ValueError("the leading-term check uses the even window")
    for grid in grids:
        _check_window(grid, f.support[1])
    values = []
    for grid in grids:
        tr = smoothed_trace(weyl_quantize(chi, grid), build_schrodinger(v, grid), f, window, tau)
        values.append(2.0 * math.pi * grid.h * float(np.real(tr)))
    return sweep_verdict([grid.h for grid in grids], values, order_threshold, rel_threshold,
                         reference=reference)
