import ctypes
import importlib.util
import math
import mmap
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import (PEAK_RSS_SOURCE, MatrixCutoff, cutoff_integral, cutoff_matrix,
                      embedded, full_matrix, merged_split_pairs, plane_waves, random_hermitian,
                      sized_grid, unblocked_operator)
from ssf_lab.bumps import Bump1D, ProductCutoff
from ssf_lab import quadrature
from ssf_lab.coefficients import bump_test_function
from ssf_lab.quadrature import gauss_rule
from ssf_lab.quantization import (
    ConfigError,
    CoverageError,
    Grid1D,
    GridMismatchError,
    MemoryBudgetError,
    SupportMarginError,
    WindowRangeError,
    WindowTheta,
    build_schrodinger,
    fourier_window,
    grid_for,
    required_points,
    smoothed_trace,
    sweep_verdict,
    theorem1_check,
    theorem2_check,
    theorem3_check,
    weyl_quantize,
    window_primitive,
)
from ssf_lab import quantization as qz
from ssf_lab.quantization import GridOperator
from ssf_lab.symbols import MatrixPotential, model_potential


def small_grid(h=0.25, R=6.0, tau_max=1.5):
    return Grid1D(R=R, h=h, tau_max=tau_max)


def solved_pairs(op, window=(-math.inf, math.inf)):
    """The eigenpairs of an operator in ``window``; a split operator's are
    its channels' own pairs, merged."""
    if isinstance(op, qz.SplitOperator):
        return merged_split_pairs(op, window)
    return op.eigenpairs(window=window)


def reconstruction_residual(op) -> float:
    """max |V diag(lambda) V^H - A| / max |A| of the operator's eigenpairs."""
    vals, vecs = solved_pairs(op)
    approx = (vecs * vals) @ vecs.conj().T
    mat = full_matrix(op)
    scale = float(np.max(np.abs(mat))) or 1.0
    return float(np.max(np.abs(approx - mat))) / scale


def index_tables(grid: Grid1D):
    """Minimal-image lags, midpoint indices and antipodal ties of every
    entry of an M x M Weyl matrix."""
    idx = np.arange(grid.M)
    return qz._index_block(grid.M, idx, idx)


def midpoint_values(values_half: np.ndarray, mid_idx, ambiguous, m_pts: int):
    """g(mid_ij) from the half-grid values, averaged with the value R away
    at the antipodal tie: the reference for a Weyl matrix's midpoints."""
    out = values_half[mid_idx]
    if np.any(ambiguous):
        other = values_half[(mid_idx + m_pts) % (2 * m_pts)]
        out = np.where(ambiguous, 0.5 * (out + other), out)
    return out


def general_weyl_matrix(symbol, grid: Grid1D) -> np.ndarray:
    """The hermitized Weyl matrix of a general symbol a(x, xi) from its full
    table: A[i, j] = sum_m exp(i d_ij p_m / h) a(mid_ij, p_m) / M, an inverse
    FFT over the momenta at the half-grid points, read at each entry's lag
    and midpoint (averaged at the antipodal tie)."""
    amp = np.asarray(symbol(grid.half_nodes[:, None], grid.momenta_fft_order[None, :]),
                     dtype=complex)
    table = np.fft.ifft(amp, axis=1)
    delta, mid_idx, ambiguous = index_tables(grid)
    mat = table[mid_idx, delta % grid.M]
    other = table[(mid_idx + grid.M) % (2 * grid.M), delta % grid.M]
    mat = np.where(ambiguous, 0.5 * (mat + other), mat)
    return 0.5 * (mat + mat.conj().T)


def dense_operator(grid: Grid1D, N: int, mat: np.ndarray) -> GridOperator:
    """A grid operator whose every assembly is a fresh copy of ``mat``."""
    return GridOperator(grid=grid, N=N, label="dense", assemble=mat.copy)


CHI = ProductCutoff(g=Bump1D(0, 2.0), k=Bump1D(0, 1.2))
SIGMA2 = np.array([[0.0, -1j], [1j, 0.0]])

# four assembled models, real and complex, and one constant potential
ASSEMBLY_MODELS = [
    model_potential("diagonal_bumps", depths=[-1.0], centers=[0.5], widths=[1.0]),
    model_potential("reference"),
    model_potential("avoided_crossing", gap=0.2),
    MatrixPotential(N=2, v_infinity=np.diag([0.0, 0.3]), name="complex",
                    eval_on=lambda xs: np.exp(-xs * xs)[:, None, None] * SIGMA2
                    + np.diag([0.0, 0.3])),
    model_potential("constant", v_inf=[0.3, 0.9], N=2),
]


class TestGrid:
    def test_geometry(self):
        g = sized_grid(128, 0.25)
        assert g.M * g.dx == pytest.approx(2 * g.R, abs=0)
        assert g.dp == pytest.approx(math.pi * g.h / g.R)
        assert len(g.nodes) == 128 and g.nodes[0] == -6.0
        assert g.momenta[0] == -g.dp * 64 and g.momenta[-1] == g.dp * 63

    def test_coverage_rule(self):
        # M is the fewest even points whose momenta cover twice the shell
        # radius at tau_max
        g = Grid1D(R=6.0, h=0.25, tau_max=1.5)
        assert g.M == required_points(6.0, 0.25, 1.5) and g.M % 2 == 0
        assert g.p_max >= 2.0 * math.sqrt(1.5) > g.dp * (g.M // 2 - 1)

    def test_validation(self):
        for bad in ({"R": -1.0}, {"h": 0.0}, {"tau_max": 0.0}, {"tau_max": -1.5}):
            with pytest.raises(ValueError, match="must be positive"):
                Grid1D(**{"R": 6.0, "h": 0.25, "tau_max": 1.5, **bad})
        # tau_max is required, and M is derived from it
        with pytest.raises(TypeError):
            Grid1D(R=6.0, h=0.25)
        with pytest.raises(TypeError):
            Grid1D(R=6.0, M=128, h=0.25, tau_max=1.5)


class TestBuildSchrodinger:
    def test_free_spectrum_exact(self):
        g = small_grid()
        op = build_schrodinger(model_potential("constant", v_inf=0.0, N=1), g)
        assert np.array_equal(op.eigenvalues(), np.sort(g.momenta**2))

    def test_free_multiplicity_with_channels(self):
        g = small_grid()
        op = build_schrodinger(model_potential("constant", v_inf=0.0, N=2), g)
        expect = np.sort(np.concatenate([g.momenta**2, g.momenta**2]))
        assert np.array_equal(op.eigenvalues(), expect)

    def test_constant_shift_exact(self):
        g = small_grid()
        op = build_schrodinger(model_potential("constant", v_inf=[0.7], N=1), g)
        assert np.array_equal(op.eigenvalues(), np.sort(g.momenta**2 + 0.7))

    def test_hermitian_and_reconstruction(self):
        g = sized_grid(64, 0.5)
        op = build_schrodinger(model_potential("reference"), g)
        mat = full_matrix(op)
        scale = np.max(np.abs(mat))
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-11 * scale
        assert reconstruction_residual(op) < 1e-10

    def test_against_finite_difference_oracle(self):
        # truncated harmonic-like well; 4th-order periodic FD at 4x resolution
        v = model_potential("diagonal_bumps", depths=[-4.0], centers=[0.0],
                            widths=[2.0], v_inf=[4.0])
        h0 = 0.5
        e0 = build_schrodinger(v, sized_grid(128, h0)).eigenvalues()[0]
        m_f = 512
        xs = -6.0 + 12.0 * np.arange(m_f) / m_f
        dx = 12.0 / m_f
        lap = (np.diag(np.full(m_f, 30.0))
               + np.diag(np.full(m_f - 1, -16.0), 1) + np.diag(np.full(m_f - 1, -16.0), -1)
               + np.diag(np.full(m_f - 2, 1.0), 2) + np.diag(np.full(m_f - 2, 1.0), -2))
        lap[0, -1] = lap[-1, 0] = -16.0
        lap[0, -2] = lap[-2, 0] = lap[1, -1] = lap[-1, 1] = 1.0
        lap /= 12.0 * dx * dx
        fd = h0 * h0 * lap + np.diag(4.0 - 4.0 * np.exp(-((xs / 2.0) ** 2)))
        e0_fd = np.linalg.eigvalsh(fd)[0]
        assert abs(e0 - e0_fd) / abs(e0_fd) < 1e-6

    def test_analytic_pairs_reconstruct(self):
        g = sized_grid(64, 0.5)
        op = build_schrodinger(model_potential("constant", v_inf=[0.3, 0.9], N=2), g)
        assert reconstruction_residual(op) < 1e-10

    # the whole matrix of each model, as an operator build_schrodinger does
    # not split assembles it; the even ones split (TestReflection)
    @pytest.mark.parametrize("v", ASSEMBLY_MODELS, ids=lambda v: v.name)
    def test_assembly_matches_kron_reference(self, v, kron_reference):
        g = sized_grid(48, 0.25)
        op = unblocked_operator(v, g)
        ref = kron_reference(v, g)
        assert op.matrix.dtype == ref.dtype
        assert np.array_equal(full_matrix(op), ref)

    @pytest.mark.parametrize("v", ASSEMBLY_MODELS, ids=lambda v: v.name)
    def test_stored_triangle_matches_kron_reference(self, v, kron_reference):
        # the operator holds the upper triangle and zeros below it
        g = sized_grid(48, 0.25)
        op = unblocked_operator(v, g)
        assert np.array_equal(np.triu(op.matrix), np.triu(kron_reference(v, g)))
        assert not np.any(np.tril(op.matrix, -1))

    @pytest.mark.parametrize("v", ASSEMBLY_MODELS[:4], ids=lambda v: v.name)
    def test_values_are_the_bits_of_the_mirrored_reference(self, v, kron_reference):
        # the whole matrix's values are the reference's bits; an operator
        # split by its reflection (avoided_crossing, complex) solves two
        # other matrices, whose values agree to REFLECTION_DRIFT
        g = sized_grid(48, 0.25)
        whole = unblocked_operator(v, g)
        expect = np.linalg.eigvalsh(kron_reference(v, g))
        assert np.array_equal(np.linalg.eigvalsh(full_matrix(whole)), expect)
        assert np.array_equal(whole.eigenvalues(), expect)
        op = build_schrodinger(v, g)
        drift = np.max(np.abs(op.eigenvalues() - expect)) / np.max(np.abs(expect))
        if isinstance(op, qz.SplitOperator):
            assert drift <= REFLECTION_DRIFT
        else:
            assert drift == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0)],
                             ids=["nan", "inf", "-inf", "complex-nan"])
    def test_non_finite_potential_rejected(self, monkeypatch, bad):
        # the samples are checked where the assembled matrix used to be: at
        # one node, before anything is assembled
        g = sized_grid(48, 0.25)
        spot = g.nodes[17]

        def field(xs):
            out = np.repeat(np.array([[[-1.0, 0.2], [0.2, 0.3]]], dtype=type(bad)), len(xs), axis=0)
            out[xs == spot, 0, 0] = bad
            return out

        v = MatrixPotential(N=2, eval_on=field,
                            v_infinity=np.diag([-1.0, 0.3]), name="one-bad-node")
        assembled = []
        monkeypatch.setattr(qz, "_assemble_schrodinger", lambda *args: assembled.append(args))
        with pytest.raises(ValueError, match="non-finite"):
            build_schrodinger(v, g)
        assert assembled == []

    def test_values_solve_holds_the_triangle(self):
        # a fresh process solving the reference model's spectrum at h = 1/56:
        # it grew by 1.03 matrices of 8 dim^2 bytes with both triangles in
        # huge pages, and by 0.67 with the upper one alone in 4 KiB pages
        code = PEAK_RSS_SOURCE + (
            "from ssf_lab.quantization import build_schrodinger, grid_for\n"
            "from ssf_lab.symbols import model_potential\n"
            "grid = grid_for(1 / 56, 12.0, 3.24, 8192)\n"
            "before = peak_rss()\n"
            "op = build_schrodinger(model_potential('reference'), grid)\n"
            "op.eigenvalues()\n"
            "print(op.dim, peak_rss() - before)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        dim, grown = map(int, proc.stdout.split())
        assert dim == 3084
        assert grown < 0.85 * 8 * dim * dim

    def test_assembly_holds_the_pages_of_its_rows(self):
        # a fresh process assembling the reference model at h = 1/56: it
        # grows by the pages that the triangle's rows fill when each ends on
        # a page boundary, sum ceil((n - i) s / PAGESIZE), plus 1 MiB; with
        # lda = n it grew by 5.5 MB more, the partly filled page at each end
        code = PEAK_RSS_SOURCE + (
            "import mmap\n"
            "from ssf_lab.quantization import build_schrodinger, grid_for\n"
            "from ssf_lab.symbols import model_potential\n"
            "v = model_potential('reference')\n"
            "build_schrodinger(v, grid_for(1 / 8, 12.0, 3.24, 8192))\n"
            "grid = grid_for(1 / 56, 12.0, 3.24, 8192)\n"
            "before = rss()\n"
            "op = build_schrodinger(v, grid)\n"
            "n, s = op.dim, op.matrix.itemsize\n"
            "pages = sum(-(-(n - i) * s // mmap.PAGESIZE) for i in range(n))\n"
            "print(n, rss() - before, pages * mmap.PAGESIZE)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        dim, grown, rows = map(int, proc.stdout.split())
        assert dim == 3084
        assert grown <= rows + 2**20

    def test_constant_potential_assembles_on_demand(self, kron_reference):
        g = sized_grid(48, 0.25)
        v = model_potential("constant", v_inf=[0.3, 0.9], N=2)
        op = build_schrodinger(v, g)
        op.eigenpairs()
        assert op._matrix is None
        mat = op.matrix
        assert op.matrix is mat
        assert np.array_equal(full_matrix(op), kron_reference(v, g))


WHOLE = (-math.inf, math.inf)

# the largest difference, relative to the largest |value|, that a split by
# the reflection may make in the values and the traces against the whole
# matrix's solve.  On the even models of TestReflection at h = 1/16, 1/32
# and 1/64 it measured up to 1.3e-14 for the whole spectrum (7.4e-15 at the
# tests' h), 3.3e-16 for a window's values and 4.0e-15 for the traces
REFLECTION_DRIFT = 5e-14


def counted(monkeypatch):
    """Record (shape, "values") of every matrix handed to the values solver,
    and (shape, (lo, hi)) of every one handed to the windowed solver."""
    calls = []
    solve, windowed = qz._evd, qz._evr

    def wrapper(a):
        calls.append((a.shape, "values"))
        return solve(a)

    def windowed_wrapper(a, lo, hi):
        calls.append((a.shape, (lo, hi)))
        return windowed(a, lo, hi)

    monkeypatch.setattr(qz, "_evd", wrapper)
    monkeypatch.setattr(qz, "_evr", windowed_wrapper)
    return calls


DIAGONAL_2 = model_potential("diagonal_bumps", depths=[-1.0, 0.6], centers=[0.0, 0.5],
                             widths=[1.0, 0.7], v_inf=[0.0, 0.3])


class TestSplitSolve:
    """A potential with no coupling between its channels is solved one
    block at a time: DIAGONAL_2's even channel 0 as its two parity halves
    and its channel 1 whole, conical_crossing's channel 0 alone, whose
    reflection is channel 1.  Operators that are neither uncoupled nor
    even are not split."""

    @pytest.fixture(params=[DIAGONAL_2, model_potential("conical_crossing")],
                    ids=lambda v: v.name)
    def op(self, request):
        return build_schrodinger(request.param, small_grid(h=1 / 16, tau_max=2.0))

    def test_values_match_dense(self, op):
        dense = np.linalg.eigvalsh(full_matrix(op))
        vals = merged_split_pairs(op)[0]
        assert np.max(np.abs(vals - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_pairs_per_channel(self, op, monkeypatch):
        calls = counted(monkeypatch)
        vals, vecs = merged_split_pairs(op)
        m = op.grid.M
        dims = {"schrodinger(diagonal_bumps)": [m // 2 + 1, m // 2 - 1, m],
                "schrodinger(conical_crossing)": [m]}[op.label]
        assert calls == [((n, n), WHOLE) for n in dims]
        assert np.all(np.diff(vals) >= 0)
        assert reconstruction_residual(op) < 1e-10
        # every eigenvector lives on one channel's rows
        support = np.any(vecs.reshape(op.grid.M, op.N, op.dim) != 0, axis=0)
        assert np.array_equal(support.sum(axis=0), np.ones(op.dim))
        # nothing is cached: a window is solved again, block by block
        window = (-math.inf, 0.5 * (vals[1] + vals[2]))
        assert merged_split_pairs(op, window)[1].shape == (op.dim, 2)
        solved = len(op.parts)
        assert calls[-solved:] == [((n, n), window) for (n, _), _ in calls[:solved]]

    def test_trace_matches_dense_solve(self, op):
        a = weyl_quantize(CHI, op.grid)
        f = bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_at_zero", eps=0.25)
        taus = [0.9, 1.0, 1.1]
        expect = smoothed_trace(a, dense_operator(op.grid, op.N, full_matrix(op)), f, w, taus)
        got = smoothed_trace(a, op, f, w, taus)
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_peak_memory_is_the_matrix(self):
        # a fresh process; thm3's finest step holds its channel blocks alone
        # and solves each in place, where copying them out of the whole
        # matrix held the matrix and half of it again
        code = PEAK_RSS_SOURCE + (
            "from ssf_lab.quantization import SplitOperator, build_schrodinger, grid_for\n"
            "from ssf_lab.symbols import model_potential\n"
            "grid = grid_for(1 / 96, 6.0, 2.0, 8192)\n"
            "before = peak_rss()\n"
            "op = build_schrodinger(model_potential('conical_crossing'), grid)\n"
            "pairs = [block.eigenpairs(window=(0.5, 1.5)) for block, _ in op.parts]\n"
            "grown = peak_rss() - before\n"
            "k = sum(vals.size for vals, _ in pairs)\n"
            "print(op.dim, k, isinstance(op, SplitOperator), len(op.parts), grown)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        dim, k, split, blocks, grown = proc.stdout.split()
        dim, k, grown = int(dim), int(k), int(grown)
        # channel 1 is channel 0 reflected, so only channel 0's M x M block
        # is solved
        assert dim == 2076 and split == "True" and blocks == "1"
        # the real matrix, the window's eigenvectors and 4 MB
        assert grown < 8 * dim * (dim + k) + 4e6

    @pytest.mark.parametrize("v", [
        model_potential("reference"),
        model_potential("diagonal_bumps", depths=[-1.0], centers=[1e-3], widths=[1.0]),
    ], ids=lambda v: f"{v.name}-N{v.N}")
    def test_coupled_and_scalar_not_split(self, v, monkeypatch):
        # reference is coupled and not even (its exp(-(x - 1)^2) entry); a
        # bump 1e-3 off the centre is 1.7e-3 of its depth from even, far
        # above the reflection's bound
        op = build_schrodinger(v, small_grid(h=1 / 16, tau_max=2.0))
        calls = counted(monkeypatch)
        op.eigenvalues()
        op.eigenpairs()
        assert calls == [((op.dim, op.dim), "values"), ((op.dim, op.dim), WHOLE)]


# the models that commute with their reflection S = Pi (x) U: x -> -x maps
# node j to node (-j) mod M, and U is the channel involution named
EVEN_MODELS = [
    model_potential("island"),
    model_potential("rotating_crossing", c=3.0),
    model_potential("avoided_crossing", gap=0.2),
    model_potential("conical_crossing"),
    model_potential("diagonal_bumps", depths=[-1.0], centers=[0.0], widths=[1.0]),
]


class TestReflection:
    """An operator that commutes with its reflection S = Pi (x) U is solved
    as S's two eigenspaces, each a block of about half the dimension, and
    a channel that S maps onto another is that channel's solve, reflected.
    Values, windowed pairs and traces are the unblocked solve's to
    REFLECTION_DRIFT (vectors through their projectors, since conical's
    mirror channels are degenerate)."""

    @staticmethod
    def gap_window(vals, lo_q, hi_q):
        """A window whose ends sit in the middle of the first gap of 1e-6
        or more at or above the lo_q and hi_q quantiles of ``vals``."""
        ends = []
        for q in (lo_q, hi_q):
            i = int(q * vals.size)
            while vals[i] - vals[i - 1] < 1e-6:
                i += 1
            ends.append(0.5 * (vals[i - 1] + vals[i]))
        return tuple(ends)

    @pytest.mark.parametrize("h", [1 / 16, 1 / 32])
    @pytest.mark.parametrize("v", EVEN_MODELS, ids=lambda v: v.name)
    def test_matches_the_unblocked_solve(self, v, h):
        g = small_grid(h=h, tau_max=2.0)
        op = build_schrodinger(v, g)
        assert isinstance(op, qz.SplitOperator)
        whole = unblocked_operator(v, g)
        expect = whole.eigenvalues()
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(op.eigenvalues() - expect)) <= REFLECTION_DRIFT * scale
        window = self.gap_window(expect, 0.2, 0.6)
        vals, vecs = merged_split_pairs(op, window)
        expect_vals, expect_vecs = unblocked_operator(v, g).eigenpairs(window=window)
        assert vals.size == expect_vals.size > 10
        assert np.max(np.abs(vals - expect_vals)) <= REFLECTION_DRIFT * scale
        assert np.max(np.abs(projector(vecs) - projector(expect_vecs))) <= 1e-10
        a = weyl_quantize(CHI, g)
        f = bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_at_zero", eps=0.25)
        taus = np.linspace(0.9, 1.1, 5)
        got = smoothed_trace(a, op, f, w, taus)
        expect_trace = smoothed_trace(a, unblocked_operator(v, g), f, w, taus)
        assert np.max(np.abs(got - expect_trace)) <= REFLECTION_DRIFT * np.max(np.abs(expect_trace))

    @pytest.mark.parametrize("v", EVEN_MODELS + [ASSEMBLY_MODELS[3], DIAGONAL_2],
                             ids=lambda v: v.name)
    def test_embedded_blocks_rebuild_the_matrix(self, v, kron_reference):
        # every summand's basis in grid order is orthonormal, the summands
        # together span the grid, and sum E B E^T is the whole matrix
        g = sized_grid(48, 0.25)
        op = build_schrodinger(v, g)
        bases = [embedded(op, channels, embed, np.eye(block.dim))
                 for block, placements in op.parts for channels, embed in placements]
        basis = np.concatenate(bases, axis=1)
        assert basis.shape == (op.dim, op.dim)
        assert np.max(np.abs(basis.T @ basis - np.eye(op.dim))) <= 1e-14
        ref = kron_reference(v, g)
        assert np.max(np.abs(full_matrix(op) - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("v, perm, signs", [
        (model_potential("island"), [0], [1.0]),
        (model_potential("rotating_crossing", c=3.0), [1, 0], [1.0, 1.0]),
        (model_potential("avoided_crossing", gap=0.2), [0, 1], [1.0, -1.0]),
        (ASSEMBLY_MODELS[3], [0, 1], [1.0, 1.0]),
        (model_potential("reference"), None, None),
        (model_potential("diagonal_bumps", depths=[-1.0], centers=[1e-3], widths=[1.0]),
         None, None),
    ], ids=lambda x: getattr(x, "name", None))
    def test_reflection_read_from_the_samples(self, v, perm, signs):
        # U s U^T at the reflected nodes: rotating_crossing's is sigma1,
        # avoided_crossing's sigma3, the even complex model's the identity;
        # reference (its exp(-(x - 1)^2) entry) and a bump 1e-3 off the
        # centre have none
        g = small_grid(h=1 / 16, tau_max=2.0)
        samples = qz.potential_samples(v, g)
        tol = qz._REFLECTION_TOL * max(1.0, np.max(np.abs(samples)))
        found = qz._reflection(samples, tol)
        if perm is None:
            assert found is None
        else:
            assert [found[0].tolist(), found[1].tolist()] == [perm, signs]

    def test_bound_is_rounding_level(self):
        # the even models' reflected samples are U s U^T to 8.3e-15 of
        # max(1, max |s|) on the grids of R 6 to 12 and h 1/8 to 1/512, the
        # nodes x_j and x_(M-j) being negatives to a few ulp of R: a hundredth
        # of the bound.  A bump displaced by c is about 1.7 c from even, so
        # 5e-14 off the centre it is blocked and 1e-11 off it is not
        g = small_grid(h=1 / 16, tau_max=2.0)
        m = g.M
        for v in EVEN_MODELS:
            samples = qz.potential_samples(v, g)
            scale = max(1.0, np.max(np.abs(samples)))
            perm, signs = qz._reflection(samples, 1e-8 * scale)
            image = np.outer(signs, signs) * samples[:, perm][:, :, perm]
            defect = np.max(np.abs(samples[(-np.arange(m)) % m] - image)) / scale
            assert defect <= 1e-2 * qz._REFLECTION_TOL
        for center, split in ((5e-14, True), (1e-11, False)):
            v = model_potential("diagonal_bumps", depths=[-1.0], centers=[center], widths=[1.0])
            assert isinstance(build_schrodinger(v, g), qz.SplitOperator) == split

    def test_mirror_channel_is_its_partner_reflected(self):
        # conical_crossing's channel 1 is channel 0 at -x: one block, placed
        # as solved on channel 0 and reflected on channel 1
        g = small_grid(h=1 / 16, tau_max=2.0)
        op = build_schrodinger(model_potential("conical_crossing"), g)
        (block, placements), = op.parts
        assert block.dim == g.M and [channels for channels, _ in placements] == [(0,), (1,)]
        vals, vecs = block.eigenpairs(window=(0.5, 1.5))
        reflected = placements[1][1](vecs)
        assert np.array_equal(reflected, vecs[(-np.arange(g.M)) % g.M])
        channel_1 = unblocked_operator(model_potential("conical_crossing"), g)
        dense = full_matrix(channel_1)[1::2, 1::2]
        assert np.max(np.abs(dense @ reflected - reflected * vals)) <= 1e-12 * np.max(np.abs(vals))

    def test_coupled_operator_never_assembles_its_matrix(self, monkeypatch):
        # a spy on every small-page allocation: rotating_crossing's values
        # and trace allocate blocks of dim M = dim / 2 and never the
        # (dim, dim) triangle of the whole coupled operator
        g = small_grid(h=1 / 32, tau_max=2.0)
        sizes = []
        allocate = qz._zeros_in_small_pages

        def spy(n, dtype, aligned=True):
            sizes.append(n)
            return allocate(n, dtype, aligned)

        monkeypatch.setattr(qz, "_zeros_in_small_pages", spy)
        op = build_schrodinger(model_potential("rotating_crossing", c=3.0), g)
        op.eigenvalues()
        smoothed_trace(weyl_quantize(CHI, g), op, bump_test_function((0.5, 1.5)),
                       WindowTheta("bump_at_zero", eps=0.25), 1.0)
        assert op.dim == 2 * g.M and sizes and max(sizes) == g.M
        # two blocks for the values, two and their eigenvectors for the trace
        assert sizes == [g.M] * 6


class TestEigenvectorColumns:
    COUPLED = np.array([[0.3, 0.2], [0.2, 0.9]])
    COUPLED_POTENTIAL = MatrixPotential(N=2, v_infinity=np.diag([0.3, 0.9]), name="coupled",
                                        eval_on=lambda xs, c=COUPLED: np.repeat(c[None], len(xs), axis=0))

    @pytest.mark.parametrize("v", [
        model_potential("constant", v_inf=0.0, N=1),
        MatrixPotential(N=2, v_infinity=np.diag([0.3, 0.9]), name="coupled",
                        eval_on=lambda xs: np.repeat(TestEigenvectorColumns.COUPLED[None],
                                                     len(xs), axis=0)),
    ], ids=lambda v: v.name)
    def test_columns_of_the_analytic_pairs(self, v, monkeypatch):
        # an analytic operator's pairs are a dense solve of its assembled
        # matrix: in each window, with its ends between distinct levels, the
        # values are the analytic ones and the columns span the window's
        # plane waves.  The +-p levels are degenerate, so subspaces are
        # compared through their projectors, not column by column
        g = small_grid(h=0.25)
        op = build_schrodinger(v, g)
        dim = op.dim
        raw, order = op._analytic_order()
        vals = op.eigenvalues()
        assert np.array_equal(vals, raw[order])
        levels = np.unique(vals)
        gaps = 0.5 * (levels[:-1] + levels[1:])
        windows = [WHOLE, (levels[0] - 1.0, gaps[0]), (gaps[1], gaps[4]), (gaps[-2], gaps[-1]),
                   (gaps[-1], levels[-1] + 1.0), (levels[-1] + 1.0, levels[-1] + 2.0)]
        calls = counted(monkeypatch)
        scale = np.max(np.abs(vals))
        for lo, hi in windows:
            got_vals, got = op.eigenpairs(window=(lo, hi))
            cols = np.flatnonzero((vals > lo) & (vals <= hi))
            assert got_vals.shape == (cols.size,) and got.shape == (dim, cols.size)
            assert np.max(np.abs(got_vals - vals[cols]), initial=0.0) <= 1e-12 * scale
            expect = plane_waves(v, g, order[cols])
            assert np.max(np.abs(projector(got) - projector(expect)), initial=0.0) <= 1e-10
            assert op._matrix is None
        assert calls == [((dim, dim), window) for window in windows]

    def test_trace_forms_only_the_read_columns(self, monkeypatch):
        g = small_grid(h=1 / 32, tau_max=2.0)
        v = model_potential("constant", v_inf=0.0, N=1)
        a = weyl_quantize(CHI, g)
        f = bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_positive", eps=0.5)
        taus = np.array([0.9, 1.0])
        # the value through the plane waves of the columns f reads
        op = build_schrodinger(v, g)
        raw, order = op._analytic_order()
        lam = raw[order]
        fv = f(lam)
        cols = np.flatnonzero(fv)
        assert 0 < cols.size < lam.size
        sub = plane_waves(v, g, order[cols])
        weights = np.zeros(lam.size, dtype=complex)
        weights[cols] = fv[cols] * np.einsum("ij,ij->j", sub.conj(), cutoff_matrix(a) @ sub)
        expect = fourier_window(w, g.h, taus[:, None] - lam[None, :]) @ weights

        formed = []
        eigenpairs = GridOperator.eigenpairs

        def spy(self, **kwargs):
            formed.append(kwargs)
            return eigenpairs(self, **kwargs)

        monkeypatch.setattr(GridOperator, "eigenpairs", spy)
        calls = counted(monkeypatch)
        a = weyl_quantize(CHI, g)
        got = smoothed_trace(a, op, f, w, taus)
        assert op._matrix is None
        # no eigenvector is formed: <u, A u> is read from the FFT of A's lag sums
        assert formed == [] and calls == []
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


class TestMemoryAdmission:
    """Each allocation admits its own bytes against the host's memory where
    it is made; the host's figure is patched, nothing large is allocated."""

    @pytest.fixture
    def no_assembly(self, monkeypatch):
        def refused(grid, samples, parity=None):
            raise AssertionError("assembled past a refused admission")

        monkeypatch.setattr(qz, "_assemble_schrodinger", refused)

    @pytest.mark.parametrize("v", [
        model_potential("reference"),
        model_potential("diagonal_bumps", depths=[-1.0], centers=[0.0], widths=[1.0]),
        model_potential("conical_crossing"),
    ], ids=lambda v: v.name)
    def test_refused_with_figures(self, monkeypatch, no_assembly, v):
        # the build admits what the operator holds at once: the matrix,
        # (N M)^2 items, or its largest block, which a split operator
        # assembles when it is solved: conical_crossing's channel block of
        # M^2, the even bump's parity half of (M/2 + 1)^2
        g = small_grid(h=1 / 16, tau_max=2.0)
        need = 8 * {"reference": 2 * g.M, "diagonal_bumps": g.M // 2 + 1,
                    "conical_crossing": g.M}[v.name] ** 2
        monkeypatch.setattr(qz, "physical_memory", lambda: need - 1)
        with pytest.raises(MemoryBudgetError) as err:
            build_schrodinger(v, g)
        assert isinstance(err.value, MemoryError)
        assert (err.value.required, err.value.available) == (need, need - 1)
        assert f"{need} B" in str(err.value) and "MiB" in str(err.value)

    def test_admitted_at_the_estimate(self, monkeypatch):
        # a host of exactly one matrix holds the spectrum's whole request
        g = small_grid(h=1 / 16, tau_max=2.0)
        v = model_potential("conical_crossing")
        monkeypatch.setattr(qz, "physical_memory", lambda: 8 * (2 * g.M) ** 2)
        assert build_schrodinger(v, g).eigenvalues().size == 2 * g.M

    def test_grid_cap_reaches_assembly(self, monkeypatch):
        # the two-channel operator at the grid cap, dim 16 384: its real
        # matrix, 2.1 GB, fits a host of 8e9 B, and a values solve needs
        # little more; an estimate of five matrices (10.7 GB) refused it
        class Reached(Exception):
            pass

        def stub(grid, samples, parity=None):
            raise Reached(grid.M * samples.shape[1])

        monkeypatch.setattr(qz, "_assemble_schrodinger", stub)
        monkeypatch.setattr(qz, "physical_memory", lambda: 8 * 10**9)
        with pytest.raises(Reached) as reached:
            build_schrodinger(model_potential("reference"), sized_grid(8192, 1 / 512, R=12.0))
        assert reached.value.args == (16384,)

    @pytest.mark.parametrize("v", [model_potential("reference"),
                                   model_potential("conical_crossing")],
                             ids=["dense", "split"])
    def test_pairs_admitted_before_allocating(self, monkeypatch, v):
        # a host just below two matrices: the spectrum is solved, the pairs
        # are refused before anything is allocated, and the matrix stays for
        # the next request.  The pairs admit two matrices, the matrix and
        # LAPACK's eigenvectors, which are returned with no copy; a split
        # operator's pairs are its blocks', each of its own M x M block
        op = build_schrodinger(v, small_grid(h=1 / 16, tau_max=2.0))
        parts = [block for block, _ in getattr(op, "parts", [(op, ())])]
        size = max(part.matrix.nbytes for part in parts)
        monkeypatch.setattr(qz, "physical_memory", lambda: 2 * size - 1)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryBudgetError) as err:
                parts[0].eigenpairs(window=(0.5, 1.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.required == 2 * size and peak < 0.1 * size
        assert all(part._matrix is not None for part in parts)
        assert op.eigenvalues().size == op.dim

    # (potential, request, admitted arrays of what the operator holds), in a
    # fresh process that has made the same request on a small grid first, so
    # that the library code and BLAS buffers a first solve faults in (2-3 MB)
    # are resident before the peak is read.  With the upper triangle held
    # alone, the growth read 0.64-0.77 matrices for the spectrum and
    # 2.64-2.76 for the dense pairs, and 1.71-1.80 with the eigenvectors
    # returned as a view of the rows LAPACK wrote, with no copy.  A split
    # operator's pairs are its blocks' own, each solved on its M x M block
    # alone, which is what the split pairs hold
    @pytest.mark.parametrize("h", [1 / 64, 1 / 128], ids=["dim1844", "dim3688"])
    @pytest.mark.parametrize("name,request_,admitted", [
        ("reference", "eigenvalues", 1),
        ("reference", "eigenpairs", 2),
        ("conical_crossing", "parts[0][0].eigenpairs", 2),
    ], ids=["values", "dense-pairs", "split-pairs"])
    def test_growth_within_the_admitted_bytes(self, h, name, request_, admitted):
        code = PEAK_RSS_SOURCE + (
            "from ssf_lab.quantization import build_schrodinger, grid_for\n"
            "from ssf_lab.symbols import model_potential\n"
            f"build_schrodinger(model_potential({name!r}), grid_for(1 / 8, 8.0, 2.0, 8192))"
            f".{request_}()\n"
            f"grid = grid_for({h!r}, 8.0, 2.0, 8192)\n"
            "before = peak_rss()\n"
            f"op = build_schrodinger(model_potential({name!r}), grid)\n"
            f"op.{request_}()\n"
            "grown = peak_rss() - before\n"
            "print(op.dim, getattr(op, 'parts', [(op,)])[0][0].matrix.nbytes, grown)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        dim, size, grown = map(int, proc.stdout.split())
        assert dim == {1 / 64: 1844, 1 / 128: 3688}[h]
        assert size == 8 * dim * dim // {"reference": 1, "conical_crossing": 4}[name]
        assert grown <= admitted * size + 4e6

    def test_analytic_operator_checked_where_it_allocates(self, monkeypatch):
        # a values-only read fits a host below one matrix (8 M^2 bytes); the
        # matrix does not, and the pairs, a solve of that matrix, are refused
        # at its assembly.  A host of two matrices holds a windowed solve
        g = small_grid(h=1 / 64, tau_max=2.0)
        monkeypatch.setattr(qz, "physical_memory", lambda: 8 * g.M * g.M - 1)
        op = build_schrodinger(model_potential("constant", v_inf=0.0, N=1), g)
        assert op.eigenvalues().size == g.M
        vals = op.eigenvalues()
        for request in (lambda: op.matrix, lambda: op.eigenpairs(window=(0.0, vals[1]))):
            with pytest.raises(MemoryBudgetError) as err:
                request()
            assert err.value.required == 8 * g.M * g.M
        assert op._matrix is None and op._vectors is None
        monkeypatch.setattr(qz, "physical_memory", lambda: 16 * g.M * g.M)
        window = (0.5 * (vals[0] + vals[1]), 0.5 * (vals[2] + vals[3]))
        assert op.eigenpairs(window=window)[1].shape == (g.M, 2)
        assert op._matrix is None

class TestGridOperatorInterface:
    """A ``GridOperator`` is made from an assembler: a caller's array, a
    row source or a triangle flag is not an argument."""

    @pytest.mark.parametrize("keyword", ["matrix", "rows", "upper_only"])
    def test_removed_keyword_refused(self, keyword):
        g = sized_grid(32, 0.5)
        with pytest.raises(TypeError, match=keyword):
            GridOperator(grid=g, N=1, assemble=lambda: np.eye(g.M), **{keyword: np.eye(g.M)})

    def test_assembler_required(self):
        g = sized_grid(32, 0.5)
        with pytest.raises(TypeError, match="assemble"):
            GridOperator(grid=g, N=1)


def random_matrix(rng, n, kind):
    a = random_hermitian(rng, n)
    return a if kind == "complex" else np.ascontiguousarray(a.real)


class TestDenseSolve:
    """``_evd`` solves in numpy's LAPACK on the caller's buffer and gives the
    bits of ``np.linalg``; where that LAPACK is not reachable it is
    ``np.linalg``."""

    @pytest.mark.parametrize("n", [1, 2, 257])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("fallback", [False, True], ids=["lapack", "fallback"])
    def test_bits_of_numpy(self, monkeypatch, rng, n, kind, fallback):
        if fallback:
            monkeypatch.setattr(qz, "_lapack_eigh", lambda: None)
        a = random_matrix(rng, n, kind)
        vals, expect = qz._evd(a.copy()), np.linalg.eigvalsh(a)
        assert np.array_equal(vals, expect) and vals.dtype == expect.dtype

    def test_resolver_needs_every_driver(self, monkeypatch):
        # a LAPACK without the windowed drivers is not used for any solve
        if qz._lapack_eigh() is None:
            pytest.skip("numpy's LAPACK does not export ?syevd_64_")
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)

        class NoWindowedDrivers:
            def __getattr__(self, name):
                if "evr" in name:
                    raise AttributeError(name)
                return getattr(lib, name)

        monkeypatch.setattr(qz.ctypes, "CDLL", lambda path: NoWindowedDrivers())
        assert qz._lapack_eigh.__wrapped__() is None

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_strided_view_solves_as_its_copy(self, rng, kind):
        # a block with a leading dimension, as a split operator hands it over:
        # the bits of the same solve on a contiguous copy, and nothing read or
        # written outside the block
        if qz._lapack_eigh() is None:
            pytest.skip("numpy's LAPACK does not export ?syevd_64_")
        n = 257
        a = random_matrix(rng, n, kind)
        lo, hi = np.quantile(np.linalg.eigvalsh(a), [0.3, 0.6])
        solves = [lambda m: (qz._evd(m),), lambda m: qz._evr(m, lo, hi),
                  lambda m: qz._evr(m, -math.inf, math.inf)]
        for solve in solves:
            big = np.full((2 * n, 3 * n), np.nan, dtype=a.dtype)
            view = big[1::2, n:2 * n]
            view[...] = a
            # the values, and the eigenvectors as the F-contiguous transposed
            # view of the rows LAPACK wrote
            for got, expect in zip(solve(view), solve(a.copy())):
                assert np.array_equal(got, expect) and got.flags.f_contiguous
            assert np.all(np.isnan(big[::2])) and np.all(np.isnan(big[:, :n]))
            assert np.all(np.isnan(big[:, 2 * n:]))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128],
                             ids=["dense-float64", "dense-complex128"])
    def test_rows_end_on_page_boundaries(self, dtype):
        # k items to a page: above k every row of the upper triangle ends on
        # a page boundary, read from the array's address and strides; at or
        # below k the rows share pages and lda = n
        size = np.dtype(dtype).itemsize
        k = mmap.PAGESIZE // size
        for n in (3, k - 1, k, k + 1, 2 * k + 5, 3 * k):
            a = qz._zeros_in_small_pages(n, dtype)
            assert a.shape == (n, n) and a.dtype == dtype and not np.any(a)
            rows, cols = a.strides
            assert cols == size
            lda = rows // size
            if n <= k:
                assert lda == n
                continue
            assert lda % k == 0 and n <= lda < n + k
            ends = a.ctypes.data + np.arange(n) * rows + n * size
            assert np.all(ends % mmap.PAGESIZE == 0), n

    @pytest.mark.parametrize("v, m", [(model_potential("reference"), 300),
                                      (ASSEMBLY_MODELS[3], 300), (DIAGONAL_2, 1040)],
                             ids=["dense", "complex", "split"])
    @pytest.mark.parametrize("solve", ["eigenvalues", "eigenpairs"])
    def test_solve_takes_the_held_view(self, monkeypatch, v, m, solve):
        # the solve gets the assembled rows with their leading dimension, not
        # a contiguous copy that would make every page resident; a split
        # operator's blocks each solve the matrix they hold, for its values
        # and for their own pairs.  The even complex model and DIAGONAL_2's
        # channel 0 split into parity halves, on grids where each half
        # still has more items than a page
        op = build_schrodinger(v, sized_grid(m, 0.25))
        parts = [block for block, _ in getattr(op, "parts", [(op, ())])]
        held = [part.matrix for part in parts]
        assert all(mat.strides[0] > mat.shape[1] * mat.itemsize for mat in held)
        seen = []

        def spy(original):
            def solve_in_place(a, *window):
                mat = held[len(seen)]
                seen.append(np.shares_memory(a, mat) and a.strides == mat.strides)
                return original(a, *window)
            return solve_in_place

        monkeypatch.setattr(qz, "_evd", spy(qz._evd))
        monkeypatch.setattr(qz, "_evr", spy(qz._evr))
        for target in (parts if solve == "eigenpairs" else [op]):
            getattr(target, solve)()
        assert seen == [True] * len(held)

    def test_refuses_what_it_cannot_overwrite(self, rng):
        if qz._lapack_eigh() is None:
            pytest.skip("numpy's LAPACK does not export ?syevd_64_")
        a = random_matrix(rng, 8, "real")
        wide = random_matrix(rng, 16, "real")
        short_rows = np.lib.stride_tricks.as_strided(wide, (8, 8), (4 * a.itemsize, a.itemsize))
        for bad in (np.asfortranarray(a), a.astype(np.float32), a[:, :4], wide[:8, :16:2],
                    short_rows):
            with pytest.raises(ValueError, match="in place"):
                qz._evd(bad)
            with pytest.raises(ValueError, match="in place"):
                qz._evr(bad, -1.0, 1.0)


def projector(vecs: np.ndarray) -> np.ndarray:
    return vecs @ vecs.conj().T


class TestWindowedSolve:
    """``eigenpairs(window=(lo, hi))`` gives the values in (lo, hi] and their
    eigenvector columns on every kind of operator, and caches nothing."""

    @staticmethod
    def gap_window(vals, i, j):
        """The window from the middle of the gap below vals[i] to the middle
        of the gap above vals[j]."""
        return 0.5 * (vals[i - 1] + vals[i]), 0.5 * (vals[j] + vals[j + 1])

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("fallback", [False, True], ids=["lapack", "fallback"])
    def test_dense(self, monkeypatch, rng, kind, fallback):
        if fallback:
            monkeypatch.setattr(qz, "_lapack_eigh", lambda: None)
        g = sized_grid(96, 0.5)
        a = random_matrix(rng, g.M, kind)
        expect_vals, expect_vecs = np.linalg.eigh(a)
        lo, hi = self.gap_window(expect_vals, 20, 51)
        vals, vecs = qz._evr(a.copy(), lo, hi)
        assert vecs.shape == (g.M, 32) and vecs.dtype == a.dtype
        # LAPACK's rows, transposed with no copy; numpy's are copied out
        assert vecs.flags.c_contiguous if fallback else vecs.flags.f_contiguous
        scale = np.max(np.abs(expect_vals))
        assert np.max(np.abs(vals - expect_vals[20:52])) <= 1e-12 * scale
        assert np.max(np.abs(a @ vecs - vecs * vals)) <= 1e-12 * scale
        assert np.max(np.abs(projector(vecs) - projector(expect_vecs[:, 20:52]))) <= 1e-10
        if fallback:
            assert np.array_equal(vals, expect_vals[20:52])
            assert np.array_equal(vecs, expect_vecs[:, 20:52])

    @pytest.mark.parametrize("fallback", [False, True], ids=["lapack", "fallback"])
    def test_value_at_the_edges(self, monkeypatch, fallback):
        # a diagonal matrix has its entries as exact eigenvalues: one at hi is
        # in the window, one at lo is not
        if fallback:
            monkeypatch.setattr(qz, "_lapack_eigh", lambda: None)
        g = sized_grid(8, 0.5)
        a = np.diag(np.arange(8.0))
        for (lo, hi), expect in [((2.0, 5.0), [3.0, 4.0, 5.0]), ((2.5, 3.0), [3.0]),
                                 ((-1.0, 0.0), [0.0]), ((7.0, 9.0), [])]:
            vals, vecs = qz._evr(a.copy(), lo, hi)
            assert np.array_equal(vals, expect)
            assert np.array_equal(np.abs(vecs), np.eye(8)[:, np.asarray(expect, dtype=int)])

    @pytest.mark.parametrize("kind", ["dense", "split", "analytic"])
    def test_empty_and_whole_windows(self, rng, kind):
        g = small_grid(h=1 / 16, tau_max=2.0)
        a = random_matrix(rng, g.M, "complex")
        v = DIAGONAL_2 if kind == "split" else model_potential("constant", v_inf=[0.0, 0.3], N=2)

        def make():
            if kind == "dense":
                return dense_operator(g, 1, a)
            return build_schrodinger(v, g)

        dim = make().dim
        vals, vecs = solved_pairs(make(), (1e6, 2e6))
        assert vals.shape == (0,) and vecs.shape == (dim, 0)
        full = full_matrix(make())
        expect_vals = np.linalg.eigvalsh(full)
        # the default window is the whole line
        whole = [solved_pairs(make(), WHOLE)]
        if kind != "split":
            whole.append(make().eigenpairs())
        for whole_vals, whole_vecs in whole:
            assert whole_vecs.shape == (dim, dim)
            scale = np.max(np.abs(expect_vals))
            assert np.max(np.abs(whole_vals - expect_vals)) <= 1e-12 * scale
            resid = full @ whole_vecs - whole_vecs * whole_vals
            assert np.max(np.abs(resid)) <= 1e-11 * scale

    @pytest.mark.parametrize("v", [DIAGONAL_2, model_potential("conical_crossing")],
                             ids=lambda v: v.name)
    def test_split(self, monkeypatch, v):
        g = small_grid(h=1 / 16, tau_max=2.0)
        dense = full_matrix(build_schrodinger(v, g))
        expect_vals, expect_vecs = np.linalg.eigh(dense)
        lo, hi = self.gap_window(expect_vals, 10, 61)  # conical_crossing's pairs split here
        op = build_schrodinger(v, g)
        calls = counted(monkeypatch)
        vals, vecs = merged_split_pairs(op, (lo, hi))
        assert calls == [((block.dim, block.dim), (lo, hi)) for block, _ in op.parts]
        assert all(block._matrix is None for block, _ in op.parts)
        scale = np.max(np.abs(expect_vals))
        assert np.max(np.abs(vals - expect_vals[10:62])) <= 1e-12 * scale
        assert np.max(np.abs(dense @ vecs - vecs * vals)) <= 1e-11 * scale
        assert np.max(np.abs(projector(vecs) - projector(expect_vecs[:, 10:62]))) <= 1e-10
        # every column lives on one channel's rows
        support = np.any(vecs.reshape(g.M, v.N, -1) != 0, axis=0)
        assert np.array_equal(support.sum(axis=0), np.ones(vals.size))

    @pytest.mark.parametrize("at_a_value", [True, False], ids=["point", "reversed"])
    def test_empty_window_solves_nothing(self, monkeypatch, capfd, at_a_value):
        # (x, x] at an eigenvalue and (2, 1] hold no value: 0 pairs, with no
        # LAPACK call (whose ?syevr refuses vu <= vl, and prints so), and the
        # held matrix stays held
        g = grid_for(1 / 8, 12.0, 3.24, 8192)
        v = model_potential("reference")
        x = build_schrodinger(v, g).eigenvalues()[7]
        window = (x, x) if at_a_value else (2.0, 1.0)
        op = build_schrodinger(v, g)
        lapack = []
        monkeypatch.setattr(qz, "_lapack_call", lambda *args: lapack.append(args))
        vals, vecs = op.eigenpairs(window=window)
        assert vals.shape == (0,) and vecs.shape == (op.dim, 0)
        assert lapack == [] and op._matrix is not None
        out, err = capfd.readouterr()
        assert "On entry to" not in out + err


class TestMatrixOwnership:
    """A solve consumes the matrix of an operator, which assembles it again
    when it is read."""

    @pytest.mark.parametrize("solve", ["eigenvalues", "eigenpairs"])
    @pytest.mark.parametrize("v", [model_potential("reference"), DIAGONAL_2],
                             ids=lambda v: v.name)
    def test_built_operator_drops_and_reassembles(self, v, solve):
        # a split operator holds no matrix and assembles nothing at its
        # build: each block assembles its matrix when it is solved, drops
        # it, and assembles the same bits again when it is read.
        # DIAGONAL_2's channel 1 block is that channel's own samples
        g = small_grid(h=1 / 16, tau_max=2.0)
        op = build_schrodinger(v, g)
        samples = qz.potential_samples(v, g)
        split = isinstance(op, qz.SplitOperator)
        parts = [block for block, _ in op.parts] if split else [op]
        assert all((part._matrix is None) == split for part in parts)
        first = [part._assemble() for part in parts]
        for target in (parts if solve == "eigenpairs" else [op]):
            getattr(target, solve)()
        assert all(part._matrix is None for part in parts)
        for part, held in zip(parts, first):
            assert np.array_equal(part.matrix, held)
            assert part.matrix is part.matrix
        own = samples[:, 1:, 1:] if split else samples
        assert np.array_equal(first[-1], qz._assemble_schrodinger(g, own))
        if split:
            assert [(part.N, part.label) for part in parts] == [
                (1, f"{op.label}[0]+"), (1, f"{op.label}[0]-"), (1, f"{op.label}[1]")]

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_passed_array_unchanged(self, rng, kind):
        # an operator that assembles a copy of a caller's whole array solves
        # on that copy, as LAPACK reads its upper triangle: the array is
        # never written, and each solve assembles afresh
        g = sized_grid(64, 0.5)
        a = random_matrix(rng, g.M, kind)
        before = a.copy()
        op = dense_operator(g, 1, a)
        values = op.eigenvalues()
        assert np.array_equal(a, before) and op._matrix is None
        vals, vecs = op.eigenpairs()
        assert np.array_equal(a, before) and op._matrix is None
        assert np.array_equal(values, np.linalg.eigvalsh(before))
        scale = np.max(np.abs(values))
        assert np.max(np.abs(vals - values)) <= 1e-12 * scale
        assert np.max(np.abs(before @ vecs - vecs * vals)) <= 1e-12 * scale

    def test_split_releases_before_solving(self, monkeypatch):
        # each block's solve takes its own matrix, and no block holds one
        # while a solve runs
        op = build_schrodinger(DIAGONAL_2, small_grid(h=1 / 16, tau_max=2.0))
        held = []
        solve = qz._evr

        def spy(a, lo, hi):
            held.append([block._matrix is not None for block, _ in op.parts])
            return solve(a, lo, hi)

        monkeypatch.setattr(qz, "_evr", spy)
        merged_split_pairs(op)
        assert held == [[False, False, False]] * 3


class TestWeylQuantize:
    @pytest.mark.parametrize("halfwidth", [0.0, -1.0, math.nan, math.inf])
    def test_cutoff_needs_a_width(self, halfwidth):
        # a zero width has no support: its trace and its reference are both
        # 0, a vacuous pass
        with pytest.raises(ValueError, match="halfwidth must be positive and finite"):
            Bump1D(0.0, halfwidth)

    @pytest.mark.parametrize("symbol", [
        lambda g: 1.0, lambda g: lambda x: np.exp(-x * x),
        lambda g: lambda x, xi: CHI.g(x) * CHI.k(xi), lambda g: CHI.g, lambda g: None,
        lambda g: MatrixCutoff(g, np.eye(g.M)),
    ], ids=["number", "function-of-x", "general-symbol", "bump", "none", "matrix-cutoff"])
    def test_weyl_quantize_takes_a_product_cutoff(self, symbol):
        # a number, a function of x, a general symbol, one factor of a
        # product and a cutoff made already are refused; the library's
        # cutoffs are products g(x) k(xi)
        g = small_grid()
        with pytest.raises(TypeError, match="takes a ProductCutoff"):
            weyl_quantize(symbol(g), g)

    def test_trace_rule(self):
        # momentum grid must resolve the xi-factor for spectral accuracy
        g = small_grid(h=1 / 64)
        a = weyl_quantize(CHI, g)
        tr = float(np.trace(cutoff_matrix(a)).real)
        target = cutoff_integral(CHI) / (2.0 * math.pi * g.h)
        assert abs(tr - target) <= 1e-8 * abs(target)

    def test_product_vs_general_path(self):
        # the product's rows against the full table of the same symbol
        g = small_grid(h=0.25)
        general = general_weyl_matrix(lambda x, xi: CHI.g(x) * CHI.k(xi), g)
        assert np.max(np.abs(cutoff_matrix(weyl_quantize(CHI, g)) - general)) < 1e-14

    def test_hermitization_drift_small(self):
        g = small_grid(h=0.25)
        kappa = np.fft.ifft(CHI.k(g.momenta_fft_order))
        delta, mid_idx, ambiguous = index_tables(g)
        g_mid = midpoint_values(CHI.g(g.half_nodes), mid_idx, ambiguous, g.M)
        raw = g_mid * kappa[delta % g.M]
        drift = np.max(np.abs(raw - raw.conj().T))
        assert drift <= 1e-12 * max(1.0, np.max(np.abs(raw)))

    @pytest.mark.parametrize("R,tau_max,h", [(6.0, 2.56, 1 / 16), (12.0, 1.69, 1 / 16),
                                             (6.0, 2.0, 1 / 32)],
                             ids=["thm1", "thm2", "thm3"])
    @pytest.mark.parametrize("k", [Bump1D(0, 2.0), Bump1D(0.3, 1.0)], ids=["even", "shifted"])
    @pytest.mark.parametrize("block", [1 << 18, 1000], ids=["one-block", "row-blocks"])
    def test_row_blocks_match_full_tables(self, monkeypatch, R, tau_max, h, k, block):
        # the blocked build against the product of the full M x M tables, on
        # the trace configs' grids; every grid has the antipodal tie
        monkeypatch.setattr(qz, "_WEYL_BLOCK", block)
        g = Grid1D(R=R, h=h, tau_max=tau_max)
        chi = ProductCutoff(g=Bump1D(0, 2.0), k=k)
        kappa = np.fft.ifft(chi.k(g.momenta_fft_order))
        delta, mid_idx, ambiguous = index_tables(g)
        assert np.any(ambiguous)
        raw = midpoint_values(chi.g(g.half_nodes), mid_idx, ambiguous, g.M) * kappa[delta % g.M]
        full = 0.5 * (raw + raw.conj().T)
        if np.max(np.abs(full.imag)) <= 1e-14 * max(1.0, np.max(np.abs(full.real))):
            full = full.real.copy()
        got = cutoff_matrix(weyl_quantize(chi, g))
        assert got.dtype == full.dtype and np.array_equal(got, full)

    def test_support_margin_rejection(self):
        g = small_grid()
        wide = ProductCutoff(g=Bump1D(0, 5.5), k=Bump1D(0, 1.0))
        with pytest.raises(SupportMarginError):
            weyl_quantize(wide, g)
        fast = ProductCutoff(g=Bump1D(0, 1.0), k=Bump1D(0, 50.0))
        with pytest.raises(SupportMarginError):
            weyl_quantize(fast, g)


EVEN_K, SHIFTED_K = Bump1D(0, 1.2), Bump1D(0.3, 1.0)


def product_rows(k, grid):
    return weyl_quantize(ProductCutoff(g=Bump1D(0, 2.0), k=k), grid)


class TestProductRows:
    """What ``weyl_quantize`` returns: the rows and the lag sums of a
    product cutoff's matrix on its grid, with no matrix held."""

    @pytest.mark.parametrize("k,dtype", [(EVEN_K, np.float64), (SHIFTED_K, np.complex128)],
                             ids=["even", "shifted"])
    def test_interface(self, k, dtype):
        # an even k(xi) makes a real matrix, a shifted one a complex one
        g = small_grid(h=1 / 16, tau_max=2.0)
        a = product_rows(k, g)
        assert a.grid is g and a.label == "weyl(product)" and a.dtype == dtype
        assert not any(hasattr(a, name) for name in ("matrix", "N", "dim"))

    @pytest.mark.parametrize("block", [1 << 18, 1000, 1], ids=["one-block", "row-blocks",
                                                              "one-row"])
    @pytest.mark.parametrize("k", [EVEN_K, SHIFTED_K], ids=["even", "shifted"])
    def test_blocks_tile_the_rows(self, monkeypatch, block, k):
        # consecutive blocks of max(1, _WEYL_BLOCK // M) rows in the cutoff's
        # dtype cover the M rows once, with the bits of one block, and a
        # second read gives them again
        g = small_grid(h=1 / 16, tau_max=2.0)
        whole = cutoff_matrix(product_rows(k, g))
        monkeypatch.setattr(qz, "_WEYL_BLOCK", block)
        a = product_rows(k, g)
        step = max(1, block // g.M)
        first = list(a.blocks())
        assert [lo for lo, _ in first] == list(range(0, g.M, step))
        assert all(rows.shape == (min(step, g.M - lo), g.M) and rows.dtype == a.dtype
                   for lo, rows in first)
        assert np.array_equal(np.vstack([rows for _, rows in first]), whole)
        assert all(lo == lo2 and np.array_equal(rows, rows2)
                   for (lo, rows), (lo2, rows2) in zip(first, a.blocks(), strict=True))

    @pytest.mark.parametrize("k", [EVEN_K, SHIFTED_K], ids=["even", "shifted"])
    def test_hermitian_bits(self, k):
        # entry (j, i) is the conjugate of entry (i, j), its two products
        # summed in the other order: hermitian bit for bit
        g = small_grid(h=1 / 16, tau_max=2.0)
        mat = cutoff_matrix(product_rows(k, g))
        assert np.array_equal(mat, mat.conj().T)


class TestMatrixCutoff:
    """The tests' dense cutoff (``conftest.MatrixCutoff``), made from a
    product cutoff's matrix, reads as that cutoff: the same bits in the
    same blocks, and the same trace on each route of ``smoothed_trace``."""

    @pytest.mark.parametrize("k", [EVEN_K, SHIFTED_K], ids=["even", "shifted"])
    @pytest.mark.parametrize("v", [model_potential("constant", v_inf=0.0, N=1),
                                   model_potential("reference"), DIAGONAL_2],
                             ids=["analytic", "dense", "split"])
    def test_reads_as_the_product_cutoff(self, k, v):
        g = small_grid(h=1 / 16, tau_max=2.0)
        a = product_rows(k, g)
        fake = MatrixCutoff(g, cutoff_matrix(a))
        assert fake.dtype == a.dtype
        assert all(lo == lo2 and np.array_equal(rows, rows2)
                   for (lo, rows), (lo2, rows2) in zip(a.blocks(), fake.blocks(), strict=True))
        f = bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_at_zero", eps=0.25)
        taus = np.array([0.9, 1.0, 1.1])
        expect = smoothed_trace(a, build_schrodinger(v, g), f, w, taus)
        got = smoothed_trace(fake, build_schrodinger(v, g), f, w, taus)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

class TestWindows:
    def test_theta_invariants(self):
        w0 = WindowTheta("bump_at_zero", eps=0.3)
        ts = np.linspace(-2, 2, 2001)
        vals = qz._theta_eval(w0.kind, ts / w0.eps)
        assert np.all(vals[np.abs(ts) >= 0.3] == 0.0)
        assert np.all(vals[np.abs(ts) <= 0.3 / 4] == 1.0)
        wp = WindowTheta("bump_positive", eps=0.3)
        vp = qz._theta_eval(wp.kind, ts / wp.eps)
        assert np.all(vp[np.abs(ts) <= 0.15] == 0.0)
        assert np.all(vp[ts >= 0.3] == 0.0)
        assert np.any(vp > 0)
        with pytest.raises(ValueError):
            WindowTheta("square", eps=0.3)
        with pytest.raises(ValueError):
            WindowTheta("bump_at_zero", eps=0.0)

    def test_window_integral_is_theta_at_zero(self):
        w = WindowTheta("bump_at_zero", eps=0.3)
        s = np.linspace(-500, 500, 1000001)
        total = np.trapezoid(fourier_window(w, 0.1, s), s)
        assert abs(total - 1.0) < 1e-8

    def test_scaling_identity_exact(self, rng):
        from ssf_lab.quantization import _profile

        prof = _profile("bump_at_zero")
        for _ in range(3):
            eps = float(rng.uniform(0.05, 1.0))
            h = float(rng.uniform(0.01, 0.5))
            s = float(rng.uniform(-5, 5))
            lhs = fourier_window(WindowTheta("bump_at_zero", eps=eps), h, s)
            rhs = (eps / h) * float(prof(np.array([eps * s / h]))[0])
            assert lhs == rhs

    def test_bump_positive_decay_fit(self):
        w = WindowTheta("bump_positive", eps=0.3)
        h = 0.05
        s = np.linspace(0.5, 200.0, 800)
        vals = np.abs(fourier_window(w, h, s))
        y = w.eps * s / h
        c4 = float(np.max(vals * (1.0 + y) ** 4 / (w.eps / h)))
        assert np.isfinite(c4)
        # far tail must be genuinely small, not just bounded
        assert np.max(vals[y > 1000.0]) < 1e-8 * (w.eps / h)

    def test_primitive_limits(self):
        w = WindowTheta("bump_at_zero", eps=0.25)
        assert window_primitive(w, 0.1, -1e9) == 0.0
        assert window_primitive(w, 0.1, 1e9) == pytest.approx(1.0, abs=1e-8)
        with pytest.raises(ValueError):
            window_primitive(WindowTheta("bump_positive", eps=0.25), 0.1, 0.0)


def _load_generator():
    """scripts/window_profiles.py, which builds the shipped profile tables."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scripts", "window_profiles.py")
    spec = importlib.util.spec_from_file_location("window_profiles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


window_profiles = _load_generator()


def _direct_profile(kind: str, ys: np.ndarray) -> np.ndarray:
    """Phi on ys from the full phase matrix exp(i outer(ys, u)) @ w / 2pi."""
    supp = (-1.0, 1.0) if kind == "bump_at_zero" else (0.5, 1.0)
    un, uw = gauss_rule(window_profiles.GL_ORDER)
    mid, half = 0.5 * (supp[0] + supp[1]), 0.5 * (supp[1] - supp[0])
    u = mid + half * un
    w = half * uw * qz._theta_eval(kind, u)
    return np.exp(1j * np.outer(ys, u)) @ w / (2.0 * math.pi)


class TestWindowProfile:
    YS = np.concatenate([
        np.arange(0.0, 16.0, 0.002),
        np.arange(16.0, 64.0, 0.01),
        np.arange(64.0, 256.0, 0.05),
        np.arange(256.0, 1200.1, 0.1),
    ])

    @pytest.mark.parametrize("kind", ["bump_at_zero", "bump_positive"])
    def test_matches_direct_sum(self, kind):
        prof = qz._WindowProfile(kind)
        assert prof.ys.dtype == self.YS.dtype
        assert np.array_equal(prof.ys, self.YS)
        # every 7th knot, plus both sides of each segment seam and the last knot
        seams = np.cumsum([8000, 4800, 3840])
        idx = np.unique(np.concatenate([
            np.arange(0, self.YS.size, 7), seams - 1, seams, [self.YS.size - 1]]))
        ref = _direct_profile(kind, self.YS[idx])
        # the interpolant passes through the knots, so there it returns the
        # tabulated values
        got = prof(self.YS[idx])
        if kind == "bump_at_zero":
            assert np.isrealobj(got)
            ref = ref.real
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("kind, atol", [("bump_at_zero", 1e-13), ("bump_positive", 1e-11)])
    def test_between_knots(self, kind, atol):
        # cell midpoints, where interpolation errs most: every 5th cell of each
        # segment, the cells across the seams and the last cell.  The cubic
        # Hermite table and the earlier not-a-knot spline both pass.
        prof = qz._WindowProfile(kind)
        mids = 0.5 * (self.YS[1:] + self.YS[:-1])
        seams = np.cumsum([8000, 4800, 3840])
        idx = np.unique(np.concatenate([
            np.arange(0, mids.size, 5), seams - 2, seams - 1, seams, [mids.size - 1]]))
        ys = mids[idx]
        ref = _direct_profile(kind, ys)
        got = prof(ys)
        if kind == "bump_at_zero":
            ref = ref.real
            # int_{-inf}^y Phi = 1/2 + (1/pi) int_0^1 theta(u) sin(u y) / u du,
            # here by its own Gauss rule on (0, 1)
            un, uw = gauss_rule(window_profiles.GL_ORDER)
            u = 0.5 + 0.5 * un
            wt = 0.5 * uw * qz._theta_eval(kind, u)
            prim = 0.5 + (np.sin(np.outer(ys, u)) / u) @ wt / math.pi
            np.testing.assert_allclose(prof.primitive(ys), prim, rtol=0, atol=1e-11)
        np.testing.assert_allclose(got, ref, rtol=0, atol=atol)

    @pytest.mark.parametrize("kind", ["bump_at_zero", "bump_positive"])
    def test_holds_its_table_alone(self, kind):
        # the cells' Hermite coefficients are formed per call: besides the
        # table, ys and the even kind's prefix, a profile holds only arrays
        # of one entry per knot segment
        prof = qz._WindowProfile(kind)
        held = {name: a for name, a in vars(prof).items() if isinstance(a, np.ndarray)}
        knots = {name for name, a in held.items() if a.size > len(qz._PROFILE_SEGMENTS)}
        assert knots == ({"_table", "ys", "_before"} if kind == "bump_at_zero"
                         else {"_table", "ys"})
        assert prof._table.shape == (2, self.YS.size)
        small = sum(a.nbytes for name, a in held.items() if name not in knots)
        assert small <= 8 * 8 * len(qz._PROFILE_SEGMENTS)

    def test_build_memory_is_bounded(self):
        # the generator's build of a shipped table; numpy reports its buffers
        # to tracemalloc, and the full 26081 x 768 phase matrix alone would
        # be 320 MB
        tracemalloc.start()
        try:
            window_profiles.build_table("bump_at_zero")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_loads_without_a_gauss_rule(self, monkeypatch):
        # a process reads the shipped tables and builds no Gauss rule
        w0, wp = WindowTheta("bump_at_zero", eps=0.3), WindowTheta("bump_positive", eps=0.3)
        s = np.linspace(-40.0, 40.0, 801)
        expect = (fourier_window(w0, 0.05, s), window_primitive(w0, 0.05, s),
                  fourier_window(wp, 0.05, s))

        def refuse(*args):
            raise AssertionError("a Gauss rule was built")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        monkeypatch.setattr(quadrature, "gauss_rule", refuse)
        monkeypatch.setattr(qz, "_PROFILE_CACHE", {})
        got = (fourier_window(w0, 0.05, s), window_primitive(w0, 0.05, s),
               fourier_window(wp, 0.05, s))
        assert sorted(qz._PROFILE_CACHE) == ["bump_at_zero", "bump_positive"]
        for a, b in zip(got, expect):
            assert np.array_equal(a, b)
        with pytest.raises(ValueError):
            window_primitive(wp, 0.05, 0.0)

    @pytest.mark.parametrize("kind, table", [
        ("bump_at_zero", None),
        ("bump_at_zero", np.zeros((2, 26080))),
        ("bump_at_zero", np.zeros((2, 26081), dtype=np.float32)),
        ("bump_positive", np.zeros((2, 26081))),
        ("bump_positive", "truncated"),
    ], ids=["missing", "short", "float32", "real-one-sided", "truncated-file"])
    def test_bad_table_is_refused(self, monkeypatch, tmp_path, kind, table):
        if isinstance(table, np.ndarray):
            np.save(tmp_path / f"{kind}.npy", table)
        elif table == "truncated":
            with open(qz._profile_path(kind), "rb") as fh:
                data = fh.read()
            (tmp_path / f"{kind}.npy").write_bytes(data[: len(data) // 2])
        monkeypatch.setattr(qz, "_PROFILE_DIR", str(tmp_path))
        monkeypatch.setattr(qz, "_PROFILE_CACHE", {})
        with pytest.raises(ValueError, match="scripts/window_profiles.py --write"):
            fourier_window(WindowTheta(kind), 0.1, 0.0)
        assert qz._PROFILE_CACHE == {}


class TestSmoothedTrace:
    def test_identity_cutoff_free_reduction(self):
        g = small_grid(h=0.25)
        op = build_schrodinger(model_potential("constant", v_inf=0.0, N=2), g)
        f = bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_at_zero", eps=0.25)
        got = smoothed_trace(MatrixCutoff(g, np.eye(g.M)), op, f, w, 1.0)
        p2 = g.momenta**2
        expect = 2.0 * np.sum(f(p2) * fourier_window(w, g.h, 1.0 - p2))
        assert complex(got).real == pytest.approx(expect, rel=1e-12)
        assert abs(complex(got).imag) < 1e-10

    def test_zero_cutoff(self):
        g = small_grid(h=0.25)
        op = build_schrodinger(model_potential("constant", v_inf=0.0, N=1), g)
        zero = MatrixCutoff(g, np.zeros((g.M, g.M)))
        f = bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_at_zero", eps=0.25)
        assert complex(smoothed_trace(zero, op, f, w, 1.0)) == 0.0

    def test_linearity(self, rng):
        g = small_grid(h=0.25)
        op = build_schrodinger(model_potential("reference"), g)
        w = WindowTheta("bump_at_zero", eps=0.25)
        a1 = weyl_quantize(CHI, g)
        a2 = weyl_quantize(ProductCutoff(g=Bump1D(0.5, 1.5), k=Bump1D(0, 1.0)), g)
        f1 = bump_test_function((0.5, 1.5))
        f2 = bump_test_function((0.8, 1.8))
        alpha, beta = 1.7, -0.4
        t_a1 = smoothed_trace(a1, op, f1, w, 1.0)
        t_a2 = smoothed_trace(a2, op, f1, w, 1.0)
        combined = MatrixCutoff(g, alpha * cutoff_matrix(a1) + beta * cutoff_matrix(a2))
        t_mix = smoothed_trace(combined, op, f1, w, 1.0)
        assert abs(t_mix - (alpha * t_a1 + beta * t_a2)) < 1e-12 * max(1.0, abs(t_mix))
        # linearity in f
        f_mix = lambda t: alpha * f1(t) + beta * f2(t)
        t_f = smoothed_trace(a1, op, f_mix, w, 1.0)
        assert abs(t_f - (alpha * smoothed_trace(a1, op, f1, w, 1.0)
                          + beta * smoothed_trace(a1, op, f2, w, 1.0))) < 1e-12

    def test_far_tau_tiny(self):
        g = small_grid(h=0.25)
        op = build_schrodinger(model_potential("constant", v_inf=0.0, N=1), g)
        a = weyl_quantize(CHI, g)
        f = bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_at_zero", eps=0.25)
        val = complex(smoothed_trace(a, op, f, w, -300.0))
        assert abs(val) < 1e-8

    def test_grid_mismatch(self):
        g1, g2 = small_grid(h=0.25), small_grid(h=0.125)
        op = build_schrodinger(model_potential("constant", v_inf=0.0, N=1), g1)
        a = weyl_quantize(CHI, g2)
        f = bump_test_function((0.5, 1.5))
        with pytest.raises(GridMismatchError):
            smoothed_trace(a, op, f, WindowTheta(), 1.0)

    def test_triangle_refused_as_cutoff(self, monkeypatch):
        # a Schrodinger operator holds half its matrix and no rows to read:
        # it is refused as a cutoff before H is solved
        g = small_grid(h=1 / 16, tau_max=2.0)
        a = build_schrodinger(model_potential("diagonal_bumps", depths=[-1.0], centers=[0.0],
                                              widths=[1.0]), g)
        h_op = build_schrodinger(model_potential("diagonal_bumps", depths=[0.5],
                                                 centers=[0.3], widths=[0.8]), g)
        f = bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_at_zero", eps=0.25)
        calls = counted(monkeypatch)
        with pytest.raises(TypeError, match="not a cutoff"):
            smoothed_trace(a, h_op, f, w, 1.0)
        assert calls == []

    @pytest.mark.parametrize("cutoff", ["product-cutoff", "array", "number"])
    def test_not_a_cutoff_refused(self, monkeypatch, cutoff):
        # a symbol not yet quantized, a dense array or a number has no rows
        # to read: refused before H is solved
        g = small_grid(h=0.25)
        a = {"product-cutoff": CHI, "array": np.eye(g.M), "number": 1.0}[cutoff]
        op = build_schrodinger(model_potential("reference"), g)
        calls = counted(monkeypatch)
        with pytest.raises(TypeError, match="not a cutoff"):
            smoothed_trace(a, op, bump_test_function((0.5, 1.5)), WindowTheta(), 1.0)
        assert calls == []

    @pytest.mark.parametrize("f", [2.0, np.ones(3)], ids=["number", "array"])
    def test_f_must_be_callable(self, monkeypatch, f):
        # a number is not read as a constant function: refused before H is
        # solved
        g = small_grid(h=0.25)
        op = build_schrodinger(model_potential("reference"), g)
        calls = counted(monkeypatch)
        with pytest.raises(TypeError, match="function of the eigenvalues"):
            smoothed_trace(weyl_quantize(CHI, g), op, f, WindowTheta(), 1.0)
        assert calls == []

    def test_one_solve_with_cutoff(self, monkeypatch):
        g = small_grid(h=0.25)
        v = model_potential("reference")
        a = weyl_quantize(CHI, g)
        f = bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_at_zero", eps=0.25)
        taus = [0.9, 1.0]
        lam, vecs = np.linalg.eigh(full_matrix(build_schrodinger(v, g)))
        uv = vecs.reshape(g.M, 2, -1)
        diag = np.einsum("mnk,mnk->k", uv.conj(),
                         np.tensordot(cutoff_matrix(a), uv, axes=([1], [0])))
        expect = fourier_window(w, g.h, np.subtract.outer(taus, lam)) @ (f(lam) * diag)

        op = build_schrodinger(v, g)
        calls = counted(monkeypatch)
        got = smoothed_trace(a, op, f, w, taus)
        # one solve on the support of f, and no values-only one before it
        assert calls == [((op.dim, op.dim), f.support)]
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    @pytest.mark.parametrize("kind,params", [
        ("diagonal_bumps", {"depths": [-1.0], "centers": [0.0], "widths": [1.0]}),
        ("reference", {}),
        ("constant", {"v_inf": [0.0, 0.3]}),
    ], ids=["N1", "N2", "analytic_complex"])
    def test_cutoff_diagonal_only_where_f_nonzero(self, monkeypatch, kind, params):
        # <u_j, A u_j> on the columns where f(lambda_j) != 0 against that
        # column of the full dense product; N2 uses the per-channel scalar
        # cutoff.  BLAS picks its kernels by the shape of a product, so a
        # column of a product of a few rows agrees to rounding, not always
        # bit for bit.  A is read in blocks of 3 rows here, so each subset's
        # sums run over many blocks.  The even N1 bump's columns are those of
        # its whole matrix's solve
        g = small_grid(h=1 / 16, tau_max=2.0)
        monkeypatch.setattr(qz, "_WEYL_BLOCK", 3 * g.M)
        v = model_potential(kind, **params)
        op = build_schrodinger(v, g) if kind == "constant" else unblocked_operator(v, g)
        a = weyl_quantize(CHI, g)
        assert (op._analytic is not None) == (kind == "constant")
        if kind == "constant":
            # the analytic spectrum's plane waves: complex columns on 2 channels
            raw, order = op._analytic_order()
            lam, vecs = raw[order], plane_waves(v, g, order)
            assert op.N == 2 and np.iscomplexobj(vecs)
        else:
            lam, vecs = op.eigenpairs()
        dense = cutoff_matrix(a)
        if op.N == 1:
            full = np.einsum("ij,ij->j", vecs.conj(), dense @ vecs)
        else:
            uv = vecs.reshape(g.M, op.N, -1)
            full = np.einsum("mnk,mnk->k", uv.conj(), np.tensordot(dense, uv, axes=([1], [0])))
        cols = np.flatnonzero(bump_test_function((0.5, 1.5))(lam))
        assert 0 < cols.size < lam.size
        spread = np.arange(3, lam.size, 2)
        for sub in (np.arange(lam.size), cols, cols[:1], cols[:2], cols[1::3], spread):
            got = qz._cutoff_diagonal(a, vecs, sub)
            assert np.max(np.abs(got - full[sub])) <= 1e-14 * np.max(np.abs(full))

    @pytest.mark.parametrize("v, split", [
        (model_potential("diagonal_bumps", depths=[-1.0], centers=[0.5], widths=[1.0]), False),
        (model_potential("diagonal_bumps", depths=[-1.0], centers=[0.0], widths=[1.0]), True),
        (model_potential("conical_crossing"), True),
    ], ids=["dense", "parity", "split"])
    def test_trace_never_assembles_the_cutoff(self, monkeypatch, v, split):
        # a product cutoff's rows are made a block at a time and never put
        # together: the trace is the bits of the one with the cutoff's dense
        # matrix, read in slices of the same rows
        g = small_grid(h=1 / 16, tau_max=2.0)
        f = bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_at_zero", eps=0.25)
        a = weyl_quantize(CHI, g)
        expect = smoothed_trace(MatrixCutoff(g, cutoff_matrix(a)), build_schrodinger(v, g), f, w,
                                1.0)
        h_op = build_schrodinger(v, g)
        assert isinstance(h_op, qz.SplitOperator) == split
        assert smoothed_trace(a, h_op, f, w, 1.0) == expect
        assert smoothed_trace(a, build_schrodinger(v, g), f, w, 1.0) == expect

    @pytest.mark.parametrize("v", [DIAGONAL_2, model_potential("conical_crossing")],
                             ids=lambda v: v.name)
    def test_split_trace_holds_one_block_at_a_time(self, monkeypatch, v):
        # a split operator's trace solves its blocks in turn, each assembly
        # one block, never the (N, M, M) stack, and each block and its
        # eigenvectors are freed before the next is assembled.
        # conical_crossing's channel 1 is channel 0 reflected: one M x M
        # block is assembled and solved.  DIAGONAL_2's even channel 0 is its
        # two parity halves, (M/2 + 1) and (M/2 - 1) square, and its channel
        # 1 one M x M block.  The trace is the one formed from the blocks'
        # pairs merged into one (dim, k) array, to REFLECTION_DRIFT: the
        # diagonal of a reflected or parity summand sums in another order
        g = small_grid(h=1 / 16, tau_max=2.0)
        f = bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_at_zero", eps=0.25)
        taus = np.linspace(0.9, 1.1, 5)
        a = weyl_quantize(CHI, g)
        lam, vecs = merged_split_pairs(build_schrodinger(v, g), f.support)
        cols = np.flatnonzero(f(lam))
        weights = f(lam)[cols] * qz._cutoff_diagonal(a, vecs, cols)
        expect = fourier_window(w, g.h, taus[:, None] - lam[cols][None, :]) @ weights

        shapes, freed = [], []
        assemble, solve = qz._assemble_schrodinger, qz._evr

        def assemble_spy(grid, samples, parity=None):
            assert all(ref() is None for ref in freed)
            block = assemble(grid, samples, parity)
            shapes.append(block.shape)
            freed.append(weakref.ref(block))
            return block

        def solve_spy(mat, lo, hi):
            vals, vectors = solve(mat, lo, hi)
            freed.append(weakref.ref(vectors))
            return vals, vectors

        monkeypatch.setattr(qz, "_assemble_schrodinger", assemble_spy)
        monkeypatch.setattr(qz, "_evr", solve_spy)
        h_op = build_schrodinger(v, g)
        assert isinstance(h_op, qz.SplitOperator)
        got = smoothed_trace(a, h_op, f, w, taus)
        assert np.max(np.abs(got - expect)) <= REFLECTION_DRIFT * np.max(np.abs(expect))
        dims = {DIAGONAL_2.name: [g.M // 2 + 1, g.M // 2 - 1, g.M], "conical_crossing": [g.M]}
        assert shapes == [(n, n) for n in dims[v.name]] and len(freed) == 2 * len(shapes)
        assert all(ref() is None for ref in freed)
        assert all(block._matrix is None for block, _ in h_op.parts)

    # (H, supp f, window, bound): one step of the thm2, thm1 and thm3
    # set-ups at h = 1/64, 1/128 and 1/96, from H's construction to the
    # trace.  A fresh process makes the same step at h = 1/16 first, so that
    # the library code a first step faults in is resident, and forks; the
    # child makes the step, and its growth is its own peak above its
    # resident set at the fork.  The growth in units of H's dim x dim
    # float64 matrix read 1.48-1.64, 1.04-1.06 and 0.78-0.84 with
    # A's rows read a block at a time and the split operator's channel blocks
    # alone, and 2.62-2.77, 1.90-2.04 and 1.10-1.19 with A's dense matrix
    # assembled beside H.  With each channel block assembled for its solve
    # and dropped before the next, thm3 read 0.54-0.59, and 0.81-0.85 with
    # A's dense matrix, where both blocks held read 0.73-0.75 and 1.04-1.08
    # on the same 2-vCPU host.  With a solve's eigenvectors returned as a
    # view of LAPACK's rows and thm1's <u, A u> read from the FFT of A's lag
    # sums, with no plane wave formed, the three read 1.33-1.34, 0.27-0.28
    # and 0.49-0.50, and 2.51-2.52, 1.47 and 0.75 with A's dense matrix.
    # The thm1 and thm3 bounds are midway, and the step with A's dense
    # matrix is run too, as the control that must exceed the bound
    @pytest.mark.parametrize("box,h,v,support,w,bound", [
        ("12.0, 1.69", 1 / 64,
         "model_potential('diagonal_bumps', depths=[0.5], centers=[7.0], widths=[0.4])",
         (0.8, 1.2), "WindowTheta('bump_at_zero', eps=0.3)", 2.1),
        ("6.0, 2.56", 1 / 128, "model_potential('constant', v_inf=0.0, N=1)",
         (0.3, 1.7), "WindowTheta('bump_positive', eps=1.0)", 0.87),
        ("6.0, 2.0", 1 / 96, "model_potential('conical_crossing')",
         (0.5, 1.5), "WindowTheta('bump_at_zero', eps=0.25)", 0.62),
    ], ids=["thm2-dense", "thm1-analytic", "thm3-split"])
    def test_step_growth_in_a_fresh_process(self, box, h, v, support, w, bound):
        # tracemalloc cannot see H's matrix, which lives in a mapping of its own
        grown = {}
        for dense in (False, True):
            code = PEAK_RSS_SOURCE + (
                "import os, sys, traceback\n"
                "import numpy as np\n"
                "from ssf_lab.bumps import Bump1D, ProductCutoff\n"
                "from ssf_lab.coefficients import bump_test_function\n"
                "from ssf_lab.quantization import (WindowTheta, build_schrodinger, grid_for,\n"
                "                                  smoothed_trace, weyl_quantize)\n"
                "from ssf_lab.symbols import model_potential\n"
                "chi = ProductCutoff(g=Bump1D(0.0, 2.0), k=Bump1D(0.0, 2.0))\n"
                f"f, w = bump_test_function({support!r}), {w}\n"
                "def step(grid):\n"
                f"    h = build_schrodinger({v}, grid)\n"
                "    a = weyl_quantize(chi, grid)\n"
                f"    if {dense}:\n"
                "        dense = np.empty((grid.M, grid.M), a.dtype)\n"
                "        for lo, rows in a.blocks():\n"
                "            dense[lo:lo + len(rows)] = rows\n"
                "    smoothed_trace(a, h, f, w, np.linspace(0.9, 1.1, 9))\n"
                "    return h.dim\n"
                f"step(grid_for(1 / 16, {box}, 8192))\n"
                f"grid = grid_for({h!r}, {box}, 8192)\n"
                "pid = os.fork()\n"
                "if pid == 0:\n"
                "    code = 1\n"
                "    try:\n"
                "        at_fork = rss()\n"
                "        dim = step(grid)\n"
                "        print(dim, peak_rss() - at_fork, flush=True)\n"
                "        code = 0\n"
                "    except BaseException:\n"
                "        traceback.print_exc()\n"
                "    finally:\n"
                "        os._exit(code)\n"
                "sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
            )
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            dim, grown[dense] = map(int, proc.stdout.split())
            assert dim == {1 / 64: 1272, 1 / 128: 1566, 1 / 96: 2076}[h]
        assert grown[False] < bound * 8 * dim * dim < grown[True]

    def test_peak_memory_with_cutoff(self):
        # a fresh process; the windowed solve holds the k eigenvector columns
        # of supp f, where a full eigh holds the vector matrix and a workspace
        # of two more, and the cutoff is assembled after H's matrix is gone
        code = PEAK_RSS_SOURCE + (
            "import numpy as np\n"
            "from ssf_lab.bumps import Bump1D, ProductCutoff\n"
            "from ssf_lab.coefficients import bump_test_function\n"
            "from ssf_lab.quantization import (WindowTheta, build_schrodinger, fourier_window,\n"
            "                                  grid_for, smoothed_trace, weyl_quantize)\n"
            "from ssf_lab.symbols import model_potential\n"
            "grid = grid_for(1 / 64, 12.0, 1.69, 8192)\n"
            "v = model_potential('diagonal_bumps', depths=[0.5], centers=[7.0], widths=[0.4])\n"
            "chi = ProductCutoff(g=Bump1D(0.0, 2.0), k=Bump1D(0.0, 2.0))\n"
            "w = WindowTheta('bump_at_zero', eps=0.3)\n"
            "fourier_window(w, grid.h, 0.0)\n"
            "before = peak_rss()\n"
            "a = weyl_quantize(chi, grid)\n"
            "h = build_schrodinger(v, grid)\n"
            "smoothed_trace(a, h, bump_test_function((0.8, 1.2)), w, np.linspace(0.9, 1.1, 9))\n"
            "print(h.dim, a.grid.M, peak_rss() - before)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        dim, a_dim, grown = map(int, proc.stdout.split())
        assert dim == a_dim == 1272
        # the matrix or the cutoff, each 12.9 MB, never both: the growth read
        # 1.54 matrices here and 1.79 with the cutoff assembled before H
        assert grown < 1.7 * 8 * dim * dim

    def test_tau_vectorized(self):
        g = small_grid(h=0.25)
        op = build_schrodinger(model_potential("constant", v_inf=0.0, N=1), g)
        f = bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_at_zero", eps=0.25)
        taus = np.array([0.9, 1.0, 1.1])
        one = MatrixCutoff(g, np.eye(g.M))
        batch = smoothed_trace(one, op, f, w, taus)
        singles = [smoothed_trace(one, op, f, w, float(t)) for t in taus]
        assert np.allclose(batch, singles, atol=0)


class TestRowBlockDiagonal:
    """<u_j, A u_j> formed from A's rows a block at a time equals the
    diagonal of U^H A U with the dense matrix, to 1e-13 of its largest
    entry, for a product cutoff's rows and for dense matrices read in
    slices."""

    @staticmethod
    def dense_diagonal(mat, vecs, n):
        uv = vecs.reshape(mat.shape[0], n, -1)
        return np.einsum("mnk,mnk->k", uv.conj(), np.tensordot(mat, uv, axes=([1], [0])))

    @staticmethod
    def subsets(k):
        return np.arange(k), np.arange(5, k, 3), np.arange(k // 3, k // 2), np.array([7])

    @pytest.mark.parametrize("held", [False, True], ids=["rows", "held"])
    @pytest.mark.parametrize("k", [Bump1D(0, 1.2), Bump1D(0.3, 1.0)], ids=["even", "shifted"])
    @pytest.mark.parametrize("v", [
        model_potential("diagonal_bumps", depths=[-1.0], centers=[0.0], widths=[1.0]),
        model_potential("reference"),
    ], ids=lambda v: f"N{v.N}")
    def test_product_cutoff(self, monkeypatch, v, k, held):
        # blocks of 7 rows, which M = 148 is not a multiple of; an even k
        # gives a real matrix, a shifted one a complex matrix, and the rows
        # are made in that dtype from the first block on.  The columns are
        # those of each model's whole matrix
        g = small_grid(h=1 / 16, tau_max=2.0)
        monkeypatch.setattr(qz, "_WEYL_BLOCK", 7 * g.M)
        chi = ProductCutoff(g=Bump1D(0, 2.0), k=k)
        dense = cutoff_matrix(weyl_quantize(chi, g))
        assert dense.dtype == (float if k.center == 0 else complex)
        lam, vecs = unblocked_operator(v, g).eigenpairs()
        expect = self.dense_diagonal(dense, vecs, v.N)
        a = MatrixCutoff(g, dense) if held else weyl_quantize(chi, g)
        first = next(a.blocks())[1]
        assert first.shape == (7, g.M) and first.dtype == dense.dtype
        for cols in self.subsets(lam.size):
            got = qz._cutoff_diagonal(a, vecs, cols)
            assert np.max(np.abs(got - expect[cols])) <= 1e-13 * np.max(np.abs(expect))

    @pytest.mark.parametrize("diagonal", [lambda x: np.full_like(x, 0.7),
                                          lambda x: np.cos(x) * np.exp(-x * x)],
                             ids=["number", "multiplication"])
    @pytest.mark.parametrize("v", [
        model_potential("diagonal_bumps", depths=[-1.0], centers=[0.0], widths=[1.0]),
        model_potential("constant", v_inf=[0.0, 0.3], N=2),
    ], ids=["N1", "N2-complex"])
    def test_held_matrix_read_in_slices(self, monkeypatch, v, diagonal):
        # a real diagonal cutoff read in slices of 7 rows; the even bump's
        # columns are its whole matrix's, and the constant potential's its
        # complex plane waves, read in their C order and through the
        # C-ordered copy of a column-major copy of them
        g = small_grid(h=1 / 16, tau_max=2.0)
        monkeypatch.setattr(qz, "_WEYL_BLOCK", 7 * g.M)
        a = MatrixCutoff(g, np.diag(diagonal(g.nodes)))
        if v.N == 1:
            lam, vecs = unblocked_operator(v, g).eigenpairs()
            layouts = [vecs]
        else:
            op = build_schrodinger(v, g)
            raw, order = op._analytic_order()
            lam, vecs = raw[order], plane_waves(v, g, order)
            assert np.iscomplexobj(vecs)
            layouts = [vecs, np.asfortranarray(vecs)]
        expect = self.dense_diagonal(a.matrix, vecs, v.N)
        for u in layouts:
            for cols in self.subsets(lam.size):
                got = qz._cutoff_diagonal(a, u, cols)
                assert np.max(np.abs(got - expect[cols])) <= 1e-13 * np.max(np.abs(expect))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("k", [Bump1D(0, 1.2), Bump1D(0.3, 1.0)], ids=["even", "shifted"])
    def test_column_major_columns(self, rng, kind, k):
        # a dense solve's columns are the F-contiguous view of LAPACK's
        # rows; complex ones meet a real cutoff through a C-ordered copy
        g = small_grid(h=1 / 16, tau_max=2.0)
        lam, vecs = qz._evr(random_matrix(rng, g.M, kind), -5.0, 5.0)
        assert vecs.flags.f_contiguous
        a = weyl_quantize(ProductCutoff(g=Bump1D(0, 2.0), k=k), g)
        expect = self.dense_diagonal(cutoff_matrix(a), vecs, 1)
        for cols in self.subsets(lam.size):
            got = qz._cutoff_diagonal(a, vecs, cols)
            assert np.max(np.abs(got - expect[cols])) <= 1e-13 * np.max(np.abs(expect))


class TestPlaneWaveDiagonal:
    """On an analytic spectrum <u_j, A u_j> is read from the FFT of A's lag
    sums: the trace is that of the plane waves and A's dense matrix, to
    1e-13 of its largest value, and no plane wave is formed."""

    @staticmethod
    def plane_wave_trace(a, v, op, f, w, taus):
        """The trace from every plane wave and the dense matrix of ``a``."""
        vals, order = op._analytic_order()
        lam = vals[order]
        uv = plane_waves(v, op.grid, order).reshape(op.grid.M, op.N, -1)
        diag = np.einsum("mnk,mnk->k", uv.conj(),
                         np.tensordot(cutoff_matrix(a), uv, axes=([1], [0])))
        return fourier_window(w, op.grid.h, taus[:, None] - lam[None, :]) @ (f(lam) * diag)

    @pytest.mark.parametrize("cutoff,v,f,w", [
        (CHI, "free", bump_test_function((0.5, 1.5)), WindowTheta("bump_positive", eps=0.5)),
        (ProductCutoff(g=Bump1D(0.3, 2.0), k=Bump1D(0.3, 1.0)), "free",
         bump_test_function((0.5, 1.5)), WindowTheta("bump_positive", eps=0.5)),
        (lambda g: np.eye(g.M), "free", bump_test_function((0.5, 1.5)),
         WindowTheta("bump_at_zero", eps=0.25)),
        (lambda g: general_weyl_matrix(
            lambda x, xi: np.exp(-x * x) * (np.cos(xi) ** 2 + 0.3 * np.sin(xi)), g), "free",
         bump_test_function((0.5, 1.5)), WindowTheta("bump_at_zero", eps=0.25)),
        (CHI, "coupled", bump_test_function((0.5, 1.5)), WindowTheta("bump_at_zero", eps=0.25)),
        (CHI, "free", lambda t: np.exp(-t), WindowTheta("bump_at_zero", eps=0.25)),
        (CHI, "free", bump_test_function((-2.0, -1.0)), WindowTheta("bump_at_zero", eps=0.25)),
    ], ids=["product", "complex-kappa", "identity", "general", "coupled", "no-support",
            "empty-support"])
    def test_matches_the_plane_waves(self, monkeypatch, cutoff, v, f, w):
        # a product cutoff, or a dense matrix for the identity and a general
        # symbol, whose lag sums are binned from its rows
        g = small_grid(h=1 / 16, tau_max=2.0)
        v = {"free": model_potential("constant", v_inf=0.0, N=1),
             "coupled": TestEigenvectorColumns.COUPLED_POTENTIAL}[v]
        taus = np.array([0.9, 1.0, 1.1])

        def make():
            if isinstance(cutoff, ProductCutoff):
                return weyl_quantize(cutoff, g)
            return MatrixCutoff(g, cutoff(g))

        expect = self.plane_wave_trace(make(), v, build_schrodinger(v, g), f, w, taus)

        def refused(*args, **kwargs):
            raise AssertionError("an eigenvector was formed")

        monkeypatch.setattr(GridOperator, "eigenpairs", refused)
        calls = counted(monkeypatch)
        a, op = make(), build_schrodinger(v, g)
        got = smoothed_trace(a, op, f, w, taus)
        assert calls == [] and op._matrix is None
        if np.all(expect == 0):  # no eigenvalue in supp f
            assert np.all(got == 0)
        else:
            assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    @pytest.mark.parametrize("k", [Bump1D(0, 1.2), Bump1D(0.3, 1.0)], ids=["even", "shifted"])
    def test_lag_sums_are_the_wrapped_diagonals(self, k):
        # a product cutoff's closed-form lag sums against those binned from
        # its dense matrix, as the tests' dense cutoffs bin theirs
        g = small_grid(h=1 / 16, tau_max=2.0)
        a = weyl_quantize(ProductCutoff(g=Bump1D(0, 2.0), k=k), g)
        expect = MatrixCutoff(g, cutoff_matrix(a)).lag_sums()
        assert np.max(np.abs(a.lag_sums() - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_step_growth_in_a_fresh_process(self):
        # thm1's perfbench step at h = 1/128 (M = 1566), after the same step
        # at h = 1/16: it grew by 13.4 MB with the window's 370 plane waves
        # (9.3 MB) formed, and by 0-0.06 MB with the lag sums' FFT; the
        # bound is midway
        code = PEAK_RSS_SOURCE + (
            "from ssf_lab.bumps import Bump1D, ProductCutoff\n"
            "from ssf_lab.coefficients import bump_test_function\n"
            "from ssf_lab.quantization import (WindowTheta, build_schrodinger, grid_for,\n"
            "                                  smoothed_trace, weyl_quantize)\n"
            "from ssf_lab.symbols import model_potential\n"
            "v = model_potential('constant', v_inf=0.0, N=1)\n"
            "chi = ProductCutoff(g=Bump1D(0.0, 2.0), k=Bump1D(0.0, 2.0))\n"
            "f, w = bump_test_function((0.3, 1.7)), WindowTheta('bump_positive', eps=1.0)\n"
            "def step(h):\n"
            "    grid = grid_for(h, 6.0, 2.56, 8192)\n"
            "    smoothed_trace(weyl_quantize(chi, grid), build_schrodinger(v, grid), f, w, 1.0)\n"
            "    return grid.M\n"
            "step(1 / 16)\n"
            "before = peak_rss()\n"
            "print(step(1 / 128), peak_rss() - before)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        m, grown = map(int, proc.stdout.split())
        assert m == 1566
        assert grown < 6.7e6


def grids(hs, R, tau_max, m_cap=8192):
    return [grid_for(h, R, tau_max, m_cap) for h in hs]


class TestTheoremCheckPlumbing:
    def test_theorem2_identity_exact_zero(self):
        from ssf_lab.microhyperbolicity import check_on_energy_shell

        v = model_potential("constant", v_inf=0.0, N=1)
        f = bump_test_function((0.8, 1.2))
        w = WindowTheta("bump_at_zero", eps=0.3)
        rep = theorem2_check(v, v, CHI, f, [0.9, 1.0, 1.1], grids([1 / 8, 1 / 16], 6.0, 1.69),
                             w)
        assert np.array_equal(rep.values, np.zeros(2))
        assert rep.verdict == "PASS" and rep.below_floor

    def test_theorem2_reads_the_cutoff_rows_once_per_h(self, monkeypatch):
        # the free operator's trace reads the cutoff's lag sums in closed
        # form and the perturbed one its rows: one pass over them per h
        reads = []
        blocks = qz._ProductRows.blocks

        def spy(rows):
            reads.append(rows.m)
            return blocks(rows)

        monkeypatch.setattr(qz._ProductRows, "blocks", spy)
        v0 = model_potential("constant", v_inf=0.0, N=1)
        v1 = model_potential("diagonal_bumps", depths=[0.5], centers=[7.0], widths=[0.4])
        steps = grids([1 / 8, 1 / 16, 1 / 32], 12.0, 1.69)
        theorem2_check(v0, v1, CHI, bump_test_function((0.8, 1.2)), np.linspace(0.9, 1.1, 9),
                       steps, WindowTheta("bump_at_zero", eps=0.3))
        assert reads == [grid.M for grid in steps]

    def test_theorem2_separation_rejection(self):
        v0 = model_potential("constant", v_inf=0.0, N=1)
        v1 = model_potential("diagonal_bumps", depths=[0.5], centers=[2.5], widths=[0.4])
        f = bump_test_function((0.8, 1.2))
        w = WindowTheta("bump_at_zero", eps=0.3)
        with pytest.raises(SupportMarginError):
            theorem2_check(v0, v1, CHI, f, [1.0], grids([1 / 8, 1 / 16], 8.0, 1.69), w)

    def test_resource_cap_rejection(self):
        v = model_potential("constant", v_inf=0.0, N=1)
        f = bump_test_function((0.8, 1.2))
        with pytest.raises(CoverageError) as err:
            theorem1_check(v, CHI, f, 1.0, grids([1 / 4096], 6.0, 1.69, m_cap=4096),
                           WindowTheta("bump_positive", eps=0.3))
        assert err.value.required_m > 4096

    def test_theorem3_two_point_sweep_rejected(self):
        # two h with nonzero residuals admit no slope fit
        v = model_potential("constant", v_inf=0.0, N=1)
        f = bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_at_zero", eps=0.25)
        with pytest.raises(ConfigError):
            theorem3_check(v, CHI, f, 1.0, grids([1 / 4, 1 / 8], 6.0, 2.0), w, 1.0)

    @pytest.mark.parametrize("variant", ["thm1", "thm2", "thm3"])
    def test_support_above_the_window_rejected(self, variant, monkeypatch):
        # supp f reaches 1.8, above the grids' tau_max 1.69: no operator is
        # built for eigenpairs the grids do not resolve
        def refuse(*args, **kwargs):
            raise AssertionError("built past the window check")

        for name in ("build_schrodinger", "weyl_quantize"):
            monkeypatch.setattr(qz, name, refuse)
        v = model_potential("constant", v_inf=0.0, N=1)
        f = bump_test_function((0.8, 1.8))
        gs = grids([1 / 8, 1 / 16, 1 / 32], 6.0, 1.69)
        even = WindowTheta("bump_at_zero", eps=0.25)
        checks = {
            "thm1": lambda: theorem1_check(v, CHI, f, 1.0, gs,
                                           WindowTheta("bump_positive", eps=0.3)),
            "thm2": lambda: theorem2_check(v, v, CHI, f, [1.0], gs, even),
            "thm3": lambda: theorem3_check(v, CHI, f, 1.0, gs, even, 1.0),
        }
        with pytest.raises(WindowRangeError, match="support up to 1.8 exceeds .* 1.69"):
            checks[variant]()


HS = [1 / 8, 1 / 16, 1 / 32]
DECAY = {"order_threshold": 3.0}
COMPARE = {"order_threshold": 1.5, "rel_threshold": 0.03, "reference": 1.0}


class TestSweepVerdict:
    @pytest.mark.parametrize("values,kw,verdict,below,slope", [
        # every error below the floor: BELOW_FLOOR passes, no slope
        ([1e-11, 5e-12, 0.0], DECAY, "PASS", True, None),
        ([1.0 + 5e-13, 1.0 - 2e-13, 1.0], COMPARE, "PASS", True, None),
        # one exact zero among positive errors: no fit; a decay fails, a
        # comparison is decided by the relative threshold alone
        ([1e-3, 0.0, 1e-6], DECAY, "FAIL", False, None),
        ([1.01, 1.0, 1.001], COMPARE, "PASS", False, None),
        ([1.0, 1.01, 1.5], COMPARE, "FAIL", False, None),
        # fitted slope below / above the threshold
        ([h for h in HS], DECAY, "FAIL", False, 1.0),
        ([1.0 + 0.01 * h for h in HS], COMPARE, "FAIL", False, 1.0),
        ([h**4 for h in HS], DECAY, "PASS", False, 4.0),
        ([1.0 + 0.01 * h**2 for h in HS], COMPARE, "PASS", False, 2.0),
    ])
    def test_forms(self, values, kw, verdict, below, slope):
        rep = sweep_verdict(HS, values, **kw)
        assert rep.verdict == verdict
        assert rep.below_floor is below
        if slope is None:
            assert rep.slope is None
            assert all(math.isnan(r[4]) for r in rep.rows())
        else:
            assert rep.slope == pytest.approx(slope, abs=1e-6)
        assert [r[1] for r in rep.rows()] == list(values)

    def test_decay_rows_are_the_values(self):
        rep = sweep_verdict(HS, [h**4 for h in HS], 3.0)
        rows = list(rep.rows())
        assert [[type(x) for x in r] for r in rows] == [[float] * len(qz.SweepReport.COLUMNS)] * 3
        assert all(r[2] == 0.0 and r[3] == r[1] for r in rows)

    def test_given_relative_errors(self):
        # given relative errors stand, and the values are the errors fitted
        rep = sweep_verdict(HS, [h**2 for h in HS], rel_errors=[9.0, 0.5, 0.01], **COMPARE)
        assert list(rep.rel_errors) == [9.0, 0.5, 0.01]
        assert rep.slope == pytest.approx(2.0, abs=1e-12)
        assert rep.verdict == "PASS"
        with pytest.raises(ValueError, match="relative errors are its values"):
            sweep_verdict(HS, [h**4 for h in HS], rel_errors=[1.0, 1.0, 1.0], **DECAY)

    def test_two_point_sweep(self):
        with pytest.raises(ConfigError):
            sweep_verdict(HS[:2], [1.1, 1.01], **COMPARE)
        with pytest.raises(ConfigError):
            sweep_verdict(HS[:2], [1e-3, 1e-5], **DECAY)
        assert sweep_verdict(HS[:2], [0.0, 0.0], **DECAY).verdict == "PASS"
