import ctypes
import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import PEAK_RSS_SOURCE, full_matrix, random_hermitian
from ssf_lab.bumps import Bump1D, ProductCutoff
from ssf_lab import quadrature
from ssf_lab.coefficients import bump_test_function
from ssf_lab.quadrature import gauss_rule
from ssf_lab.quantization import (
    CertificateError,
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


def small_grid(h=0.25, R=6.0, tau_max=1.5, M=None):
    return Grid1D(R=R, M=M or required_points(R, h, tau_max), h=h, tau_max=tau_max)


def reconstruction_residual(op: GridOperator) -> float:
    """max |V diag(lambda) V^H - A| / max |A| of the operator's eigenpairs."""
    vals, vecs = op.eigenpairs()
    approx = (vecs * vals) @ vecs.conj().T
    mat = full_matrix(op)
    scale = float(np.max(np.abs(mat))) or 1.0
    return float(np.max(np.abs(approx - mat))) / scale


def midpoint_values(values_half: np.ndarray, mid_idx, ambiguous, m_pts: int):
    """g(mid_ij) from the half-grid values, averaged with the value R away
    at the antipodal tie: the reference for a Weyl matrix's midpoints."""
    out = values_half[mid_idx]
    if np.any(ambiguous):
        other = values_half[(mid_idx + m_pts) % (2 * m_pts)]
        out = np.where(ambiguous, 0.5 * (out + other), out)
    return out


CHI = ProductCutoff(g=Bump1D(0, 2.0), k=Bump1D(0, 1.2))
SIGMA2 = np.array([[0.0, -1j], [1j, 0.0]])

# four assembled models, real and complex, and one constant potential
ASSEMBLY_MODELS = [
    model_potential("diagonal_bumps", depths=[-1.0], centers=[0.5], widths=[1.0]),
    model_potential("reference"),
    model_potential("avoided_crossing", gap=0.2),
    MatrixPotential(n=1, N=2, eval=lambda x: math.exp(-x * x) * SIGMA2 + np.diag([0.0, 0.3]),
                    grad=None, v_infinity=np.diag([0.0, 0.3]), name="complex"),
    model_potential("constant", v_inf=[0.3, 0.9], N=2),
]


class TestGrid:
    def test_geometry(self):
        g = Grid1D(R=6.0, M=128, h=0.25)
        assert g.M * g.dx == pytest.approx(2 * g.R, abs=0)
        assert g.dp == pytest.approx(math.pi * g.h / g.R)
        assert len(g.nodes) == 128 and g.nodes[0] == -6.0
        assert g.momenta[0] == -g.dp * 64 and g.momenta[-1] == g.dp * 63

    def test_coverage_rule(self):
        need = required_points(6.0, 0.25, 1.5)
        g = Grid1D(R=6.0, M=need, h=0.25, tau_max=1.5)
        assert g.p_max >= 2.0 * math.sqrt(1.5)
        with pytest.raises(CoverageError) as err:
            Grid1D(R=6.0, M=need - 2, h=0.25, tau_max=1.5)
        assert err.value.required_m == need

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(R=6.0, M=127, h=0.25)
        with pytest.raises(ValueError):
            Grid1D(R=-1.0, M=128, h=0.25)


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
        g = small_grid(h=0.5, M=64)
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
        e0 = build_schrodinger(v, Grid1D(R=6.0, M=128, h=h0)).eigenvalues()[0]
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
        g = small_grid(h=0.5, M=64)
        op = build_schrodinger(model_potential("constant", v_inf=[0.3, 0.9], N=2), g)
        assert reconstruction_residual(op) < 1e-10

    @pytest.mark.parametrize("v", ASSEMBLY_MODELS, ids=lambda v: v.name)
    def test_assembly_matches_kron_reference(self, v, kron_reference):
        g = small_grid(h=0.25, M=48)
        op = build_schrodinger(v, g)
        ref = kron_reference(v, g)
        assert op.matrix.dtype == ref.dtype
        assert np.array_equal(full_matrix(op), ref)

    @pytest.mark.parametrize("v", ASSEMBLY_MODELS, ids=lambda v: v.name)
    def test_stored_triangle_matches_kron_reference(self, v, kron_reference):
        # the operator holds the upper triangle and zeros below it
        g = small_grid(h=0.25, M=48)
        op = build_schrodinger(v, g)
        assert op.upper_only
        assert np.array_equal(np.triu(op.matrix), np.triu(kron_reference(v, g)))
        assert not np.any(np.tril(op.matrix, -1))

    @pytest.mark.parametrize("v", ASSEMBLY_MODELS[:4], ids=lambda v: v.name)
    def test_values_are_the_bits_of_the_mirrored_reference(self, v, kron_reference):
        g = small_grid(h=0.25, M=48)
        op = build_schrodinger(v, g)
        expect = np.linalg.eigvalsh(kron_reference(v, g))
        assert np.array_equal(np.linalg.eigvalsh(full_matrix(op)), expect)
        assert np.array_equal(op.eigenvalues(), expect)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0)],
                             ids=["nan", "inf", "-inf", "complex-nan"])
    def test_non_finite_potential_rejected(self, monkeypatch, bad):
        # the samples are checked where the assembled matrix used to be: at
        # one node, before anything is assembled
        g = small_grid(h=0.25, M=48)
        spot = g.nodes[17]

        def field(x):
            return np.array([[bad if x == spot else -1.0, 0.2], [0.2, 0.3]])

        v = MatrixPotential(n=1, N=2, eval=field, grad=None,
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

    def test_constant_potential_assembles_on_demand(self, kron_reference):
        g = small_grid(h=0.25, M=48)
        v = model_potential("constant", v_inf=[0.3, 0.9], N=2)
        op = build_schrodinger(v, g)
        op.eigenpairs()
        assert op._matrix is None
        mat = op.matrix
        assert op.matrix is mat
        assert np.array_equal(full_matrix(op), kron_reference(v, g))

    def test_analytic_pairs_columnwise(self):
        # the plane wave m tensored with the channel vector k, column by column
        g = small_grid(h=0.5, M=32)
        coupled = np.array([[0.3, 0.2], [0.2, 0.9]])
        v = MatrixPotential(n=1, N=2, eval=lambda x: coupled, grad=None,
                            v_infinity=np.diag([0.3, 0.9]), name="coupled")
        op = build_schrodinger(v, g)
        vals, vecs = op.eigenpairs()
        channel_vals, channel_vecs = op._analytic
        order = np.argsort((g.momenta[:, None] ** 2 + channel_vals[None, :]).ravel(),
                           kind="stable")
        phases = np.exp(1j * np.outer(g.nodes, g.momenta / g.h)) / math.sqrt(g.M)
        for col, flat in enumerate(order):
            m_idx, k_idx = divmod(flat, 2)
            expect = np.kron(phases[:, m_idx], channel_vecs[:, k_idx])
            assert np.array_equal(vecs[:, col], expect)


WHOLE = (-math.inf, math.inf)


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
    channel block at a time; coupled and one-channel potentials are not."""

    @pytest.fixture(params=[DIAGONAL_2, model_potential("conical_crossing")],
                    ids=lambda v: v.name)
    def op(self, request):
        return build_schrodinger(request.param, small_grid(h=1 / 16, tau_max=2.0))

    def test_values_match_dense(self, op):
        dense = np.linalg.eigvalsh(full_matrix(op))
        vals = op.eigenpairs()[0]
        assert np.max(np.abs(vals - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_pairs_per_channel(self, op, monkeypatch):
        calls = counted(monkeypatch)
        vals, vecs = op.eigenpairs()
        assert calls == [((op.grid.M, op.grid.M), WHOLE)] * op.N
        assert np.all(np.diff(vals) >= 0)
        assert reconstruction_residual(op) < 1e-10
        # every eigenvector lives on one channel's rows
        support = np.any(vecs.reshape(op.grid.M, op.N, op.dim) != 0, axis=0)
        assert np.array_equal(support.sum(axis=0), np.ones(op.dim))
        # nothing is cached: a window is solved again, block by block
        window = (-math.inf, 0.5 * (vals[1] + vals[2]))
        assert op.eigenpairs(window=window)[1].shape == (op.dim, 2)
        assert calls[-op.N:] == [((op.grid.M, op.grid.M), window)] * op.N

    def test_trace_matches_dense_solve(self, op):
        a = weyl_quantize(CHI, op.grid)
        f = bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_at_zero", eps=0.25)
        taus = [0.9, 1.0, 1.1]
        dense = GridOperator(grid=op.grid, N=op.N, matrix=full_matrix(op))
        expect = smoothed_trace(a, dense, f, w, taus)
        got = smoothed_trace(a, op, f, w, taus)
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_peak_memory_is_the_matrix(self):
        # a fresh process; thm3's finest step holds its channel blocks alone
        # and solves each in place, where copying them out of the whole
        # matrix held the matrix and half of it again
        code = PEAK_RSS_SOURCE + (
            "from ssf_lab.quantization import build_schrodinger, grid_for\n"
            "from ssf_lab.symbols import model_potential\n"
            "grid = grid_for(1 / 96, 6.0, 2.0, 8192)\n"
            "before = peak_rss()\n"
            "op = build_schrodinger(model_potential('conical_crossing'), grid)\n"
            "vals, vecs = op.eigenpairs(window=(0.5, 1.5))\n"
            "grown = peak_rss() - before\n"
            "print(op.dim, vals.size, op.matrix.ndim == 3, grown)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        dim, k, split, grown = proc.stdout.split()
        dim, k, grown = int(dim), int(k), int(grown)
        assert dim == 2076 and split == "True"
        # the real matrix, the window's eigenvectors and 4 MB
        assert grown < 8 * dim * (dim + k) + 4e6

    @pytest.mark.parametrize("v", [
        model_potential("reference"),
        model_potential("avoided_crossing", gap=0.2),
        model_potential("diagonal_bumps", depths=[-1.0], centers=[0.0], widths=[1.0]),
    ], ids=lambda v: f"{v.name}-N{v.N}")
    def test_coupled_and_scalar_not_split(self, v, monkeypatch):
        op = build_schrodinger(v, small_grid(h=1 / 16, tau_max=2.0))
        calls = counted(monkeypatch)
        op.eigenvalues()
        op.eigenpairs()
        assert calls == [((op.dim, op.dim), "values"), ((op.dim, op.dim), WHOLE)]


class TestEigenvectorColumns:
    COUPLED = np.array([[0.3, 0.2], [0.2, 0.9]])

    @pytest.mark.parametrize("v", [
        model_potential("constant", v_inf=0.0, N=1),
        MatrixPotential(n=1, N=2, eval=lambda x: TestEigenvectorColumns.COUPLED, grad=None,
                        v_infinity=np.diag([0.3, 0.9]), name="coupled"),
    ], ids=lambda v: v.name)
    def test_columns_of_the_analytic_pairs(self, v, rng):
        g = small_grid(h=0.25)
        op = build_schrodinger(v, g)
        dim = op.dim
        vals = op.eigenvalues()
        cuts = np.sort(rng.choice(vals, size=2, replace=False))
        windows = [(vals[0] - 1.0, vals[-1]), (vals[0] - 1.0, vals[0]), (vals[2], vals[5]),
                   (vals[-2], vals[-1]), tuple(cuts), (vals[-1], vals[-1] + 1.0)]
        alone = [op.eigenpairs(window=window) for window in windows]
        vecs = op.eigenpairs()[1]
        for (lo, hi), (got_vals, got) in zip(windows, alone):
            cols = np.flatnonzero((vals > lo) & (vals <= hi))
            assert np.array_equal(got_vals, vals[cols])
            assert np.array_equal(got, vecs[:, cols])
        assert alone[0][1].shape == (dim, dim) and alone[-1][1].shape == (dim, 0)

    def test_trace_forms_only_the_read_columns(self, monkeypatch):
        g = small_grid(h=1 / 32, tau_max=2.0)
        v = model_potential("constant", v_inf=0.0, N=1)
        a = weyl_quantize(CHI, g)
        f = bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_positive", eps=0.5)
        taus = np.array([0.9, 1.0])
        # the value through the full eigenvector matrix
        lam, vecs = build_schrodinger(v, g).eigenpairs()
        fv = f(lam)
        cols = np.flatnonzero(fv)
        assert 0 < cols.size < lam.size
        sub = vecs[:, cols]
        weights = np.zeros(lam.size, dtype=complex)
        weights[cols] = fv[cols] * np.einsum("ij,ij->j", sub.conj(), a.matrix @ sub)
        expect = fourier_window(w, g.h, taus[:, None] - lam[None, :]) @ weights

        formed = []
        plane_waves = GridOperator._plane_waves

        def spy(self, flat):
            formed.append(flat.size)
            return plane_waves(self, flat)

        monkeypatch.setattr(GridOperator, "_plane_waves", spy)
        op = build_schrodinger(v, g)
        got = smoothed_trace(a, op, f, w, taus)
        assert op._matrix is None
        # the plane waves of supp f only, which hold every f != 0 column
        assert formed == [np.count_nonzero((lam > 0.5) & (lam <= 1.5))]
        assert cols.size <= formed[0] < lam.size
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


class TestMemoryAdmission:
    """Each allocation admits its own bytes against the host's memory where
    it is made; the host's figure is patched, nothing large is allocated."""

    @pytest.fixture
    def no_assembly(self, monkeypatch):
        def refused(grid, samples, split=False):
            raise AssertionError("assembled past a refused admission")

        monkeypatch.setattr(qz, "_assemble_schrodinger", refused)

    @pytest.mark.parametrize("v", [
        model_potential("reference"),
        model_potential("diagonal_bumps", depths=[-1.0], centers=[0.0], widths=[1.0]),
        model_potential("conical_crossing"),
    ], ids=lambda v: v.name)
    def test_refused_with_figures(self, monkeypatch, no_assembly, v):
        # the assembly admits the matrix's own bytes: (N M)^2 items, or the
        # N M^2 of the channel blocks of conical_crossing, which is split
        g = small_grid(h=1 / 16, tau_max=2.0)
        need = 8 * g.M ** 2 * {"reference": 4, "diagonal_bumps": 1, "conical_crossing": 2}[v.name]
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

        def stub(grid, samples, split=False):
            raise Reached(grid.M * samples.shape[1])

        monkeypatch.setattr(qz, "_assemble_schrodinger", stub)
        monkeypatch.setattr(qz, "physical_memory", lambda: 8 * 10**9)
        with pytest.raises(Reached) as reached:
            build_schrodinger(model_potential("reference"), Grid1D(R=12.0, M=8192, h=1 / 512))
        assert reached.value.args == (16384,)

    @pytest.mark.parametrize("v", [model_potential("reference"),
                                   model_potential("conical_crossing")],
                             ids=["dense", "split"])
    def test_pairs_admit_three_matrices(self, monkeypatch, v):
        # a host between one and three matrices: the spectrum is solved, the
        # pairs are refused before anything is allocated, and the matrix
        # stays for the next request.  A split operator holds a stack of its
        # N = 2 channel blocks and admits four: the blocks, the per-channel
        # vectors and the merged array of twice their size
        op = build_schrodinger(v, small_grid(h=1 / 16, tau_max=2.0))
        size = op.matrix.nbytes
        admitted = 4 if op.matrix.ndim == 3 else 3
        monkeypatch.setattr(qz, "physical_memory", lambda: 2 * size)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryBudgetError) as err:
                op.eigenpairs(window=(0.5, 1.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.required == admitted * size and peak < 0.1 * size
        assert op._matrix is not None
        assert op.eigenvalues().size == op.dim

    def test_pairs_of_a_passed_array_admit_its_copy(self, monkeypatch, rng):
        g = small_grid(h=0.5, M=64)
        a = random_matrix(rng, g.M, "complex")
        op = GridOperator(grid=g, N=1, matrix=a)
        monkeypatch.setattr(qz, "physical_memory", lambda: 4 * a.nbytes - 1)
        with pytest.raises(MemoryBudgetError) as err:
            op.eigenpairs()
        assert err.value.required == 4 * a.nbytes

    # (potential, request, admitted arrays of what the operator holds), in a
    # fresh process that has made the same request on a small grid first, so
    # that the library code and BLAS buffers a first solve faults in (2-3 MB)
    # are resident before the peak is read.  With the upper triangle held
    # alone, the growth read 0.64-0.77 matrices for the spectrum and
    # 2.64-2.76 for the dense pairs.  The split pairs read 1.77-1.81
    # matrices with the channel gather, and 3.54-3.60 stacks of the channel
    # blocks (1.77-1.80 matrices) with the blocks alone: the merged (dim,
    # dim) array and the per-channel vectors set that peak, and the bound
    # is the four stacks admitted
    @pytest.mark.parametrize("h", [1 / 64, 1 / 128], ids=["dim1844", "dim3688"])
    @pytest.mark.parametrize("name,request_,admitted", [
        ("reference", "eigenvalues", 1),
        ("reference", "eigenpairs", 3),
        ("conical_crossing", "eigenpairs", 4),
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
            "size = op.matrix.nbytes\n"
            f"op.{request_}()\n"
            "print(op.dim, size, peak_rss() - before)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        dim, size, grown = map(int, proc.stdout.split())
        assert dim == {1 / 64: 1844, 1 / 128: 3688}[h]
        assert size == 8 * dim * dim // {"reference": 1, "conical_crossing": 2}[name]
        assert grown <= admitted * size + 4e6

    def test_analytic_operator_checked_where_it_allocates(self, monkeypatch):
        # a values-only read and a few columns fit; the matrix (8 M^2 bytes)
        # and all plane-wave vectors (16 M^2 bytes, a block of phases and as
        # much again for numpy's buffers) do not
        g = small_grid(h=1 / 64, tau_max=2.0)
        monkeypatch.setattr(qz, "physical_memory", lambda: 8 * g.M * g.M - 1)
        op = build_schrodinger(model_potential("constant", v_inf=0.0, N=1), g)
        assert op.eigenvalues().size == g.M
        vals = op.eigenvalues()
        assert op.eigenpairs(window=(0.0, vals[1]))[1].shape == (g.M, 2)
        with pytest.raises(MemoryBudgetError) as err:
            op.matrix
        assert err.value.required == 8 * g.M * g.M
        with pytest.raises(MemoryBudgetError) as err:
            op.eigenpairs()
        assert err.value.required == 16 * g.M * g.M + 32 * qz._ROW_BLOCK
        assert op._matrix is None and op._vectors is None

    def test_cutoff_admitted_before_assembly(self, monkeypatch):
        # weyl_quantize checks the margins alone; the first read of .matrix
        # admits the real matrix before anything is assembled
        g = small_grid(h=1 / 16, tau_max=2.0)
        ran = []
        monkeypatch.setattr(qz, "_product_matrix", lambda *args: ran.append(args))
        monkeypatch.setattr(qz, "physical_memory", lambda: 8 * g.M * g.M - 1)
        a = weyl_quantize(CHI, g)
        with pytest.raises(MemoryBudgetError) as err:
            a.matrix
        assert err.value.required == 8 * g.M * g.M
        assert ran == [] and a._matrix is None

    def test_complex_cutoff_admitted_before_its_second_pass(self, monkeypatch):
        # k not even: the real first pass fits, the complex matrix does not
        g = small_grid(h=1 / 16, tau_max=2.0)
        chi = ProductCutoff(g=Bump1D(0, 2.0), k=Bump1D(0.3, 1.0))
        monkeypatch.setattr(qz, "physical_memory", lambda: 16 * g.M * g.M - 1)
        with pytest.raises(MemoryBudgetError) as err:
            weyl_quantize(chi, g).matrix
        assert err.value.required == 16 * g.M * g.M
        monkeypatch.setattr(qz, "physical_memory", lambda: 16 * g.M * g.M)
        assert weyl_quantize(chi, g).matrix.dtype == complex

    def test_plane_wave_admission_bounds_the_read(self, monkeypatch):
        # thm1's h = 1/128: 370 columns of the window of its f, whose bytes
        # are admitted once before they are formed
        g = qz.grid_for(1 / 128, 6.0, 2.56, 8192)
        op = build_schrodinger(model_potential("constant", v_inf=0.0, N=1), g)
        op.eigenvalues()
        admitted = []
        admit = qz._admit

        def spy(required, label, what):
            admitted.append(required)
            admit(required, label, what)

        monkeypatch.setattr(qz, "_admit", spy)
        tracemalloc.start()
        try:
            vals, vecs = op.eigenpairs(window=(0.3, 1.7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vecs.shape == (g.M, 370)
        assert admitted == [16 * 370 * g.M + 32 * qz._ROW_BLOCK]
        assert vecs.nbytes < peak <= admitted[0]


class TestGridOperatorChecks:
    # one tile covers the 32 x 32 matrix, or tiles of side 7, which 32 is not
    # a multiple of
    @pytest.fixture(params=[256, 7], ids=["one-block", "row-blocks"])
    def block(self, request, monkeypatch):
        monkeypatch.setattr(qz, "_CHECK_TILE", request.param)

    def hermitian(self, rng, g):
        a = rng.standard_normal((g.M, g.M))
        return a + a.T

    def test_wrong_shape_rejected(self, rng, block):
        g = small_grid(h=0.5, M=32)
        with pytest.raises(ValueError, match="shape"):
            GridOperator(grid=g, N=1, matrix=np.eye(g.M + 2))
        with pytest.raises(ValueError, match="shape"):
            GridOperator(grid=g, N=2, matrix=self.hermitian(rng, g))

    @pytest.mark.parametrize("row", [0, 30])
    def test_hermiticity_defect_rejected(self, rng, block, row):
        g = small_grid(h=0.5, M=32)
        a = self.hermitian(rng, g)
        a[row, 5] += 1e-10 * np.max(np.abs(a))
        with pytest.raises(ValueError, match="hermiticity defect"):
            GridOperator(grid=g, N=1, matrix=a)
        b = self.hermitian(rng, g).astype(complex)
        b[row, row] += 1e-9j * np.max(np.abs(b))
        with pytest.raises(ValueError, match="hermiticity defect"):
            GridOperator(grid=g, N=1, matrix=b)

    def test_small_defect_symmetrized(self, rng, block):
        g = small_grid(h=0.5, M=32)
        a = self.hermitian(rng, g)
        a[30, 5] += 1e-13 * np.max(np.abs(a))
        op = GridOperator(grid=g, N=1, matrix=a)
        assert np.array_equal(op.matrix, 0.5 * (a + a.T))
        assert np.array_equal(op.matrix, op.matrix.T)

    def test_exact_hermitian_kept(self, rng, block):
        g = small_grid(h=0.5, M=32)
        a = self.hermitian(rng, g)
        assert GridOperator(grid=g, N=1, matrix=a).matrix is a

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0)],
                             ids=["nan", "inf", "-inf", "complex-nan"])
    @pytest.mark.parametrize("mirrored", [False, True], ids=["one-entry", "mirrored"])
    def test_non_finite_rejected(self, rng, block, bad, mirrored):
        g = small_grid(h=0.5, M=32)
        a = self.hermitian(rng, g).astype(type(bad))
        a[30, 5] = bad
        if mirrored:
            a[5, 30] = np.conj(bad)
        with pytest.raises(ValueError, match="non-finite"):
            GridOperator(grid=g, N=1, matrix=a)

    def test_largest_finite_accepted(self, rng, block):
        g = small_grid(h=0.5, M=32)
        a = self.hermitian(rng, g)
        a[7, 7] = np.finfo(float).max
        assert GridOperator(grid=g, N=1, matrix=a).matrix is a

    def test_stock_tiles(self, rng):
        # dim 300 is one full tile of 256 and a partial one of 44
        dim = 300
        assert dim % qz._CHECK_TILE != 0
        g = small_grid(h=0.5, M=dim)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = a + a.conj().T
        assert np.any(a.imag[np.triu_indices(dim, 1)] != 0)
        # an exactly hermitian complex matrix passes and is kept as it is
        assert GridOperator(grid=g, N=1, matrix=a).matrix is a
        # a defect only in the lower off-diagonal tile still raises
        bad = a.copy()
        bad[280, 10] += 1e-9 * np.max(np.abs(a))
        with pytest.raises(ValueError, match="hermiticity defect"):
            GridOperator(grid=g, N=1, matrix=bad)
        # below the threshold it is averaged away
        near = a.copy()
        near[280, 10] += 1e-13j * np.max(np.abs(a))
        op = GridOperator(grid=g, N=1, matrix=near)
        assert np.array_equal(op.matrix, 0.5 * (near + near.conj().T))

    def test_matrix_or_assembler_required(self):
        g = small_grid(h=0.5, M=32)
        with pytest.raises(ValueError):
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
            for got, expect in zip(solve(view), solve(a.copy())):
                assert np.array_equal(got, expect) and got.flags.c_contiguous
            assert np.all(np.isnan(big[::2])) and np.all(np.isnan(big[:, :n]))
            assert np.all(np.isnan(big[:, 2 * n:]))

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
        g = small_grid(h=0.5, M=96)
        a = random_matrix(rng, g.M, kind)
        expect_vals, expect_vecs = np.linalg.eigh(a)
        lo, hi = self.gap_window(expect_vals, 20, 51)
        op = GridOperator(grid=g, N=1, matrix=a)
        vals, vecs = op.eigenpairs(window=(lo, hi))
        assert op._values is None
        assert vecs.shape == (g.M, 32) and vecs.dtype == a.dtype and vecs.flags.c_contiguous
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
        g = Grid1D(R=6.0, M=8, h=0.5)
        a = np.diag(np.arange(8.0))
        op = GridOperator(grid=g, N=1, matrix=a)
        for (lo, hi), expect in [((2.0, 5.0), [3.0, 4.0, 5.0]), ((2.5, 3.0), [3.0]),
                                 ((-1.0, 0.0), [0.0]), ((7.0, 9.0), [])]:
            vals, vecs = op.eigenpairs(window=(lo, hi))
            assert np.array_equal(vals, expect)
            assert np.array_equal(np.abs(vecs), np.eye(8)[:, np.asarray(expect, dtype=int)])

    @pytest.mark.parametrize("kind", ["dense", "split", "analytic"])
    def test_empty_and_whole_windows(self, rng, kind):
        g = small_grid(h=1 / 16, tau_max=2.0)
        a = random_matrix(rng, g.M, "complex")
        v = DIAGONAL_2 if kind == "split" else model_potential("constant", v_inf=[0.0, 0.3], N=2)

        def make():
            if kind == "dense":
                return GridOperator(grid=g, N=1, matrix=a)
            return build_schrodinger(v, g)

        dim = make().dim
        vals, vecs = make().eigenpairs(window=(1e6, 2e6))
        assert vals.shape == (0,) and vecs.shape == (dim, 0)
        full = full_matrix(make())
        expect_vals = np.linalg.eigvalsh(full)
        # the default window is the whole line
        for whole_vals, whole_vecs in (make().eigenpairs(window=WHOLE), make().eigenpairs()):
            assert whole_vecs.shape == (dim, dim)
            scale = np.max(np.abs(expect_vals))
            assert np.max(np.abs(whole_vals - expect_vals)) <= 1e-12 * scale
            resid = full @ whole_vecs - whole_vecs * whole_vals
            assert np.max(np.abs(resid)) <= 1e-11 * scale

    @pytest.mark.parametrize("v", [DIAGONAL_2, model_potential("conical_crossing")],
                             ids=lambda v: v.name)
    def test_split(self, monkeypatch, v):
        g = small_grid(h=1 / 16, tau_max=2.0)
        dense = GridOperator(grid=g, N=v.N, matrix=full_matrix(build_schrodinger(v, g)))
        expect_vals, expect_vecs = np.linalg.eigh(dense.matrix)
        lo, hi = self.gap_window(expect_vals, 10, 61)  # conical_crossing's pairs split here
        op = build_schrodinger(v, g)
        calls = counted(monkeypatch)
        vals, vecs = op.eigenpairs(window=(lo, hi))
        assert calls == [((g.M, g.M), (lo, hi))] * v.N
        assert op._matrix is None
        scale = np.max(np.abs(expect_vals))
        assert np.max(np.abs(vals - expect_vals[10:62])) <= 1e-12 * scale
        assert np.max(np.abs(dense.matrix @ vecs - vecs * vals)) <= 1e-11 * scale
        assert np.max(np.abs(projector(vecs) - projector(expect_vecs[:, 10:62]))) <= 1e-10
        # every column lives on one channel's rows
        support = np.any(vecs.reshape(g.M, v.N, -1) != 0, axis=0)
        assert np.array_equal(support.sum(axis=0), np.ones(vals.size))

    def test_analytic_forms_the_window_plane_waves(self, monkeypatch):
        g = small_grid(h=1 / 16, tau_max=2.0)
        op = build_schrodinger(model_potential("constant", v_inf=[0.0, 0.3], N=2), g)
        calls = counted(monkeypatch)
        vals, vecs = op.eigenpairs(window=(0.5, 1.5))
        raw, order = op._analytic_order()
        keep = (raw[order] > 0.5) & (raw[order] <= 1.5)
        assert calls == [] and op._matrix is None
        assert np.array_equal(vals, raw[order][keep])
        assert np.array_equal(vecs, op._plane_waves(order[keep]))


class TestMatrixOwnership:
    """A solve consumes the matrix of an operator that can assemble it again
    and never writes to a caller's array."""

    @pytest.mark.parametrize("solve", ["eigenvalues", "eigenpairs"])
    @pytest.mark.parametrize("v", [model_potential("reference"), DIAGONAL_2],
                             ids=lambda v: v.name)
    def test_built_operator_drops_and_reassembles(self, v, solve):
        g = small_grid(h=1 / 16, tau_max=2.0)
        op = build_schrodinger(v, g)
        assert op._matrix is not None
        getattr(op, solve)()
        assert op._matrix is None
        expect = qz._assemble_schrodinger(g, qz.potential_samples(v, g), split=op.matrix.ndim == 3)
        assert np.array_equal(op.matrix, expect)
        assert op.matrix is op.matrix

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_passed_array_unchanged(self, rng, kind):
        g = small_grid(h=0.5, M=64)
        a = random_matrix(rng, g.M, kind)
        before = a.copy()
        op = GridOperator(grid=g, N=1, matrix=a)
        values = op.eigenvalues()
        assert np.array_equal(a, before) and op.matrix is a
        vals, vecs = op.eigenpairs()
        assert np.array_equal(a, before) and op.matrix is a
        assert np.array_equal(values, np.linalg.eigvalsh(before))
        scale = np.max(np.abs(values))
        assert np.max(np.abs(vals - values)) <= 1e-12 * scale
        assert np.max(np.abs(before @ vecs - vecs * vals)) <= 1e-12 * scale

    def test_split_releases_before_solving(self, monkeypatch):
        op = build_schrodinger(DIAGONAL_2, small_grid(h=1 / 16, tau_max=2.0))
        held = []
        solve = qz._evr

        def spy(a, lo, hi):
            held.append(op._matrix is not None)
            return solve(a, lo, hi)

        monkeypatch.setattr(qz, "_evr", spy)
        op.eigenpairs()
        assert held == [False, False]


class TestWeylQuantize:
    def test_identity_exact(self):
        g = small_grid()
        assert np.array_equal(weyl_quantize(1.0, g).matrix, np.eye(g.M))

    def test_multiplication_exact(self):
        g = small_grid()
        fn = lambda x: np.cos(x) * np.exp(-np.asarray(x) ** 2)
        assert np.array_equal(weyl_quantize(fn, g).matrix, np.diag(fn(g.nodes)))

    def test_trace_rule(self):
        # momentum grid must resolve the xi-factor for spectral accuracy
        g = small_grid(h=1 / 64)
        a = weyl_quantize(CHI, g)
        tr = float(np.trace(a.matrix).real)
        target = CHI.integral(order=400) / (2.0 * math.pi * g.h)
        assert abs(tr - target) <= 1e-8 * abs(target)

    def test_product_vs_general_path(self):
        g = small_grid(h=0.25)
        a1 = weyl_quantize(CHI, g)
        a2 = weyl_quantize(lambda x, xi: CHI.g(x) * CHI.k(xi), g)
        assert np.max(np.abs(a1.matrix - a2.matrix)) < 1e-14

    def test_hermitization_drift_small(self):
        g = small_grid(h=0.25)
        kappa = np.fft.ifft(CHI.k(g.momenta_fft_order))
        delta, mid_idx, ambiguous = qz._index_tables(g)
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
        g = Grid1D(R=R, M=required_points(R, h, tau_max), h=h)
        chi = ProductCutoff(g=Bump1D(0, 2.0), k=k)
        kappa = np.fft.ifft(chi.k(g.momenta_fft_order))
        delta, mid_idx, ambiguous = qz._index_tables(g)
        assert np.any(ambiguous)
        raw = midpoint_values(chi.g(g.half_nodes), mid_idx, ambiguous, g.M) * kappa[delta % g.M]
        full = 0.5 * (raw + raw.conj().T)
        if np.max(np.abs(full.imag)) <= 1e-14 * max(1.0, np.max(np.abs(full.real))):
            full = full.real.copy()
        got = weyl_quantize(chi, g).matrix
        assert got.dtype == full.dtype and np.array_equal(got, full)

    def test_support_margin_rejection(self):
        g = small_grid()
        wide = ProductCutoff(g=Bump1D(0, 5.5), k=Bump1D(0, 1.0))
        with pytest.raises(SupportMarginError):
            weyl_quantize(wide, g)
        fast = ProductCutoff(g=Bump1D(0, 1.0), k=Bump1D(0, 50.0))
        with pytest.raises(SupportMarginError):
            weyl_quantize(fast, g)

    def test_general_memory_cap(self):
        g = Grid1D(R=6.0, M=4096, h=1 / 64)
        with pytest.raises(MemoryError):
            weyl_quantize(lambda x, xi: CHI.g(x) * CHI.k(xi), g)


class TestWindows:
    def test_theta_invariants(self):
        w0 = WindowTheta("bump_at_zero", eps=0.3)
        ts = np.linspace(-2, 2, 2001)
        vals = w0.theta(ts)
        assert np.all(vals[np.abs(ts) >= 0.3] == 0.0)
        assert np.all(vals[np.abs(ts) <= 0.3 / 4] == 1.0)
        wp = WindowTheta("bump_positive", eps=0.3)
        vp = wp.theta(ts)
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
        got = smoothed_trace(None, op, f, w, 1.0)
        p2 = g.momenta**2
        expect = 2.0 * np.sum(f(p2) * fourier_window(w, g.h, 1.0 - p2))
        assert complex(got).real == pytest.approx(expect, rel=1e-12)
        assert abs(complex(got).imag) < 1e-10

    def test_zero_cutoff(self):
        g = small_grid(h=0.25)
        op = build_schrodinger(model_potential("constant", v_inf=0.0, N=1), g)
        zero = weyl_quantize(0.0, g)
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
        from ssf_lab.quantization import GridOperator

        combined = GridOperator(grid=g, N=1,
                                matrix=alpha * a1.matrix + beta * a2.matrix)
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
        # a Schrodinger operator holds half its matrix, which cannot act on
        # the eigenvectors; it is refused before H is solved, and the same
        # matrix made whole is a cutoff like any other
        g = small_grid(h=1 / 16, tau_max=2.0)
        a = build_schrodinger(model_potential("diagonal_bumps", depths=[-1.0], centers=[0.0],
                                              widths=[1.0]), g)
        h_op = build_schrodinger(model_potential("diagonal_bumps", depths=[0.5],
                                                 centers=[0.3], widths=[0.8]), g)
        f = bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_at_zero", eps=0.25)
        calls = counted(monkeypatch)
        with pytest.raises(ValueError, match="upper triangle"):
            smoothed_trace(a, h_op, f, w, 1.0)
        assert calls == []
        whole = GridOperator(grid=g, N=1, matrix=full_matrix(a))
        assert np.isfinite(complex(smoothed_trace(whole, h_op, f, w, 1.0)))

    def test_one_solve_with_cutoff(self, monkeypatch):
        g = small_grid(h=0.25)
        v = model_potential("reference")
        a = weyl_quantize(CHI, g)
        f = bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_at_zero", eps=0.25)
        taus = [0.9, 1.0]
        lam, vecs = np.linalg.eigh(full_matrix(build_schrodinger(v, g)))
        uv = vecs.reshape(g.M, 2, -1)
        diag = np.einsum("mnk,mnk->k", uv.conj(), np.tensordot(a.matrix, uv, axes=([1], [0])))
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
        # sums run over many blocks.
        g = small_grid(h=1 / 16, tau_max=2.0)
        monkeypatch.setattr(qz, "_WEYL_BLOCK", 3 * g.M)
        op = build_schrodinger(model_potential(kind, **params), g)
        a = weyl_quantize(CHI, g)
        lam, vecs = op.eigenpairs()
        if kind == "analytic_complex":
            assert op._analytic is not None and np.iscomplexobj(vecs)
        if op.N == 1:
            full = np.einsum("ij,ij->j", vecs.conj(), a.matrix @ vecs)
        else:
            uv = vecs.reshape(g.M, op.N, -1)
            full = np.einsum("mnk,mnk->k", uv.conj(), np.tensordot(a.matrix, uv, axes=([1], [0])))
        a = weyl_quantize(CHI, g)
        cols = np.flatnonzero(bump_test_function((0.5, 1.5))(lam))
        assert 0 < cols.size < lam.size
        spread = np.arange(3, lam.size, 2)
        for sub in (np.arange(lam.size), cols, cols[:1], cols[:2], cols[1::3], spread):
            got = qz._cutoff_diagonal(a, vecs, sub)
            assert np.max(np.abs(got - full[sub])) <= 1e-14 * np.max(np.abs(full))
        assert a._matrix is None

    @pytest.mark.parametrize("v", [
        model_potential("diagonal_bumps", depths=[-1.0], centers=[0.0], widths=[1.0]),
        model_potential("conical_crossing"),
    ], ids=["dense", "split"])
    def test_trace_never_assembles_the_cutoff(self, monkeypatch, v):
        # a product cutoff's rows are made a block at a time and never put
        # together: the trace is the bits of the one with the cutoff's
        # matrix held, which is read in slices of the same rows
        g = small_grid(h=1 / 16, tau_max=2.0)
        f = bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_at_zero", eps=0.25)
        expect = smoothed_trace(GridOperator(grid=g, N=1, matrix=weyl_quantize(CHI, g).matrix),
                                build_schrodinger(v, g), f, w, 1.0)
        a = weyl_quantize(CHI, g)
        h_op = build_schrodinger(v, g)
        assert (h_op.matrix.ndim == 3) == (v.N > 1)
        assembled = []
        product = qz._product_matrix

        def spy(rows):
            assembled.append(rows)
            return product(rows)

        monkeypatch.setattr(qz, "_product_matrix", spy)
        assert smoothed_trace(a, h_op, f, w, 1.0) == expect
        assert smoothed_trace(a, build_schrodinger(v, g), f, w, 1.0) == expect
        assert assembled == [] and a._matrix is None
        a.matrix
        assert assembled == [a._rows]

    # (H, supp f, window, bound): one step of the thm2, thm1 and thm3
    # set-ups at h = 1/64, 1/128 and 1/96, from H's construction to the
    # trace.  A fresh process makes the same step at h = 1/16 first, so that
    # the library code a first step faults in is resident, gives its freed
    # heap back to the system and forks; the child makes the step, and its
    # growth is its own peak above its resident set at the fork, which heap
    # left free by the set-up cannot absorb.  The growth in units of H's
    # dim x dim float64 matrix read 1.48-1.64, 1.04-1.06 and 0.78-0.84 with
    # A's rows read a block at a time and the split operator's channel blocks
    # alone, and 2.62-2.77, 1.90-2.04 and 1.10-1.19 with A's dense matrix
    # assembled beside H; each bound is midway, and the step with A's dense
    # matrix is run too, as the control that must exceed it
    @pytest.mark.parametrize("box,h,v,support,w,bound", [
        ("12.0, 1.69", 1 / 64,
         "model_potential('diagonal_bumps', depths=[0.5], centers=[7.0], widths=[0.4])",
         (0.8, 1.2), "WindowTheta('bump_at_zero', eps=0.3)", 2.1),
        ("6.0, 2.56", 1 / 128, "model_potential('constant', v_inf=0.0, N=1)",
         (0.3, 1.7), "WindowTheta('bump_positive', eps=1.0)", 1.5),
        ("6.0, 2.0", 1 / 96, "model_potential('conical_crossing')",
         (0.5, 1.5), "WindowTheta('bump_at_zero', eps=0.25)", 0.97),
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
                "from ssf_lab.quantization import (WindowTheta, _return_free_heap,\n"
                "                                  build_schrodinger, grid_for,\n"
                "                                  smoothed_trace, weyl_quantize)\n"
                "from ssf_lab.symbols import model_potential\n"
                "chi = ProductCutoff(g=Bump1D(0.0, 2.0), k=Bump1D(0.0, 2.0))\n"
                f"f, w = bump_test_function({support!r}), {w}\n"
                "def step(grid):\n"
                f"    h = build_schrodinger({v}, grid)\n"
                "    a = weyl_quantize(chi, grid)\n"
                f"    if {dense}:\n"
                "        a.matrix\n"
                "    smoothed_trace(a, h, f, w, np.linspace(0.9, 1.1, 9))\n"
                "    return h.dim\n"
                f"step(grid_for(1 / 16, {box}, 8192))\n"
                f"grid = grid_for({h!r}, {box}, 8192)\n"
                "_return_free_heap()\n"
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
            "print(h.dim, a.dim, peak_rss() - before)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        dim, a_dim, grown = map(int, proc.stdout.split())
        assert dim == a_dim == 1272
        # the matrix or the cutoff, each 12.9 MB, never both: the growth read
        # 1.54 matrices here and 1.79 with the cutoff assembled before H
        assert grown < 1.7 * 8 * dim * dim

    def test_scalar_f_is_constant_function(self):
        # a scalar f weighs every eigenvalue alike, with and without a cutoff
        g = small_grid(h=0.25)
        op = build_schrodinger(model_potential("reference"), g)
        w = WindowTheta("bump_at_zero", eps=0.25)
        for a in (None, weyl_quantize(CHI, g)):
            for c in (0.7, 0.0):
                got = smoothed_trace(a, op, c, w, [0.9, 1.0])
                assert np.array_equal(got, smoothed_trace(a, op, lambda t: np.full_like(t, c),
                                                          w, [0.9, 1.0]))

    def test_tau_vectorized(self):
        g = small_grid(h=0.25)
        op = build_schrodinger(model_potential("constant", v_inf=0.0, N=1), g)
        f = bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_at_zero", eps=0.25)
        taus = np.array([0.9, 1.0, 1.1])
        batch = smoothed_trace(None, op, f, w, taus)
        singles = [smoothed_trace(None, op, f, w, float(t)) for t in taus]
        assert np.allclose(batch, singles, atol=0)


class TestRowBlockDiagonal:
    """<u_j, A u_j> formed from A's rows a block at a time equals the
    diagonal of U^H A U with the dense matrix, to 1e-13 of its largest
    entry, for a product cutoff's rows and for held matrices read in
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
        # are made in that dtype from the first block on
        g = small_grid(h=1 / 16, tau_max=2.0)
        monkeypatch.setattr(qz, "_WEYL_BLOCK", 7 * g.M)
        chi = ProductCutoff(g=Bump1D(0, 2.0), k=k)
        dense = weyl_quantize(chi, g).matrix
        assert dense.dtype == (float if k.center == 0 else complex)
        lam, vecs = build_schrodinger(v, g).eigenpairs()
        expect = self.dense_diagonal(dense, vecs, v.N)
        a = weyl_quantize(chi, g)
        first = next(a._row_blocks())[1]
        assert first.shape == (7, g.M) and first.dtype == dense.dtype
        if held:
            a.matrix
        for cols in self.subsets(lam.size):
            got = qz._cutoff_diagonal(a, vecs, cols)
            assert np.max(np.abs(got - expect[cols])) <= 1e-13 * np.max(np.abs(expect))
        assert (a._matrix is not None) == held

    @pytest.mark.parametrize("symbol", [0.7, lambda x: np.cos(x) * np.exp(-x * x)],
                             ids=["number", "multiplication"])
    @pytest.mark.parametrize("v", [
        model_potential("diagonal_bumps", depths=[-1.0], centers=[0.0], widths=[1.0]),
        model_potential("constant", v_inf=[0.0, 0.3], N=2),
    ], ids=["N1", "N2-complex"])
    def test_held_matrix_read_in_slices(self, monkeypatch, v, symbol):
        g = small_grid(h=1 / 16, tau_max=2.0)
        monkeypatch.setattr(qz, "_WEYL_BLOCK", 7 * g.M)
        a = weyl_quantize(symbol, g)
        assert all(rows.base is a.matrix for _, rows in a._row_blocks())
        lam, vecs = build_schrodinger(v, g).eigenpairs()
        expect = self.dense_diagonal(a.matrix, vecs, v.N)
        for cols in self.subsets(lam.size):
            got = qz._cutoff_diagonal(a, vecs, cols)
            assert np.max(np.abs(got - expect[cols])) <= 1e-13 * np.max(np.abs(expect))


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
            theorem3_check(v, CHI, f, 1.0, grids([1 / 4, 1 / 8], 6.0, 2.0), w)

    def test_theorem3_barrier_top_rejected(self, monkeypatch):
        # the island's barrier top 3/e is a critical value of xi^2 + V inside
        # supp chi: the localized density diverges there, and the check stops
        # before it builds an operator
        def refuse(*args, **kwargs):
            raise AssertionError("built an operator")

        for name in ("build_schrodinger", "weyl_quantize"):
            monkeypatch.setattr(qz, name, refuse)
        f = bump_test_function((0.8, 1.4))
        with pytest.raises(CertificateError, match="did not converge"):
            theorem3_check(model_potential("island"), CHI, f, 1.1036383235143269,
                           grids([1 / 8, 1 / 16, 1 / 32], 6.0, 2.0),
                           WindowTheta("bump_at_zero", eps=0.25))

    @pytest.mark.parametrize("variant", ["thm1", "thm2", "thm3"])
    def test_support_above_the_window_rejected(self, variant, monkeypatch):
        # supp f reaches 1.8, above the grids' tau_max 1.69: no operator (nor
        # thm3's localized density) is built for eigenpairs the grids do not
        # resolve
        from ssf_lab import coefficients

        def refuse(*args, **kwargs):
            raise AssertionError("built past the window check")

        for module, name in ((qz, "build_schrodinger"), (qz, "weyl_quantize"),
                             (coefficients, "gamma0_localized")):
            monkeypatch.setattr(module, name, refuse)
        v = model_potential("constant", v_inf=0.0, N=1)
        f = bump_test_function((0.8, 1.8))
        gs = grids([1 / 8, 1 / 16, 1 / 32], 6.0, 1.69)
        even = WindowTheta("bump_at_zero", eps=0.25)
        checks = {
            "thm1": lambda: theorem1_check(v, CHI, f, 1.0, gs,
                                           WindowTheta("bump_positive", eps=0.3)),
            "thm2": lambda: theorem2_check(v, v, CHI, f, [1.0], gs, even),
            "thm3": lambda: theorem3_check(v, CHI, f, 1.0, gs, even),
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
            assert all(math.isnan(r["fitted_slope"]) for r in rep.rows())
        else:
            assert rep.slope == pytest.approx(slope, abs=1e-6)
        assert [r["value"] for r in rep.rows()] == list(values)

    def test_decay_rows_are_the_values(self):
        rep = sweep_verdict(HS, [h**4 for h in HS], 3.0)
        rows = list(rep.rows())
        assert [tuple(r) for r in rows] == [qz.SweepReport.COLUMNS] * 3
        assert all(r["reference"] == 0.0 and r["rel_error"] == r["value"] for r in rows)

    def test_two_point_sweep(self):
        with pytest.raises(ConfigError):
            sweep_verdict(HS[:2], [1.1, 1.01], **COMPARE)
        with pytest.raises(ConfigError):
            sweep_verdict(HS[:2], [1e-3, 1e-5], **DECAY)
        assert sweep_verdict(HS[:2], [0.0, 0.0], **DECAY).verdict == "PASS"
