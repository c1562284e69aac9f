import math
import subprocess
import sys
import weakref
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import PEAK_RSS_SOURCE, full_matrix
from mh_constructions import ssf_counting
from ssf_lab.coefficients import a0, bump_test_function, c0, plateau_test_function
from ssf_lab.quantization import (
    ConfigError,
    Grid1D,
    WindowTheta,
    build_schrodinger,
)
from ssf_lab import quantization as qz
from ssf_lab import ssf as ssf_mod
from ssf_lab.ssf import (
    MarginError,
    SpectralPair,
    WindowRangeError,
    build_pair,
    mollified_density_pairing,
    ssf_mollified,
    derivative_check,
    weak_check,
    weak_pairing,
    weyl_check,
)
from ssf_lab.symbols import model_potential


@dataclass(frozen=True)
class SSFEstimate:
    """tau-indexed shift estimates with the method and mollification used."""

    tau_grid: np.ndarray
    values: np.ndarray
    method: str
    h: float
    eps: float | None
    grid_R: float
    grid_M: int

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("tau,value,method,h,eps\n")
            for t, v in zip(self.tau_grid, self.values):
                fh.write(f"{t!r},{v!r},{self.method},{self.h!r},{self.eps!r}\n")


def ssf_estimate(pair: SpectralPair, taus, method: str = "mollified_counting",
                 w: WindowTheta | None = None) -> SSFEstimate:
    taus = np.asarray(taus, dtype=float)
    if method == "counting":
        vals = ssf_counting(pair, taus).astype(float)
        used_eps = None
    elif method == "mollified_counting":
        w = w or WindowTheta()
        vals = np.asarray(ssf_mollified(pair, w, taus), dtype=float)
        used_eps = w.eps
    else:
        raise ValueError(f"unknown method {method!r}")
    return SSFEstimate(tau_grid=taus, values=vals, method=method, h=pair.h,
                       eps=used_eps, grid_R=pair.grid.R, grid_M=pair.grid.M)


def sturm_count(v_diag, h: float, tau: float, R: float = 12.0, nodes: int = 40000) -> int:
    """Independent eigenvalue count below tau for -h^2 u'' + v(x) u on [-R, R]
    with Dirichlet ends: Sturm sign-change count of the finite-difference
    tridiagonal via its LDL pivots."""
    xs = np.linspace(-R, R, nodes + 2)[1:-1]
    dx = xs[1] - xs[0]
    diag = 2.0 * h * h / dx**2 + v_diag(xs) - tau
    off = -h * h / dx**2
    count = 0
    d = diag[0]
    if d < 0:
        count += 1
    for i in range(1, len(diag)):
        if d == 0.0:
            d = 1e-300  # tau collided with a Ritz value; nudge the pivot
        d = diag[i] - off * off / d
        if d < 0:
            count += 1
    return count


def gauss_well(depth=-1.0):
    return model_potential("diagonal_bumps", depths=[depth], centers=[0.0], widths=[1.0])


def make_grid(h=1 / 16, R=12.0, tau_max=2.0):
    return Grid1D(R=R, h=h, tau_max=tau_max)


def make_pair(v, h=1 / 16, R=12.0, tau_max=2.0):
    return build_pair(v, make_grid(h, R, tau_max))


def free_potential(v):
    return model_potential("constant", v_inf=np.diag(v.v_infinity).real, N=v.N)


@pytest.fixture
def built(monkeypatch):
    """The operators ``build_pair`` builds, in order (P1, then P0)."""
    ops = []

    def spy(v, grid):
        ops.append(build_schrodinger(v, grid))
        return ops[-1]

    monkeypatch.setattr(ssf_mod, "build_schrodinger", spy)
    return ops


class TestBuildPair:
    def test_degenerate_shares_operator(self):
        v = model_potential("constant", v_inf=[0.4, 1.0], N=2)
        pair = make_pair(v)
        assert pair.lam0 is pair.lam1

    @pytest.mark.parametrize("v", [
        model_potential("diagonal_bumps", depths=[-1.0, 0.6], centers=[0.0, 0.5],
                        widths=[1.0, 0.7], v_inf=[0.0, 0.3]),
        model_potential("conical_crossing"),
    ], ids=lambda v: v.name)
    def test_split_potential(self, v):
        # no off-diagonal samples: P1 is solved one channel block at a time
        grid = make_grid(h=1 / 8)
        op = build_schrodinger(v, grid)
        assert isinstance(op, qz.SplitOperator)
        pair = build_pair(v, grid)
        assert pair.lam0 is not pair.lam1
        np.testing.assert_allclose(pair.lam1, np.linalg.eigvalsh(full_matrix(op)),
                                   rtol=0, atol=1e-12)

    def test_difference_supported_on_potential(self):
        v = model_potential("reference")
        grid = make_grid()
        diff = (full_matrix(build_schrodinger(v, grid))
                - full_matrix(build_schrodinger(free_potential(v), grid)))
        # the kinetic parts cancel: what is left is the block potential
        nodes = grid.nodes
        for j in (0, len(nodes) // 2, len(nodes) - 1):
            sl = slice(j * 2, (j + 1) * 2)
            assert np.allclose(diff[sl, sl], v.on([nodes[j]])[0] - v.v_infinity, atol=1e-12)
        off = diff.copy()
        for j in range(len(nodes)):
            off[j * 2:(j + 1) * 2, j * 2:(j + 1) * 2] = 0.0
        assert np.max(np.abs(off)) < 1e-12

    def test_trace_of_difference(self):
        v = model_potential("reference")
        grid = make_grid()
        p1 = build_schrodinger(v, grid)
        p0 = build_schrodinger(free_potential(v), grid)
        lhs = float(np.trace(full_matrix(p1) - full_matrix(p0)).real)
        rhs = float(sum(np.trace(v.on([x])[0] - v.v_infinity).real for x in grid.nodes))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("v", [gauss_well(), model_potential("reference")],
                             ids=lambda v: v.name)
    def test_free_operator_assembled_only_on_demand(self, v, kron_reference, built):
        pair = make_pair(v)
        f = bump_test_function((0.8, 1.2))
        w = WindowTheta("bump_at_zero", eps=0.25)
        weak_pairing(pair, f)
        ssf_mollified(pair, w, [0.9, 1.0, 1.1])
        mollified_density_pairing(pair, f, w, 1.0)
        assert pair.lam0 is not pair.lam1
        _, p0 = built
        assert p0._matrix is None
        assert np.array_equal(full_matrix(p0), kron_reference(free_potential(v), pair.grid))
        assert p0.matrix is p0.matrix

    def test_degeneracy_decided_from_samples(self, built):
        # a perturbation far below the rounding of the kinetic diagonal
        # still makes P1 differ from P0
        v = gauss_well(depth=1e-300)
        pair = make_pair(v)
        assert pair.lam0 is not pair.lam1
        _, p0 = built
        assert p0._matrix is None

    def test_no_operator_outlives_the_call(self, monkeypatch):
        refs = []

        def spy(v, grid):
            op = build_schrodinger(v, grid)
            refs.append(weakref.ref(op))
            return op

        monkeypatch.setattr(ssf_mod, "build_schrodinger", spy)
        pair = make_pair(model_potential("reference"))
        assert len(refs) == 2 and refs[0]() is None and refs[1]() is None
        assert pair.lam1.shape == pair.lam0.shape == (2 * pair.grid.M,)

    def test_peak_memory_is_one_matrix(self):
        # a fresh process, so the peak RSS before the call is its import; the
        # values solve overwrites the matrix in place, where a copying solve
        # holds two matrices at its peak
        code = PEAK_RSS_SOURCE + (
            "from ssf_lab.quantization import grid_for\n"
            "from ssf_lab.ssf import build_pair\n"
            "from ssf_lab.symbols import model_potential\n"
            "grid = grid_for(1 / 36, 12.0, 3.24, 8192)\n"
            "v = model_potential('reference')\n"
            "before = peak_rss()\n"
            "build_pair(v, grid)\n"
            "print(2 * grid.M, peak_rss() - before)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        dim, grown = map(int, proc.stdout.split())
        assert dim == 1984
        assert grown < 1.5 * 8 * dim * dim

    def test_peak_memory_over_a_ladder(self):
        # three rounds of an h-ladder in a fresh process, as the three ssf
        # configs of a sweep make them: each matrix lives in a mapping of its
        # own, unmapped when it is freed, so the peak stays near the largest
        # matrix's upper triangle.  The growth read 1.03 matrices of 8 dim^2
        # bytes with both triangles held, and 0.68 with the upper one alone;
        # with page-aligned rows it read 0.61 while freed heap was given back
        # to the system before each assembly, and 0.63 now that it is not
        code = PEAK_RSS_SOURCE + (
            "from ssf_lab.quantization import grid_for\n"
            "from ssf_lab.ssf import build_pair\n"
            "from ssf_lab.symbols import model_potential\n"
            "v = model_potential('reference')\n"
            "before = peak_rss()\n"
            "for h in (1 / 14, 1 / 28, 1 / 56) * 3:\n"
            "    grid = grid_for(h, 12.0, 3.24, 8192)\n"
            "    build_pair(v, grid)\n"
            "print(2 * grid.M, peak_rss() - before)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        dim, grown = map(int, proc.stdout.split())
        assert dim == 3084
        assert grown < 0.855 * 8 * dim * dim

    def test_margin_rejection(self):
        wide = model_potential("diagonal_bumps", depths=[1.0], centers=[0.0], widths=[6.0])
        grid = Grid1D(R=8.0, h=1 / 8, tau_max=2.0)
        with pytest.raises(MarginError):
            build_pair(wide, grid)


class TestWeakPairing:
    def test_degenerate_zero(self):
        pair = make_pair(model_potential("constant", v_inf=0.0, N=1))
        f = bump_test_function((0.8, 1.2))
        assert weak_pairing(pair, f) == 0.0

    def test_window_violation(self):
        pair = make_pair(gauss_well(), tau_max=2.0)
        f = bump_test_function((1.8, 2.6))
        with pytest.raises(WindowRangeError):
            weak_pairing(pair, f)

    def test_first_order_perturbation_sign(self):
        # V = c * wide bump: pairing ~ -sum f'(lam0) <u, V u>
        c = 0.01
        v = model_potential("diagonal_bumps", depths=[c], centers=[0.0], widths=[3.0])
        pair = make_pair(v, h=1 / 16, R=16.0, tau_max=2.0)
        f = bump_test_function((0.8, 1.2))
        got = weak_pairing(pair, f)
        lam0 = pair.lam0
        d = 1e-6
        fp = (f(lam0 + d) - f(lam0 - d)) / (2 * d)
        vbar = float(np.mean(c * np.exp(-((pair.grid.nodes / 3.0) ** 2))))
        oracle = -float(np.sum(fp) * vbar)
        assert got == pytest.approx(oracle, rel=0.05)
        assert got * oracle > 0

    def test_abel_summation_identity(self):
        # integrating the counting staircase against f' telescopes back to
        # the weak pairing
        v = gauss_well()
        pair = make_pair(v, h=1 / 8)
        f = bump_test_function((0.4, 1.4))
        lam1 = pair.lam1
        lam0 = pair.lam0
        events = np.concatenate([lam1, lam0])
        signs = np.concatenate([np.ones_like(lam1), -np.ones_like(lam0)])
        order = np.argsort(events, kind="stable")
        events, signs = events[order], signs[order]
        # sum over jumps: s(tau) changes by sign at each event;
        # int f' s dtau = -sum_j sign_j f(event_j) after telescoping
        total = float(np.sum(signs * f(events)))
        assert weak_pairing(pair, f) == pytest.approx(-total, abs=1e-12)


class TestCounting:
    def test_degenerate_zero(self):
        pair = make_pair(model_potential("constant", v_inf=[0.5], N=1))
        assert ssf_counting(pair, 1.0) == 0
        assert ssf_counting(pair, -10.0) == 0

    def test_below_both_spectra(self):
        pair = make_pair(gauss_well())
        assert ssf_counting(pair, -5.0) == 0

    def test_bound_state_count_against_sturm_oracle(self):
        h = 0.05
        pair = make_pair(gauss_well(), h=h, tau_max=1.0)
        for tau in (-0.75, -0.5, -0.25, -0.1):
            mine = ssf_counting(pair, tau)
            oracle = sturm_count(lambda xs: -np.exp(-(xs**2)), h, tau)
            assert mine == oracle

    def test_shift_covariance(self):
        c = 0.7
        v = gauss_well()
        v_shift = model_potential("diagonal_bumps", depths=[-1.0], centers=[0.0],
                                  widths=[1.0], v_inf=[c])
        h = 1 / 8
        grid = Grid1D(R=12.0, h=h, tau_max=3.0)
        p1 = build_pair(v, grid)
        p2 = build_pair(v_shift, grid)
        for tau in (-0.6, 0.35, 1.1):
            assert ssf_counting(p1, tau) == ssf_counting(p2, tau + c)

    def test_vectorized_and_step_structure(self):
        pair = make_pair(gauss_well(), h=0.1)
        lam1 = pair.lam1
        taus = np.array([lam1[3] - 1e-9, lam1[3], lam1[3] + 1e-9])
        vals = ssf_counting(pair, taus)
        assert vals[2] >= vals[0]
        # constant between consecutive eigenvalues
        merged = np.sort(np.concatenate([lam1, pair.lam0]))
        mid1 = 0.5 * (merged[10] + merged[11])
        mid2 = 0.4 * merged[10] + 0.6 * merged[11]
        assert ssf_counting(pair, mid1) == ssf_counting(pair, mid2)


class TestMollified:
    def test_degenerate_zero(self):
        pair = make_pair(model_potential("constant", v_inf=0.0, N=2))
        w = WindowTheta("bump_at_zero", eps=0.25)
        assert ssf_mollified(pair, w, 1.0) == 0.0

    def test_vanishes_below_spectrum(self):
        pair = make_pair(gauss_well())
        w = WindowTheta("bump_at_zero", eps=0.25)
        lam_min = min(pair.lam1.min(), pair.lam0.min())
        far = lam_min - 2000.0 * pair.h / w.eps
        assert ssf_mollified(pair, w, far) == 0.0

    def test_close_to_counting(self):
        pair = make_pair(gauss_well(), h=1 / 16)
        w = WindowTheta("bump_at_zero", eps=0.25)
        lam = np.sort(np.concatenate([pair.lam1, pair.lam0]))
        for tau in (0.5, 1.0):
            smooth = ssf_mollified(pair, w, tau)
            stair = ssf_counting(pair, tau)
            width = 30.0 * pair.h / w.eps
            nearby = int(np.sum(np.abs(lam - tau) <= width))
            assert abs(smooth - stair) <= nearby + 0.1

    def test_requires_even_window(self):
        pair = make_pair(gauss_well())
        with pytest.raises(ValueError):
            ssf_mollified(pair, WindowTheta("bump_positive", eps=0.3), 1.0)

    def test_estimate_csv(self, tmp_path):
        pair = make_pair(gauss_well())
        est = ssf_estimate(pair, [0.5, 1.0], method="counting")
        assert est.values.dtype == float
        assert np.all(est.values == np.round(est.values))
        est2 = ssf_estimate(pair, [0.5, 1.0], method="mollified_counting",
                            w=WindowTheta("bump_at_zero", eps=0.25))
        path = tmp_path / "ssf.csv"
        est2.to_csv(path)
        header = path.read_text().split("\n")[0]
        assert header == "tau,value,method,h,eps"
        with pytest.raises(ValueError):
            ssf_estimate(pair, [1.0], method="unknown")


class TestDensityPairing:
    def test_degenerate_zero(self):
        pair = make_pair(model_potential("constant", v_inf=0.0, N=1))
        f = plateau_test_function((0.5, 1.5), (0.8, 1.2))
        w = WindowTheta("bump_at_zero", eps=0.5)
        assert mollified_density_pairing(pair, f, w, 1.0) == 0.0

    def test_matches_gamma0_at_moderate_h(self):
        from ssf_lab.coefficients import gamma0

        v = gauss_well()
        pair = make_pair(v, h=1 / 64, R=12.0, tau_max=2.56)
        f = plateau_test_function((1.2, 2.4), (1.5, 2.1))
        w = WindowTheta("bump_at_zero", eps=0.5)
        got = 2.0 * math.pi * pair.h * mollified_density_pairing(pair, f, w, 1.8)
        ref = gamma0(v, 1.8)
        assert got == pytest.approx(ref, rel=0.01)


class TestSweeps:
    def test_weyl_two_point_sweep_rejected(self):
        # two h with nonzero errors admit no slope fit
        v = gauss_well()
        pairs = [make_pair(v, h=h) for h in (1 / 8, 1 / 16)]
        taus = np.linspace(1.2, 1.4, 5)
        ref = np.asarray(a0(v, taus))
        with pytest.raises(ConfigError):
            weyl_check(pairs, taus, ref, WindowTheta("bump_at_zero", eps=0.25))

    def test_weyl_taus_past_the_window_rejected(self):
        # the grid resolves energies up to tau_max = 2.0; counting at a tau
        # above it would pair eigenvalues it does not resolve
        v = gauss_well()
        pairs = [make_pair(v, tau_max=2.0)]
        w = WindowTheta("bump_at_zero", eps=0.25)
        taus = np.linspace(1.8, 2.2, 5)
        with pytest.raises(WindowRangeError, match="tau up to 2.2"):
            weyl_check(pairs, taus, np.asarray(a0(v, taus)), w)
        inside = np.linspace(1.6, 2.0, 5)
        assert np.all(np.isfinite(ssf_mollified(pairs[0], w, inside)))

    def test_derivative_support_past_the_window_rejected(self):
        v = gauss_well()
        pairs = [make_pair(v, tau_max=2.0)]
        w = WindowTheta("bump_at_zero", eps=0.5)
        f = plateau_test_function((1.2, 2.8), (1.6, 2.4))
        with pytest.raises(WindowRangeError, match="support up to 2.8"):
            derivative_check(pairs, 1.8, f, w, 1.0)
        inside = plateau_test_function((1.2, 2.0), (1.6, 1.9))
        assert math.isfinite(mollified_density_pairing(pairs[0], inside, w, 1.8))

    def test_weak_check_matches_pairings(self):
        v = gauss_well()
        f = bump_test_function((1.0, 1.6))
        hs = [1 / 8, 1 / 16, 1 / 32]
        pairs = [make_pair(v, h=h) for h in hs]
        ref = c0(v, f)
        rep = weak_check(pairs, f, ref)
        assert list(rep.hs) == hs
        assert list(rep.values) == [2.0 * math.pi * p.h * weak_pairing(p, f) for p in pairs]
        assert rep.reference == ref
        rel = [abs(val - ref) / abs(ref) for val in rep.values]
        assert list(rep.rel_errors) == rel
        assert rep.verdict == ("PASS" if rel[-1] <= 0.03 and (rep.slope is None or rep.slope >= 1.5)
                               else "FAIL")
