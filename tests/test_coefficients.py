import math

import numpy as np
import pytest

from ssf_lab import coefficients
from ssf_lab.bumps import Bump1D, ProductCutoff
from ssf_lab.coefficients import (
    ThresholdError,
    _branch_at,
    _branch_values,
    _turning_points,
    a0,
    bump_test_function,
    c0,
    coefficient_profile,
    gamma0,
    gamma0_localized,
    plateau_test_function,
    raised_cosine_test_function,
)
from ssf_lab.quadrature import QuadratureError, adaptive_gauss_batch, gauss_rule
from ssf_lab.symbols import (
    MatrixPotential,
    model_potential,
)

# Frozen oracle values, computed with a 10^6-node composite Gauss rule (and,
# for the singular case, cross-checked against an endpoint-substituted rule):
#   gauss well V(x) = -exp(-x^2), N = 1
G0_WELL_TAU1 = -0.6005731066350251      # gamma0 at tau = 1 (no turning points)
A0_WELL_TAU1 = 1.5438245654398481       # a0 at tau = 1
G0_WELL_TAUHALF = 4.067442643182999     # gamma0 at tau = -0.5 (turning points)
A0_WELL_TAUHALF = 1.7663355688295241    # a0 at tau = -0.5

# the island's barrier top V(+-1) = 3/e: the branch 3x^2 exp(-x^2) is tangent
# to tau there, so gamma0 and the localized density diverge logarithmically
ISLAND_TOP = 1.1036383235143269


def gauss_well():
    return model_potential("diagonal_bumps", depths=[-1.0], centers=[0.0], widths=[1.0])


class TestTestFunctions:
    def test_bump_support_and_peak(self):
        f = bump_test_function((1.8, 2.2))
        assert f(1.8) == 0.0 and f(2.2) == 0.0 and f(5.0) == 0.0
        assert f(2.0) == pytest.approx(1.0)

    def test_plateau(self):
        f = plateau_test_function((1.2, 2.8), (1.6, 2.4))
        for t in np.linspace(1.6, 2.4, 9):
            assert f(float(t)) == pytest.approx(1.0, abs=1e-15)
        assert f(1.2) == 0.0 and f(2.8) == 0.0
        with pytest.raises(ValueError):
            plateau_test_function((0.0, 1.0), (0.0, 0.5))

    def test_raised_cosine(self):
        f = raised_cosine_test_function((-1.0, 1.0))
        assert f(0.0) == pytest.approx(1.0)
        assert f(1.0) == 0.0
        nodes, weights = gauss_rule(200)
        assert float(np.sum(weights * f(nodes))) == pytest.approx(1.0, abs=1e-12)


class TestGamma0:
    def test_degenerate_is_exact_zero(self):
        v = model_potential("constant", v_inf=[0.3, 1.1], N=2)
        for tau in (0.7, 2.0, 5.0):
            assert gamma0(v, tau) == 0.0

    def test_smooth_case_frozen_oracle(self):
        assert gamma0(gauss_well(), 1.0) == pytest.approx(G0_WELL_TAU1, abs=1e-7)

    def test_turning_point_case_frozen_oracle(self):
        assert gamma0(gauss_well(), -0.5) == pytest.approx(G0_WELL_TAUHALF, abs=1e-7)

    def test_threshold_rejection(self):
        with pytest.raises(ThresholdError):
            gamma0(gauss_well(), 0.0)
        with pytest.raises(ThresholdError):
            gamma0(gauss_well(), 1e-8)

    def test_barrier_top_raises(self):
        # the panels near the tangency double level after level; the panel
        # cap stops them in a few seconds, before they exhaust memory
        with pytest.raises(QuadratureError, match="live panels"):
            gamma0(model_potential("island"), ISLAND_TOP)


class TestA0:
    def test_degenerate_is_exact_zero(self):
        v = model_potential("constant", v_inf=0.0, N=2)
        for tau in (0.5, 1.0, 3.0):
            assert a0(v, tau) == 0.0

    def test_frozen_oracles(self):
        assert a0(gauss_well(), 1.0) == pytest.approx(A0_WELL_TAU1, abs=1e-8)
        assert a0(gauss_well(), -0.5) == pytest.approx(A0_WELL_TAUHALF, abs=1e-8)

    def test_sign_for_negative_potential(self):
        for tau in (0.25, 1.0, 2.5):
            assert a0(gauss_well(), tau) >= 0.0

    def test_nonzero_limit_rejected(self):
        v = model_potential("constant", v_inf=[1.0], N=1)
        with pytest.raises(ValueError):
            a0(v, 2.0)

    def test_derivative_identity(self):
        # d/dtau a0 = gamma0 (exact identity of the closed forms)
        v = gauss_well()
        for tau in (-0.5, 0.7, 1.0, 2.3):
            s = 1e-4
            lhs = (a0(v, tau + s) - a0(v, tau - s)) / (2.0 * s)
            assert abs(lhs - gamma0(v, tau)) < 1e-4

    def test_derivative_identity_reference(self):
        v = model_potential("reference")
        for tau in (1.5, 2.0, 2.5):
            s = 1e-4
            lhs = (a0(v, tau + s) - a0(v, tau - s)) / (2.0 * s)
            assert abs(lhs - gamma0(v, tau)) < 1e-4


class TestC0:
    def test_degenerate_is_exact_zero(self):
        v = model_potential("constant", v_inf=[0.2, 0.9], N=2)
        f = bump_test_function((1.8, 2.2))
        assert c0(v, f) == 0.0

    def test_duality_with_gamma0(self):
        # c0(f) = -int f gamma0 (the sign fixed by the constant-shift case)
        v = model_potential("reference")
        f = bump_test_function((1.8, 2.2))
        lhs = c0(v, f)
        (a, b), (xn, xw) = f.support, gauss_rule(200)
        nodes, weights = 0.5 * (a + b) + 0.5 * (b - a) * xn, 0.5 * (b - a) * xw
        rhs = -float(np.sum(weights * f(nodes) * np.array(
            [gamma0(v, float(t)) for t in nodes])))
        assert abs(lhs - rhs) < 1e-6

    def test_sign_constant_shift_case(self):
        # V = 0 + c on a wide region: pairing coefficient ~ -c * d/dtau f-mass
        c_amp = 1e-3
        v = model_potential("diagonal_bumps", depths=[c_amp], centers=[0.0], widths=[3.0])
        f = bump_test_function((0.8, 1.2))
        val = c0(v, f)
        # first-order oracle: -c int dx bump(x) * int f'(xi^2) dxi
        xs = np.linspace(-8, 8, 4001)
        bump_mass = np.trapezoid(np.exp(-((xs / 3.0) ** 2)), xs)
        xi = np.linspace(-2, 2, 40001)
        d = 1e-6
        fp = (f(xi**2 + d) - f(xi**2 - d)) / (2 * d)
        oracle = -c_amp * bump_mass * np.trapezoid(fp, xi)
        assert val == pytest.approx(oracle, rel=2e-3)

    def test_translation_invariance(self):
        v = gauss_well()
        f = bump_test_function((0.6, 1.4))
        base = c0(v, f)
        s = 0.35
        shifted_v = model_potential("diagonal_bumps", depths=[-1.0], centers=[0.0],
                                    widths=[1.0], v_inf=[s])
        # f(. - s) paired with V + sI
        moved = c0(shifted_v, bump_test_function((0.95, 1.75)))
        assert moved == pytest.approx(base, abs=1e-8)

    def test_channel_additivity(self):
        va = model_potential("diagonal_bumps", depths=[-1.0], centers=[0.0], widths=[1.0])
        vb = model_potential("diagonal_bumps", depths=[-0.4], centers=[0.5], widths=[1.3])
        vab = model_potential("diagonal_bumps", depths=[-1.0, -0.4], centers=[0.0, 0.5],
                              widths=[1.0, 1.3], v_inf=[0.0, 0.0])
        f = bump_test_function((0.7, 1.3))
        for tau in (0.9, 1.6):
            lhs = gamma0(vab, tau)
            rhs = gamma0(va, tau) + gamma0(vb, tau)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
            lhs = a0(vab, tau)
            rhs = a0(va, tau) + a0(vb, tau)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        assert abs(c0(vab, f) - c0(va, f) - c0(vb, f)) <= 1e-9


# scipy quad of the density's x-integral on each cell (epsabs = epsrel =
# 1e-13), split at every turning point and near-crossing of the branches.
# The first five have a turning point inside supp g, found to rounding level
LOCALIZED_REFERENCES = [
    ("island", {}, 1.0, 3.675976437),
    ("island", {}, 0.6, 2.184851001),
    ("diagonal_bumps", {"depths": [2.0]}, 1.0, 1.678328896),
    ("rotating_crossing", {"c": 3.0}, 1.0, 4.219614114),
    ("rotating_crossing", {"c": 3.0}, 0.5, 3.436785533),
    ("island", {}, 2.0, 1.296315902),
    ("diagonal_bumps", {"depths": [0.5]}, 1.0, 2.424239412),
    ("rotating_crossing", {"c": 3.0}, 1.5, 2.906352908),
    ("rotating_crossing", {"c": 1.0}, 1.0, 3.831398073),
    ("conical_crossing", {}, 1.0, 3.674376415),
]


class TestLocalizedDensity:
    CHI = ProductCutoff(g=Bump1D(0, 2.0), k=Bump1D(0, 2.0))

    def test_closed_form_free_symbol(self):
        v = model_potential("constant", v_inf=0.0, N=1)
        out = gamma0_localized(v, self.CHI, 1.0)
        ig, = adaptive_gauss_batch(lambda owner, x: self.CHI.g(x), [-2], [2], atol=1e-13)
        oracle = ig * (self.CHI.k(1.0) + self.CHI.k(-1.0)) / (2.0 * math.sqrt(1.0))
        assert out == pytest.approx(oracle, rel=1e-5)

    def test_zero_cutoff(self):
        v = model_potential("constant", v_inf=0.0, N=1)
        chi0 = ProductCutoff(g=Bump1D(0, 2.0, amplitude=0.0), k=Bump1D(0, 2.0))
        out = gamma0_localized(v, chi0, 1.0)
        assert out == 0.0

    @pytest.mark.parametrize("kind,params,tau,reference", LOCALIZED_REFERENCES,
                             ids=["-".join([k, *(f"{n}{x}" for n, x in p.items()), f"tau{t}"])
                                  for k, p, t, _ in LOCALIZED_REFERENCES])
    def test_against_independent_quadrature(self, kind, params, tau, reference):
        out = gamma0_localized(model_potential(kind, **params), self.CHI, tau)
        assert out == pytest.approx(reference, rel=1e-9)

    @pytest.mark.parametrize("kind,params,taus", [
        ("rotating_crossing", {"c": 3.0}, [0.5, 1.0]),
        ("island", {}, [0.6, 1.0]),
        ("conical_crossing", {}, np.linspace(-0.4, 0.4, 41)),
    ])
    def test_turning_points_to_rounding_level(self, kind, params, taus):
        # tau - e_k changes sign between each root and a neighbouring float
        v = model_potential(kind, **params)
        taus = np.asarray(taus, dtype=float)
        roots = _turning_points(v, taus, *self.CHI.x_support)
        for tau, rt in zip(taus, roots):
            for k, rk in enumerate(rt):
                for r in rk:
                    xs = np.array([np.nextafter(r, -np.inf), r, np.nextafter(r, np.inf)])
                    f = tau - _branch_at(v, xs, np.full(3, k))
                    assert f[1] == 0.0 or f[0] * f[1] <= 0.0 or f[1] * f[2] <= 0.0

    def test_barrier_top_raises(self):
        with pytest.raises(QuadratureError, match="live panels"):
            gamma0_localized(model_potential("island"), self.CHI, ISLAND_TOP)

    def test_branch_grid_built_once_per_call(self):
        # the branches are scanned over supp g once, whatever the number of
        # turning points the scan brackets
        from ssf_lab.coefficients import TURNING_SCAN

        base = model_potential("rotating_crossing", c=3.0)
        seen = []

        def counting_on(xs):
            seen.extend(xs.tolist())
            return base.on(xs)

        v = MatrixPotential(N=2, eval_on=counting_on, grad_on=base.grad_on,
                            v_infinity=base.v_infinity)
        scan = set(np.linspace(*self.CHI.x_support, TURNING_SCAN).tolist())
        out = gamma0_localized(v, self.CHI, 1.0)
        assert sum(len(rk) for rk in _turning_points(base, np.array([1.0]),
                                                     *self.CHI.x_support)[0]) >= 2
        assert sum(x in scan for x in seen) == TURNING_SCAN
        assert out == gamma0_localized(base, self.CHI, 1.0)

    def test_boundary_value_route(self):
        from ssf_lab.microhyperbolicity import boundary_value_extrapolate

        v = model_potential("conical_crossing")
        dens = gamma0_localized(v, self.CHI, 1.0)
        bv = boundary_value_extrapolate(v, np.eye(2), self.CHI, 1.0, side=+1,
                                        form="single", levels=8, x_order=32)
        route2 = -bv.value.imag / math.pi
        assert bv.converged
        assert abs(dens - route2) < 1e-3


class TestProfile:
    def test_csv_round_trip(self):
        v = model_potential("constant", v_inf=0.0, N=1)
        prof = coefficient_profile(v, [0.5, 1.0, 1.5])
        assert np.array_equal(prof.gamma0, np.zeros(3))
        assert np.array_equal(prof.a0, np.zeros(3))

    @pytest.mark.parametrize("kind,taus", [("reference", np.linspace(1.8, 2.2, 25)),
                                           ("island", np.linspace(0.4, 2.0, 9))])
    def test_one_turning_point_scan(self, monkeypatch, kind, taus):
        # gamma0 and a0 of a profile share one scan, and each keeps the bits
        # it has when called alone
        v = model_potential(kind)
        scans = []

        def counting(*args, **kwargs):
            scans.append(args)
            return _turning_points(*args, **kwargs)

        monkeypatch.setattr(coefficients, "_turning_points", counting)
        prof = coefficient_profile(v, taus)
        assert len(scans) == 1
        for got, alone in ((prof.gamma0, gamma0(v, taus)), (prof.a0, a0(v, taus))):
            assert got.dtype == alone.dtype and got.shape == alone.shape == taus.shape
            assert got.tobytes() == alone.tobytes()
        assert len(scans) == 3


# ---------------------------------------------------------------------------
# batched coefficients against one tau, one channel, one integral at a time
# ---------------------------------------------------------------------------

# values of the recursive per-tau implementation, pinned by repr
A0_REF_TAU2 = "0.45567621610287434"
G0_REF_TAU2 = "-0.036154629189564635"
C0_REF_BUMP = "0.008651378575620747"


def _c0_reference(v, f, atol=1e-9):
    """c0 as it was computed before batching: one recursive inner integral per
    outer node and channel."""
    from test_quadrature import _adaptive_reference

    from ssf_lab.coefficients import _branch_values

    beta = f.support[1]
    thresholds = v.thresholds()

    def inner(x):
        evals = _branch_values(v, np.array([x]))[0]
        total = 0.0
        for k in range(v.N):
            thr, ek = float(thresholds[k]), float(evals[k])
            u_hi = math.sqrt(max(0.0, beta - min(ek, thr)))
            if u_hi <= 0.0:
                continue

            def g(us, _e=ek, _t=thr):
                t = us * us
                return 2.0 * (f(_t + t) - f(_e + t))

            total += _adaptive_reference(g, 0.0, u_hi, atol=atol)
        return total

    return _adaptive_reference(lambda xs: np.array([inner(float(x)) for x in xs]),
                               -8.0, 8.0, atol=atol)


class TestBatchedCoefficients:
    @pytest.mark.parametrize("v,taus", [
        (model_potential("reference"), [-0.9, -0.3, 0.4, 1.2, 1.8, 2.0, 2.45, 3.0]),
        (gauss_well(), [-0.8, -0.5, 0.3, 1.0, 2.3]),
        (model_potential("conical_crossing"), [-0.4, 0.1, 0.5, 1.0]),
        (model_potential("constant", v_inf=0.0, N=2), [0.5, 1.0, 3.0]),
    ])
    def test_array_tau_matches_scalar_calls(self, v, taus):
        for fn in (a0, gamma0):
            batch = fn(v, np.array(taus))
            assert isinstance(batch, np.ndarray) and batch.shape == (len(taus),)
            singles = [fn(v, t) for t in taus]
            assert all(type(s) is float for s in singles)
            assert [repr(float(b)) for b in batch] == [repr(s) for s in singles]

    @pytest.mark.parametrize("v,taus", [
        (model_potential("avoided_crossing", gap=0.2), [-0.5, -0.1, 0.1, 0.6, 1.4]),
        (model_potential("constant", v_inf=[0.3, 1.1], N=2), [0.7, 2.0, 5.0]),
    ])
    def test_array_gamma0_nonzero_limits(self, v, taus):
        batch = gamma0(v, np.array(taus))
        assert [repr(float(b)) for b in batch] == [repr(gamma0(v, t)) for t in taus]

    def test_exact_zeros_in_batch(self):
        v = model_potential("constant", v_inf=[0.3, 1.1], N=2)
        assert np.array_equal(gamma0(v, np.array([0.7, 2.0, 5.0])), np.zeros(3))
        v0 = model_potential("constant", v_inf=0.0, N=2)
        assert np.array_equal(a0(v0, np.array([-1.0, 0.5, 3.0])), np.zeros(3))

    def test_threshold_anywhere_in_batch_rejected(self):
        with pytest.raises(ThresholdError):
            gamma0(gauss_well(), np.array([0.5, 1e-8, 1.0]))
        with pytest.raises(ThresholdError):
            a0(gauss_well(), np.array([0.5, 0.0]))

    def test_pinned_values(self):
        v = model_potential("reference")
        assert repr(a0(v, 2.0)) == A0_REF_TAU2
        assert repr(gamma0(v, 2.0)) == G0_REF_TAU2
        assert repr(c0(v, bump_test_function((1.8, 2.2)))) == C0_REF_BUMP

    def test_c0_matches_recursive_reference(self):
        v = gauss_well()
        f = bump_test_function((0.6, 1.4))
        assert repr(c0(v, f)) == repr(_c0_reference(v, f))

    def test_profile_is_the_batch(self):
        v = model_potential("reference")
        taus = np.linspace(1.8, 2.2, 5)
        prof = coefficient_profile(v, taus)
        assert np.array_equal(prof.a0, a0(v, taus))
        assert np.array_equal(prof.gamma0, gamma0(v, taus))
        assert [repr(float(g)) for g in prof.gamma0] == [repr(gamma0(v, t)) for t in taus]

    def test_turning_point_on_scan_node(self):
        # tau equal to the branch value at a scan node: the node is a root as
        # it stands, and the coefficients stay continuous across it
        from ssf_lab.coefficients import DEFAULT_BOX_RADIUS, TURNING_SCAN

        v = gauss_well()
        xs = np.linspace(-DEFAULT_BOX_RADIUS, DEFAULT_BOX_RADIUS, TURNING_SCAN)
        tau = float(_branch_values(v, xs)[900, 0])
        assert float(xs[900]) in _turning_points(v, np.array([tau]), xs[0], xs[-1])[0][0]
        for coefficient in (a0, gamma0):
            here = coefficient(v, tau)
            assert coefficient(v, tau - 1e-9) == pytest.approx(here, rel=1e-6)
            assert coefficient(v, tau + 1e-9) == pytest.approx(here, rel=1e-6)

    def test_one_turning_point_scan_per_call(self):
        from ssf_lab.coefficients import DEFAULT_BOX_RADIUS, TURNING_SCAN

        base = model_potential("reference")
        seen = []

        def counting_on(xs):
            seen.extend(xs.tolist())
            return base.on(xs)

        v = MatrixPotential(N=2, eval_on=counting_on, grad_on=base.grad_on,
                            v_infinity=base.v_infinity)
        scan = set(np.linspace(-DEFAULT_BOX_RADIUS, DEFAULT_BOX_RADIUS, TURNING_SCAN).tolist())
        taus = np.linspace(1.8, 2.2, 41)
        out = a0(v, taus)
        assert sum(x in scan for x in seen) == TURNING_SCAN  # not 41 taus x 2 channels
        assert np.array_equal(out, a0(base, taus))
