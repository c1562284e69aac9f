import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import minimize_scalar

from conftest import random_hermitian
from mh_constructions import (
    KernelSplitError,
    check_definition,
    check_pointwise,
    crossing_condition,
    directional_derivative,
    extend_to_global,
    find_direction,
    flatten_symbol,
    hermitian_eigen,
    linearized_block_symbol,
    unit,
)
from ssf_lab.bumps import Bump1D, ProductCutoff, ScalarPhaseFunction, dilation_generator
from ssf_lab.microhyperbolicity import (
    C1_LADDER,
    EscapeCertificate,
    _min_eigs,
    _unit_direction,
    boundary_value_extrapolate,
    check_on_energy_shell,
    default_kernel_tol,
    default_shell_tol,
    escape_check_dilation,
    escape_check_general,
    shell_sample,
)
from ssf_lab.quadrature import adaptive_gauss_batch
from ssf_lab.symbols import (
    SIGMA3,
    MatrixPotential,
    MatrixSymbol,
    NonHermitianError,
    model_potential,
    schrodinger_symbol,
    shifted_symbol,
)


SIGMA_UP = np.array([[0.0, 1.0], [0.0, 0.0]])


def free_symbol(N=1, tau0=1.0):
    v = model_potential("constant", v_inf=0.0, N=N)
    return shifted_symbol(schrodinger_symbol(v), tau0)


def crossing_symbol(tau0):
    return shifted_symbol(schrodinger_symbol(model_potential("conical_crossing")), tau0)


def affine_jet_symbol(a, g):
    """H(rho) = A + rho_1 * G: a two-parameter jet with <e1, grad H> = G."""
    n_ch = a.shape[0]
    grad = np.stack([g, np.zeros_like(g)])
    return MatrixSymbol(N=n_ch, eval_on=lambda x, xi: a + x[:, None, None] * g,
                        grad_on=lambda x, xi: np.broadcast_to(grad, (len(x), *grad.shape)))


def constant_grad(grad):
    """The array form of a constant gradient: ``grad`` at every point."""
    grad = np.asarray(grad)
    return lambda x, *xi: np.broadcast_to(grad, (len(x), *grad.shape))


def gauss_potential(mat, center=0.0, amp=1.0):
    """V(x) = amp exp(-(x - center)^2) mat, with its exact gradient."""
    mat = np.asarray(mat)

    def profile(xs):
        return amp * np.exp(-((xs - center) ** 2))

    return MatrixPotential(
        N=mat.shape[0], v_infinity=np.zeros(mat.shape),
        eval_on=lambda xs: profile(xs)[:, None, None] * mat,
        grad_on=lambda xs: (-2.0 * (xs - center) * profile(xs))[:, None, None, None] * mat)


class TestDirection:
    """The direction ``check_on_energy_shell`` takes as T, validated and
    normalized where it comes in."""

    P = schrodinger_symbol(model_potential("constant", v_inf=0.0, N=1))
    BOX = ((-2.0, 2.0), (0.2, 2.0))  # the xi > 0 half of the shell, which T = (0, -1) covers

    def test_normalization(self):
        assert np.allclose(_unit_direction([3.0, 4.0]), [0.6, 0.8], atol=0)
        assert np.allclose(_unit_direction((-3.0, -4.0)), [-0.6, -0.8], atol=0)
        cert = check_on_energy_shell(self.P, 1.0, self.BOX, T=[0.0, -3.0], grid_points=21)
        assert cert.valid and cert.T.tolist() == [0.0, -1.0]

    @pytest.mark.parametrize("vec", [[math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.0],
                                     [0.0, -math.inf]], ids=["nan", "one-nan", "inf", "-inf"])
    def test_non_finite_refused(self, vec):
        # the norm of a NaN vector is NaN, which no tolerance comparison
        # refuses; the validator refuses it by name, before any sample
        self._refused(vec, "non-finite")

    @pytest.mark.parametrize("vec", [[0.0, 0.0], [1e308, 1e308]], ids=["zero", "overflow"])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_no_norm_refused(self, vec):
        self._refused(vec, "cannot normalize")

    def _refused(self, vec, match):
        with pytest.raises(ValueError, match=match):
            _unit_direction(vec)
        for tau0 in (1.0, -5.0):  # a shell and an empty one
            with pytest.raises(ValueError, match=match):
                check_on_energy_shell(self.P, tau0, self.BOX, T=vec, grid_points=21)

    @pytest.mark.parametrize("form", [list, tuple, np.array], ids=["list", "tuple", "array"])
    @pytest.mark.parametrize("T", [[0.6, -0.8], [0.3, -2.0]], ids=["unit", "scaled"])
    def test_forms_give_one_certificate(self, form, T):
        p = schrodinger_symbol(model_potential("conical_crossing"))
        box = ((-3.0, 3.0), (0.3, 2.5))
        got = check_on_energy_shell(p, 1.0, box, T=form(T), grid_points=21)
        ref = check_on_energy_shell(p, 1.0, box, T=np.array(T), grid_points=21)
        assert got.valid
        assert repr(got.to_json_dict()) == repr(ref.to_json_dict())
        assert repr(got.T.tolist()) == repr(unit(T).tolist())


class TestCheckDefinition:
    def test_scalar_examples(self):
        h = free_symbol()
        assert check_definition(h, [0, 1], [0, -1], 1.0, 0.0) == pytest.approx(1.0)
        assert check_definition(h, [0, 2], [0, -1], 1.0, 0.0) == pytest.approx(3.0)
        # at xi=0 only the compensation term helps: slack = C1 - 1
        assert check_definition(h, [0, 0], [0, -1], 1.0, 2.0) == pytest.approx(1.0)
        assert check_definition(h, [0, 0], [0, -1], 1.0, 0.5) == pytest.approx(-0.5)


class TestQuadraticFormEquivalence:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_slack_bounds_the_form(self, seed):
        # min-eig slack is exactly the sharp constant of the compensated
        # quadratic-form inequality over all w
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        a = random_hermitian(rng, n)
        g = random_hermitian(rng, n)
        h = affine_jet_symbol(a, g)
        c0_v = float(rng.uniform(0.0, 2.0))
        c1_v = float(rng.uniform(0.0, 4.0))
        slack = check_definition(h, [0.0, 0.0], [1.0, 0.0], c0_v, c1_v)
        for _ in range(8):
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            quad = (np.vdot(w, g @ w).real + c1_v * np.vdot(a @ w, a @ w).real
                    - c0_v * np.vdot(w, w).real)
            assert quad >= slack * np.vdot(w, w).real - 1e-10
        # the bound is attained on the bottom eigenvector
        mat = g + c1_v * a.conj().T @ a - c0_v * np.eye(n)
        vals, vecs = np.linalg.eigh(mat)
        w0 = vecs[:, 0]
        attained = np.vdot(w0, mat @ w0).real
        assert attained == pytest.approx(slack, abs=1e-10)


class TestCheckPointwise:
    def test_free_symbol_full_kernel(self):
        cert = check_pointwise(free_symbol(N=2), [0.0, 1.0], [0.0, -1.0])
        assert cert.valid
        assert cert.C0 == pytest.approx(1.0)
        assert cert.margin >= 0.0

    def test_crossing_fails_every_direction(self):
        h = crossing_symbol(0.0)
        for phi in np.linspace(0, 2 * math.pi, 32, endpoint=False):
            cert = check_pointwise(h, [0.0, 0.0], [math.cos(phi), math.sin(phi)])
            assert not cert.valid

    def test_crossing_succeeds_off_level(self):
        cert = check_pointwise(crossing_symbol(1.0), [0.0, 1.0], [0.0, -1.0])
        assert cert.valid
        assert cert.C0 == pytest.approx(1.0)

    def test_certificate_replays_through_definition(self, rng):
        # every certificate's stored constants must verify at its point
        for _ in range(25):
            a = random_hermitian(rng, 3)
            a[:, 0] = 0.0
            a[0, :] = 0.0  # force a kernel direction
            g = random_hermitian(rng, 3)
            h = affine_jet_symbol(a, g)
            cert = check_pointwise(h, [0.0, 0.0], [1.0, 0.0])
            if cert.valid:
                slack = check_definition(h, [0.0, 0.0], [1.0, 0.0], cert.C0, cert.C1)
                assert slack >= -1e-10

    def test_positive_slack_forces_kernel_positivity(self, rng):
        # slack > 0 for some (C0, C1) forces the kernel compression >= C0
        found = 0
        for _ in range(200):
            n = int(rng.integers(2, 4))
            a = random_hermitian(rng, n)
            a[:, 0] = 0.0
            a[0, :] = 0.0
            g = random_hermitian(rng, n)
            h = affine_jet_symbol(a, g)
            c0 = float(rng.uniform(0.05, 1.0))
            for c1 in C1_LADDER:
                if check_definition(h, [0.0, 0.0], [1.0, 0.0], c0, c1) > 0:
                    found += 1
                    kernel_min = g[0, 0].real  # kernel is the first axis
                    assert kernel_min >= c0 - 1e-10
                    break
        assert found > 20  # the sample must actually exercise the implication

    def test_direction_antisymmetry(self, rng):
        for _ in range(25):
            g = random_hermitian(rng, 2)
            h = affine_jet_symbol(np.zeros((2, 2)), g)
            plus = check_pointwise(h, [0.0, 0.0], [1.0, 0.0])
            minus = check_pointwise(h, [0.0, 0.0], [-1.0, 0.0])
            if plus.valid:
                assert not minus.valid

    def test_scaling_invariance(self):
        h = crossing_symbol(1.0)
        cert = check_pointwise(h, [0.0, 1.0], [0.0, -1.0])
        for s in (0.5, 3.0, 10.0):
            hs = MatrixSymbol(
                N=2,
                eval_on=lambda x, xi, _s=s: _s * h.on(x, xi),
                grad_on=lambda x, xi, _s=s: _s * h.gradient_on(x, xi),
            )
            slack = check_definition(hs, [0.0, 1.0], [0.0, -1.0],
                                     s * cert.C0, cert.C1 / s)
            assert slack >= -1e-10 * s

    def test_invertible_point_trivial_pass(self):
        cert = check_pointwise(free_symbol(), [0.0, 3.0], [0.0, -1.0])
        assert cert.valid
        assert cert.C0 > 0


class TestFindDirection:
    def test_free_symbol_maximizer(self):
        d = find_direction(free_symbol(), [0.0, 1.0])
        assert d is not None
        assert np.allclose(d, [0.0, -1.0], atol=1e-6)

    def test_crossing_failure(self):
        assert find_direction(crossing_symbol(0.0), [0.0, 0.0]) is None

    def test_against_brute_force(self):
        # scalar well: maximizer must match a dense direction scan
        v = gauss_potential(np.ones((1, 1)))
        tau0 = 1.0 + math.exp(-1.0)
        h = shifted_symbol(schrodinger_symbol(v), tau0)
        rho0 = np.array([1.0, 1.0])
        d = find_direction(h, rho0)
        grad = h.gradient(rho0)[:, 0, 0]
        angles = np.linspace(0, 2 * math.pi, 10000, endpoint=False)
        vals = np.cos(angles) * grad[0] + np.sin(angles) * grad[1]
        best = angles[np.argmax(vals)]
        brute = np.array([math.cos(best), math.sin(best)])
        assert float(np.dot(d, brute)) > 1 - 1e-4
        # sign pattern: first component aligned with -sign(V'(1))
        assert d[0] > 0


class TestEnergyShell:
    def test_free_shell_certificate(self):
        cert = check_on_energy_shell(schrodinger_symbol(model_potential("constant", v_inf=0.0, N=1)),
                                     1.0, ((-2, 2), (-2, 2)), grid_points=41)
        assert cert.valid
        shell_tol = cert.kernel_tol
        assert cert.C0 >= math.sqrt(1 - shell_tol) - 0.02
        assert cert.margin >= 0

    def test_crossing_shell_failure_at_level(self):
        cert = check_on_energy_shell(schrodinger_symbol(model_potential("conical_crossing")),
                                     0.0, ((-2, 2), (-2, 2)), grid_points=41)
        assert not cert.valid
        assert any(np.allclose(p, [0.0, 0.0], atol=0.06) for p in cert.failures)

    def test_crossing_shell_success_off_level(self):
        cert = check_on_energy_shell(schrodinger_symbol(model_potential("conical_crossing")),
                                     0.5, ((-2, 2), (-2, 2)), grid_points=41)
        assert cert.valid
        assert cert.margin >= 0

    def test_fixed_direction_mode(self):
        p = schrodinger_symbol(model_potential("constant", v_inf=0.0, N=1))
        # the shell has both xi-signs, so no single direction certifies it...
        cert = check_on_energy_shell(p, 1.0, ((-2, 2), (-2, 2)), T=[0.0, -1.0],
                                     grid_points=41)
        assert not cert.valid
        # ... but the xi > 0 half is covered by T = (0, -1)
        cert_half = check_on_energy_shell(p, 1.0, ((-2, 2), (0.2, 2)), T=[0.0, -1.0],
                                          grid_points=41)
        assert cert_half.valid

    def test_empty_shell(self):
        p = schrodinger_symbol(model_potential("constant", v_inf=0.0, N=1))
        cert = check_on_energy_shell(p, -5.0, ((-1, 1), (-1, 1)), grid_points=21)
        assert cert.empty_shell
        assert not cert.valid
        # an empty shell carries the hypothesis vacuously
        assert cert.certifies

    @pytest.mark.parametrize("tau0", [1.0, -5.0], ids=["shell", "empty-shell"])
    def test_non_finite_direction_refused(self, tau0):
        p = schrodinger_symbol(model_potential("constant", v_inf=0.0, N=1))
        with pytest.raises(ValueError, match="non-finite"):
            check_on_energy_shell(p, tau0, ((-2, 2), (-2, 2)), T=[math.nan, 1.0],
                                  grid_points=21)

    def test_certifies(self):
        # a valid certificate carries the hypothesis and a refutation does
        # not; the property is not part of the certificate's JSON
        p = schrodinger_symbol(model_potential("constant", v_inf=0.0, N=1))
        box = ((-2, 2), (-2, 2))
        valid = check_on_energy_shell(p, 1.0, box, grid_points=21)
        refuted = check_on_energy_shell(p, 1.0, box, T=[0.0, -1.0], grid_points=21)
        assert (valid.valid, valid.certifies) == (True, True)
        assert (refuted.valid, refuted.certifies, refuted.empty_shell) == (False, False, False)
        assert "certifies" not in valid.to_json_dict()

    def test_json_round_trip(self):
        import json

        cert = check_on_energy_shell(schrodinger_symbol(model_potential("constant", v_inf=0.0, N=1)),
                                     1.0, ((-2, 2), (-2, 2)), grid_points=21)
        doc = cert.to_json_dict()
        assert set(doc) >= {"tau0", "T", "C0", "C1", "margin", "n_points", "failures"}
        json.dumps(doc)


class TestCrossingCondition:
    def test_simple_eigenvalue_nonzero_gradient(self):
        # kernel is one-dimensional; success exactly when the branch gradient
        # does not vanish there
        v = MatrixPotential(
            N=2, v_infinity=np.diag([0.0, 2.0]),
            eval_on=lambda xs: np.stack([xs, 2.0 + xs * xs], axis=1)[:, :, None] * np.eye(2),
            grad_on=lambda xs: (np.stack([np.ones_like(xs), 2.0 * xs], axis=1)[:, :, None]
                                * np.eye(2))[:, None])
        res = crossing_condition(v, 0.0, 0.0)
        assert res.ok
        assert res.kernel_dim == 1
        assert np.allclose(res.T1, [1.0])
        assert res.C == pytest.approx(1.0)
        # at tau0 = 2 the touching branch is 2 + x^2 whose gradient vanishes
        res2 = crossing_condition(v, 0.0, 2.0)
        assert not res2.ok

    def test_conical_kernel_indefinite(self):
        v = MatrixPotential(N=2, eval_on=lambda xs: xs[:, None, None] * SIGMA3,
                            grad_on=constant_grad(SIGMA3[None]), v_infinity=np.zeros((2, 2)))
        res = crossing_condition(v, 0.0, 0.0)
        assert not res.ok
        assert res.kernel_dim == 2

    def test_no_level_touches(self):
        v = model_potential("reference")
        res = crossing_condition(v, 0.0, 5.0)
        assert not res.ok
        assert res.note == "no level touches tau0"


class TestDegenerateSampling:
    """A sample of one point per axis, of an empty side or of a shell of no
    thickness checks the hypothesis at one point or at none: each is a
    ValueError for a direct caller, before anything is evaluated."""

    P = schrodinger_symbol(model_potential("conical_crossing"))
    SHELL_CHECKS = {
        "shell_sample": shell_sample,
        "check_on_energy_shell": check_on_energy_shell,
        "escape_check_general": lambda p, **kw: escape_check_general(
            p, dilation_generator(), **kw),
    }

    @pytest.mark.parametrize("check", SHELL_CHECKS)
    @pytest.mark.parametrize("change,named", [
        ({"shell_tol": 0.0}, "shell_tol must be positive"),
        ({"shell_tol": -1.0}, "shell_tol must be positive"),
        ({"shell_tol": math.nan}, "shell_tol must be positive"),
        ({"grid_points": 1}, "grid_points must be at least 2"),
        ({"grid_points": 0}, "grid_points must be at least 2"),
        ({"grid_points": -1}, "grid_points must be at least 2"),
        ({"box": ((0.0, 0.0), (-2.0, 2.0))}, "x side needs hi > lo"),
        ({"box": ((-2.5, 2.5), (2.0, -2.0))}, "xi side needs hi > lo"),
    ])
    def test_shell_sample_refused(self, check, change, named):
        args = dict({"tau0": 1.0, "box": ((-2.5, 2.5), (-2.0, 2.0)), "shell_tol": 0.1,
                     "grid_points": 21}, **change)
        with pytest.raises(ValueError, match=named):
            self.SHELL_CHECKS[check](self.P, **args)

    @pytest.mark.parametrize("change,named", [
        ({"x_range": (1.0, 1.0)}, "x_range needs hi > lo"),
        ({"x_range": (8.0, -8.0)}, "x_range needs hi > lo"),
        ({"grid_points": 1}, "grid_points must be at least 2"),
        ({"grid_points": -1}, "grid_points must be at least 2"),
    ])
    def test_dilation_sample_refused(self, change, named):
        with pytest.raises(ValueError, match=named):
            escape_check_dilation(model_potential("reference"), 2.0, **change)


class TestEscapeChecks:
    def test_free_dilation_exact(self):
        for tau0 in (0.5, 1.5, 3.0):
            cert = escape_check_dilation(model_potential("constant", v_inf=0.0, N=1), tau0)
            assert cert.valid
            assert cert.C == pytest.approx(2.0 * tau0, abs=0)

    def test_diagonal_pair_threshold_bound(self):
        v = model_potential("diagonal_bumps", depths=[-1.0, 1.0], centers=[0, 0],
                            widths=[1, 1], v_inf=[0.0, 0.0])
        cert = escape_check_dilation(v, 3.0)
        assert cert.valid
        # calculus oracle: sup|x V'| / 2 = max x^2 e^{-x^2} = 1/e at x = 1
        opt = minimize_scalar(lambda x: -(x * x) * math.exp(-x * x), bounds=(0, 3),
                              method="bounded")
        oracle = -opt.fun + 1.0
        assert cert.threshold_bound == pytest.approx(oracle, abs=1e-6)
        assert cert.threshold_bound < 3.0

    def test_engineered_touching_failure(self):
        # scale a profile so 2(tau0 - v) - x v' dips just below zero at the
        # argmax of W(x) = 2 phi + x phi' (root-finding oracle)
        tau0 = 1.0
        phi = lambda x: np.exp(-((x - 1.0) ** 2))
        w_fn = lambda x: phi(x) * (2.0 - 2.0 * x * (x - 1.0))
        opt = minimize_scalar(lambda x: -w_fn(x), bounds=(0.0, 2.0), method="bounded")
        x_star, w_max = opt.x, -opt.fun
        beta = (1.0 + 1e-3) * 2.0 * tau0 / w_max
        v = gauss_potential(np.ones((1, 1)), center=1.0, amp=beta)
        cert = escape_check_dilation(v, tau0, grid_points=4001)
        assert not cert.valid
        worst_x = cert.failures[0][0]
        assert abs(worst_x - x_star) < 0.1

    def test_reference_at_two(self):
        cert = escape_check_dilation(model_potential("reference"), 2.0)
        assert cert.valid
        assert cert.threshold_bound < 2.0
        assert cert.C > 0

    def test_general_free_exact(self):
        p = schrodinger_symbol(model_potential("constant", v_inf=0.0, N=1))
        cert = escape_check_general(p, dilation_generator(), 1.0, ((-2, 2), (-2, 2)),
                                    grid_points=41)
        assert cert.valid
        assert cert.C == pytest.approx(2.0, abs=1e-12)

    def test_general_sign_flip_fails(self):
        p = schrodinger_symbol(model_potential("constant", v_inf=0.0, N=1))
        neg = ScalarPhaseFunction(eval_on=lambda x, xi: -x * xi,
                                  grad_on=lambda x, xi: np.column_stack([-xi, -x]))
        cert = escape_check_general(p, neg, 1.0, ((-2, 2), (-2, 2)), grid_points=41)
        assert not cert.valid
        assert len(cert.failures) > 0

    def test_general_empty_shell_serializes(self):
        p = schrodinger_symbol(model_potential("constant", v_inf=0.0, N=1))
        cert = escape_check_general(p, dilation_generator(), -1.0,
                                    ((-3, 3), (-2.5, 2.5)))
        d = cert.to_json_dict()
        assert d["valid"] is False and not cert.certifies
        assert d["n_points"] == 0
        assert d["failures"] == ["empty shell"]
        assert "certifies" not in d
        assert json.loads(json.dumps(d)) == d

    def test_certifies(self):
        # a valid escape certificate, of either check, carries the hypothesis
        # and a refuted one does not; the property is not in the JSON
        p = schrodinger_symbol(model_potential("constant", v_inf=0.0, N=1))
        box = ((-2, 2), (-2, 2))
        neg = ScalarPhaseFunction(eval_on=lambda x, xi: -x * xi,
                                  grad_on=lambda x, xi: np.column_stack([-xi, -x]))
        dilation = escape_check_dilation(model_potential("constant", v_inf=0.0, N=1), 1.0)
        general = escape_check_general(p, dilation_generator(), 1.0, box, grid_points=41)
        refuted = escape_check_general(p, neg, 1.0, box, grid_points=41)
        assert [(c.valid, c.certifies) for c in (dilation, general, refuted)] == [
            (True, True), (True, True), (False, False)]
        assert all("certifies" not in c.to_json_dict() for c in (dilation, general, refuted))

    def test_general_failures_serialize_as_points(self):
        p = schrodinger_symbol(model_potential("constant", v_inf=0.0, N=1))
        neg = ScalarPhaseFunction(eval_on=lambda x, xi: -x * xi,
                                  grad_on=lambda x, xi: np.column_stack([-xi, -x]))
        cert = escape_check_general(p, neg, 1.0, ((-2, 2), (-2, 2)), grid_points=41)
        d = cert.to_json_dict()
        assert d["failures"] == [[float(x), float(xi)] for x, xi in cert.failures[:32]]

    def test_bracket_matches_dilation_on_shell(self):
        # {p, x.xi} = 2 xi^2 I - x gradV equals the dilation matrix when
        # xi^2 = tau0 - e_k(x), evaluated on matched samples
        v = model_potential("reference")
        p = schrodinger_symbol(v)
        g = dilation_generator()
        tau0 = 2.0
        for x in np.linspace(-2.5, 2.5, 21):
            evals = np.linalg.eigvalsh(v(x))
            gv = v.gradient(x)[0]
            for ek in evals:
                if tau0 - ek <= 0:
                    continue
                xi = math.sqrt(tau0 - ek)
                gp = p.gradient(np.array([x, xi]))
                gg = g.gradient(x, xi)
                bracket = gg[0] * gp[1] - gg[1] * gp[0]
                dil = 2.0 * (tau0 - ek) * np.eye(2) - x * gv
                assert np.max(np.abs(bracket - dil)) < 1e-10


class TestLinearizedAndExtension:
    def test_full_kernel_gives_pure_linearization(self):
        h = free_symbol(N=1, tau0=1.0)  # H(0,1) = 0
        h0 = linearized_block_symbol(h, [0.0, 1.0])
        for xi in (0.5, 1.0, 2.0, 5.0):
            assert h0(0.3, xi)[0, 0].real == pytest.approx(-2.0 * (xi - 1.0), abs=1e-12)

    def test_invertible_point_frozen(self):
        h = free_symbol(N=1, tau0=1.0)
        h0 = linearized_block_symbol(h, [0.0, 2.0])  # H = -3 invertible
        for xi in (0.0, 1.0, 3.0):
            assert h0(1.0, xi)[0, 0].real == pytest.approx(-3.0, abs=1e-12)

    def test_block_case(self):
        def ev(x, xi):
            out = np.zeros((len(x), 2, 2))
            out[:, 0, 0] = x + 2.0 * (xi - 1.0)
            out[:, 1, 1] = 5.0
            return out

        h = MatrixSymbol(N=2, eval_on=ev, grad_on=constant_grad(
            [[[1.0, 0.0], [0.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]]))
        h0 = linearized_block_symbol(h, [0.0, 1.0])
        out = h0(0.3, 1.2)
        assert out[0, 0].real == pytest.approx(0.3 + 0.4, abs=1e-12)
        assert out[1, 1].real == pytest.approx(5.0, abs=1e-12)
        assert abs(out[0, 1]) < 1e-14

    def test_ambiguous_split_rejected(self):
        h = affine_jet_symbol(np.diag([5e-8, 1.0]), np.eye(2))
        with pytest.raises(KernelSplitError):
            linearized_block_symbol(h, [0.0, 0.0], kernel_tol=1e-8)

    def test_extension_of_affine_symbol_is_identity(self):
        h = MatrixSymbol(N=1, eval_on=lambda x, xi: (-2.0 * (xi - 1.0))[:, None, None],
                         grad_on=constant_grad([[[0.0]], [[-2.0]]]))
        hd, rep = extend_to_global(h, [0.0, 1.0], [0.0, -1.0], 0.5)
        assert rep.ok
        for rho in ([0.0, 1.1], [3.0, -2.0], [0.0, 40.0]):
            assert hd(rho[0], rho[1])[0, 0].real == pytest.approx(
                -2.0 * (rho[1] - 1.0), abs=1e-12)

    def test_extension_free_symbol_far_field_closed_form(self):
        h = free_symbol(N=1, tau0=1.0)
        hd, rep = extend_to_global(h, [0.0, 1.0], [0.0, -1.0], 0.5)
        assert rep.ok
        assert rep.worst_slack > 0
        # far field is the linearization H0 = -2(xi - 1)
        for xi in (3.0, 5.0, 100.0):
            assert hd(0.0, xi)[0, 0].real == pytest.approx(-2.0 * (xi - 1.0), abs=1e-10)
        # slack at a far-field sample matches the closed form
        c0_, c1_ = rep.C0, rep.C1
        xi = 1.0 + 8.0 * rep.delta
        expected = 2.0 + c1_ * (2.0 * (xi - 1.0)) ** 2 - c0_
        got = check_definition(hd, [0.0, xi], [0.0, -1.0], c0_, c1_)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_extension_crossing_symbol(self):
        h = crossing_symbol(1.0)
        hd, rep = extend_to_global(h, [0.0, 1.0], [0.0, -1.0], 0.4)
        assert rep.ok
        assert rep.worst_slack > 0

    def test_extension_matches_input_bitwise_inside(self):
        h = crossing_symbol(1.0)
        hd, rep = extend_to_global(h, [0.0, 1.0], [0.0, -1.0], 0.4)
        rho0 = np.array([0.0, 1.0])
        for d in ([0.1, 0.2], [-0.2, 0.1], [0.0, 0.3]):
            rho = rho0 + np.array(d) * (rep.delta / 0.5)
            if np.linalg.norm(rho - rho0) <= rep.delta:
                assert np.array_equal(hd.on(rho[:1], rho[1:]), h.on(rho[:1], rho[1:]))

    def test_extension_requires_valid_point(self):
        with pytest.raises(ValueError):
            extend_to_global(crossing_symbol(0.0), [0.0, 0.0], [1.0, 0.0], 0.5)


class TestFlatten:
    def test_identity_below_window(self, rng):
        h = crossing_symbol(1.0)
        hf = flatten_symbol(h, 50.0)
        for _ in range(10):
            x, xi = rng.uniform(-2, 2, size=(2, 1))
            assert np.array_equal(hf.on(x, xi), h.on(x, xi))

    def test_constant_saturation(self):
        a = 1.0
        h = MatrixSymbol(N=1, eval_on=lambda x, xi: np.full((len(x), 1, 1), 3.0 * a))
        hf = flatten_symbol(h, a)
        val = hf(0.0, 0.0)[0, 0].real
        assert a <= val <= 2.0 * a
        assert val == pytest.approx(1.5 * a)

    def test_flattened_extension_still_certified(self):
        h = free_symbol(N=1, tau0=1.0)
        hd, rep = extend_to_global(h, [0.0, 1.0], [0.0, -1.0], 0.5)
        # radius over the frozen zone, doubled
        radius = max(abs(hd(0.0, 1.0 + t)[0, 0].real) for t in np.linspace(-rep.delta, rep.delta, 9))
        hf = flatten_symbol(hd, max(2.0 * radius, 0.5))
        grid = np.linspace(-2.0, 2.0, 7)
        worst = min(
            check_definition(hf, [0.0 + dx, 1.0 + dxi], [0.0, -1.0], rep.C0, rep.C1)
            for dx in grid * rep.delta for dxi in grid * rep.delta
        )
        assert worst > 0

    def test_bound(self):
        h = MatrixSymbol(N=2,
                         eval_on=lambda x, xi: (100.0 * x)[:, None, None] * np.diag([1.0, -1.0]))
        hf = flatten_symbol(h, 2.0)
        assert np.linalg.norm(hf(5.0, 0.0), 2) <= 2 * 2.0 + 1e-12
        with pytest.raises(ValueError):
            flatten_symbol(h, 0.0)


class TestBoundaryValues:
    CHI = ProductCutoff(g=Bump1D(0, 2.0), k=Bump1D(0, 2.0))

    def test_single_resolvent_shell_density(self):
        # Im(F+ - F-) = -2 pi * (shell density), density by direct quadrature
        v = model_potential("constant", v_inf=0.0, N=1)
        bp = boundary_value_extrapolate(v, 1.0, self.CHI, 1.0, side=+1, form="single")
        bm = boundary_value_extrapolate(v, 1.0, self.CHI, 1.0, side=-1, form="single")
        assert bp.converged and bm.converged
        ig, = adaptive_gauss_batch(lambda owner, x: self.CHI.g(x), [-2], [2], atol=1e-13)
        density = ig * (self.CHI.k(1.0) + self.CHI.k(-1.0)) / 2.0
        diff = bp.value - bm.value
        assert abs(diff.real) < 1e-8
        assert diff.imag == pytest.approx(-2.0 * math.pi * density, abs=1e-4)

    def test_sandwich_matches_density_derivative(self):
        # the two-resolvent form picks up the tau-derivative of the density
        v = model_potential("constant", v_inf=0.0, N=1)
        bp = boundary_value_extrapolate(v, 1.0, self.CHI, 1.0, side=+1, form="sandwich")
        bm = boundary_value_extrapolate(v, 1.0, self.CHI, 1.0, side=-1, form="sandwich")
        ig, = adaptive_gauss_batch(lambda owner, x: self.CHI.g(x), [-2], [2], atol=1e-13)

        def density(s):
            return ig * (self.CHI.k(math.sqrt(s)) + self.CHI.k(-math.sqrt(s))) / (2.0 * math.sqrt(s))

        d = 1e-5
        slope = (density(1.0 + d) - density(1.0 - d)) / (2.0 * d)
        assert (bp.value - bm.value).imag == pytest.approx(2.0 * math.pi * slope, abs=1e-4)

    def test_below_spectrum_real_limit(self):
        v = model_potential("constant", v_inf=0.0, N=1)
        bp = boundary_value_extrapolate(v, 1.0, self.CHI, -3.0, side=+1, form="sandwich")
        bm = boundary_value_extrapolate(v, 1.0, self.CHI, -3.0, side=-1, form="sandwich")
        assert abs(bp.value - bm.value) < 1e-10
        assert abs(bp.value.imag) < 1e-10

    def test_crossing_at_level_reports_ratios(self):
        # no ground truth asserted: the run must complete and report its
        # contraction diagnostics
        v = model_potential("conical_crossing")
        out = boundary_value_extrapolate(v, np.eye(2), self.CHI, 0.0, side=+1,
                                         form="single", levels=6, x_order=24)
        assert out.ratios.size >= 3
        assert isinstance(out.converged, bool)

    def test_input_validation(self):
        v = model_potential("constant", v_inf=0.0, N=1)
        with pytest.raises(ValueError):
            boundary_value_extrapolate(v, 1.0, self.CHI, 1.0, side=0)
        with pytest.raises(ValueError):
            boundary_value_extrapolate(v, 1.0, self.CHI, 1.0, form="weird")

    def test_g_must_be_scalar_identity(self):
        v = model_potential("conical_crossing")
        for g in (np.diag([1.0, 2.0]), lambda x, xi: np.eye(2), np.eye(3)):
            with pytest.raises(ValueError, match="scalar multiple of the identity"):
                boundary_value_extrapolate(v, g, self.CHI, 1.0, levels=2, x_order=4)
        one = boundary_value_extrapolate(v, 1.0, self.CHI, 1.0, levels=2, x_order=4)
        two = boundary_value_extrapolate(v, 2.0 * np.eye(2), self.CHI, 1.0, levels=2, x_order=4)
        assert two.value == pytest.approx(2.0 * one.value, rel=1e-9)


# Reference loops: the certificate layer before its small eigenproblems were
# stacked, one eigvalsh call per direction, rung or sample.  The batched code
# must agree with them bit for bit.

def _find_direction_loop(h, rho0, kernel_tol=None, coarse=256, refine_steps=40):
    rho0 = np.atleast_1d(np.asarray(rho0, dtype=float))
    if kernel_tol is None:
        kernel_tol = default_kernel_tol(h.at(rho0))
    grad = h.gradient(rho0)
    values, vectors = hermitian_eigen(h.at(rho0))
    mask = np.abs(values) <= kernel_tol
    if not np.any(mask):
        mask = np.ones(h.N, dtype=bool)
    vk = vectors[:, mask]
    proj = np.stack([vk.conj().T @ gi @ vk for gi in grad])

    def value(tvec):
        return float(np.linalg.eigvalsh(np.tensordot(tvec, proj, axes=(0, 0))).min())

    angles = np.linspace(0.0, 2.0 * math.pi, coarse, endpoint=False)
    vals = np.array([value(np.array([math.cos(p), math.sin(p)])) for p in angles])
    i_best = int(np.argmax(vals))
    lo = angles[i_best] - 2.0 * math.pi / coarse
    hi = angles[i_best] + 2.0 * math.pi / coarse
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc = value(np.array([math.cos(c), math.sin(c)]))
    fd = value(np.array([math.cos(d), math.sin(d)]))
    for _ in range(refine_steps):
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = value(np.array([math.cos(c), math.sin(c)]))
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = value(np.array([math.cos(d), math.sin(d)]))
    phi_best = 0.5 * (lo + hi)
    best = np.array([math.cos(phi_best), math.sin(phi_best)])
    return None if value(best) <= 0.0 else best


def _check_pointwise_loop(h, rho0, t, kernel_tol=None):
    rho0 = np.atleast_1d(np.asarray(rho0, dtype=float))
    tv = unit(t)
    a = h.at(rho0)
    if kernel_tol is None:
        kernel_tol = default_kernel_tol(a)
    values, vectors = hermitian_eigen(a)
    mask = np.abs(values) <= kernel_tol
    if not np.any(mask):
        c0 = 0.5 * float(np.min(np.abs(values)))
    else:
        vk = vectors[:, mask]
        c = float(np.linalg.eigvalsh(vk.conj().T @ directional_derivative(h, rho0, tv) @ vk).min())
        if c <= 0.0:
            return dict(valid=False, C0=c, C1=0.0, margin=c)
        c0 = 0.5 * c
    best_slack = -math.inf
    for c1 in C1_LADDER:
        slack = check_definition(h, rho0, tv, c0, c1)
        best_slack = max(best_slack, slack)
        if slack >= 0.0:
            return dict(valid=True, C0=c0, C1=c1, margin=slack)
    return dict(valid=False, C0=c0, C1=C1_LADDER[-1], margin=best_slack)


def _check_on_energy_shell_loop(p, tau0, box, T, grid_points):
    """(valid, C0, C1, margin, failures, per_point_T) of the shell check as
    one find_direction and one check_pointwise per shell point."""
    tol = default_shell_tol(tau0)
    h = shifted_symbol(p, tau0)
    pts = shell_sample(p, tau0, box, tol, grid_points)
    worst_c0, worst_c1, worst_margin = math.inf, 0.0, math.inf
    failures, tvs = [], []
    for rho in pts:
        if T is not None:
            tv = unit(T)
        else:
            d = _find_direction_loop(h, rho, kernel_tol=tol)
            if d is None:
                failures.append(rho)
                continue
            tv = d
        cert = _check_pointwise_loop(h, rho, tv, kernel_tol=tol)
        if not cert["valid"]:
            failures.append(rho)
            continue
        tvs.append(tv)
        worst_c0 = min(worst_c0, cert["C0"])
        worst_c1 = max(worst_c1, cert["C1"])
        worst_margin = min(worst_margin, cert["margin"])
    if pts.size == 0:
        return (False, 0.0, 0.0, 0.0, [], None)
    if failures:
        return (False, 0.0, worst_c1, -math.inf, [f.tolist() for f in failures], None)
    return (True, worst_c0, worst_c1, worst_margin, [],
            np.asarray(tvs).tolist() if T is None else None)


def _escape_check_dilation_loop(v, tau0, allowed_tol=1e-9, grid_points=2001):
    xs = np.linspace(-8.0, 8.0, grid_points)
    sup_v = sup_xdv = 0.0
    worst, worst_at = math.inf, None
    failures, samples = [], []
    eye = np.eye(v.N)
    for x in xs:
        mat = v(x)
        gv = v.gradient(x)[0]
        sup_v = max(sup_v, float(np.linalg.norm(mat, 2)))
        sup_xdv = max(sup_xdv, 0.5 * float(np.linalg.norm(x * gv, 2)))
        for k, ek in enumerate(hermitian_eigen(mat)[0]):
            if tau0 - ek < -allowed_tol:
                continue
            samples.append((x, k))
            w = float(np.linalg.eigvalsh(2.0 * (tau0 - ek) * eye - x * gv).min())
            if w < worst:
                worst, worst_at = w, (x, k)
            if w <= 0.0:
                failures.append(np.array([x, float(k)]))
    valid = worst > 0.0 and not failures and bool(samples)
    return EscapeCertificate(
        valid=valid, tau0=tau0, G_kind="dilation",
        C=worst if valid else (worst if worst_at is not None else 0.0),
        samples=np.asarray(samples, dtype=float).reshape(-1, 2),
        shell_tol=allowed_tol, failures=failures, threshold_bound=sup_xdv + sup_v,
    )


def _crossing_condition_loop(v, x0, tau0):
    """(T1, value) of the best candidate, or None when no level touches tau0."""
    values, vectors = hermitian_eigen(v(x0) - tau0 * np.eye(v.N))
    mask = np.abs(values) <= default_shell_tol(tau0)
    if not np.any(mask):
        return None
    vk = vectors[:, mask]
    proj = np.stack([vk.conj().T @ gi @ vk for gi in v.gradient(x0)])
    cands = [np.array([1.0]), np.array([-1.0])]
    vals = [float(np.linalg.eigvalsh(np.tensordot(c, proj, axes=(0, 0))).min()) for c in cands]
    i_best = int(np.argmax(vals))
    return cands[i_best], vals[i_best]


def _escape_check_general_loop(p, g, tau0, box, grid_points):
    """(shell points, bracket min-eig per point), one eigvalsh per point."""
    pts = shell_sample(p, tau0, box, default_shell_tol(tau0), grid_points)
    ws = []
    for x, xi in pts:
        gp = p.gradient(np.array([x, xi]))
        gg = g.gradient(x, xi)
        ws.append(float(np.linalg.eigvalsh(gg[0] * gp[1] - gg[1] * gp[0]).min()))
    return pts, ws

def jet_symbol(a, grads):
    """H(rho) = A + <rho, grads> on the phase plane: a symbol with a prescribed gradient."""
    def ev(x, xi):
        rho = np.column_stack([x, xi])
        return a + sum(rho[:, i, None, None] * g for i, g in enumerate(grads))

    return MatrixSymbol(N=a.shape[0], eval_on=ev, grad_on=constant_grad(grads))


def random_jet(rng, n_ch):
    """A jet at 0 whose value has a kernel of random dimension (0 = invertible),
    with a small non-kernel part half the time and real entries half the time."""
    a = random_hermitian(rng, n_ch)
    k = int(rng.integers(0, n_ch + 1))
    a[:k, :] = 0.0
    a[:, :k] = 0.0
    if rng.integers(2):
        a *= 10.0 ** rng.uniform(-5.0, 0.0)
    grads = np.stack([random_hermitian(rng, n_ch) for _ in range(2)])
    if rng.integers(2):
        a, grads = a.real.copy(), grads.real.copy()
    return jet_symbol(a, grads)


class TestBatchedMatchesLoops:
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 4]),
           st.sampled_from([1, 2, 3]), st.booleans())
    def test_stacked_scan_values(self, seed, dim, r, real):
        # every stacked value equals the single-direction value, not just the argmax
        rng = np.random.default_rng(seed)
        proj = np.stack([random_hermitian(rng, r) for _ in range(dim)])
        if real:
            proj = proj.real.copy()
        tvecs = rng.standard_normal((257, dim))
        ref = [float(np.linalg.eigvalsh(np.tensordot(t, proj, axes=(0, 0))).min()) for t in tvecs]
        assert np.array_equal(_min_eigs(tvecs, proj), ref)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 3]))
    def test_find_direction(self, seed, n_ch):
        rng = np.random.default_rng(seed)
        h = random_jet(rng, n_ch)
        rho0 = np.zeros(2)
        got, ref = find_direction(h, rho0), _find_direction_loop(h, rho0)
        assert (got is None) == (ref is None)
        if got is not None:
            assert np.array_equal(got, ref)

    def test_find_direction_on_shell_points(self):
        h = crossing_symbol(1.0)
        for rho in ([0.0, 1.0], [0.5, 0.9], [-1.2, -0.8], [0.0, 0.0]):
            got, ref = find_direction(h, rho), _find_direction_loop(h, rho)
            assert (got is None) == (ref is None)
            if got is not None:
                assert np.array_equal(got, ref)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([1, 2, 3]))
    def test_check_pointwise(self, seed, n_ch):
        rng = np.random.default_rng(seed)
        h = random_jet(rng, n_ch)
        t = rng.standard_normal(2)
        cert = check_pointwise(h, [0.0, 0.0], t)
        ref = _check_pointwise_loop(h, [0.0, 0.0], t)
        assert {k: getattr(cert, k) for k in ref} == ref
        assert len(cert.failures) == (0 if ref["valid"] else 1)

    def test_check_pointwise_ladder_exhausted(self):
        # kernel compression positive, but the complement needs C1 > 2^20
        h = affine_jet_symbol(np.diag([0.0, 1e-4]), np.diag([1.0, -1.0]))
        cert = check_pointwise(h, [0.0, 0.0], [1.0, 0.0])
        ref = _check_pointwise_loop(h, [0.0, 0.0], [1.0, 0.0])
        assert not cert.valid and cert.C1 == C1_LADDER[-1]
        assert {k: getattr(cert, k) for k in ref} == ref

    @pytest.mark.parametrize("mode,T", [("per_point_T", None), ("fixed_T", [0.6, -0.8])])
    @pytest.mark.parametrize("tau0", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("v", [
        model_potential("constant", v_inf=0.0, N=1),
        model_potential("diagonal_bumps", depths=[-1.0], centers=[0.0], widths=[1.0]),
        model_potential("conical_crossing"),
        model_potential("avoided_crossing", gap=0.2),
        model_potential("reference"),
        gauss_potential([[1.5, 1j], [-1j, -0.5]]),
    ], ids=["free", "gauss_well", "conical", "avoided", "reference", "complex"])
    def test_check_on_energy_shell(self, v, tau0, mode, T):
        # the lock-step directions and shared point data against one search
        # and one pointwise check per shell point, equal by repr; ``mode``
        # names the case, as T alone picks the fixed direction
        box = ((-3.0, 3.0), (-2.5, 2.5))
        cert = check_on_energy_shell(schrodinger_symbol(v), tau0, box, T=T, grid_points=21)
        ref = _check_on_energy_shell_loop(schrodinger_symbol(v), tau0, box, T, 21)
        got = (cert.valid, cert.C0, cert.C1, cert.margin,
               [np.asarray(f).tolist() for f in cert.failures],
               None if cert.per_point_T is None else cert.per_point_T.tolist())
        assert repr(got) == repr(ref)

    @pytest.mark.parametrize("tau0", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("v", [
        model_potential("constant", v_inf=0.0, N=1),
        model_potential("diagonal_bumps", depths=[-1.0], centers=[0.0], widths=[1.0]),
        model_potential("conical_crossing"),
        model_potential("avoided_crossing", gap=0.2),
        model_potential("reference"),
        gauss_potential([[1.5, 1j], [-1j, -0.5]]),
    ], ids=["free", "gauss_well", "conical", "avoided", "reference", "complex"])
    def test_escape_check_dilation(self, v, tau0):
        cert = escape_check_dilation(v, tau0, grid_points=301)
        ref = _escape_check_dilation_loop(v, tau0, grid_points=301)
        assert np.array_equal(cert.samples, ref.samples)
        assert cert.to_json_dict() == ref.to_json_dict()
        assert len(cert.failures) == len(ref.failures)
        assert all(np.array_equal(a, b) for a, b in zip(cert.failures, ref.failures))

    def test_escape_check_dilation_failures(self):
        # the engineered touching profile of TestEscapeChecks, sampled densely
        v = gauss_potential(np.ones((1, 1)), center=1.0, amp=1.2)
        cert = escape_check_dilation(v, 1.0, grid_points=4001)
        ref = _escape_check_dilation_loop(v, 1.0, grid_points=4001)
        assert len(cert.failures) > 32
        assert cert.to_json_dict() == ref.to_json_dict()
        assert all(np.array_equal(a, b) for a, b in zip(cert.failures, ref.failures))

    def test_escape_check_dilation_rejects_non_hermitian_sample(self):
        v = MatrixPotential(
            N=2, eval_on=lambda xs: np.where(xs > 1.0, 1.0, 0.0)[:, None, None] * SIGMA_UP,
            grad_on=constant_grad(np.zeros((1, 2, 2))), v_infinity=np.zeros((2, 2)))
        with pytest.raises(NonHermitianError):
            escape_check_dilation(v, 1.0, grid_points=101)

    @pytest.mark.parametrize("x0", [0.0, 0.4, -1.1])
    @pytest.mark.parametrize("level", [0, 1, None])
    @pytest.mark.parametrize("v", [
        model_potential("conical_crossing"),
        model_potential("avoided_crossing", gap=0.2),
        model_potential("reference"),
        gauss_potential([[1.5, 1j], [-1j, -0.5]], center=0.3),
    ], ids=["conical", "avoided", "reference", "complex"])
    def test_crossing_condition(self, v, x0, level):
        # tau0 on the lower or upper level of V(x), or on neither
        tau0 = 1.0 if level is None else float(np.linalg.eigvalsh(v(x0))[level])
        res = crossing_condition(v, x0, tau0)
        ref = _crossing_condition_loop(v, x0, tau0)
        if ref is None:
            assert res.note == "no level touches tau0"
            return
        t1, fbest = ref
        assert res.best_value == fbest
        assert res.ok == (fbest > 0.0)
        if res.ok:
            assert np.array_equal(res.T1, t1) and res.C == 1.0 / fbest

    @pytest.mark.parametrize("tau0", [0.5, 2.0])
    @pytest.mark.parametrize("g", [
        dilation_generator(),
        ScalarPhaseFunction(eval_on=lambda x, xi: (x - 0.5) * xi,
                            grad_on=lambda x, xi: np.column_stack([xi, x - 0.5])),
    ], ids=["dilation", "shifted"])
    def test_escape_check_general(self, g, tau0):
        p = schrodinger_symbol(model_potential("reference"))
        box = ((-3.0, 3.0), (-2.5, 2.5))
        cert = escape_check_general(p, g, tau0, box, grid_points=21)
        pts, ws = _escape_check_general_loop(p, g, tau0, box, 21)
        assert np.array_equal(cert.samples, pts)
        failures = [pt for pt, w in zip(pts, ws) if w <= 0.0]
        assert len(cert.failures) == len(failures)
        assert all(np.array_equal(a, b) for a, b in zip(cert.failures, failures))
        assert cert.C == (min(ws) if not failures else 0.0)


class TestGoldenCertificates:
    """C0, C1 and margin on the benchmark's zoo box (11-point grid) and escape
    grid (201 points), pinned by repr from the per-call implementation."""

    BOX = ((-3.0, 3.0), (-2.5, 2.5))

    @pytest.mark.parametrize("kind,tau0,c0,c1,margin", [
        ("reference", 1.0, "0.999999999999001", "1.0", "1.0000000006557153"),
        ("reference", 2.0, "1.533608001839097", "1.0", "1.4484706660120177"),
        ("conical_crossing", 1.0, "0.9999999999668552", "1.0", "0.9999999999668552"),
        ("conical_crossing", 2.0, "1.5164434300165108", "1.0", "1.5176208332883905"),
    ])
    def test_shell(self, kind, tau0, c0, c1, margin):
        cert = check_on_energy_shell(schrodinger_symbol(model_potential(kind)), tau0,
                                     self.BOX, grid_points=11)
        assert cert.valid
        assert (repr(cert.C0), repr(cert.C1), repr(cert.margin)) == (c0, c1, margin)

    @pytest.mark.parametrize("kind,tau0,c,n_points,n_failures", [
        ("reference", 2.0, 1.9903456765793814, 176, 0),
        ("island", 0.6, 0.0, 114, 14),
    ])
    def test_general_escape(self, kind, tau0, c, n_points, n_failures):
        # the bracket {xi^2 + V, x.xi} on the harness's default box and grid
        cert = escape_check_general(schrodinger_symbol(model_potential(kind)),
                                    dilation_generator(), tau0, ((-4.0, 4.0), (-3.0, 3.0)))
        doc = cert.to_json_dict()
        assert cert.valid == (n_failures == 0)
        assert (doc["n_points"], len(cert.failures)) == (n_points, n_failures)
        assert doc["C"] == pytest.approx(c, rel=0, abs=1e-14)

    def test_escape(self):
        cert = escape_check_dilation(model_potential("reference"), 2.0, grid_points=201)
        doc = cert.to_json_dict()
        assert cert.valid and doc["n_points"] == 402
        assert (repr(doc["C"]), repr(doc["margin"])) == ("2.0262619167674587",) * 2
        assert repr(cert.threshold_bound) == "1.6284329963911308"
