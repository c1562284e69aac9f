import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_hermitian
from mh_constructions import hermitian_eigen
from ssf_lab.symbols import (
    SIGMA1,
    SIGMA3,
    MatrixPotential,
    MatrixSymbol,
    NonHermitianError,
    combine_potentials,
    fast_eigvalsh,
    model_potential,
    schrodinger_symbol,
    shifted_symbol,
)

# closed-form 2x2 eigenvalues of the reference potential at x = 0
VREF0_BRANCHES = (-1.1829032360881848, 0.366842956673906)


class TestHermitianEigen:
    def test_diagonal(self):
        values, _ = hermitian_eigen(np.diag([3.0, -1.0]))
        assert np.allclose(values, [-1.0, 3.0], atol=0)

    def test_pauli_sigma1(self):
        values, vectors = hermitian_eigen(SIGMA1)
        assert np.allclose(values, [-1.0, 1.0], atol=1e-15)
        minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert abs(abs(np.vdot(vectors[:, 0], minus)) - 1.0) < 1e-12
        assert abs(abs(np.vdot(vectors[:, 1], plus)) - 1.0) < 1e-12

    def test_random_reconstruction(self, rng):
        # oracle: direct multiplication of the spectral factors
        a = random_hermitian(rng, 4)
        values, vectors = hermitian_eigen(a)
        product = (vectors * values) @ vectors.conj().T
        assert np.max(np.abs(product - 0.5 * (a + a.conj().T))) < 1e-12

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NonHermitianError) as err:
            hermitian_eigen(bad)
        assert err.value.defect == pytest.approx(1.0)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
    def test_properties(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, n)
        values, vectors = hermitian_eigen(a)
        assert np.all(np.diff(values) >= 0)
        gram = vectors.conj().T @ vectors
        assert np.max(np.abs(gram - np.eye(n))) < 1e-12
        scale = max(1.0, float(np.linalg.norm(a, 2)))
        for k in range(n):
            res = a @ vectors[:, k] - values[k] * vectors[:, k]
            assert np.linalg.norm(res) < 1e-12 * scale

    def test_fast_eigvalsh_matches_lapack(self, rng):
        for n in (1, 2, 3):
            a = random_hermitian(rng, n)
            assert np.allclose(fast_eigvalsh(a), np.linalg.eigvalsh(a), atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fast_eigvalsh_stack_matches_single_calls(self, rng, n):
        # a stack gives each matrix the values it gets alone, bit for bit;
        # complex 2x2 off-diagonals are where array abs/hypot would round apart
        stack = np.stack([random_hermitian(rng, n) for _ in range(400)]).reshape(20, 20, n, n)
        got = fast_eigvalsh(stack)
        assert got.shape == (20, 20, n)
        singles = np.array([fast_eigvalsh(a) for a in stack.reshape(-1, n, n)])
        assert np.array_equal(got.reshape(-1, n), singles)
        assert np.array_equal(fast_eigvalsh(stack[:1, 0]), fast_eigvalsh(stack[0, 0])[None])


class TestBranches:
    def test_diagonal_potential(self):
        v = MatrixPotential(
            N=2, v_infinity=np.diag([0.0, 2.0]),
            eval_on=lambda xs: np.stack([np.exp(-xs * xs), np.full_like(xs, 2.0)],
                                        axis=1)[:, :, None] * np.eye(2),
        )
        assert np.allclose(hermitian_eigen(v(0.0))[0], [1.0, 2.0], atol=0)

    def test_linear_crossing(self):
        v = MatrixPotential(N=2, eval_on=lambda xs: xs[:, None, None] * SIGMA3,
                            v_infinity=np.zeros((2, 2)))
        assert np.allclose(hermitian_eigen(v(-0.5))[0], [-0.5, 0.5], atol=1e-15)
        assert np.allclose(hermitian_eigen(v(0.0))[0], [0.0, 0.0], atol=0)

    def test_reference_closed_form(self):
        v = model_potential("reference")
        assert np.allclose(hermitian_eigen(v(0.0))[0], VREF0_BRANCHES, atol=1e-13)

    def test_weyl_continuity_bound(self, rng):
        v = model_potential("reference")
        for _ in range(50):
            x = float(rng.uniform(-3, 3))
            d = float(rng.uniform(-0.3, 0.3))
            e0 = hermitian_eigen(v(x))[0]
            e1 = hermitian_eigen(v(x + d))[0]
            gap = float(np.linalg.norm(v(x + d) - v(x), 2))
            assert np.max(np.abs(e1 - e0)) <= gap + 1e-10


class TestSymbolGradient:
    def test_schrodinger_kinetic_exact(self):
        v = model_potential("reference")
        p = schrodinger_symbol(v)
        g = p.gradient(np.array([0.3, 1.7]))
        assert np.array_equal(g[1], 2.0 * 1.7 * np.eye(2))
        assert np.allclose(g[0], v.gradient(0.3)[0], atol=0)

    def test_sin_symbol_analytic_vs_fd(self):
        def ev(x, xi):
            return np.sin(x)[:, None, None] * SIGMA1 + (xi * xi)[:, None, None] * np.eye(2)

        def gr(x, xi):
            return np.stack([np.cos(x)[:, None, None] * SIGMA1,
                             (2.0 * xi)[:, None, None] * np.eye(2)], axis=1)

        h_exact = MatrixSymbol(N=2, eval_on=ev, grad_on=gr)
        h_fd = MatrixSymbol(N=2, eval_on=ev)
        rho = np.array([0.0, 1.0])
        ga = h_exact.gradient(rho)
        gf = h_fd.gradient(rho)
        assert np.allclose(ga[0], SIGMA1, atol=0)
        assert np.allclose(ga[1], 2.0 * np.eye(2), atol=0)
        assert np.max(np.abs(ga - gf)) < 1e-8

    def test_fd_agreement_on_random_sample(self, rng):
        v = model_potential("reference")
        p = schrodinger_symbol(v)
        p_fd = MatrixSymbol(N=2, eval_on=p.eval_on)
        for _ in range(100):
            rho = rng.uniform(-2, 2, size=2)
            ga = p.gradient(rho)
            gf = p_fd.gradient(rho)
            scale = max(1.0, float(np.max(np.abs(ga))))
            assert np.max(np.abs(ga - gf)) / scale < 1e-6

    def test_potential_fd_gradient_matches_analytic(self):
        # a potential without grad_on falls back to central differences in x
        ref = model_potential("reference")
        fd = MatrixPotential(N=2, eval_on=ref.eval_on, v_infinity=ref.v_infinity)
        for x in np.linspace(-3.0, 3.0, 25):
            np.testing.assert_allclose(fd.gradient(x), ref.gradient(x), rtol=0, atol=1e-8)

    def test_hermitian_output_everywhere(self, rng):
        p = schrodinger_symbol(model_potential("conical_crossing"))
        for _ in range(20):
            x, xi = rng.uniform(-2, 2, size=2)
            m = p(x, xi)
            assert np.max(np.abs(m - m.conj().T)) < 1e-14


class TestModelPotentials:
    def test_constant_zero(self):
        v = model_potential("constant", v_inf=0.0, N=2)
        assert np.array_equal(v(1.3), np.zeros((2, 2)))
        assert np.array_equal(v.gradient(1.3), np.zeros((1, 2, 2)))

    def test_conical_crossing_branches(self):
        v = model_potential("conical_crossing")
        for x in (-1.1, -0.2, 0.4, 2.0):
            expect = abs(x) * math.exp(-x * x)
            assert np.allclose(hermitian_eigen(v(x))[0], [-expect, expect], atol=1e-15)
        assert np.allclose(hermitian_eigen(v(0.0))[0], [0.0, 0.0], atol=0)

    def test_avoided_crossing_gap(self):
        v = model_potential("avoided_crossing", gap=0.35)
        assert np.allclose(hermitian_eigen(v(0.0))[0], [-0.35, 0.35], atol=1e-15)
        # away from zero the branches avoid each other by at least the gap
        for x in (-1.0, 0.5, 1.5):
            e = hermitian_eigen(v(x))[0]
            assert e[1] - e[0] >= 2 * 0.35 - 1e-12

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            model_potential("constant", v_inf=[], N=0)
        with pytest.raises(ValueError):
            model_potential("nonsense")
        with pytest.raises(ValueError):
            model_potential("diagonal_bumps", depths=[1.0], centers=[0.0, 1.0],
                            widths=[1.0], v_inf=[0.0])

    @pytest.mark.parametrize("kind,params,unread", [
        ("island", {"ampp": 30.0}, "ampp"),
        ("reference", {"amp": 2.0}, "amp"),
        ("constant", {"v_inf": 0.0, "n": 2}, "n"),
    ])
    def test_unread_params(self, kind, params, unread):
        # a misspelt param does not leave the model at its default
        with pytest.raises(ValueError, match=f"model '{kind}' reads no {unread}$"):
            model_potential(kind, **params)

    def test_v_infinity_validation(self):
        with pytest.raises(ValueError):
            MatrixPotential(N=2, eval_on=lambda xs: np.zeros((len(xs), 2, 2)),
                            v_infinity=np.diag([2.0, 1.0]))  # decreasing
        with pytest.raises(ValueError):
            MatrixPotential(N=2, eval_on=lambda xs: np.zeros((len(xs), 2, 2)),
                            v_infinity=np.array([[0.0, 1.0], [1.0, 0.0]]))  # off-diagonal


class TestSymbolConstruction:
    def test_schrodinger_symbol_exact_formula(self, rng):
        v = model_potential("reference")
        p = schrodinger_symbol(v)
        for _ in range(10):
            x, xi = rng.uniform(-2, 2, size=(2, 1))
            assert np.array_equal(p.on(x, xi)[0], xi[0] * xi[0] * np.eye(2) + v.on(x)[0])

    def test_shifted_symbol(self):
        v = model_potential("constant", v_inf=0.0, N=1)
        h = shifted_symbol(schrodinger_symbol(v), 1.0)
        assert h(0.0, 1.0)[0, 0] == 0.0
        assert h(0.0, 0.0)[0, 0] == 1.0

    def test_combine_potentials(self):
        v0 = model_potential("conical_crossing")
        v1 = model_potential("constant", v_inf=0.0, N=2)
        w = combine_potentials(v0, v1)
        assert np.allclose(w(0.7), v0(0.7), atol=0)
        with pytest.raises(ValueError):
            combine_potentials(v0, model_potential("constant", v_inf=0.0, N=1))
