"""Array forms of potentials and symbols: a row of a batch equals the same
point as a one-point batch bit for bit, and the callers evaluate a potential
a fixed number of times whatever their grid size."""
import json
import math
import os

import numpy as np
import pytest

from ssf_lab import cli
from ssf_lab import quantization as qz
from ssf_lab.bumps import Bump1D, ProductCutoff
from ssf_lab.coefficients import (
    _branch_values,
    _turning_points,
    bump_test_function,
    gamma0_localized,
)
from ssf_lab.microhyperbolicity import (
    boundary_value_extrapolate,
    check_on_energy_shell,
    escape_check_dilation,
)
from ssf_lab.quantization import SupportMarginError, WindowTheta, potential_samples
from ssf_lab.ssf import MarginError, build_pair
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

KINDS = {
    "constant": model_potential("constant", v_inf=[0.0, 0.5]),
    "diagonal_bumps": model_potential("diagonal_bumps", depths=[-1.0, 0.7], centers=[0.3, -0.5],
                                      widths=[1.0, 0.6], v_inf=[0.0, 0.2]),
    "conical_crossing": model_potential("conical_crossing", amp=1.3),
    "avoided_crossing": model_potential("avoided_crossing", gap=0.2),
    "reference": model_potential("reference"),
    "island": model_potential("island"),
    "rotating_crossing": model_potential("rotating_crossing", c=3.0),
    "combined": combine_potentials(model_potential("reference"),
                                   model_potential("diagonal_bumps", depths=[0.5, 0.3],
                                                   centers=[5.0, 5.0], widths=[0.4, 0.4])),
}

XS = np.concatenate([np.linspace(-8.0, 8.0, 401),
                     np.random.default_rng(7).standard_normal(400) * 3.0, [0.0, -0.0]])


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: stricter than np.array_equal, it also
    tells 0.0 from -0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRowsEqualOnePointBatches:
    @pytest.mark.parametrize("name", list(KINDS))
    def test_potential_values_and_gradients(self, name):
        v = KINDS[name]
        assert v.grad_on is not None
        vals, grads = v.on(XS), v.gradient_on(XS)
        assert vals.shape == (len(XS), v.N, v.N)
        assert grads.shape == (len(XS), 1, v.N, v.N)
        for x, row, grow in zip(XS.tolist(), vals, grads):
            assert same_bits(row, v.on([x])[0])
            assert same_bits(grow, v.gradient_on([x])[0])

    @pytest.mark.parametrize("name", ["reference", "avoided_crossing", "rotating_crossing"])
    def test_symbol_values_and_gradients(self, name):
        xis = np.linspace(-2.5, 2.5, len(XS))
        p = schrodinger_symbol(KINDS[name])
        for h in (p, shifted_symbol(p, 0.7)):
            vals, grads = h.on(XS, xis), h.gradient_on(XS, xis)
            for x, xi, row, grow in zip(XS.tolist(), xis.tolist(), vals, grads):
                assert same_bits(row, h.on([x], [xi])[0])
                assert same_bits(grow, h.gradient_on([x], [xi])[0])

    def test_one_point_rows_are_the_closed_forms(self):
        # the formulas the models have always had, one point at a time
        # through math.exp
        def reference(x):
            ex, ex1 = math.exp(-x * x), math.exp(-(x - 1.0) ** 2)
            return np.array([[-ex, 0.5 * ex], [0.5 * ex, 0.5 * ex1]])

        def reference_grad(x):
            ex, ex1 = math.exp(-x * x), math.exp(-(x - 1.0) ** 2)
            return np.array([[[2.0 * x * ex, -x * ex], [-x * ex, -(x - 1.0) * ex1]]])

        r = (SIGMA1 + SIGMA3) / math.sqrt(2.0)
        forms = [
            (KINDS["reference"], reference, reference_grad),
            (KINDS["conical_crossing"], lambda x: 1.3 * x * math.exp(-x * x) * SIGMA3,
             lambda x: (1.3 * math.exp(-x * x) * (1.0 - 2.0 * x * x) * SIGMA3)[None]),
            (KINDS["avoided_crossing"],
             lambda x: r @ (1.0 * x * math.exp(-x * x) * SIGMA3 + 0.2 * SIGMA1) @ r,
             lambda x: (r @ (1.0 * math.exp(-x * x) * (1.0 - 2.0 * x * x) * SIGMA3) @ r)[None]),
            (KINDS["island"], lambda x: np.array([[3.0 * x * x * math.exp(-x * x)]]),
             lambda x: np.array([[[2.0 * 3.0 * x * (1.0 - x * x) * math.exp(-x * x)]]])),
        ]
        for v, value, grad in forms:
            for x in XS.tolist():
                assert same_bits(v.on([x])[0], value(x))
                g = grad(x)
                assert same_bits(v.gradient_on([x])[0], 0.5 * (g + np.swapaxes(g, 1, 2)))


class TestNewModels:
    @pytest.mark.parametrize("name", ["island", "rotating_crossing"])
    def test_gradient_against_central_differences(self, name):
        v = KINDS[name]
        step = 1e-5
        xs = np.linspace(-3.0, 3.0, 61)
        fd = (v.on(xs + step) - v.on(xs - step)) / (2.0 * step)
        np.testing.assert_allclose(v.gradient_on(xs)[:, 0], fd, rtol=0, atol=1e-9)

    def test_island_profile(self):
        v = model_potential("island", amp=2.0)
        assert v.on([1.0])[0, 0, 0] == pytest.approx(2.0 / math.e, rel=1e-15)
        assert v.on([0.0])[0, 0, 0] == 0.0
        assert np.array_equal(v.v_infinity, np.zeros((1, 1)))

    def test_rotating_crossing_is_not_split(self):
        grid = qz.grid_for(1 / 8, 6.0, 4.0, 8192)
        v = model_potential("rotating_crossing")
        assert v.on([0.0])[0].tolist() == [[0.0, 0.0], [0.0, 0.0]]  # the branches cross at 0
        assert not isinstance(qz.build_schrodinger(v, grid), qz.SplitOperator)
        assert isinstance(qz.build_schrodinger(model_potential("conical_crossing"), grid),
                          qz.SplitOperator)


class TestFastEigvalsh:
    @staticmethod
    def alone(a):
        # the closed form on one matrix's own Python scalars
        a00, a11, a01 = a[0, 0].real.item(), a[1, 1].real.item(), a[0, 1].item()
        m = 0.5 * (a00 + a11)
        r = math.hypot(0.5 * (a00 - a11), abs(a01))
        return [m - r, m + r]

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_two_by_two_stack(self, rng, dtype):
        a = rng.standard_normal((2000, 2, 2))
        if dtype is complex:
            a = a + 1j * rng.standard_normal((2000, 2, 2))
        a = 0.5 * (a + np.conj(np.swapaxes(a, 1, 2)))
        got = fast_eigvalsh(a)
        assert got.shape == (2000, 2)
        assert np.array_equal(got, np.array([self.alone(m) for m in a]))
        assert all(np.array_equal(row, fast_eigvalsh(m)) for row, m in zip(got, a))


def counting(base: MatrixPotential):
    """``base`` with counters on its array calls."""
    calls = {"on": 0, "grad_on": 0}

    def on(xs):
        calls["on"] += 1
        return base.on(xs)

    def grad_on(xs):
        calls["grad_on"] += 1
        return base.gradient_on(xs)

    v = MatrixPotential(N=base.N, eval_on=on, grad_on=grad_on, v_infinity=base.v_infinity)
    return v, calls


ISLAND_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                             "check_escape_island.json")
CHI = ProductCutoff(g=Bump1D(0.0, 2.0), k=Bump1D(0.0, 2.0))


class TestFixedEvaluationCounts:
    """Each caller makes the same number of array calls at two grid sizes."""

    @pytest.mark.parametrize("size", [0, 1])
    def test_potential_samples(self, size):
        v, calls = counting(model_potential("reference"))
        potential_samples(v, qz.grid_for([1 / 8, 1 / 32][size], 6.0, 4.0, 8192))
        assert calls == {"on": 1, "grad_on": 0}

    @pytest.mark.parametrize("points", [101, 1001])
    def test_escape_check_dilation(self, points):
        v, calls = counting(model_potential("reference"))
        assert escape_check_dilation(v, 2.0, grid_points=points).valid
        assert calls == {"on": 1, "grad_on": 1}

    @pytest.mark.parametrize("points", [11, 41])
    def test_check_on_energy_shell(self, points):
        v, calls = counting(model_potential("conical_crossing"))
        cert = check_on_energy_shell(schrodinger_symbol(v), 0.5, ((-2, 2), (-2, 2)),
                                     grid_points=points)
        assert len(cert.points)
        # the shell sample, then H and its gradient at the shell points
        assert calls == {"on": 2, "grad_on": 1}

    @pytest.mark.parametrize("size", [0, 1])
    def test_theorem2_probe(self, size):
        v0, calls = counting(model_potential("reference"))
        near = combine_potentials(v0, model_potential("diagonal_bumps", depths=[0.1, 0.1],
                                                      centers=[2.5, 2.5], widths=[0.3, 0.3]))
        grids = [qz.grid_for([1 / 8, 1 / 32][size], 6.0, 4.0, 8192)]
        with pytest.raises(SupportMarginError):
            qz.theorem2_check(v0, near, CHI, bump_test_function((1.8, 2.2)), [2.0], grids,
                              WindowTheta(kind="bump_at_zero"))
        assert calls == {"on": 2, "grad_on": 0}  # the probe: once for v0, once inside v1

    @pytest.mark.parametrize("nodes", [64, 1024])
    def test_branch_values(self, nodes):
        v, calls = counting(model_potential("reference"))
        _branch_values(v, np.linspace(-8.0, 8.0, nodes))
        assert calls == {"on": 1, "grad_on": 0}

    @pytest.mark.parametrize("scan,steps", [(16, {"one": 53, "many": 54}),
                                            (96, {"one": 50, "many": 53})], ids=["16", "96"])
    def test_branch_grid(self, scan, steps):
        # the branch scan over supp g of the localized density's turning
        # points: one call for the scan, then one per lock-step bisection step
        # until the midpoint of every bracket of width 4 / (scan - 1) rounds to
        # one of its ends (at most 60), however many taus and roots share them
        found = {}
        for name, taus in [("above", [1.0]), ("one", [0.2]), ("many", np.linspace(-0.4, 0.4, 41))]:
            v, calls = counting(model_potential("conical_crossing"))
            roots = _turning_points(v, np.asarray(taus, dtype=float), *CHI.x_support, scan=scan)
            found[name] = sum(len(rk) for rt in roots for rk in rt)
            assert calls == {"on": 1 + steps.get(name, 0), "grad_on": 0}
        # both branches cross 0.2 twice; the 41 taus have more roots than
        # there are bisection steps
        assert found["above"] == 0 and found["one"] == 4 and found["many"] > 60

    def test_localized_density(self):
        v, calls = counting(model_potential("rotating_crossing", c=3.0))
        out = gamma0_localized(v, CHI, 1.0)
        assert out == gamma0_localized(model_potential("rotating_crossing", c=3.0), CHI, 1.0)
        # the turning-point scan, 44 lock-step bisection steps, the cells'
        # midpoints, then one call per level of the 4-level quadrature
        assert calls == {"on": 1 + 44 + 1 + 4, "grad_on": 0}

    def test_build_pair_and_decay_constant(self):
        v, calls = counting(model_potential("reference"))
        build_pair(v, qz.grid_for(1 / 4, 8.0, 4.0, 8192))
        assert calls == {"on": 2, "grad_on": 0}  # the seam and the operator's samples
        # V has not decayed at the edges of a small box: the seam alone is read
        with pytest.raises(MarginError):
            build_pair(v, qz.grid_for(1 / 4, 2.0, 4.0, 8192))
        assert calls == {"on": 3, "grad_on": 0}

    def test_boundary_value_route_makes_no_scalar_call(self):
        v, calls = counting(model_potential("conical_crossing"))
        out = boundary_value_extrapolate(v, 1.0, CHI, 1.0, form="single", levels=2, x_order=4)
        ref = boundary_value_extrapolate(model_potential("conical_crossing"),
                                         1.0, CHI, 1.0, form="single", levels=2, x_order=4)
        assert calls["on"] > 0 and out.value == ref.value
        # V is read once, at the x-nodes, for every level and xi-point
        assert calls == {"on": 1, "grad_on": 0}


class TestChecksThatStay:
    def test_escape_check_raises_for_the_first_non_hermitian_sample(self):
        # the asymmetry grows with x past 0.5: the first sample past it raises
        def on(xs):
            out = np.zeros((len(xs), 2, 2))
            out[:, 0, 1] = np.where(xs > 0.5, xs, 0.0)
            return out

        v = MatrixPotential(N=2, eval_on=on, grad_on=lambda xs: np.zeros((len(xs), 1, 2, 2)),
                            v_infinity=np.zeros((2, 2)))
        xs = np.linspace(-8.0, 8.0, 101)
        with pytest.raises(NonHermitianError) as err:
            escape_check_dilation(v, 1.0, grid_points=101)
        first = float(xs[xs > 0.5][0])
        assert err.value.defect == first and err.value.tol == 1e-12 + 1e-12 * first

    def test_shell_jets_check_hermiticity(self):
        # the hermitian part has a shell at xi = +-1; the matrix itself is
        # 1e-3 away from hermitian
        def on(x, xi):
            out = np.zeros((len(x), 2, 2))
            out[:, 0, 0], out[:, 0, 1], out[:, 1, 1] = xi * xi - 1.0, 1e-3, 5.0
            return out

        h = MatrixSymbol(N=2, eval_on=on)
        with pytest.raises(NonHermitianError):
            check_on_energy_shell(h, 0.0, ((-1, 1), (-2, 2)), grid_points=21)

    def test_build_schrodinger_rejects_non_finite_samples(self):
        v = MatrixPotential(N=1, v_infinity=np.zeros((1, 1)),
                            eval_on=lambda xs: np.where(xs > 0.0, np.nan, 0.0)[:, None, None])
        with pytest.raises(ValueError, match="non-finite"):
            qz.build_schrodinger(v, qz.grid_for(1 / 8, 6.0, 4.0, 8192))


class TestIslandEscapeConfig:
    def test_stock_config_passes_and_the_trapped_energy_fails(self, tmp_path):
        with open(ISLAND_CONFIG) as fh:
            doc = json.load(fh)
        assert doc["tau0"] == 2.0
        out = str(tmp_path / "o")
        assert cli.main(["check-escape", "--config", ISLAND_CONFIG, "--out", out]) == 0
        # below the top of the island (3/e at x = +-1) the well traps
        path = tmp_path / "trapped.json"
        path.write_text(json.dumps(dict(doc, tau0=0.6)))
        assert cli.main(["check-escape", "--config", str(path), "--out", out]) == 2
