"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy spectral family (reference potential, R = 12, coverage-rule grids,
h = 1/16 .. 1/128) is built once and shared by the weak, integrated, and
derivative shift-function checks.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines.
"""
import math

import numpy as np
import pytest

import mh_constructions as mhc
import ssf_lab as sl
from conftest import cutoff_matrix, random_hermitian
from ssf_lab.bumps import Bump1D, ProductCutoff
from ssf_lab.microhyperbolicity import C1_LADDER
from ssf_lab.quadrature import gauss_rule
from ssf_lab.quantization import Grid1D, WindowTheta, grid_for, required_points, weyl_quantize
from ssf_lab.ssf import build_pair, mollified_density_pairing
from ssf_lab.symbols import MatrixSymbol, schrodinger_symbol, shifted_symbol

CHI = ProductCutoff(g=Bump1D(0, 2.0), k=Bump1D(0, 2.0))


def _grids(hs, R, tau_max):
    return [grid_for(h, R, tau_max, 8192) for h in hs]


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared reference-potential spectral family (criteria 2, 3, 4)
# ---------------------------------------------------------------------------

H_LIST = (1 / 16, 1 / 32, 1 / 64, 1 / 128)
TAU_MAX = 3.24
R_BOX = 12.0


@pytest.fixture(scope="module")
def vref():
    return sl.reference_potential()


@pytest.fixture(scope="module")
def vref_family(vref):
    return [build_pair(vref, Grid1D(R=R_BOX, M=required_points(R_BOX, h, TAU_MAX), h=h,
                                    tau_max=TAU_MAX))
            for h in H_LIST]


@pytest.fixture(scope="module")
def escape_certificate(vref):
    return sl.escape_check_dilation(vref, 2.0)


def test_criterion_1_microhyperbolicity_suite():
    rng = np.random.default_rng(2024)

    def jet(n, with_kernel=True):
        a = random_hermitian(rng, n)
        if with_kernel:
            a[:, 0] = 0.0
            a[0, :] = 0.0
        g = random_hermitian(rng, n)

        grad = np.stack([g, np.zeros((n, n), dtype=complex)])
        return MatrixSymbol(N=n, eval_on=lambda x, xi: a + x[:, None, None] * g,
                            grad_on=lambda x, xi: np.broadcast_to(grad, (len(x), *grad.shape))
                            ), a, g

    forward_checked = 0
    converse_checked = 0
    for trial in range(200):
        n = int(rng.integers(2, 5))
        h, a, g = jet(n)
        # forward: any certificate must replay through the definition
        cert = mhc.check_pointwise(h, [0.0, 0.0], [1.0, 0.0])
        if cert.valid:
            slack = mhc.check_definition(h, [0.0, 0.0], [1.0, 0.0], cert.C0, cert.C1)
            assert slack >= -1e-10
            forward_checked += 1
        # converse: positive compensated slack forces kernel positivity
        c0_trial = float(rng.uniform(0.05, 1.0))
        for c1 in C1_LADDER:
            if mhc.check_definition(h, [0.0, 0.0], [1.0, 0.0], c0_trial, c1) > 0:
                assert g[0, 0].real >= c0_trial - 1e-10
                converse_checked += 1
                break
    assert forward_checked >= 40 and converse_checked >= 40

    # conical crossing: refuted at the crossing level, certified away from it
    crossing = shifted_symbol(schrodinger_symbol(sl.model_potential("conical_crossing")), 0.0)
    assert mhc.find_direction(crossing, [0.0, 0.0]) is None
    for phi in np.linspace(0, 2 * math.pi, 16, endpoint=False):
        assert not mhc.check_pointwise(crossing, [0.0, 0.0],
                                      [math.cos(phi), math.sin(phi)]).valid
    off_level = shifted_symbol(schrodinger_symbol(sl.model_potential("conical_crossing")), 1.0)
    cert1 = mhc.check_pointwise(off_level, [0.0, 1.0], [0.0, -1.0])
    assert cert1.valid and cert1.C0 == pytest.approx(1.0)

    # global extension: verification grids all-positive for the three cases
    affine_grad = np.array([[[0.0]], [[-2.0]]])
    affine = MatrixSymbol(N=1, eval_on=lambda x, xi: (-2.0 * (xi - 1.0))[:, None, None],
                          grad_on=lambda x, xi: np.broadcast_to(affine_grad, (len(x), 2, 1, 1)))
    free = shifted_symbol(schrodinger_symbol(sl.model_potential("constant", v_inf=0.0, N=1)), 1.0)
    worst = []
    for sym, rho0 in ((affine, [0.0, 1.0]), (free, [0.0, 1.0]), (off_level, [0.0, 1.0])):
        _, rep = mhc.extend_to_global(sym, rho0, [0.0, -1.0], 0.5)
        assert rep.ok
        assert rep.grid_slacks.min() > 0 and rep.far_slacks.min() > 0
        worst.append(rep.worst_slack)

    _report("1 microhyperbolicity",
            True,
            f"jets fwd/conv {forward_checked}/{converse_checked}, "
            f"extension slacks {min(worst):.3f}")


def test_criterion_2_weyl_asymptotics(vref, vref_family, escape_certificate):
    taus = np.linspace(1.8, 2.2, 41)
    ref = np.array([sl.a0(vref, float(t)) for t in taus])
    w = WindowTheta("bump_at_zero", eps=0.25)
    assert escape_certificate.valid, "escape hypothesis must hold at tau0 = 2"
    rep = sl.weyl_check(vref_family, taus, ref, w, order_threshold=0.7, rel_threshold=0.05)
    ok = rep.verdict == "PASS"
    _report("2 weyl asymptotics", ok,
            f"sup rel err at h=1/128: {rep.rel_errors[-1]:.3%} (<=5%), "
            f"fitted order {rep.slope:.2f} (>=0.7)")


def test_criterion_3_weak_asymptotics(vref, vref_family):
    f = sl.bump_test_function((1.8, 2.2))
    ref = sl.c0(vref, f)
    rep = sl.weak_check(vref_family, f, ref, order_threshold=1.5, rel_threshold=0.03)
    rel64 = rep.rel_errors[H_LIST.index(1 / 64)]
    ok = rep.verdict == "PASS" and rel64 <= 0.03
    _report("3 weak asymptotics", ok,
            f"rel err at h=1/64: {rel64:.3%} (<=3%), at h=1/128: {rep.rel_errors[-1]:.3%} "
            f"(<=3%), fitted order {rep.slope:.2f} (>=1.5)")


def test_criterion_4_pointwise_derivative(vref, vref_family, escape_certificate):
    assert escape_certificate.valid, "escape gate must pass at tau0 = 2"
    f = sl.plateau_test_function((1.2, 2.8), (1.6, 2.4))
    w = WindowTheta("bump_at_zero", eps=0.5)
    ref = sl.gamma0(vref, 2.0)
    rep = sl.derivative_check(vref_family, 2.0, f, w, ref, order_threshold=1.5,
                              rel_threshold=0.05)
    ok = rep.verdict == "PASS"
    _report("4 pointwise derivative", ok,
            f"rel err at h=1/128: {rep.rel_errors[-1]:.3%} (<=5%), "
            f"residual order {rep.slope:.2f} (>=1.5)")


@pytest.fixture(scope="module")
def free_potential():
    return sl.model_potential("constant", v_inf=0.0, N=1)


@pytest.fixture(scope="module")
def free_certificate(free_potential):
    return sl.check_on_energy_shell(schrodinger_symbol(free_potential), 1.0,
                                    ((-2.5, 2.5), (-2.0, 2.0)), grid_points=41)


class TestCriterion5TraceFormulas:
    def test_negligibility_off_zero_window(self, free_potential, free_certificate):
        assert free_certificate.valid
        f = sl.bump_test_function((0.3, 1.7))
        rep = sl.theorem1_check(free_potential, CHI, f, 1.0,
                                _grids([1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256], 6.0, 2.56),
                                WindowTheta("bump_positive", eps=1.0), order_threshold=3.0)
        ok = rep.verdict == "PASS"
        _report("5a trace negligibility", ok,
                f"decay slope {rep.slope:.2f} (>=3) over h=1/16..1/256")

    def test_negligibility_control_case(self, free_potential):
        # the zero-window control grows like 1/(2 pi h): not applicable
        f = sl.bump_test_function((0.3, 1.7))
        rep = sl.theorem1_check(free_potential, CHI, f, 1.0,
                                _grids([1 / 16, 1 / 32, 1 / 64, 1 / 128], 6.0, 2.56),
                                WindowTheta("bump_at_zero", eps=0.25))
        assert rep.verdict == "FAIL"
        assert rep.slope == pytest.approx(-1.0, abs=0.35)

    def test_locality(self, free_potential):
        far = sl.model_potential("diagonal_bumps", depths=[0.5], centers=[7.0],
                                 widths=[0.4])
        f = sl.bump_test_function((0.8, 1.2))
        w = WindowTheta("bump_at_zero", eps=0.3)
        rep = sl.theorem2_check(free_potential, far, CHI, f,
                                np.linspace(0.9, 1.1, 9),
                                _grids([1 / 16, 1 / 32, 1 / 64, 1 / 128], 12.0, 1.69), w,
                                order_threshold=3.0)
        ok = rep.verdict == "PASS"
        detail = ("below floor" if rep.below_floor
                  else f"decay slope {rep.slope:.2f} (>=3)")
        _report("5b trace locality", ok, detail)

    def test_leading_term_scalar(self, free_potential, free_certificate):
        assert free_certificate.valid
        f = sl.bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_at_zero", eps=0.25)
        rep = sl.theorem3_check(free_potential, CHI, f, 1.0,
                                _grids([1 / 16, 1 / 32, 1 / 64, 1 / 128], 6.0, 2.0), w,
                                rel_threshold=0.02)
        ok = rep.verdict == "PASS"
        _report("5c trace leading term (scalar)", ok,
                f"rel err at h=1/128: {rep.rel_errors[-1]:.3%} (<=2%)")

    def test_leading_term_crossing(self):
        vc = sl.model_potential("conical_crossing")
        cert = sl.check_on_energy_shell(schrodinger_symbol(vc), 1.0,
                                        ((-2.5, 2.5), (-2.0, 2.0)), grid_points=41)
        assert cert.valid
        f = sl.bump_test_function((0.5, 1.5))
        w = WindowTheta("bump_at_zero", eps=0.25)
        rep = sl.theorem3_check(vc, CHI, f, 1.0,
                                _grids([1 / 16, 1 / 32, 1 / 64, 1 / 128], 6.0, 2.0), w,
                                rel_threshold=0.05)
        ok = rep.verdict == "PASS"
        _report("5d trace leading term (crossing)", ok,
                f"rel err at h=1/128: {rep.rel_errors[-1]:.3%} (<=5%)")


def test_criterion_6_coefficient_identities(vref):
    # derivative identity on a 50-point grid away from critical values
    taus = np.linspace(1.2, 3.0, 50)
    worst_d = 0.0
    s = 1e-4
    for t in taus:
        lhs = (sl.a0(vref, float(t) + s) - sl.a0(vref, float(t) - s)) / (2 * s)
        worst_d = max(worst_d, abs(lhs - sl.gamma0(vref, float(t))))
    ok_d = worst_d <= 1e-4

    # duality
    f = sl.bump_test_function((1.8, 2.2))
    lhs = sl.c0(vref, f)
    (a, b), (xn, xw) = f.support, gauss_rule(200)
    nodes, weights = 0.5 * (a + b) + 0.5 * (b - a) * xn, 0.5 * (b - a) * xw
    rhs = -float(np.sum(weights * f(nodes)
                        * np.array([sl.gamma0(vref, float(t)) for t in nodes])))
    ok_c = abs(lhs - rhs) <= 1e-6

    # channel additivity
    va = sl.model_potential("diagonal_bumps", depths=[-1.0], centers=[0.0], widths=[1.0])
    vb = sl.model_potential("diagonal_bumps", depths=[-0.4], centers=[0.5], widths=[1.3])
    vab = sl.model_potential("diagonal_bumps", depths=[-1.0, -0.4], centers=[0.0, 0.5],
                             widths=[1.0, 1.3], v_inf=[0.0, 0.0])
    ok_add = True
    for t in (0.9, 1.6):
        g_sum = sl.gamma0(va, t) + sl.gamma0(vb, t)
        a_sum = sl.a0(va, t) + sl.a0(vb, t)
        ok_add &= abs(sl.gamma0(vab, t) - g_sum) <= 1e-10 * max(1.0, abs(g_sum))
        ok_add &= abs(sl.a0(vab, t) - a_sum) <= 1e-10 * max(1.0, abs(a_sum))

    # localized density against the boundary-value route
    v = sl.model_potential("conical_crossing")
    dens = sl.gamma0_localized(v, CHI, 1.0)
    bv = sl.boundary_value_extrapolate(v, np.eye(2), CHI, 1.0, side=+1,
                                       form="single", levels=8, x_order=32)
    ok_bv = abs(dens + bv.value.imag / math.pi) <= 1e-3

    ok = ok_d and ok_c and ok_add and ok_bv
    _report("6 coefficient identities", ok,
            f"a0'=gamma0 worst {worst_d:.1e} (<=1e-4), duality {abs(lhs-rhs):.1e} (<=1e-6), "
            f"additivity {'ok' if ok_add else 'BAD'}, "
            f"boundary route {abs(dens + bv.value.imag / math.pi):.1e} (<=1e-3)")


def test_criterion_7_quantization_identities():
    g64 = Grid1D(R=6.0, M=required_points(6.0, 1 / 64, 1.5), h=1 / 64, tau_max=1.5)
    chi = ProductCutoff(g=Bump1D(0, 2.0), k=Bump1D(0, 1.2))
    a = weyl_quantize(chi, g64)
    tr = float(np.trace(cutoff_matrix(a)).real)
    target = chi.integral(order=400) / (2.0 * math.pi * g64.h)
    ok_tr = abs(tr - target) <= 1e-8 * abs(target)

    gq = Grid1D(R=6.0, M=128, h=0.25, tau_max=1.5)
    op = sl.build_schrodinger(sl.model_potential("constant", v_inf=[0.7], N=1), gq)
    ok_spec = np.array_equal(op.eigenvalues(), np.sort(gq.momenta**2 + 0.7))

    ok = ok_tr and ok_spec
    _report("7 quantization identities", ok,
            f"trace rule {abs(tr-target)/abs(target):.1e} (<=1e-8), "
            f"constant spectrum {'exact' if ok_spec else 'BAD'}")


def test_criterion_8_degenerate_exactness():
    v = sl.model_potential("constant", v_inf=[0.2, 0.8], N=2)
    grid = Grid1D(R=8.0, M=required_points(8.0, 1 / 8, 2.0), h=1 / 8, tau_max=2.0)
    pair = build_pair(v, grid)
    f = sl.bump_test_function((1.0, 1.6))
    w = WindowTheta("bump_at_zero", eps=0.25)
    fp = sl.plateau_test_function((0.9, 1.9), (1.1, 1.7))

    ok_ssf = (sl.weak_pairing(pair, f) == 0.0
              and mhc.ssf_counting(pair, 1.3) == 0
              and sl.ssf_mollified(pair, w, 1.3) == 0.0
              and mollified_density_pairing(pair, fp, w, 1.4) == 0.0)

    ok_coeff = (sl.gamma0(v, 1.3) == 0.0
                and sl.c0(v, f) == 0.0
                and sl.a0(sl.model_potential("constant", v_inf=0.0, N=2), 1.3) == 0.0)

    v0 = sl.model_potential("constant", v_inf=0.0, N=1)
    rep = sl.theorem2_check(v0, v0, CHI, f, [1.2, 1.3], _grids([1 / 8, 1 / 16], 6.0, 2.0), w)
    ok_trace = bool(np.all(rep.values == 0.0))

    ok = ok_ssf and ok_coeff and ok_trace
    _report("8 degenerate exactness", ok,
            f"ssf {'0' if ok_ssf else 'BAD'}, coefficients {'0' if ok_coeff else 'BAD'}, "
            f"trace differences {'0' if ok_trace else 'BAD'}")
