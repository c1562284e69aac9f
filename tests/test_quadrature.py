import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssf_lab.quadrature import QuadratureError, adaptive_gauss_batch, gauss_rule


def _panel(f, a, b, order):
    """Single-panel Gauss-Legendre of f on [a, b] from ``gauss_rule``."""
    nodes, weights = gauss_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return float(half * np.sum(weights * np.asarray(f(mid + half * nodes))))


def _one(f, a, b, atol=1e-10, **kwargs):
    """The integral of f(x) on [a, b] as the one interval of a batch."""
    return adaptive_gauss_batch(lambda owner, x: f(x), [a], [b], atol, **kwargs)


def test_polynomial_exact():
    val = _panel(lambda x: 3.0 * x**2, -1.0, 2.0, order=10)
    assert abs(val - (2.0**3 + 1.0)) < 1e-13


def test_adaptive_gaussian_integral():
    val, = _one(lambda x: np.exp(-(x**2)), -10.0, 10.0, atol=1e-12)
    assert abs(val - math.sqrt(math.pi)) < 1e-11


def test_adaptive_respects_breakpoints():
    # |x| has a kink; a breakpoint at 0 makes the two halves polynomial-exact
    val, = _one(lambda x: np.abs(x), -1.0, 1.0, atol=1e-13, breakpoints=[[0.0]])
    assert abs(val - 1.0) < 1e-13


def test_adaptive_zero_integrand_is_exact_zero():
    assert _one(lambda x: np.zeros_like(x), -3.0, 7.0)[0] == 0.0


def test_orientation_and_empty():
    f = lambda x: x**3 + 1.0
    assert _one(f, 2.0, 2.0)[0] == 0.0
    assert abs(_one(f, 1.0, 0.0)[0] + _one(f, 0.0, 1.0)[0]) < 1e-14


def test_regularized_endpoint_singularity():
    # int_0^1 x^(-1/2) dx = 2 via the substitution x = u^2 done by the caller
    val, = _one(lambda u: 2.0 * np.ones_like(u), 0.0, 1.0, atol=1e-13)
    assert abs(val - 2.0) < 1e-13


# ---------------------------------------------------------------------------
# the breadth-first batch driver against the depth-first recursion it replaced
# ---------------------------------------------------------------------------

def _panel_reference(f, a, b):
    lo = _panel(f, a, b, order=15)
    hi = _panel(f, a, b, order=31)
    return hi, abs(hi - lo)


def _segment_reference(f, a, b, atol, rtol, max_depth, floor):
    """The recursive driver: accept or bisect each panel depth first."""
    value, err = _panel_reference(f, a, b)
    tol = max(atol, rtol * abs(value), floor)
    if err <= tol or max_depth == 0:
        if max_depth == 0 and err > 1e3 * tol:
            raise QuadratureError(f"panel [{a}, {b}] error {err:.3e} above tolerance")
        return value
    mid = 0.5 * (a + b)
    left = _segment_reference(f, a, mid, 0.5 * atol, rtol, max_depth - 1, floor)
    right = _segment_reference(f, mid, b, 0.5 * atol, rtol, max_depth - 1, floor)
    return left + right


def _adaptive_reference(f, a, b, atol=1e-10, rtol=1e-10, max_depth=48, breakpoints=()):
    if b < a:
        return -_adaptive_reference(f, b, a, atol, rtol, max_depth, breakpoints)
    if b == a:
        return 0.0
    cuts = sorted({float(a), float(b), *(float(p) for p in breakpoints if a < p < b)})
    floor = 0.01 * atol
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        total += _segment_reference(f, lo, hi, atol / max(1, len(cuts) - 1), rtol,
                                    max_depth, floor)
    return total


def _integrand(kind, c):
    """Smooth, kinked, peaked and endpoint-singular test integrands."""
    if kind == "smooth":
        return lambda x: np.exp(-c * x * x) * np.cos(3.0 * x)
    if kind == "kink":
        return lambda x: np.abs(x - c) + 0.5 * np.maximum(x + c, 0.0) ** 1.5
    if kind == "peak":
        return lambda x: 1.0 / (1e-3 + (x - c) ** 2)
    return lambda x: (np.abs(x - c) + 1e-12) ** -0.25


KINDS = st.sampled_from(["smooth", "kink", "peak", "singular"])
ENDS = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
ATOLS = st.sampled_from([1e-6, 1e-9, 1e-11, 1e-13])


class TestBatchDriver:
    @settings(max_examples=120)
    @given(KINDS, st.floats(min_value=-1.0, max_value=1.0), ENDS, ENDS, ATOLS,
           st.lists(st.floats(min_value=-3.5, max_value=3.5), max_size=4))
    def test_single_interval_matches_recursion(self, kind, c, a, b, atol, breakpoints):
        f = _integrand(kind, c)
        try:
            want = _adaptive_reference(f, a, b, atol=atol, breakpoints=breakpoints)
        except QuadratureError:
            with pytest.raises(QuadratureError):
                _one(f, a, b, atol=atol, breakpoints=[breakpoints])
            return
        got = _one(f, a, b, atol=atol, breakpoints=[breakpoints])
        assert got.dtype == np.float64 and got.shape == (1,)
        assert repr(float(got[0])) == repr(want)

    @given(st.lists(st.tuples(KINDS, st.floats(min_value=-1.0, max_value=1.0), ENDS, ENDS,
                              st.lists(st.floats(min_value=-3.5, max_value=3.5),
                                       max_size=3)),
                    min_size=1, max_size=6),
           ATOLS, st.booleans())
    @settings(max_examples=60)
    def test_batch_matches_one_at_a_time(self, specs, atol, empty):
        if empty:  # an empty interval inside a batch contributes exactly 0.0
            specs = specs + [("smooth", 0.5, 1.25, 1.25, [])]
        fs = [_integrand(kind, c) for kind, c, *_ in specs]
        try:
            want = [_adaptive_reference(f, a, b, atol=atol, breakpoints=bp)
                    for f, (_, _, a, b, bp) in zip(fs, specs)]
        except QuadratureError:
            return

        def f(owner, x):
            out = np.empty_like(x)
            for i in np.unique(owner):
                at = owner == i
                out[at] = fs[i](x[at])
            return out

        got = adaptive_gauss_batch(f, [s[2] for s in specs], [s[3] for s in specs],
                                   atol=atol, breakpoints=[s[4] for s in specs])
        assert [repr(float(g)) for g in got] == [repr(w) for w in want]

    def test_reversed_and_empty(self):
        f = _integrand("kink", 0.2)
        got = adaptive_gauss_batch(lambda owner, x: f(x), [1.0, -1.0, 0.5], [-1.0, 1.0, 0.5],
                                   breakpoints=[[0.2], [0.2], [0.2]])
        assert got[0] == -got[1] and got[1] == _adaptive_reference(f, -1.0, 1.0,
                                                                    breakpoints=[0.2])
        assert got[2] == 0.0 and math.copysign(1.0, got[2]) == 1.0
        assert adaptive_gauss_batch(lambda owner, x: x, [], []).shape == (0,)

    def test_one_integrand_call_per_level(self):
        calls = []

        def f(owner, x):
            calls.append(x.size)
            return np.exp(-x * x) * (1.0 + owner)

        got = adaptive_gauss_batch(f, [-4.0, -3.0, 0.0], [4.0, 1.0, 2.0], atol=1e-12)
        assert 1 < len(calls) < 20  # one call per depth, not per panel
        assert calls[0] == 3 * (15 + 31)
        for i, (a, b) in enumerate([(-4.0, 4.0), (-3.0, 1.0), (0.0, 2.0)]):
            want = _adaptive_reference(lambda x, s=1.0 + i: np.exp(-x * x) * s, a, b,
                                       atol=1e-12)
            assert got[i] == want

    def test_max_depth_raises(self):
        # a jump away from any breakpoint never converges
        step = lambda x: np.where(x < 0.3, 0.0, 1.0)
        with pytest.raises(QuadratureError, match="max depth"):
            _one(step, 0.0, 1.0, atol=1e-12, max_depth=6)
        with pytest.raises(QuadratureError):
            _adaptive_reference(step, 0.0, 1.0, atol=1e-12, max_depth=6)
        with pytest.raises(QuadratureError):
            adaptive_gauss_batch(lambda owner, x: np.where(owner == 1, step(x), x),
                                 [0.0, 0.0], [1.0, 1.0], atol=1e-12, max_depth=6)
        # the same jump on a breakpoint is two polynomial panels
        assert _one(step, 0.0, 1.0, atol=1e-12, max_depth=6,
                    breakpoints=[[0.3]])[0] == pytest.approx(0.7, abs=1e-14)
