from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import single_link, two_link
from routegame.calculus import (
    LoadProfile,
    check_conditions,
    class_costs,
    coefficient_table,
    jacobian_norms_sq,
    link_costs,
    link_delay,
    link_jacobian,
    marginal_delay,
    operator_H,
    poly_eval,
    total_delay,
)
from routegame.equilibrium import _path_lipschitz
from routegame.netmodel import DelayPoly, Link, Network, OdSpec


class TestLinkDelay:
    def test_identity_delay(self):
        assert link_delay(DelayPoly((0, 1, 0, 0)), 1.5) == pytest.approx(1.5)

    def test_cubic_and_derivatives(self):
        poly = DelayPoly((1, 1, 0, 1))
        assert link_delay(poly, 2.0, 0) == pytest.approx(11.0)
        assert link_delay(poly, 2.0, 1) == pytest.approx(13.0)
        assert link_delay(poly, 2.0, 2) == pytest.approx(12.0)

    def test_derivative_at_zero_is_a1(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            coeffs = tuple(rng.uniform(0.1, 2.0, size=4))
            assert link_delay(DelayPoly(coeffs), 0.0, 1) == pytest.approx(coeffs[1])

    def test_negative_flow_rejected(self):
        with pytest.raises(ValueError):
            link_delay(DelayPoly((0, 1, 0, 0)), -0.1)
        with pytest.raises(ValueError):
            link_delay(DelayPoly((0, 1, 0, 0)), 1.0, 3)


class TestMarginalDelay:
    def test_linear_link(self):
        assert marginal_delay(DelayPoly((0, 1, 0, 0)), 1.0, 1.0) == pytest.approx(3.0)

    def test_zero_fleet_reduces_to_delay(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            poly = DelayPoly(tuple(rng.uniform(0.1, 2.0, size=4)))
            fS = rng.uniform(0, 3)
            assert marginal_delay(poly, fS, 0.0) == pytest.approx(
                link_delay(poly, fS))

    def test_affine_link(self):
        assert marginal_delay(DelayPoly((1, 1, 0, 0)), 0.5, 0.5) == pytest.approx(2.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            marginal_delay(DelayPoly((0, 1, 0, 0)), -1.0, 0.0)


class TestOperatorH:
    def net(self):
        return two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 2.0)

    def test_selfish_only(self):
        f = LoadProfile(fS=np.array([1.0, 0.0]), fC=np.zeros(2))
        np.testing.assert_allclose(operator_H(self.net(), f), [1, 1, 1, 1])

    def test_mixed_loads(self):
        f = LoadProfile(fS=np.array([0.75, 0.25]), fC=np.array([0.75, 0.25]))
        np.testing.assert_allclose(
            operator_H(self.net(), f), [1.5, 1.5, 2.25, 1.75])

    def test_zero_load_gives_free_flow(self):
        f = LoadProfile(fS=np.zeros(2), fC=np.zeros(2))
        np.testing.assert_allclose(operator_H(self.net(), f), [0, 1, 0, 1])

    def test_gradient_of_class_costs(self):
        # H stacks the two players' cost gradients: check by central
        # differences at random interior points
        net = two_link((0.5, 1.0, 0.2, 0.05), (1.0, 0.5, 0.0, 0.1), 2.0)
        rng = np.random.default_rng(3)
        h = 1e-5
        for _ in range(20):
            fS = rng.uniform(0.1, 1.9, size=2)
            fC = rng.uniform(0.1, 1.9, size=2)
            H = operator_H(net, LoadProfile(fS=fS, fC=fC))
            for l in range(2):
                eS = np.zeros(2); eS[l] = h
                us_hi, _ = class_costs(net, LoadProfile(fS=fS + eS, fC=fC))
                us_lo, _ = class_costs(net, LoadProfile(fS=fS - eS, fC=fC))
                assert (us_hi - us_lo) / (2 * h) == pytest.approx(
                    H[l], rel=1e-6)
                _, uc_hi = class_costs(net, LoadProfile(fS=fS, fC=fC + eS))
                _, uc_lo = class_costs(net, LoadProfile(fS=fS, fC=fC - eS))
                assert (uc_hi - uc_lo) / (2 * h) == pytest.approx(
                    H[2 + l], rel=1e-6)


class TestClassCosts:
    def net(self):
        return two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 2.0)

    def test_selfish_potential(self):
        f = LoadProfile(fS=np.array([1.0, 0.0]), fC=np.zeros(2))
        U_S, U_C = class_costs(self.net(), f)
        assert U_S == pytest.approx(0.5)
        assert U_C == 0.0

    def test_empty_selfish_class(self):
        f = LoadProfile(fS=np.zeros(2), fC=np.array([0.3, 0.7]))
        U_S, _ = class_costs(self.net(), f)
        assert U_S == 0.0

    def test_fleet_total_travel_time(self):
        net = single_link(1.0)
        f = LoadProfile(fS=np.zeros(1), fC=np.array([1.0]))
        _, U_C = class_costs(net, f)
        assert U_C == pytest.approx(1.0)

    def test_fleet_cost_integral_identity(self):
        # fC * d(F) equals the integral of d(fS + r) + r d'(fS + r) over
        # [0, fC]; compare the closed form against Gauss-Legendre quadrature
        rng = np.random.default_rng(5)
        nodes, weights = np.polynomial.legendre.leggauss(8)
        for _ in range(25):
            poly = DelayPoly(tuple(rng.uniform(0.05, 2.0, size=4)))
            net = single_link(1.0, coeffs=poly.coefficients)
            fS, fC = rng.uniform(0.0, 3.0, size=2)
            _, U_C = class_costs(
                net, LoadProfile(fS=np.array([fS]), fC=np.array([fC])))
            r = 0.5 * fC * (nodes + 1.0)
            integrand = np.array([
                link_delay(poly, fS + ri) + ri * link_delay(poly, fS + ri, 1)
                for ri in r
            ])
            quad = 0.5 * fC * float(weights @ integrand)
            assert U_C == pytest.approx(quad, abs=1e-10)


class TestTotalDelay:
    def net(self):
        return two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 2.0)

    def test_wardrop_load(self):
        f = LoadProfile(fS=np.array([1.5, 0.5]), fC=np.zeros(2))
        assert total_delay(self.net(), f) == pytest.approx(3.0)

    def test_zero(self):
        f = LoadProfile(fS=np.zeros(2), fC=np.zeros(2))
        assert total_delay(self.net(), f) == 0.0

    def test_optimal_load(self):
        f = LoadProfile(fS=np.array([1.25, 0.75]), fC=np.zeros(2))
        assert total_delay(self.net(), f) == pytest.approx(2.875)


class TestCheckConditions:
    def test_valid_class_always_passes(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            coeffs = (rng.uniform(0, 2), rng.uniform(0.1, 2),
                      rng.uniform(0, 0.5), rng.uniform(0, 0.1))
            net = single_link(1.0, coeffs=coeffs)
            report = check_conditions(net, 10.0)
            assert report.convexity_ok and report.strong_mono_ok
            assert report.c > 0
            assert report.Q >= report.c

    def test_small_margin_cubic(self):
        # margin of 2 d'(F) - fC d''(F) at the corner (fS, fC) = (0, 10)
        net = single_link(1.0, coeffs=(1.0, 0.01, 0.0, 1.0))
        report = check_conditions(net, 10.0)
        assert report.strong_mono_ok
        assert report.strong_mono_margin == pytest.approx(0.02, rel=1e-9)
        assert 0 < report.c < 0.05

    def test_linear_delay_constants(self):
        # constant Jacobian block [[a1, a1], [a1, 2 a1]]: smallest
        # symmetrized eigenvalue a1 (3 - sqrt 5) / 2, spectral norm
        # a1 (3 + sqrt 5) / 2
        a1 = 1.3
        net = single_link(1.0, coeffs=(0.2, a1, 0.0, 0.0))
        report = check_conditions(net, 4.0)
        assert report.c == pytest.approx(a1 * (3 - np.sqrt(5)) / 2, abs=1e-8)
        assert report.Q == pytest.approx(a1 * (3 + np.sqrt(5)) / 2, rel=1e-12)

    def test_degenerate_poly_fails_with_witness(self):
        # a1 = 0 breaks both conditions at the origin
        net = single_link(1.0, coeffs=(1.0, 0.0, 0.0, 1.0))
        report = check_conditions(net, 2.0)
        assert not report.convexity_ok
        assert not report.strong_mono_ok
        assert report.worst_link == "l1"
        assert report.witness == (0.0, 0.0)

    def test_empirical_strong_monotonicity_and_lipschitz(self):
        net = two_link((0.5, 1.0, 0.3, 0.05), (1.0, 0.2, 0.1, 0.08), 2.0)
        report = check_conditions(net, 2.0)
        rng = np.random.default_rng(13)
        for _ in range(100):
            x_f = LoadProfile(fS=rng.uniform(0, 2, 2), fC=rng.uniform(0, 2, 2))
            y_f = LoadProfile(fS=rng.uniform(0, 2, 2), fC=rng.uniform(0, 2, 2))
            dx = x_f.stacked() - y_f.stacked()
            dH = operator_H(net, x_f) - operator_H(net, y_f)
            assert dH @ dx >= report.c * dx @ dx - 1e-12
            assert np.linalg.norm(dH) <= report.Q * np.linalg.norm(dx) + 1e-12

    def test_rejects_nonpositive_box(self):
        with pytest.raises(ValueError):
            check_conditions(single_link(1.0), 0.0)

    @pytest.mark.parametrize("coeffs", [
        (0.0, 1.0, -0.1, 0.0), (0.0, 1.0, 0.0, np.nan), (np.inf, 1.0, 0.0, 0.0),
    ])
    def test_rejects_negative_or_non_finite_coefficient(self, coeffs):
        # the closed forms need a_i >= 0
        with pytest.raises(ValueError, match="coefficients"):
            check_conditions(single_link(1.0, coeffs=coeffs), 1.0)


def _dense_grid_extremes(coeffs, D: float, rel: float, n: int = 201):
    """Reference extremes over the box [0, D]^2 (corners included) from an
    n x n grid per link: min eigenvalue of the symmetrized Jacobian block
    [[p, (p + v)/2], [(p + v)/2, p + v]], max spectral norm of the raw
    block [[p, p], [v, p + v]] (2x2 formulas, via hypot), and the minima of
    2d' - fC d'' and 2d' + fC d''. Every grid value is first moved by
    ``rel`` times the size of the terms it is computed from, which covers
    the grid's own rounding (2d' - fC d'' cancels terms of up to 1e6 in
    the drawn ranges)."""
    axis = np.linspace(0.0, D, n)
    x, y = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
    F = x + y
    lam, sigma, mono, conv = np.inf, 0.0, np.inf, np.inf
    for a0, a1, a2, a3 in coeffs:
        p = a1 + 2.0 * a2 * F + 3.0 * a3 * F**2
        d2 = 2.0 * a2 + 6.0 * a3 * F
        v = p + y * d2
        mean = p + 0.5 * v
        radius = np.hypot(0.5 * v, 0.5 * (p + v))
        lam = min(lam, (mean - radius + rel * (mean + radius)).min())
        sigma = max(sigma, (0.5 * (np.hypot(2.0 * p + v, v - p)
                                   + np.hypot(v, p + v))).max())
        scale = 2.0 * p + y * d2
        mono = min(mono, (2.0 * p - y * d2 + rel * scale).min())
        conv = min(conv, (scale + rel * scale).min())
    return lam, sigma * (1.0 - rel), mono, conv


_coef = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
_link = st.tuples(_coef, st.floats(1e-3, 10.0), _coef, _coef)


@settings(max_examples=200, deadline=None)
@given(links=st.lists(_link, min_size=1, max_size=3),
       D=st.floats(1e-2, 1e2))
def test_closed_forms_bound_dense_grid(links, D):
    net = Network(
        nodes=("o", "d"),
        links=tuple(Link(f"l{i + 1}", "o", "d", DelayPoly(c))
                    for i, c in enumerate(links)),
        od_pairs=(OdSpec("o", "d", D, 0.5),),
    )
    report = check_conditions(net, D)
    lam, sigma, mono, conv = _dense_grid_extremes(links, D, rel=1e-12)
    assert report.c <= lam
    assert report.Q >= sigma
    assert report.strong_mono_margin <= mono
    assert report.convexity_margin <= conv
    assert report.convexity_ok and report.strong_mono_ok


def _trapezoid_block_norms(coeffs, D: float, D_C: float,
                           n: int = 201) -> np.ndarray:
    """Largest spectral norm of each link's Jacobian block over an n x n
    grid of the feasible trapezoid {x, y >= 0, x + y <= D, y <= D_C}, by
    the 2x2 formula of ``_dense_grid_extremes``."""
    axis = np.linspace(0.0, D, n)
    i, j = (g.ravel() for g in np.meshgrid(np.arange(n), np.arange(n),
                                             indexing="ij"))
    keep = (i + j <= n - 1) & (axis[j] <= D_C)
    x, y = axis[i[keep]], axis[j[keep]]
    F = x + y
    out = []
    for a0, a1, a2, a3 in coeffs:
        p = a1 + 2.0 * a2 * F + 3.0 * a3 * F**2
        v = p + y * (2.0 * a2 + 6.0 * a3 * F)
        out.append((0.5 * (np.hypot(2.0 * p + v, v - p)
                           + np.hypot(v, p + v))).max())
    return np.array(out)


@settings(max_examples=200, deadline=None)
@given(links=st.lists(_link, min_size=1, max_size=3),
       D=st.floats(1e-2, 1e2), data=st.data())
def test_feasible_block_norms_bound_dense_triangle(links, D, data):
    # q_l, the norm at (D - D_C, D_C), bounds link l's block on every
    # feasible load of fleet demand at most D_C, and the step constant
    # ||diag(sqrt q) A||^2 never exceeds Q ||A||^2
    coeffs = np.array(links)
    D_C = data.draw(st.one_of(st.just(0.0), st.just(D), st.floats(0.0, D)))
    q = np.sqrt(jacobian_norms_sq(coeffs, D - D_C, D_C))
    assert (q >= _trapezoid_block_norms(links, D, D_C) * (1.0 - 1e-12)).all()
    n_paths = data.draw(st.integers(1, 4))
    A = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=n_paths, max_size=n_paths),
        min_size=len(links), max_size=len(links))), dtype=float)
    net = Network(
        nodes=("o", "d"),
        links=tuple(Link(f"l{i + 1}", "o", "d", DelayPoly(c))
                    for i, c in enumerate(links)),
        od_pairs=(OdSpec("o", "d", D, 0.5),),
    )
    L = _path_lipschitz(coeffs, A, D, D_C)
    assert L <= check_conditions(net, D).Q * np.linalg.norm(A, 2) ** 2 \
        * (1.0 + 1e-12)


def test_poly_eval_matches_scalar_api():
    net = two_link((0.5, 1.0, 0.2, 0.05), (1.0, 0.5, 0.0, 0.1), 2.0)
    coeffs = coefficient_table(net)
    F = np.array([1.25, 0.4])
    for order in (0, 1, 2):
        vec = poly_eval(coeffs, F, order)
        for l, link in enumerate(net.links):
            assert vec[l] == pytest.approx(link_delay(link.delay, F[l], order))


def test_link_costs_match_scalar_api():
    rng = np.random.default_rng(3)
    coeffs = rng.uniform(0.1, 2.0, size=(5, 4))
    fS = rng.uniform(0.0, 3.0, size=5)
    fC = rng.uniform(0.0, 3.0, size=5)
    fC[0] = 0.0
    d, m = link_costs(coeffs, fS, fC)
    for l in range(5):
        poly = DelayPoly(tuple(coeffs[l]))
        assert d[l] == pytest.approx(link_delay(poly, fS[l] + fC[l]), rel=1e-15)
        assert m[l] == pytest.approx(marginal_delay(poly, fS[l], fC[l]),
                                     rel=1e-15)


def test_link_costs_equal_poly_eval_forms():
    # the one-pass kernel performs poly_eval's operations in its order
    rng = np.random.default_rng(8)
    coeffs = rng.uniform(0.0, 2.0, size=(6, 4))
    fS = rng.uniform(0.0, 5.0, size=(4, 6))
    fC = rng.uniform(0.0, 5.0, size=(4, 6))
    fC[0] = 0.0
    d, m = link_costs(coeffs, fS, fC)
    F = fS + fC
    assert np.array_equal(d, poly_eval(coeffs, F, 0))
    assert np.array_equal(m, d + fC * poly_eval(coeffs, F, 1))
    d0, m0 = link_costs(coeffs, 0.0, F[1])
    assert np.array_equal(d0, poly_eval(coeffs, F[1], 0))
    assert np.array_equal(m0, d0 + F[1] * poly_eval(coeffs, F[1], 1))


def test_link_jacobian_matches_finite_differences():
    # J = [[p, p], [w - p, w]] is the Jacobian of (d, m) in (fS, fC)
    rng = np.random.default_rng(12)
    coeffs = rng.uniform(0.0, 2.0, size=(5, 4))
    fS = rng.uniform(0.1, 3.0, size=5)
    fC = rng.uniform(0.1, 3.0, size=5)
    p, w = link_jacobian(coeffs, fS, fC)
    h = 1e-6
    for step, (dd, dm) in (((h, 0.0), (p, w - p)), ((0.0, h), (p, w))):
        d_hi, m_hi = link_costs(coeffs, fS + step[0], fC + step[1])
        d_lo, m_lo = link_costs(coeffs, fS - step[0], fC - step[1])
        np.testing.assert_allclose((d_hi - d_lo) / (2 * h), dd, rtol=1e-7)
        np.testing.assert_allclose((m_hi - m_lo) / (2 * h), dm, rtol=1e-7)


def test_link_jacobian_at_the_corner_keeps_q_bit_for_bit():
    # Q is read from the blocks at (D, D); the expressions are those Q
    # was first computed with, in the same order
    rng = np.random.default_rng(13)
    coeffs = rng.uniform(0.0, 2.0, size=(7, 4))
    for D in (0.3, 1.0, 2.0, 17.5):
        p, w = link_jacobian(coeffs, D, D)
        p_ref = poly_eval(coeffs, 2.0 * D, 1)
        assert np.array_equal(p, p_ref)
        w_ref = 2.0 * p_ref + D * poly_eval(coeffs, 2.0 * D, 2)
        assert np.array_equal(w, w_ref)
