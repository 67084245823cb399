from __future__ import annotations

import numpy as np
import pytest

from conftest import single_link, two_link
from routegame.calculus import poly_eval
from routegame.equilibrium import NotConverged, solve_equilibrium
from routegame.netmodel import enumerate_paths
from routegame.oracle import brute_force_optimum
from routegame.sysopt import price_of_anarchy, solve_system_optimum


class TestSystemOptimum:
    def test_case_b(self):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 2.0)
        inc = enumerate_paths(net)
        F, T = solve_system_optimum(net, inc, net.od_pairs)
        np.testing.assert_allclose(F, [1.25, 0.75], atol=1e-9)
        assert T == pytest.approx(2.875, abs=1e-9)

    def test_case_a(self):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 1.0)
        inc = enumerate_paths(net)
        F, T = solve_system_optimum(net, inc, net.od_pairs)
        np.testing.assert_allclose(F, [0.75, 0.25], atol=1e-9)
        assert T == pytest.approx(0.875, abs=1e-9)

    def test_single_link(self):
        net = single_link(3.0, coeffs=(0.5, 1.0, 0.1, 0.0))
        inc = enumerate_paths(net)
        F, T = solve_system_optimum(net, inc, net.od_pairs)
        np.testing.assert_allclose(F, [3.0])
        assert T == pytest.approx(3.0 * (0.5 + 3.0 + 0.1 * 9.0))

    def test_duality_gap_certificate(self):
        # gap at termination bounds the distance to optimality: compare
        # against the grid oracle
        rng = np.random.default_rng(23)
        for _ in range(5):
            net = two_link(
                (rng.uniform(0, 2), rng.uniform(0.1, 2),
                 rng.uniform(0, 0.5), rng.uniform(0, 0.1)),
                (rng.uniform(0, 2), rng.uniform(0.1, 2),
                 rng.uniform(0, 0.5), rng.uniform(0, 0.1)),
                2.0,
            )
            inc = enumerate_paths(net)
            F, T = solve_system_optimum(net, inc, net.od_pairs)
            _, T_oracle = brute_force_optimum(net, inc, 2.0, 2001)
            assert T <= T_oracle + 1e-9
            assert T_oracle - T <= 1e-4

    def test_boundary_face_optimum(self):
        # second link so slow the optimum leaves it unused; conditional
        # gradient must still certify to tolerance
        net = two_link((0.1, 0.5, 0.0, 0.0), (2.0, 1.0, 0.0, 0.0), 1.0)
        inc = enumerate_paths(net)
        F, T = solve_system_optimum(net, inc, net.od_pairs)
        np.testing.assert_allclose(F, [1.0, 0.0], atol=1e-9)
        assert T == pytest.approx(0.6, abs=1e-9)

    def test_per_link_cost_is_convex(self):
        # F d(F) satisfies the midpoint inequality for sampled points
        rng = np.random.default_rng(29)
        for _ in range(30):
            coeffs = np.array([[rng.uniform(0, 2), rng.uniform(0.1, 2),
                                rng.uniform(0, 0.5), rng.uniform(0, 0.1)]])
            x, y = rng.uniform(0, 8, size=2)
            fx = x * poly_eval(coeffs, np.array([x]))[0]
            fy = y * poly_eval(coeffs, np.array([y]))[0]
            mid = 0.5 * (x + y)
            fmid = mid * poly_eval(coeffs, np.array([mid]))[0]
            assert fmid <= 0.5 * (fx + fy) + 1e-12

    def test_not_converged(self):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 2.0)
        inc = enumerate_paths(net)
        with pytest.raises(NotConverged):
            solve_system_optimum(net, inc, net.od_pairs, max_iters=1)

    def test_zero_demand(self):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 0.0)
        inc = enumerate_paths(net)
        F, T = solve_system_optimum(net, inc, net.od_pairs)
        assert T == 0.0

    def test_non_finite_costs_stop_at_once(self):
        # case_b with l1's delay 1e308 (1 + x + x^2 + x^3), left
        # unvalidated: the Frank-Wolfe gap is not finite from the start
        net = two_link((0.0, 1e308, 1e308, 1e308), (1.0, 1.0, 0.0, 0.0),
                       2.0)
        inc = enumerate_paths(net)
        with np.errstate(all="ignore"):
            with pytest.raises(NotConverged,
                               match="non-finite costs after 0 iterations"):
                solve_system_optimum(net, inc, net.od_pairs)


class TestPriceOfAnarchy:
    def test_case_b_ratio(self):
        assert price_of_anarchy(3.0, 2.875) == pytest.approx(24.0 / 23.0)

    def test_case_a_ratio(self):
        assert price_of_anarchy(1.0, 0.875) == pytest.approx(8.0 / 7.0)

    def test_full_fleet_is_optimal(self):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 2.0)
        inc = enumerate_paths(net)
        ods = tuple(od.with_share(1.0) for od in net.od_pairs)
        res = solve_equilibrium(net, inc, ods)
        from routegame.calculus import total_delay
        _, T_min = solve_system_optimum(net, inc, net.od_pairs)
        assert price_of_anarchy(total_delay(net, res.f_star), T_min) == \
            pytest.approx(1.0, abs=1e-8)

    def test_degenerate_zero_demand(self):
        assert price_of_anarchy(0.0, 0.0) == 1.0
        assert price_of_anarchy(0.0, -1.0) == 1.0
