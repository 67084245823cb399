from __future__ import annotations

import numpy as np
import pytest

from conftest import single_link, two_link
from routegame.netmodel import (
    DelayPoly,
    Link,
    Network,
    OdSpec,
    enumerate_paths,
)
from routegame.oracle import (
    _simplex_grid,
    brute_force_equilibrium,
    brute_force_optimum,
    grid_cells,
)
from routegame.sysopt import solve_system_optimum


def _share(net, alpha):
    return tuple(od.with_share(alpha) for od in net.od_pairs)


class TestBruteForceEquilibrium:
    def case_b(self):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 2.0)
        return net, enumerate_paths(net)

    def test_selfish_wardrop_point(self):
        net, inc = self.case_b()
        load, cert = brute_force_equilibrium(net, inc, _share(net, 0.0), 2001)
        np.testing.assert_allclose(load.F, [1.5, 0.5], atol=1e-3)
        assert cert < 1e-3

    def test_fleet_marginal_point(self):
        net, inc = self.case_b()
        load, cert = brute_force_equilibrium(net, inc, _share(net, 1.0), 2001)
        np.testing.assert_allclose(load.F, [1.25, 0.75], atol=1e-3)
        assert cert < 1e-3

    def test_zero_demand(self):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 0.0)
        inc = enumerate_paths(net)
        load, cert = brute_force_equilibrium(net, inc, net.od_pairs, 101)
        assert cert == 0.0
        np.testing.assert_allclose(load.F, [0.0, 0.0])

    def test_three_path_instance(self):
        # smaller grid keeps the triangular scan tractable
        net = Network(
            nodes=("o", "d"),
            links=(
                Link("l1", "o", "d", DelayPoly((0.0, 1.0, 0.0, 0.0))),
                Link("l2", "o", "d", DelayPoly((0.2, 1.0, 0.0, 0.0))),
                Link("l3", "o", "d", DelayPoly((1.6, 2.0, 0.0, 0.0))),
            ),
            od_pairs=(OdSpec("o", "d", 4.0, 0.0),),
        )
        inc = enumerate_paths(net)
        load, cert = brute_force_equilibrium(net, inc, net.od_pairs, 81)
        np.testing.assert_allclose(load.F, [2.0, 1.8, 0.2], atol=2 * 4.0 / 80)

    def test_too_many_paths(self, net_example2, inc_example2):
        with pytest.raises(ValueError):
            brute_force_equilibrium(
                net_example2, inc_example2, net_example2.od_pairs, 51)

    def test_grid_too_large(self):
        net, inc = self.case_b()
        with pytest.raises(ValueError):
            brute_force_equilibrium(net, inc, _share(net, 0.5), 4001)

    def test_grid_too_large_rejected_before_building(self, monkeypatch):
        def unexpected_grid(*args):
            raise AssertionError("built a grid before checking its size")

        monkeypatch.setattr("routegame.oracle._simplex_grid", unexpected_grid)
        net = Network(
            nodes=("o", "d"),
            links=tuple(Link(f"l{i}", "o", "d", DelayPoly((i, 1.0, 0.0, 0.0)))
                        for i in range(3)),
            od_pairs=(OdSpec("o", "d", 1.0, 0.5),),
        )
        with pytest.raises(ValueError, match="grid too large"):
            brute_force_equilibrium(net, enumerate_paths(net), net.od_pairs,
                                    2001)


def test_grid_cells_counts_the_simplex_grids():
    for n_paths in (1, 2, 3, 4):
        for alpha in (0.0, 0.3, 1.0):
            for grid_n in (2, 3, 17):
                od = OdSpec("o", "d", 2.0, alpha)
                rows = [_simplex_grid(n_paths, total, grid_n).shape[0]
                        for total in (od.demand_selfish, od.demand_fleet)]
                assert grid_cells(n_paths, od, grid_n) == rows[0] * rows[1]


class TestBruteForceOptimum:
    @pytest.mark.parametrize("case, grid_n, cells", [
        ("example2", 2001, 1_337_337_001),
        ("three_path", 4001, 8_006_001),
    ])
    def test_grid_too_large_rejected_before_building(
            self, monkeypatch, net_example2, case, grid_n, cells):
        def unexpected_grid(*args):
            raise AssertionError("built a grid before checking its size")

        monkeypatch.setattr("routegame.oracle._simplex_grid", unexpected_grid)
        net = net_example2 if case == "example2" else Network(
            nodes=("o", "d"),
            links=tuple(Link(f"l{i}", "o", "d", DelayPoly((i, 1.0, 0.0, 0.0)))
                        for i in range(3)),
            od_pairs=(OdSpec("o", "d", 1.0, 0.5),),
        )
        with pytest.raises(ValueError, match=(
                rf"^grid too large \({cells} cells, limit 8000000\)$")):
            brute_force_optimum(net, enumerate_paths(net),
                                net.od_pairs[0].demand_total, grid_n)

    def test_case_b(self):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 2.0)
        inc = enumerate_paths(net)
        F, T = brute_force_optimum(net, inc, 2.0, 2001)
        assert T == pytest.approx(2.875, abs=1e-4)

    def test_case_a(self):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 1.0)
        inc = enumerate_paths(net)
        F, T = brute_force_optimum(net, inc, 1.0, 2001)
        assert T == pytest.approx(0.875, abs=1e-4)

    def test_single_link_exact(self):
        net = single_link(3.0, coeffs=(0.5, 1.0, 0.0, 0.0))
        inc = enumerate_paths(net)
        F, T = brute_force_optimum(net, inc, 3.0, 11)
        assert T == pytest.approx(3.0 * 3.5)

    def test_lower_bounds_conditional_gradient(self):
        # the certified solver optimum is never above the grid value
        rng = np.random.default_rng(31)
        for _ in range(5):
            net = two_link(
                (rng.uniform(0, 2), rng.uniform(0.1, 2),
                 rng.uniform(0, 0.5), rng.uniform(0, 0.1)),
                (rng.uniform(0, 2), rng.uniform(0.1, 2),
                 rng.uniform(0, 0.5), rng.uniform(0, 0.1)),
                4.0,
            )
            inc = enumerate_paths(net)
            _, T = solve_system_optimum(net, inc, net.od_pairs)
            _, T_grid = brute_force_optimum(net, inc, 4.0, 1001)
            assert T_grid >= T - 1e-9
