from __future__ import annotations

import numpy as np
import pytest

from conftest import single_link, two_link
from routegame.calculus import (
    FlowProfile,
    coefficient_table,
    jacobian_norms_sq,
    link_costs,
)
from routegame.netmodel import (
    DelayPoly,
    Link,
    Network,
    OdSpec,
    PathCountExceeded,
    _box_overflows,
    enumerate_paths,
    feasibility_residual,
    validate_network,
)
from scalar_reference import link_delay


class TestValidate:
    def test_valid_two_link_net(self):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 2.0)
        assert validate_network(net) == []

    def test_zero_slope_is_rejected(self):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), 2.0)
        report = validate_network(net)
        assert any("a1 must be strictly positive" in v for v in report)
        assert any("'l2'" in v for v in report)

    def test_unreachable_destination(self):
        net = Network(
            nodes=("o", "d", "x"),
            links=(Link("l1", "o", "x", DelayPoly((0.0, 1.0, 0.0, 0.0))),),
            od_pairs=(OdSpec("o", "d", 1.0, 0.0),),
        )
        report = validate_network(net)
        assert any("unreachable" in v for v in report)

    def test_negative_coefficient(self):
        net = single_link(1.0, coeffs=(-0.5, 1.0, 0.0, 0.0))
        assert any("non-negative" in v for v in validate_network(net))

    def test_duplicate_id_and_self_loop(self):
        net = Network(
            nodes=("o", "d"),
            links=(
                Link("l1", "o", "d", DelayPoly((0.0, 1.0, 0.0, 0.0))),
                Link("l1", "o", "o", DelayPoly((0.0, 1.0, 0.0, 0.0))),
            ),
            od_pairs=(OdSpec("o", "d", 1.0, 0.0),),
        )
        report = validate_network(net)
        assert any("duplicate" in v for v in report)
        assert any("coincide" in v for v in report)

    def test_bad_share_and_demand(self):
        net = Network(
            nodes=("o", "d"),
            links=(Link("l1", "o", "d", DelayPoly((0.0, 1.0, 0.0, 0.0))),),
            od_pairs=(OdSpec("o", "d", -1.0, 1.5),),
        )
        report = validate_network(net)
        assert any("demand" in v for v in report)
        assert any("fleet_share" in v for v in report)


    def test_delay_overflow_on_demand_box(self):
        # finite coefficients whose delay overflows at aggregate load 2D = 4
        net = two_link((0.0, 1e308, 1e308, 1e308), (1.0, 1.0, 0.0, 0.0), 2.0)
        report = validate_network(net)
        assert report == ["link 'l1': delay not finite on the demand box "
                          "(aggregate load up to 4)"]

    def test_jacobian_norm_overflow_on_demand_box(self):
        # d, d' and d'' are finite at 2D, but Q's Gram matrix overflows
        net = two_link((0.0, 1e100, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 2.0)
        assert np.isfinite(link_delay(net.links[0].delay, 4.0))
        report = validate_network(net)
        assert len(report) == 1 and report[0].startswith("link 'l1': delay")

    def test_zero_demand_box_is_the_checked_one(self):
        # at zero demand ``check`` certifies the box of demand 1
        net = two_link((0.0, 1e308, 1e308, 0.0), (1.0, 1.0, 0.0, 0.0), 0.0)
        assert "aggregate load up to 2" in validate_network(net)[0]

    def test_box_check_skips_links_with_bad_coefficients(self):
        # a link that already failed a coefficient check gets no second
        # message; the box is not checked when a demand is not finite
        net = two_link((-1.0, 1e308, 1e308, 1e308), (1.0, 0.0, 0.0, 0.0), 2.0)
        report = validate_network(net)
        assert len(report) == 2
        assert all("coefficient a0" in v or "a1 must" in v for v in report)
        net = two_link((0.0, 1e308, 1e308, 1e308), (1.0, 1.0, 0.0, 0.0),
                       float("inf"))
        assert validate_network(net) == ["od pair 0: demand must be finite"]

    @pytest.mark.parametrize("D", [0.0, 1e-3, 2.0, 7.5, 1e6])
    def test_box_shortcut_agrees_with_the_link_check(self, D):
        # the scalar bound may skip only networks that cannot overflow;
        # coefficients around and above its threshold go to the per-link
        # check, whose verdict is recomputed here
        D_box = D if D > 0.0 else 1.0
        for exponent in range(40, 309):
            for j in range(4):
                coeffs = [0.5, 1.0, 0.1, 0.01]
                coeffs[j] = 10.0**exponent
                net = two_link(tuple(coeffs), (1.0, 1.0, 0.0, 0.0), D)
                table = coefficient_table(net)
                with np.errstate(over="ignore", invalid="ignore"):
                    values = [*link_costs(table, D_box, D_box),
                              jacobian_norms_sq(table, D_box, D_box)]
                    bad = ~np.isfinite(values).all(axis=0)
                got = _box_overflows(net.links, D)
                assert [m.split(":")[0] for m in got] == \
                    [f"link {link.id!r}" for link, b in zip(net.links, bad)
                     if b]

    def test_large_finite_coefficients_pass(self):
        net = two_link((1e300, 1e10, 1e5, 1e3), (1.0, 1.0, 0.0, 0.0), 2.0)
        assert validate_network(net) == []


class TestDelayPoly:
    def test_needs_four_coefficients(self):
        with pytest.raises(ValueError):
            DelayPoly((0.0, 1.0, 0.0))

    def test_strictly_increasing_and_convex_on_samples(self):
        # random valid polynomials stay increasing with non-decreasing slope
        rng = np.random.default_rng(7)
        for _ in range(50):
            poly = DelayPoly((
                rng.uniform(0, 2), rng.uniform(0.1, 2),
                rng.uniform(0, 0.5), rng.uniform(0, 0.1),
            ))
            D = rng.choice([1.0, 2.0, 4.0])
            xs = np.sort(rng.uniform(0.0, 2 * D, size=8))
            vals = [link_delay(poly, x) for x in xs]
            slopes = [link_delay(poly, x, 1) for x in xs]
            assert all(a < b for a, b in zip(vals, vals[1:]))
            assert all(a <= b + 1e-12 for a, b in zip(slopes, slopes[1:]))


class TestEnumeratePaths:
    def test_parallel_network_identity(self):
        net = Network(
            nodes=("o", "d"),
            links=tuple(
                Link(f"l{i}", "o", "d", DelayPoly((0.0, 1.0, 0.0, 0.0)))
                for i in range(3)
            ),
            od_pairs=(OdSpec("o", "d", 1.0, 0.0),),
        )
        inc = enumerate_paths(net)
        assert inc.n_paths == 3
        assert np.array_equal(inc.matrix, np.eye(3))

    def test_example2_topology_has_four_paths(self, net_example2, inc_example2):
        assert net_example2.n_links == 7
        assert inc_example2.n_paths == 4
        # every path owns a link not shared with any other path
        for p in range(4):
            private = [
                l for l in range(7)
                if inc_example2.matrix[l, p] == 1
                and inc_example2.matrix[l].sum() == 1
            ]
            assert private

    def test_diamond_two_paths_two_links_each(self, net_diamond):
        inc = enumerate_paths(net_diamond)
        assert inc.n_paths == 2
        assert np.all(inc.matrix.sum(axis=0) == 2)

    def test_no_zero_columns_and_load_reconstruction(self, net_diamond):
        inc = enumerate_paths(net_diamond)
        assert np.all(inc.matrix.sum(axis=0) >= 1)
        z = FlowProfile(zS=np.array([0.75, 0.25]), zC=np.zeros(2))
        f = z.induced_load(inc.matrix)
        # path 0 = oa->ad, path 1 = ob->bd in lexicographic link order
        assert inc.paths == ((0, 1), (2, 3))
        np.testing.assert_allclose(f.fS, [0.75, 0.75, 0.25, 0.25])

    def test_deterministic_order(self, net_example2):
        a = enumerate_paths(net_example2)
        b = enumerate_paths(net_example2)
        assert a.paths == b.paths
        assert np.array_equal(a.matrix, b.matrix)

    def test_path_cap(self):
        # stack of diamonds doubles the path count per stage
        nodes = ["n0"]
        links = []
        for stage in range(6):
            nodes.append(f"n{stage + 1}")
            for branch in ("a", "b"):
                mid = f"m{stage}{branch}"
                nodes.append(mid)
                links.append(Link(f"e{stage}{branch}1", f"n{stage}", mid,
                                  DelayPoly((0.0, 1.0, 0.0, 0.0))))
                links.append(Link(f"e{stage}{branch}2", mid, f"n{stage + 1}",
                                  DelayPoly((0.0, 1.0, 0.0, 0.0))))
        net = Network(
            nodes=tuple(nodes), links=tuple(links),
            od_pairs=(OdSpec("n0", "n6", 1.0, 0.0),),
        )
        with pytest.raises(PathCountExceeded):
            enumerate_paths(net, cap=32)


class TestFeasibilityResidual:
    def fixture(self):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 1.0)
        return net, enumerate_paths(net), net.od_pairs

    def test_exact_demands(self):
        net, inc, ods = self.fixture()
        z = FlowProfile(zS=np.array([1.0, 0.0]), zC=np.zeros(2))
        assert feasibility_residual(inc, ods, z) == 0.0

    def test_demand_shortfall(self):
        net, inc, ods = self.fixture()
        z = FlowProfile(zS=np.array([0.5, 0.4]), zC=np.zeros(2))
        assert feasibility_residual(inc, ods, z) == pytest.approx(0.1)

    def test_negative_entry(self):
        net, inc, ods = self.fixture()
        z = FlowProfile(zS=np.array([1.2, -0.2]), zC=np.zeros(2))
        assert feasibility_residual(inc, ods, z) == pytest.approx(0.2)

    def test_dimension_mismatch(self):
        net, inc, ods = self.fixture()
        z = FlowProfile(zS=np.array([1.0]), zC=np.zeros(1))
        with pytest.raises(ValueError):
            feasibility_residual(inc, ods, z)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_infeasible(self, bad):
        # Python's max and min skip a NaN, which must not read as feasible
        net, inc, ods = self.fixture()
        for z in (FlowProfile(zS=np.array([bad, 1.0]), zC=np.zeros(2)),
                  FlowProfile(zS=np.array([1.0, 0.0]),
                              zC=np.array([0.0, bad]))):
            assert feasibility_residual(inc, ods, z) == np.inf
