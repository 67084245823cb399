from __future__ import annotations

import numpy as np
import pytest

from conftest import single_link
from routegame.analysis import (
    AssumptionViolated,
    compute_supports,
    construct_scaled_equilibrium,
    detect_critical_share,
    empirical_lipschitz,
    monotonicity_report,
    sweep_alpha,
)
from routegame.calculus import check_conditions
from routegame.equilibrium import solve_equilibrium, wardrop_residual
from routegame.netmodel import enumerate_paths


def _share(net, alpha):
    return tuple(od.with_share(alpha) for od in net.od_pairs)


class TestComputeSupports:
    def test_case_b_quarter_share(self, net_case_b, inc_case_b):
        res = solve_equilibrium(net_case_b, inc_case_b, _share(net_case_b, 0.25))
        supports = compute_supports(res.z_star, res.f_star, 2.0)
        assert supports.paths_C == {0, 1}
        assert supports.paths_S == {0, 1}
        assert supports.links_S == {0, 1}

    def test_zero_share_empty_fleet(self, net_case_b, inc_case_b):
        res = solve_equilibrium(net_case_b, inc_case_b, _share(net_case_b, 0.0))
        supports = compute_supports(res.z_star, res.f_star, 2.0)
        assert supports.paths_C == frozenset()
        assert supports.paths_S == {0, 1}

    def test_singleton(self):
        net = single_link(2.0)
        inc = enumerate_paths(net)
        res = solve_equilibrium(net, inc, _share(net, 0.5))
        supports = compute_supports(res.z_star, res.f_star, 2.0)
        assert supports.paths_S == {0} and supports.paths_C == {0}


class TestSweep:
    def test_case_b_poa_values(self, net_case_b, inc_case_b):
        sweep = sweep_alpha(net_case_b, inc_case_b,
                            grid=[0.0, 0.25, 0.5, 0.75, 1.0])
        poa = [r.poa for r in sweep]
        expected = [24 / 23, 24 / 23, 24 / 23, 2.90625 / 2.875, 1.0]
        np.testing.assert_allclose(poa, expected, atol=1e-8)

    def test_case_a_poa_values(self, net_case_a, inc_case_a):
        sweep = sweep_alpha(net_case_a, inc_case_a, grid=[0.0, 0.5, 1.0])
        np.testing.assert_allclose(
            [r.poa for r in sweep],
            [8 / 7, 0.90625 / 0.875, 1.0], atol=1e-8)

    def test_single_link_poa_constant_one(self):
        net = single_link(2.0, coeffs=(0.5, 1.0, 0.2, 0.0))
        inc = enumerate_paths(net)
        sweep = sweep_alpha(net, inc, grid=np.linspace(0, 1, 11))
        assert all(abs(r.poa - 1.0) < 1e-9 for r in sweep)

    def test_multi_od_rejected(self):
        from routegame.netmodel import DelayPoly, Link, Network, OdSpec
        net = Network(
            nodes=("o", "d"),
            links=(Link("l1", "o", "d", DelayPoly((0.0, 1.0, 0.0, 0.0))),),
            od_pairs=(OdSpec("o", "d", 1.0, 0.0), OdSpec("o", "d", 1.0, 0.0)),
        )
        inc = enumerate_paths(net)
        with pytest.raises(AssumptionViolated):
            sweep_alpha(net, inc, grid=[0.0, 1.0])

    def test_aggregate_constant_on_flat_range(self, net_case_b, inc_case_b):
        sweep = sweep_alpha(net_case_b, inc_case_b, grid=np.linspace(0, 0.5, 11))
        F0 = sweep[0].f_star.F
        for rec in sweep:
            np.testing.assert_allclose(rec.f_star.F, F0, atol=1e-7)

    def test_zero_demand(self):
        # no conditions box exists at zero demand; the sweep solves the
        # trivial game, as solve_equilibrium does
        net = single_link(0.0)
        sweep = sweep_alpha(net, enumerate_paths(net), grid=[0.0, 1.0])
        assert all(r.converged and r.poa == 1.0 and r.total_delay == 0.0
                   for r in sweep)

    def test_nonconvergence_recorded_not_raised(self, net_case_b, inc_case_b):
        sweep = sweep_alpha(net_case_b, inc_case_b, grid=[0.0, 0.5],
                            max_iters=2)
        assert len(sweep) == 2
        assert not any(r.converged for r in sweep)


class TestScaledConstruction:
    def test_identity_at_alpha_tilde(self, net_case_b, inc_case_b):
        res = solve_equilibrium(net_case_b, inc_case_b, _share(net_case_b, 0.4))
        z = construct_scaled_equilibrium(res, 0.4, 0.4)
        np.testing.assert_allclose(z.stacked(), res.z_star.stacked(), atol=1e-14)

    def test_full_transfer_at_zero(self, net_case_b, inc_case_b):
        res = solve_equilibrium(net_case_b, inc_case_b, _share(net_case_b, 0.4))
        z = construct_scaled_equilibrium(res, 0.4, 0.0)
        np.testing.assert_allclose(z.zC, [0.0, 0.0])
        np.testing.assert_allclose(
            z.zS, res.z_star.zS + res.z_star.zC, atol=1e-14)

    def test_aggregate_load_unchanged(self, net_case_b, inc_case_b):
        res = solve_equilibrium(net_case_b, inc_case_b, _share(net_case_b, 0.4))
        for alpha in (0.0, 0.1, 0.25):
            z = construct_scaled_equilibrium(res, 0.4, alpha)
            np.testing.assert_allclose(
                z.induced_load(inc_case_b.matrix).F, res.f_star.F, atol=1e-12)

    def test_candidate_is_equilibrium(self, net_case_b, inc_case_b):
        res = solve_equilibrium(net_case_b, inc_case_b, _share(net_case_b, 0.4))
        for alpha in (0.0, 0.2, 0.35):
            z = construct_scaled_equilibrium(res, 0.4, alpha)
            resid = wardrop_residual(
                net_case_b, inc_case_b, _share(net_case_b, alpha), z)
            assert resid < 1e-9

    def test_preconditions(self, net_case_a, inc_case_a, net_case_b, inc_case_b):
        res = solve_equilibrium(net_case_b, inc_case_b, _share(net_case_b, 0.4))
        with pytest.raises(ValueError):
            construct_scaled_equilibrium(res, 0.0, 0.0)
        with pytest.raises(ValueError):
            construct_scaled_equilibrium(res, 0.4, 0.5)
        # Case A at positive share: fleet uses a path the selfish class
        # does not; the inclusion precondition fails
        res_a = solve_equilibrium(net_case_a, inc_case_a, _share(net_case_a, 0.5))
        with pytest.raises(ValueError):
            construct_scaled_equilibrium(res_a, 0.5, 0.25)


class TestCriticalShare:
    def test_case_b(self, net_case_b, inc_case_b):
        sweep = sweep_alpha(net_case_b, inc_case_b, grid=np.linspace(0, 1, 101))
        report = detect_critical_share(net_case_b, inc_case_b, sweep)
        assert abs(report.alpha_tilde - 0.5) <= 1e-4
        assert report.poa_flat_ok
        assert report.flat_deviation <= 1e-6
        assert report.construction_residual < 1e-7

    def test_case_a_degenerate(self, net_case_a, inc_case_a):
        sweep = sweep_alpha(net_case_a, inc_case_a, grid=np.linspace(0, 1, 101))
        report = detect_critical_share(net_case_a, inc_case_a, sweep)
        assert report.alpha_tilde == 0.0
        # PoA strictly decreases from alpha = 0 on
        assert sweep[1].poa < sweep[0].poa - 1e-6

    def test_example1_flat_region_ends_near_quarter(self, net_example1, inc_example1):
        sweep = sweep_alpha(net_example1, inc_example1,
                            grid=np.linspace(0, 1, 101))
        report = detect_critical_share(net_example1, inc_example1, sweep)
        assert abs(report.alpha_tilde - 0.25) <= 1e-4
        assert report.poa_flat_ok
        assert report.construction_residual < 1e-7

    def test_single_link_flat_everywhere(self):
        # inclusion holds at every interior share (the all-fleet endpoint
        # has an empty selfish support, so the refinement stops just
        # below 1); the PoA is identically 1
        net = single_link(2.0)
        inc = enumerate_paths(net)
        sweep = sweep_alpha(net, inc, grid=np.linspace(0, 1, 11))
        report = detect_critical_share(net, inc, sweep)
        assert report.alpha_tilde > 1.0 - 1e-4
        assert report.poa_flat_ok

    def test_grid_must_start_at_zero(self, net_case_b, inc_case_b):
        sweep = sweep_alpha(net_case_b, inc_case_b, grid=[0.5, 1.0])
        with pytest.raises(ValueError):
            detect_critical_share(net_case_b, inc_case_b, sweep)


class TestMonotonicity:
    def test_case_b_all_checks_pass(self, net_case_b, inc_case_b):
        sweep = sweep_alpha(net_case_b, inc_case_b, grid=np.linspace(0, 1, 101))
        report = monotonicity_report(sweep, net_case_b)
        assert report.all_ok()
        assert len(report.breakpoints) == 1
        lo, hi = report.breakpoints[0]
        assert lo <= 0.5 <= hi + 1e-12

    def test_case_a_all_checks_pass(self, net_case_a, inc_case_a):
        sweep = sweep_alpha(net_case_a, inc_case_a, grid=np.linspace(0, 1, 51))
        report = monotonicity_report(sweep, net_case_a)
        assert report.all_ok()

    def test_example1_breakpoints(self, net_example1, inc_example1):
        sweep = sweep_alpha(net_example1, inc_example1,
                            grid=np.linspace(0, 1, 101))
        report = monotonicity_report(sweep, net_example1)
        assert report.all_ok()
        brackets = report.breakpoints
        assert any(lo <= 0.25 <= hi + 1e-12 for lo, hi in brackets)
        assert any(lo <= 0.95 <= hi + 1e-12 for lo, hi in brackets)

    def test_random_parallel_instance(self):
        from routegame.cli import gen_random_parallel
        net = gen_random_parallel(42, 4, 2.0)
        inc = enumerate_paths(net)
        sweep = sweep_alpha(net, inc, grid=np.linspace(0, 1, 51))
        report = monotonicity_report(sweep, net)
        assert report.all_ok()

    def test_poa_bracketing(self, net_example1, inc_example1):
        sweep = sweep_alpha(net_example1, inc_example1,
                            grid=np.linspace(0, 1, 21))
        poa_first = sweep[0].poa
        poa_last = sweep[-1].poa
        for rec in sweep:
            assert poa_last - 1e-8 <= rec.poa <= poa_first + 1e-8

    def test_supports_nonempty_and_overlapping(self, net_example1, inc_example1):
        sweep = sweep_alpha(net_example1, inc_example1,
                            grid=np.linspace(0, 1, 21))
        for rec in sweep:
            if 0.0 < rec.alpha < 1.0:
                assert rec.supports.links_S
                assert rec.supports.links_C
                assert rec.supports.links_S & rec.supports.links_C

    def test_nonparallel_requires_exploratory(self, net_example2, inc_example2):
        sweep = sweep_alpha(net_example2, inc_example2, grid=[0.0, 0.5, 1.0])
        with pytest.raises(AssumptionViolated):
            monotonicity_report(sweep, net_example2)
        report = monotonicity_report(sweep, net_example2, exploratory=True)
        assert report.exploratory

    def test_violation_witness_reported(self, net_case_b, inc_case_b):
        # force a fake violation by shuffling records: the report must
        # flag it with a witness rather than assert
        sweep = sweep_alpha(net_case_b, inc_case_b, grid=[0.0, 0.6, 0.8])
        doctored = [sweep[0], sweep[2], sweep[1]]
        doctored = [
            type(sweep[0])(**{**rec.__dict__, "alpha": a})
            for rec, a in zip(doctored, [0.0, 0.6, 0.8])
        ]
        report = monotonicity_report(doctored, net_case_b)
        assert not report.poa_nonincreasing
        assert report.poa_violation > 0
        assert "poa" in report.witnesses


class TestEmpiricalLipschitz:
    def test_single_link_exact_slope(self):
        # loads move along ((1 - a) D, a D): slope norm is sqrt(2) D
        D = 2.0
        net = single_link(D, coeffs=(0.5, 1.0, 0.1, 0.01))
        inc = enumerate_paths(net)
        sweep = sweep_alpha(net, inc, grid=np.linspace(0, 1, 21))
        cond = check_conditions(net, D)
        max_ratio, bound, ok = empirical_lipschitz(sweep, cond, 1, D)
        assert max_ratio == pytest.approx(np.sqrt(2.0) * D, rel=1e-6)
        assert ok
        assert bound >= max_ratio

    def test_case_b(self, net_case_b, inc_case_b):
        sweep = sweep_alpha(net_case_b, inc_case_b, grid=np.linspace(0, 1, 51))
        cond = check_conditions(net_case_b, 2.0)
        max_ratio, bound, ok = empirical_lipschitz(sweep, cond, 2, 2.0)
        assert ok
        # piecewise-linear equilibrium path: slope 2 on the flat range,
        # sqrt(6.5) past the critical share
        assert max_ratio == pytest.approx(np.sqrt(6.5), rel=1e-5)
