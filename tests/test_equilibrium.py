from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bundled, two_link
from routegame.calculus import (
    FlowProfile,
    check_conditions,
    coefficient_table,
    jacobian_norms_sq,
    link_costs,
    poly_eval,
)
from routegame.cli import gen_random_parallel
from routegame.equilibrium import (
    DEFAULT_MAX_ITERS,
    FEASIBILITY_TOL,
    SUPPORT_EPS,
    ConditionsUnverified,
    NotConverged,
    _EngineContext,
    _extragradient_step,
    _path_lipschitz,
    _polish,
    _project_blocks,
    _solve_many,
    _uniform_start,
    project_feasible,
    solve_equilibrium,
    solve_equilibrium_batch,
    vi_gap,
    wardrop_residual,
)
from routegame.netmodel import (
    DelayPoly,
    Link,
    Network,
    OdSpec,
    enumerate_paths,
    feasibility_residual,
)
from routegame.oracle import brute_force_equilibrium
from scalar_reference import link_delay, marginal_delay, operator_H


def _share(net, alpha):
    return tuple(od.with_share(alpha) for od in net.od_pairs)


class TestProjection:
    def fixture(self):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 1.0)
        return net, enumerate_paths(net), net.od_pairs

    def test_identity_on_feasible(self):
        _, inc, ods = self.fixture()
        y = np.array([0.3, 0.7, 0.0, 0.0])
        z = project_feasible(inc, ods, y)
        np.testing.assert_allclose(z.stacked(), y, atol=1e-15)

    def test_symmetric_split(self):
        _, inc, ods = self.fixture()
        z = project_feasible(inc, ods, np.array([2.0, 2.0, 0.0, 0.0]))
        np.testing.assert_allclose(z.zS, [0.5, 0.5])

    def test_threshold_clips_to_vertex(self):
        _, inc, ods = self.fixture()
        z = project_feasible(inc, ods, np.array([1.5, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(z.zS, [1.0, 0.0])

    def test_idempotent_and_feasible_random(self):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 2.0, 0.3)
        inc = enumerate_paths(net)
        ods = net.od_pairs
        rng = np.random.default_rng(17)
        for _ in range(50):
            y = rng.uniform(-2, 3, size=4)
            z = project_feasible(inc, ods, y)
            assert feasibility_residual(inc, ods, z) < 1e-12
            z2 = project_feasible(inc, ods, z.stacked())
            np.testing.assert_allclose(z2.stacked(), z.stacked(), atol=1e-14)

    @pytest.mark.parametrize("demand", [1e-9, 1e-300])
    def test_demand_below_the_flows_ulp_stays_feasible(self, demand):
        # a demand below the ulp of the largest entry rounded every entry's
        # threshold test away, and the block kept its positive parts
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), demand)
        inc = enumerate_paths(net)
        z = project_feasible(inc, net.od_pairs, np.array([1.8, 0.9, -1.0, 0.5]))
        assert (z.stacked() >= 0.0).all()
        assert feasibility_residual(inc, net.od_pairs, z) <= 1e-15

    def test_wrong_length(self):
        _, inc, ods = self.fixture()
        with pytest.raises(ValueError):
            project_feasible(inc, ods, np.zeros(3))


class TestWardropResidual:
    def fixture(self, alpha=0.0):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 2.0)
        return net, enumerate_paths(net), _share(net, alpha)

    def test_wardrop_point(self):
        net, inc, ods = self.fixture()
        z = FlowProfile(zS=np.array([1.5, 0.5]), zC=np.zeros(2))
        assert wardrop_residual(net, inc, ods, z) == pytest.approx(0.0, abs=1e-12)

    def test_all_on_one_link(self):
        net, inc, ods = self.fixture()
        z = FlowProfile(zS=np.array([2.0, 0.0]), zC=np.zeros(2))
        assert wardrop_residual(net, inc, ods, z) == pytest.approx(1.0)

    def test_fleet_marginal_equalization(self):
        net, inc, ods = self.fixture(alpha=1.0)
        z = FlowProfile(zS=np.zeros(2), zC=np.array([1.25, 0.75]))
        assert wardrop_residual(net, inc, ods, z) == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_rejected(self):
        net, inc, ods = self.fixture()
        z = FlowProfile(zS=np.array([1.0, 0.5]), zC=np.zeros(2))
        with pytest.raises(ValueError):
            wardrop_residual(net, inc, ods, z)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("certificate", [wardrop_residual, vi_gap])
def test_certificates_reject_non_finite_flow(net_case_b, inc_case_b, bad,
                                             certificate):
    z = FlowProfile(zS=np.array([bad, 2.0]), zC=np.zeros(2))
    with pytest.raises(ValueError, match="flow is infeasible"):
        certificate(net_case_b, inc_case_b, net_case_b.od_pairs, z)


class TestViGap:
    def fixture(self, alpha=0.0):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 2.0)
        return net, enumerate_paths(net), _share(net, alpha)

    def test_zero_at_equilibrium(self):
        net, inc, ods = self.fixture()
        z = FlowProfile(zS=np.array([1.5, 0.5]), zC=np.zeros(2))
        assert vi_gap(net, inc, ods, z) <= 1e-8

    def test_worst_assignment(self):
        net, inc, ods = self.fixture()
        z = FlowProfile(zS=np.array([0.0, 2.0]), zC=np.zeros(2))
        assert vi_gap(net, inc, ods, z) == pytest.approx(6.0)

    def test_zero_demand(self):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 0.0)
        inc = enumerate_paths(net)
        z = FlowProfile(zS=np.zeros(2), zC=np.zeros(2))
        assert vi_gap(net, inc, net.od_pairs, z) == 0.0


class TestSolveEquilibrium:
    def case_b(self):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 2.0)
        return net, enumerate_paths(net)

    def test_case_b_selfish_only(self):
        net, inc = self.case_b()
        res = solve_equilibrium(net, inc, _share(net, 0.0))
        np.testing.assert_allclose(res.f_star.F, [1.5, 0.5], atol=1e-7)
        assert res.theta == pytest.approx(1.5, abs=1e-7)
        assert res.converged

    def test_case_b_quarter_share(self):
        net, inc = self.case_b()
        res = solve_equilibrium(net, inc, _share(net, 0.25))
        np.testing.assert_allclose(res.f_star.fC, [0.25, 0.25], atol=1e-7)
        np.testing.assert_allclose(res.f_star.fS, [1.25, 0.25], atol=1e-7)
        np.testing.assert_allclose(res.f_star.F, [1.5, 0.5], atol=1e-7)
        assert res.mu == pytest.approx(1.75, abs=1e-7)

    def test_case_b_half_share(self):
        net, inc = self.case_b()
        res = solve_equilibrium(net, inc, _share(net, 0.5))
        np.testing.assert_allclose(res.f_star.fC, [0.5, 0.5], atol=1e-7)
        np.testing.assert_allclose(res.f_star.fS, [1.0, 0.0], atol=1e-7)
        assert res.mu == pytest.approx(2.0, abs=1e-7)

    def test_case_b_full_fleet(self):
        net, inc = self.case_b()
        res = solve_equilibrium(net, inc, _share(net, 1.0))
        np.testing.assert_allclose(res.f_star.F, [1.25, 0.75], atol=1e-7)
        assert res.mu == pytest.approx(2.5, abs=1e-7)

    def test_case_a_closed_forms(self):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 1.0)
        inc = enumerate_paths(net)
        res = solve_equilibrium(net, inc, _share(net, 0.0))
        np.testing.assert_allclose(res.f_star.F, [1.0, 0.0], atol=1e-7)
        res = solve_equilibrium(net, inc, _share(net, 0.5))
        np.testing.assert_allclose(res.f_star.fC, [0.375, 0.125], atol=1e-7)
        np.testing.assert_allclose(res.f_star.fS, [0.5, 0.0], atol=1e-7)
        res = solve_equilibrium(net, inc, _share(net, 1.0))
        np.testing.assert_allclose(res.f_star.F, [0.75, 0.25], atol=1e-7)

    def test_certificates_hold_at_solution(self):
        net, inc = self.case_b()
        ods = _share(net, 0.4)
        res = solve_equilibrium(net, inc, ods, tol=1e-8)
        assert res.wardrop_residual <= 1e-8
        assert feasibility_residual(inc, ods, res.z_star) <= 3e-10
        fTH = res.f_star.stacked() @ operator_H(net, res.f_star)
        assert res.vi_gap <= 1e-8 * (1.0 + fTH)

    def test_load_unique_across_starts(self):
        # identical loads from the uniform start and an all-on-first start
        net = two_link((0.2, 0.8, 0.1, 0.02), (1.0, 0.4, 0.0, 0.05), 2.0)
        inc = enumerate_paths(net)
        ods = _share(net, 0.35)
        res_uniform = solve_equilibrium(net, inc, ods, tol=1e-9)
        first = FlowProfile(
            zS=np.array([ods[0].demand_selfish, 0.0]),
            zC=np.array([ods[0].demand_fleet, 0.0]),
        )
        res_first = solve_equilibrium(net, inc, ods, tol=1e-9, init=first)
        np.testing.assert_allclose(
            res_uniform.f_star.stacked(), res_first.f_star.stacked(),
            atol=1e-8)

    def test_wardrop_conditions_per_class(self):
        # every used selfish path sits at theta, every used fleet path at mu
        net = two_link((0.1, 1.0, 0.2, 0.0), (0.8, 0.6, 0.0, 0.05), 2.0)
        inc = enumerate_paths(net)
        ods = _share(net, 0.45)
        res = solve_equilibrium(net, inc, ods, tol=1e-9)
        from routegame.calculus import coefficient_table, poly_eval
        coeffs = coefficient_table(net)
        F = res.f_star.F
        d = poly_eval(coeffs, F, 0)
        m = d + res.f_star.fC * poly_eval(coeffs, F, 1)
        dP = d @ inc.matrix
        mP = m @ inc.matrix
        eps = 1e-6 * 2.0
        for p in range(inc.n_paths):
            if res.z_star.zS[p] > eps:
                assert dP[p] == pytest.approx(res.theta, abs=1e-8)
            if res.z_star.zC[p] > eps:
                assert mP[p] == pytest.approx(res.mu, abs=1e-8)

    def test_matches_oracle(self):
        net, inc = self.case_b()
        ods = _share(net, 0.6)
        res = solve_equilibrium(net, inc, ods)
        oracle_load, cert = brute_force_equilibrium(net, inc, ods, 2001)
        assert cert < 1e-3
        step = 2.0 / 2000
        assert np.max(np.abs(
            res.f_star.stacked() - oracle_load.stacked())) <= 2 * step

    def test_not_converged_carries_result(self):
        net, inc = self.case_b()
        with pytest.raises(NotConverged) as exc_info:
            solve_equilibrium(net, inc, _share(net, 0.0), max_iters=2)
        result = exc_info.value.result
        assert not result.converged
        assert result.iterations == 2
        assert result.wardrop_residual > 0

    def test_conditions_gate(self):
        # l2's delay 1 + x^3 has zero slope at zero load (a1 = 0), so
        # strong monotonicity fails on the box and neither solver runs
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 1.0), 2.0)
        inc = enumerate_paths(net)
        assert not check_conditions(net, 2.0).strong_mono_ok
        with pytest.raises(ConditionsUnverified, match="worst link l2"):
            solve_equilibrium(net, inc, _share(net, 0.0))
        with pytest.raises(ConditionsUnverified, match="worst link l2"):
            solve_equilibrium_batch(net, inc, net.od_pairs[0], [0.0, 1.0])

    def test_zero_demand(self):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 0.0)
        inc = enumerate_paths(net)
        res = solve_equilibrium(net, inc, net.od_pairs)
        assert res.converged
        np.testing.assert_allclose(res.f_star.F, [0.0, 0.0])
        assert res.theta == pytest.approx(0.0)

    def test_multi_od(self):
        # two OD pairs with disjoint link sets solve to their separate
        # Wardrop points
        links = (
            Link("a1", "o1", "d1", DelayPoly((0.0, 1.0, 0.0, 0.0))),
            Link("a2", "o1", "d1", DelayPoly((1.0, 1.0, 0.0, 0.0))),
            Link("b1", "o2", "d2", DelayPoly((0.0, 2.0, 0.0, 0.0))),
            Link("b2", "o2", "d2", DelayPoly((0.5, 1.0, 0.0, 0.0))),
        )
        net = Network(
            nodes=("o1", "d1", "o2", "d2"),
            links=links,
            od_pairs=(OdSpec("o1", "d1", 2.0, 0.0),
                      OdSpec("o2", "d2", 1.0, 0.0)),
        )
        inc = enumerate_paths(net)
        res = solve_equilibrium(net, inc, net.od_pairs)
        np.testing.assert_allclose(res.f_star.F[:2], [1.5, 0.5], atol=1e-7)
        # second OD: 2 F3 = 0.5 + F4, F3 + F4 = 1 -> F3 = 0.5, F4 = 0.5
        np.testing.assert_allclose(res.f_star.F[2:], [0.5, 0.5], atol=1e-7)


class TestBatchSolver:
    def test_batch_matches_sequential(self):
        net = two_link((0.1, 0.9, 0.15, 0.01), (0.7, 0.5, 0.05, 0.02), 2.0)
        inc = enumerate_paths(net)
        alphas = [0.0, 0.3, 0.7, 1.0]
        batch = solve_equilibrium_batch(net, inc, net.od_pairs[0], alphas)
        for alpha, res in zip(alphas, batch):
            single = solve_equilibrium(net, inc, _share(net, alpha))
            np.testing.assert_allclose(
                res.f_star.stacked(), single.f_star.stacked(), atol=1e-7)
            assert res.converged

    def test_batch_reports_per_share_nonconvergence(self):
        net = two_link((0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), 2.0)
        inc = enumerate_paths(net)
        batch = solve_equilibrium_batch(
            net, inc, net.od_pairs[0], [0.0, 0.5], max_iters=2)
        assert all(not r.converged for r in batch)


# ---------------------------------------------------------------------------
# grouped engine against the per-block, per-OD reference
# ---------------------------------------------------------------------------


def _ref_project_simplex_rows(V, sums):
    """Per-block projection of the earlier engine, kept as the reference."""
    out = np.zeros_like(V)
    pos = sums > 0.0
    if not np.any(pos):
        return out
    Vp = V[pos]
    sp = sums[pos]
    u = np.sort(Vp, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    j = np.arange(1, V.shape[1] + 1, dtype=float)
    rho = (u * j > css - sp[:, None]).sum(axis=1) - 1
    theta = (css[np.arange(len(sp)), rho] - sp) / (rho + 1.0)
    out[pos] = np.maximum(Vp - theta[:, None], 0.0)
    return out


def _ref_project_blocks(z, blocks):
    out = np.zeros_like(z)
    for cols, sums in blocks:
        if len(sums) == 1 and z.shape[0] > 1:
            sums = np.broadcast_to(sums, (z.shape[0],))
        out[:, cols] = _ref_project_simplex_rows(z[:, cols], sums)
    return out


def _ref_blocks(ctx):
    return ([(cols, ctx.dem[:, k]) for k, cols in enumerate(ctx.od_cols)]
            + [(cols + ctx.P, ctx.dem[:, ctx.K + k])
               for k, cols in enumerate(ctx.od_cols)])


def _ref_residuals(ctx, z):
    """Per-OD residual loop of the earlier engine, kept as the reference."""
    P, K = ctx.P, ctx.K
    zS, zC = z[:, :P], z[:, P:]
    fS = zS @ ctx.A.T
    fC = zC @ ctx.A.T
    d, m = link_costs(ctx.coeffs, fS, fC)
    dP = d @ ctx.A
    mP = m @ ctx.A
    n = z.shape[0]
    wr = np.zeros(n)
    best = np.zeros(n)
    for k, cols in enumerate(ctx.od_cols):
        d_k = dP[:, cols]
        m_k = mP[:, cols]
        d_min = d_k.min(axis=1)
        m_min = m_k.min(axis=1)
        spread_S = np.where(zS[:, cols] > ctx.eps_used,
                            d_k - d_min[:, None], 0.0).max(axis=1)
        spread_C = np.where(zC[:, cols] > ctx.eps_used,
                            m_k - m_min[:, None], 0.0).max(axis=1)
        wr = np.maximum(wr, np.maximum(spread_S, spread_C))
        best += ctx.dem[:, k] * d_min + ctx.dem[:, K + k] * m_min
    fTH = (fS * d + fC * m).sum(axis=1)
    gap = np.maximum(fTH - best, 0.0)
    return wr, gap, fTH


def _ref_polish_row(ctx, z_row, row):
    """Per-row Newton polish of the earlier engine, kept as the reference.

    Solves the square system {used-path costs equal per class and OD pair,
    demands met} for the used path flows and the per-OD cost levels, with
    flows below the support threshold zeroed out. The refined point
    replaces the iterate only when it stays non-negative, is feasible, and
    does not worsen either residual certificate.
    """
    P, K = ctx.P, ctx.K
    dem_row = ctx.dem[row:row + 1]
    row_ctx = copy.copy(ctx)
    row_ctx.dem = dem_row
    wr0, gap0, _, _ = row_ctx.residuals(z_row[None, :])

    s_blocks: list[tuple[int, np.ndarray]] = []
    c_blocks: list[tuple[int, np.ndarray]] = []
    for k, cols in enumerate(ctx.od_cols):
        if ctx.dem[row, k] > 0.0:
            u = cols[z_row[cols] > ctx.eps_used]
            if len(u) == 0:
                return z_row
            s_blocks.append((k, u))
        if ctx.dem[row, K + k] > 0.0:
            u = cols[z_row[P + cols] > ctx.eps_used]
            if len(u) == 0:
                return z_row
            c_blocks.append((k, u))
    if not s_blocks and not c_blocks:
        return z_row

    uS = (np.concatenate([u for _, u in s_blocks])
          if s_blocks else np.empty(0, dtype=int))
    uC = (np.concatenate([u for _, u in c_blocks])
          if c_blocks else np.empty(0, dtype=int))
    nS, nC = len(uS), len(uC)
    nSb, nCb = len(s_blocks), len(c_blocks)
    dim = nS + nC + nSb + nCb
    AS = ctx.A[:, uS]
    AC = ctx.A[:, uC]

    x = np.concatenate([
        z_row[uS], z_row[P + uC], np.zeros(nSb), np.zeros(nCb)
    ])

    def unpack(vec: np.ndarray) -> np.ndarray:
        z = np.zeros_like(z_row)
        z[uS] = vec[:nS]
        z[P + uC] = vec[nS:nS + nC]
        return z

    # initial cost levels from the current iterate
    z_cur = unpack(x)
    d, m = link_costs(ctx.coeffs, ctx.A @ z_cur[:P], ctx.A @ z_cur[P:])
    off = 0
    for b, (_, u) in enumerate(s_blocks):
        x[nS + nC + b] = (d @ AS)[off:off + len(u)].mean()
        off += len(u)
    off = 0
    for b, (_, u) in enumerate(c_blocks):
        x[nS + nC + nSb + b] = (m @ AC)[off:off + len(u)].mean()
        off += len(u)

    for _ in range(10):
        z_cur = unpack(x)
        fC = ctx.A @ z_cur[P:]
        F = ctx.A @ z_cur[:P] + fC
        d = poly_eval(ctx.coeffs, F, 0)
        d1 = poly_eval(ctx.coeffs, F, 1)
        d2 = poly_eval(ctx.coeffs, F, 2)
        m = d + fC * d1

        resid = np.zeros(dim)
        jac = np.zeros((dim, dim))
        jac[:nS, :nS] = AS.T @ (d1[:, None] * AS)
        jac[:nS, nS:nS + nC] = AS.T @ (d1[:, None] * AC)
        jac[nS:nS + nC, :nS] = AC.T @ ((d1 + fC * d2)[:, None] * AS)
        jac[nS:nS + nC, nS:nS + nC] = AC.T @ ((2.0 * d1 + fC * d2)[:, None] * AC)

        dP = d @ AS
        mP = m @ AC
        off = 0
        for b, (k, u) in enumerate(s_blocks):
            rows = slice(off, off + len(u))
            resid[rows] = dP[rows] - x[nS + nC + b]
            jac[rows, nS + nC + b] = -1.0
            off += len(u)
        off = 0
        for b, (k, u) in enumerate(c_blocks):
            rows = slice(nS + off, nS + off + len(u))
            resid[rows] = mP[off:off + len(u)] - x[nS + nC + nSb + b]
            jac[rows, nS + nC + nSb + b] = -1.0
            off += len(u)
        # demand rows occupy the multiplier row indices, keeping J square
        off = 0
        for b, (k, u) in enumerate(s_blocks):
            r = nS + nC + b
            resid[r] = x[off:off + len(u)].sum() - ctx.dem[row, k]
            jac[r, off:off + len(u)] = 1.0
            off += len(u)
        off = 0
        for b, (k, u) in enumerate(c_blocks):
            r = nS + nC + nSb + b
            resid[r] = (x[nS + off:nS + off + len(u)].sum()
                        - ctx.dem[row, K + k])
            jac[r, nS + off:nS + off + len(u)] = 1.0
            off += len(u)

        scale = 1.0 + float(np.abs(x[nS + nC:]).max(initial=0.0))
        if float(np.abs(resid).max()) <= 1e-13 * scale:
            break
        try:
            delta = np.linalg.solve(jac, resid)
        except np.linalg.LinAlgError:
            delta, *_ = np.linalg.lstsq(jac, resid, rcond=None)
        x = x - delta

    flows = x[:nS + nC]
    if flows.min(initial=0.0) < -1e-10:
        return z_row
    x[:nS + nC] = np.maximum(flows, 0.0)
    z_new = _project_blocks(unpack(x)[None, :], ctx.groups, dem_row)
    wr1, gap1, _, _ = row_ctx.residuals(z_new)
    if wr1[0] <= wr0[0] + 1e-15 and gap1[0] <= gap0[0] + 1e-15:
        return z_new[0]
    return z_row


def _two_od_net(alpha=0.0):
    """Two OD pairs on disjoint parallel links: 2 paths, then 3 paths."""
    links = (
        Link("a1", "o1", "d1", DelayPoly((0.0, 1.0, 0.0, 0.0))),
        Link("a2", "o1", "d1", DelayPoly((1.0, 1.0, 0.0, 0.0))),
        Link("b1", "o2", "d2", DelayPoly((0.0, 1.0, 0.0, 0.0))),
        Link("b2", "o2", "d2", DelayPoly((0.5, 1.0, 0.0, 0.0))),
        Link("b3", "o2", "d2", DelayPoly((1.2, 1.0, 0.0, 0.0))),
    )
    return Network(
        nodes=("o1", "d1", "o2", "d2"),
        links=links,
        od_pairs=(OdSpec("o1", "d1", 2.0, alpha),
                  OdSpec("o2", "d2", 2.0, alpha)),
    )


def _engine_nets():
    one_od = Network(
        nodes=("o", "d"),
        links=tuple(Link(f"l{i}", "o", "d", DelayPoly(c)) for i, c in
                    enumerate([(0.1, 0.9, 0.15, 0.01), (0.7, 0.5, 0.05, 0.02),
                               (0.3, 1.2, 0.0, 0.04)])),
        od_pairs=(OdSpec("o", "d", 2.5, 0.0),),
    )
    two_od = Network(
        nodes=("o1", "d1", "o2", "d2"),
        links=_two_od_net().links[:2] + tuple(
            Link(f"b{i}", "o2", "d2", DelayPoly(c)) for i, c in
            enumerate([(0.2, 0.8, 0.1, 0.02), (1.0, 0.4, 0.0, 0.05),
                       (0.5, 1.5, 0.3, 0.0)])),
        od_pairs=(OdSpec("o1", "d1", 2.0, 0.0), OdSpec("o2", "d2", 1.5, 0.0)),
    )
    return {"one-od": one_od, "two-od-2-3": two_od}


# shares 0, 1 and interior ones, so the zero-demand rows of both classes
# are included
ENGINE_SHARES = [0.0, 0.37, 1.0, 0.81]


@pytest.fixture(params=["one-od", "two-od-2-3"])
def batched_engine(request):
    """Engine context batched over ``ENGINE_SHARES``."""
    net = _engine_nets()[request.param]
    ctx = _EngineContext(net, enumerate_paths(net), net.od_pairs)
    ctx.set_alphas(ENGINE_SHARES)
    return ctx


def test_width_groups_of_one_and_two_od_pairs(batched_engine):
    ctx = batched_engine
    widths = sorted(idx.shape for idx, _ in ctx.groups)
    assert widths == ([(2, 3)] if ctx.K == 1 else [(2, 2), (2, 3)])
    covered = np.sort(np.concatenate([idx.ravel() for idx, _ in ctx.groups]))
    np.testing.assert_array_equal(covered, np.arange(2 * ctx.P))


def test_grouped_projection_equals_per_block_reference(batched_engine):
    ctx = batched_engine
    rng = np.random.default_rng(11)
    n = ctx.dem.shape[0]
    for scale in (0.01, 1.0, 100.0):
        y = rng.normal(0.0, scale, size=(n, 2 * ctx.P))
        got = _project_blocks(y, ctx.groups, ctx.dem)
        want = _ref_project_blocks(y, _ref_blocks(ctx))
        assert np.array_equal(got, want)


def test_project_feasible_equals_per_block_reference():
    for net in _engine_nets().values():
        inc = enumerate_paths(net)
        ods = _share(net, 0.42)
        ctx = _EngineContext(net, inc, ods)
        rng = np.random.default_rng(5)
        for _ in range(20):
            y = rng.normal(0.0, 2.0, size=2 * inc.n_paths)
            want = _ref_project_blocks(y[None, :], _ref_blocks(ctx))[0]
            assert np.array_equal(project_feasible(inc, ods, y).stacked(),
                                  want)


def test_grouped_residuals_equal_per_od_reference(batched_engine):
    ctx = batched_engine
    rng = np.random.default_rng(23)
    n = ctx.dem.shape[0]
    for _ in range(10):
        y = rng.normal(0.3, 1.0, size=(n, 2 * ctx.P))
        z = _ref_project_blocks(y, _ref_blocks(ctx))
        wr, gap, fTH, G = ctx.residuals(z)
        ref_wr, ref_gap, ref_fTH = _ref_residuals(ctx, z)
        assert np.array_equal(wr, ref_wr)
        assert np.array_equal(gap, ref_gap)
        assert np.array_equal(fTH, ref_fTH)
        assert np.array_equal(G, ctx.costs(z)[4])


def test_two_od_mixed_share_meets_closed_forms():
    # OD 1 is case_b: at share 1/4, fS = (5/4, 1/4), fC = (1/4, 1/4),
    # theta = 3/2, mu = 7/4. OD 2 has d_l = a_l + x with a = (0, 1/2, 6/5)
    # and demand 2: the selfish class uses b1, b2 at theta = 1 + a3/6 = 6/5,
    # the fleet all three links at mu = 2 theta - 1 = 7/5, so
    # fS = (1, 1/2, 0) and fC = (mu - theta, mu - theta, (mu - a3)/2).
    net = _two_od_net(alpha=0.25)
    inc = enumerate_paths(net)
    assert [len(inc.paths_of_od(k)) for k in range(2)] == [2, 3]
    res = solve_equilibrium(net, inc, net.od_pairs, tol=1e-10)
    np.testing.assert_allclose(res.f_star.fS, [1.25, 0.25, 1.0, 0.5, 0.0],
                               atol=1e-8)
    np.testing.assert_allclose(res.f_star.fC, [0.25, 0.25, 0.2, 0.2, 0.1],
                               atol=1e-8)
    for links, theta, mu in (((0, 1), 1.5, 1.75), ((2, 3, 4), 1.2, 1.4)):
        for l in links:
            delay = net.links[l].delay
            fS, fC = res.f_star.fS[l], res.f_star.fC[l]
            d = link_delay(delay, fS + fC)
            if fS > 1e-6:
                assert d == pytest.approx(theta, abs=1e-8)
            else:
                assert d >= theta - 1e-8
            assert marginal_delay(delay, fS, fC) == pytest.approx(mu, abs=1e-8)
    assert res.theta == pytest.approx(1.2, abs=1e-8)
    assert res.mu == pytest.approx(1.4, abs=1e-8)


def _huge_case_b():
    """case_b with link l1's delay 1e308 (1 + x + x^2 + x^3), left
    unvalidated: its delay overflows to inf at every positive load."""
    return two_link((0.0, 1e308, 1e308, 1e308), (1.0, 1.0, 0.0, 0.0), 2.0,
                    0.25)


def test_non_finite_costs_stop_at_once():
    net = _huge_case_b()
    inc = enumerate_paths(net)
    with np.errstate(all="ignore"):
        with pytest.raises(NotConverged, match="non-finite costs") as info:
            solve_equilibrium(net, inc, net.od_pairs)
        batch = solve_equilibrium_batch(net, inc, net.od_pairs[0],
                                        [0.0, 0.5, 1.0])
    for res in (info.value.result, *batch):
        assert not res.converged
        assert res.iterations == 0
        assert res.wardrop_residual == np.inf


def test_certificates_fail_on_non_finite_costs():
    net = _huge_case_b()
    inc = enumerate_paths(net)
    z = FlowProfile(zS=np.array([1.0, 0.5]), zC=np.array([0.25, 0.25]))
    with np.errstate(all="ignore"):
        assert wardrop_residual(net, inc, net.od_pairs, z) == np.inf
        assert not vi_gap(net, inc, net.od_pairs, z) <= 1e-8


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.6, 1.0])
@pytest.mark.parametrize("name", ["case_a", "case_b", "example1", "example2",
                                  "golden_parallel_seed1"])
def test_polish_reaches_machine_precision(name, alpha):
    # the extragradient stop leaves both certificates near tol = 1e-8; the
    # Newton polish on the fixed support takes them to ~1e-15, so a broken
    # polish or a guard that always rejects shows up here
    net = bundled(name)
    inc = enumerate_paths(net)
    res = solve_equilibrium(net, inc, _share(net, alpha))
    assert res.wardrop_residual <= 1e-12
    assert res.vi_gap <= 1e-12


@pytest.mark.parametrize("name", ["case_a", "case_b", "example1", "example2",
                                  "golden_parallel_seed1"])
def test_batch_polish_reaches_machine_precision(name):
    # every row of one lock-step batch is polished in the same system
    net = bundled(name)
    inc = enumerate_paths(net)
    batch = solve_equilibrium_batch(net, inc, net.od_pairs[0],
                                    np.linspace(0.0, 1.0, 11))
    for res in batch:
        assert res.wardrop_residual <= 1e-12
        assert res.vi_gap <= 1e-12


# ---------------------------------------------------------------------------
# batched polish against the per-row reference
# ---------------------------------------------------------------------------


def _polish_cases():
    return {**_engine_nets(), "two-od-closed-form": _two_od_net()}


def _polish_batch(net):
    """Engine context and iterates to polish: the unpolished converged
    iterates at ``ENGINE_SHARES`` and at a fleet share too small for any
    used fleet path (that row is left as it is), then the uniform starts
    at the same shares, where the guard both accepts and rejects."""
    shares = ENGINE_SHARES + [1e-9]
    inc = enumerate_paths(net)
    captured = {}

    def capture(ctx, z, rows):
        captured.update(z=z, rows=rows)
        return z

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("routegame.equilibrium._polish", capture)
        _solve_many(net, inc, net.od_pairs, alphas=shares, tol=1e-8,
                    max_iters=DEFAULT_MAX_ITERS, init=None)
    assert captured["rows"].all()
    ctx = _EngineContext(net, inc, net.od_pairs)
    ctx.set_alphas(shares + shares)
    z = np.vstack([captured["z"],
                   _uniform_start(ctx, 2 * len(shares))[len(shares):]])
    return ctx, z, np.ones(len(z), dtype=bool)


@pytest.mark.parametrize("name", sorted(_polish_cases()))
def test_batched_polish_matches_per_row_reference(name):
    ctx, z, rows = _polish_batch(_polish_cases()[name])
    got = _polish(ctx, z, rows)
    want = np.array([_ref_polish_row(ctx, z[i], i) for i in range(len(z))])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal((got != z).any(axis=1),
                                  (want != z).any(axis=1))


@pytest.mark.parametrize("name", sorted(_polish_cases()))
def test_batched_polish_equals_polishing_each_row_alone(name):
    ctx, z, rows = _polish_batch(_polish_cases()[name])
    got = _polish(ctx, z, rows)
    alone = np.array([_polish(ctx, z, np.arange(len(z)) == i)[i]
                      for i in range(len(z))])
    np.testing.assert_allclose(got, alone, rtol=0.0, atol=1e-12)
    accepted = (got != z).any(axis=1)
    np.testing.assert_array_equal(accepted, (alone != z).any(axis=1))
    # the guard accepts some rows and rejects others, and the row without a
    # used fleet path is never touched
    assert accepted.any() and not accepted.all()
    assert not accepted[len(ENGINE_SHARES)]
    # rows left out of the selection are returned as they are
    skip = np.arange(len(z)) % 2 == 0
    np.testing.assert_array_equal(_polish(ctx, z, ~skip)[skip], z[skip])


# ---------------------------------------------------------------------------
# step size and the flows the polish leaves off the support
# ---------------------------------------------------------------------------


def _grid_net(n: int = 4, seed: int = 3, D: float = 3.0) -> Network:
    """n x n grid, links pointing right and down, one OD pair of demand D
    between opposite corners (20 paths at n = 4), coefficients drawn as
    ``gen`` draws them."""
    rng = np.random.default_rng(seed)
    links = []
    for i in range(n):
        for j in range(n):
            for di, dj in ((0, 1), (1, 0)):
                if i + di < n and j + dj < n:
                    links.append(Link(
                        f"e{len(links) + 1}", f"v{i}_{j}",
                        f"v{i + di}_{j + dj}",
                        DelayPoly((rng.uniform(0.0, 2.0), rng.uniform(0.1, 2.0),
                                   rng.uniform(0.0, 0.5),
                                   rng.uniform(0.0, 0.1)))))
    return Network(
        nodes=tuple(f"v{i}_{j}" for i in range(n) for j in range(n)),
        links=tuple(links),
        od_pairs=(OdSpec("v0_0", f"v{n - 1}_{n - 1}", D, 0.0),),
    )


def _lipschitz_nets():
    nets = {name: bundled(name) for name in (
        "case_a", "case_b", "example1", "example2", "golden_parallel_seed1")}
    return {**nets, "two-od-closed-form": _two_od_net(), "grid-4x4": _grid_net()}


@pytest.mark.parametrize("name", sorted(_lipschitz_nets()))
def test_step_constant_bounds_the_path_operator_on_feasible_flows(name):
    net = _lipschitz_nets()[name]
    inc = enumerate_paths(net)
    D = net.total_demand()
    box = check_conditions(net, D).Q * np.linalg.norm(inc.matrix, 2) ** 2
    rng = np.random.default_rng(17)
    for alpha in (0.0, 0.3, 1.0):
        ods = _share(net, alpha)
        D_fleet = sum(od.demand_fleet for od in ods)
        L = _path_lipschitz(coefficient_table(net), inc.matrix, D, D_fleet)
        assert 0.0 < L <= box * (1.0 + 1e-12)
        ctx = _EngineContext(net, inc, ods)
        for scale in (0.01, 1.0, 100.0):
            # pairs far apart, and pairs close together, where the ratio
            # approaches the local Jacobian norm
            y = rng.normal(0.0, scale * D, size=(100, 2 * inc.n_paths))
            y2 = np.concatenate([
                rng.normal(0.0, scale * D, size=(50, 2 * inc.n_paths)),
                y[50:] + rng.normal(0.0, 1e-3 * D, size=(50, 2 * inc.n_paths)),
            ])
            z = np.array([project_feasible(inc, ods, v).stacked() for v in y])
            z2 = np.array([project_feasible(inc, ods, v).stacked() for v in y2])
            G, G2 = ctx.costs(z)[4], ctx.costs(z2)[4]
            dG = np.linalg.norm(G - G2, axis=1)
            dz = np.linalg.norm(z - z2, axis=1)
            # plus the rounding of G itself, for pairs an ulp apart
            rounding = 1e-14 * np.abs(np.concatenate([G, G2], axis=1)).max()
            assert (dG <= L * dz * (1.0 + 1e-12) + rounding).all()


def test_step_constant_keeps_example2_iterations_low():
    # the feasible-load constant takes example2 at 0.3 in 955 iterations;
    # a step sized by the box constant Q |A|^2 took 8,515
    net = bundled("example2")
    res = solve_equilibrium(net, enumerate_paths(net), _share(net, 0.3))
    assert res.iterations < 1500


def test_step_constant_at_the_fleet_demand_cuts_example2_iterations():
    # at (D - D_C, D_C) example2 at 0.3 takes 738 iterations, against 955
    # at (0, D)
    net = bundled("example2")
    res = solve_equilibrium(net, enumerate_paths(net), _share(net, 0.3))
    assert res.iterations < 800


def test_adaptive_step_cuts_example2_and_gen7_iterations():
    # the fixed step 0.9 / L took 738 (example2) and 6,394 (gen seed 7)
    # steps at 0.3; the adaptive one takes 318 and 300
    for net, bound in ((bundled("example2"), 400),
                       (gen_random_parallel(7, 20, 10.0), 500)):
        res = solve_equilibrium(net, enumerate_paths(net), _share(net, 0.3))
        assert res.iterations < bound


def test_adaptive_step_solves_a_5x5_grid():
    # 70 paths on a rank-deficient incidence: the fixed step took 36,675
    # steps, the adaptive one 4,805
    net = _grid_net(n=5, seed=5, D=4.0)
    inc = enumerate_paths(net)
    res = solve_equilibrium(net, inc, _share(net, 0.3), max_iters=60_000)
    assert res.iterations < 10_000


@pytest.mark.parametrize("name", sorted(_engine_nets()))
def test_batch_rows_match_solving_each_share_alone(name):
    # each row steps with its own gamma, from a floor set by the batch's
    # largest fleet demand, and lands where the share solved alone does
    net = _engine_nets()[name]
    inc = enumerate_paths(net)
    batch = _solve_many(net, inc, net.od_pairs, alphas=ENGINE_SHARES,
                        tol=1e-8, max_iters=DEFAULT_MAX_ITERS, init=None)
    for alpha, res in zip(ENGINE_SHARES, batch):
        alone = solve_equilibrium(net, inc, _share(net, alpha))
        np.testing.assert_allclose(res.z_star.stacked(),
                                   alone.z_star.stacked(), rtol=0.0,
                                   atol=1e-9)
        assert res.theta == pytest.approx(alone.theta, rel=1e-9)
        assert res.mu == pytest.approx(alone.mu, rel=1e-9)


_STEP_FIXTURES = ("case_a", "case_b", "example1", "example2",
                  "golden_parallel_seed1")


@settings(max_examples=100, deadline=None)
@given(source=st.one_of(
           st.sampled_from(_STEP_FIXTURES),
           st.tuples(st.integers(0, 2**31 - 1), st.integers(2, 6),
                     st.floats(0.1, 10.0))),
       shares=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_accepted_steps_meet_khobotov_and_stay_above_the_floor(
        source, shares, seed):
    net = (bundled(source) if isinstance(source, str)
           else gen_random_parallel(*source))
    ctx = _EngineContext(net, enumerate_paths(net), net.od_pairs)
    ctx.set_alphas(shares)
    n = len(shares)
    D_fleet = float(ctx.dem[:, ctx.K:].sum(axis=1).max())
    gamma0 = 0.9 / _path_lipschitz(ctx.coeffs, ctx.A, ctx.D_total, D_fleet)
    rng = np.random.default_rng(seed)
    z = _project_blocks(rng.normal(0.0, ctx.D_total, size=(n, 2 * ctx.P)),
                        ctx.groups, ctx.dem)
    g = ctx.costs(z)[4]
    # from the floor to far past it, so rows both accept and backtrack
    gamma = gamma0 * 10.0 ** rng.uniform(0.0, 4.0, size=n)
    z_new, z_half, g_half, accepted, following = _extragradient_step(
        ctx, z, g, gamma, gamma0, np.ones(n, dtype=bool))

    assert np.array_equal(
        z_half, _project_blocks(z - accepted[:, None] * g, ctx.groups,
                                ctx.dem))
    assert np.array_equal(
        z_new, _project_blocks(z - accepted[:, None] * g_half, ctx.groups,
                               ctx.dem))
    dz = np.linalg.norm(z_half - z, axis=1)
    dg = np.linalg.norm(g_half - g, axis=1)
    # above the floor the rule itself tested these numbers; at the floor L
    # bounds the operator, up to the rounding of G
    above = accepted > gamma0
    assert (accepted[above] * dg[above] <= 0.9 * dz[above]).all()
    rounding = 1e-14 * np.abs(np.concatenate([g, g_half], axis=1)).max()
    assert (accepted * dg
            <= 0.9 * dz * (1.0 + 1e-12) + accepted * rounding).all()
    assert (gamma0 <= accepted).all() and (accepted <= gamma).all()
    assert np.isfinite(following).all()
    assert (gamma0 <= following).all()
    assert (following <= 1.5 * accepted).all()


def test_non_finite_operator_bound_floors_the_step_at_zero():
    # ``test_non_finite_costs_stop_at_once`` runs with gamma0 = 0.9 / inf
    net = _huge_case_b()
    coeffs, A = coefficient_table(net), enumerate_paths(net).matrix
    with np.errstate(all="ignore"):
        assert _path_lipschitz(coeffs, A, 2.0, 0.5) == np.inf


@pytest.mark.parametrize("name", sorted(_lipschitz_nets()))
def test_step_constant_at_full_fleet_demand_is_the_total_demand_one(name):
    # at fleet share 1 the constant is the one at (0, D) bit for bit, so
    # every batch whose grid holds alpha = 1 steps as it did with (0, D)
    net = _lipschitz_nets()[name]
    coeffs, A = coefficient_table(net), enumerate_paths(net).matrix
    D = net.total_demand()
    scaled = np.sqrt(np.sqrt(jacobian_norms_sq(coeffs, 0.0, D)))[:, None] * A
    expected = float(np.linalg.norm(scaled, 2)) ** 2
    assert _path_lipschitz(coeffs, A, D, D) == expected
    D_fleet = sum(od.demand_fleet for od in _share(net, 1.0))
    assert _path_lipschitz(coeffs, A, D, D_fleet) == expected
    assert _path_lipschitz(coeffs, A, D, 2.0 * D) == expected


def _assert_zero_off_support(inc, ods, res):
    z = res.z_star.stacked()
    off = z <= SUPPORT_EPS * sum(od.demand_total for od in ods)
    assert (z[off] == 0.0).all(), z[off]
    assert feasibility_residual(inc, ods, res.z_star) <= FEASIBILITY_TOL
    assert res.wardrop_residual <= 1e-12
    assert res.vi_gap <= 1e-12


def test_polish_keeps_flows_off_the_support_at_zero():
    # projecting whole blocks after the polish gave every unused path about
    # one ulp of the demand over the block width whenever the polished used
    # flows summed an ulp below the demand (gen seed 7 sweep rows)
    net = gen_random_parallel(7, 20, 10.0)
    inc = enumerate_paths(net)
    shares = np.linspace(0.0, 1.0, 11)
    batch = solve_equilibrium_batch(net, inc, net.od_pairs[0], shares)
    for alpha, res in zip(shares, batch):
        _assert_zero_off_support(inc, _share(net, alpha), res)
    net = bundled("example2")
    inc = enumerate_paths(net)
    ods = _share(net, 0.3)
    _assert_zero_off_support(inc, ods, solve_equilibrium(net, inc, ods))
