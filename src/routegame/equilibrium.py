"""Equilibrium solver for the two-class routing game.

The mixed equilibrium (selfish users follow shortest delay, the fleet
follows shortest marginal delay) is the solution of a variational
inequality in link-load space. The solver runs an extragradient iteration
on path flows

    z  <-  proj(z - gamma * G(proj(z - gamma * G(z))))

where G stacks the path delays and path marginal delays and proj is the
exact Euclidean projection onto the per-class demand simplices. The
equilibrium load is unique under the certified strong-monotonicity
conditions; the returned flow is one representative. Solutions are
certified through the Wardrop residual (cost spread on used paths) and an
exactly computable gap function.

A support-restricted Newton polish refines the iterate after the stopping
test is met, driving residuals to near machine precision; it is guarded
and falls back to the raw iterate whenever it does not strictly improve
both certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .calculus import (
    ConditionsReport,
    FlowProfile,
    LoadProfile,
    check_conditions,
    coefficient_table,
    link_costs,
    poly_eval,
)
from .netmodel import IncidenceStructure, Network, OdSpec, feasibility_residual

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 200_000
FEASIBILITY_TOL = 1e-10
USED_PATH_EPS = 1e-6


class NotConverged(RuntimeError):
    """Solver hit the iteration cap; carries the last iterate's result."""

    def __init__(self, message: str, result: "EquilibriumResult"):
        super().__init__(message)
        self.result = result


class ConditionsUnverified(RuntimeError):
    """Strong monotonicity was not certified and no override was given."""


@dataclass(frozen=True)
class EquilibriumResult:
    """Certified equilibrium: flows, loads, minimum (marginal) delays and
    the residuals of both optimality certificates."""

    z_star: FlowProfile
    f_star: LoadProfile
    theta: float
    mu: float
    wardrop_residual: float
    vi_gap: float
    iterations: int
    converged: bool


def project_feasible(
    inc: IncidenceStructure, ods: Sequence[OdSpec], y: np.ndarray
) -> FlowProfile:
    """Euclidean projection of a 2P vector onto the feasible flow set.

    The feasible set factorizes per (class, OD pair) into scaled simplices
    {x >= 0, sum x = demand}; each block is projected by the
    sort-and-threshold rule. Idempotent.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (2 * inc.n_paths,):
        raise ValueError(f"expected a vector of length {2 * inc.n_paths}")
    blocks = []
    for k, od in enumerate(ods):
        cols = np.asarray(inc.paths_of_od(k), dtype=int)
        blocks.append((cols, np.array([od.demand_selfish])))
        blocks.append((cols + inc.n_paths, np.array([od.demand_fleet])))
    z = _project_blocks(y[None, :], blocks)
    return FlowProfile(zS=z[0, : inc.n_paths], zC=z[0, inc.n_paths:])


def wardrop_residual(
    net: Network,
    inc: IncidenceStructure,
    ods: Sequence[OdSpec],
    z: FlowProfile,
    eps: float = USED_PATH_EPS,
) -> float:
    """Largest cost spread over used paths, across classes and OD pairs.

    For each OD pair, every path carrying more than eps * D of selfish flow
    is compared against the shortest path delay, and every fleet-used path
    against the shortest marginal delay. Zero (up to solver tolerance) iff
    both equilibrium conditions hold.
    """
    D_total = float(sum(od.demand_total for od in ods))
    _require_feasible(inc, ods, z, D_total)
    ctx = _EngineContext(net, inc, ods)
    ctx.eps_used = eps * D_total
    wr, _, _ = ctx.residuals(z.stacked()[None, :])
    return float(wr[0])


def vi_gap(
    net: Network,
    inc: IncidenceStructure,
    ods: Sequence[OdSpec],
    z: FlowProfile,
) -> float:
    """Exact gap function of the load induced by a feasible flow.

    Equals max over feasible loads phi of (f - phi)' H(f), computed by
    routing each class-OD demand onto its single best path (under path
    delay for the selfish class, path marginal delay for the fleet).
    Non-negative; zero exactly at solutions.
    """
    D_total = float(sum(od.demand_total for od in ods))
    _require_feasible(inc, ods, z, D_total)
    ctx = _EngineContext(net, inc, ods)
    _, gap, _ = ctx.residuals(z.stacked()[None, :])
    return float(gap[0])


def solve_equilibrium(
    net: Network,
    inc: IncidenceStructure,
    ods: Sequence[OdSpec],
    *,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    step: Optional[float] = None,
    conditions: Optional[ConditionsReport] = None,
    force: bool = False,
    init: Optional[FlowProfile] = None,
    polish: bool = True,
    eps: float = USED_PATH_EPS,
) -> EquilibriumResult:
    """Solve the two-class game to tolerance from a deterministic start.

    Stops when the Wardrop residual is at most ``tol`` and the gap is at
    most ``tol * (1 + f'H(f))``. The step defaults to 0.9 / (Q * |A|^2)
    with Q taken from the conditions report, which is computed here unless
    supplied. Raises ConditionsUnverified when strong monotonicity is not
    certified and ``force`` is not set, and NotConverged (carrying the last
    iterate) after ``max_iters``.
    """
    results = _solve_many(
        net, inc, ods, alphas=None, tol=tol, max_iters=max_iters, step=step,
        conditions=conditions, force=force, init=init, polish=polish, eps=eps,
    )
    result = results[0]
    if not result.converged:
        raise NotConverged(
            f"no convergence after {max_iters} iterations "
            f"(wardrop={result.wardrop_residual:.3e}, gap={result.vi_gap:.3e})",
            result,
        )
    return result


def solve_equilibrium_batch(
    net: Network,
    inc: IncidenceStructure,
    od: OdSpec,
    alphas: Sequence[float],
    *,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    step: Optional[float] = None,
    conditions: Optional[ConditionsReport] = None,
    force: bool = False,
    polish: bool = True,
    eps: float = USED_PATH_EPS,
) -> list[EquilibriumResult]:
    """Solve one single-OD instance at many fleet shares simultaneously.

    All shares iterate in lock-step from cold uniform starts (the
    vectorized counterpart of running independent solvers in parallel);
    non-convergence is reported per share, never raised.
    """
    return _solve_many(
        net, inc, (od,), alphas=list(alphas), tol=tol, max_iters=max_iters,
        step=step, conditions=conditions, force=force, init=None,
        polish=polish, eps=eps,
    )


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


class _EngineContext:
    """Precomputed arrays shared by the operator, projection and residuals."""

    def __init__(self, net: Network, inc: IncidenceStructure, ods: Sequence[OdSpec]):
        self.coeffs = coefficient_table(net)
        self.A = np.ascontiguousarray(inc.matrix)
        self.P = inc.n_paths
        self.od_cols = [np.asarray(inc.paths_of_od(k), dtype=int)
                        for k in range(len(ods))]
        self.ods = tuple(ods)
        self.D_total = float(sum(od.demand_total for od in ods))
        self.eps_used = USED_PATH_EPS * self.D_total
        # per-row demands, shape (n, K); single row unless batched
        self.demS = np.array([[od.demand_selfish for od in ods]])
        self.demC = np.array([[od.demand_fleet for od in ods]])

    def set_alphas(self, alphas: Sequence[float]) -> None:
        totals = np.array([od.demand_total for od in self.ods])
        a = np.asarray(alphas, dtype=float)[:, None]
        self.demS = (1.0 - a) * totals[None, :]
        self.demC = a * totals[None, :]

    def blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        out = []
        for k, cols in enumerate(self.od_cols):
            out.append((cols, self.demS[:, k]))
        for k, cols in enumerate(self.od_cols):
            out.append((cols + self.P, self.demC[:, k]))
        return out

    def link_costs(self, z: np.ndarray):
        P = self.P
        zS, zC = z[:, :P], z[:, P:]
        fS = zS @ self.A.T
        fC = zC @ self.A.T
        d, m = link_costs(self.coeffs, fS, fC)
        return fS, fC, d, m

    def operator(self, z: np.ndarray) -> np.ndarray:
        _, _, d, m = self.link_costs(z)
        return np.concatenate([d @ self.A, m @ self.A], axis=1)

    def residuals(self, z: np.ndarray, demS: Optional[np.ndarray] = None,
                  demC: Optional[np.ndarray] = None):
        """Wardrop residual, gap and f'H(f) per row of the batch."""
        P = self.P
        if demS is None:
            demS, demC = self.demS, self.demC
        zS, zC = z[:, :P], z[:, P:]
        fS, fC, d, m = self.link_costs(z)
        dP = d @ self.A
        mP = m @ self.A
        n = z.shape[0]
        wr = np.zeros(n)
        best = np.zeros(n)
        for k, cols in enumerate(self.od_cols):
            d_k = dP[:, cols]
            m_k = mP[:, cols]
            d_min = d_k.min(axis=1)
            m_min = m_k.min(axis=1)
            spread_S = np.where(zS[:, cols] > self.eps_used,
                                d_k - d_min[:, None], 0.0).max(axis=1)
            spread_C = np.where(zC[:, cols] > self.eps_used,
                                m_k - m_min[:, None], 0.0).max(axis=1)
            wr = np.maximum(wr, np.maximum(spread_S, spread_C))
            best += demS[:, k] * d_min + demC[:, k] * m_min
        fTH = (fS * d + fC * m).sum(axis=1)
        gap = np.maximum(fTH - best, 0.0)
        return wr, gap, fTH

    def theta_mu(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        _, _, d, m = self.link_costs(z)
        return (d @ self.A).min(axis=1), (m @ self.A).min(axis=1)


def _project_simplex_rows(V: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Rowwise projection onto {x >= 0, sum x = s} by sort and threshold."""
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


def _project_blocks(z: np.ndarray, blocks) -> np.ndarray:
    out = np.zeros_like(z)
    for cols, sums in blocks:
        if len(sums) == 1 and z.shape[0] > 1:
            sums = np.broadcast_to(sums, (z.shape[0],))
        out[:, cols] = _project_simplex_rows(z[:, cols], sums)
    return out


def _uniform_start(ctx: _EngineContext, n: int) -> np.ndarray:
    z0 = np.zeros((n, 2 * ctx.P))
    for k, cols in enumerate(ctx.od_cols):
        z0[:, cols] = ctx.demS[:, k][:, None] / len(cols)
        z0[:, cols + ctx.P] = ctx.demC[:, k][:, None] / len(cols)
    return z0


def _require_feasible(inc, ods, z, D_total: float) -> None:
    tol = FEASIBILITY_TOL * max(1.0, D_total)
    resid = feasibility_residual(inc, ods, z)
    if resid > tol:
        raise ValueError(f"flow is infeasible (residual {resid:.3e})")


def _solve_many(
    net: Network,
    inc: IncidenceStructure,
    ods: Sequence[OdSpec],
    *,
    alphas: Optional[list[float]],
    tol: float,
    max_iters: int,
    step: Optional[float],
    conditions: Optional[ConditionsReport],
    force: bool,
    init: Optional[FlowProfile],
    polish: bool,
    eps: float,
) -> list[EquilibriumResult]:
    ctx = _EngineContext(net, inc, ods)
    ctx.eps_used = eps * ctx.D_total
    if alphas is not None:
        ctx.set_alphas(alphas)
    n = 1 if alphas is None else len(alphas)

    if ctx.D_total > 0.0:
        if conditions is None and (step is None or not force):
            conditions = check_conditions(net, ctx.D_total)
        if conditions is not None and not conditions.strong_mono_ok and not force:
            raise ConditionsUnverified(
                "strong monotonicity not certified "
                f"(worst link {conditions.worst_link}); pass force=True to "
                "solve anyway"
            )

    if step is not None:
        gamma = float(step)
    elif ctx.D_total > 0:
        A_norm_sq = float(np.linalg.norm(ctx.A, 2)) ** 2
        gamma = 0.9 / max(conditions.Q * A_norm_sq, 1e-12)
    else:
        gamma = 1.0

    blocks = ctx.blocks()
    if init is not None:
        z = _project_blocks(init.stacked()[None, :], blocks)
        z = np.repeat(z, n, axis=0)
    else:
        z = _uniform_start(ctx, n)

    active = np.ones(n, dtype=bool)
    iters = np.zeros(n, dtype=int)
    it = 0
    while it < max_iters:
        it += 1
        g1 = ctx.operator(z)
        z_half = _project_blocks(z - gamma * g1, blocks)
        g2 = ctx.operator(z_half)
        z_new = _project_blocks(z - gamma * g2, blocks)
        z = np.where(active[:, None], z_new, z)
        wr, gap, fTH = ctx.residuals(z)
        ok = (wr <= tol) & (gap <= tol * (1.0 + fTH))
        newly = active & ok
        iters[newly] = it
        active &= ~ok
        if not active.any():
            break
    converged = ~active
    iters[active] = max_iters

    if polish:
        for i in range(n):
            if converged[i]:
                z[i] = _polish_row(ctx, z[i], i)

    wr, gap, _ = ctx.residuals(z)
    theta, mu = ctx.theta_mu(z)
    results = []
    for i in range(n):
        flow = FlowProfile(zS=z[i, : ctx.P], zC=z[i, ctx.P:])
        results.append(EquilibriumResult(
            z_star=flow,
            f_star=flow.induced_load(ctx.A),
            theta=float(theta[i]),
            mu=float(mu[i]),
            wardrop_residual=float(wr[i]),
            vi_gap=float(gap[i]),
            iterations=int(iters[i]),
            converged=bool(converged[i]),
        ))
    return results


def _polish_row(ctx: _EngineContext, z_row: np.ndarray, row: int) -> np.ndarray:
    """Newton refinement on the fixed support of a converged iterate.

    Solves the square system {used-path costs equal per class and OD pair,
    demands met} for the used path flows and the per-OD cost levels, with
    flows below the support threshold zeroed out. The refined point
    replaces the iterate only when it stays non-negative, is feasible, and
    does not worsen either residual certificate.
    """
    P = ctx.P
    demS_row = ctx.demS[row:row + 1]
    demC_row = ctx.demC[row:row + 1]
    wr0, gap0, _ = ctx.residuals(z_row[None, :], demS_row, demC_row)

    s_blocks: list[tuple[int, np.ndarray]] = []
    c_blocks: list[tuple[int, np.ndarray]] = []
    for k, cols in enumerate(ctx.od_cols):
        if ctx.demS[row, k] > 0.0:
            u = cols[z_row[cols] > ctx.eps_used]
            if len(u) == 0:
                return z_row
            s_blocks.append((k, u))
        if ctx.demC[row, k] > 0.0:
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
            resid[r] = x[off:off + len(u)].sum() - ctx.demS[row, k]
            jac[r, off:off + len(u)] = 1.0
            off += len(u)
        off = 0
        for b, (k, u) in enumerate(c_blocks):
            r = nS + nC + nSb + b
            resid[r] = x[nS + off:nS + off + len(u)].sum() - ctx.demC[row, k]
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
    row_blocks = []
    for k, cols in enumerate(ctx.od_cols):
        row_blocks.append((cols, ctx.demS[row, k:k + 1]))
    for k, cols in enumerate(ctx.od_cols):
        row_blocks.append((cols + P, ctx.demC[row, k:k + 1]))
    z_new = _project_blocks(unpack(x)[None, :], row_blocks)
    wr1, gap1, _ = ctx.residuals(z_new, demS_row, demC_row)
    if wr1[0] <= wr0[0] + 1e-15 and gap1[0] <= gap0[0] + 1e-15:
        return z_new[0]
    return z_row
