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

A support-restricted Newton polish refines the iterates after the stopping
test is met, driving residuals to near machine precision. It solves one
batched KKT system for all converged rows of a batch, and is guarded per
row: a row falls back to its raw iterate whenever the polish would make
either certificate worse.

The step is 0.9 / L with L = ||diag(sqrt q) A||^2, the Lipschitz constant
of the path operator on feasible flows: q_l is the spectral norm of link
l's Jacobian block at (fS, fC) = (D - D_C, D_C), D the total demand and D_C
the largest fleet demand of any row of the batch, which bounds the block
wherever a feasible flow can load the link (proof in
``calculus.jacobian_norms_sq``). One step serves the whole batch; at
fleet share 1 it is the constant at (0, D). L is at most Q * ||A||^2 with
Q the box constant of ``check_conditions``, so the step is never smaller
than one sized by Q. A network whose conditions fail is not solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .calculus import (
    FlowProfile,
    LoadProfile,
    check_conditions,
    coefficient_table,
    jacobian_norms_sq,
    link_costs,
    link_jacobian,
)
from .netmodel import IncidenceStructure, Network, OdSpec, feasibility_residual

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 200_000
FEASIBILITY_TOL = 1e-10
# a path or link is used when its flow exceeds SUPPORT_EPS times the demand
SUPPORT_EPS = 1e-6


class NotConverged(RuntimeError):
    """Solver hit the iteration cap; carries the last iterate's result."""

    def __init__(self, message: str, result: "EquilibriumResult"):
        super().__init__(message)
        self.result = result


class ConditionsUnverified(RuntimeError):
    """Strong monotonicity of the game operator was not certified."""


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
    groups = _width_groups(_od_columns(inc, len(ods)), inc.n_paths)
    z = _project_blocks(y[None, :], groups, _demand_row(ods))
    return FlowProfile(zS=z[0, : inc.n_paths], zC=z[0, inc.n_paths:])


def wardrop_residual(
    net: Network,
    inc: IncidenceStructure,
    ods: Sequence[OdSpec],
    z: FlowProfile,
) -> float:
    """Largest cost spread over used paths, across classes and OD pairs.

    For each OD pair, every path carrying more than SUPPORT_EPS * D of
    selfish flow is compared against the shortest path delay, and every
    fleet-used path against the shortest marginal delay. Zero (up to
    solver tolerance) iff both equilibrium conditions hold.
    """
    D_total = float(sum(od.demand_total for od in ods))
    _require_feasible(inc, ods, z, D_total)
    ctx = _EngineContext(net, inc, ods)
    wr, _, _, _ = ctx.residuals(z.stacked()[None, :])
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
    _, gap, _, _ = ctx.residuals(z.stacked()[None, :])
    return float(gap[0])


def solve_equilibrium(
    net: Network,
    inc: IncidenceStructure,
    ods: Sequence[OdSpec],
    *,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    init: Optional[FlowProfile] = None,
) -> EquilibriumResult:
    """Solve the two-class game to tolerance, from the projection of
    ``init`` when given and from uniform path flows otherwise.

    Stops when the Wardrop residual is at most ``tol`` and the gap is at
    most ``tol * (1 + f'H(f))``, then applies the guarded Newton polish.
    Raises ConditionsUnverified when the network's own conditions report
    does not certify strong monotonicity, and NotConverged (carrying the
    last iterate) after ``max_iters``, or at once when the costs are not
    finite.
    """
    results = _solve_many(
        net, inc, ods, alphas=None, tol=tol, max_iters=max_iters, init=init)
    result = results[0]
    if not result.converged:
        reason = (f"no convergence after {max_iters} iterations"
                  if math.isfinite(result.vi_gap) else
                  f"non-finite costs after {result.iterations} iterations")
        raise NotConverged(
            f"{reason} (wardrop={result.wardrop_residual:.3e}, "
            f"gap={result.vi_gap:.3e})",
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
) -> list[EquilibriumResult]:
    """Solve one single-OD instance at many fleet shares simultaneously.

    All shares iterate in lock-step from cold uniform starts (the
    vectorized counterpart of running independent solvers in parallel);
    non-convergence is reported per share, never raised. A share whose
    costs are not finite stops at once with an infinite Wardrop residual.
    Stopping rule, polish and conditions gate are those of
    ``solve_equilibrium``.
    """
    return _solve_many(
        net, inc, (od,), alphas=list(alphas), tol=tol, max_iters=max_iters,
        init=None)


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


class _EngineContext:
    """Precomputed arrays shared by the operator, projection and residuals.

    Demands are stored per row as ``dem`` of shape (n, 2K): column k holds
    the selfish demand of OD pair k and column K + k its fleet demand; a
    single row unless batched. ``groups`` are the class-OD blocks grouped
    by width (see ``_width_groups``).
    """

    def __init__(self, net: Network, inc: IncidenceStructure, ods: Sequence[OdSpec]):
        self.coeffs = coefficient_table(net)
        self.A = np.ascontiguousarray(inc.matrix)
        self.P = inc.n_paths
        self.K = len(ods)
        self.od_cols = _od_columns(inc, self.K)
        self.groups = _width_groups(self.od_cols, self.P)
        self.ods = tuple(ods)
        self.D_total = float(sum(od.demand_total for od in ods))
        self.eps_used = SUPPORT_EPS * self.D_total
        self.dem = _demand_row(ods)

    def set_alphas(self, alphas: Sequence[float]) -> None:
        totals = np.array([od.demand_total for od in self.ods])
        a = np.asarray(alphas, dtype=float)[:, None]
        self.dem = np.concatenate([(1.0 - a) * totals, a * totals], axis=1)

    def costs(self, z: np.ndarray):
        """Class link loads, link delays d, marginal delays m and the stacked
        path costs [d A, m A] (the operator) per row of the batch."""
        P = self.P
        fS = z[:, :P] @ self.A.T
        fC = z[:, P:] @ self.A.T
        d, m = link_costs(self.coeffs, fS, fC)
        return fS, fC, d, m, np.concatenate([d @ self.A, m @ self.A], axis=1)

    def residuals(self, z: np.ndarray):
        """Wardrop residual, gap, f'H(f) and the operator per row of the
        batch. A row whose gap is not finite has non-finite costs; its
        Wardrop residual is infinite, so no certificate can hold."""
        dem = self.dem
        fS, fC, d, m, G = self.costs(z)
        wr = np.zeros(z.shape[0])
        lowest = np.empty_like(dem)
        for idx, blk in self.groups:
            G_b = G[:, idx]
            low = G_b.min(axis=2)
            spread = np.where(z[:, idx] > self.eps_used,
                              G_b - low[:, :, None], 0.0)
            wr = np.maximum(wr, spread.max(axis=(1, 2)))
            lowest[:, blk] = low
        K = self.K
        # best response cost summed over OD pairs in order
        best = np.cumsum(dem[:, :K] * lowest[:, :K]
                         + dem[:, K:] * lowest[:, K:], axis=1)[:, -1]
        fTH = (fS * d + fC * m).sum(axis=1)
        gap = np.maximum(fTH - best, 0.0)
        wr = np.where(np.isfinite(gap), wr, np.inf)
        return wr, gap, fTH, G


def _od_columns(inc: IncidenceStructure, K: int) -> list[np.ndarray]:
    return [np.asarray(inc.paths_of_od(k), dtype=int) for k in range(K)]


def _demand_row(ods: Sequence[OdSpec]) -> np.ndarray:
    return np.array([[od.demand_selfish for od in ods]
                     + [od.demand_fleet for od in ods]])


def _width_groups(od_cols: Sequence[np.ndarray], P: int):
    """Class-OD blocks grouped by width, as (columns, blocks) pairs: the
    columns of the group's B blocks in a (B, width) array and their block
    indices, where block k < K is the selfish block of OD pair k and
    K + k its fleet block. On one OD pair both blocks form one group."""
    cols = list(od_cols) + [c + P for c in od_cols]
    by_width: dict[int, list[int]] = {}
    for b, c in enumerate(cols):
        by_width.setdefault(len(c), []).append(b)
    return [(np.array([cols[b] for b in blocks]), np.array(blocks))
            for blocks in by_width.values()]


def _project_simplex(V: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Projection of each last-axis slice of V onto {x >= 0, sum x = s} by
    sort and threshold; slices whose sum s is not positive map to zero.

    ``sums`` has the shape of V without its last axis.
    """
    u = np.sort(V, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    j = np.arange(1, V.shape[-1] + 1, dtype=float)
    count = (u * j > css - sums[..., None]).sum(axis=-1)
    # css at position count, picked exactly (every other term is zero);
    # count is 0 only on slices that map to zero
    css_at = np.where(j == count[..., None], css, 0.0).sum(axis=-1)
    theta = (css_at - sums) / np.maximum(count, 1)
    return np.where(sums[..., None] > 0.0,
                    np.maximum(V - theta[..., None], 0.0), 0.0)


def _project_blocks(z: np.ndarray, groups, dem: np.ndarray) -> np.ndarray:
    """Project every class-OD block of each row of z, one call per group."""
    out = np.empty_like(z)
    for idx, blk in groups:
        out[:, idx] = _project_simplex(z[:, idx], dem[:, blk])
    return out


def _block_sums(ctx: _EngineContext, v: np.ndarray) -> np.ndarray:
    """Sum of each class-OD block of each row of v, one call per group.
    Each block is summed along its columns in order, as numpy sums one
    block alone; a membership-matrix product would round differently."""
    out = np.empty((v.shape[0], 2 * ctx.K))
    for idx, blk in ctx.groups:
        out[:, blk] = v[:, idx].sum(axis=2)
    return out


def _uniform_start(ctx: _EngineContext, n: int) -> np.ndarray:
    z0 = np.empty((n, 2 * ctx.P))
    for idx, blk in ctx.groups:
        z0[:, idx] = ctx.dem[:, blk][:, :, None] / idx.shape[1]
    return z0


def _path_lipschitz(
    coeffs: np.ndarray, A: np.ndarray, D_total: float, D_fleet: float
) -> float:
    """Lipschitz constant ||diag(sqrt q) A||^2 of the path operator on flows
    of total demand D_total and fleet demand at most D_fleet, q_l the norm
    of link l's Jacobian block at (D_total - D_fleet, D_fleet) (proof in
    ``jacobian_norms_sq``); infinite when a norm is not finite, where the
    spectral norm would not converge."""
    D_fleet = min(D_fleet, D_total)
    scaled = np.sqrt(np.sqrt(
        jacobian_norms_sq(coeffs, D_total - D_fleet, D_fleet)))
    scaled = scaled[:, None] * A
    if not np.isfinite(scaled).all():
        return math.inf
    return float(np.linalg.norm(scaled, 2)) ** 2


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
    init: Optional[FlowProfile],
) -> list[EquilibriumResult]:
    ctx = _EngineContext(net, inc, ods)
    if alphas is not None:
        ctx.set_alphas(alphas)
    n = 1 if alphas is None else len(alphas)

    if ctx.D_total > 0.0:
        conditions = check_conditions(net, ctx.D_total)
        if not conditions.strong_mono_ok:
            raise ConditionsUnverified(
                "strong monotonicity not certified "
                f"(worst link {conditions.worst_link})")
        D_fleet = float(ctx.dem[:, ctx.K:].sum(axis=1).max())
        lipschitz = _path_lipschitz(ctx.coeffs, ctx.A, ctx.D_total, D_fleet)
        gamma = 0.9 / max(lipschitz, 1e-12)
    else:
        gamma = 1.0

    groups, dem = ctx.groups, ctx.dem
    if init is not None:
        z = _project_blocks(init.stacked()[None, :], groups, dem)
        z = np.repeat(z, n, axis=0)
    else:
        z = _uniform_start(ctx, n)

    # each step's first operator value is the previous step's residual one;
    # a row whose gap is not finite can never converge and stops at once
    _, gap, _, g = ctx.residuals(z)
    active = np.isfinite(gap)
    iters = np.zeros(n, dtype=int)
    it = 0
    while it < max_iters and active.any():
        it += 1
        z_half = _project_blocks(z - gamma * g, groups, dem)
        z_new = _project_blocks(z - gamma * ctx.costs(z_half)[4], groups, dem)
        z = np.where(active[:, None], z_new, z)
        wr, gap, fTH, g = ctx.residuals(z)
        ok = (wr <= tol) & (gap <= tol * (1.0 + fTH))
        done = active & (ok | ~np.isfinite(gap))
        iters[done] = it
        active &= ~done
    converged = ~active & np.isfinite(gap)
    iters[active] = max_iters

    z = _polish(ctx, z, converged)
    wr, gap, _, G = ctx.residuals(z)
    theta, mu = G[:, :ctx.P].min(axis=1), G[:, ctx.P:].min(axis=1)
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


def _polish(
    ctx: _EngineContext, z: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Newton refinement of the selected rows of a batch, each on the fixed
    support of its converged iterate.

    Solves the square system {used-path costs equal per class and OD pair,
    demands met} for the used path flows and one cost level per class-OD
    block, with flows below the support threshold zeroed out. All rows
    share one batched system over the union of their used columns; a row's
    other columns and its zero-demand blocks are pinned by identity rows.
    A row whose positive-demand block has no used path is left as it is.
    The refined point replaces a row only when it stays non-negative, is
    feasible, and does not worsen either residual certificate.
    """
    P, K, L = ctx.P, ctx.K, ctx.A.shape[0]
    block = np.empty(2 * P, dtype=int)
    for idx, blk in ctx.groups:
        block[idx] = blk[:, None]
    pos = ctx.dem > 0.0
    used = (z > ctx.eps_used) & pos[:, block]
    counts = _block_sums(ctx, used)
    rows = rows & pos.any(axis=1) & ~(pos & (counts == 0)).any(axis=1)
    if not rows.any():
        return z

    cols = np.flatnonzero(used[rows].any(axis=0))
    n_u, N = len(cols), len(cols) + 2 * K
    U = used[rows][:, cols]
    pos, dem, counts = pos[rows], ctx.dem[rows], counts[rows]
    E = (block[cols, None] == np.arange(2 * K)).astype(float)
    B = np.kron(np.eye(2), ctx.A)[:, cols]
    BS, BC = B[:L], B[L:]

    def scatter(y: np.ndarray, fill: float = 0.0) -> np.ndarray:
        full = np.full((y.shape[0], 2 * P), fill)
        full[:, cols] = y
        return full

    # cost levels start at each block's mean used-path cost
    y = np.where(U, z[rows][:, cols], 0.0)
    G = np.where(U, ctx.costs(scatter(y))[4][:, cols], 0.0)
    t = _block_sums(ctx, scatter(G)) / np.maximum(counts, 1.0)
    x = np.concatenate([y, t], axis=1)

    act = np.arange(x.shape[0])
    for _ in range(10):
        y, t = x[act, :n_u], x[act, n_u:]
        fS, fC, _, _, G = ctx.costs(scatter(y))
        # demand rows occupy the cost-level row indices, keeping J square
        resid = np.concatenate([
            np.where(U[act], G[:, cols] - t @ E.T, y),
            np.where(pos[act], _block_sums(ctx, scatter(y)) - dem[act], t),
        ], axis=1)
        scale = 1.0 + np.abs(t).max(axis=1, initial=0.0)
        going = np.abs(resid).max(axis=1) > 1e-13 * scale
        act, resid, fS, fC = act[going], resid[going], fS[going], fC[going]
        if not act.size:
            break
        # path-cost Jacobian B' W B, W the per-link blocks [[p, p], [w - p, w]]
        p, w = (a[:, :, None] for a in link_jacobian(ctx.coeffs, fS, fC))
        WB = np.concatenate([p * (BS + BC), (w - p) * BS + w * BC], axis=1)
        jac = np.zeros((len(act), N, N))
        jac[:, :n_u, :n_u] = B.T @ WB
        jac[:, :n_u, n_u:] = -E
        jac[:, n_u:, :n_u] = E.T
        row, i = np.nonzero(~np.concatenate([U[act], pos[act]], axis=1))
        jac[row, i] = 0.0
        jac[row, i, i] = 1.0
        try:
            delta = np.linalg.solve(jac, resid[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            delta = np.stack([np.linalg.lstsq(j, r, rcond=None)[0]
                              for j, r in zip(jac, resid)])
        x[act] -= delta

    # only the used columns are projected, at -inf elsewhere: a block whose
    # used flows sum an ulp below its demand keeps its unused paths at 0.0
    flows = x[:, :n_u]
    z_new = z.copy()
    z_new[rows] = _project_blocks(
        scatter(np.where(U, np.maximum(flows, 0.0), -np.inf), -np.inf),
        ctx.groups, dem)
    wr0, gap0, _, _ = ctx.residuals(z)
    wr1, gap1, _, _ = ctx.residuals(z_new)
    accept = (wr1 <= wr0 + 1e-15) & (gap1 <= gap0 + 1e-15)
    accept &= rows
    accept[rows] &= flows.min(axis=1, initial=0.0) >= -1e-10
    return np.where(accept[:, None], z_new, z)
