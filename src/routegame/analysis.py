"""Fleet-share analyses: alpha sweeps of the Price of Anarchy, critical
fleet share detection with the flow-transfer construction, monotonicity
reports for parallel networks, and empirical Lipschitz verification of the
equilibrium-load map.

All operations here require a single OD pair. The monotonicity report
additionally requires a parallel network (links and paths coincide) unless
run in exploratory mode, which records observations instead of checking
claims: on general networks fleet path flows need not be monotone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .calculus import ConditionsReport, FlowProfile, LoadProfile, total_delay
from .equilibrium import (
    SUPPORT_EPS,
    EquilibriumResult,
    solve_equilibrium,
    solve_equilibrium_batch,
    wardrop_residual,
)
from .netmodel import IncidenceStructure, Network, OdSpec
from .sysopt import price_of_anarchy, solve_system_optimum

POA_FLAT_TOL = 1e-6
BISECTION_RESOLUTION = 1e-4


class AssumptionViolated(RuntimeError):
    """An analysis was invoked outside its structural assumptions."""


@dataclass(frozen=True)
class SupportSets:
    """Paths and links carrying more than the threshold flow per class."""

    paths_S: frozenset[int]
    paths_C: frozenset[int]
    links_S: frozenset[int]
    links_C: frozenset[int]


@dataclass(frozen=True)
class SweepRecord:
    """Snapshot of one fleet share: equilibrium, PoA, supports."""

    alpha: float
    poa: float
    total_delay: float
    theta: float
    mu: float
    f_star: LoadProfile
    supports: SupportSets
    converged: bool
    z_star: FlowProfile = field(repr=False)


@dataclass(frozen=True)
class CriticalShareReport:
    """Largest fleet share below which the fleet leaves the PoA unchanged.

    ``alpha_tilde`` is the largest certified share: support inclusion
    (fleet paths within selfish paths) holds at every grid point up to it,
    refined by bisection between the last holding and first failing grid
    points. ``bracket`` is the final half-open bisection interval.
    """

    alpha_tilde: float
    poa_flat_ok: bool
    construction_residual: float
    flat_deviation: float
    bracket: Optional[tuple[float, float]] = None


@dataclass(frozen=True)
class MonotonicityReport:
    """Directional checks along the sweep, with maximal violations.

    Minimum delay, minimum marginal delay and per-link class loads are
    checked within each maximal interval of constant link supports (shares
    strictly inside (0, 1)); the PoA and the support nesting are checked
    across the whole grid. Violations are maxima over consecutive grid
    pairs, zero when the direction holds everywhere.
    """

    poa_nonincreasing: bool
    theta_nonincreasing: bool
    mu_nondecreasing: bool
    fS_link_nonincreasing: bool
    fC_link_nondecreasing: bool
    support_nesting_ok: bool
    poa_violation: float
    theta_violation: float
    mu_violation: float
    fS_violation: float
    fC_violation: float
    breakpoints: tuple[tuple[float, float], ...]
    slack: float
    exploratory: bool
    witnesses: dict = field(default_factory=dict, repr=False)

    def all_ok(self) -> bool:
        return (self.poa_nonincreasing and self.theta_nonincreasing
                and self.mu_nondecreasing and self.fS_link_nonincreasing
                and self.fC_link_nondecreasing and self.support_nesting_ok)


def compute_supports(
    z: FlowProfile, f: LoadProfile, D_total: float
) -> SupportSets:
    """Threshold-based support extraction at SUPPORT_EPS * D."""
    thresh = SUPPORT_EPS * D_total
    return SupportSets(
        paths_S=frozenset(np.flatnonzero(z.zS > thresh).tolist()),
        paths_C=frozenset(np.flatnonzero(z.zC > thresh).tolist()),
        links_S=frozenset(np.flatnonzero(f.fS > thresh).tolist()),
        links_C=frozenset(np.flatnonzero(f.fC > thresh).tolist()),
    )


def _single_od(net: Network) -> OdSpec:
    if len(net.od_pairs) != 1:
        raise AssumptionViolated(
            "analysis requires a single OD pair "
            f"(network has {len(net.od_pairs)})"
        )
    return net.od_pairs[0]


def sweep_alpha(
    net: Network,
    inc: IncidenceStructure,
    grid: Optional[Sequence[float]] = None,
    *,
    tol: float = 1e-8,
    max_iters: int = 200_000,
) -> list[SweepRecord]:
    """Solve the equilibrium for every fleet share in the grid, at the
    network's OD demand.

    Default grid: 101 uniform points on [0, 1]. All shares iterate in
    lock-step from cold starts (``solve_equilibrium_batch``), so each
    record is independent of its neighbours on the grid. The system
    optimum is computed once; per-share non-convergence is recorded,
    never raised.
    """
    od = _single_od(net)
    demand = od.demand_total
    base = OdSpec(od.origin, od.destination, demand, 0.0)
    alphas = (np.linspace(0.0, 1.0, 101) if grid is None
              else np.asarray(list(grid), dtype=float))

    _, T_min = solve_system_optimum(net, inc, (base,))
    results = solve_equilibrium_batch(
        net, inc, base, alphas, tol=tol, max_iters=max_iters)

    records = []
    for alpha, res in zip(alphas, results):
        T = total_delay(net, res.f_star)
        records.append(SweepRecord(
            alpha=float(alpha),
            poa=price_of_anarchy(T, T_min),
            total_delay=T,
            theta=res.theta,
            mu=res.mu,
            f_star=res.f_star,
            supports=compute_supports(res.z_star, res.f_star, demand),
            converged=res.converged,
            z_star=res.z_star,
        ))
    return records


def construct_scaled_equilibrium(
    result_at_alpha_tilde: EquilibriumResult,
    alpha_tilde: float,
    alpha: float,
) -> FlowProfile:
    """Equilibrium flow at a smaller share by transferring fleet flow to the
    selfish class.

    Given the equilibrium flow at the critical share (with fleet path
    support contained in the selfish support), the flow at any share
    alpha <= alpha_tilde is obtained by handing the fraction
    (alpha_tilde - alpha) / alpha_tilde of every fleet path flow over to
    the selfish class; the aggregate load is unchanged.
    """
    if alpha_tilde <= 0.0:
        raise ValueError("alpha_tilde must be positive")
    if not 0.0 <= alpha <= alpha_tilde:
        raise ValueError("alpha must lie in [0, alpha_tilde]")
    z = result_at_alpha_tilde.z_star
    D_total = float(z.zS.sum() + z.zC.sum())
    thresh = SUPPORT_EPS * D_total
    used_C = np.flatnonzero(z.zC > thresh)
    used_S = set(np.flatnonzero(z.zS > thresh).tolist())
    if not set(used_C.tolist()) <= used_S:
        raise ValueError(
            "fleet path support is not contained in the selfish support"
        )
    ratio = (alpha_tilde - alpha) / alpha_tilde
    return FlowProfile(
        zS=z.zS + ratio * z.zC,
        zC=(alpha / alpha_tilde) * z.zC,
    )


def detect_critical_share(
    net: Network,
    inc: IncidenceStructure,
    sweep: list[SweepRecord],
    *,
    solver_tol: float = 1e-8,
) -> CriticalShareReport:
    """Locate the critical fleet share on a sweep and verify its claims.

    ``alpha_tilde`` is the largest grid share such that fleet path support
    is contained in selfish path support at every grid point up to it,
    refined by bisection (re-solving at midpoints to ``solver_tol``) between
    the last holding and the first failing grid point, down to a bracket of
    BISECTION_RESOLUTION / 4. On [0, alpha_tilde] the report checks that
    the PoA stays at its zero-share value within POA_FLAT_TOL and evaluates
    the worst Wardrop residual of the transfer construction.
    """
    od = _single_od(net)
    if not sweep or sweep[0].alpha != 0.0:
        raise ValueError("sweep grid must start at alpha = 0")
    records = sorted(sweep, key=lambda r: r.alpha)
    demand = float(records[0].z_star.zS.sum() + records[0].z_star.zC.sum())
    base = OdSpec(od.origin, od.destination, demand, 0.0)

    def inclusion(rec: SweepRecord) -> bool:
        return rec.converged and rec.supports.paths_C <= rec.supports.paths_S

    last_ok = -1
    for i, rec in enumerate(records):
        if not inclusion(rec):
            break
        last_ok = i
    if last_ok < 0:
        raise ValueError("support inclusion fails already at alpha = 0")

    def solve_at(alpha: float) -> EquilibriumResult:
        return solve_equilibrium(
            net, inc, (base.with_share(alpha),), tol=solver_tol)

    bracket: Optional[tuple[float, float]] = None
    if last_ok == len(records) - 1:
        alpha_tilde = records[-1].alpha
        result_tilde = solve_at(alpha_tilde) if alpha_tilde > 0.0 else None
    else:
        lo = records[last_ok].alpha
        hi = records[last_ok + 1].alpha
        res_lo: Optional[EquilibriumResult] = None
        while hi - lo > BISECTION_RESOLUTION / 4.0:
            mid = 0.5 * (lo + hi)
            res_mid = solve_at(mid)
            supports = compute_supports(res_mid.z_star, res_mid.f_star, demand)
            if supports.paths_C <= supports.paths_S:
                lo, res_lo = mid, res_mid
            else:
                hi = mid
        alpha_tilde = lo
        bracket = (lo, hi)
        result_tilde = res_lo if res_lo is not None else (
            solve_at(lo) if lo > 0.0 else None)

    flat = [r for r in records if r.alpha <= alpha_tilde and r.converged]
    flat_dev = max((abs(r.poa - records[0].poa) for r in flat), default=0.0)

    construction_residual = 0.0
    if alpha_tilde > 0.0 and result_tilde is not None:
        for rec in flat:
            candidate = construct_scaled_equilibrium(
                result_tilde, alpha_tilde, rec.alpha)
            resid = wardrop_residual(
                net, inc, (base.with_share(rec.alpha),), candidate)
            construction_residual = max(construction_residual, resid)

    return CriticalShareReport(
        alpha_tilde=float(alpha_tilde),
        poa_flat_ok=bool(flat_dev <= POA_FLAT_TOL),
        construction_residual=float(construction_residual),
        flat_deviation=float(flat_dev),
        bracket=bracket,
    )


def monotonicity_report(
    sweep: list[SweepRecord],
    net: Network,
    *,
    slack: float = 1e-7,
    exploratory: bool = False,
) -> MonotonicityReport:
    """Check the directional behaviour of a sweep on a parallel network.

    Raises AssumptionViolated on non-parallel networks unless
    ``exploratory`` is set, in which case the same quantities are recorded
    as observations. Interval checks compare consecutive converged records
    with equal link supports and shares strictly inside (0, 1); the PoA and
    support nesting are checked across the whole grid. The slack absorbs
    solver noise (default ten times the solver tolerance).
    """
    if not net.is_parallel() and not exploratory:
        raise AssumptionViolated(
            "monotonicity checks require a parallel network; "
            "rerun in exploratory mode to record observations"
        )
    records = [r for r in sorted(sweep, key=lambda r: r.alpha) if r.converged]
    witnesses: dict = {}

    def track(name: str, current: float, value: float, where) -> float:
        if value > current:
            witnesses[name] = where
            return value
        return current

    poa_viol = theta_viol = mu_viol = fs_viol = fc_viol = 0.0
    nesting_ok = True
    for r1, r2 in zip(records, records[1:]):
        poa_viol = track("poa", poa_viol, r2.poa - r1.poa,
                         (r1.alpha, r2.alpha))
        if not (r2.supports.links_S <= r1.supports.links_S
                and r1.supports.links_C <= r2.supports.links_C):
            nesting_ok = False
            witnesses.setdefault("nesting", (r1.alpha, r2.alpha))

    interior = [r for r in records if 0.0 < r.alpha < 1.0]
    breakpoints: list[tuple[float, float]] = []
    for r1, r2 in zip(interior, interior[1:]):
        same_support = (r1.supports.links_S == r2.supports.links_S
                        and r1.supports.links_C == r2.supports.links_C)
        if not same_support:
            breakpoints.append((r1.alpha, r2.alpha))
            continue
        theta_viol = track("theta", theta_viol, r2.theta - r1.theta,
                           (r1.alpha, r2.alpha))
        mu_viol = track("mu", mu_viol, r1.mu - r2.mu, (r1.alpha, r2.alpha))
        fs_step = float((r2.f_star.fS - r1.f_star.fS).max(initial=0.0))
        fc_step = float((r1.f_star.fC - r2.f_star.fC).max(initial=0.0))
        fs_viol = track("fS", fs_viol, fs_step, (r1.alpha, r2.alpha))
        fc_viol = track("fC", fc_viol, fc_step, (r1.alpha, r2.alpha))

    return MonotonicityReport(
        poa_nonincreasing=bool(poa_viol <= slack),
        theta_nonincreasing=bool(theta_viol <= slack),
        mu_nondecreasing=bool(mu_viol <= slack),
        fS_link_nonincreasing=bool(fs_viol <= slack),
        fC_link_nondecreasing=bool(fc_viol <= slack),
        support_nesting_ok=nesting_ok,
        poa_violation=float(poa_viol),
        theta_violation=float(theta_viol),
        mu_violation=float(mu_viol),
        fS_violation=float(fs_viol),
        fC_violation=float(fc_viol),
        breakpoints=tuple(breakpoints),
        slack=float(slack),
        exploratory=bool(exploratory),
        witnesses=witnesses,
    )


def empirical_lipschitz(
    sweep: list[SweepRecord],
    conditions: ConditionsReport,
    L: int,
    D: float,
) -> tuple[float, float, bool]:
    """Worst observed slope of the equilibrium-load map along the sweep
    against the certified bound Q * sqrt(2L) * D / c.

    Returns (max_ratio, bound_k, ok)."""
    records = [r for r in sorted(sweep, key=lambda r: r.alpha) if r.converged]
    max_ratio = 0.0
    for r1, r2 in zip(records, records[1:]):
        step = r2.alpha - r1.alpha
        if step <= 0.0:
            continue
        diff = np.linalg.norm(r2.f_star.stacked() - r1.f_star.stacked())
        max_ratio = max(max_ratio, float(diff) / step)
    bound_k = conditions.Q * np.sqrt(2.0 * L) * D / conditions.c
    return max_ratio, float(bound_k), bool(max_ratio <= bound_k)
