"""System optimum and Price of Anarchy.

The system optimum minimizes the total delay sum_l F_l * d_l(F_l) over
aggregate feasible loads; the class split is irrelevant because the total
delay depends on the aggregate only. The minimization runs conditional
gradient (Frank-Wolfe) in path space: the linearized link cost is
d(F) + F * d'(F), the descent direction routes all demand onto the current
cheapest path, and the step comes from an exact bisection line search on
the (monotone, polynomial) scalar derivative. The Frank-Wolfe duality gap
certifies global optimality at termination. A pairwise flow shift from the
worst-priced used path to the best path is applied after each step; it
leaves the certificate untouched and removes the sublinear tail that plain
conditional gradient exhibits when the optimum sits on a face of the
feasible polytope.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .calculus import coefficient_table, link_costs, poly_eval
from .equilibrium import NotConverged
from .netmodel import IncidenceStructure, Network, OdSpec

FW_TOL = 1e-9
FW_MAX_ITERS = 50_000
LINE_SEARCH_TOL = 1e-12


def solve_system_optimum(
    net: Network,
    inc: IncidenceStructure,
    ods: Sequence[OdSpec],
    *,
    max_iters: int = FW_MAX_ITERS,
) -> tuple[np.ndarray, float]:
    """Minimize total delay over aggregate loads; returns (F_omega, T_min).

    Stops when the Frank-Wolfe duality gap falls below FW_TOL * (1 + T).
    Raises NotConverged after ``max_iters``, or at once when the costs are
    not finite.
    """
    coeffs = coefficient_table(net)
    A = np.ascontiguousarray(inc.matrix)
    P = inc.n_paths
    od_cols = [np.asarray(inc.paths_of_od(k), dtype=int)
               for k in range(len(ods))]
    demands = np.array([od.demand_total for od in ods])
    D_total = float(demands.sum())

    y = np.zeros(P)
    for cols, demand in zip(od_cols, demands):
        y[cols] = demand / len(cols)

    if D_total <= 0.0:
        return A @ y, 0.0

    tiny = 1e-15 * D_total
    for it in range(max_iters):
        F = A @ y
        # d(F) + F * d'(F) is the marginal delay of an all-fleet load
        d, t = link_costs(coeffs, 0.0, F)
        cp = t @ A
        y_aon = np.zeros(P)
        for cols, demand in zip(od_cols, demands):
            y_aon[cols[np.argmin(cp[cols])]] = demand
        gap = float((y - y_aon) @ cp)
        T = float(np.sum(F * d))
        if not (math.isfinite(gap) and math.isfinite(T)):
            raise NotConverged(
                f"system optimum: non-finite costs after {it} iterations "
                f"(gap {gap:.3e})",
                result=(F, T),
            )
        if gap <= FW_TOL * (1.0 + T):
            return F, T

        dF = A @ y_aon - F
        sigma = _bisect_step(coeffs, F, dF, 1.0)
        y = y + sigma * (y_aon - y)

        F = A @ y
        _, t = link_costs(coeffs, 0.0, F)
        cp = t @ A
        for cols, demand in zip(od_cols, demands):
            if demand <= 0.0:
                continue
            best = cols[np.argmin(cp[cols])]
            used = cols[y[cols] > tiny]
            worst = used[np.argmax(cp[used])]
            if worst == best or cp[worst] - cp[best] <= 0.0:
                continue
            dF = A[:, best] - A[:, worst]
            sigma = _bisect_step(coeffs, F, dF, float(y[worst]))
            y[best] += sigma
            y[worst] -= sigma
            F = F + sigma * dF

    F = A @ y
    T = float(np.sum(F * poly_eval(coeffs, F, 0)))
    raise NotConverged(
        f"system optimum: no convergence after {max_iters} iterations "
        f"(gap {gap:.3e})",
        result=(F, T),
    )


def _bisect_step(
    coeffs: np.ndarray, F: np.ndarray, dF: np.ndarray, sigma_max: float
) -> float:
    """Exact line search: bisection on the monotone scalar derivative of the
    total delay along F + sigma * dF, over [0, sigma_max], down to an
    interval of LINE_SEARCH_TOL."""

    def derivative(sigma: float) -> float:
        _, t = link_costs(coeffs, 0.0, F + sigma * dF)
        return float(t @ dF)

    if derivative(sigma_max) <= 0.0:
        return sigma_max
    if derivative(0.0) >= 0.0:
        return 0.0
    lo, hi = 0.0, sigma_max
    while hi - lo > LINE_SEARCH_TOL:
        mid = 0.5 * (lo + hi)
        if derivative(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def price_of_anarchy(T_equilibrium: float, T_min: float) -> float:
    """Ratio of equilibrium total delay to the minimum total delay.

    At least 1 up to solver tolerance; defined as 1 for the degenerate
    zero-demand case (non-positive minimum).
    """
    if T_min <= 0.0:
        return 1.0
    return T_equilibrium / T_min
