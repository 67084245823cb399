"""Brute-force verifiers for tiny instances.

These exhaustive scans share none of the iterative solvers' iteration,
projection or certificate code: the equilibrium oracle measures each
player's best-deviation improvement over its own flow grid (an
epsilon-equilibrium certificate), and the optimum oracle grid-minimizes
the total delay. From ``calculus`` they take only the delay model, which
the solvers evaluate too: the (L, 4) coefficient table
(``coefficient_table``), the Horner forms of the delay polynomial
(``poly_eval``) and of its antiderivative (``poly_antiderivative``), and
the ``LoadProfile`` record they return. They exist only to provide
independent ground truth on two- and three-path instances.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .calculus import (
    LoadProfile,
    coefficient_table,
    poly_antiderivative,
    poly_eval,
)
from .netmodel import IncidenceStructure, Network, OdSpec

MAX_GRID_CELLS = 8_000_000
MAX_PATHS = 3  # paths of the single OD pair the equilibrium oracle handles


def grid_cells(n_paths: int, od: OdSpec, grid_n: int) -> int:
    """Number of (selfish, fleet) cells the equilibrium oracle scores, in
    closed form (see ``_grid_points``)."""
    return (_grid_points(n_paths, od.demand_selfish, grid_n)
            * _grid_points(n_paths, od.demand_fleet, grid_n))


def _grid_points(n_paths: int, total: float, grid_n: int) -> int:
    """Number of rows of ``_simplex_grid``, in closed form: a positive
    total has C(grid_n + P - 2, P - 1) grid points on its simplex, a total
    of zero has one."""
    if total <= 0.0:
        return 1
    return math.comb(grid_n + n_paths - 2, n_paths - 1)


def _require_grid_size(cells: int) -> None:
    if cells > MAX_GRID_CELLS:
        raise ValueError(
            f"grid too large ({cells} cells, limit {MAX_GRID_CELLS})")


def _simplex_grid(n_paths: int, total: float, grid_n: int) -> np.ndarray:
    """Uniform grid over {x >= 0, sum x = total}, one row per point,
    ordered lexicographically by grid index."""
    if total <= 0.0:
        return np.zeros((1, n_paths))
    if n_paths == 1:
        return np.array([[total]])
    h = np.linspace(0.0, total, grid_n)
    if n_paths == 2:
        return np.column_stack([h, total - h])
    if n_paths == 3:
        rows = []
        for i, t1 in enumerate(h):
            for t2 in h[: grid_n - i]:
                rows.append((t1, t2, total - t1 - t2))
        return np.array(rows)
    if n_paths == 4:
        rows = []
        for i, t1 in enumerate(h):
            for j, t2 in enumerate(h[: grid_n - i]):
                for t3 in h[: grid_n - i - j]:
                    rows.append((t1, t2, t3, total - t1 - t2 - t3))
        return np.array(rows)
    raise ValueError(f"grid enumeration limited to 4 paths (got {n_paths})")


def brute_force_equilibrium(
    net: Network,
    inc: IncidenceStructure,
    ods: Sequence[OdSpec],
    grid_n: int = 2001,
) -> tuple[LoadProfile, float]:
    """Exhaustive epsilon-equilibrium search over both players' flow grids.

    Every pair of grid flows is scored by the larger of the two players'
    best-deviation improvements (each player's improvement is the gap to
    the exact minimum of its cost over its own grid, holding the opponent
    fixed); the minimizer is returned together with that score. Ties break
    lexicographically by grid index.
    """
    if len(ods) != 1:
        raise ValueError("the equilibrium oracle handles a single OD pair")
    if inc.n_paths > MAX_PATHS:
        raise ValueError(
            f"the equilibrium oracle handles at most {MAX_PATHS} paths")
    od = ods[0]
    _require_grid_size(grid_cells(inc.n_paths, od, grid_n))

    ZS = _simplex_grid(inc.n_paths, od.demand_selfish, grid_n)
    ZC = _simplex_grid(inc.n_paths, od.demand_fleet, grid_n)

    coeffs = coefficient_table(net)
    A = inc.matrix
    FS = ZS @ A.T  # (nS, L)
    FC = ZC @ A.T  # (nC, L)

    US = np.zeros((FS.shape[0], FC.shape[0]))
    UC = np.zeros_like(US)
    for l in range(net.n_links):
        c_l = coeffs[l]
        fs = FS[:, l][:, None]
        fc = FC[:, l][None, :]
        F = fs + fc
        US += poly_antiderivative(c_l, F) - poly_antiderivative(c_l, fc)
        UC += fc * poly_eval(c_l, F, 0)

    improvement_S = US - US.min(axis=0, keepdims=True)
    improvement_C = UC - UC.min(axis=1, keepdims=True)
    certificate = np.maximum(improvement_S, improvement_C)
    flat = int(np.argmin(certificate))
    i, j = divmod(flat, certificate.shape[1])
    load = LoadProfile(fS=FS[i], fC=FC[j])
    return load, float(certificate[i, j])


def brute_force_optimum(
    net: Network,
    inc: IncidenceStructure,
    D_total: float,
    grid_n: int = 2001,
) -> tuple[np.ndarray, float]:
    """Grid minimization of the total delay over aggregate path flows."""
    if len(net.od_pairs) != 1:
        raise ValueError("the optimum oracle handles a single OD pair")
    _require_grid_size(_grid_points(inc.n_paths, D_total, grid_n))
    Y = _simplex_grid(inc.n_paths, D_total, grid_n)
    coeffs = coefficient_table(net)
    F = Y @ inc.matrix.T
    T = np.sum(F * poly_eval(coeffs, F, 0), axis=1)
    best = int(np.argmin(T))
    return F[best], float(T[best])
