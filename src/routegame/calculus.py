"""Delay calculus for the two-class game: link and marginal delays, the two
players' cost functionals, the stacked game operator, and certification of
the convexity / strong-monotonicity conditions with explicit constants.

Throughout, ``fS`` is the selfish-class link load, ``fC`` the fleet link
load, and ``F = fS + fC`` the aggregate. The fleet's first-order cost on a
link is the marginal delay m(fS, fC) = d(F) + fC * d'(F). The game operator
H(f) stacks the link delays and the marginal delays; its strong-monotonicity
modulus ``c`` and Lipschitz constant ``Q`` on the box [0, D]^(2L) are
certified per link from the closed-form eigenvalues of the 2x2 Jacobian
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .netmodel import DelayPoly, Network

STRICTNESS_TOL = 1e-9
SAFETY_MARGIN = 1e-9


@dataclass(frozen=True)
class LoadProfile:
    """Per-link load pair of the two classes. Immutable after construction."""

    fS: np.ndarray
    fC: np.ndarray

    def __post_init__(self) -> None:
        for name in ("fS", "fC"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=float))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.fS.shape != self.fC.shape:
            raise ValueError("class load vectors must have equal length")

    @property
    def F(self) -> np.ndarray:
        """Aggregate link load."""
        return self.fS + self.fC

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.fS, self.fC])


@dataclass(frozen=True)
class FlowProfile:
    """Per-path flow pair of the two classes. Immutable after construction."""

    zS: np.ndarray
    zC: np.ndarray

    def __post_init__(self) -> None:
        for name in ("zS", "zC"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=float))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.zS.shape != self.zC.shape:
            raise ValueError("class flow vectors must have equal length")

    def induced_load(self, incidence_matrix: np.ndarray) -> LoadProfile:
        return LoadProfile(
            fS=incidence_matrix @ self.zS,
            fC=incidence_matrix @ self.zC,
        )

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.zS, self.zC])


@dataclass(frozen=True)
class ConditionsReport:
    """Outcome of the convexity / strong-monotonicity certification.

    ``c`` is a grid-certified lower bound on the smallest eigenvalue of the
    symmetrized Jacobian of H over the box (minus a small safety margin);
    ``Q`` is the grid maximum of the Jacobian's spectral norm. When a check
    fails, ``worst_link`` and ``witness`` identify the most violating link
    and the (fS, fC) point realising the minimum margin.
    """

    convexity_ok: bool
    strong_mono_ok: bool
    c: float
    Q: float
    convexity_margin: float
    strong_mono_margin: float
    worst_link: Optional[str] = None
    witness: Optional[tuple[float, float]] = None
    grid_points: int = 64
    box_demand: float = field(default=0.0)


def coefficient_table(net: Network) -> np.ndarray:
    """Stack the (a0, a1, a2, a3) delay coefficients into an (L, 4) array."""
    return np.array([link.delay.coefficients for link in net.links])


def poly_eval(coeffs: np.ndarray, F: np.ndarray, order: int = 0) -> np.ndarray:
    """Evaluate link delays (or a derivative) for a coefficient table.

    ``coeffs`` has shape (L, 4); ``F`` broadcasts against L along its last
    axis. ``order`` selects d, d' or d''.
    """
    a0, a1, a2, a3 = (coeffs[..., j] for j in range(4))
    if order == 0:
        return a0 + F * (a1 + F * (a2 + F * a3))
    if order == 1:
        return a1 + F * (2.0 * a2 + F * (3.0 * a3))
    if order == 2:
        return 2.0 * a2 + 6.0 * a3 * F
    raise ValueError("order must be 0, 1 or 2")


def poly_antiderivative(coeffs: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Antiderivative of the delay polynomial, vanishing at zero."""
    a0, a1, a2, a3 = (coeffs[..., j] for j in range(4))
    return F * (a0 + F * (a1 / 2.0 + F * (a2 / 3.0 + F * (a3 / 4.0))))


def link_delay(delay: DelayPoly, F_l: float, order: int = 0) -> float:
    """Delay d(F), first derivative d'(F) or second derivative d''(F) of a
    single link, by Horner evaluation."""
    if F_l < 0.0:
        raise ValueError("link flow must be non-negative")
    return float(poly_eval(np.array(delay.coefficients), np.float64(F_l), order))


def marginal_delay(delay: DelayPoly, fS_l: float, fC_l: float) -> float:
    """Fleet marginal delay d(F) + fC * d'(F) on a single link."""
    if fS_l < 0.0 or fC_l < 0.0:
        raise ValueError("class loads must be non-negative")
    F = fS_l + fC_l
    return link_delay(delay, F, 0) + fC_l * link_delay(delay, F, 1)


def link_costs(
    coeffs: np.ndarray, fS: np.ndarray, fC: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Link delays d(F) and fleet marginal delays d(F) + fC * d'(F) at the
    class loads (fS, fC), for a coefficient table; broadcasts like
    ``poly_eval``."""
    F = fS + fC
    d = poly_eval(coeffs, F, 0)
    return d, d + fC * poly_eval(coeffs, F, 1)


def operator_H(net: Network, f: LoadProfile) -> np.ndarray:
    """Stacked game operator: link delays followed by marginal delays."""
    return np.concatenate(link_costs(coefficient_table(net), f.fS, f.fC))


def class_costs(net: Network, f: LoadProfile) -> tuple[float, float]:
    """Both players' cost functionals at a load profile.

    The selfish class carries the Beckmann-style potential
    sum_l integral_0^{fS_l} d_l(r + fC_l) dr (closed form via the polynomial
    antiderivative); the fleet's cost is its total travel time
    sum_l fC_l * d_l(F_l).
    """
    coeffs = coefficient_table(net)
    F = f.F
    U_S = float(np.sum(
        poly_antiderivative(coeffs, F) - poly_antiderivative(coeffs, f.fC)
    ))
    U_C = float(np.sum(f.fC * poly_eval(coeffs, F, 0)))
    return U_S, U_C


def total_delay(net: Network, f: LoadProfile) -> float:
    """Total delay sum_l F_l * d_l(F_l) experienced by all vehicles."""
    coeffs = coefficient_table(net)
    F = f.F
    return float(np.sum(F * poly_eval(coeffs, F, 0)))


def _quadratic_box_min(
    c00: float, c10: float, c01: float, c20: float, c11: float, c02: float, D: float
) -> tuple[float, tuple[float, float]]:
    """Exact minimum of c00 + c10*x + c01*y + c20*x^2 + c11*x*y + c02*y^2
    over the box [0, D]^2: corners, edge critical points, interior
    stationary point."""

    def value(x: float, y: float) -> float:
        return c00 + c10 * x + c01 * y + c20 * x * x + c11 * x * y + c02 * y * y

    candidates = [(0.0, 0.0), (0.0, D), (D, 0.0), (D, D)]

    def edge_candidates(lin: float, quad: float) -> list[float]:
        if quad == 0.0:
            return []
        t = -lin / (2.0 * quad)
        return [t] if 0.0 < t < D else []

    for x_fixed in (0.0, D):
        for y in edge_candidates(c01 + c11 * x_fixed, c02):
            candidates.append((x_fixed, y))
    for y_fixed in (0.0, D):
        for x in edge_candidates(c10 + c11 * y_fixed, c20):
            candidates.append((x, y_fixed))

    det = 4.0 * c20 * c02 - c11 * c11
    if det != 0.0:
        x = (-2.0 * c02 * c10 + c11 * c01) / det
        y = (-2.0 * c20 * c01 + c11 * c10) / det
        if 0.0 < x < D and 0.0 < y < D:
            candidates.append((x, y))

    best = min(candidates, key=lambda pt: value(*pt))
    return value(*best), best


def _strong_mono_margin(poly: DelayPoly, D: float) -> tuple[float, tuple[float, float]]:
    """Exact box minimum of 2*d'(F) - fC*d''(F), the reduced strong-
    monotonicity margin for cubic delays (positive iff the per-link
    condition holds)."""
    _, a1, a2, a3 = poly.coefficients
    # 2 d'(x+y) - y d''(x+y) = 2 a1 + 4 a2 x + 2 a2 y + 6 a3 x^2 + 6 a3 x y
    return _quadratic_box_min(
        2.0 * a1, 4.0 * a2, 2.0 * a2, 6.0 * a3, 6.0 * a3, 0.0, D
    )


def _convexity_margin(poly: DelayPoly, D: float) -> tuple[float, tuple[float, float]]:
    """Exact box minimum of 2*d'(F) + fC*d''(F), the fleet-cost convexity
    margin (the diagonal of the fleet Hessian)."""
    _, a1, a2, a3 = poly.coefficients
    # 2 d'(x+y) + y d''(x+y)
    #   = 2 a1 + 4 a2 x + 6 a2 y + 6 a3 x^2 + 18 a3 x y + 12 a3 y^2
    return _quadratic_box_min(
        2.0 * a1, 4.0 * a2, 6.0 * a2, 6.0 * a3, 18.0 * a3, 12.0 * a3, D
    )


def _jacobian_block_extremes(
    poly_coeffs: np.ndarray, D: float, grid_points: int
) -> tuple[float, float]:
    """Grid scan of one link's 2x2 Jacobian block over [0, D]^2.

    Returns (min eigenvalue of the symmetrized block, max spectral norm of
    the raw block); both are closed-form for 2x2 matrices.
    """
    axis = np.linspace(0.0, D, grid_points)
    x, y = np.meshgrid(axis, axis, indexing="ij")  # fS, fC
    F = x + y
    p = poly_eval(poly_coeffs, F, 1)          # d'(F)
    w = 2.0 * p + y * poly_eval(poly_coeffs, F, 2)   # dm/dfC

    # Symmetrized block [[p, w/2], [w/2, w]].
    mean = 0.5 * (p + w)
    det_sym = p * w - 0.25 * w * w
    lam_min = mean - np.sqrt(np.maximum(mean * mean - det_sym, 0.0))

    # Raw block [[p, p], [v, p + v]] with v = d' + fC d''; spectral norm via
    # the Gram matrix (its determinant is p^4).
    v = w - p
    gram_trace = 2.0 * p * p + v * v + (p + v) ** 2
    gram_mean = 0.5 * gram_trace
    sigma_sq = gram_mean + np.sqrt(np.maximum(gram_mean**2 - p**4, 0.0))

    return float(lam_min.min()), float(np.sqrt(sigma_sq.max()))


def check_conditions(
    net: Network,
    D_total: float,
    grid_points: int = 64,
    tol: float = STRICTNESS_TOL,
) -> ConditionsReport:
    """Certify fleet-cost convexity and strong monotonicity of the game
    operator on the box [0, D]^(2L), and compute the constants (c, Q).

    Both conditions reduce, for cubic delays, to quadratic margins in
    (fS, fC) that are minimized exactly over the per-link box; a grid scan
    of the per-link Jacobian blocks yields the certified modulus ``c`` and
    Lipschitz constant ``Q``. Failures are reported (with a witness), not
    raised.
    """
    if D_total <= 0.0:
        raise ValueError("box demand must be positive")

    convexity_min = np.inf
    strong_min = np.inf
    worst_link: Optional[str] = None
    witness: Optional[tuple[float, float]] = None
    lam_min_all = np.inf
    sigma_max_all = 0.0

    coeffs = coefficient_table(net)
    for i, link in enumerate(net.links):
        conv_val, _ = _convexity_margin(link.delay, D_total)
        mono_val, mono_pt = _strong_mono_margin(link.delay, D_total)
        convexity_min = min(convexity_min, conv_val)
        if mono_val < strong_min:
            strong_min = mono_val
            worst_link = link.id
            witness = mono_pt

        lam_min, sigma_max = _jacobian_block_extremes(
            coeffs[i], D_total, grid_points
        )
        lam_min_all = min(lam_min_all, lam_min)
        sigma_max_all = max(sigma_max_all, sigma_max)

    convexity_ok = bool(convexity_min > tol)
    strong_mono_ok = bool(strong_min > tol)
    if convexity_ok and strong_mono_ok:
        worst_link = None
        witness = None

    c = lam_min_all - min(SAFETY_MARGIN, abs(lam_min_all) / 2.0)
    return ConditionsReport(
        convexity_ok=convexity_ok,
        strong_mono_ok=strong_mono_ok,
        c=float(c),
        Q=float(sigma_max_all),
        convexity_margin=float(convexity_min),
        strong_mono_margin=float(strong_min),
        worst_link=worst_link,
        witness=witness,
        grid_points=grid_points,
        box_demand=float(D_total),
    )

