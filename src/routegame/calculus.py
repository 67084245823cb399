"""Delay calculus for the two-class game: link and marginal delays, the two
players' cost functionals, the stacked game operator, and certification of
the convexity / strong-monotonicity conditions with explicit constants.

Throughout, ``fS`` is the selfish-class link load, ``fC`` the fleet link
load, and ``F = fS + fC`` the aggregate. The fleet's first-order cost on a
link is the marginal delay m(fS, fC) = d(F) + fC * d'(F). The game operator
H(f) stacks the link delays and the marginal delays; its strong-monotonicity
modulus ``c`` and Lipschitz constant ``Q`` on the box [0, D]^(2L) have
closed forms in the delay coefficients, derived from the per-link 2x2
Jacobian blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .netmodel import DelayPoly, Network

STRICTNESS_TOL = 1e-9


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

    ``c`` is the smallest eigenvalue of the symmetrized Jacobian of H over
    the non-negative orthant and ``Q`` the largest spectral norm of the
    Jacobian over the box, both in closed form (see ``check_conditions``).
    When a check fails, ``worst_link`` and ``witness`` identify the most
    violating link and the (fS, fC) point realising the minimum margin.
    """

    convexity_ok: bool
    strong_mono_ok: bool
    c: float
    Q: float
    convexity_margin: float
    strong_mono_margin: float
    worst_link: Optional[str] = None
    witness: Optional[tuple[float, float]] = None
    box_demand: float = 0.0


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
    class loads (fS, fC), for an (L, 4) coefficient table; the loads
    broadcast against L along their last axis. Both Horner forms are those
    of ``poly_eval``, evaluated in the same order."""
    a0, a1, a2, a3 = coeffs.T
    F = fS + fC
    d = a0 + F * (a1 + F * (a2 + F * a3))
    return d, d + fC * (a1 + F * (2.0 * a2 + F * (3.0 * a3)))


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


def link_jacobian(
    coeffs: np.ndarray, fS: np.ndarray, fC: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Entries p = d'(F) and w = 2p + fC d''(F) of each link's Jacobian
    block J = [[p, p], [w - p, w]] of (d, m) in (fS, fC), for an (L, 4)
    coefficient table; the loads broadcast against L along their last
    axis."""
    F = fS + fC
    p = poly_eval(coeffs, F, 1)
    return p, 2.0 * p + fC * poly_eval(coeffs, F, 2)


def jacobian_norms_sq(
    coeffs: np.ndarray, fS: np.ndarray, fC: np.ndarray
) -> np.ndarray:
    """Squared spectral norm of each link's Jacobian block at the class
    loads (fS, fC), for an (L, 4) coefficient table; the loads broadcast
    against L along their last axis. Q is the square root of the largest
    at the box corner (D, D) (see ``check_conditions``); at
    (D - D_C, D_C), with D the total demand and D_C <= D a bound on the
    fleet demand, the norms q_l bound the path operator G(z) = [d A, m A]
    on feasible flows:

    1. A feasible flow has F_l <= D and fC_l <= D_C, and each entry of
       J_l = [[p, p], [w - p, w]] is non-negative and non-decreasing in F
       and fC, so ||J_l|| <= q_l, the norm at F = D, fC = D_C. The
       feasible set is convex, so the segment between two feasible flows
       stays in it.
    2. G's Jacobian is B' J B with B the class-lifted incidence. For unit
       u, v, Cauchy-Schwarz gives u'B'J B v <= sum_l q_l |(Bu)_l| |(Bv)_l|
       <= lambda_max(A' diag(q) A), so G is Lipschitz on feasible flows
       with L = ||diag(sqrt q) A||^2 <= Q ||A||^2.
    """
    p, w = link_jacobian(coeffs, fS, fC)
    v = w - p
    gram_mean = 0.5 * (2.0 * p * p + v * v + (p + v) ** 2)
    return gram_mean + np.sqrt(np.maximum(gram_mean**2 - p**4, 0.0))


def check_conditions(net: Network, D_total: float) -> ConditionsReport:
    """Certify fleet-cost convexity and strong monotonicity of the game
    operator on the box [0, D]^(2L), and compute the constants (c, Q).

    Per link, write x = fS, y = fC, F = x + y, p = d'(F) and
    v = d'(F) + y d''(F); the Jacobian block of H in (fS, fC) is
    J = [[p, p], [v, p + v]]. For delay coefficients a_i >= 0 three closed
    forms hold, the first two on the whole orthant x, y >= 0:

    - Margins. 2d' - y d'' = 2a1 + 4a2 x + 2a2 y + 6a3 x^2 + 6a3 x y and
      2d' + y d'' = 2a1 + 4a2 x + 6a2 y + 6a3 x^2 + 18a3 x y + 12a3 y^2
      are 2a1 plus non-negative terms, so both margins equal 2 min_l a1,
      reached at zero load.
    - Modulus c. With s = d'(F) - a1 = 2a2 F + 3a3 F^2 >= 0 and
      t = 2s + y d''(F) >= 0 the symmetrized block splits as
      a1 [[1, 1], [1, 2]] + [[s, t/2], [t/2, t]]. Since y <= F,
      y d'' <= 2a2 F + 6a3 F^2 <= 2s, so t <= 4s and the second term is
      positive semidefinite. Weyl's inequality bounds the smallest
      eigenvalue below by a1 (3 - sqrt 5) / 2, the first term's, with
      equality at zero load. The symmetrized Jacobian of H is block
      diagonal over links, so c = (3 - sqrt 5) / 2 * min_l a1.
    - Constant Q. J is non-negative and each entry is non-decreasing in x
      and y. The spectral norm of a non-negative matrix, the maximum of
      u^T J w over unit u, w >= 0, is non-decreasing in its entries, so Q
      is reached at the corner (D, D): the square root of the larger
      eigenvalue of J^T J, whose trace is 2p^2 + v^2 + (p + v)^2 and whose
      determinant is p^4.

    Failures are reported with the first link of smallest a1 and the
    witness (0, 0), not raised.
    """
    if not (math.isfinite(D_total) and D_total > 0.0):
        raise ValueError("box demand must be positive and finite")
    coeffs = coefficient_table(net)
    if not (np.isfinite(coeffs).all() and (coeffs >= 0.0).all()):
        raise ValueError("delay coefficients must be finite and non-negative")

    a1 = coeffs[:, 1]
    worst = int(np.argmin(a1))
    margin = 2.0 * float(a1[worst])
    ok = margin > STRICTNESS_TOL

    return ConditionsReport(
        convexity_ok=ok,
        strong_mono_ok=ok,
        c=(3.0 - math.sqrt(5.0)) / 2.0 * float(a1[worst]),
        Q=float(np.sqrt(jacobian_norms_sq(coeffs, D_total, D_total).max())),
        convexity_margin=margin,
        strong_mono_margin=margin,
        worst_link=None if ok else net.links[worst].id,
        witness=None if ok else (0.0, 0.0),
        box_demand=float(D_total),
    )
