"""Scalar and per-profile delay helpers the tests use as an independent
reference for the package's vectorized kernels (``link_costs``,
``poly_eval``) and for finite-difference checks of the operator.

They evaluate one link, or one load profile, at a time through the
package's coefficient table and Horner forms, and no production module
calls them.
"""

from __future__ import annotations

import numpy as np

from routegame.calculus import (
    LoadProfile,
    coefficient_table,
    link_costs,
    poly_antiderivative,
    poly_eval,
)
from routegame.netmodel import DelayPoly, Network


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
