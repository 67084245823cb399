"""Two-class routing game toolkit.

Solves the mixed equilibrium between selfish users and a coordinated fleet
on networks with cubic polynomial delays, computes the system optimum and
the Price of Anarchy, and verifies the structural behaviour of the
equilibrium along fleet-share sweeps: critical share, Lipschitz bounds and
monotonicity on parallel networks.
"""

import importlib

# home module of each exported name; ``__getattr__`` imports it on first
# access (PEP 562), so ``import routegame`` loads no numpy
_HOMES = {
    **dict.fromkeys((
        "AssumptionViolated", "CriticalShareReport", "MonotonicityReport",
        "SupportSets", "SweepRecord", "compute_supports",
        "construct_scaled_equilibrium", "detect_critical_share",
        "empirical_lipschitz", "monotonicity_report", "sweep_alpha",
    ), "analysis"),
    **dict.fromkeys((
        "ConditionsReport", "FlowProfile", "LoadProfile", "check_conditions",
        "total_delay",
    ), "calculus"),
    **dict.fromkeys((
        "ConditionsUnverified", "EquilibriumResult", "NotConverged",
        "project_feasible", "solve_equilibrium", "solve_equilibrium_batch",
        "vi_gap", "wardrop_residual",
    ), "equilibrium"),
    **dict.fromkeys((
        "DelayPoly", "IncidenceStructure", "Link", "Network", "OdSpec",
        "PathCountExceeded", "enumerate_paths", "feasibility_residual",
        "validate_network",
    ), "netmodel"),
    **dict.fromkeys(
        ("brute_force_equilibrium", "brute_force_optimum"), "oracle"),
    **dict.fromkeys(
        ("price_of_anarchy", "solve_system_optimum"), "sysopt"),
}

__all__ = [
    "AssumptionViolated",
    "ConditionsReport",
    "ConditionsUnverified",
    "CriticalShareReport",
    "DelayPoly",
    "EquilibriumResult",
    "FlowProfile",
    "IncidenceStructure",
    "Link",
    "LoadProfile",
    "MonotonicityReport",
    "Network",
    "NotConverged",
    "OdSpec",
    "PathCountExceeded",
    "SupportSets",
    "SweepRecord",
    "brute_force_equilibrium",
    "brute_force_optimum",
    "check_conditions",
    "compute_supports",
    "construct_scaled_equilibrium",
    "detect_critical_share",
    "empirical_lipschitz",
    "enumerate_paths",
    "feasibility_residual",
    "monotonicity_report",
    "price_of_anarchy",
    "project_feasible",
    "solve_equilibrium",
    "solve_equilibrium_batch",
    "solve_system_optimum",
    "sweep_alpha",
    "total_delay",
    "validate_network",
    "vi_gap",
    "wardrop_residual",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{home}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
