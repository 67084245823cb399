"""The keyword options of the exported functions.

Each option multiplies the configurations that tests and benchmarks have
to cover, so the set is pinned here for every function in
``routegame.__all__``: a new function or option has to be added to this
list on purpose.
"""

from __future__ import annotations

import inspect

import pytest

import routegame

OPTIONS = {
    "brute_force_equilibrium": ("grid_n",),
    "brute_force_optimum": ("grid_n",),
    "check_conditions": (),
    "compute_supports": (),
    "construct_scaled_equilibrium": (),
    "detect_critical_share": ("solver_tol",),
    "empirical_lipschitz": (),
    "enumerate_paths": ("cap",),
    "feasibility_residual": (),
    "monotonicity_report": ("slack", "exploratory"),
    "price_of_anarchy": (),
    "project_feasible": (),
    "solve_equilibrium": ("tol", "max_iters", "init"),
    "solve_equilibrium_batch": ("tol", "max_iters"),
    "solve_system_optimum": ("max_iters",),
    "sweep_alpha": ("grid", "tol", "max_iters"),
    "total_delay": (),
    "validate_network": (),
    "vi_gap": (),
    "wardrop_residual": (),
}

EXPORTED_FUNCTIONS = sorted(
    name for name in routegame.__all__
    if inspect.isfunction(getattr(routegame, name)))


def test_pinned_functions_are_the_exported_ones():
    assert sorted(OPTIONS) == EXPORTED_FUNCTIONS


@pytest.mark.parametrize("name", EXPORTED_FUNCTIONS)
def test_keyword_options_are_pinned(name):
    params = inspect.signature(getattr(routegame, name)).parameters.values()
    options = tuple(p.name for p in params if p.default is not p.empty)
    assert options == OPTIONS.get(name)
