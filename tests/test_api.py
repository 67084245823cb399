"""The keyword options of the solver and analysis functions.

Each option multiplies the configurations that tests and benchmarks have
to cover, so the set is pinned here: a new option has to be added to this
list on purpose.
"""

from __future__ import annotations

import inspect

import pytest

import routegame

OPTIONS = {
    "solve_equilibrium": ("tol", "max_iters", "init"),
    "solve_equilibrium_batch": ("tol", "max_iters"),
    "sweep_alpha": ("grid", "tol", "max_iters"),
    "detect_critical_share": ("solver_tol",),
    "solve_system_optimum": ("max_iters",),
    "construct_scaled_equilibrium": (),
    "compute_supports": (),
    "wardrop_residual": (),
}


@pytest.mark.parametrize("name", sorted(OPTIONS))
def test_keyword_options_are_pinned(name):
    params = inspect.signature(getattr(routegame, name)).parameters.values()
    options = tuple(p.name for p in params if p.default is not p.empty)
    assert options == OPTIONS[name]
