from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from routegame.cli import parse_network_file
from routegame.netmodel import DelayPoly, Link, Network, OdSpec, enumerate_paths

NETWORKS = Path(__file__).resolve().parent.parent / "networks"


def bundled(name: str) -> Network:
    """A bundled network, read from ``networks/<name>.json``."""
    return parse_network_file(str(NETWORKS / f"{name}.json"))


def case_a() -> Network:
    return bundled("case_a")


def case_b() -> Network:
    return bundled("case_b")


def example1() -> Network:
    return bundled("example1")


def example2() -> Network:
    return bundled("example2")


def diamond() -> Network:
    """Four links o->a->d / o->b->d, two paths of two links each."""
    links = (
        Link("oa", "o", "a", DelayPoly((0.0, 1.0, 0.0, 0.0))),
        Link("ad", "a", "d", DelayPoly((0.5, 1.0, 0.0, 0.0))),
        Link("ob", "o", "b", DelayPoly((0.5, 1.0, 0.0, 0.0))),
        Link("bd", "b", "d", DelayPoly((0.0, 1.0, 0.0, 0.0))),
    )
    return Network(
        nodes=("o", "a", "b", "d"),
        links=links,
        od_pairs=(OdSpec("o", "d", 1.0, 0.0),),
        name="diamond",
    )


def single_link(D: float = 1.0, coeffs=(0.0, 1.0, 0.0, 0.0)) -> Network:
    return Network(
        nodes=("o", "d"),
        links=(Link("l1", "o", "d", DelayPoly(coeffs)),),
        od_pairs=(OdSpec("o", "d", D, 0.0),),
        name="single",
    )


def two_link(delay1, delay2, D: float, alpha: float = 0.0) -> Network:
    return Network(
        nodes=("o", "d"),
        links=(
            Link("l1", "o", "d", DelayPoly(delay1)),
            Link("l2", "o", "d", DelayPoly(delay2)),
        ),
        od_pairs=(OdSpec("o", "d", D, alpha),),
        name="two-link",
    )


@pytest.fixture(scope="session")
def net_case_a():
    return case_a()


@pytest.fixture(scope="session")
def net_case_b():
    return case_b()


@pytest.fixture(scope="session")
def net_example1():
    return example1()


@pytest.fixture(scope="session")
def net_example2():
    return example2()


@pytest.fixture(scope="session")
def net_diamond():
    return diamond()


@pytest.fixture(scope="session")
def inc_case_a(net_case_a):
    return enumerate_paths(net_case_a)


@pytest.fixture(scope="session")
def inc_case_b(net_case_b):
    return enumerate_paths(net_case_b)


@pytest.fixture(scope="session")
def inc_example1(net_example1):
    return enumerate_paths(net_example1)


@pytest.fixture(scope="session")
def inc_example2(net_example2):
    return enumerate_paths(net_example2)


def random_load(rng: np.random.Generator, L: int, D: float):
    return rng.uniform(0.0, D, size=L), rng.uniform(0.0, D, size=L)
