"""Shared fixtures for the test suite."""

from __future__ import annotations

import math

import pytest

from repro.demands.matrix import DemandMatrix
from repro.graph.dag import Dag
from repro.graph.network import Network
from repro.topologies.generators import running_example_network
from repro.topologies.zoo import load_topology


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate tests/golden/*.json fixtures from the current solver "
        "output instead of comparing against them",
    )


@pytest.fixture
def update_golden(request: pytest.FixtureRequest) -> bool:
    """Whether golden-table tests should rewrite their fixtures."""
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture
def diamond() -> Network:
    """A 4-node diamond: a -> {b, c} -> d, plus reverse edges."""
    return Network.from_undirected(
        [("a", "b", 2.0), ("a", "c", 1.0), ("b", "d", 2.0), ("c", "d", 1.0)],
        name="diamond",
    )


@pytest.fixture
def triangle() -> Network:
    """A 3-node unit-capacity triangle."""
    return Network.from_undirected(
        [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)], name="triangle"
    )


@pytest.fixture
def running_example() -> Network:
    """Fig. 1's network with unit capacities."""
    return running_example_network()


@pytest.fixture
def example_dag(running_example) -> Dag:
    """The Fig. 1b-1d forwarding DAG toward t."""
    return Dag(
        "t",
        [("s1", "s2"), ("s1", "v"), ("s2", "t"), ("s2", "v"), ("v", "t")],
        running_example,
    )


@pytest.fixture
def infinite_link_star() -> Network:
    """``a`` reaches ``t`` over an infinite-capacity link, so an oblivious
    adversary's total demand toward ``t`` is unbounded, while every
    finite link's worst case stays bounded."""
    return Network.from_undirected(
        [("a", "t", math.inf), ("b", "t", 1.0), ("c", "t", 2.0),
         ("a", "b", 1.0), ("b", "c", 1.0)],
        name="star",
    )


@pytest.fixture
def abilene() -> Network:
    return load_topology("abilene")


@pytest.fixture
def nsf() -> Network:
    return load_topology("nsf")


@pytest.fixture
def two_user_demands() -> list[DemandMatrix]:
    """The extreme demand matrices of the running example."""
    return [
        DemandMatrix({("s1", "t"): 2.0}),
        DemandMatrix({("s2", "t"): 2.0}),
    ]
