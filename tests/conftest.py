"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.arch.cgra import CGRA
from repro.arch.topology import Topology
from repro.core.config import MapperConfig
from repro.workloads.running_example import running_example_dfg


@pytest.fixture
def cgra_2x2() -> CGRA:
    return CGRA(2, 2)


@pytest.fixture
def cgra_3x3() -> CGRA:
    return CGRA(3, 3)


@pytest.fixture
def cgra_4x4() -> CGRA:
    return CGRA(4, 4)


@pytest.fixture
def mesh_3x3() -> CGRA:
    return CGRA(3, 3, topology=Topology.MESH)


@pytest.fixture
def example_dfg():
    return running_example_dfg()


@pytest.fixture
def fast_config() -> MapperConfig:
    """A mapper configuration with small budgets suitable for unit tests."""
    return MapperConfig(
        budget_seconds=45.0,
    )
