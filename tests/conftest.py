"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import pytest

from repro.hw.platform import ryzen_1700x, skylake_xeon_4114
from repro.sim.chip import Chip


def pytest_addoption(parser):
    parser.addoption(
        "--soak",
        action="store_true",
        default=False,
        help="run the long chaos/soak tests (tier-1 skips them)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--soak"):
        return
    skip = pytest.mark.skip(reason="soak run: pass --soak to enable")
    for item in items:
        if "soak" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def skylake():
    return skylake_xeon_4114()


@pytest.fixture(scope="session")
def ryzen():
    return ryzen_1700x()


@pytest.fixture(params=["skylake", "ryzen"])
def platform(request, skylake, ryzen):
    """Parametrized over both evaluation platforms."""
    return skylake if request.param == "skylake" else ryzen


@pytest.fixture
def sky_chip(skylake):
    """A fresh Skylake chip with a 1 ms tick."""
    return Chip(skylake)


@pytest.fixture
def ryzen_chip(ryzen):
    return Chip(ryzen)


@pytest.fixture
def chip(platform):
    return Chip(platform)


@pytest.fixture
def serial_stepping():
    """Context manager: cluster sims built inside it step their nodes
    one by one with :class:`SerialNodeStepper`, the per-node reference
    the stacked stepper must match byte for byte."""
    import repro.cluster.runtime as cluster_runtime
    from repro.cluster.stepper import SerialNodeStepper

    @contextlib.contextmanager
    def serial():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cluster_runtime, "make_stepper", SerialNodeStepper)
            yield

    return serial
