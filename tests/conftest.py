"""Shared test fixtures and helpers."""

import pytest

from repro.hw.machine import Machine, MachineConfig
from repro.kernel.kernel import Kernel
from repro.kernel.profile import OsProfile

#: A featureless profile for mechanics tests (deterministic costs).
BARE_PROFILE = OsProfile(name="bare")


def make_machine(pit_hz: float = 1000.0, seed: int = 7) -> Machine:
    return Machine(MachineConfig(pit_hz=pit_hz), seed=seed)


def make_bare_kernel(pit_hz: float = 1000.0, seed: int = 7, boot: bool = False):
    """A kernel with no personality noise, for deterministic tests."""
    machine = make_machine(pit_hz=pit_hz, seed=seed)
    kernel = Kernel(machine, BARE_PROFILE)
    if boot:
        kernel.boot()
    return machine, kernel


@pytest.fixture
def machine():
    return make_machine()


@pytest.fixture
def bare_kernel():
    return make_bare_kernel()
