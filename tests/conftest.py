"""Shared fixtures."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.kernels.fixed import FixedWorkKernel
from repro.machine.presets import haswell16, haswell_node, jetson_tx2
from repro.machine.speed import SpeedModel
from repro.sim.environment import Environment


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def tx2():
    return jetson_tx2()


@pytest.fixture
def hsw16():
    return haswell16()


@pytest.fixture
def speed(env, tx2) -> SpeedModel:
    return SpeedModel(env, tx2)


@pytest.fixture
def tiny_kernel() -> FixedWorkKernel:
    """A 1 ms (at speed 1) rigid-ish kernel for runtime tests."""
    return FixedWorkKernel("tiny", work=1e-3, parallel_fraction=0.8,
                           memory_intensity=0.0)


@pytest.fixture
def process_starts(monkeypatch):
    """Every ``multiprocessing.Process`` the test starts, in order."""
    started = []
    original = multiprocessing.Process.start

    def start(self):
        started.append(self)
        original(self)

    monkeypatch.setattr(multiprocessing.Process, "start", start)
    return started
