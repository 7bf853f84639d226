"""Discrete-event simulation substrate.

This package provides the deterministic event-driven core that everything
else in :mod:`repro` is built on:

* :class:`repro.sim.engine.Engine` -- a cancellable-event priority-queue
  simulator whose clock is an integer count of CPU cycles.
* :class:`repro.sim.clock.CpuClock` -- cycle/millisecond conversions for a
  configurable CPU frequency (the paper's testbed is a 300 MHz Pentium II).
* :class:`repro.sim.rng.RngStream` and the duration-distribution helpers in
  :mod:`repro.sim.rng` -- named, independently-seeded randomness so a whole
  measurement campaign is reproducible from a single seed.
"""

from repro.sim.clock import CpuClock
from repro.sim.engine import Engine, EventHandle
from repro.sim.rng import DurationDistribution, RngStream

__all__ = [
    "CpuClock",
    "DurationDistribution",
    "Engine",
    "EventHandle",
    "RngStream",
]
