"""Interrupt Request Levels.

The WDM IRQL ladder as the paper describes it: PASSIVE at the bottom,
DISPATCH for DPC draining and the scheduler, device IRQLs (DIRQLs) above
that, the clock interrupt "at extremely high IRQL", and HIGH_LEVEL at the
top (effectively interrupts-off).
"""

from __future__ import annotations

PASSIVE_LEVEL = 0
APC_LEVEL = 1
DISPATCH_LEVEL = 2
#: Lowest device IRQL.
DIRQL_MIN = 3
#: Highest ordinary device IRQL.
DIRQL_MAX = 26
PROFILE_LEVEL = 27
#: The clock (PIT) interrupt level.
CLOCK_LEVEL = 28
POWER_LEVEL = 30
HIGH_LEVEL = 31

_NAMES = {
    PASSIVE_LEVEL: "PASSIVE_LEVEL",
    APC_LEVEL: "APC_LEVEL",
    DISPATCH_LEVEL: "DISPATCH_LEVEL",
    PROFILE_LEVEL: "PROFILE_LEVEL",
    CLOCK_LEVEL: "CLOCK_LEVEL",
    POWER_LEVEL: "POWER_LEVEL",
    HIGH_LEVEL: "HIGH_LEVEL",
}


def name(level: int) -> str:
    """Human-readable name of an IRQL."""
    if level in _NAMES:
        return _NAMES[level]
    if DIRQL_MIN <= level <= DIRQL_MAX:
        return f"DIRQL({level})"
    return f"IRQL({level})"


def validate(level: int) -> int:
    """Check that ``level`` is a legal IRQL; returns it unchanged."""
    if not PASSIVE_LEVEL <= level <= HIGH_LEVEL:
        raise ValueError(f"IRQL {level} outside [{PASSIVE_LEVEL}, {HIGH_LEVEL}]")
    return level
