"""One-call OS boot: every personality through one sequence.

``boot_os(machine, "win98")`` gives you a booted kernel with the right
personality; the string names match the paper's Table 2 columns (plus
the section 6.1 Windows 2000 beta).  A personality is a row of
``_PERSONALITIES``: its :class:`~repro.kernel.profile.OsProfile`, its
idle-system baseline load and the name of its section executor.  The
profile's ``work_item_thread`` decides whether the OS has a kernel
work-item queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.hw.machine import Machine
from repro.kernel.intrusions import LoadProfile, SectionExecutor, apply_load_profile
from repro.kernel.kernel import Kernel
from repro.kernel.nt4 import NT4_BASELINE_LOAD, NT4_PROFILE
from repro.kernel.profile import OsProfile
from repro.kernel.win2k import WIN2K_BASELINE_LOAD, WIN2K_PROFILE
from repro.kernel.win98 import WIN98_BASELINE_LOAD, WIN98_PROFILE
from repro.kernel.workitems import WorkItemQueue


@dataclass
class BootedOs:
    """A booted kernel plus its personality-level services."""

    name: str
    kernel: Kernel
    section_executor: SectionExecutor
    work_items: Optional[WorkItemQueue] = None

    @property
    def machine(self) -> Machine:
        return self.kernel.machine


#: name -> (profile, idle baseline load, section-executor thread name).
_PERSONALITIES: Dict[str, Tuple[OsProfile, LoadProfile, str]] = {
    "nt4": (NT4_PROFILE, NT4_BASELINE_LOAD, "KiKernelSections"),
    "win2k": (WIN2K_PROFILE, WIN2K_BASELINE_LOAD, "KiKernelSections"),
    "win98": (WIN98_PROFILE, WIN98_BASELINE_LOAD, "VMM_Sections"),
}

OS_NAMES = tuple(sorted(_PERSONALITIES))


def boot_os(machine: Machine, os_name: str, baseline_load: bool = True) -> BootedOs:
    """Boot the named OS personality on ``machine``.

    Args:
        machine: The simulated hardware.
        os_name: ``"nt4"``, ``"win98"``, or ``"win2k"`` (the section 6.1
            beta-monitoring extension).
        baseline_load: Install idle-system background kernel activity.
            Tests of pure mechanics turn this off for determinism.

    Raises:
        KeyError: For an unknown OS name.
    """
    try:
        profile, baseline, executor_name = _PERSONALITIES[os_name]
    except KeyError:
        raise KeyError(f"unknown OS {os_name!r}; choose from {OS_NAMES}") from None
    kernel = Kernel(machine, profile)
    kernel.boot()
    section_executor = SectionExecutor(kernel, name=executor_name)
    work_items = None
    if profile.work_item_thread:
        work_items = WorkItemQueue(kernel, priority=profile.work_item_priority)
    if baseline_load:
        apply_load_profile(
            kernel,
            baseline,
            machine.rng.child(f"{os_name}-baseline"),
            section_executor=section_executor,
            work_item_queue=work_items,
        )
    return BootedOs(os_name, kernel, section_executor, work_items)
