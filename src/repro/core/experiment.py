"""Measurement campaigns: boot, load, measure, collect.

This is the top-level entry point the benchmarks and examples use.  One
:func:`run_latency_experiment` call reproduces one cell of the paper's
experiment matrix: an OS personality under one application stress load,
instrumented by the WDM latency tool.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.core.samples import SampleSet
from repro.drivers.latency import LatencyToolConfig, WdmLatencyTool
from repro.hw.machine import Machine
from repro.kernel.boot import BootedOs, boot_os
from repro.kernel.intrusions import AppliedLoad, LoadProfile, apply_load_profile
from repro.workloads.base import get_workload


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the experiment matrix.

    Attributes:
        os_name: "nt4", "win98" or "win2k".
        workload: Registered workload name ("office", "workstation",
            "games", "web", "idle").
        duration_s: Simulated collection time.  The paper collects 4-12.5
            hours per workload; the simulator collects minutes and relies
            on :mod:`repro.core.worst_case` tail extrapolation for the
            daily/weekly horizons.
        seed: Root seed for every random stream in the run.
        warmup_s: Simulated time to run the load before measurement starts
            (the paper launches Winstone first, then the tools, to skip the
            startup hardware-probe spike).
        tool: Latency-tool configuration.
        extra_profile: Optional perturbation overlay (virus scanner, sound
            scheme) merged into the workload profile.
    """

    os_name: str = "win98"
    workload: str = "office"
    duration_s: float = 30.0
    seed: int = 1999
    warmup_s: float = 1.0
    tool: LatencyToolConfig = field(default_factory=LatencyToolConfig)
    extra_profile: Optional[LoadProfile] = None

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)


@dataclass
class ExperimentResult:
    """Everything a finished campaign produced."""

    config: ExperimentConfig
    sample_set: SampleSet
    os: BootedOs
    tool: WdmLatencyTool
    applied_load: AppliedLoad

    @property
    def kernel_stats(self):
        return self.os.kernel.stats


def build_loaded_os(
    os_name: str,
    workload_name: str,
    seed: int,
    extra_profile: Optional[LoadProfile] = None,
) -> Tuple[BootedOs, AppliedLoad]:
    """Boot an OS and apply a workload to it (no measurement tool)."""
    machine = Machine(seed=seed)
    os = boot_os(machine, os_name)
    profile = get_workload(workload_name).profile_for(os_name)
    if extra_profile is not None:
        profile = profile.merged_with(extra_profile)
    applied = apply_load_profile(
        os.kernel,
        profile,
        machine.rng.child(f"load/{profile.name}"),
        section_executor=os.section_executor,
        work_item_queue=os.work_items,
    )
    return os, applied


def run_latency_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one full measurement campaign.

    Boots the OS, applies the stress load, warms up, starts the latency
    tool, runs for ``duration_s`` of simulated time and returns the
    collected samples.
    """
    os, applied = build_loaded_os(
        config.os_name,
        config.workload,
        config.seed,
        extra_profile=config.extra_profile,
    )
    machine = os.machine
    if config.warmup_s > 0:
        machine.run_for_ms(config.warmup_s * 1000.0)
    tool = WdmLatencyTool(os, config.tool)
    tool.start()
    machine.run_for_ms(config.duration_s * 1000.0)
    sample_set = tool.collect(config.workload)
    return ExperimentResult(
        config=config, sample_set=sample_set, os=os, tool=tool, applied_load=applied
    )


def run_matrix(
    os_names: Tuple[str, ...] = ("nt4", "win98"),
    workloads: Tuple[str, ...] = ("office", "workstation", "games", "web"),
    duration_s: float = 30.0,
    seed: int = 1999,
    tool: Optional[LatencyToolConfig] = None,
) -> Dict[Tuple[str, str], ExperimentResult]:
    """Run the full OS x workload matrix (the Figure 4 grid)."""
    results: Dict[Tuple[str, str], ExperimentResult] = {}
    for os_name in os_names:
        for workload in workloads:
            config = ExperimentConfig(
                os_name=os_name,
                workload=workload,
                duration_s=duration_s,
                seed=seed,
                tool=tool if tool is not None else LatencyToolConfig(),
            )
            results[(os_name, workload)] = run_latency_experiment(config)
    return results
