#!/usr/bin/env python
"""cProfile harness for the simulator's hot path.

Runs one loaded experiment cell (Windows 98 or NT 4.0 personality under a
calibrated stress workload) under cProfile and prints the top-N functions
by cumulative time, plus the same table by internal time.  This is the
profile that drove the ISSUE-2 dispatch fast path; keep it handy so future
"the simulator feels slow" reports start from data.

Besides the human-readable tables, ``--json`` writes a machine-readable
report whose per-function *call counts per simulated second* are fully
deterministic for a fixed (os, workload, duration, seed) cell -- unlike
wall-clock timings, which are useless on noisy shared runners.  That is
what ``benchmarks/test_call_budget.py`` gates on, against the checked-in
budget written by ``--write-budget``.

Usage::

    PYTHONPATH=src python tools/profile_sim.py
    PYTHONPATH=src python tools/profile_sim.py --os nt4 --workload office \\
        --duration-s 4 --top 30 --output profile_report.txt
    PYTHONPATH=src python tools/profile_sim.py --json profile_report.json
    PYTHONPATH=src python tools/profile_sim.py --write-budget \\
        benchmarks/call_budget.json
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys
from pathlib import Path

# Appended, not prepended: a tree on PYTHONPATH is the one profiled, and
# this checkout's src is only the fallback.
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.experiment import build_loaded_os  # noqa: E402


def profile_cell(os_name: str, workload: str, duration_s: float, seed: int):
    """Profile ``duration_s`` simulated seconds of one loaded cell.

    The OS build/boot happens outside the profiled region so the report
    shows steady-state dispatch costs, not one-time setup.  Returns
    ``(profiler, booted_os)`` so callers can read post-run engine counters
    (fast-forward spans, tape vs interpreted frames).
    """
    os, _ = build_loaded_os(os_name, workload, seed=seed)
    profiler = cProfile.Profile()
    profiler.enable()
    os.machine.run_for_ms(duration_s * 1000.0)
    profiler.disable()
    return profiler, os


def _repro_key(filename: str, funcname: str) -> str | None:
    """``"kernel/kernel.py:_run_complete"`` for functions under src/repro."""
    marker = "repro/"
    pos = filename.rfind(marker)
    if pos < 0:
        return None
    return f"{filename[pos + len(marker):]}:{funcname}"


def call_counts(os_name: str, workload: str, duration_s: float, seed: int) -> dict:
    """Deterministic per-function call rates for one profiled cell.

    Returns ``{"config": ..., "total_repro_calls_per_sim_s": float,
    "functions": {key: {"calls": int, "calls_per_sim_s": float,
    "tottime_s": float}}}`` covering every function under ``src/repro``.
    The call counts depend only on the simulated event stream (which is
    seeded), so they are bit-stable across runs and machines; ``tottime_s``
    is informational only.  A ``fast_forward`` section reports the
    engine's virtual-time counters for the profiled run: idle spans
    analytically settled, PIT ticks batch-settled inside them, and how
    many frames executed from a compiled tape vs the generator
    interpreter (all equally deterministic for a fixed cell).
    """
    profiler, os = profile_cell(os_name, workload, duration_s, seed)
    engine = os.machine.engine
    functions: dict = {}
    total_calls = 0
    for (filename, _lineno, funcname), (_cc, nc, tt, _ct, _callers) in pstats.Stats(
        profiler
    ).stats.items():
        key = _repro_key(filename, funcname)
        if key is None:
            continue
        entry = functions.setdefault(
            key, {"calls": 0, "calls_per_sim_s": 0.0, "tottime_s": 0.0}
        )
        entry["calls"] += nc
        entry["calls_per_sim_s"] = round(entry["calls"] / duration_s, 2)
        entry["tottime_s"] = round(entry["tottime_s"] + tt, 6)
        total_calls += nc
    return {
        "config": {
            "os": os_name,
            "workload": workload,
            "duration_s": duration_s,
            "seed": seed,
        },
        "total_repro_calls": total_calls,
        "total_repro_calls_per_sim_s": round(total_calls / duration_s, 2),
        "fast_forward": {
            "spans_fast_forwarded": engine.spans_fast_forwarded,
            "ticks_fast_forwarded": engine.ticks_fast_forwarded,
            "tape_frames": engine.tape_frames,
            "interpreted_frames": engine.interpreted_frames,
        },
        "functions": dict(
            sorted(functions.items(), key=lambda kv: -kv[1]["calls"])
        ),
    }


#: Cells the call-budget gate covers: the loaded win98/games cell that
#: exercises every dispatch path, plus an idle cell where the virtual-time
#: fast-forward should be settling nearly every tick (a regression that
#: disables fast-forward shows up as a call-rate explosion there).
BUDGET_CELLS = (
    ("win98", "games", 2.0, 1),
    ("nt4", "idle", 2.0, 1),
)


def write_budget(path: Path, top: int = 25) -> None:
    """Write the call-budget file ``benchmarks/test_call_budget.py`` gates on.

    Profiles every cell in :data:`BUDGET_CELLS` and keeps each cell's
    ``top`` highest-traffic functions; the test allows 20% headroom over
    each recorded rate before failing.
    """
    cells = {}
    for os_name, workload, duration_s, seed in BUDGET_CELLS:
        counts = call_counts(os_name, workload, duration_s, seed)
        ranked = list(counts["functions"].items())[:top]
        cells[f"{os_name}/{workload}"] = {
            "config": counts["config"],
            "total_repro_calls_per_sim_s": counts["total_repro_calls_per_sim_s"],
            "fast_forward": counts["fast_forward"],
            "functions": {key: entry["calls_per_sim_s"] for key, entry in ranked},
        }
    path.write_text(json.dumps({"cells": cells}, indent=2, sort_keys=True) + "\n")


def format_report(profiler: cProfile.Profile, top: int) -> str:
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    buffer.write(f"== top {top} by cumulative time ==\n")
    stats.sort_stats("cumulative").print_stats(top)
    buffer.write(f"\n== top {top} by internal time ==\n")
    stats.sort_stats("tottime").print_stats(top)
    return buffer.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--os", dest="os_name", default="win98", choices=("win98", "nt4"))
    parser.add_argument("--workload", default="games",
                        choices=("office", "workstation", "games", "web", "idle"))
    parser.add_argument("--duration-s", type=float, default=2.0,
                        help="simulated seconds to profile (default: 2)")
    parser.add_argument("--seed", type=int, default=1, help="experiment seed")
    parser.add_argument("--top", type=int, default=20,
                        help="functions per table (default: 20)")
    parser.add_argument("--output", type=Path, default=None,
                        help="also write the report to this file")
    parser.add_argument("--json", type=Path, default=None,
                        help="write a machine-readable call-count report "
                             "(deterministic calls/sim-s) to this file")
    parser.add_argument("--write-budget", type=Path, default=None,
                        help="write/refresh the call-budget file used by "
                             "benchmarks/test_call_budget.py")
    args = parser.parse_args(argv)

    if args.json is not None or args.write_budget is not None:
        if args.json is not None:
            counts = call_counts(args.os_name, args.workload, args.duration_s, args.seed)
            args.json.write_text(json.dumps(counts, indent=2) + "\n")
            print(f"call-count report written to {args.json}")
        if args.write_budget is not None:
            # The budget always covers the fixed BUDGET_CELLS matrix, not
            # the --os/--workload selection, so a refresh can never
            # silently narrow the gate.
            write_budget(args.write_budget)
            print(f"call budget written to {args.write_budget}")
        return 0

    profiler, os = profile_cell(args.os_name, args.workload, args.duration_s, args.seed)
    engine = os.machine.engine
    header = (
        f"profile: {args.os_name}/{args.workload} duration_s={args.duration_s} "
        f"seed={args.seed}\n"
    )
    ff_line = (
        f"fast-forward: {engine.spans_fast_forwarded} spans, "
        f"{engine.ticks_fast_forwarded} ticks settled; frames: "
        f"{engine.tape_frames} tape, {engine.interpreted_frames} interpreted\n"
    )
    report = header + ff_line + format_report(profiler, args.top)
    print(report)
    if args.output is not None:
        args.output.write_text(report)
        print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
