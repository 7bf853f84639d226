"""``tools/profile_sim.py`` profiles the ``repro`` tree on ``PYTHONPATH``.

Comparing two checkouts' call counts means importing the tool from one
checkout with the other's ``src`` on ``PYTHONPATH``; the tool's own
``src`` is only the fallback.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "import profile_sim, repro; print(repro.__file__)")


def _repro_file(cwd, pythonpath=None) -> Path:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if pythonpath is not None:
        env["PYTHONPATH"] = str(pythonpath)
    completed = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "tools")],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return Path(completed.stdout.strip())


def test_pythonpath_beats_the_tools_own_checkout(tmp_path):
    copy = tmp_path / "other"
    shutil.copytree(ROOT / "src" / "repro", copy / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    assert _repro_file(cwd, pythonpath=copy).is_relative_to(copy)
    # Without PYTHONPATH the tool still finds its own checkout's src.
    assert _repro_file(cwd).is_relative_to(ROOT / "src")
