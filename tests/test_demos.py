"""Each demo script runs to completion against the package in this checkout.

Warnings are errors in the demo process too, as in the test run itself, and
a test run in development mode (``-X dev``) runs the demos in it as well.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))  # the demos' work directories land here
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    dev = ["-X", "dev"] if sys.flags.dev_mode else []
    proc = subprocess.run(
        [sys.executable, *dev, "-W", "error", str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []  # each demo removes its work directory
