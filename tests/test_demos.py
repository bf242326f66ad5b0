"""Every script in ``demos/`` runs to completion against the library.

Each runs in a fresh interpreter with the package source on its path and
a temporary working directory, so files a demo writes land there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import udiscrim

SRC = Path(udiscrim.__file__).resolve().parent.parent
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
