"""Every script under demos/ runs to completion against the package."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import eml

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    env = {k: v for k, v in os.environ.items() if not k.startswith("EML_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(eml.__file__)), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.Popen(
        [sys.executable, str(script)], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{script.name} did not finish within 120 s")
    assert proc.returncode == 0, err
