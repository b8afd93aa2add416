"""The demo scripts run end to end, in order, into a scratch directory."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(
    name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py")
)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("demo_out")


# later demos read what earlier ones leave behind, so they run in name order
@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, out_dir):
    env = dict(os.environ, STEREOSR_OUT_DIR=str(out_dir))
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        cwd=out_dir, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
