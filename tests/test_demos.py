"""Every demo script runs to completion against the package in `src`."""

import os
import subprocess
import sys
from pathlib import Path

import byte_manifest
import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_seven_demos_found():
    assert len(DEMOS) == 7


# what a demo leaves in its working directory; everything else goes to temp dirs it removes
LEFT_IN_CWD = {"05_planar_map.py": ["semfuse_map", "semfuse_map/map.csv", "semfuse_map/map.svg"]}


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cwd, temp = tmp_path / "cwd", tmp_path / "tmp"
    cwd.mkdir()
    temp.mkdir()
    env["TMPDIR"] = str(temp)
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(temp.iterdir()) == []
    left = sorted(path.relative_to(cwd).as_posix() for path in cwd.rglob("*"))
    assert left == LEFT_IN_CWD.get(demo.name, [])
    key = f"demo.{demo.name}"
    byte_manifest.check(key, {key: byte_manifest.sha256(proc.stdout.encode("utf-8"))})

