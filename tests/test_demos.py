"""Every demo script runs to completion with nothing on stderr, and README's
layout names every module."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_readme_layout_names_each_module_once():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("```", lines.index("## Layout and notes")) + 1
    block = lines[start:lines.index("```", start)]
    # an entry starts two spaces in; its continuation lines start further in
    named = [line.split()[0] for line in block
             if line.startswith("  ") and not line.startswith("   ")]
    modules = sorted(path.name for path in (ROOT / "src" / "osglines").glob("*.py"))
    assert sorted(name for name in named if name.endswith(".py")) == modules
