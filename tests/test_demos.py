"""Every demo script, and README's library quick start, runs to completion
against the current package; README's instance example gives the output it shows."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cellassoc.cli import match_main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


def _run_python(args, tmp_path):
    # The package from src, in a scratch directory that also holds temp files.
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = _run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    proc = _run_python(["-c", blocks[0]], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("True ()\n")


def test_readme_instance_example_runs_through_match(tmp_path, capsys):
    # README's gated instance and the `match` output it shows: the documented
    # format must stay the one the parser reads.
    readme = (ROOT / "README.md").read_text()
    (instance,) = re.findall(r"```text\n(.*?)```", readme, re.S)
    (console,) = re.findall(r"```console\n\$ match --instance instance.txt\n(.*?)```", readme, re.S)
    path = tmp_path / "instance.txt"
    path.write_text(instance)
    assert match_main(["--instance", str(path)]) == 0
    assert capsys.readouterr().out == console
