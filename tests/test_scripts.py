"""The scripts under scripts/ refuse bad command lines as usage errors.

Each refusal exits 2 with argparse's message on stderr, before the
script prints a row or builds a text, and never ends in a traceback.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["gadget_report.py", "--trials", "0"],
        ["gadget_report.py", "--size", "8", "--exhaustive"],
        ["gadget_report.py", "--size", "0"],
        ["bench_ilf.py", "--max-n", "2000000"],
        ["bench_ilf.py", "--batch", "2000000"],
        ["bench_ilf.py", "--repeat", "0"],
    ],
    ids=" ".join,
)
def test_bad_command_line_is_usage_error(argv):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    script, *args = argv
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert f"{script}: error:" in result.stderr
