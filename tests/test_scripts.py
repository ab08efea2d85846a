"""The scripts under scripts/ refuse bad command lines as usage errors.

Each refusal exits 2 with argparse's message on stderr, before the
script prints a row or builds a text, and never ends in a traceback.
gadget_report.py also prints each kind's index sizes.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["gadget_report.py", "--trials", "0"],
        ["gadget_report.py", "--size", "8", "--exhaustive"],
        ["gadget_report.py", "--size", "0"],
        ["bench_ilf.py", "--max-n", "2000000"],
        ["bench_ilf.py", "--batch", "2000000"],
        ["bench_ilf.py", "--repeat", "0"],
        ["tradeoff.py", "--max-n", "2000000"],
        ["tradeoff.py", "--max-n", "999"],
        ["tradeoff.py", "--queries", "0"],
        ["tradeoff.py", "--queries", "2000000"],
    ],
    ids=" ".join,
)
def test_bad_command_line_is_usage_error(argv):
    script = argv[0]
    result = _run(*argv)
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert f"{script}: error:" in result.stderr


def test_gadget_report_prints_index_sizes_per_kind():
    """Each kind's row ends with one instance's BWT run count, the integers
    its inverse-LF and LCP-RMQ indexes keep, and its certificate's phrase
    count, each a positive integer."""
    result = _run("gadget_report.py", "--size", "3", "--trials", "2")
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    columns = header.split()
    assert columns[-4:] == ["r", "ilf_ints", "lcp_ints", "cert1"]
    assert len(rows) == 7
    for row in rows:
        cells = dict(zip(columns, row.split()))
        assert len(cells) == len(columns), row
        for name in columns[-4:]:
            assert cells[name].isdigit() and int(cells[name]) > 0, (row, name)
