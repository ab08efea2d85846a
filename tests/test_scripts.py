"""The scripts under scripts/ refuse bad command lines as usage errors.

Each refusal exits 2 with argparse's message on stderr, before the
script prints a row or builds a text, and never ends in a traceback.
A script whose reader leaves early stops quietly, as csq does.
gadget_report.py also prints each kind's index sizes.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=ENV,
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


@pytest.mark.parametrize(
    "argv",
    [
        ["gadget_report.py", "--size", "3", "--trials", "2"],
        ["bench_ilf.py", "--max-n", "4096", "--repeat", "1", "--batch", "10"],
        ["tradeoff.py", "--max-n", "10000", "--queries", "20"],
    ],
    ids=" ".join,
)
def test_script_stops_quietly_when_its_reader_leaves(argv):
    """Piped into a reader that closes after the header, each script stops
    with status 0 and no traceback.  Unbuffered (-u), every row after the
    header is written after the reader has gone."""
    proc = subprocess.Popen(
        [sys.executable, "-u", str(REPO / "scripts" / argv[0]), *argv[1:]],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=ENV,
    )
    header = proc.stdout.readline()
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert header.split()[0] in ("kind", "family")
    assert "Traceback" not in stderr, stderr
    assert proc.returncode == 0, stderr
