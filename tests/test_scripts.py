"""The scripts under scripts/ refuse bad command lines as usage errors.

Each refusal exits 2 with argparse's message on stderr, before the
script prints a row or builds a text, and never ends in a traceback.
A script whose reader leaves early stops quietly, as csq does.
gadget_report.py also prints each kind's index sizes, tradeoff.py runs
through and prints both indexes' sizes and timings on every row, and
large_text_checks.py's checkers count wrong answers.
"""

import importlib.util
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from csq.measures import bwt_run_count

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


@pytest.mark.parametrize(
    "argv",
    [
        ["tradeoff.py", "--max-n", "1000", "--queries", "20"],
    ],
    ids=" ".join,
)
def test_script_runs_through(argv):
    result = _run(*argv)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert len(result.stdout.splitlines()) > 1


def _script(name: str):
    """A script under scripts/, loaded by path as a module."""
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tradeoff_rows_give_both_indexes_sizes_and_timings():
    """Every row's r is the BWT run count of the text the script draws for
    its family and n, the inverse-LF index keeps two integers per run of
    the terminated text (so an even count, at least 2r), and every timing
    cell is a positive number."""
    result = _run("tradeoff.py", "--max-n", "1000", "--queries", "20")
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    columns = header.split()
    timings = ["build_ms", "rmq_us", "lce_us", "ilf_ms", "ilf_us"]
    assert set(timings + ["r", "ilf_ints"]) <= set(columns)
    tradeoff = _script("tradeoff")
    assert len(rows) == len(tradeoff.FAMILIES) * len(tradeoff.EPSILONS)
    for row in rows:
        cells = dict(zip(columns, row.split()))
        assert len(cells) == len(columns), row
        family, n = cells["family"], int(cells["n"])
        r = int(cells["r"])
        assert r == bwt_run_count(tradeoff.make_text(family, n, random.Random(f"{family}:{n}"))), row
        ilf_ints = int(cells["ilf_ints"])
        assert ilf_ints % 2 == 0 and ilf_ints >= 2 * r, row
        for name in timings:
            assert float(cells[name]) > 0, (row, name)


def test_large_text_checkers_count_only_wrong_answers(capsys):
    """Each checker of large_text_checks.py passes a tiny right input and
    counts the same input with one answer wrong."""
    checks = _script("large_text_checks")
    # argmin(1..5] over LCP[2..5] = 2 1 3 1: 3 and 5 hold the minimum, 3 first
    lcp = [0, 0, 2, 1, 3, 1]
    argmin = checks.leftmost_minimum(lcp)
    assert checks.check_answers("rmq", [["n", 5], ["argmin(1..5]", 3]], argmin, 1) == 0
    assert checks.check_answers("rmq", [["argmin(1..5]", 5]], argmin, 1) == 1
    # a missing answer counts too
    assert checks.check_answers("rmq", [], argmin, 1) == 1
    s = [0, 1, 0, 0, 1, 0]
    lce = checks.suffix_lce(s)
    assert checks.check_answers("lce", [["lce(1,4)", 3], ["lce(2,5)", 2], ["lce(6,6)", 1]], lce, 3) == 0
    assert checks.check_answers("lce", [["lce(1,4)", 4], ["lce(2,5)", 2], ["lce(6,6)", 1]], lce, 3) == 1
    # least_long: none of the answers reaches 50
    assert checks.check_answers("lce", [["lce(1,4)", 3]], lce, 1, least_long=1) == 1
    sa = [6, 3, 4, 1, 5, 2]  # suffixes 0 < 0 0 1 0 < 0 1 0 < 0 1 0 0 1 0 < 1 0 < 1 0 0 1 0
    assert checks.check_suffix_array("sa", s, sa) == 0
    assert checks.check_suffix_array("sa", s, [6, 3, 1, 4, 5, 2]) == 1
    assert checks.check_suffix_array("sa", s, [6, 3, 4, 1, 5, 5]) == 7
    report = [["n", 8], ["z", 4], ["bwt_runs", 2], ["delta", "2/1"], ["delta_arg_len", 1]]
    assert not checks.check_delta("fib", report, 8, Fraction(2), 1)
    report[3][1] = "4/2"
    assert checks.check_delta("fib", report, 8, Fraction(2), 1)
    report[3:] = [["delta", "3/2"], ["delta_arg_len", 2]]
    assert checks.check_delta("fib", report, 8, Fraction(2), 1)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rmq: 1 answers, 0 wrong" and lines[1] == "rmq: 1 answers, 1 wrong"
    assert lines[5] == "lce: 1 answers, 0 wrong, 0 of 50 or more"


def test_thue_morse_factor_counts_match_the_word():
    """The closed form that large_text_checks.py reads Thue-Morse delta
    from counts the distinct factors of a 2^10 prefix for l up to 2^8 + 1."""
    checks = _script("large_text_checks")
    word = "".join(str(bin(i).count("1") & 1) for i in range(1 << 10))
    for length in range(1, (1 << 8) + 2):
        assert checks.thue_morse_factors(length) == len({word[i : i + length] for i in range(len(word) - length + 1)})
