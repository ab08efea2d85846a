"""The scripts under scripts/ refuse bad command lines as usage errors.

Each refusal exits 2 with argparse's message on stderr, before the
script prints a row or builds a text, and never ends in a traceback.
A script whose reader leaves early stops quietly, as csq does.
One run of tradeoff.py's table gives every row check: both indexes'
sizes and timings and the delta csq measures reads, checked once per
text, and a row per ladder step and epsilon for every gadget kind.  The
table sorts each text once, and its gadget size search brackets each
step; large_text_checks.py's checkers count wrong answers.
"""

import importlib.util
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest

from csq.cli import main
from csq.gadgets import KINDS, longest_text
from csq.measures import bwt_run_count
from csq.text_core import Text, suffix_array

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
        ["tradeoff.py", "--max-n", "2000000"],
        ["tradeoff.py", "--max-n", "999"],
        ["tradeoff.py", "--queries", "0"],
        ["tradeoff.py", "--queries", "2000000"],
    ],
    ids=" ".join,
)
def test_bad_command_line_is_usage_error(argv):
    result = _run(*argv)
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert f"{argv[0]}: error:" in result.stderr


def test_script_stops_quietly_when_its_reader_leaves():
    """Piped into a reader that closes after the header, tradeoff.py stops
    with status 0 and no traceback.  Unbuffered (-u), every row after the
    header is written after the reader has gone."""
    argv = [sys.executable, "-u", str(REPO / "scripts" / "tradeoff.py"), "--max-n", "10000", "--queries", "20"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=ENV)
    header = proc.stdout.readline()
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert header.split()[0] == "family"
    assert "Traceback" not in stderr, stderr
    assert proc.returncode == 0, stderr


def _script(name: str):
    """A script under scripts/, loaded by path as a module."""
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def table() -> list[dict[str, str]]:
    """tradeoff.py's rows at --max-n 10^4 and 20 queries, each as a dict
    keyed by the header's column names.  The run exits 0 with no traceback
    and prints rows under its header."""
    result = _run("tradeoff.py", "--max-n", "10000", "--queries", "20")
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    header, *rows = result.stdout.splitlines()
    assert rows, result.stdout
    columns = header.split()
    cells = [dict(zip(columns, row.split())) for row in rows]
    assert all(len(c) == len(columns) for c in cells), rows
    return cells


@pytest.fixture(scope="module")
def first_step_texts(table) -> list[tuple[Text, list[dict[str, str]]]]:
    """Each family's text at the 10^3 step, drawn again as tradeoff.py draws
    it, with the family's first rows of the table: one per epsilon, the rows
    that a --max-n 1000 run prints, since each step seeds its own draws."""
    tradeoff = _script("tradeoff")
    step = tradeoff.SMALLEST_N
    texts = []
    for family in tradeoff.FAMILIES:
        rows = [cells for cells in table if cells["family"] == family][: len(tradeoff.EPSILONS)]
        assert [float(cells["eps"]) for cells in rows] == list(tradeoff.EPSILONS), family
        texts.append((tradeoff.make_bundle(family, step, random.Random(f"{family}:{step}")).text, rows))
    return texts


def test_tradeoff_rows_give_both_indexes_sizes_and_timings(first_step_texts):
    """Every row's r is the BWT run count of the text the script draws for
    its family at the ladder step, the inverse-LF index keeps two integers
    per run of the terminated text (so an even count, at least 2r), and
    every timing cell is a positive number.  The rows of one text print
    the same n, r, ilf_ints, delta and dlog."""
    timings = ["build_ms", "rmq_us", "lce_us", "ilf_ms", "ilf_us"]
    assert set(timings + ["r", "ilf_ints"]) <= set(first_step_texts[0][1][0])
    tradeoff = _script("tradeoff")
    assert sum(len(rows) for _, rows in first_step_texts) == len(tradeoff.FAMILIES) * len(tradeoff.EPSILONS)
    for text, rows in first_step_texts:
        for name in ("n", "r", "ilf_ints", "delta", "dlog"):
            assert len({cells[name] for cells in rows}) == 1, (rows, name)
        r = bwt_run_count(text)
        for cells in rows:
            assert int(cells["r"]) == r, cells
            ilf_ints = int(cells["ilf_ints"])
            assert ilf_ints % 2 == 0 and ilf_ints >= 2 * r, cells
            for name in timings:
                assert float(cells[name]) > 0, (cells, name)


def test_tradeoff_delta_matches_csq_measures(first_step_texts, capsys, tmp_path):
    """Each row's delta is the one csq measures reports for the same text,
    and dlog is delta * log2(n / delta), each to the decimals printed."""
    path = tmp_path / "text.txt"
    for text, rows in first_step_texts:
        path.write_text(" ".join(map(str, text.symbols)))
        assert main(["measures", "--input", str(path), "--format", "ints", "--output", "structured"]) == 0
        delta = Fraction(dict(json.loads(capsys.readouterr().out)["report"])["delta"])
        for cells in rows:
            assert text.n == int(cells["n"]), cells
            assert cells["delta"] == f"{float(delta):.2f}", cells
            assert cells["dlog"] == f"{float(delta) * math.log2(text.n / delta):.1f}", cells


def test_tradeoff_prints_index_sizes_per_gadget_kind(table):
    """Every gadget kind has one row per ladder step and epsilon, in ladder
    order, with a text of at most the ladder step, and its r and both
    indexes' integer counts are positive integers."""
    epsilons = len(_script("tradeoff").EPSILONS)
    steps = (1000, 10000)
    for kind in KINDS:
        kind_rows = [cells for cells in table if cells["family"] == kind]
        assert len(kind_rows) == len(steps) * epsilons, kind
        for i, cells in enumerate(kind_rows):
            assert 0 < int(cells["n"]) <= steps[i // epsilons], cells
            for name in ("r", "ilf_ints", "stored"):
                assert cells[name].isdigit() and int(cells[name]) > 0, (cells, name)


def test_tradeoff_sorts_each_text_once(monkeypatch, capsys):
    """tradeoff.py sorts each text it prints once, a gadget text included:
    at --max-n 10^3, one sort per family, of the text's n symbols behind
    the sort's sentinel."""
    tradeoff = _script("tradeoff")
    counted = mock.Mock(wraps=suffix_array)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "csq" and hasattr(module, "suffix_array"):
            monkeypatch.setattr(module, "suffix_array", counted)
    monkeypatch.setattr(sys, "argv", ["tradeoff.py", "--max-n", "1000", "--queries", "1"])
    assert tradeoff.main() == 0
    rows = capsys.readouterr().out.splitlines()[1 :: len(tradeoff.EPSILONS)]
    assert len(rows) == len(tradeoff.FAMILIES)
    assert [len(call.args[0]) for call in counted.call_args_list] == [int(row.split()[1]) + 1 for row in rows]


def test_gadget_size_is_the_largest_whose_longest_text_fits():
    """tradeoff.py's size search brackets every ladder step up to the text
    budget between the longest texts of two consecutive sizes."""
    tradeoff = _script("tradeoff")
    for kind in KINDS:
        for n in (10**3, 10**4, 10**5, 10**6):
            size = tradeoff.gadget_size(kind, n)
            assert longest_text(kind, size) <= n < longest_text(kind, size + 1), (kind, n)


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
