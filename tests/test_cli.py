"""End-to-end tests for the ``csq`` command-line interface.

Every test drives ``csq.cli.main`` in-process and inspects stdout,
stderr, and the exit code; nothing shells out.
"""

import argparse
import concurrent.futures
import contextlib
import dataclasses
import io
import json
import os
import pathlib
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csq.gadgets
from csq import cli, rlbwt_ilf
from csq.cli import main
from csq.gadgets import build_gadget, verify_reduction
from csq.predecessor import yfast_build, yfast_pred
from csq.text_core import Text, build_bundle, lce_naive

from conftest import (
    FIG_ASCII,
    FIG_BWT,
    FIG_ILF,
    FIG_INV_PHI,
    FIG_ISA,
    FIG_LCP,
    FIG_LF,
    FIG_PHI,
    FIG_PLCP,
    FIG_SA,
)


@pytest.fixture
def fig_file(tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_text(FIG_ASCII)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_human(out):
    pairs = []
    for line in out.splitlines():
        key, _, value = line.partition(": ")
        pairs.append((key, value))
    return dict(pairs)


def int_row(report, key):
    return [int(tok) for tok in report[key].split()]


# ---------------------------------------------------------------------------
# arrays


def test_arrays_reproduces_all_nine_figure_rows(capsys, fig_file):
    code, out, err = run_cli(capsys, ["arrays", "--input", fig_file])
    assert code == 0
    assert err == ""
    report = parse_human(out)
    assert report["n"] == "19"
    assert int_row(report, "sa") == FIG_SA
    assert int_row(report, "isa") == FIG_ISA
    assert int_row(report, "lcp") == FIG_LCP
    assert int_row(report, "plcp") == FIG_PLCP
    assert report["bwt"] == FIG_BWT
    assert int_row(report, "lf") == FIG_LF
    assert int_row(report, "ilf") == FIG_ILF
    assert int_row(report, "phi") == FIG_PHI
    assert int_row(report, "inv_phi") == FIG_INV_PHI


def test_arrays_integer_format_matches_ascii(capsys, tmp_path, fig_file):
    ints = tmp_path / "fig1.ints"
    ints.write_text(" ".join(str(ord(c)) for c in FIG_ASCII))
    code_a, out_a, _ = run_cli(capsys, ["arrays", "--input", fig_file])
    code_b, out_b, _ = run_cli(capsys, ["arrays", "--input", str(ints), "--format", "ints"])
    assert code_a == code_b == 0
    report_a = parse_human(out_a)
    report_b = parse_human(out_b)
    assert int_row(report_a, "sa") == int_row(report_b, "sa")
    # The integer rendering spells the transform row as numbers.
    assert int_row(report_b, "bwt") == [ord(c) for c in FIG_BWT]


def test_arrays_structured_output_is_versioned_json(capsys, fig_file):
    code, out, _ = run_cli(capsys, ["arrays", "--input", fig_file, "--output", "structured"])
    assert code == 0
    document = json.loads(out)
    assert document["schema"] == 1
    assert document["subcommand"] == "arrays"
    rows = dict((key, value) for key, value in document["report"])
    assert rows["sa"] == FIG_SA
    assert rows["inv_phi"] == FIG_INV_PHI


@pytest.mark.parametrize("raw", [b"abracadabra\n\n", b"a\x00b\x01\xffa\x00\xff"])
def test_arrays_non_printable_bwt_prints_integers(capsys, tmp_path, raw):
    """A BWT holding a control or non-ASCII byte is printed as integers,
    so every line of the report still reads as ``key: value``."""
    path = tmp_path / "raw.txt"
    path.write_bytes(raw)
    code, out, err = run_cli(capsys, ["arrays", "--input", str(path)])
    assert (code, err) == (0, "")
    keys = ["n", "sa", "isa", "lcp", "plcp", "bwt", "lf", "ilf", "phi", "inv_phi"]
    lines = out.splitlines()
    assert [line.partition(": ")[0] for line in lines] == keys
    assert all(": " in line for line in lines)
    symbols = raw.removesuffix(b"\n")
    want = list(build_bundle(Text.from_ascii(symbols.decode("latin-1"))).bwt[1:])
    assert int_row(parse_human(out), "bwt") == want
    code, out, _ = run_cli(capsys, ["arrays", "--input", str(path), "--output", "structured"])
    assert dict(json.loads(out)["report"])["bwt"] == want


# ---------------------------------------------------------------------------
# measures


def test_measures_reports_worked_example_values(capsys, fig_file):
    code, out, _ = run_cli(capsys, ["measures", "--input", fig_file])
    assert code == 0
    report = parse_human(out)
    assert report["n"] == "19"
    assert report["sigma"] == "2"
    assert report["z"] == "7"
    assert report["bwt_runs"] == "6"
    assert report["delta"] == "2/1"
    for ratio in ("z/(delta log n)", "r/(delta log^2 n)", "delta/z", "delta/r"):
        assert ratio in report


def test_measures_single_symbol_omits_log_ratios(capsys, tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("q")
    code, out, _ = run_cli(capsys, ["measures", "--input", str(path)])
    assert code == 0
    report = parse_human(out)
    assert report["n"] == "1"
    assert "z/(delta log n)" not in report
    assert report["delta/z"] == "1.000000"


# ---------------------------------------------------------------------------
# ilf


def _yfast_bisect_right(keys, x):
    """bisect_right over keys, answered by a y-fast trie over them."""
    return yfast_pred(yfast_build(keys, u=keys[-1] + 1), x + 1)


@pytest.mark.parametrize("flavor", ["yfast", "bisect"])
def test_ilf_oracle_sweep_and_queries(capsys, monkeypatch, tmp_path, fig_file, flavor):
    """csq ilf serves by one bisect of boundary_keys; with that step answered
    by the y-fast trie instead, the sweep and queries come out the same.
    --flavor no longer chooses the path: it is an unknown flag."""
    with pytest.raises(SystemExit) as info:
        main(["ilf", "--input", fig_file, "--flavor", flavor])
    assert info.value.code == 2
    assert "--flavor" in capsys.readouterr().err
    searches = []
    search = _yfast_bisect_right if flavor == "yfast" else rlbwt_ilf.bisect_right
    monkeypatch.setattr(
        rlbwt_ilf, "bisect_right", lambda keys, x: searches.append(x) or search(keys, x)
    )
    queries = tmp_path / "q.txt"
    queries.write_text("1 5 12\n")
    code, out, _ = run_cli(capsys, ["ilf", "--input", fig_file, "--queries", str(queries)])
    assert code == 0
    assert searches
    report = parse_human(out)
    assert "flavor" not in report
    assert report["oracle_mismatches"] == "0"
    assert report["r_original"] == "6"
    assert int(report["boundary_count"]) == int(report["r_shifted"])
    assert report["ilf[1]"] == str(FIG_ILF[0])
    assert report["ilf[5]"] == str(FIG_ILF[4])
    assert report["ilf[12]"] == str(FIG_ILF[11])


def test_ilf_query_out_of_range_is_usage_error(capsys, tmp_path, fig_file):
    queries = tmp_path / "q.txt"
    queries.write_text("99\n")
    code, out, err = run_cli(capsys, ["ilf", "--input", fig_file, "--queries", str(queries)])
    assert code == 2
    assert "outside" in err


# ---------------------------------------------------------------------------
# lcp-rmq and lce


def test_lcp_rmq_queries_match_figure(capsys, tmp_path, fig_file):
    queries = tmp_path / "q.txt"
    queries.write_text("1 19\n5 6\n")
    code, out, _ = run_cli(capsys, ["lcp-rmq", "--input", fig_file, "--queries", str(queries)])
    assert code == 0
    report = parse_human(out)
    assert report["argmin(1..19]"] == "11"
    assert report["argmin(5..6]"] == "6"
    assert int(report["size"]) > 0
    assert int(report["height"]) <= int(report["slp_height"])


def test_lcp_rmq_odd_query_tokens_rejected(capsys, tmp_path, fig_file):
    queries = tmp_path / "q.txt"
    queries.write_text("1 19 5\n")
    code, _, err = run_cli(capsys, ["lcp-rmq", "--input", fig_file, "--queries", str(queries)])
    assert code == 2
    assert "pairs" in err


def test_lcp_rmq_invalid_range_rejected(capsys, tmp_path, fig_file):
    queries = tmp_path / "q.txt"
    queries.write_text("7 7\n")
    code, _, err = run_cli(capsys, ["lcp-rmq", "--input", fig_file, "--queries", str(queries)])
    assert code == 2
    assert "range" in err


def test_lcp_rmq_epsilon_domain_enforced(capsys, fig_file):
    code, _, err = run_cli(capsys, ["lcp-rmq", "--input", fig_file, "--epsilon", "1.0"])
    assert code == 2
    assert err == "error: epsilon must lie strictly between 0 and 1\n"


def test_lce_queries_match_naive(capsys, tmp_path, fig_file):
    queries = tmp_path / "q.txt"
    queries.write_text("3 12\n7 7\n")
    code, out, _ = run_cli(capsys, ["lce", "--input", fig_file, "--queries", str(queries)])
    assert code == 0
    report = parse_human(out)
    assert report["lce(3,12)"] == "8"
    assert report["lce(7,7)"] == "13"


def test_lce_position_out_of_range_rejected(capsys, tmp_path, fig_file):
    queries = tmp_path / "q.txt"
    queries.write_text("0 5\n")
    code, _, err = run_cli(capsys, ["lce", "--input", fig_file, "--queries", str(queries)])
    assert code == 2
    assert "outside" in err


@pytest.mark.parametrize("output", ["human", "structured"])
def test_answers_are_written_before_the_last_query_is_answered(monkeypatch, tmp_path, output):
    """csq holds no report: of 10^4 lce queries on a text of 3,000 symbols,
    some answers are on stdout by the time the last query is answered, the
    count written only grows, and every answer is lce_naive's."""
    rng = random.Random(0x57EA)
    text = Text.from_symbols([rng.randrange(4) for _ in range(3000)], 4)
    pairs = [(rng.randint(1, text.n), rng.randint(1, text.n)) for _ in range(10**4)]
    text_path, queries = tmp_path / "t.txt", tmp_path / "q.txt"
    text_path.write_text(" ".join(map(str, text.symbols)))
    queries.write_text("\n".join(f"{i} {j}" for i, j in pairs))
    out, written = io.StringIO(), []
    query, *rest = cli._QUERIES["lce"]

    def watched(index, i, j):
        written.append(out.getvalue().count("lce("))
        return query(index, i, j)

    monkeypatch.setitem(cli._QUERIES, "lce", (watched, *rest))
    argv = ["lce", "--input", str(text_path), "--format", "ints", "--queries", str(queries)]
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--output", output]) == 0
    assert len(written) == len(pairs)
    assert written == sorted(written) and 0 < written[-1] < len(pairs)
    if output == "structured":
        report = json.loads(out.getvalue())["report"]
    else:
        report = [line.split(": ") for line in out.getvalue().splitlines()]
    answers = [(key, int(value)) for key, value in report if key.startswith("lce(")]
    assert answers == [(f"lce({i},{j})", lce_naive(text, i, j)) for i, j in pairs]


def test_queries_over_the_query_budget_exit_two(capsys, monkeypatch, tmp_path, fig_file):
    """A --queries file of more queries than the budget is refused with
    exit 2 and no report; one within it is answered as before."""
    monkeypatch.setattr(cli, "_QUERY_BUDGET", 2)
    queries = tmp_path / "q.txt"
    queries.write_text("3 12\n7 7\n19 1\n")
    code, out, err = run_cli(capsys, ["lce", "--input", fig_file, "--queries", str(queries)])
    assert (code, out) == (2, "")
    assert err == f"error: {queries} holds more than 2 queries, over the query budget of 2\n"
    queries.write_text("3 12\n7 7\n")
    code, out, _ = run_cli(capsys, ["lce", "--input", fig_file, "--queries", str(queries)])
    assert code == 0
    report = parse_human(out)
    assert report["lce(3,12)"] == "8"
    assert report["lce(7,7)"] == "13"


# ---------------------------------------------------------------------------
# gadget-verify


def test_gadget_verify_exhaustive_example(capsys):
    code, out, _ = run_cli(
        capsys, ["gadget-verify", "--kind", "lcp-select", "--size", "5", "--exhaustive"]
    )
    assert code == 0
    report = parse_human(out)
    assert report["instances"] == "120"
    assert report["mismatches"] == "0"
    assert report["anchors_consistent"] == "True"
    assert report["ok"] == "True"


def test_gadget_verify_seeded_trials_are_deterministic(capsys):
    argv = [
        "gadget-verify", "--kind", "isa-count", "--size", "6",
        "--trials", "7", "--seed", "42", "--output", "structured",
    ]
    code_a, out_a, _ = run_cli(capsys, argv)
    code_b, out_b, _ = run_cli(capsys, argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    document = json.loads(out_a)
    report = dict((key, value) for key, value in document["report"])
    assert report["instances"] == 7
    assert report["seed"] == 42
    assert report["mismatches"] == 0


def test_gadget_verify_workers_do_not_change_output(capsys):
    base = ["gadget-verify", "--kind", "phi-pred", "--size", "3",
            "--trials", "6", "--seed", "9", "--output", "structured"]
    code_a, out_a, _ = run_cli(capsys, base)
    code_b, out_b, _ = run_cli(capsys, base + ["--workers", "2"])
    assert code_a == code_b == 0
    assert out_a == out_b


def test_gadget_verify_conflicting_modes_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["gadget-verify", "--kind", "lcp-select", "--size", "3",
              "--exhaustive", "--trials", "4"])
    assert excinfo.value.code == 2
    # --trials defaults to 20, yet an explicit --trials 20 clashes all the same
    for order in (["--exhaustive", "--trials", "20"], ["--trials", "20", "--exhaustive"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["gadget-verify", "--kind", "lcp-select", "--size", "3", *order])
        assert excinfo.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


def test_gadget_verify_bad_size_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["gadget-verify", "--kind", "bwt-color", "--size", "0"])
    assert code == 2
    assert "size" in err


def test_gadget_verify_exhaustive_over_budget_exits_two(capsys):
    code, out, err = run_cli(
        capsys, ["gadget-verify", "--kind", "lcp-select", "--size", "11", "--exhaustive"]
    )
    assert code == 2
    assert out == ""
    assert "39916800 inputs, over the exhaustive budget of 1000000" in err


def test_gadget_verify_text_length_over_budget_exits_two(capsys):
    """Sizes are refused by their longest text's closed-form length, in
    trials mode too, before any gadget is built."""
    for size, shown in [("1000", "1003002004"), ("1000000000", "more than 1000000000")]:
        code, out, err = run_cli(
            capsys, ["gadget-verify", "--kind", "phi-pred", "--size", size, "--trials", "1"]
        )
        assert code == 2
        assert out == ""
        assert f"makes texts of {shown} symbols, over the text-length budget of 1000000" in err
    code, _, err = run_cli(
        capsys, ["gadget-verify", "--kind", "plcp-pred", "--size", "100", "--exhaustive"]
    )
    assert code == 2
    assert "makes texts of 1020304 symbols" in err


def test_gadget_verify_trials_over_budget_exits_two(capsys):
    """--trials is held to the budget --exhaustive is, before any input is
    drawn, so a huge count is refused instead of running without end."""
    for trials in ("1000001", str(10**12)):
        code, out, err = run_cli(
            capsys, ["gadget-verify", "--kind", "lcp-select", "--size", "3", "--trials", trials]
        )
        assert (code, out) == (2, "")
        assert err == f"error: {trials} trials are over the exhaustive budget of 1000000\n"


def test_load_text_accepts_exactly_the_text_length_budget(tmp_path):
    """Both formats load a text of exactly the budget; nothing is built."""
    n = csq.gadgets.TEXT_LENGTH_BUDGET
    assert n == 10**6
    ints = tmp_path / "ints.txt"
    ints.write_text("0 1 " * (n // 2))
    ascii_text = tmp_path / "ascii.txt"
    ascii_text.write_text("ab" * (n // 2) + "\n")
    for path, fmt in [(ints, "ints"), (ascii_text, "ascii")]:
        text = cli._load_text(argparse.Namespace(input=str(path), format=fmt))
        assert text.n == n


def test_measures_over_text_length_budget_exits_two(tmp_path, capsys, monkeypatch):
    """A text one symbol over the budget is refused before any structure is
    built, in either format, with exit 2 and no traceback."""
    n = csq.gadgets.TEXT_LENGTH_BUDGET + 1
    monkeypatch.setattr(cli, "build_bundle", lambda text: pytest.fail("text was sorted"))
    ints = tmp_path / "ints.txt"
    ints.write_text("0 " * n)
    ascii_text = tmp_path / "ascii.txt"
    ascii_text.write_text("a" * n)
    for path, fmt in [(ints, "ints"), (ascii_text, "ascii")]:
        code, out, err = run_cli(capsys, ["measures", "--input", str(path), "--format", fmt])
        assert code == 2
        assert out == ""
        assert err == f"error: {path} holds {n} symbols, over the text-length budget of 1000000\n"


def _count_reads(monkeypatch) -> dict[str, int]:
    """Spy on cli._chunks: the characters read so far, per path."""
    reads: dict[str, int] = {}
    real = cli._chunks

    def counted(path):
        for piece, more in real(path):
            reads[path] = reads.get(path, 0) + len(piece)
            yield piece, more

    monkeypatch.setattr(cli, "_chunks", counted)
    return reads


def test_raw_text_at_the_budget_by_size_is_read(tmp_path, monkeypatch):
    """A raw file of at most budget + 1 bytes is read whole and loads; the
    extra byte is room for a trailing newline."""
    n = csq.gadgets.TEXT_LENGTH_BUDGET
    reads = _count_reads(monkeypatch)
    bare = tmp_path / "bare.txt"
    bare.write_bytes(b"ab" * (n // 2))
    newline = tmp_path / "newline.txt"
    newline.write_bytes(b"ab" * (n // 2) + b"\n")
    for path in (bare, newline):
        assert cli._load_text(argparse.Namespace(input=str(path), format="ascii")).n == n
    assert reads == {str(bare): n, str(newline): n + 1}


def test_raw_text_over_the_budget_is_read_one_chunk_past_it_at_most(tmp_path, capsys, monkeypatch):
    """A raw file is refused by the rule every input file meets: read to its
    end within the chunk that passes the budget, it gets its exact count
    (less a trailing newline); with input left after that chunk, it gets
    "more than" the budget, and the rest is never read."""
    budget = csq.gadgets.TEXT_LENGTH_BUDGET
    chunk = cli._READ_CHUNK
    past = -(-budget // chunk) * chunk  # the end of the chunk that passes the budget
    reads = _count_reads(monkeypatch)
    for tail, shown in [(b"a\n", budget + 1), (b"aa", budget + 2),
                        (b"a" * (past - budget), past),
                        (b"a" * (3 * 2**20 - budget), f"more than {budget}")]:
        path = tmp_path / "big.txt"
        path.write_bytes(b"a" * budget + tail)
        reads.clear()
        code, out, err = run_cli(capsys, ["measures", "--input", str(path)])
        assert code == 2
        assert out == ""
        assert err == f"error: {path} holds {shown} symbols, over the text-length budget of {budget}\n"
        assert reads == {str(path): min(budget + len(tail), past)}


_OFFERED = 3 * 2**20
_TEXT_BUDGET = csq.gadgets.TEXT_LENGTH_BUDGET
_OVER_TEXT_BUDGET = "{fifo} holds more than {budget} symbols, over the text-length budget of {budget}"


@pytest.mark.parametrize(
    "flag, fmt, unit, budget, message, most_written",
    [
        ("--queries", "ascii", b"1 ", 1000,
         "{fifo} holds more than {budget} queries, over the query budget of {budget}", _OFFERED),
        ("--input", "ascii", b"a", _TEXT_BUDGET, _OVER_TEXT_BUDGET, 2 * _TEXT_BUDGET),
        ("--input", "ints", b"0 ", _TEXT_BUDGET, _OVER_TEXT_BUDGET, _OFFERED),
        ("--input", "ints", b"7", _TEXT_BUDGET,
         "malformed integer '" + "7" * 20 + "'... in {fifo}: over {limit} characters", _OFFERED),
    ],
    ids=["queries", "raw-text", "integer-text", "endless-token"],
)
def test_input_from_a_pipe_is_refused_before_it_is_drained(
    capsys, monkeypatch, tmp_path, fig_file, flag, fmt, unit, budget, message, most_written
):
    """Every input file is read in chunks and counted as it comes, so a
    writer offering 3 MiB of one repeated unit cannot get them all out.  A
    --queries file (against a budget of 1000 queries), a raw text and an
    integer text are refused once their count passes the budget with input
    left.  Every token of a chunk, a carried one too, is checked against
    _TOKEN_MAX, so an endless token is refused too, and the message shows
    only its start."""
    if flag == "--queries":
        monkeypatch.setattr(cli, "_QUERY_BUDGET", budget)
    fifo = tmp_path / "input.fifo"
    os.mkfifo(fifo)
    written = []

    def writer():
        fd = os.open(fifo, os.O_WRONLY)
        sent = 0
        try:
            while sent < _OFFERED:
                sent += os.write(fd, unit * (min(2**16, _OFFERED - sent) // len(unit)))
        except BrokenPipeError:
            pass
        finally:
            os.close(fd)
            written.append(sent)

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    command = ["lce", "--input", fig_file] if flag == "--queries" else ["measures"]
    code, out, err = run_cli(capsys, [*command, flag, str(fifo), "--format", fmt])
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert (code, out) == (2, "")
    assert err == f"error: {message.format(fifo=fifo, budget=budget, limit=cli._TOKEN_MAX)}\n"
    assert written and written[0] < most_written


def test_integer_reads_split_tokens_across_chunks_as_one_read_would(tmp_path, monkeypatch):
    """Chunk edges fall inside tokens and whitespace runs alike; the values
    and the malformed-token message are those of one whole-file split."""
    monkeypatch.setattr(cli, "_READ_CHUNK", 5)
    rng = random.Random(0x1D5)
    tokens = [str(rng.randrange(10 ** rng.randint(1, 12))) for _ in range(400)]
    path = tmp_path / "ints.txt"

    def write() -> None:
        gaps = [" ", "\n", "\t ", "\xa0", "  \r\n"]
        path.write_bytes("".join(t + rng.choice(gaps) for t in tokens).encode("latin-1"))

    write()
    assert cli._read_ints(str(path), csq.gadgets.TEXT_LENGTH_BUDGET) == list(map(int, tokens))
    tokens[300] = "12x4"
    write()
    with pytest.raises(cli.CliError) as info:
        cli._read_ints(str(path), csq.gadgets.TEXT_LENGTH_BUDGET)
    assert str(info.value) == f"malformed integer '12x4' in {path}"


def test_integer_tokens_of_one_chunk_keep_their_messages(tmp_path):
    """A malformed token of at most _TOKEN_MAX characters is refused with
    its whole text; a longer one is refused by its length, and only its
    start is shown."""
    path = tmp_path / "ints.txt"
    limit = cli._TOKEN_MAX
    long = "7" * (limit - 1) + "x"
    path.write_text(f"1 {long} 2\n")
    with pytest.raises(cli.CliError) as info:
        cli._read_ints(str(path), csq.gadgets.TEXT_LENGTH_BUDGET)
    assert str(info.value) == f"malformed integer {long!r} in {path}"
    path.write_text(f"1 {'7' * (2 * limit)} 2\n")
    with pytest.raises(cli.CliError) as info:
        cli._read_ints(str(path), csq.gadgets.TEXT_LENGTH_BUDGET)
    assert str(info.value) == f"malformed integer '{'7' * 20}'... in {path}: over {limit} characters"


def test_integer_token_across_two_chunks_is_refused_by_its_length(tmp_path):
    """A token that starts inside one chunk and ends in the next is refused
    by its whole length, and the message shows only its start."""
    path = tmp_path / "ints.txt"
    limit = cli._TOKEN_MAX
    pad = " " * (cli._READ_CHUNK - 2 - limit // 2)  # the token straddles the chunk edge
    path.write_text(f"1{pad}{'7' * limit}x 2\n")
    with pytest.raises(cli.CliError) as info:
        cli._read_ints(str(path), csq.gadgets.TEXT_LENGTH_BUDGET)
    assert str(info.value) == f"malformed integer '{'7' * 20}'... in {path}: over {limit} characters"


def test_integer_tokens_hold_every_64_bit_value(tmp_path):
    """_TOKEN_MAX admits the longest signed and unsigned 64-bit values, and
    refuses one character more."""
    path = tmp_path / "ints.txt"
    extremes = [-(2**63), 2**64 - 1]
    path.write_text(" ".join(map(str, extremes)))
    assert cli._read_ints(str(path), csq.gadgets.TEXT_LENGTH_BUDGET) == extremes
    assert max(len(str(v)) for v in extremes) == cli._TOKEN_MAX
    path.write_text(f"1 0{2**64 - 1}")
    with pytest.raises(cli.CliError, match=f"over {cli._TOKEN_MAX} characters"):
        cli._read_ints(str(path), csq.gadgets.TEXT_LENGTH_BUDGET)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero device")
def test_raw_text_from_an_endless_device_is_refused(capsys):
    code, out, err = run_cli(capsys, ["measures", "--input", "/dev/zero"])
    assert code == 2
    assert out == ""
    assert "holds more than 1000000 symbols" in err


def test_gadget_verify_pool_gets_one_window_at_a_time(capsys, monkeypatch):
    """ProcessPoolExecutor.map lists its whole iterable at once, so the
    inputs reach the pool in bounded windows: no more than one window is
    ever drawn and not yet verified."""
    drawn, verified, held = [], [], []
    real_inputs, real_verify = csq.gadgets.instance_inputs, cli._verify_one

    def counted_inputs(*args, **kwargs):
        count, inputs = real_inputs(*args, **kwargs)
        return count, (drawn.append(data) or data for data in inputs)

    def counted_verify(kind, data):
        verified.append(data)
        return real_verify(kind, data)

    class EagerPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            items = list(iterable)
            held.append(len(drawn) - len(verified))
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", EagerPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(csq.gadgets, "instance_inputs", counted_inputs)
    monkeypatch.setattr(cli, "_verify_one", counted_verify)
    monkeypatch.setattr(cli, "_POOL_WINDOW", 4)
    base = ["gadget-verify", "--kind", "isa-count", "--size", "3", "--output", "structured"]
    serial = run_cli(capsys, base + ["--trials", "10"])
    assert held == []
    sharded = run_cli(capsys, base + ["--trials", "10", "--workers", "2"])
    assert held == [4, 4, 2]
    assert len(drawn) == 20 and len(verified) == 20
    assert sharded == serial


def test_gadget_verify_workers_are_clamped(capsys, monkeypatch):
    """At most one worker per CPU and per instance; no process is started."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    base = ["gadget-verify", "--kind", "lcp-select", "--size", "3", "--output", "structured"]
    for cpus, trials, workers, want in [
        (4, 6, 64, [4]),
        (4, 3, 64, [3]),
        (8, 6, 2, [2]),
        (1, 6, 8, []),
        (None, 6, 8, []),
        (4, 1, 8, []),
    ]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        pools.clear()
        serial = run_cli(capsys, base + ["--trials", str(trials)])
        sharded = run_cli(capsys, base + ["--trials", str(trials), "--workers", str(workers)])
        assert pools == want, (cpus, trials, workers)
        assert sharded == serial
    for workers in ("0", "-2"):
        code, out, err = run_cli(capsys, base + ["--workers", workers])
        assert code == 2
        assert out == ""
        assert "--workers must be at least 1" in err


def test_gadget_verify_mismatch_exits_one(capsys, monkeypatch):
    genuine = verify_reduction("lcp-select", build_gadget("lcp-select", (2, 1)))
    doctored = dataclasses.replace(
        genuine, mismatch_count=3, first_mismatch=("query", 1, 1, 0, 9)
    )
    monkeypatch.setattr(csq.gadgets, "verify_reduction", lambda kind, gadget: doctored)
    code, out, _ = run_cli(
        capsys, ["gadget-verify", "--kind", "lcp-select", "--size", "2", "--exhaustive"]
    )
    assert code == 1
    report = parse_human(out)
    assert report["mismatches"] == "6"
    assert report["ok"] == "False"
    assert "first_mismatch" in report


# ---------------------------------------------------------------------------
# input handling and determinism


def test_missing_input_file_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["arrays", "--input", str(tmp_path / "absent.txt")])
    assert code == 2
    assert "cannot read" in err


def test_malformed_integer_input_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 xy 3")
    code, _, err = run_cli(capsys, ["arrays", "--input", str(path), "--format", "ints"])
    assert code == 2
    assert "'xy'" in err


def test_negative_integer_input_is_usage_error(capsys, tmp_path):
    path = tmp_path / "neg.txt"
    path.write_text("1 -2 3")
    code, _, err = run_cli(capsys, ["measures", "--input", str(path), "--format", "ints"])
    assert code == 2
    assert err.startswith("error:")


def test_empty_input_is_usage_error(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n")
    code, _, err = run_cli(capsys, ["measures", "--input", str(path)])
    assert code == 2
    assert "holds no text" in err


def test_trailing_newline_is_stripped(capsys, tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_text(FIG_ASCII + "\n")
    code, out, _ = run_cli(capsys, ["arrays", "--input", str(path)])
    assert code == 0
    assert parse_human(out)["n"] == "19"


def test_structured_output_is_byte_identical_across_runs(capsys, fig_file):
    argv = ["measures", "--input", fig_file, "--output", "structured"]
    _, out_a, _ = run_cli(capsys, argv)
    _, out_b, _ = run_cli(capsys, argv)
    assert out_a == out_b
    json.loads(out_a)


# The full structured document of every subcommand on the
# figure text.  Refactoring the command line must leave every byte alone.
FIGURE_REPORTS = json.loads((pathlib.Path(__file__).parent / "figure_reports.json").read_text())

FIGURE_QUERIES = {"ilf": "1 5 12 19\n", "lcp-rmq": "1 19\n5 6\n0 19\n", "lce": "3 12\n7 7\n19 1\n"}

FIGURE_COMMANDS = {
    "arrays": ["arrays", "--input", "{fig}"],
    "arrays-ints": ["arrays", "--input", "{ints}", "--format", "ints"],
    "measures": ["measures", "--input", "{fig}"],
    "ilf-bisect": ["ilf", "--input", "{fig}", "--queries", "{queries}"],
    "lcp-rmq": ["lcp-rmq", "--input", "{fig}", "--queries", "{queries}"],
    "lce": ["lce", "--input", "{fig}", "--queries", "{queries}"],
    "gadget-verify-trials": ["gadget-verify", "--kind", "isa-count", "--size", "4",
                             "--trials", "5", "--seed", "3"],
    "gadget-verify-exhaustive": ["gadget-verify", "--kind", "lcp-select", "--size", "3",
                                 "--exhaustive"],
}


@pytest.mark.parametrize("name", sorted(FIGURE_COMMANDS))
def test_structured_report_matches_recorded_document(capsys, tmp_path, fig_file, name):
    argv = FIGURE_COMMANDS[name]
    ints = tmp_path / "fig1.ints"
    ints.write_text(" ".join(str(ord(c)) for c in FIG_ASCII))
    queries = tmp_path / "queries.txt"
    queries.write_text(FIGURE_QUERIES.get(argv[0], ""))
    paths = {"fig": fig_file, "ints": str(ints), "queries": str(queries)}
    argv = [arg.format(**paths) for arg in argv] + ["--output", "structured"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert out == json.dumps(FIGURE_REPORTS[name], separators=(",", ":")) + "\n"


def test_every_subcommand_has_a_recorded_document():
    """Each subcommand's structured report is pinned above, so none can
    print a field that varies from run to run."""
    assert set(cli._HANDLERS) == {argv[0] for argv in FIGURE_COMMANDS.values()}


@pytest.mark.parametrize("argv", [
    ["ilf-bench", "--input", "{fig}"],
    ["lcp-rmq", "--input", "{fig}", "--bench"],
    ["lcp-rmq", "--input", "{fig}", "--repeat", "2"],
    ["lcp-rmq", "--input", "{fig}", "--batch", "10"],
], ids=["ilf-bench", "bench", "repeat", "batch"])
def test_timing_commands_are_usage_errors(capsys, fig_file, argv):
    """csq times nothing: timing lives in perfbench and scripts/tradeoff.py."""
    with pytest.raises(SystemExit) as info:
        main([arg.format(fig=fig_file) for arg in argv])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# the shared parser


def test_main_builds_one_parser_tree_per_process(capsys, monkeypatch, fig_file):
    """Repeated in-process calls reuse the first call's parser: no call
    after the first constructs an ArgumentParser."""
    cli._build_parser.cache_clear()
    constructed = []
    real_init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        constructed.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    totals = []
    for argv in (["measures", "--input", fig_file], ["arrays", "--input", fig_file],
                 ["gadget-verify", "--kind", "lcp-select", "--size", "3", "--exhaustive"]):
        assert main(argv) == 0
        totals.append(len(constructed))
    capsys.readouterr()
    # the first call builds the top-level parser, its parents and subparsers
    assert totals[0] > 1 and totals == [totals[0]] * 3


def _parse_outcome(parser, argv):
    """vars of the parsed namespace, or the exit code and stderr of a refusal."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, err.getvalue()


def test_shared_parser_answers_as_a_fresh_one(fig_file):
    """One parser answers a sequence of command lines, refusals included,
    exactly as a parser built for each line does, and nothing carries over
    from one line to the next."""
    verify = ["gadget-verify", "--kind", "lcp-select", "--size", "3"]
    argvs = [
        verify,
        [*verify, "--trials", "20", "--exhaustive"],
        ["lcp-select", "--input", fig_file],
        ["lce", "--epsilon", "0.3", "--input", fig_file, "--queries", fig_file],
        ["lcp-rmq", "--input", fig_file, "--format", "ints", "--output", "structured"],
        ["lce", "--epsilon", "x", "--input", fig_file],
        [*verify, "--trials", "7", "--seed", "5"],
        verify,
    ]
    shared = cli._build_parser()
    outcomes = [_parse_outcome(shared, argv) for argv in argvs]
    assert outcomes == [_parse_outcome(cli._build_parser.__wrapped__(), argv) for argv in argvs]
    assert cli._build_parser() is shared
    first = outcomes[0]
    assert first["trials"] == 20 and type(first["trials"]) is int
    assert first["exhaustive"] is False
    assert outcomes[-1] == first
    assert outcomes[1][0] == outcomes[2][0] == outcomes[5][0] == 2
    assert "not allowed with argument" in outcomes[1][1]
    assert "invalid choice: 'lcp-select'" in outcomes[2][1]
    assert outcomes[3]["epsilon"] == 0.3
    assert outcomes[6]["trials"] == 7


# ---------------------------------------------------------------------------
# output stream


def test_closed_stdout_ends_quietly(capsys, monkeypatch, fig_file):
    """A reader that leaves early (`csq arrays ... | head -1`) costs no
    traceback: the report's write fails, the exit code stands, stderr is
    empty, and stdout is left pointing at the null device."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    closed = open(write_end, "w")
    monkeypatch.setattr(sys, "stdout", closed)
    try:
        assert main(["arrays", "--input", fig_file]) == 0
        closed.write("after the pipe closed\n")
        closed.flush()
    finally:
        closed.close()
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# fuzzed command lines

_TOKENS = st.one_of(
    st.integers(-3, 9).map(str),
    st.sampled_from(["-0", "+7", str(2**70), str(-(2**70)), "9" * 40, "x", "1.5", "0x1f",
                     "--2", "1_0", "\xb2", "\x00"]),
)


@given(
    raw=st.binary(max_size=40),
    ints=st.lists(_TOKENS, max_size=40),
    queries=st.lists(_TOKENS, max_size=12),
    use_ints=st.booleans(),
    use_queries=st.booleans(),
    epsilon=st.sampled_from(["0", "-1", "0.5", "0.99", "nan", "inf", "1e308"]),
    size=st.integers(-3, 4),
    trials=st.integers(-1, 3),
    workers=st.sampled_from(["-1", "0", "1"]),
    kind=st.sampled_from(csq.gadgets.KINDS),
    mode=st.sampled_from(["default", "trials", "exhaustive", "both"]),
)
@settings(max_examples=60, deadline=None)
def test_fuzzed_command_lines_exit_zero_one_or_two(
    tmp_path_factory, raw, ints, queries, use_ints, use_queries, epsilon, size, trials, workers,
    kind, mode,
):
    """Every subcommand, called in-process on random files and flag values,
    returns or exits with 0, 1 or 2 and never raises anything else.  Only
    --workers of at most 1 are drawn, so no process pool starts; exhaustive
    runs are drawn only up to size 3, which take milliseconds."""
    folder = tmp_path_factory.mktemp("fuzz")
    paths = {name: folder / name for name in ("raw.txt", "ints.txt", "queries.txt")}
    paths["raw.txt"].write_bytes(raw)
    paths["ints.txt"].write_bytes(" ".join(ints).encode("latin-1"))
    paths["queries.txt"].write_bytes("\n".join(queries).encode("latin-1"))
    text = ["--input", str(paths["ints.txt"]), "--format", "ints"] if use_ints else [
        "--input", str(paths["raw.txt"])]
    asked = ["--queries", str(paths["queries.txt"])] if use_queries else []
    verify = ["gadget-verify", "--kind", kind, "--size", str(size), "--workers", workers]
    if mode in ("exhaustive", "both") and size <= 3:
        verify.append("--exhaustive")
    if mode in ("trials", "both"):
        verify += ["--trials", str(trials)]
    argvs = [
        ["arrays", *text],
        ["measures", *text],
        ["ilf", *text, *asked],
        ["lcp-rmq", *text, *asked, "--epsilon", epsilon],
        ["lce", *text, *asked, "--epsilon", epsilon],
        verify,
    ]
    for argv in argvs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, code, err.getvalue())
