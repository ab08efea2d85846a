"""Command-line entry point for the compressed string-query toolkit.

One executable exposes array dumps, repetitiveness measures, the
run-boundary inverse-LF index, the grammar LCP-RMQ/LCE structures and
gadget verification.  Reports are line-oriented ``key: value`` text or,
with ``--output structured``, a single schema-versioned JSON document;
identical configurations (including seeds and worker counts) render
byte-identical structured reports.  Each subcommand checks its input and
builds its structures first; query answers are then made as the report is
written, so no report is held whole.

Exit codes: 0 success, 1 verification mismatch, 2 usage or input error.

``main`` may be called repeatedly in one process: it builds the argument
parser on its first call and reuses it, since parsing a command line
leaves no state in the parser.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from array import array
from functools import cache, partial, reduce
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Sequence

from . import gadgets
from .grammar_lcp_rmq import build_lcp_rmq_index, check_epsilon, lce_query, lcp_rmq
from .measures import bwt_run_count, lz77_factorize, run_length_encode, substring_complexity
from .rlbwt_ilf import build_ilf_index, ilf_query
from .text_core import Text, build_bundle

_SCHEMA_VERSION = 1

_POOL_WINDOW = 4096
"""The most gadget inputs ``gadget-verify --workers`` hands the pool at once."""

_QUERY_BUDGET = 10**6
"""The most queries a ``--queries`` file may hold.  Answers are written as
they are made, but the file is read whole, so that a bad query is refused
before the sort; the budget bounds that list."""

_WRITE_BATCH = 4096
"""Report items per write to stdout; one write per item is half again slower."""

_READ_CHUNK = 2**16
"""Bytes per read of an input file."""

_TOKEN_MAX = 20
"""The most characters of one integer token: every 64-bit value fits."""


class CliError(Exception):
    """Unusable input or configuration; rendered as an error and exit 2."""


Items = Iterable[tuple[str, object]]
"""A report: its (key, value) pairs in order, written as they come."""


def _human(value: object) -> str:
    if isinstance(value, (list, tuple, array)):
        return " ".join(str(v) for v in value)
    return str(value)


# ---------------------------------------------------------------------------
# Input loading and shared checks


def _chunks(path: str) -> Iterator[tuple[str, bool]]:
    """A file's bytes as latin-1 pieces of at most _READ_CHUNK, each with
    whether more input follows; the one place ``csq`` opens an input file."""
    try:
        with open(path, "rb") as handle:
            while piece := handle.read(_READ_CHUNK):
                yield piece.decode("latin-1"), bool(handle.peek(1))
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _refuse_over(path: str, count: int, more: bool, budget: int,
                 refusal: CliError | None = None) -> None:
    """The one rule for every input file: ``count`` items over ``budget``
    raise ``refusal`` (by default the text-length one), shown as "more than
    the budget" while input is left, so a pipe or a device is never
    drained, and as the exact count at end of file."""
    if count > budget:
        shown = f"more than {budget}" if more else count
        raise refusal or CliError(f"{path} holds {shown} symbols, "
                                  f"over the text-length budget of {budget}")


def _read_raw(path: str) -> str:
    """A raw text, less one trailing newline, read in chunks."""
    budget = gadgets.TEXT_LENGTH_BUDGET
    pieces: list[str] = []
    count = 0
    for piece, more in _chunks(path):
        pieces.append(piece)
        count += len(piece) - (not more and piece.endswith("\n"))
        _refuse_over(path, count, more, budget)
    return "".join(pieces).removesuffix("\n")


def _read_ints(path: str, budget: int, refusal: CliError | None = None) -> list[int]:
    """The whitespace-separated integers of a file, read in chunks and
    counted as they come; a token over _TOKEN_MAX characters is refused."""
    values: list[int] = []
    tail = ""
    for piece, more in _chunks(path):
        tokens = (tail + piece).split()
        if tokens and max(map(len, tokens)) > _TOKEN_MAX:
            token = next(t for t in tokens if len(t) > _TOKEN_MAX)
            raise CliError(f"malformed integer {token[:_TOKEN_MAX]!r}... in {path}: "
                           f"over {_TOKEN_MAX} characters")
        # A token that reaches a chunk's end may go on in the next.
        tail = tokens.pop() if more and not piece[-1].isspace() else ""
        for token in tokens:
            try:
                values.append(int(token))
            except ValueError:
                raise CliError(f"malformed integer {token!r} in {path}") from None
        _refuse_over(path, len(values), more, budget, refusal)
    return values


def _load_text(args: argparse.Namespace) -> Text:
    if args.format == "ints":
        symbols = _read_ints(args.input, gadgets.TEXT_LENGTH_BUDGET)
        if not symbols:
            raise CliError(f"{args.input} holds no integers")
        try:
            return Text.from_symbols(symbols)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    raw = _read_raw(args.input)
    if not raw:
        raise CliError(f"{args.input} holds no text")
    return Text.from_ascii(raw)


# Per subcommand: the query function, the integers per query, the range
# check given n, the message for a query out of range, and the report key.
_QUERIES = {
    "ilf": (ilf_query, 1, lambda n, i: 1 <= i <= n,
            "query position {} outside [1..{n}]", "ilf[{}]"),
    "lcp-rmq": (lcp_rmq, 2, lambda n, b, e: 0 <= b < e <= n,
                "range ({}..{}] is not a valid rank range of [1..{n}]", "argmin({}..{}]"),
    "lce": (lce_query, 2, lambda n, i, j: 1 <= i <= n and 1 <= j <= n,
            "positions ({},{}) outside [1..{n}]", "lce({},{})"),
}


def _read_queries(args: argparse.Namespace, n: int) -> list[int]:
    """The ``--queries`` file's integers, if any, checked against the query
    budget, the arity and the range of a text of length n, so that a bad
    file is refused before any sort."""
    if args.queries is None:
        return []
    _, arity, valid, invalid, _ = _QUERIES[args.subcommand]
    budget = arity * _QUERY_BUDGET
    too_many = CliError(f"{args.queries} holds more than {_QUERY_BUDGET} queries, "
                        f"over the query budget of {_QUERY_BUDGET}")
    values = _read_ints(args.queries, budget, too_many)
    if len(values) % arity:
        raise CliError(
            f"{args.subcommand} queries come in pairs; {args.queries} holds {len(values)} integers"
        )
    for q in _groups(values, arity):
        if not valid(n, *q):
            raise CliError(invalid.format(*q, n=n))
    return values


def _groups(values: list[int], arity: int):
    """Consecutive groups of ``arity`` values."""
    return zip(*[iter(values)] * arity)


def _answer_queries(args: argparse.Namespace, index, values: list[int]) -> Items:
    """The answers to the queries _read_queries checked, made as they are written."""
    query, arity, _, _, key = _QUERIES[args.subcommand]
    for q in _groups(values, arity):
        yield key.format(*q), query(index, *q)


# ---------------------------------------------------------------------------
# Subcommand handlers: each does all its fallible work, then returns its exit
# code and its report items, which may end in a lazy stream of answers.


def _cmd_arrays(args: argparse.Namespace) -> tuple[int, Items]:
    text = _load_text(args)
    bundle = build_bundle(text)
    items: list[tuple[str, object]] = [("n", text.n)]
    for row in ("sa", "isa", "lcp", "plcp", "bwt", "lf", "ilf", "phi", "inv_phi"):
        values = getattr(bundle, row)[1:]
        # as characters only while they cannot break the line-oriented output
        if row == "bwt" and args.format == "ascii" and all(0x20 <= c <= 0x7E for c in values):
            values = "".join(map(chr, values))
        items.append((row, values))
    return 0, items


def _cmd_measures(args: argparse.Namespace) -> tuple[int, Items]:
    text = _load_text(args)
    bundle = build_bundle(text)  # held, so each measure reads its rows: one sort
    n = text.n
    runs = run_length_encode(text).run_count
    z = lz77_factorize(text).phrase_count
    r = bwt_run_count(text)
    delta = substring_complexity(text)
    value = delta.numerator / delta.denominator
    items = [
        ("n", n), ("sigma", len(set(text.symbols))), ("rl_runs", runs), ("z", z),
        ("bwt_runs", r), ("delta", f"{delta.numerator}/{delta.denominator}"),
        ("delta_decimal", f"{value:.6f}"), ("delta_arg_len", delta.arg_len),
    ]
    if n >= 2:
        log = math.log2(n)
        items += [("z/(delta log n)", f"{z / (value * log):.6f}"),
                  ("r/(delta log^2 n)", f"{r / (value * log * log):.6f}")]
    items += [("delta/z", f"{value / z:.6f}"), ("delta/r", f"{value / r:.6f}")]
    return 0, items


def _cmd_ilf(args: argparse.Namespace) -> tuple[int, Items]:
    text = _load_text(args)
    queries = _read_queries(args, text.n)
    bundle = build_bundle(text)  # held, so the index reads its rows: one sort
    index = build_ilf_index(text)
    oracle = bundle.ilf
    mismatches = sum(
        1 for i in range(1, text.n + 1) if ilf_query(index, i) != oracle[i]
    )
    keys = ("boundary_count", "r_original", "r_shifted", "stored_integers")
    items = [("n", text.n), *((key, getattr(index, key)) for key in keys),
             ("oracle_mismatches", mismatches)]
    return 1 if mismatches else 0, chain(items, _answer_queries(args, index, queries))


def _cmd_grammar(args: argparse.Namespace) -> tuple[int, Items]:
    """``lcp-rmq`` and ``lce``: one grammar index, its shape, its queries."""
    text = _load_text(args)
    try:
        check_epsilon(args.epsilon)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    queries = _read_queries(args, text.n)
    bundle = build_bundle(text)  # held, so the index and r read its rows: one sort
    index = build_lcp_rmq_index(text, epsilon=args.epsilon)
    r = bwt_run_count(text)
    keys = ("k_widen", "ell", "slp_size", "slp_height", "size", "height")
    items = [("n", text.n), ("epsilon", f"{args.epsilon:g}"),
             *((key, getattr(index, key)) for key in keys), ("bwt_runs", r)]
    if text.n >= 2:
        log = math.log2(text.n)
        items.append(("size/(r log^2 n)", f"{index.size / (r * log * log):.6f}"))
    return 0, chain(items, _answer_queries(args, index, queries))


def _verify_one(kind: str, data: tuple[int, ...]) -> gadgets.ReductionReport:
    return gadgets.verify_reduction(kind, gadgets.build_gadget(kind, data))


def _cmd_gadget_verify(args: argparse.Namespace) -> tuple[int, Items]:
    if args.workers < 1:
        raise CliError("--workers must be at least 1")
    try:
        count, inputs = gadgets.instance_inputs(
            args.kind, args.size, exhaustive=args.exhaustive, trials=args.trials, seed=args.seed
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    workers = min(args.workers, os.cpu_count() or 1, count)
    verify = partial(_verify_one, args.kind)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # pool.map submits its whole iterable at once, so it gets one window
        # of inputs at a time, and each window's reports fold into the merge.
        chunk = max(1, min(count, _POOL_WINDOW) // (workers * 4))
        windows = iter(lambda: list(islice(inputs, _POOL_WINDOW)), [])
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = chain.from_iterable(
                pool.map(verify, window, chunksize=chunk) for window in windows
            )
            merged = reduce(gadgets.merge_reports, reports)
    else:
        merged = reduce(gadgets.merge_reports, map(verify, inputs))
    items = [("kind", args.kind), ("size", args.size),
             ("mode", "exhaustive" if args.exhaustive else "trials")]
    if not args.exhaustive:
        items.append(("seed", args.seed))
    items += [("instances", merged.instances), ("queries", merged.query_count),
              ("mismatches", merged.mismatch_count)]
    for key in ("text_length", "rl_runs", "lz_phrases", "cert_phrases", "cert_bound",
                "anchors_consistent"):
        items.append((key, getattr(merged, key)))
    if merged.first_mismatch is not None:
        items.append(("first_mismatch", repr(merged.first_mismatch)))
    items.append(("ok", merged.ok))
    return 0 if merged.ok else 1, items


_HANDLERS: dict[str, Callable[[argparse.Namespace], tuple[int, Items]]] = {
    "arrays": _cmd_arrays,
    "measures": _cmd_measures,
    "ilf": _cmd_ilf,
    "lcp-rmq": _cmd_grammar,
    "lce": _cmd_grammar,
    "gadget-verify": _cmd_gadget_verify,
}


# ---------------------------------------------------------------------------
# Argument parsing


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one ``csq`` parser, built on first use and shared by every
    ``main`` call; each ``parse_args`` gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="csq",
        description=(
            "Compressed string-query toolkit: suffix-array bundles, "
            "repetitiveness measures, run-boundary inverse-LF queries, "
            "grammar LCP-RMQ/LCE, and gadget verification."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", choices=("human", "structured"), default="human",
                        help="line-oriented key/value text (default) or one JSON document")
    infile = argparse.ArgumentParser(add_help=False)
    infile.add_argument("--input", required=True, metavar="PATH", help="input text file")
    infile.add_argument("--format", choices=("ascii", "ints"), default="ascii",
                        help="read the file as raw bytes or as whitespace-separated integers")
    epsilon = argparse.ArgumentParser(add_help=False)
    epsilon.add_argument("--epsilon", type=float, default=0.5,
                         help="widening depth parameter in (0,1)")
    text_in = [infile, output]

    sub.add_parser("arrays", parents=text_in,
                   help="dump the nine suffix-array bundle rows of a text")
    sub.add_parser("measures", parents=text_in,
                   help="report repetitiveness measures and their bound ratios")

    p = sub.add_parser("ilf", parents=text_in, help=(
        "build the run-boundary inverse-LF index, check it against the bundle, answer queries"))
    p.add_argument("--queries", metavar="PATH", help="file of positions, one per inverse-LF query")

    p = sub.add_parser("lcp-rmq", parents=[*text_in, epsilon],
                       help="build the grammar LCP index, answer range-argmin queries over (b..e]")
    p.add_argument("--queries", metavar="PATH", help="file of b e pairs")

    p = sub.add_parser("lce", parents=[*text_in, epsilon],
                       help="build the grammar LCE index, answer longest-common-extension queries")
    p.add_argument("--queries", metavar="PATH", help="file of i j pairs")

    p = sub.add_parser("gadget-verify", parents=[output], help=(
        "construct gadget texts and replay their query domains against definitions"))
    p.add_argument("--kind", required=True, choices=gadgets.KINDS)
    p.add_argument("--size", required=True, type=int, help="permutation length n or set size m")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true",
                       help="enumerate every input of the given size")
    # The default is a str that argparse converts, so an explicit
    # "--trials 20" is still told apart from it and clashes with --exhaustive.
    group.add_argument("--trials", type=int, default="20",
                       help="number of seeded random inputs (default 20)")
    p.add_argument("--seed", type=int, default=0, help="seed for random inputs")
    p.add_argument("--workers", type=int, default=1, help=(
        "shard instances across up to this many processes, at most one per CPU (default 1)"))
    return parser


def _write(subcommand: str, output: str, items: Items) -> None:
    """Write a report's items as they come, _WRITE_BATCH to a write: as
    ``key: value`` lines, or as the very JSON document that one
    ``json.dumps`` of the whole report would make."""
    items = iter(items)
    batches = iter(lambda: list(islice(items, _WRITE_BATCH)), [])
    write = sys.stdout.write
    if output == "structured":
        document = {"schema": _SCHEMA_VERSION, "subcommand": subcommand, "report": []}
        shell = json.dumps(document, separators=(",", ":"))
        write(shell[:-2])  # up to the report's opening bracket
        for k, batch in enumerate(batches):
            # a row array becomes a list only while it is encoded
            write("," * (k > 0) + json.dumps(batch, separators=(",", ":"), default=list)[1:-1])
        write(shell[-2:] + "\n")
    else:
        for batch in batches:
            write("".join(f"{key}: {_human(value)}\n" for key, value in batch))
    sys.stdout.flush()


def run(args: argparse.Namespace) -> int:
    """Run one parsed command line, write its report as it is made, and
    return the exit code."""
    try:
        code, items = _HANDLERS[args.subcommand](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _write(args.subcommand, args.output, items)
    except BrokenPipeError:
        # The reader left early (say, `csq ... | head -1`).  Point stdout at
        # the null device so that the flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
