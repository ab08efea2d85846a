"""Command-line entry point for the compressed string-query toolkit.

One executable exposes array dumps, repetitiveness measures, the
run-boundary inverse-LF index, the grammar LCP-RMQ/LCE structures,
gadget verification, and micro-benchmarks.  Reports are line-oriented
``key: value`` text or, with ``--output structured``, a single
schema-versioned JSON document; identical configurations (including
seeds and worker counts) render byte-identical structured reports,
except for the wall-clock fields of the benchmark commands.

Exit codes: 0 success, 1 verification mismatch, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import chain, islice
from typing import Callable, Sequence

from . import gadgets
from .grammar_lcp_rmq import build_lcp_rmq_index, check_epsilon, lce_query, lcp_rmq
from .measures import bwt_run_count, lz77_factorize, run_length_encode, substring_complexity
from .rlbwt_ilf import build_ilf_index, ilf_query
from .text_core import Text, build_bundle

_SCHEMA_VERSION = 1

_POOL_WINDOW = 4096
"""The most gadget inputs ``gadget-verify --workers`` hands the pool at once."""

_ILF_BENCH_BATCH_MAX = 10**6
"""The most query positions ``ilf-bench --batch`` draws (about 8 MiB)."""

_BENCH_REPEAT_MAX = 1000
"""The most timed passes ``--repeat`` asks of a benchmark, which keeps one
time per pass."""

_QUERY_BUDGET = 10**6
"""The most queries a ``--queries`` file may hold; every answer is kept in
the report until it is printed (about 210 bytes per query)."""

_READ_CHUNK = 2**16
"""Bytes per read of an integer file."""

_TOKEN_MAX = _READ_CHUNK
"""The most characters of one integer token; an endless one is refused."""


class CliError(Exception):
    """Unusable input or configuration; rendered as an error and exit 2."""


@dataclass
class Report:
    """Ordered key/value pairs with two deterministic renderings."""

    subcommand: str
    items: list[tuple[str, object]] = field(default_factory=list)

    def add(self, key: str, value: object) -> None:
        self.items.append((key, value))

    def render(self, output: str) -> str:
        if output == "structured":
            document = {
                "schema": _SCHEMA_VERSION,
                "subcommand": self.subcommand,
                "report": self.items,
            }
            return json.dumps(document, separators=(",", ":"))
        return "\n".join(f"{key}: {_human(value)}" for key, value in self.items)


def _human(value: object) -> str:
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


# ---------------------------------------------------------------------------
# Input loading and shared checks


def _read(path: str, size: int) -> str:
    try:
        with open(path, "rb") as handle:
            return handle.read(size).decode("latin-1")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _read_file(path: str) -> str:
    """A raw text, read to at most budget + 2 bytes (one is room for a
    trailing newline), so a pipe or a device is refused, never drained."""
    budget = gadgets.TEXT_LENGTH_BUDGET
    raw = _read(path, budget + 2)
    if len(raw) > budget + 1:
        raise _text_too_long(path, f"more than {budget}")
    return raw


def _read_ints(path: str, budget: int, refusal: CliError | None = None) -> list[int]:
    """The whitespace-separated integers of a file, read in chunks.  More
    than ``budget`` of them raise ``refusal`` (by default the text-length
    one) as soon as they are counted, as does a token that is too long, so
    a pipe or a device is never drained."""
    values: list[int] = []
    tail = ""
    try:
        with open(path, "rb") as handle:
            while True:
                piece = handle.read(_READ_CHUNK).decode("latin-1")
                tokens = (tail + piece).split()
                # A token that reaches a chunk's end may go on in the next.
                tail = tokens.pop() if piece and not piece[-1].isspace() else ""
                # Any other token lies inside one chunk, so within _TOKEN_MAX.
                for token in (*tokens[:1], tail):
                    if len(token) > _TOKEN_MAX:
                        raise CliError(f"malformed integer {token[:20]!r}... in {path}: "
                                       f"over {_TOKEN_MAX} characters")
                for token in tokens:
                    try:
                        values.append(int(token))
                    except ValueError:
                        raise CliError(f"malformed integer {token!r} in {path}") from None
                if not piece:
                    if len(values) > budget:
                        raise refusal or _text_too_long(path, len(values))
                    return values
                if len(values) > budget and handle.peek(1):
                    raise refusal or _text_too_long(path, f"more than {budget}")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_text(args: argparse.Namespace) -> Text:
    if args.format == "ints":
        symbols = _read_ints(args.input, gadgets.TEXT_LENGTH_BUDGET)
        if not symbols:
            raise CliError(f"{args.input} holds no integers")
        try:
            return Text.from_symbols(symbols)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    _within_text_budget(args.input, _raw_length_over_budget(args.input))
    raw = _read_file(args.input).removesuffix("\n")
    if not raw:
        raise CliError(f"{args.input} holds no text")
    _within_text_budget(args.input, len(raw))
    return Text.from_ascii(raw)


def _within_text_budget(path: str, n: int) -> None:
    if n > gadgets.TEXT_LENGTH_BUDGET:
        raise _text_too_long(path, n)


def _text_too_long(path: str, shown: object) -> CliError:
    budget = gadgets.TEXT_LENGTH_BUDGET
    return CliError(f"{path} holds {shown} symbols, over the text-length budget of {budget}")


def _raw_length_over_budget(path: str) -> int:
    """Symbols in a raw text file of over budget + 1 bytes (one is room for
    a trailing newline), told from its size and last byte without reading
    it; else 0, as for pipes and devices, and the read checks the count."""
    try:
        size = os.stat(path).st_size
        if size > gadgets.TEXT_LENGTH_BUDGET + 1:
            with open(path, "rb") as handle:
                handle.seek(size - 1)
                return size - (handle.read(1) == b"\n")
    except OSError:
        pass
    return 0


def _at_least_one(args: argparse.Namespace, *flags: str) -> None:
    for flag in flags:
        if getattr(args, flag) < 1:
            raise CliError(f"--{flag} must be at least 1")


def _check_timing(args: argparse.Namespace) -> None:
    _at_least_one(args, "repeat", "batch")
    if args.repeat > _BENCH_REPEAT_MAX:
        raise CliError(f"--repeat must be at most {_BENCH_REPEAT_MAX}")


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


def _answer_queries(args: argparse.Namespace, report: Report, index, values: list[int]) -> None:
    """Answer the queries _read_queries checked: one report item each."""
    query, arity, _, _, key = _QUERIES[args.subcommand]
    for q in _groups(values, arity):
        report.add(key.format(*q), query(index, *q))


def _median_pass(one_pass: Callable[[], object], repeat: int, unit: float) -> tuple[str, object]:
    """Run one warm-up pass, then ``repeat`` timed passes.  Returns the
    median pass time in units of ``unit`` seconds, rendered, and the
    result of the last pass."""
    result = one_pass()
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = one_pass()
        times.append(time.perf_counter() - start)
    return f"{statistics.median(times) / unit:.3f}", result


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_arrays(args: argparse.Namespace, report: Report) -> int:
    text = _load_text(args)
    bundle = build_bundle(text)
    report.add("n", text.n)
    for row in ("sa", "isa", "lcp", "plcp", "bwt", "lf", "ilf", "phi", "inv_phi"):
        values = list(getattr(bundle, row)[1:])
        # as characters only while they cannot break the line-oriented output
        if row == "bwt" and args.format == "ascii" and all(0x20 <= c <= 0x7E for c in values):
            values = "".join(map(chr, values))
        report.add(row, values)
    return 0


def _cmd_measures(args: argparse.Namespace, report: Report) -> int:
    text = _load_text(args)
    bundle = build_bundle(text)  # held, so each measure reads its rows: one sort
    n = text.n
    runs = run_length_encode(text).run_count
    z = lz77_factorize(text).phrase_count
    r = bwt_run_count(text)
    delta = substring_complexity(text)
    value = delta.numerator / delta.denominator
    report.add("n", n)
    report.add("sigma", len(set(text.symbols)))
    report.add("rl_runs", runs)
    report.add("z", z)
    report.add("bwt_runs", r)
    report.add("delta", f"{delta.numerator}/{delta.denominator}")
    report.add("delta_decimal", f"{value:.6f}")
    report.add("delta_arg_len", delta.arg_len)
    if n >= 2:
        log = math.log2(n)
        report.add("z/(delta log n)", f"{z / (value * log):.6f}")
        report.add("r/(delta log^2 n)", f"{r / (value * log * log):.6f}")
    report.add("delta/z", f"{value / z:.6f}")
    report.add("delta/r", f"{value / r:.6f}")
    return 0


def _cmd_ilf(args: argparse.Namespace, report: Report) -> int:
    text = _load_text(args)
    queries = _read_queries(args, text.n)
    bundle = build_bundle(text)  # held, so the index reads its rows: one sort
    index = build_ilf_index(text)
    oracle = bundle.ilf
    mismatches = sum(
        1 for i in range(1, text.n + 1) if ilf_query(index, i) != oracle[i]
    )
    report.add("n", text.n)
    for key in ("boundary_count", "r_original", "r_shifted", "stored_integers"):
        report.add(key, getattr(index, key))
    report.add("oracle_mismatches", mismatches)
    _answer_queries(args, report, index, queries)
    return 1 if mismatches else 0


def _cmd_ilf_bench(args: argparse.Namespace, report: Report) -> int:
    _check_timing(args)
    if args.batch > _ILF_BENCH_BATCH_MAX:
        raise CliError(f"--batch must be at most {_ILF_BENCH_BATCH_MAX}")
    text = _load_text(args)
    build = partial(build_ilf_index, text)
    build_ms, index = _median_pass(build, args.repeat, 1e-3)
    rng = random.Random(args.seed)
    positions = [rng.randint(1, text.n) for _ in range(args.batch)]

    def queries() -> None:
        for i in positions:
            ilf_query(index, i)

    query_us, _ = _median_pass(queries, args.repeat, 1e-6 * args.batch)
    report.add("n", text.n)
    report.add("boundary_count", index.boundary_count)
    report.add("repeat", args.repeat)
    report.add("batch", args.batch)
    report.add("build_median_ms", build_ms)
    report.add("query_median_us", query_us)
    return 0


def _cmd_grammar(args: argparse.Namespace, report: Report) -> int:
    """``lcp-rmq`` and ``lce``: one grammar index, its shape, its queries."""
    bench = args.subcommand == "lcp-rmq" and args.bench
    if bench:
        _check_timing(args)
    text = _load_text(args)
    try:
        check_epsilon(args.epsilon)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    queries = _read_queries(args, text.n)
    bundle = build_bundle(text)  # held, so the index and r read its rows: one sort
    index = build_lcp_rmq_index(text, epsilon=args.epsilon)
    r = bwt_run_count(text)
    del bundle
    report.add("n", text.n)
    report.add("epsilon", f"{args.epsilon:g}")
    for key in ("k_widen", "ell", "slp_size", "slp_height", "size", "height"):
        report.add(key, getattr(index, key))
    report.add("bwt_runs", r)
    if text.n >= 2:
        log = math.log2(text.n)
        report.add("size/(r log^2 n)", f"{index.size / (r * log * log):.6f}")
    _answer_queries(args, report, index, queries)
    if bench:
        rng = random.Random(args.seed)
        batch = min(args.batch, 4 * text.n)
        starts = (rng.randrange(text.n) for _ in range(batch))
        ranges = [(b, rng.randint(b + 1, text.n)) for b in starts]

        def queries() -> None:
            for b, e in ranges:
                lcp_rmq(index, b, e)

        median_us, _ = _median_pass(queries, args.repeat, 1e-6 * batch)
        report.add("bench_repeat", args.repeat)
        report.add("bench_batch", batch)
        report.add("bench_median_us", median_us)
    return 0


def _verify_one(kind: str, data: tuple[int, ...]) -> gadgets.ReductionReport:
    return gadgets.verify_reduction(kind, gadgets.build_gadget(kind, data))


def _cmd_gadget_verify(args: argparse.Namespace, report: Report) -> int:
    _at_least_one(args, "workers")
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
    report.add("kind", args.kind)
    report.add("size", args.size)
    report.add("mode", "exhaustive" if args.exhaustive else "trials")
    if not args.exhaustive:
        report.add("seed", args.seed)
    report.add("instances", merged.instances)
    report.add("queries", merged.query_count)
    report.add("mismatches", merged.mismatch_count)
    for key in ("text_length", "rl_runs", "lz_phrases", "cert_phrases", "cert_bound",
                "anchors_consistent"):
        report.add(key, getattr(merged, key))
    if merged.first_mismatch is not None:
        report.add("first_mismatch", repr(merged.first_mismatch))
    report.add("ok", merged.ok)
    return 0 if merged.ok else 1


_HANDLERS: dict[str, Callable[[argparse.Namespace, Report], int]] = {
    "arrays": _cmd_arrays,
    "measures": _cmd_measures,
    "ilf": _cmd_ilf,
    "ilf-bench": _cmd_ilf_bench,
    "lcp-rmq": _cmd_grammar,
    "lce": _cmd_grammar,
    "gadget-verify": _cmd_gadget_verify,
}


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
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

    def timing(p: argparse.ArgumentParser) -> None:
        # Added in place: a parent parser would put these flags ahead of the
        # subcommand's own ones in the usage line.
        p.add_argument("--repeat", type=int, default=5, help="timed repetitions (at least 1)")
        p.add_argument("--batch", type=int, default=2000, help="queries per repetition (at least 1)")
        p.add_argument("--seed", type=int, default=0, help="seed for the timed queries")

    sub.add_parser("arrays", parents=text_in,
                   help="dump the nine suffix-array bundle rows of a text")
    sub.add_parser("measures", parents=text_in,
                   help="report repetitiveness measures and their bound ratios")

    p = sub.add_parser("ilf", parents=text_in, help=(
        "build the run-boundary inverse-LF index, check it against the bundle, answer queries"))
    p.add_argument("--queries", metavar="PATH", help="file of positions, one per inverse-LF query")

    p = sub.add_parser("ilf-bench", parents=text_in,
                       help="time inverse-LF index builds and queries (never gates verification)")
    timing(p)

    p = sub.add_parser("lcp-rmq", parents=[*text_in, epsilon],
                       help="build the grammar LCP index, answer range-argmin queries over (b..e]")
    p.add_argument("--queries", metavar="PATH", help="file of b e pairs")
    p.add_argument("--bench", action="store_true",
                   help="also time --batch random queries, at most 4n (never gates)")
    timing(p)

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


def run(args: argparse.Namespace) -> int:
    """Run one parsed command line; print its report; return the exit code."""
    report = Report(args.subcommand)
    try:
        code = _HANDLERS[args.subcommand](args, report)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(report.render(args.output), flush=True)
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
